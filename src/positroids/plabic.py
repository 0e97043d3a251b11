"""Plabic graphs with a combinatorial disk embedding.

A graph is stored as a rotation system: every internal vertex carries the
counterclockwise cyclic order of its incident edges.  Boundary vertices sit on
a clockwise cycle of the disk and have degree one into the graph; for face
tracing the boundary arcs between consecutive boundary vertices are treated as
virtual edges, and a boundary vertex's implicit rotation is
``(arc to next position, arc to previous position, pendant edge)``.  Vertex
ids are positive for internal vertices and negative for boundary vertices,
and edge ids are positive.

The graph is a combinatorial map (Lando-Zvonkin, *Graphs on Surfaces and
Their Applications*, 2004).  A dart is only ever its number.  Each edge and
each boundary arc holds a slot s, with darts 2s and 2s + 1: dart 2s + end of
edge eid runs from ``edges[eid][end]`` to ``edges[eid][1 - end]``, and the arc
from boundary position p to p + 1 has slot arc0 + p, its clockwise dart even.
Dart d reverses to ``d ^ 1``.  A graph built from its fields gives its edges
slots 0 .. E - 1 in id order and the arcs the n after them.  A square move's
output keeps its input's slots instead: a deleted edge frees its slot, a new
edge takes a free one, and only when none is free does the move add a slot
past the last; so the dart arrays hold 2(E + n) darts plus those of the free
slots, however many moves a walk makes.  Whatever the slots, a face's darts
start at its first dart in (edge id, end) order, with the arcs last, and the
faces are listed in the order of their first darts.  Two integer
permutations on the dart numbers carry the embedding:

- ``face_next`` takes d to the dart leaving head(d) along the predecessor of
  d's edge in the ccw rotation.  Faces are its cycles; every face lies to the
  left of its darts, and the outer face is the cycle of clockwise arc darts,
  so it holds no edge dart.
- ``trip_next`` follows the rules of the road (Postnikov,
  arXiv:math/0609764): at a black vertex it turns onto the successor of the
  entry edge in ccw order, at a white vertex onto the predecessor.  Trips are
  its paths from boundary to boundary; it is -1 on darts that enter the
  boundary.

A trip ``i -> j`` puts ``j`` (target) or ``i`` (source) in the label of every
face on its left; both labelings come from one sweep over the dual graph
(:func:`_label_faces`).  ``Face.darts`` and ``Trip.darts`` list dart numbers,
and ``Faces.face_of`` maps each dart number to its face.

A graph is immutable after construction: local moves, relabeling and the
mirror build new graphs.  So its dart permutations, faces, trips, face
labelings and full contraction are computed once, on first use, kept on the
graph and shared by every caller; callers must not mutate what they get back
(in particular a ``Faces.face_of`` list).  A call that raises keeps nothing
and raises again.  A square move's output is built knowing that it is its own
full contraction, and inherits its darts, faces and face labelings from the
moved graph: only the darts at the vertices the move touched turn anew, and
only the faces through them are traced again.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from math import inf
from typing import Iterable, NamedTuple

from positroids import perm as permmod
from positroids.perm import DecoratedPermutation, Permutation

BLACK = "b"
WHITE = "w"

class PlabicError(ValueError):
    pass


class InvalidBridge(PlabicError):
    pass


class NotSquareEligible(PlabicError):
    pass


class AmbiguousSide(PlabicError):
    pass


@dataclass(frozen=True)
class PlabicGraph:
    boundary_order: tuple[int, ...]  # boundary vertex ids, clockwise
    labels: dict[int, int]  # boundary vertex id -> label
    colors: dict[int, str]  # internal vertex id -> BLACK | WHITE
    edges: dict[int, tuple[int, int]]  # edge id -> endpoints
    rot: dict[int, tuple[int, ...]]  # internal vertex id -> ccw edge ids

    @property
    def n(self) -> int:
        return len(self.boundary_order)

    @property
    def boundary_labels(self) -> tuple[int, ...]:
        return tuple(self.labels[b] for b in self.boundary_order)

    def is_boundary(self, v: int) -> bool:
        return v < 0

    # -- derived data, computed on first use (see the module docstring) ----

    @cached_property
    def _darts(self) -> _Darts:
        return _number_darts(self)

    @cached_property
    def _faces(self) -> Faces:
        return _find_faces(self)

    @cached_property
    def _trips(self) -> tuple[tuple[Trip, ...], DecoratedPermutation]:
        return _find_trips(self)

    @cached_property
    def _labelings(self) -> dict[str, FaceLabeling]:
        return _label_faces(self)

    @cached_property
    def _contracted(self) -> PlabicGraph | None:
        """The full contraction, on one edit and built once, or None when it
        is the graph itself (so a graph never refers to itself)."""
        ed = _Edit(self)
        return ed.build() if ed.contract() else None

    def other_end(self, eid: int, v: int) -> int:
        a, b = self.edges[eid]
        if v == a:
            return b
        if v == b:
            return a
        raise PlabicError(f"vertex {v} not on edge {eid}")

    def pendant_edge(self, bd: int) -> int:
        return self._darts.eids[self._darts.pendant[bd] >> 1]

    def validate(self) -> None:
        if sorted(self.labels.values()) != list(range(1, self.n + 1)):
            raise PlabicError("boundary labels are not a permutation of [n]")
        incident: dict[int, list[int]] = {}  # vertex -> its edges
        for eid, (a, b) in self.edges.items():
            if a == b:
                raise PlabicError(f"loop edge {eid}")
            if a > 0 and b > 0 and self.colors[a] == self.colors[b]:
                raise PlabicError(f"monochromatic edge {eid}: {a}-{b}")
            if a < 0 and b < 0:
                raise PlabicError(f"edge {eid} joins two boundary vertices")
            incident.setdefault(a, []).append(eid)
            incident.setdefault(b, []).append(eid)
        for v, order in self.rot.items():
            if sorted(order) != sorted(incident.get(v, ())):
                raise PlabicError(f"rotation at {v} does not list its incident edges")
        for b in self.boundary_order:
            if len(incident.get(b, ())) != 1:
                raise PlabicError(f"boundary vertex {b} must have degree exactly 1")
        for v in self.colors:
            if len(self.rot[v]) == 1 and not self.is_boundary(self.other_end(self.rot[v][0], v)):
                raise PlabicError(f"internal leaf {v} not adjacent to the boundary")


# ---------------------------------------------------------------------------
# Darts as numbers
# ---------------------------------------------------------------------------

class _Darts(NamedTuple):
    """A graph's darts by number (see the module docstring)."""

    eids: list[int]  # slot -> edge id, 0 on an arc or a free slot: dart d is on slot d >> 1
    slot: dict[int, int]  # edge id -> slot
    arc0: int  # the slot of the arc from boundary position 0; arc p has slot arc0 + p
    free: list[int]  # the slots that hold neither an edge nor an arc
    head: list[int]  # dart -> the vertex it enters (0 on a free slot)
    face_next: list[int]  # dart -> next dart of the face on its left
    trip_next: list[int]  # dart -> next dart of its trip; -1 into the boundary
    pendant: dict[int, int]  # boundary vertex -> the dart leaving it


def _number_darts(G: PlabicGraph) -> _Darts:
    """Number the darts, the edges' slots in id order and the arcs' after
    them, and read both permutations off the rotations (:func:`_turn`)."""
    n, eids = G.n, sorted(G.edges)
    head: list[int] = []
    leave: dict[int, list[int]] = {bd: [] for bd in G.boundary_order}  # boundary darts
    for eid in eids:
        a, b = G.edges[eid]
        if a in leave:
            leave[a].append(len(head))
        if b in leave:
            leave[b].append(len(head) + 1)
        head += (b, a)
    for p in range(n):
        head += (G.boundary_order[(p + 1) % n], G.boundary_order[p])
    dt = _Darts(eids + [0] * n, {eid: s for s, eid in enumerate(eids)}, len(eids), [],
                head, [-1] * len(head), [-1] * len(head), {})
    for v in G.rot:
        _turn(G, dt, v)
    for p, (bd, out) in enumerate(leave.items()):
        if len(out) != 1:
            raise PlabicError(f"boundary vertex {bd} has degree {len(out)}")
        dt.pendant[bd] = out[0]
        _turn(G, dt, bd, p)
    if -1 in dt.face_next:
        raise PlabicError("the rotations do not list every dart")
    return dt


def _turn(G: PlabicGraph, dt: _Darts, v: int, p: int = -1) -> list[int]:
    """Set head, face_next and trip_next on the darts entering v, and return
    them.  At an internal vertex with darts o_0 .. o_{m-1} leaving it in ccw
    order, the dart entering along o_i's edge is ``o_i ^ 1``, its face goes
    on along o_{i-1} and its trip along o_{i+1} (black) or o_{i-1} (white).
    Boundary vertex v at position p turns as its rotation (clockwise arc p,
    counterclockwise arc p - 1, pendant); the darts returned there are the
    two whose face is interior."""
    head, face_next, trip_next, edges, slot = dt.head, dt.face_next, dt.trip_next, G.edges, dt.slot
    if v < 0:
        cw, ccw, d = 2 * (dt.arc0 + p), 2 * (dt.arc0 + (p - 1) % G.n) + 1, dt.pendant[v]
        face_next[cw ^ 1], face_next[ccw ^ 1], face_next[d ^ 1] = d, cw, ccw
        head[d ^ 1], trip_next[d ^ 1] = v, -1
        return [cw ^ 1, d ^ 1]
    entered = []
    for eid in G.rot[v]:
        a, b = edges[eid]
        if v != a and v != b:
            raise PlabicError(f"vertex {v} not on edge {eid}")
        entered.append(2 * slot[eid] + (a == v))
    m, black = len(entered), G.colors[v] == BLACK
    # backwards, so that an edge listed twice turns at its first place
    for i in range(m - 1, -1, -1):
        x = entered[i]
        head[x] = v
        face_next[x] = entered[i - 1] ^ 1
        trip_next[x] = entered[i + 1 - m] ^ 1 if black else entered[i - 1] ^ 1
    return entered


# ---------------------------------------------------------------------------
# Faces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Face:
    darts: tuple[int, ...]  # dart numbers, each with the face on its left
    boundary: bool


@dataclass(frozen=True)
class Faces:
    """The interior faces, and ``face_of``: dart number -> index of its face
    (-1 on the outer face and on a free slot)."""

    faces: tuple[Face, ...]
    face_of: list[int] = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.faces)


def faces(G: PlabicGraph) -> Faces:
    """All interior faces (the outer face is identified and dropped).  Raises
    :class:`PlabicError` when the orbit count violates Euler's formula, which
    signals an inconsistent rotation system."""
    return G._faces


def _find_faces(G: PlabicGraph) -> Faces:
    """Trace every face of a freshly numbered graph, whose dart numbers run in
    (edge id, end) order with the arcs last: so the orbits, traced from each
    dart in turn, come out in face order, each from its first dart."""
    darts = G._darts
    arcs = 2 * darts.arc0
    if G.n == 1:
        # The one boundary arc is a loop, which dart tracing cannot follow.
        # Such a graph has one face exactly when it is a tree, and the only
        # tree validate() accepts there is the lollipop (any other has a leaf
        # away from the boundary).
        if len(G.colors) != 1 or len(G.edges) != 1:
            raise PlabicError(
                f"Euler check failed: V={len(G.colors) + 1} E={len(G.edges)}, but on one "
                "boundary vertex only the lollipop has one face"
            )
        return Faces((Face(tuple(range(arcs)), True),), [0, 0, -1, -1])

    nxt = darts.face_next
    seen = [False] * len(nxt)
    orbits = [_orbit(nxt, d0, seen) for d0 in range(len(nxt)) if not seen[d0]]
    V, E = len(G.colors) + G.n, len(G.edges) + G.n
    if V - E + len(orbits) != 2:
        raise PlabicError(
            f"Euler check failed: V={V} E={E} F={len(orbits)} (disconnected embedding data?)"
        )
    if not G.n:
        raise PlabicError("a graph without boundary vertices has no outer face")
    # the outer face is the orbit of the clockwise dart of arc 0
    return _index_faces([Face(tuple(orbit), max(orbit) >= arcs)
                         for orbit in orbits if orbit[0] != arcs], len(nxt))


def _orbit(nxt: list[int], d0: int, seen: list[bool]) -> list[int]:
    """The cycle of ``nxt`` from d0, marked in ``seen``."""
    orbit, d = [d0], nxt[d0]
    seen[d0] = True
    while d != d0:
        if seen[d]:
            raise PlabicError("face tracing revisited a dart; rotation system inconsistent")
        orbit.append(d)
        seen[d] = True
        d = nxt[d]
    return orbit


def _index_faces(interior: list[Face], size: int) -> Faces:
    """The faces, in the order given, with ``face_of`` over ``size`` darts."""
    face = [-1] * size
    for i, f in enumerate(interior):
        for d in f.darts:
            face[d] = i
    # the tuple is built from a list, at its final size: CPython shrinks a
    # tuple built from a generator from a guessed size, and freeing it then
    # fills the free list of the smaller size (up to 2,000 tuples a size)
    return Faces(tuple(interior), face)


def _carry_faces(ed: _Edit, H: PlabicGraph) -> None:
    """Store on H, which the edit ed of a graph G built, G's darts and faces
    patched where ed changed them.  H keeps G's slots: a deleted edge frees
    its slot, and new edges, in id order, take the smallest free slots and
    then slots past the last one.  The darts entering a vertex that ed
    touched, or a boundary vertex on a new edge, turn anew (:func:`_turn`);
    no other dart changes, as ed touches each vertex that gains an edge or
    at which an edge lists its ends anew.  A face of G keeps its ``Face``
    when each of its darts keeps its edge and its face_next; the faces
    through the other darts are traced again, each from its first dart in
    (edge id, end) order with the arcs last, and the faces are listed in the
    order of their first darts."""
    G = ed.G
    dt = _Darts._make(x if isinstance(x, int) else x.copy() for x in G._darts)
    eids, slot, _, free, head, face_next, trip_next, pendant = dt
    for eid in G.edges.keys() - H.edges.keys():
        s = slot.pop(eid)
        eids[s] = head[2 * s] = head[2 * s + 1] = 0
        face_next[2 * s] = face_next[2 * s + 1] = trip_next[2 * s] = trip_next[2 * s + 1] = -1
        free.append(s)
    free.sort(reverse=True)
    turned = {v for v in ed.touched if v < 0 or v in H.rot}
    changed = []  # the darts of H that are not on a face of G
    for eid in sorted(H.edges.keys() - G.edges.keys()):
        if not free:
            free.append(len(eids))
            eids.append(0)
            head += (0, 0)
            face_next += (-1, -1)
            trip_next += (-1, -1)
        s = free.pop()
        eids[s], slot[eid] = eid, s
        changed += (2 * s, 2 * s + 1)
        for d, v in enumerate(H.edges[eid], start=2 * s):
            if v < 0:
                pendant[v] = d
                turned.add(v)
    was = G._darts.face_next
    for v in turned:
        p = -1
        if v < 0:  # a new pendant edge, or one that lists its ends anew
            eid, p = eids[pendant[v] >> 1], H.boundary_order.index(v)
            pendant[v] = 2 * slot[eid] + (H.edges[eid][0] != v)
        changed += [d for d in _turn(H, dt, v, p) if d >= len(was) or face_next[d] != was[d]]

    gf = G._faces.face_of
    stale = {gf[d] for d in changed if d < len(gf)}
    faces = [f for i, f in enumerate(G._faces.faces) if i not in stale]
    seen = [False] * len(head)
    for d0 in changed:
        if not seen[d0]:
            orbit = _orbit(face_next, d0, seen)
            ks = [eids[d >> 1] or inf for d in orbit]
            i = ks.index(min(ks))
            if orbit[i] & 1 and ks.count(ks[i]) > 1:  # both darts of one edge: end 0 first
                i = ks.index(ks[i], i + 1)
            faces.append(Face(tuple(orbit[i:] + orbit[:i]), inf in ks))
    # an interior face's first dart is an edge's
    faces.sort(key=lambda f: 2 * eids[f.darts[0] >> 1] + (f.darts[0] & 1))
    H.__dict__["_darts"] = dt
    H.__dict__["_faces"] = _index_faces(faces, len(head))


# ---------------------------------------------------------------------------
# Trips and the trip permutation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trip:
    start: int  # boundary label
    end: int
    darts: tuple[int, ...]  # dart numbers, from the pendant dart at start


def trips(G: PlabicGraph) -> tuple[tuple[Trip, ...], DecoratedPermutation]:
    """One trip per boundary vertex, plus the decorated trip permutation on
    boundary labels (fixed points colored by their lollipop)."""
    return G._trips


def _find_trips(G: PlabicGraph) -> tuple[tuple[Trip, ...], DecoratedPermutation]:
    darts = G._darts
    head, nxt = darts.head, darts.trip_next
    out, images, white = [], {}, set()
    for bd in G.boundary_order:
        d = darts.pendant[bd]
        walk = [d]
        while head[d] >= 0:
            d = nxt[d]
            walk.append(d)
            if len(walk) > 2 * len(G.edges) + 2:
                raise PlabicError("trip failed to terminate; malformed rotation system")
        i, j = G.labels[bd], G.labels[head[d]]
        out.append(Trip(i, j, tuple(walk)))
        images[i] = j
        if i == j:
            # a round trip, colored by its (possibly subdivided) lollipop leaf
            leaves = [v for v in (head[d] for d in walk) if v >= 0 and len(G.rot[v]) == 1]
            if leaves and G.colors[leaves[0]] == WHITE:
                white.add(i)
    pi = tuple(images[i] for i in range(1, G.n + 1))
    return tuple(out), DecoratedPermutation(pi, frozenset(white))


# ---------------------------------------------------------------------------
# Face labelings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaceLabeling:
    mode: str  # "source" | "target"
    faces: Faces
    labels: tuple[frozenset[int], ...]

    def index_of(self, label: Iterable[int]) -> int:
        lab = frozenset(label)
        if lab in self.labels:
            return self.labels.index(lab)
        raise KeyError(f"no face labeled {sorted(lab)}")


def face_labeling(G: PlabicGraph, mode: str) -> FaceLabeling:
    """Source or target labeling: trip ``T(i -> j)`` deposits ``j`` (target)
    or ``i`` (source) in every face to its left; a white lollipop labels all
    faces, a black one labels none."""
    if mode not in ("source", "target"):
        raise ValueError(f"mode must be 'source' or 'target', got {mode!r}")
    return G._labelings[mode]


def _label_faces(G: PlabicGraph) -> dict[str, FaceLabeling]:
    """Both labelings from one sweep over the dual graph; they differ only in
    which end of a trip marks the faces on its left.

    Crossing an edge puts a face on the other side of the trips through the
    edge's two darts and of no other trip (Postnikov, arXiv:math/0609764).
    So a breadth-first sweep gives each interior face, as a bitmask over the
    trips that are not round trips, the trips whose side differs from face
    0's; the first dart of each trip, which has the trip on its left, fixes
    face 0's own side.  A trip is ambiguous when a face is reached twice with
    masks that differ in its bit, or when one of its darts does not have it
    on its left (as along an edge with one face on both sides);
    :class:`AmbiguousSide` reports the first ambiguous trip in trip order.  A
    round trip marks every face when its lollipop is white, none when black."""
    fc = faces(G)
    all_trips, sigma = trips(G)
    face = fc.face_of
    paths = [t for t in all_trips if t.start != t.end]
    bit = [0] * len(face)
    for i, t in enumerate(paths):
        for d in t.darts:
            bit[d] = 1 << i
    mask: list[int | None] = [None] * len(fc.faces)
    ambiguous = roots = 0
    for root in range(len(fc.faces)):
        if mask[root] is not None:
            continue
        roots += 1
        mask[root] = 0
        queue = [root]
        for f in queue:
            for d in fc.faces[f].darts:
                g = face[d ^ 1]
                if g == f or g < 0:  # the same face, or a boundary arc's outer face
                    continue
                m = mask[f] ^ bit[d] ^ bit[d ^ 1]
                if mask[g] is not None:
                    ambiguous |= mask[g] ^ m
                else:
                    mask[g] = m
                    queue.append(g)
    left0 = sum(1 << i for i, t in enumerate(paths) if not mask[face[t.darts[0]]] >> i & 1)
    left = [m ^ left0 for m in mask]
    for i, t in enumerate(paths):
        for d in t.darts:
            if not left[face[d]] >> i & 1 or left[face[d ^ 1]] >> i & 1:
                ambiguous |= 1 << i
    if paths and roots > 1 and not ambiguous & 1:
        # faces of a part of the graph that no trip reaches have no side
        raise PlabicError("flood fill left faces unassigned")
    if ambiguous:
        t = paths[(ambiguous & -ambiguous).bit_length() - 1]
        raise AmbiguousSide(f"faces lie on both sides of the trip {t.start}->{t.end}")
    labelings = {}
    for mode, ends in (("source", [t.start for t in paths]), ("target", [t.end for t in paths])):
        labels = tuple(frozenset(sigma.white_fixed | {j for i, j in enumerate(ends) if l >> i & 1})
                       for l in left)
        labelings[mode] = FaceLabeling(mode, fc, labels)
    return labelings


# ---------------------------------------------------------------------------
# Dual quiver
# ---------------------------------------------------------------------------

def dual_quiver_arrows(G: PlabicGraph, fc: Faces) -> list[tuple[int, int]]:
    """One arrow per internal edge, oriented to see the white endpoint on the
    left and the black endpoint on the right while crossing; oriented 2-cycles
    cancelled pairwise.  Faces are referenced by index into ``fc``, which
    must be ``faces(G)``."""
    head, face = G._darts.head, fc.face_of
    raw: Counter[tuple[int, int]] = Counter()
    for d in map((2).__mul__, G._darts.slot.values()):  # edge by edge
        b, a = head[d], head[d + 1]
        if a < 0 or b < 0:
            continue
        w_dart = d if G.colors[a] == WHITE else d + 1
        f_left, f_right = face[w_dart], face[w_dart ^ 1]
        if f_left != f_right:
            raw[(f_right, f_left)] += 1
    arrows = []
    for (s, t), m in sorted(raw.items()):
        m -= raw.get((t, s), 0)
        if m > 0:
            arrows.extend([(s, t)] * m)
    return arrows


# ---------------------------------------------------------------------------
# Construction: lollipops and bridges
# ---------------------------------------------------------------------------

def lollipop_graph(k: int, n: int) -> PlabicGraph:
    """n boundary vertices, each with a lollipop: white on [1..k], black after.

    >>> G = lollipop_graph(2, 5)
    >>> len(faces(G))
    1
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    boundary = tuple(-p for p in range(1, n + 1))
    labels = {-p: p for p in range(1, n + 1)}
    colors = {p: (WHITE if p <= k else BLACK) for p in range(1, n + 1)}
    edges = {p: (-p, p) for p in range(1, n + 1)}
    rot = {p: (p,) for p in range(1, n + 1)}
    return PlabicGraph(boundary, labels, colors, edges, rot)


_OTHER = {BLACK: WHITE, WHITE: BLACK}


class _Edit:
    """A mutable copy of a graph's colors, edges and rotations, for one local
    move or a run of them.  New vertex and edge ids count up from the largest
    ids in use, in the order they are asked for, so a move always numbers its
    output the same way.  The methods note in ``touched`` each vertex whose
    rotation or color they set, or at which an edge may list its ends anew,
    for :func:`_carry_faces`; a caller that sets a rotation or color itself
    notes the vertex there too.  Only :meth:`build` validates."""

    def __init__(self, G: PlabicGraph):
        self.G = G
        self.colors = dict(G.colors)
        self.edges = dict(G.edges)
        self.rot = {v: list(r) for v, r in G.rot.items()}
        self.next_v = max(G.colors, default=0) + 1
        self.next_e = max(G.edges, default=0) + 1
        self.contracted = False
        self.touched: set[int] = set()  # vertices, some of them deleted since

    def new_vertex(self, color: str) -> int:
        v = self.next_v
        self.next_v += 1
        self.colors[v] = color
        self.touched.add(v)
        return v

    def new_edge(self, a: int, b: int) -> int:
        e = self.next_e
        self.next_e += 1
        self.edges[e] = (a, b)
        return e

    def other_end(self, e: int, v: int) -> int:
        a, b = self.edges[e]
        return b if a == v else a

    def reattach(self, e: int, old: int, new: int) -> None:
        """Move the end of edge e at vertex old to vertex new."""
        a, b = self.edges[e]
        self.edges[e] = (new if a == old else a, new if b == old else b)

    def subdivide(self, e: int, a: int, color: str) -> int:
        """Put a new degree-2 vertex of the given color on edge e: e now runs
        from a to it, and a new edge from it to e's far end takes e's slot
        there.  Returns the new vertex."""
        b = self.other_end(e, a)
        m = self.new_vertex(color)
        e_new = self.new_edge(m, b)
        self.edges[e] = (a, m)  # which may list e's ends the other way round
        self.rot[m] = [e, e_new]
        self.touched.add(a)
        if b > 0:
            self.rot[b] = [e_new if f == e else f for f in self.rot[b]]
            self.touched.add(b)
        return m

    def expand(self, v: int, e_pair: tuple[int, int]) -> None:
        """(M2, reversed) at v: see :func:`expand_vertex`."""
        e_a, e_b = e_pair
        order = self.rot.get(v)
        if order is None:
            raise PlabicError(f"cannot expand edges {e_pair} at {v}: not an internal vertex")
        if e_a not in order or order[(order.index(e_a) + 1) % len(order)] != e_b:
            raise PlabicError(f"edges {e_pair} are not ccw-adjacent at {v}")
        v2 = self.new_vertex(self.colors[v])
        mid = self.new_vertex(_OTHER[self.colors[v]])
        e_v2mid = self.new_edge(v2, mid)
        e_midv = self.new_edge(mid, v)
        for e in (e_a, e_b):
            self.reattach(e, v, v2)
        self.rot[v2] = [e_a, e_b, e_v2mid]
        self.rot[mid] = [e_v2mid, e_midv]
        # the connector takes the slot of the pair in v's rotation
        self.rot[v] = [e_midv if e == e_a else e for e in order if e != e_b]
        self.touched.add(v)

    def contract(self) -> bool:
        """(M2) over and over, smallest eligible id first: delete a degree-2
        internal vertex x whose two neighbors are distinct internal vertices
        (of one color), and merge its far neighbor v into its near one u, v's
        other edges taking the slot of x's edge in u's rotation.  Each step
        keeps a valid graph valid.  Returns whether any vertex went; the next
        build records its graph as its own full contraction."""
        far = self.other_end
        before = len(self.colors)
        while True:
            x = min((x for x, r in self.rot.items()
                     if len(r) == 2 and far(r[0], x) > 0 and far(r[1], x) > 0
                     and far(r[0], x) != far(r[1], x)), default=None)
            if x is None:
                self.contracted = True
                return len(self.colors) < before
            e1, e2 = self.rot[x]
            u, v = far(e1, x), far(e2, x)
            del self.colors[x], self.rot[x], self.edges[e1], self.edges[e2], self.colors[v]
            rv = self.rot.pop(v)
            i = rv.index(e2)
            spliced = rv[i + 1:] + rv[:i]
            for e in spliced:
                self.reattach(e, v, u)
            ru = self.rot[u]
            j = ru.index(e1)
            self.rot[u] = ru[:j] + spliced + ru[j + 1:]
            self.touched.add(u)

    def build(self) -> PlabicGraph:
        H = PlabicGraph(self.G.boundary_order, dict(self.G.labels), self.colors, self.edges,
                        {v: tuple(r) for v, r in self.rot.items()})
        H.validate()
        if self.contracted:
            H.__dict__["_contracted"] = None  # cached: H is its own contraction
        return H


def add_bridge(G: PlabicGraph, a: int, b: int) -> PlabicGraph:
    """Insert an (a b)-bridge at boundary positions a < b.

    Validity (checked against the bounded affine trip permutation): the lift
    satisfies ``f(a) > f(b)``, every boundary position strictly between a and b
    is a lollipop, and a lollipop at a (resp. b) is white (resp. black).
    Lollipop leaves at the endpoints are reused as bridge vertices; degree-2
    vertices are inserted if bipartiteness requires them."""
    if not 1 <= a < b <= G.n:
        raise InvalidBridge(f"need 1 <= a < b <= n, got ({a}, {b})")
    # the trip permutation on boundary positions, independent of the labels;
    # G's trips run one per position, in position order
    all_trips, sigma = trips(G)
    position = {G.labels[bd]: p for p, bd in enumerate(G.boundary_order, start=1)}
    by_position = DecoratedPermutation(tuple(position[t.end] for t in all_trips),
                                       frozenset(position[i] for i in sigma.white_fixed))
    lifted = permmod.bounded_affine(by_position)
    if lifted.window[a - 1] <= lifted.window[b - 1]:
        raise InvalidBridge(f"bounded affine permutation not decreasing on ({a}, {b})")

    def leaf_at(p: int) -> int | None:
        t = G.other_end(G.pendant_edge(G.boundary_order[p - 1]), G.boundary_order[p - 1])
        return t if len(G.rot[t]) == 1 else None

    for c in range(a + 1, b):
        if leaf_at(c) is None:
            raise InvalidBridge(f"boundary position {c} between {a} and {b} is not a lollipop")
    for p, want in ((a, WHITE), (b, BLACK)):
        t = leaf_at(p)
        if t is not None and G.colors[t] != want:
            raise InvalidBridge(f"lollipop at position {p} must be "
                                + ("white" if want == WHITE else "black"))

    ed = _Edit(G)

    def attach(p: int, color: str) -> int:
        """Bridge vertex at position p: the lollipop leaf there, or a new
        vertex on the pendant edge."""
        if (t := leaf_at(p)) is not None:
            return t
        bd = G.boundary_order[p - 1]
        v_new = ed.subdivide(G.pendant_edge(bd), bd, color)
        inner = ed.rot[v_new][1]  # from v_new to the old inner end
        if ed.colors[ed.other_end(inner, v_new)] == color:  # bipartite fix: a degree-2 buffer
            ed.subdivide(inner, v_new, _OTHER[color])
        return v_new

    w_new = attach(a, WHITE)
    b_new = attach(b, BLACK)
    e_br = ed.new_edge(w_new, b_new)
    # ccw at the white end: (bridge, boundary, interior); at the black end
    # (boundary, bridge, interior); a reused leaf has no interior edge
    for v, first in ((w_new, True), (b_new, False)):
        e_bd, *inner = ed.rot[v]
        ed.rot[v] = ([e_br, e_bd] if first else [e_bd, e_br]) + inner
    return ed.build()


def bridge_graph(k: int, n: int, x: Permutation) -> PlabicGraph:
    """Bridge graph for a Grassmannian permutation x: start from the lollipop
    graph and add the bridge ``(i, i+1)`` for each letter ``s_i`` of the
    columnar word of x, in application order.  The trip permutation comes out
    as ``x^{-1}`` with white fixed points exactly in [k]."""
    G = lollipop_graph(k, n)
    for i in permmod.columnar_expression(x, k):
        G = add_bridge(G, i, i + 1)
    return G


# ---------------------------------------------------------------------------
# Relabeling and the mirror reflection
# ---------------------------------------------------------------------------

def relabel_boundary(G: PlabicGraph, u: Permutation) -> PlabicGraph:
    """Replace each boundary label l by u(l); the embedding is unchanged."""
    if len(u) != G.n:
        raise ValueError("permutation size does not match the boundary")
    return replace(G, labels={bd: u[lab - 1] for bd, lab in G.labels.items()})


def mirror(G: PlabicGraph) -> PlabicGraph:
    """Reflect the disk: all rotations reverse and the boundary cycle reverses.
    Trips reverse, so source labels of the mirror equal target labels of G."""
    return replace(G, boundary_order=tuple(reversed(G.boundary_order)),
                   rot={v: tuple(reversed(r)) for v, r in G.rot.items()})


# ---------------------------------------------------------------------------
# Local moves
# ---------------------------------------------------------------------------

def expand_vertex(G: PlabicGraph, v: int, e_pair: tuple[int, int]) -> PlabicGraph:
    """(M2, reversed) split off a ccw-adjacent pair of edges of v onto a new
    same-colored vertex, joined to v through a new degree-2 vertex.  Every
    edge keeps its id and the order of its ends, so an ``(edge id, end)``
    pair stays on the same dart, and the face between the pair keeps its
    darts.  :func:`square_move` expands on its own edit instead."""
    ed = _Edit(G)
    ed.expand(v, e_pair)
    return ed.build()


def insert_degree2_pair(G: PlabicGraph, eid: int) -> PlabicGraph:
    """(M3) subdivide an edge with two new degree-2 vertices of alternating
    colors, keeping the graph bipartite."""
    u, v = G.edges[eid]
    for w in (u, v):
        if w > 0 and len(G.rot[w]) == 1:
            raise PlabicError(f"subdividing edge {eid} would strand the lollipop leaf {w}")
    ed = _Edit(G)
    # y must oppose u; next to a boundary u, it must oppose z, which opposes v
    y = ed.subdivide(eid, u, _OTHER[G.colors[u]] if u > 0 else G.colors[v])
    ed.subdivide(ed.rot[y][1], y, _OTHER[ed.colors[y]])
    return ed.build()


def full_contract(G: PlabicGraph) -> PlabicGraph:
    """Contract every eligible degree-2 vertex, smallest id first."""
    return G._contracted or G


def _square_defect(G: PlabicGraph, i: int) -> str | None:
    """Why no square move applies at face i of the fully contracted graph G,
    or None when one does: the face must be an interior quadrilateral whose
    four corners are distinct internal vertices of degree at least 3.  (Its
    corner colors alternate because G is bipartite.)"""
    face = faces(G).faces[i]
    if face.boundary or len(face.darts) != 4:
        return "is not an interior quadrilateral"
    head = G._darts.head
    corners = {head[d] for d in face.darts}
    if len(corners) != 4 or any(G.is_boundary(c) for c in corners):
        return "does not have four distinct internal corners"
    if any(len(G.rot[c]) < 3 for c in corners):
        return "has a degree-2 corner"
    return None


def square_move(G: PlabicGraph, label: Iterable[int]) -> PlabicGraph:
    """(M1) square move at the interior face carrying the given target label.

    The graph is first fully contracted.  One edit then expands corners of
    degree > 3 so the face has four trivalent corners, switches the four
    colors, inserts degree-2 vertices on the legs wherever bipartiteness
    needs repair and contracts again; its one build validates the result and
    records it as its own full contraction.  The trip permutation is unchanged,
    and the result inherits G's darts and faces (:func:`_carry_faces`) and its
    face labelings (:func:`_carry_labelings`)."""
    label = frozenset(label)
    G = full_contract(G)
    i = face_labeling(G, "target").index_of(label)
    defect = _square_defect(G, i)
    if defect is not None:
        raise NotSquareEligible(f"face {sorted(label)} {defect}")
    # the face's edge darts as (eid, end), which corner expansion keeps
    eids = G._darts.eids
    darts = [(eids[d >> 1], d & 1) for d in faces(G).faces[i].darts]
    ed = _Edit(G)
    # expand corners of degree > 3 down to trivalent; the face keeps its darts
    for j, (eid, end) in enumerate(darts):
        c = ed.edges[eid][1 - end]
        if len(ed.rot[c]) > 3:
            ed.expand(c, (darts[(j + 1) % 4][0], eid))
    corners = [ed.edges[eid][1 - end] for eid, end in darts]
    face_edges = {eid for eid, _ in darts}
    for c in corners:
        ed.colors[c] = _OTHER[ed.colors[c]]
    ed.touched.update(corners)
    # corners alternate in color, so no leg between two corners is subdivided
    for c in corners:
        leg = next(e for e in ed.rot[c] if e not in face_edges)
        z = ed.other_end(leg, c)
        if z > 0 and ed.colors[z] == ed.colors[c]:
            ed.subdivide(leg, c, _OTHER[ed.colors[c]])
    ed.contract()
    H = ed.build()
    _carry_faces(ed, H)
    return _carry_labelings(G, H, i)


def _carry_labelings(G: PlabicGraph, H: PlabicGraph, i: int) -> PlabicGraph:
    """H, which a square move at face i of G built and :func:`_carry_faces`
    gave G's darts, with both labelings stored.  An edge that H keeps from G
    keeps its id, end order and slot, so each face of H has the label of G's
    face left of its first dart.  The moved face crosses
    its first dart d as in the sweep: the label across d, less the end (source
    mode: start) of H's trip through d ^ 1, plus that of its trip through d.
    H keeps none, to be swept on first use, if a face does not map, if those
    trips are one, do not run boundary to boundary or have a dart without its
    trip on the left (the sweep's ambiguity), or if the label is not G's
    exchange: its neighbours' union less the old label outside their meet."""
    hd, fc, gf, ge, trips, carried = H._darts, H._faces, G._faces.face_of, G._darts.eids, [], {}
    head, fnext = hd.head, hd.face_next
    old = [gf[d] if d >> 1 < len(ge) and ge[d >> 1] == hd.eids[d >> 1] else -1
           for d in (f.darts[0] for f in fc.faces)]
    if sorted(old) != list(range(len(G._faces))):
        return H
    j = old.index(i)
    d = fc.faces[j].darts[0]
    for x in (d, d ^ 1):  # no trip from boundary to boundary is longer than len(head)
        back, on = [x], [x]
        while (v := head[back[-1] ^ 1]) >= 0 and len(back) <= len(head):
            # the dart before y = o_i on its trip enters along o_{i-1} at a
            # black vertex and along o_{i+1} at a white one (see _turn)
            y = z = back[-1]
            if H.colors[v] == BLACK:
                z = fnext[y ^ 1]
            else:
                while fnext[z ^ 1] != y:
                    z = fnext[z ^ 1]
            back.append(z ^ 1)
        while head[on[-1]] >= 0 and len(on) <= len(head):
            on.append(hd.trip_next[on[-1]])
        trips.append((H.labels.get(head[back[-1] ^ 1]), H.labels.get(head[on[-1]]), back + on))
    (sa, a, _), (sb, b, _) = trips
    if None in (sa, a, sb, b) or a == b:
        return H
    for mode, put, take in (("source", sa, sb), ("target", a, b)):
        was = G._labelings[mode].labels
        labels = list(map(was.__getitem__, old))
        labels[j] = labels[fc.face_of[d ^ 1]] - {take} | {put}
        near = [labels[fc.face_of[e ^ 1]] for e in fc.faces[j].darts]
        if labels[j] != near[0].union(*near) - (was[i] - near[0].intersection(*near)):
            return H
        carried[mode] = FaceLabeling(mode, fc, tuple(labels))
    if any(t not in labels[fc.face_of[x]] or t in labels[fc.face_of[x ^ 1]]  # target labels
           for s, t, walk in trips if s != t for x in walk):
        return H
    H.__dict__["_labelings"] = carried
    return H


def square_eligible_labels(G: PlabicGraph) -> tuple[frozenset[int], ...]:
    """Target labels of the faces where a square move currently applies.  A
    label that several faces carry (possible when G is not reduced) names
    the first of them, as :meth:`FaceLabeling.index_of` does."""
    H = full_contract(G)
    labels = face_labeling(H, "target").labels
    return tuple(lab for i, lab in enumerate(labels)
                 if labels.index(lab) == i and _square_defect(H, i) is None)


# ---------------------------------------------------------------------------
# Reduction (R1) and reducedness witnesses
# ---------------------------------------------------------------------------

def parallel_edge_reduction_applicable(G: PlabicGraph) -> tuple[int, int] | None:
    """A pair of trivalent, oppositely-colored vertices joined by parallel
    edges, if one exists in G itself."""
    seen: Counter[tuple[int, int]] = Counter()
    for a, b in G.edges.values():
        if a > 0 and b > 0:
            seen[tuple(sorted((a, b)))] += 1
    for (a, b), m in sorted(seen.items()):
        if m >= 2 and len(G.rot[a]) == 3 and len(G.rot[b]) == 3:
            return (a, b)
    return None


@dataclass(frozen=True)
class ReducednessReport:
    round_trips: int
    self_intersecting_trips: tuple[int, ...]
    parallel_trip_pairs: tuple[tuple[int, int], ...]
    r1_applicable: bool

    @property
    def passed(self) -> bool:
        return not (self.round_trips or self.self_intersecting_trips
                    or self.parallel_trip_pairs or self.r1_applicable)


def reducedness_witness_checks(G: PlabicGraph) -> ReducednessReport:
    """Necessary conditions for reducedness: no interior round trips, no trip
    using an edge in both directions, no two trips sharing two edges in the
    same relative order, and (R1) not directly applicable."""
    all_trips, _ = trips(G)
    nxt, eids = G._darts.trip_next, G._darts.eids
    seen = {d for t in all_trips for d in t.darts}
    round_trips = 0
    for d0 in range(2 * len(eids)):
        if d0 in seen or not eids[d0 >> 1]:  # an arc, or a free slot
            continue
        d = d0
        while True:
            seen.add(d)
            d = nxt[d]
            if d < 0:
                raise PlabicError("trip step at a boundary vertex")
            if d == d0:
                break
        round_trips += 1

    # a dart's edge is its slot, d >> 1
    selfint = tuple(t.start for t in all_trips
                    if t.start != t.end and len({d >> 1 for d in t.darts}) < len(t.darts))

    parallel = []
    for i, t1 in enumerate(all_trips):
        order1 = {d >> 1: p for p, d in enumerate(t1.darts)}
        for t2 in all_trips[i + 1:]:
            # t1's places of the edges t2 shares, in t2's order: flag the pair
            # when t1 also runs two of them in that order (then two in a row)
            shared = [order1[d >> 1] for d in t2.darts if d >> 1 in order1]
            if any(p < q for p, q in zip(shared, shared[1:])):
                parallel.append((t1.start, t2.start))

    return ReducednessReport(round_trips, selfint, tuple(sorted(set(parallel))),
                             parallel_edge_reduction_applicable(G) is not None)
