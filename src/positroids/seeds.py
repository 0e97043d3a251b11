"""Quivers, labeled seeds, mutation, and the rectangles seed.

Cluster variables are expression DAGs over Pluecker symbols, evaluated with
exact rational arithmetic at sample points of a Schubert cell; identities are
decided by agreement at many independent exact sample points rather than by
symbolic normal forms.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import neg
from typing import Hashable, Iterable, Sequence

from positroids import perm as permmod
from positroids import pluecker, shapes
from positroids.perm import Permutation
from positroids.pluecker import Matrix


# ---------------------------------------------------------------------------
# Quivers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Quiver:
    """Directed multigraph without loops or oriented 2-cycles; each vertex is
    mutable or frozen.  Arrows between two frozen vertices are never stored."""

    frozen: dict[Hashable, bool]  # vertex id -> frozen?
    arrows: tuple[tuple[Hashable, Hashable], ...]

    def __post_init__(self) -> None:
        counts = Counter(self.arrows)
        for (s, t), m in counts.items():
            if s == t:
                raise ValueError(f"loop at {s}")
            if s not in self.frozen or t not in self.frozen:
                raise ValueError(f"arrow {s}->{t} uses an unknown vertex")
            if counts.get((t, s), 0) and m:
                raise ValueError(f"oriented 2-cycle between {s} and {t}")
            if self.frozen[s] and self.frozen[t]:
                raise ValueError(f"stored arrow between frozen vertices {s}, {t}")

    @property
    def vertices(self) -> tuple[Hashable, ...]:
        return tuple(self.frozen)

    def mutable_vertices(self) -> tuple[Hashable, ...]:
        return tuple(v for v, f in self.frozen.items() if not f)

    def arrows_from(self, q: Hashable) -> tuple[Hashable, ...]:
        return tuple(t for s, t in self.arrows if s == q)

    def arrows_into(self, q: Hashable) -> tuple[Hashable, ...]:
        return tuple(s for s, t in self.arrows if t == q)

    def delete_vertex(self, v: Hashable) -> "Quiver":
        frozen = {u: f for u, f in self.frozen.items() if u != v}
        return Quiver(frozen, tuple(a for a in self.arrows if v not in a))

    def restrict_mutable(self) -> "Quiver":
        keep = {v for v, f in self.frozen.items() if not f}
        return Quiver(
            {v: False for v in self.frozen if v in keep},
            tuple((s, t) for s, t in self.arrows if s in keep and t in keep),
        )


def mutate_quiver(Q: Quiver, q: Hashable) -> Quiver:
    """Fomin-Zelevinsky mutation at a mutable vertex: the exchange-matrix rule
    of :func:`_mutate_b` on the quiver's skew-symmetric matrix, with arrows
    between frozen vertices dropped.  Arrows come out sorted by
    ``(str(source), str(target))``."""
    if q not in Q.frozen or Q.frozen[q]:  # a Pluecker label is named as a sorted list
        raise ValueError(f"cannot mutate at {(sorted(q) if isinstance(q, frozenset) else q)!r}")
    verts = list(Q.frozen)
    B = _b_matrix(Q, verts)
    return _quiver_from_b(verts, Q.frozen, _mutate_b(B, verts.index(q)))


# ---------------------------------------------------------------------------
# Exchange matrices
# ---------------------------------------------------------------------------

ExchangeMatrix = tuple[tuple[int, ...], ...]


def _b_matrix(Q: Quiver, verts: Sequence[Hashable]) -> ExchangeMatrix:
    """Skew-symmetric exchange matrix of Q in the vertex order ``verts``:
    ``b_ij`` = #arrows i -> j minus #arrows j -> i."""
    idx = {v: i for i, v in enumerate(verts)}
    B = [[0] * len(verts) for _ in verts]
    for s, t in Q.arrows:
        i, j = idx[s], idx[t]
        B[i][j] += 1
        B[j][i] -= 1
    return tuple(map(tuple, B))


def _quiver_from_b(verts: Sequence[Hashable], frozen: dict, B: ExchangeMatrix) -> Quiver:
    """The quiver of B on ``verts``, frozen-frozen entries dropped; arrows in
    ``(str(source), str(target))`` order, ties kept in vertex order."""
    order = sorted(range(len(verts)), key=lambda i: str(verts[i]))
    arrows: list[tuple[Hashable, Hashable]] = []
    for i in order:
        s, row = verts[i], B[i]
        fs = frozen[s]
        for j in order:
            m = row[j]
            if m > 0 and not (fs and frozen[verts[j]]):
                arrows.extend([(s, verts[j])] * m)
    return Quiver(dict(frozen), tuple(arrows))


def _mutate_b(B: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Fomin-Zelevinsky matrix mutation at k:
    ``b'_ij = -b_ij`` if k in (i, j), else
    ``b'_ij = b_ij + (|b_ik| b_kj + b_ik |b_kj|) / 2``.
    Rows with ``b_ik = 0`` are shared with B; any other row changes only at
    k and at the columns j where ``b_kj`` has the sign of ``b_ik``."""
    Bk = B[k]
    up, down = [], []  # (j, |b_kj|) for each sign of b_kj
    for j, b in enumerate(Bk):
        if b > 0:
            up.append((j, b))
        elif b < 0:
            down.append((j, -b))
    out = list(B)
    for i, row in enumerate(B):
        a = row[k]
        if a:
            r = list(row)
            for j, b in up if a > 0 else down:
                r[j] += a * b
            r[k] = -a
            out[i] = tuple(r)
    out[k] = tuple(map(neg, Bk))
    return tuple(out)


def _canonical_label(B: ExchangeMatrix, colour: Sequence) -> tuple[tuple[int, ...], list[int]]:
    """Canonical form of a vertex-coloured symmetric or skew-symmetric integer
    matrix: the lexicographically least ``B[L[p]][L[q]]``, flattened row by
    row, over the leaves L of an individualization-refinement search tree
    (McKay-Piperno, "Practical graph isomorphism II", 2014).

    A node is an ordered partition of the vertices, stored as each vertex's
    cell start.  Refinement splits cells by the multiset of (cell, entry)
    over each vertex's nonzero row entries until the partition is equitable
    (a vertex alone in its cell needs none; with one colour the first round
    reads each row's sorted nonzero entries, which order the vertices the
    same way).  A root refined to a discrete partition is the tree's only
    leaf, read off the last round's order with no search; otherwise a node
    individualizes each vertex of its first smallest non-singleton cell in
    turn.  Equal forms at two leaves give an automorphism; it ends the
    search below the point where the two paths part, and children in one
    orbit of the automorphisms fixing the node's path are searched once.
    Cell order starts from the sort order of ``colour``, so a leaf's
    position p always has the p-th least colour and the form is complete
    for colour multisets that agree.

    Returns the form and its leaf: ``leaf[p]`` is the vertex at canonical
    position p, so two matrices with equal forms are isomorphic by
    ``leaf_a[p] -> leaf_b[p]``."""
    n = len(B)

    def refine(col: list[int]) -> tuple[list[int], list[int] | None]:
        """The equitable refinement of ``col``, and its leaf if discrete."""
        # cells are numbered by their start, so an entry b_ij read as
        # n * b_ij + cell(j) keeps both
        cells = len(set(col))
        while True:
            if cells == 1:  # n * b + 0 sorts as b
                sig = [sorted(filter(None, row)) for row in B]
            else:  # a singleton cell places its vertex by the cell alone
                sig = [(c, sorted([n * b + d for b, d in zip(row, col) if b]))
                       if col.count(c) > 1 else (c,) for c, row in zip(col, B)]
            order = sorted(range(n), key=sig.__getitem__)
            new = [0] * n
            start, count, prev = 0, 0, None
            for pos, i in enumerate(order):
                if sig[i] != prev:
                    start, prev = pos, sig[i]
                    count += 1
                new[i] = start
            if count == n:
                return new, order
            if count == cells:
                return new, None
            col, cells = new, count

    first_pos = sorted(colour).index
    col, leaf = refine([first_pos(c) for c in colour])
    if leaf is not None:
        return tuple([B[i][j] for i in leaf for j in leaf]), leaf

    first = best = None  # (form, leaf, path) of the first and the least leaf
    gens: list[list[int]] = []  # automorphisms found, as vertex maps

    def parting_depth(path_a: list[int], path_b: list[int]) -> int:
        d = 0
        while path_a[d] == path_b[d]:
            d += 1
        return d

    def orbit_roots(path: list[int]) -> list[int]:
        root = list(range(n))

        def find(v: int) -> int:
            while root[v] != v:
                root[v] = root[root[v]]
                v = root[v]
            return v

        for g in gens:
            if all(g[p] == p for p in path):
                for v in range(n):
                    a, b = find(v), find(g[v])
                    if a != b:
                        root[max(a, b)] = min(a, b)
        return [find(v) for v in range(n)]

    def search(col: list[int], leaf: list[int] | None, path: list[int]) -> int:
        """Searches the subtree at ``path``, whose refined partition is
        ``col``; returns the depth at which the search continues (less than
        ``len(path)`` to abandon this node)."""
        nonlocal first, best
        depth = len(path)
        if leaf is not None:
            form = tuple([B[i][j] for i in leaf for j in leaf])
            if first is None:
                first = best = (form, leaf, path)
                return depth
            for known in (first, best):
                if form == known[0]:
                    g = [0] * n
                    for u, v in zip(known[1], leaf):
                        g[u] = v
                    gens.append(g)
                    return parting_depth(known[2], path)
            if form < best[0]:
                best = (form, leaf, path)
            return depth
        s = min((m, c) for c in set(col) if (m := col.count(c)) > 1)[1]
        cell = [v for v in range(n) if col[v] == s]
        tried: list[int] = []
        roots, seen_gens = None, -1
        for v in cell:
            if tried and gens:
                if seen_gens != len(gens):
                    roots, seen_gens = orbit_roots(path), len(gens)
                if any(roots[u] == roots[v] for u in tried):
                    continue
            tried.append(v)
            child = col[:]
            for u in cell:
                child[u] = s + 1
            child[v] = s
            back = search(*refine(child), path + [v])
            if back < depth:
                return back
        return depth

    search(col, None, [])
    return best[0], best[1]


def _coloured_form(B: ExchangeMatrix, colour: Sequence) -> tuple:
    """The sorted colours and :func:`_canonical_label`: equal for two
    coloured matrices exactly when they are isomorphic."""
    return tuple(sorted(colour)), _canonical_label(B, colour)[0]


# ---------------------------------------------------------------------------
# Cluster expressions
# ---------------------------------------------------------------------------

class ClusterExpression:
    """Base class; subclasses are Pluecker symbols and exchange quotients.

    ``evaluate(M, memo)`` computes the value at the sample point M exactly,
    as an ``int`` when it is an integer and as a ``Fraction`` otherwise (the
    rule of :mod:`positroids.pluecker`).  Pluecker values are read through
    :func:`pluecker.plucker`, so a :class:`pluecker.Matrix` computes each
    minor once over its whole life.
    ``memo`` belongs to one sample and one call and holds only exchange
    quotients, under ``id()``, so shared subexpressions are evaluated once.  A
    memo must not outlive the expressions it holds, which is why quotients are
    never kept on the matrix."""

    def evaluate(self, M: Matrix, memo: dict) -> int | Fraction:
        raise NotImplementedError


@dataclass(frozen=True)
class PluckerSymbol(ClusterExpression):
    columns: frozenset[int]

    def evaluate(self, M: Matrix, memo: dict) -> int | Fraction:
        return pluecker.plucker(M, self.columns)

    def __repr__(self) -> str:
        return "D" + "".join(str(c) for c in sorted(self.columns))


@dataclass(frozen=True)
class ExchangeExpr(ClusterExpression):
    """One exchange step: (prod(out_factors) + prod(in_factors)) / divisor.

    Each product is kept as an integer numerator and denominator, so at an
    integer sample point (where every factor but a nested quotient is an
    integral minor) it multiplies Python ints.  The value keeps
    :mod:`positroids.pluecker`'s rule: an ``int`` when the division is exact,
    else a reduced ``Fraction``."""

    out_factors: tuple[ClusterExpression, ...]
    in_factors: tuple[ClusterExpression, ...]
    divisor: ClusterExpression

    def evaluate(self, M: Matrix, memo: dict) -> int | Fraction:
        key = id(self)
        if key in memo:
            return memo[key]
        p1, q1 = _product(self.out_factors, M, memo)
        p2, q2 = _product(self.in_factors, M, memo)
        den = self.divisor.evaluate(M, memo)
        if den == 0:
            raise ZeroDivisionError("exchange denominator vanishes at this sample point")
        val = memo[key] = pluecker.exact_quotient((p1 * q2 + p2 * q1) * den.denominator,
                                                  q1 * q2 * den.numerator)
        return val


def _product(factors: Sequence[ClusterExpression], M: Matrix, memo: dict) -> tuple[int, int]:
    """The product of the factors' values as a numerator and a denominator."""
    num, den = 1, 1
    for f in factors:
        value = f.evaluate(M, memo)
        num *= value.numerator
        den *= value.denominator
    return num, den


def expressions_agree(
    a: ClusterExpression,
    b: ClusterExpression,
    samples: Sequence[Matrix],
) -> bool:
    """Exact agreement at every sample point (probabilistic identity testing:
    for honest Laurent expressions a false positive needs every sample to hit
    a hypersurface, which has vanishing probability over the integer box).
    Each sample gets its own memo of exchange quotients, shared by a and b and
    dropped when the call returns; Pluecker values are kept by the sample
    matrix itself (:class:`pluecker.Matrix`)."""
    for M in samples:
        memo: dict = {}
        if a.evaluate(M, memo) != b.evaluate(M, memo):
            return False
    return True


# ---------------------------------------------------------------------------
# Labeled seeds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabeledSeed:
    quiver: Quiver
    labels: dict[Hashable, ClusterExpression]

    def delete_vertex(self, v: Hashable) -> "LabeledSeed":
        labels = {u: l for u, l in self.labels.items() if u != v}
        return LabeledSeed(self.quiver.delete_vertex(v), labels)


def mutate_seed(S: LabeledSeed, q: Hashable) -> LabeledSeed:
    """Seed mutation: the label at q is replaced by the exchange expression
    ``(prod over arrows out of q + prod over arrows into q) / old label``.
    A q that is not a mutable vertex raises :func:`mutate_quiver`'s
    ``ValueError``."""
    quiver = mutate_quiver(S.quiver, q)
    labels = dict(S.labels)
    labels[q] = ExchangeExpr(
        tuple(S.labels[r] for r in S.quiver.arrows_from(q)),
        tuple(S.labels[s] for s in S.quiver.arrows_into(q)),
        S.labels[q],
    )
    return LabeledSeed(quiver, labels)


def seeds_equal(S1: LabeledSeed, S2: LabeledSeed) -> bool:
    """Label-preserving quiver isomorphism that keeps frozen flags: equal
    :func:`_coloured_form` with vertices coloured by frozen flag and label,
    Pluecker symbols by column set and other labels by identity."""

    def form(S: LabeledSeed) -> tuple:
        colour = []
        for v, flag in S.quiver.frozen.items():
            lab = S.labels[v]
            key = (0, tuple(sorted(lab.columns))) if isinstance(lab, PluckerSymbol) else (1, id(lab))
            colour.append((flag, key))
        return _coloured_form(_b_matrix(S.quiver, list(S.quiver.frozen)), colour)

    return form(S1) == form(S2)


# ---------------------------------------------------------------------------
# The rectangles seed
# ---------------------------------------------------------------------------

def _grid_quiver(frozen: dict[shapes.Box, bool]) -> Quiver:
    """Quiver on the boxes in ``frozen`` (in that order): arrows up and left
    between adjacent boxes and a southeast diagonal arrow in every 2x2
    rectangle, frozen-frozen arrows dropped, arrows sorted."""
    arrows = []
    for (r, c) in frozen:
        for target in ((r - 1, c), (r, c - 1), (r + 1, c + 1)):
            if target in frozen and not (frozen[(r, c)] and frozen[target]):
                arrows.append(((r, c), target))
    return Quiver(frozen, tuple(sorted(arrows)))


def rectangles_quiver(lam: shapes.Partition) -> Quiver:
    """The grid quiver on the boxes of lam, in :func:`shapes.boxes` order,
    frozen at the boxes on the southeast boundary."""
    return _grid_quiver({b: shapes.is_lambda_frozen(lam, b) for b in shapes.boxes(lam)})


def rectangles_seed(k: int, n: int, v: Permutation, x: Permutation) -> LabeledSeed:
    """The rectangles seed for the pair (v, w = x v): one vertex per box b of
    ``lambda = shape of x([k])``, labeled by the Pluecker coordinate on the
    column set ``v^{-1}(vert_ne(Rect(b)))``."""
    _, lam = permmod.check_skew_pair(v, x, k)
    vi = permmod.inverse(v)
    quiver = rectangles_quiver(lam)
    labels = {}
    for (r, c) in quiver.vertices:
        J = shapes.rect_vert_ne(r, c, k, n)
        labels[(r, c)] = PluckerSymbol(frozenset(vi[j - 1] for j in J))
    return LabeledSeed(quiver, labels)


def seed_from_graph(G, mode: str, delete_label: Iterable[int] | None = None) -> LabeledSeed:
    """Dual quiver of a plabic graph with faces labeled by Pluecker symbols;
    optionally deletes the vertex carrying ``delete_label`` (the normalization
    that sets that coordinate to 1).  Seed vertices are keyed by label."""
    from positroids import plabic

    labeling = plabic.face_labeling(G, mode)
    labels = labeling.labels
    if len(set(labels)) != len(labels):
        raise ValueError("face labels are not distinct; cannot key the seed by label")
    # frozen iff the face touches the disk boundary; frozen-frozen arrows dropped
    frozen = {lab: f.boundary for lab, f in zip(labels, labeling.faces.faces)}
    arrows = tuple(
        (labels[s], labels[t])
        for s, t in plabic.dual_quiver_arrows(G, labeling.faces)
        if not (frozen[labels[s]] and frozen[labels[t]])
    )
    seed = LabeledSeed(Quiver(frozen, arrows), {lab: PluckerSymbol(lab) for lab in labels})
    if delete_label is not None:
        lab = frozenset(delete_label)
        if lab not in seed.labels:
            raise KeyError(f"no face labeled {sorted(lab)}")
        seed = seed.delete_vertex(lab)
    return seed


# ---------------------------------------------------------------------------
# Finite-type classification
# ---------------------------------------------------------------------------

_EXCEPTIONAL = {
    (3, 3): "E6",
    (3, 2, 1): "E6",
    (4, 3): "E7",
    (4, 2, 1): "E7",
    (3, 3, 1): "E7",
    (5, 3): "E8",
    (5, 2, 1): "E8",
    (4, 4): "E8",
    (3, 3, 1, 1): "E8",
}


def classify_finite_type(lam: shapes.Partition) -> str:
    """Cluster type of the rectangles seed on lam, from the shape of its
    mutable part: ``A<m>``, ``D<m>``, ``E6``/``E7``/``E8``, or ``Infinite``.

    >>> classify_finite_type((3, 3, 3))
    'D4'
    >>> classify_finite_type((4, 4, 4))
    'E6'
    """
    return classify_mutable_shape(shapes.mutable_part(shapes.normalize(lam)))


def classify_mutable_shape(mut: shapes.Partition) -> str:
    """Classification from the mutable-part shape itself.  Only a shape with
    two columns or at most 8 boxes can match by its transpose (types D, E)."""
    mut = shapes.normalize(mut)
    m = shapes.size(mut)
    if len(mut) < 2 or mut[1] < 2:
        return f"A{m}"
    t = shapes.transpose(mut) if mut[0] == 2 or m <= 8 else ()
    for cand in (mut, t):  # no shape of type D is also of type E
        if len(cand) == 2 and cand[1] == 2:
            return f"D{m}"
        if cand in _EXCEPTIONAL:
            return _EXCEPTIONAL[cand]
    return "Infinite"


def mutable_grid_quiver(mut: shapes.Partition) -> Quiver:
    """The all-mutable grid quiver on the boxes of a partition, in sorted box
    order (the mutable part of a rectangles quiver)."""
    return _grid_quiver({b: False for b in sorted(shapes.boxes(mut))})


def canonical_form(Q: Quiver) -> tuple:
    """Canonical invariant of a quiver up to isomorphism respecting frozen
    flags: the :func:`_coloured_form` of its exchange matrix, coloured by the
    frozen flags.  Equal for two quivers exactly when they are isomorphic."""
    return _coloured_form(_b_matrix(Q, list(Q.frozen)), list(Q.frozen.values()))


@dataclass(frozen=True)
class MutationClassReport:
    closed: bool
    class_size: int
    bound_hit: bool
    saw_multiple_arrow: bool
    # the isomorphism classes reached, as canonical_form values of quivers on
    # Q's mutable vertices: the whole mutation class when closed
    classes: set[tuple]
    # new classes found at each depth 1, 2, ...: its length is the depth reached
    frontier_sizes: tuple[int, ...]
    # canonical labelings computed, the start's included
    labelled: int
    # mutations skipped because they lead back to a class already seen; a
    # closed search has labelled - 1 + skipped == class_size * (vertex count)
    skipped: int = 0

    @property
    def verdict(self) -> str:
        """'finite' / 'infinite' / 'unknown'.  A double arrow anywhere in the
        class certifies infinite type (skew-symmetric finite type forces all
        exchange-matrix entries into {-1, 0, 1}); closure without one
        certifies finite type."""
        if self.saw_multiple_arrow:
            return "infinite"
        if self.closed:
            return "finite"
        return "unknown"


# mutation_class_explore stops, with bound_hit set, once it has seen more
# isomorphism classes than this
MAX_CLASS_SIZE = 20000


def mutation_class_explore(
    Q: Quiver, *, stop_on_multiple_arrow: bool = True
) -> MutationClassReport:
    """Breadth-first search of the mutation class of the mutable part of Q, up
    to quiver isomorphism and to :data:`MAX_CLASS_SIZE` classes.  The search
    runs on exchange matrices; ``classes`` holds each class reached as the
    value :func:`canonical_form` gives for a quiver on Q's mutable vertices,
    so ``canonical_form(R.restrict_mutable()) in report.classes`` asks whether
    the search reached R's class.

    Each edge of the exchange graph is labelled once, from the end expanded
    first.  A class waiting in the frontier carries a done-mask of vertices
    whose mutation leads back to a class already seen: the vertex it was
    reached by, and the reverse of every later edge into it.  When
    ``mu_q(cur)`` labels to a waiting class D, the isomorphism ``phi`` read
    off the two canonical leaves gives ``mu_phi(q)(D) ~ cur``, so D's bit
    ``phi(q)`` is set; a set bit skips the mutation as well as its label,
    and ``skipped`` counts them."""
    Q0 = Q.restrict_mutable()
    # Individualization-refinement has exponential worst cases.  Up to 12
    # vertices the most symmetric quivers tried (no arrows, oriented cycles,
    # disjoint triangles, K_{6,6}, the Paley tournament) label in about 2 ms
    # each at the median of 100 relabellings, under 5 ms at worst (Python
    # 3.11, 2-CPU Xeon host); larger inputs are not measured.
    if len(Q0.frozen) > 12:
        raise ValueError(
            "mutation_class_explore is limited to <= 12 mutable vertices: its "
            "canonical labeling has exponential worst cases and is measured "
            "only up to 12 vertices"
        )
    n = len(Q0.frozen)
    B0 = _b_matrix(Q0, list(Q0.frozen))
    flags = (False,) * n  # (flags, form) is a canonical_form value
    form, leaf = _canonical_label(B0, flags)
    seen = {(flags, form)}
    labelled, skipped = 1, 0
    # class key -> [matrix, done-mask, leaf] for each class not yet expanded
    pending = {(flags, form): [B0, 0, leaf]}
    frontier = [(flags, form)]
    frontier_sizes = []
    saw_multiple = _max_multiplicity(B0) >= 2
    bound_hit = False
    while frontier and not (saw_multiple and stop_on_multiple_arrow):
        nxt = []
        for cur_key in frontier:
            entry = pending[cur_key]
            cur = entry[0]
            for q in range(n):
                if entry[1] >> q & 1:
                    skipped += 1
                    continue
                new = _mutate_b(cur, q)
                form, leaf = _canonical_label(new, flags)
                labelled += 1
                key = (flags, form)
                if key in seen:
                    hit = pending.get(key)
                    if hit is not None:
                        hit[1] |= 1 << hit[2][leaf.index(q)]
                    continue
                seen.add(key)
                if _max_multiplicity(new) >= 2:
                    saw_multiple = True
                pending[key] = [new, 1 << q, leaf]
                nxt.append(key)
                if len(seen) > MAX_CLASS_SIZE:
                    bound_hit = True
                    break
            if bound_hit:
                break
            del pending[cur_key]
        if nxt:
            frontier_sizes.append(len(nxt))
        if bound_hit:
            break
        frontier = nxt
    closed = not bound_hit and not frontier
    if saw_multiple and stop_on_multiple_arrow:
        closed = False
    return MutationClassReport(
        closed, len(seen), bound_hit, saw_multiple, seen,
        tuple(frontier_sizes), labelled, skipped,
    )


def _max_multiplicity(B: ExchangeMatrix) -> int:
    return max(map(max, B), default=0)


def dynkin_quiver(type_name: str) -> Quiver:
    """A fixed orientation of a simply-laced Dynkin diagram, e.g. 'A3', 'D5',
    'E7'."""
    family, rank = type_name[0], int(type_name[1:])
    if family == "A":
        edges = [(i, i + 1) for i in range(1, rank)]
    elif family == "D":
        if rank < 4:
            raise ValueError("type D starts at rank 4")
        edges = [(i, i + 1) for i in range(1, rank - 1)] + [(rank - 2, rank)]
    elif family == "E":
        if rank not in (6, 7, 8):
            raise ValueError("type E has ranks 6, 7, 8")
        edges = [(i, i + 1) for i in range(1, rank - 1)] + [(3, rank)]
    else:
        raise ValueError(f"unknown type {type_name!r}")
    frozen = {i: False for i in range(1, rank + 1)}
    return Quiver(frozen, tuple(edges))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _label_to_json(lab: ClusterExpression):
    if isinstance(lab, PluckerSymbol):
        return sorted(lab.columns)
    return {
        "out": [_label_to_json(f) for f in lab.out_factors],
        "in": [_label_to_json(f) for f in lab.in_factors],
        "divisor": _label_to_json(lab.divisor),
    }


def seed_to_json(S: LabeledSeed) -> dict:
    ids = {v: i for i, v in enumerate(S.quiver.vertices)}
    return {
        "vertices": [
            {
                "id": ids[v],
                "frozen": S.quiver.frozen[v],
                "label": _label_to_json(S.labels[v]),
            }
            for v in S.quiver.vertices
        ],
        "arrows": [[ids[s], ids[t]] for s, t in S.quiver.arrows],
    }


def seed_to_dot(S: LabeledSeed) -> str:
    ids = {v: i for i, v in enumerate(S.quiver.vertices)}
    lines = ["digraph seed {"]
    for v in S.quiver.vertices:
        shape = "box" if S.quiver.frozen[v] else "ellipse"
        lab = S.labels[v]
        text = "".join(str(c) for c in sorted(lab.columns)) if isinstance(lab, PluckerSymbol) else "expr"
        lines.append(f'  n{ids[v]} [shape={shape}, label="{text}"];')
    for s, t in S.quiver.arrows:
        lines.append(f"  n{ids[s]} -> n{ids[t]};")
    lines.append("}")
    return "\n".join(lines)
