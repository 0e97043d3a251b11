"""Graph JSON, the plabic graph file format of the README: :func:`to_json`
writes a graph and :func:`from_json` reads one back, checking what it reads."""

from __future__ import annotations

from positroids.plabic import BLACK, WHITE, PlabicError, PlabicGraph, faces


def to_json(G: PlabicGraph) -> dict:
    """Canonical JSON form: boundary vertex at clockwise position p becomes
    id -p; rotations list neighbor ids counterclockwise."""
    pos = {bd: -p for p, bd in enumerate(G.boundary_order, start=1)}

    def vid(v: int) -> int:
        return pos.get(v, v)

    return {
        "n": G.n,
        "boundary_labels": list(G.boundary_labels),
        "vertices": [{"id": v, "color": G.colors[v]} for v in sorted(G.colors)],
        "edges": [[vid(a), vid(b)] for _, (a, b) in sorted(G.edges.items())],
        "rotations": {str(v): [vid(G.other_end(e, v)) for e in G.rot[v]] for v in sorted(G.rot)},
    }


def _int_list(value, what: str, length: int | None = None) -> list[int]:
    if not isinstance(value, list) or not all(_is_int(x) for x in value):
        raise PlabicError(f"{what} must be a list of integers")
    if length is not None and len(value) != length:
        raise PlabicError(f"{what} must have {length} entries")
    return value


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _parallel_shift(u: int, w: int, nbrs: dict[int, list[int]],
                    edges: dict[int, tuple[int, int]], n: int) -> int:
    """The c that embeds the m >= 2 edges joining the internal vertices u and
    w in the disk when u's i-th rotation entry naming w and w's ((c - i) mod
    m)-th naming u are one edge (see the README's JSON notes).  A part of the
    graph less u and w that u meets in its gap a (after its a-th entry
    naming w, -1 before the first) and w in its gap b gives c = a + b + 1."""
    adj: dict[int, list[int]] = {}
    for a, b in edges.values():
        if u not in (a, b) and w not in (a, b):
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
    part: dict[int, int] = {}  # vertex -> its part; the arcs join the boundary into one
    for root, stack in [(0, list(range(-n, 0))), *((x, [x]) for x in adj)]:
        while stack:
            x = stack.pop()
            if x not in part:
                part[x] = root
                stack += adj.get(x, ())

    def gaps(v: int, other: int) -> dict[int, int]:
        gap, out = -1, {}
        for y in nbrs[v]:
            if y == other:
                gap += 1
            elif y != u and y != w:
                out[part.get(y, y)] = gap
        return out

    at_u, at_w = gaps(u, w), gaps(w, u)
    return next((at_u[p] + at_w[p] + 1 for p in at_w if p in at_u), 0)


def from_json(data) -> PlabicGraph:
    """Inverse of :func:`to_json`.  Data of the wrong shape or type,
    rotations that do not match the edges, or a graph that :func:`faces`
    cannot embed in the disk raise :class:`PlabicError`."""
    if not isinstance(data, dict):
        raise PlabicError("graph JSON must be an object")
    missing = [key for key in ("n", "boundary_labels", "vertices", "edges", "rotations")
               if key not in data]
    if missing:
        raise PlabicError(f"graph JSON lacks {', '.join(missing)}")
    n = data["n"]
    if not _is_int(n) or n < 0:
        raise PlabicError("n must be a non-negative integer")
    labels = {-p: lab for p, lab in enumerate(
        _int_list(data["boundary_labels"], "boundary_labels", n), start=1)}
    boundary = tuple(labels)
    vertices = data["vertices"]
    if not isinstance(vertices, list) or not all(
        isinstance(v, dict) and _is_int(v.get("id")) and v["id"] > 0
        and v.get("color") in (BLACK, WHITE) for v in vertices
    ):
        raise PlabicError('vertices must be a list of {"id": positive integer, "color": "b" or "w"}')
    colors = {v["id"]: v["color"] for v in vertices}
    if not isinstance(data["edges"], list):
        raise PlabicError("edges must be a list")
    edges = {}
    for i, ends in enumerate(data["edges"], start=1):
        a, b = _int_list(ends, "an edge", 2)
        if not all(v in labels or v in colors for v in (a, b)):
            raise PlabicError(f"edge {ends} uses an unknown vertex")
        edges[i] = (a, b)
    rotations = data["rotations"]
    if not isinstance(rotations, dict) or sorted(rotations) != sorted(map(str, colors)):
        raise PlabicError("rotations must map each vertex id, as a string, to its neighbors")
    nbrs = {int(v): _int_list(ws, f"the rotation at {v}") for v, ws in rotations.items()}
    # rotations reference neighbors; recover edge ids, each vertex taking the
    # edges to a neighbor in the order listed here (see _parallel_shift)
    incident: dict[int, dict[int, list[int]]] = {}
    for eid, (a, b) in edges.items():
        incident.setdefault(a, {}).setdefault(b, []).append(eid)
        incident.setdefault(b, {}).setdefault(a, []).append(eid)
    for u, to in incident.items():
        for w, eids in to.items():
            if 0 < u < w and len(eids) > 1:
                c = _parallel_shift(u, w, nbrs, edges, n)
                incident[w][u] = [eids[(c - j) % len(eids)] for j in range(len(eids))]
    rot = {}
    for v, ws in nbrs.items():
        pools = {w: list(eids) for w, eids in incident.get(v, {}).items()}
        order = []
        for w in ws:
            if not pools.get(w):
                raise PlabicError(f"the rotation at {v} lists {w} more often than an edge joins them")
            order.append(pools[w].pop(0))
        rot[v] = tuple(order)
    G = PlabicGraph(boundary, labels, colors, edges, rot)
    G.validate()
    faces(G)
    return G

