"""Shared fixtures: hand-built golden graphs with known trips, labels and
quivers, samplers for length-additive pairs, a counter of the minors
computed, and Le-ification by played Le-moves."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from positroids import lediag, perm, plabic, pluecker, seeds, shapes


def golden_gr25_graph() -> plabic.PlabicGraph:
    """Disk graph with trip permutation (3, 4, 5, 1, 2): a square of
    alternating colors joined to a lower quadrilateral, five boundary
    pendants."""
    W, B = plabic.WHITE, plabic.BLACK
    boundary = (-1, -2, -3, -4, -5)
    labels = {-p: p for p in range(1, 6)}
    colors = {1: W, 2: B, 3: W, 4: B, 5: W, 6: B}
    edges = {
        1: (-1, 1), 2: (-2, 2), 3: (-3, 3), 4: (-4, 6), 5: (-5, 5),
        6: (1, 2), 7: (2, 3), 8: (3, 4), 9: (1, 4), 10: (4, 5), 11: (5, 6), 12: (3, 6),
    }
    rot = {
        1: (6, 1, 9),
        2: (2, 6, 7),
        3: (7, 8, 12, 3),
        4: (8, 9, 10),
        5: (10, 5, 11),
        6: (12, 11, 4),
    }
    G = plabic.PlabicGraph(boundary, labels, colors, edges, rot)
    G.validate()
    return G


def golden_gr37_graph() -> plabic.PlabicGraph:
    """Disk graph with trip permutation (2, 4, 6, 7, 1, 3, 5) and ten faces."""
    W, B = plabic.WHITE, plabic.BLACK
    boundary = tuple(-p for p in range(1, 8))
    labels = {-p: p for p in range(1, 8)}
    colors = {1: W, 2: B, 3: B, 4: B, 5: W, 6: W, 7: W, 8: B}
    edges = {
        1: (-1, 1), 2: (-2, 1), 3: (-3, 4), 4: (-4, 6), 5: (-5, 8),
        6: (-6, 7), 7: (-7, 2),
        8: (1, 2), 9: (1, 3), 10: (1, 4), 11: (2, 5), 12: (2, 7),
        13: (3, 5), 14: (3, 6), 15: (4, 6), 16: (5, 8), 17: (7, 8),
    }
    rot = {
        1: (2, 1, 8, 9, 10),
        2: (8, 7, 12, 11),
        3: (9, 13, 14),
        4: (3, 10, 15),
        5: (13, 11, 16),
        6: (15, 14, 4),
        7: (12, 6, 17),
        8: (16, 17, 5),
    }
    G = plabic.PlabicGraph(boundary, labels, colors, edges, rot)
    G.validate()
    return G


def dart_name(G: plabic.PlabicGraph, d: int) -> tuple:
    """Dart number d of G as ``(eid, end)``, with ``(("arc", p), end)`` for
    the arc from boundary position p to p + 1, decoded through G's slot map
    (the numbering of the ``plabic`` module docstring)."""
    darts = G._darts
    eid = darts.eids[d >> 1]
    return (eid or ("arc", (d >> 1) - darts.arc0), d & 1)


def named_darts(G: plabic.PlabicGraph) -> tuple:
    """G's dart permutations, pendants and faces with every dart by name, so
    that graphs with the same edge ids compare whatever their slots: each
    live dart's head, face_next, trip_next and face index, the pendant dart
    of each boundary vertex and each face's darts in order.  A free slot's
    darts must be bare: head 0, both permutations -1, on no face."""
    darts, fc = G._darts, plabic.faces(G)
    free = {2 * s for s in darts.free} | {2 * s + 1 for s in darts.free}
    # every slot holds one edge, one arc or nothing
    assert sorted([*darts.slot.values(), *range(darts.arc0, darts.arc0 + G.n), *darts.free]) == list(
        range(len(darts.eids)))
    assert all(darts.eids[s] == e for e, s in darts.slot.items())
    assert all((darts.eids[d >> 1], darts.head[d], darts.face_next[d], darts.trip_next[d],
                fc.face_of[d]) == (0, 0, -1, -1, -1) for d in free)

    def name(d):
        return None if d < 0 else dart_name(G, d)

    live = [d for d in range(len(darts.head)) if d not in free]
    return ({name(d): (darts.head[d], name(darts.face_next[d]), name(darts.trip_next[d]),
                       fc.face_of[d]) for d in live},
            {bd: name(d) for bd, d in darts.pendant.items()},
            tuple((tuple(map(name, f.darts)), f.boundary) for f in fc.faces))


def assert_carried_labelings(H: plabic.PlabicGraph, where: str = "") -> None:
    """H, the output of a square move, holds its darts, faces and both face
    labelings before any numbering, tracing or sweep, and they equal those
    of a copy built afresh from H's fields: the darts and faces by name, and
    the labels of the faces in order."""
    assert {"_darts", "_faces", "_labelings"} <= vars(H).keys(), where
    fresh = plabic.PlabicGraph(H.boundary_order, H.labels, H.colors, H.edges, H.rot)
    assert named_darts(H) == named_darts(fresh), where
    for mode in ("source", "target"):
        assert (plabic.face_labeling(H, mode).labels
                == plabic.face_labeling(fresh, mode).labels), (mode, where)


def reversed_seed(S: seeds.LabeledSeed) -> seeds.LabeledSeed:
    """S with every arrow reversed: the same vertices, flags and labels."""
    arrows = tuple((t, s) for s, t in S.quiver.arrows)
    return seeds.LabeledSeed(seeds.Quiver(S.quiver.frozen, arrows), S.labels)


def exact_type(x) -> type:
    """The type an exact value x must have: ``int`` when x is an integer,
    ``Fraction`` for any other rational."""
    return int if Fraction(x).denominator == 1 else Fraction


@pytest.fixture
def count_determinants(monkeypatch):
    """Count the calls of ``pluecker.determinant`` from here on."""
    calls = []
    determinant = pluecker.determinant

    def counted(rows):
        calls.append(rows)
        return determinant(rows)

    monkeypatch.setattr(pluecker, "determinant", counted)
    return calls


@pytest.fixture
def gr25_graph():
    return golden_gr25_graph()


@pytest.fixture
def gr37_graph():
    return golden_gr37_graph()


def skew_pairs(n: int):
    """All (k, v, x) with v in W^K_max, x in ^K W and x*v length-additive,
    via nested partition pairs."""
    for k in range(1, n):
        for lam_v in shapes.partitions_in_box(k, n - k):
            for lam_x in shapes.subpartitions(lam_v):
                yield (k, *perm.skew_pair(k, n, lam_v, lam_x))


def random_skew_pair(n: int, rng: random.Random, min_boxes: int = 0):
    """Random (k, v, x) with x*v length-additive; resamples until the shape of
    x has at least ``min_boxes`` boxes (when attainable)."""
    for _ in range(200):
        k = rng.randint(1, n - 1)
        cells = sorted(rng.sample(range(1, n + 1), k))
        lam_v = shapes.from_vert_sw(cells, k, n)
        subs = [s for s in shapes.subpartitions(lam_v) if shapes.size(s) >= min_boxes]
        if not subs:
            continue
        lam_x = subs[rng.randrange(len(subs))]
        return (k, *perm.skew_pair(k, n, lam_v, lam_x))
    raise RuntimeError(f"no shape with {min_boxes} boxes fits n={n}")


def play_le_moves(O: lediag.OplusDiagram, rng: random.Random | None = None) -> lediag.OplusDiagram:
    """Le-ification by the paper's moves, the reference for ``lediag.leify``:
    play a Le-move until the Le-property holds, the first listed site when
    ``rng`` is None and a random one otherwise.  Fails the test when no move
    applies to a diagram without the Le-property."""
    while not lediag.is_le_diagram(O):
        sites = lediag.le_moves_applicable(O)
        if not sites:
            pytest.fail(f"no Le-move applies to\n{O.render()}")
        O = lediag.apply_le_move(O, sites[0] if rng is None else sites[rng.randrange(len(sites))])
    return O
