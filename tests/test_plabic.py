import gc
import itertools
import json
import random
import re
import weakref
from collections import Counter
from typing import NamedTuple

import pytest

from positroids import perm, plabic, plabic_json, pluecker, seeds, shapes
from conftest import (assert_carried_labelings, dart_name, golden_gr25_graph, named_darts,
                      random_skew_pair, reversed_seed)


def label_names(labels):
    return sorted("".join(str(i) for i in sorted(l)) for l in labels)


# ---------------------------------------------------------------------------
# faces
# ---------------------------------------------------------------------------

def test_faces_lollipop():
    G = plabic.lollipop_graph(2, 5)
    fc = plabic.faces(G)
    assert len(fc) == 1
    assert fc.faces[0].boundary


def test_faces_goldens(gr25_graph, gr37_graph):
    fc25 = plabic.faces(gr25_graph)
    assert len(fc25) == 7
    assert sum(f.boundary for f in fc25.faces) == 5
    assert len(plabic.faces(gr37_graph)) == 10


def test_faces_euler_violation_detected():
    G = golden_gr25_graph()
    # swap two entries in one rotation: the embedding data goes inconsistent
    rot = dict(G.rot)
    rot[3] = (8, 7, 12, 3)
    bad = plabic.PlabicGraph(G.boundary_order, G.labels, G.colors, G.edges, rot)
    for _ in range(2):  # a failed call keeps nothing, so the next one fails too
        with pytest.raises(plabic.PlabicError):
            plabic.faces(bad)


def test_bridge_graph_face_count():
    x = (3, 5, 1, 2, 4)
    G = plabic.lollipop_graph(2, 5)
    counts = [len(plabic.faces(G))]
    for i in perm.columnar_expression(x, 2):
        G = plabic.add_bridge(G, i, i + 1)
        counts.append(len(plabic.faces(G)))
    assert counts == [1, 2, 3, 4, 5, 6]


# ---------------------------------------------------------------------------
# trips
# ---------------------------------------------------------------------------

def test_trips_goldens(gr25_graph, gr37_graph):
    _, sigma = plabic.trips(gr25_graph)
    assert sigma.perm == (3, 4, 5, 1, 2)
    assert not sigma.white_fixed
    _, sigma = plabic.trips(gr37_graph)
    assert sigma.perm == (2, 4, 6, 7, 1, 3, 5)


def test_trips_lollipops():
    G = plabic.lollipop_graph(2, 5)
    _, sigma = plabic.trips(G)
    assert sigma.perm == perm.identity(5)
    assert sigma.white_fixed == frozenset({1, 2})


def test_bridge_graph_trip_permutation():
    for k, n, x in ((2, 5, (3, 5, 1, 2, 4)), (3, 7, (3, 5, 7, 1, 2, 4, 6))):
        G = plabic.bridge_graph(k, n, x)
        _, sigma = plabic.trips(G)
        assert sigma.perm == perm.inverse(x)
        assert all(f <= k for f in sigma.white_fixed)


def test_bridge_graph_identity_is_lollipop():
    G = plabic.bridge_graph(2, 5, perm.identity(5))
    assert len(G.edges) == 5
    assert len(plabic.faces(G)) == 1


# ---------------------------------------------------------------------------
# face labelings
# ---------------------------------------------------------------------------

def test_source_labels_gr25(gr25_graph):
    lab = plabic.face_labeling(gr25_graph, "source")
    assert label_names(lab.labels) == ["12", "15", "23", "24", "25", "34", "45"]
    # placement: the two internal faces carry 25 and 24, and the boundary
    # face across each arc (p, p+1) carries the drawn label
    internals = [lab.labels[i] for i, f in enumerate(lab.faces.faces) if not f.boundary]
    assert sorted(map(sorted, internals)) == [[2, 4], [2, 5]]
    arcs = _arc_label_map(gr25_graph, lab)
    assert arcs == {
        (1, 2): frozenset({1, 5}),
        (2, 3): frozenset({1, 2}),
        (3, 4): frozenset({2, 3}),
        (4, 5): frozenset({3, 4}),
        (5, 1): frozenset({4, 5}),
    }


def _arc_label_map(G, lab):
    out = {}
    face_of = {dart_name(G, d): i for d, i in enumerate(lab.faces.face_of)}
    for p in range(G.n):
        arc_dart = (("arc", p), 1)  # counterclockwise arc dart borders the interior face
        idx = face_of.get(arc_dart)
        a = G.labels[G.boundary_order[p]]
        b = G.labels[G.boundary_order[(p + 1) % G.n]]
        out[(a, b)] = lab.labels[idx]
    return out


def test_target_labels_gr37(gr37_graph):
    lab = plabic.face_labeling(gr37_graph, "target")
    assert label_names(lab.labels) == sorted(
        ["235", "135", "356", "357", "345", "456", "567", "167", "137", "157"]
    )
    # in a reduced graph of type pi with k antiexcedances all labels have size k
    assert {len(l) for l in lab.labels} == {3}


def test_single_white_lollipop_n1():
    G = plabic.lollipop_graph(1, 1)
    lab = plabic.face_labeling(G, "target")
    assert lab.labels == (frozenset({1}),)


def test_n1_graph_must_be_the_lollipop():
    # the lollipop is the only tree validate() accepts on one boundary vertex
    G = plabic_json.from_json(plabic_json.to_json(plabic.lollipop_graph(1, 1)))
    assert len(plabic.faces(G)) == 1
    # the lollipop plus a separate internal 4-cycle has two faces, and so
    # does a 4-cycle hanging off the boundary vertex
    lollipop = plabic.lollipop_graph(0, 1)
    cycle = {2: "w", 3: "b", 4: "w", 5: "b"}
    edges = {2: (2, 3), 3: (3, 4), 4: (4, 5), 5: (5, 2)}
    rot = {2: (5, 2), 3: (2, 3), 4: (3, 4), 5: (4, 5)}
    detached = plabic.PlabicGraph(lollipop.boundary_order, lollipop.labels,
                                  {**lollipop.colors, **cycle}, {**lollipop.edges, **edges},
                                  {**lollipop.rot, **rot})
    detached.validate()
    hanging = plabic.PlabicGraph(
        lollipop.boundary_order, lollipop.labels, {1: "w", 3: "b", 4: "w", 5: "b"},
        {1: (-1, 1), 2: (1, 3), 3: (3, 4), 4: (4, 5), 5: (5, 1)},
        {1: (1, 2, 5), 3: (2, 3), 4: (3, 4), 5: (4, 5)})
    hanging.validate()
    for G in (detached, hanging):
        with pytest.raises(plabic.PlabicError, match="only the lollipop"):
            plabic.faces(G)


def test_bridge_labels_match_necklace_by_position():
    # target labels of boundary faces = Grassmann necklace entries, J_i on the
    # face across the arc (i-1, i)
    for k, n, x in ((2, 5, (3, 5, 1, 2, 4)), (3, 7, (3, 5, 7, 1, 2, 4, 6)), (2, 6, (2, 6, 1, 3, 4, 5))):
        G = plabic.bridge_graph(k, n, x)
        lab = plabic.face_labeling(G, "target")
        _, sigma = plabic.trips(G)
        neck = perm.grassmann_necklace(sigma)
        arcs = _arc_label_map(G, lab)
        for (a, b), label in arcs.items():
            assert label == neck[b - 1], (a, b)


def test_bridge_labels_are_rectangles():
    k, n, x = 2, 5, (3, 5, 1, 2, 4)
    G = plabic.bridge_graph(k, n, x)
    lab = plabic.face_labeling(G, "target")
    lam = shapes.from_vert_ne(x[:k], k, n)
    expected = {shapes.rect_vert_ne(r, c, k, n) for (r, c) in shapes.boxes(lam)}
    expected.add(frozenset(range(1, k + 1)))
    assert set(lab.labels) == expected
    # boundary faces carry the lambda-frozen rectangles and [k]
    boundary_labels = {l for l, f in zip(lab.labels, lab.faces.faces) if f.boundary}
    frozen_rects = {
        shapes.rect_vert_ne(r, c, k, n)
        for (r, c) in shapes.boxes(lam)
        if shapes.is_lambda_frozen(lam, (r, c))
    }
    assert boundary_labels == frozen_rects | {frozenset(range(1, k + 1))}


def test_relabel_boundary():
    G = plabic.bridge_graph(2, 5, (3, 5, 1, 2, 4))
    labG = plabic.face_labeling(G, "target")  # kept on G, not passed on
    assert plabic.relabel_boundary(G, perm.identity(5)) == G
    u = perm.parabolic_longest(2, 5)
    labH = plabic.face_labeling(plabic.relabel_boundary(G, u), "target")
    # the same faces in the same order, each label mapped by u
    assert labH.labels == tuple(frozenset(u[i - 1] for i in l) for l in labG.labels)


def test_mirror_involution_and_labels():
    G = plabic.bridge_graph(2, 5, (3, 5, 1, 2, 4))
    # trips and labels kept on G, not passed on
    _, sG = plabic.trips(G)
    labG = plabic.face_labeling(G, "target")
    assert plabic.mirror(plabic.mirror(G)) == G
    M = plabic.mirror(G)
    _, sM = plabic.trips(M)
    assert sM.perm == perm.inverse(sG.perm)
    assert set(plabic.face_labeling(M, "source").labels) == set(labG.labels)


def test_mirror_reverses_dual_quiver(gr25_graph):
    S = seeds.seed_from_graph(gr25_graph, "target")
    SM = seeds.seed_from_graph(plabic.mirror(gr25_graph), "source")
    assert seeds.seeds_equal(S, reversed_seed(SM))
    assert not seeds.seeds_equal(S, SM)


# ---------------------------------------------------------------------------
# dual quiver
# ---------------------------------------------------------------------------

def test_dual_quiver_gr25(gr25_graph):
    S = seeds.seed_from_graph(gr25_graph, "source")
    def nm(l):
        return "".join(str(i) for i in sorted(l))
    arrows = sorted((nm(s), nm(t)) for s, t in S.quiver.arrows)
    assert arrows == sorted(
        [("25", "15"), ("25", "24"), ("45", "25"), ("12", "25"),
         ("24", "45"), ("24", "23"), ("34", "24")]
    )


def test_dual_quiver_single_face():
    Q = seeds.seed_from_graph(plabic.lollipop_graph(2, 5), "target").quiver
    assert len(Q.frozen) == 1
    assert not Q.arrows
    assert all(Q.frozen.values())


# ---------------------------------------------------------------------------
# moves
# ---------------------------------------------------------------------------

def test_insert_degree2_pair_contracts_back():
    # (M3) on any edge keeps the trips and, after full contraction, the face
    # labels; on an internal edge the contraction gives back the graph JSON,
    # up to the order of the edge list (the rejoined edge has a new id)
    G = golden_gr25_graph()
    assert plabic.full_contract(G) is G
    want = plabic_json.to_json(G)
    for eid, (a, b) in sorted(G.edges.items()):
        H = plabic.insert_degree2_pair(G, eid)
        assert len(H.colors) == len(G.colors) + 2
        assert plabic.trips(H)[1] == plabic.trips(G)[1]
        back = plabic.full_contract(H)
        assert len(back.colors) == len(G.colors)
        assert plabic.face_labeling(back, "target").labels == plabic.face_labeling(G, "target").labels
        if a > 0 and b > 0:
            got = plabic_json.to_json(back)
            assert sorted(got.pop("edges")) == sorted(want["edges"]), eid
            assert got == {key: value for key, value in want.items() if key != "edges"}, eid


def test_m2_m3_preserve_trip_permutation():
    G = plabic.bridge_graph(3, 7, (3, 5, 7, 1, 2, 4, 6))
    _, before = plabic.trips(G)
    for eid in list(G.edges)[:6]:
        H = plabic.insert_degree2_pair(G, eid)
        _, after = plabic.trips(H)
        assert after == before
        assert set(plabic.face_labeling(H, "target").labels) == set(
            plabic.face_labeling(G, "target").labels
        )


def test_square_move_golden(gr25_graph):
    H = plabic.square_move(gr25_graph, {2, 4})
    _, sigma = plabic.trips(H)
    assert sigma.perm == (3, 4, 5, 1, 2)
    # the moved face label obeys the three-term exchange: 24 -> 13
    labels = set(plabic.face_labeling(H, "target").labels)
    assert frozenset({1, 3}) in labels
    assert frozenset({2, 4}) not in labels


def test_square_move_twice_restores_labels(gr25_graph):
    H = plabic.square_move(gr25_graph, {2, 4})
    H2 = plabic.square_move(H, {1, 3})
    assert set(plabic.face_labeling(H2, "target").labels) == set(
        plabic.face_labeling(gr25_graph, "target").labels
    )


def test_square_move_not_eligible(gr25_graph):
    with pytest.raises((plabic.NotSquareEligible, KeyError)):
        plabic.square_move(gr25_graph, {1, 5})  # boundary face
    with pytest.raises(KeyError):
        plabic.square_move(gr25_graph, {2, 5})  # not a target label


def test_square_defect_rejects_degree2_and_repeated_corners():
    # neither case arises on a fully contracted reduced graph, so no
    # bridge-graph walk reaches these branches
    W, B = plabic.WHITE, plabic.BLACK
    # a quadrilateral through a degree-2 vertex (full_contract would merge it)
    G = plabic.PlabicGraph(
        (-1, -2, -3), {-1: 1, -2: 2, -3: 3}, {1: W, 2: B, 3: W, 4: B},
        {1: (-1, 1), 2: (-2, 2), 3: (-3, 3), 4: (1, 2), 5: (2, 3), 6: (3, 4), 7: (4, 1)},
        {1: (1, 7, 4), 2: (2, 4, 5), 3: (3, 5, 6), 4: (6, 7)},
    )
    # a quadrilateral that meets one vertex twice, around doubled edges
    H = plabic.PlabicGraph(
        (-1, -2), {-1: 1, -2: 2}, {1: W, 2: B, 3: W},
        {1: (-1, 1), 2: (-2, 2), 3: (1, 2), 4: (1, 2), 5: (2, 3), 6: (2, 3)},
        {1: (1, 3, 4), 2: (2, 4, 5, 6, 3), 3: (5, 6)},
    )
    defects = []
    for K in (G, H):
        K.validate()
        defects += [plabic._square_defect(K, i) for i, f in enumerate(plabic.faces(K).faces)
                    if len(f.darts) == 4 and not f.boundary]
    assert defects == ["has a degree-2 corner", "does not have four distinct internal corners"]


def test_square_move_matches_quiver_mutation(gr25_graph, gr37_graph):
    for G in (gr25_graph, gr37_graph):
        for lab in plabic.square_eligible_labels(G):
            S = seeds.seed_from_graph(G, "target")
            H = plabic.square_move(G, lab)
            SH = seeds.seed_from_graph(H, "target")
            Smut = seeds.mutate_seed(S, lab)
            new_label = next(iter(set(SH.labels) - set(S.labels)))
            relabeled = {
                v if v != lab else new_label: (
                    seeds.PluckerSymbol(new_label) if v == lab else S.labels[v]
                )
                for v in Smut.labels
            }
            Sren = seeds.LabeledSeed(
                seeds.Quiver(
                    {(new_label if v == lab else v): f for v, f in Smut.quiver.frozen.items()},
                    tuple(
                        (new_label if s == lab else s, new_label if t == lab else t)
                        for s, t in Smut.quiver.arrows
                    ),
                ),
                relabeled,
            )
            assert seeds.seeds_equal(Sren, SH)


def reference_square_eligible_labels(G):
    """The per-face loop ``square_eligible_labels`` used to run: relabel the
    contracted graph once per face, test the face its label names, and check
    the corner degrees of the face in hand."""
    H = plabic.full_contract(G)
    labeling = plabic.face_labeling(H, "target")
    out = []
    for idx, face in enumerate(labeling.faces.faces):
        again = plabic.face_labeling(H, "target")
        named = again.faces.faces[again.index_of(labeling.labels[idx])]
        if named.boundary or len(named.darts) != 4:
            continue
        darts = [dart_name(H, d) for d in named.darts]
        if any(isinstance(d[0], tuple) for d in darts):
            continue
        corners = [ref_dart_head(H, d) for d in darts]
        if len(set(corners)) != 4 or any(H.is_boundary(c) for c in corners):
            continue
        if all(len(H.rot[ref_dart_head(H, dart_name(H, d))]) >= 3 for d in face.darts):
            out.append(labeling.labels[idx])
    return tuple(out)


def square_walk_graphs(seed, walks, steps):
    """Relabelled bridge graphs with n <= 7 and the graphs of seeded
    square-move walks from them, with (M3) insertions interleaved."""
    rng = random.Random(seed)
    for _ in range(walks):
        n = rng.randint(4, 7)
        k, v, x = random_skew_pair(n, rng, min_boxes=4)
        G = plabic.relabel_boundary(plabic.bridge_graph(k, n, x), perm.inverse(v))
        for _ in range(steps):
            yield G
            eligible = plabic.square_eligible_labels(G)
            if not eligible:
                break
            if rng.random() < 0.3:
                safe = [e for e, (a, b) in sorted(G.edges.items())
                        if not any(w > 0 and len(G.rot[w]) == 1 for w in (a, b))]
                G = plabic.insert_degree2_pair(G, rng.choice(safe))
            G = plabic.square_move(G, eligible[rng.randrange(len(eligible))])


def test_square_eligible_labels_match_reference():
    moves = 0
    for G in square_walk_graphs(seed=4, walks=60, steps=5):
        eligible = plabic.square_eligible_labels(G)
        assert eligible == reference_square_eligible_labels(G)
        for lab in plabic.face_labeling(plabic.full_contract(G), "target").labels:
            if lab in eligible:
                plabic.square_move(G, lab)
                moves += 1
            else:
                with pytest.raises(plabic.NotSquareEligible):
                    plabic.square_move(G, lab)
    assert moves >= 100


def test_one_face_labeling_per_square_call(monkeypatch):
    k, n, lam = 4, 8, (4, 4, 4, 4)
    G = plabic.bridge_graph(k, n, perm.grassmannian_from_image(shapes.vert_ne(lam, k, n), k, n))
    labelings, expansions = [], []
    for owner, name, log in ((plabic, "face_labeling", labelings),
                             (plabic._Edit, "expand", expansions)):
        def counted(*args, _real=getattr(owner, name), _log=log):
            _log.append(args)
            return _real(*args)
        monkeypatch.setattr(owner, name, counted)
    eligible = plabic.square_eligible_labels(G)
    assert len(labelings) == 1
    for lab in eligible:
        labelings.clear()
        plabic.square_move(G, lab)
        assert len(labelings) == 1, sorted(lab)
    assert expansions  # some of these moves expand a corner of degree > 3


def relabelled_bridge_graph(k, n, lam):
    """The bridge graph of the skew pair of shape lam, boundary relabelled by
    v^-1 (as in criterion 6)."""
    v, x = perm.skew_pair(k, n, lam, lam)
    return plabic.relabel_boundary(plabic.bridge_graph(k, n, x), perm.inverse(v))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("k, n, lam", ((3, 7, (4, 3, 2)), (4, 8, (4, 4, 4, 4))))
def test_square_move_walk_matches_fresh_graphs(k, n, lam, seed):
    # every graph of a seeded walk: its kept labels and eligible faces equal
    # those computed from scratch on a copy, its labels stay as many and
    # pairwise weakly separated, and moving the new face back undoes the move
    rng = random.Random(seed)
    G = relabelled_bridge_graph(k, n, lam)
    size = len(plabic.face_labeling(G, "target").labels)
    for step in range(12):
        where = f"seed={seed} step={step}"
        fresh = plabic_json.from_json(plabic_json.to_json(G))
        for mode in ("source", "target"):
            assert (plabic.face_labeling(G, mode).labels
                    == plabic.face_labeling(fresh, mode).labels), where
        eligible = plabic.square_eligible_labels(G)
        assert eligible == plabic.square_eligible_labels(fresh), where
        labels = plabic.face_labeling(G, "target").labels
        assert len(labels) == size, where
        assert all(pluecker.weakly_separated(a, b)
                   for a, b in itertools.combinations(labels, 2)), where
        H = plabic.square_move(G, eligible[rng.randrange(len(eligible))])
        new = set(plabic.face_labeling(H, "target").labels) - set(labels)
        assert len(new) == 1, where
        back = plabic.square_move(H, new.pop())
        assert set(plabic.face_labeling(back, "target").labels) == set(labels), where
        G = H


# ---------------------------------------------------------------------------
# a square move is one edit: against the first, one build per stage
# ---------------------------------------------------------------------------

def ref_expand_vertex(G, v, e_pair):
    """The first (M2, reversed): a copy of G, expanded and built."""
    e_a, e_b = e_pair
    order = G.rot[v]
    i = order.index(e_a)
    if order[(i + 1) % len(order)] != e_b:
        raise plabic.PlabicError(f"edges {e_pair} are not ccw-adjacent at {v}")
    ed = plabic._Edit(G)
    v2 = ed.new_vertex(G.colors[v])
    mid = ed.new_vertex(plabic._OTHER[G.colors[v]])
    e_v2mid = ed.new_edge(v2, mid)
    e_midv = ed.new_edge(mid, v)
    for e in (e_a, e_b):
        ed.reattach(e, v, v2)
    ed.rot[v2] = [e_a, e_b, e_v2mid]
    ed.rot[mid] = [e_v2mid, e_midv]
    ed.rot[v] = [e_midv if e == e_a else e for e in order if e != e_b]
    return ed.build()


def ref_contract(G):
    """The first full contraction: a copy of G contracted and built, or G
    itself when no vertex is eligible."""
    ed = plabic._Edit(G)

    def far(e, x):
        a, b = ed.edges[e]
        return b if a == x else a

    while True:
        x = min((x for x, r in ed.rot.items()
                 if len(r) == 2 and far(r[0], x) > 0 and far(r[1], x) > 0
                 and far(r[0], x) != far(r[1], x)), default=None)
        if x is None:
            return ed.build() if len(ed.colors) < len(G.colors) else G
        e1, e2 = ed.rot[x]
        u, v = far(e1, x), far(e2, x)
        del ed.colors[x], ed.rot[x], ed.edges[e1], ed.edges[e2], ed.colors[v]
        rv = ed.rot.pop(v)
        i = rv.index(e2)
        spliced = rv[i + 1:] + rv[:i]
        for e in spliced:
            ed.reattach(e, v, u)
        ru = ed.rot[u]
        j = ru.index(e1)
        ed.rot[u] = ru[:j] + spliced + ru[j + 1:]


def ref_square_move(G, label):
    """The first (M1): contract, expand corner by corner, recolor and
    subdivide on a fresh edit, and contract again, building and validating
    a graph at every stage."""
    label = frozenset(label)
    G = ref_contract(G)
    i = plabic.face_labeling(G, "target").index_of(label)
    defect = plabic._square_defect(G, i)
    if defect is not None:
        raise plabic.NotSquareEligible(f"face {sorted(label)} {defect}")
    eids = G._darts.eids
    darts = [(eids[d >> 1], d & 1) for d in plabic.faces(G).faces[i].darts]
    for j, (eid, end) in enumerate(darts):
        c = G.edges[eid][1 - end]
        if len(G.rot[c]) > 3:
            G = ref_expand_vertex(G, c, (darts[(j + 1) % 4][0], eid))
    corners = [G.edges[eid][1 - end] for eid, end in darts]
    face_edges = {eid for eid, _ in darts}
    ed = plabic._Edit(G)
    for c in corners:
        ed.colors[c] = plabic._OTHER[ed.colors[c]]
    for c in corners:
        leg = next(e for e in G.rot[c] if e not in face_edges)
        z = G.other_end(leg, c)
        if z > 0 and ed.colors[z] == ed.colors[c]:
            ed.subdivide(leg, c, plabic._OTHER[ed.colors[c]])
    return ref_contract(ed.build())


def exchange_walk_graphs(steps):
    """The graphs of seeded square-move walks on the three exchange-walk
    benchmark instances, Gr(3,7), Gr(3,8) and Gr(4,8)."""
    for seed, (k, n, lam) in enumerate(((3, 7, (4, 3, 2)), (3, 8, (5, 5, 5)),
                                        (4, 8, (4, 4, 4, 4)))):
        rng = random.Random(seed)
        G = relabelled_bridge_graph(k, n, lam)
        for _ in range(steps):
            yield G
            eligible = plabic.square_eligible_labels(G)
            G = plabic.square_move(G, eligible[rng.randrange(len(eligible))])


def move_outcome(move, *args):
    """The JSON text of the graph a move returns, or the type and message of
    what it raises."""
    try:
        return json.dumps(plabic_json.to_json(move(*args)))
    except Exception as exc:
        return type(exc), str(exc)


def test_square_move_matches_one_build_per_stage(monkeypatch):
    expansions = []
    real_expand = plabic._Edit.expand
    monkeypatch.setattr(plabic._Edit, "expand",
                        lambda ed, *args: expansions.append(args) or real_expand(ed, *args))
    outcomes = Counter()
    graphs = itertools.chain(square_walk_graphs(seed=5, walks=60, steps=5),
                             exchange_walk_graphs(steps=30))
    for G in graphs:
        assert move_outcome(plabic.full_contract, G) == move_outcome(ref_contract, G)
        labels = plabic.face_labeling(plabic.full_contract(G), "target").labels
        for lab in labels + (frozenset(range(1, G.n + 1)),):  # the last one labels no face
            expansions.clear()
            got = move_outcome(plabic.square_move, G, lab)
            assert got == move_outcome(ref_square_move, G, lab), (plabic_json.to_json(G), sorted(lab))
            outcomes["expanded" if expansions else got[0] if isinstance(got, tuple) else "moved"] += 1
    assert outcomes["moved"] >= 120 and outcomes["expanded"] >= 400, outcomes
    assert outcomes[plabic.NotSquareEligible] >= 1200 and outcomes[KeyError] >= 200, outcomes


def test_expand_vertex_matches_its_first_version():
    kinds = Counter()
    for G in exchange_walk_graphs(steps=4):
        far_edge = max(G.edges)  # the last edge added, not at every vertex
        for v, order in sorted(G.rot.items()):
            pairs = [(e, order[(i + 1) % len(order)]) for i, e in enumerate(order)]
            pairs += [(b, a) for a, b in pairs] + [(far_edge, order[0])]
            for pair in pairs:
                want = move_outcome(ref_expand_vertex, G, v, pair)
                kinds[want[0].__name__ if isinstance(want, tuple) else "expanded"] += 1
                if isinstance(want, tuple) and want[0] is not plabic.PlabicError:
                    # the first version's ValueError from an edge not at v
                    # is now a PlabicError naming v and the pair
                    want = plabic.PlabicError, f"edges {pair} are not ccw-adjacent at {v}"
                assert move_outcome(plabic.expand_vertex, G, v, pair) == want, (v, pair)
        # a boundary vertex and an id of no vertex: a KeyError before
        for v in (-1, max(G.colors) + 1):
            assert move_outcome(ref_expand_vertex, G, v, (1, 2))[0] is KeyError
            assert move_outcome(plabic.expand_vertex, G, v, (1, 2)) == (
                plabic.PlabicError, f"cannot expand edges (1, 2) at {v}: not an internal vertex")
    assert kinds["expanded"] >= 500 and kinds["PlabicError"] >= 500, kinds
    assert kinds["ValueError"] >= 100, kinds


def test_square_move_builds_and_validates_once(monkeypatch):
    G = relabelled_bridge_graph(4, 8, (4, 4, 4, 4))
    eligible = plabic.square_eligible_labels(G)  # contracts G once, beforehand
    builds, validated, contractions, expansions = [], [], [], []
    for owner, name, log in ((plabic._Edit, "build", builds),
                             (plabic.PlabicGraph, "validate", validated),
                             (plabic._Edit, "contract", contractions),
                             (plabic._Edit, "expand", expansions)):
        def counted(first, *args, _real=getattr(owner, name), _log=log):
            _log.append(first)
            return _real(first, *args)
        monkeypatch.setattr(owner, name, counted)
    for lab in eligible:
        del builds[:], validated[:], contractions[:]
        H = plabic.square_move(G, lab)
        assert len(builds) == 1 and validated == [H], sorted(lab)
        assert len(contractions) == 1 and contractions[0] is builds[0], sorted(lab)
        # H is known to be its own full contraction: nothing contracts it again
        assert plabic.full_contract(H) is H
        plabic.square_eligible_labels(H)
        assert len(contractions) == 1, sorted(lab)
    assert expansions  # one build also when corners of degree > 3 are expanded


# ---------------------------------------------------------------------------
# derived data, computed once per graph
# ---------------------------------------------------------------------------

def test_derived_data_is_kept_on_the_graph():
    G = plabic.bridge_graph(3, 7, (3, 5, 7, 1, 2, 4, 6))
    for derive in (plabic.faces, plabic.trips, plabic.full_contract,
                   lambda H: plabic.face_labeling(H, "source"),
                   lambda H: plabic.face_labeling(H, "target")):
        assert derive(G) is derive(G)


def test_walk_step_finds_faces_once(monkeypatch):
    # exchange-walk steps from an already labelled graph neither number the
    # darts of a moved graph, trace its faces, sweep it nor find its trips:
    # each move hands the graph it builds its darts, faces and labelings,
    # and the second step moves such a graph
    G = plabic.full_contract(relabelled_bridge_graph(3, 7, (4, 3, 2)))
    plabic.face_labeling(G, "target")
    calls = {name: [] for name in ("_number_darts", "_find_faces", "_label_faces", "_find_trips")}
    for name, log in calls.items():
        monkeypatch.setattr(plabic, name, lambda K, _real=getattr(plabic, name), _log=log:
                            _log.append(K) or _real(K))
    for _ in range(2):
        lab = plabic.square_eligible_labels(G)[0]
        seeds.seed_from_graph(G, "target")
        G = plabic.square_move(G, lab)
        plabic.face_labeling(G, "target")
        plabic.face_labeling(G, "source")
    plabic.square_eligible_labels(G)
    seeds.seed_from_graph(G, "target")
    assert calls == {name: [] for name in calls}


def test_square_moves_carry_their_labelings():
    # every move at every eligible face of the graphs of seeded walks, of
    # their mirrors (whose source and target labels swap) and of the graphs
    # with an (M3) insertion, which a move first contracts
    moves = 0
    for G in itertools.chain(square_walk_graphs(seed=12, walks=60, steps=5),
                             exchange_walk_graphs(steps=20)):
        inner = next(e for e, ends in sorted(G.edges.items()) if min(ends) > 0)
        for K in (G, plabic.mirror(G), plabic.insert_degree2_pair(G, inner)):
            for lab in plabic.square_eligible_labels(K):
                assert_carried_labelings(plabic.square_move(K, lab), sorted(lab))
                moves += 1
    assert moves >= 1500, moves


def test_long_walk_keeps_its_dart_arrays_bounded():
    # 1,000 moves on Gr(4,8), each handing its darts on: a freed slot is
    # reused, so the edges hold as many slots as the most edges a graph of
    # the walk had, and the arrays stay within 2(E + n) plus the free slots,
    # while edge ids run far past E
    rng = random.Random(0)
    G = plabic.full_contract(relabelled_bridge_graph(4, 8, (4, 4, 4, 4)))
    most = len(G.edges)
    for _ in range(1000):
        eligible = plabic.square_eligible_labels(G)
        G = plabic.square_move(G, eligible[rng.randrange(len(eligible))])
        most = max(most, len(G.edges))
        darts = G._darts
        assert len(darts.head) == 2 * (len(G.edges) + G.n + len(darts.free))
        assert len(G.edges) + len(darts.free) == most
    assert max(G.edges) > 20 * len(G.edges)
    assert named_darts(G) == named_darts(
        plabic.PlabicGraph(G.boundary_order, G.labels, G.colors, G.edges, G.rot))


def test_carried_darts_follow_other_edits():
    # edits that square moves do not make, carried as a move carries its
    # own: an (M3) pair contracted away again; a pendant edge subdivided at
    # its inner end, which gives its boundary vertex a new pendant dart, or
    # at its boundary end after its ends are listed the other way round, so
    # that it lists them anew; a corner expansion; and the expansion of a
    # trivalent vertex, contracted into the neighbor across its third edge,
    # whose rotation only the contraction changes
    kinds = Counter()
    for G in itertools.islice(exchange_walk_graphs(steps=8), 0, None, 2):
        G = plabic.full_contract(G)
        edits = []
        for eid, (a, b) in sorted(G.edges.items()):
            edits.append(plabic._Edit(G))
            if a > 0 and b > 0:
                y = edits[-1].subdivide(eid, a, plabic._OTHER[G.colors[a]])
                edits[-1].subdivide(edits[-1].rot[y][1], y, G.colors[a])
                kinds["pair"] += edits[-1].contract()
            else:
                v, bd = max(a, b), min(a, b)
                edits[-1].subdivide(eid, v, plabic._OTHER[G.colors[v]])
                swapped = plabic.PlabicGraph(G.boundary_order, G.labels, G.colors,
                                             {**G.edges, eid: (v, bd)}, G.rot)
                edits.append(plabic._Edit(swapped))
                edits[-1].subdivide(eid, bd, plabic._OTHER[G.colors[v]])
                kinds["pendant"] += 1
        for v, order in sorted(G.rot.items()):
            edits.append(plabic._Edit(G))
            if len(order) > 3:
                edits[-1].expand(v, order[:2])
                kinds["expand"] += 1
            elif len(order) == 3 and G.other_end(order[0], v) > 0:
                edits[-1].expand(v, order[1:])
                kinds["expand and contract"] += edits[-1].contract()
        for ed in edits:
            H = ed.build()
            plabic._carry_faces(ed, H)
            assert named_darts(H) == named_darts(
                plabic.PlabicGraph(H.boundary_order, H.labels, H.colors, H.edges, H.rot))
    assert kinds["pair"] >= 200 and kinds["pendant"] >= 80, kinds
    assert kinds["expand"] >= 30 and kinds["expand and contract"] >= 50, kinds


def test_moved_graph_does_not_keep_the_graph_it_moved():
    G = plabic.full_contract(relabelled_bridge_graph(3, 7, (4, 3, 2)))
    H = plabic.square_move(G, plabic.square_eligible_labels(G)[0])
    assert "_labelings" in vars(H)
    moved = weakref.ref(G)
    del G
    gc.collect()
    assert moved() is None


def test_square_move_output_with_a_two_sided_trip_is_swept():
    # a graph that is not reduced (trips 1->3 and 1->4 run in parallel, and
    # edges 7 and 16 both join 1 and 5) labels its faces, but after the
    # square move at its face [] faces lie on both sides of the trip 1->2;
    # the moved graph keeps no labeling, so labelling it raises as the sweep
    # does on any graph
    W, B = plabic.WHITE, plabic.BLACK
    G = plabic.PlabicGraph(
        (-1, -2, -3, -4), {-1: 2, -2: 1, -3: 4, -4: 3},
        {1: W, 2: W, 3: B, 4: B, 5: B, 6: W, 7: W, 8: B, 9: B},
        {1: (-1, 1), 2: (-2, 7), 3: (-3, 8), 4: (-4, 4), 5: (2, 3), 6: (5, 2), 7: (1, 5), 8: (6, 3),
         9: (6, 4), 10: (7, 5), 11: (8, 6), 12: (7, 8), 13: (7, 9), 14: (9, 1), 15: (2, 4), 16: (5, 1)},
        {1: (7, 14, 1, 16), 2: (5, 6, 15), 3: (8, 5), 4: (4, 9, 15), 5: (10, 7, 16, 6), 6: (9, 11, 8),
         7: (12, 2, 13, 10), 8: (3, 12, 11), 9: (13, 14)},
    )
    G.validate()
    assert plabic.square_eligible_labels(G) == (frozenset(),)
    H = plabic.square_move(G, ())
    assert "_labelings" not in vars(H)
    for mode in ("source", "target"):
        with pytest.raises(plabic.AmbiguousSide, match="both sides of the trip 1->2"):
            plabic.face_labeling(H, mode)


@pytest.mark.parametrize("mode", ("source", "target"))
def test_square_move_falls_back_to_the_sweep(monkeypatch, mode):
    # the moved graph keeps no labeling when the moved face's label is not
    # the exchange of the old one: here the old one is falsified, so that the
    # exchange check fails; the sweep then labels the moved graph on first
    # use, as it would a graph built any other way
    G = plabic.full_contract(relabelled_bridge_graph(3, 7, (4, 3, 2)))
    lab = plabic.square_eligible_labels(G)[0]
    carried = plabic.square_move(G, lab)
    assert "_labelings" in vars(carried)
    K = plabic_json.from_json(plabic_json.to_json(G))
    target = plabic.face_labeling(K, "target")
    i = target.index_of(lab)
    labelings = dict(K._labelings)
    labels = list(labelings[mode].labels)
    # the union of the moved face's neighbours: a set no face carries
    labels[i] = frozenset().union(*(labels[target.faces.face_of[d ^ 1]]
                                    for d in target.faces.faces[i].darts))
    labelings[mode] = plabic.FaceLabeling(mode, target.faces, tuple(labels))
    K.__dict__["_labelings"] = labelings
    swept = []
    real = plabic._label_faces
    monkeypatch.setattr(plabic, "_label_faces", lambda H: swept.append(H) or real(H))
    H = plabic.square_move(K, labels[i] if mode == "target" else lab)
    assert "_labelings" not in vars(H)
    for m in ("source", "target"):
        assert plabic.face_labeling(H, m) == plabic.face_labeling(carried, m), m
    assert swept == [H]


def doubled_edge(G, e):
    """G with a second copy of internal edge e beside it (a bigon face)."""
    u, v = G.edges[e]
    e2 = max(G.edges) + 1
    ru, rv = list(G.rot[u]), list(G.rot[v])
    ru.insert(ru.index(e) + 1, e2)
    rv.insert(rv.index(e), e2)
    H = plabic.PlabicGraph(G.boundary_order, G.labels, G.colors, {**G.edges, e2: (u, v)},
                           {**G.rot, u: tuple(ru), v: tuple(rv)})
    H.validate()
    return H


def with_chord(G, rng):
    """G with a new edge across one of its interior faces, joining two of its
    internal corners of opposite colors, or None when no face has two.  The
    result is a valid graph, seldom reduced; a chord between two adjacent
    corners doubles their edge."""
    head, eids = G._darts.head, G._darts.eids
    chords = [(f.darts, i, j) for f in plabic.faces(G).faces
              for i, j in itertools.combinations(range(len(f.darts)), 2)
              if min(head[f.darts[i]], head[f.darts[j]]) > 0
              and G.colors[head[f.darts[i]]] != G.colors[head[f.darts[j]]]]
    if not chords:
        return None
    darts, i, j = rng.choice(chords)
    e = max(G.edges) + 1
    rot = dict(G.rot)
    for k in (i, j):
        # the face's corner at the head of darts[k] runs ccw from the edge
        # of darts[k + 1] to that of darts[k]
        v, after = head[darts[k]], eids[darts[(k + 1) % len(darts)] >> 1]
        order = list(rot[v])
        order.insert(order.index(after) + 1, e)
        rot[v] = tuple(order)
    H = plabic.PlabicGraph(G.boundary_order, G.labels, G.colors,
                           {**G.edges, e: (head[darts[i]], head[darts[j]])}, rot)
    H.validate()
    return H


def chord_fuzz_graphs(seed):
    """The graphs of seeded square-move walks with one to three chords
    added: seldom reduced, mostly with parallel edges, and often with faces
    that share a target label."""
    rng = random.Random(seed)
    for G in square_walk_graphs(seed=seed, walks=30, steps=4):
        for _ in range(rng.randint(1, 3)):
            G = with_chord(G, rng) or G
        yield G


def test_square_eligible_labels_are_accepted_on_graphs_that_are_not_reduced():
    # a label that several faces carry is listed only at the first of them,
    # the face square_move finds; each move's darts and faces are carried
    shared = moves = 0
    for G in chord_fuzz_graphs(seed=7):
        try:
            eligible = plabic.square_eligible_labels(G)
        except plabic.PlabicError:  # faces on both sides of a trip
            continue
        H = plabic.full_contract(G)
        labels = plabic.face_labeling(H, "target").labels
        every = [lab for i, lab in enumerate(labels) if plabic._square_defect(H, i) is None]
        shared += len(every) > len(eligible)
        assert len(set(eligible)) == len(eligible)
        for lab in eligible:
            K = plabic.square_move(G, lab)
            assert named_darts(K) == named_darts(
                plabic.PlabicGraph(K.boundary_order, K.labels, K.colors, K.edges, K.rot))
            moves += 1
    assert shared >= 40 and moves >= 10, (shared, moves)


def face_cycles(G):
    """G's faces as cyclic sequences of the vertices their darts enter, each
    from its least rotation, sorted: the same for two graphs whose
    embeddings differ only in which of two parallel edges is which."""
    head = G._darts.head
    cycles = []
    for f in plabic.faces(G).faces:
        seq = [head[d] for d in f.darts]
        cycles.append(min(tuple(seq[i:] + seq[:i]) for i in range(len(seq))))
    return sorted(cycles)


def test_json_round_trip_keeps_parallel_edges():
    # a bigon, two bigons side by side, and the chord fuzz's parallel edges
    # with other parts of the graph between them
    bigon = doubled_edge(plabic.bridge_graph(2, 4, (3, 4, 1, 2)), 5)
    graphs = [bigon, doubled_edge(bigon, 5), *chord_fuzz_graphs(seed=8)]
    parallel = 0
    for G in graphs:
        H = plabic_json.from_json(plabic_json.to_json(G))
        assert plabic_json.to_json(H) == plabic_json.to_json(G)
        assert face_cycles(H) == face_cycles(G)
        assert plabic.trips(H)[1] == plabic.trips(G)[1]
        parallel += len({tuple(sorted(ends)) for ends in G.edges.values()}) < len(G.edges)
    assert len(plabic.faces(plabic_json.from_json(plabic_json.to_json(bigon)))) == 6
    assert parallel >= 60, parallel


def test_ambiguous_side_is_raised_on_every_call():
    # a bigon on edge 5 of this bridge graph lies on both sides of trip 1->2
    ambiguous = doubled_edge(plabic.bridge_graph(2, 4, (3, 4, 1, 2)), 5)
    for mode in ("source", "target", "target"):
        with pytest.raises(plabic.AmbiguousSide, match="both sides of the trip 1->2"):
            plabic.face_labeling(ambiguous, mode)


# ---------------------------------------------------------------------------
# reference tracer: darts named (eid, end), stepped through the rotations
# ---------------------------------------------------------------------------

def ref_arc(G, p):
    return ("arc", p % G.n)


def ref_dart_tail(G, d):
    eid, end = d
    if isinstance(eid, tuple):  # boundary arc ("arc", p)
        p = eid[1]
        return G.boundary_order[p] if end == 0 else G.boundary_order[(p + 1) % G.n]
    return G.edges[eid][end]


def ref_dart_head(G, d):
    eid, end = d
    return ref_dart_tail(G, (eid, 1 - end))


def ref_rotation_at(G, v):
    """The rotation at v; a boundary vertex's is (arc to the next position,
    arc to the previous one, pendant edge)."""
    if not G.is_boundary(v):
        return G.rot[v]
    p = G.boundary_order.index(v)
    return (ref_arc(G, p), ref_arc(G, p - 1), ref_pendant_edge(G, v))


def ref_pendant_edge(G, bd):
    """The one edge at boundary vertex bd, by a scan of every edge."""
    (eid,) = [e for e, ends in sorted(G.edges.items()) if bd in ends]
    return eid


def ref_dart_from(G, v, eid):
    if isinstance(eid, tuple):
        return (eid, 0 if G.boundary_order[eid[1]] == v else 1)
    a, b = G.edges[eid]
    if v == a:
        return (eid, 0)
    if v == b:
        return (eid, 1)
    raise plabic.PlabicError(f"vertex {v} not on edge {eid}")


def ref_face_next(G, d):
    """Next dart of the face on the left of d."""
    v = ref_dart_head(G, d)
    order = ref_rotation_at(G, v)
    i = order.index(d[0])
    return ref_dart_from(G, v, order[(i - 1) % len(order)])


def ref_trip_next(G, d):
    """Rules of the road: successor at black, predecessor at white."""
    v = ref_dart_head(G, d)
    if G.is_boundary(v):
        raise plabic.PlabicError("trip step at a boundary vertex")
    order = G.rot[v]
    i = order.index(d[0])
    step = 1 if G.colors[v] == plabic.BLACK else -1
    return ref_dart_from(G, v, order[(i + step) % len(order)])


def ref_all_darts(G, include_arcs=True):
    for eid in sorted(G.edges):
        yield (eid, 0)
        yield (eid, 1)
    if include_arcs:
        for p in range(G.n):
            yield (ref_arc(G, p), 0)
            yield (ref_arc(G, p), 1)


def ref_dart_key(d):
    eid, end = d
    if isinstance(eid, tuple):
        return (1, eid[1], end)
    return (0, eid, end)


class RefFaces(NamedTuple):
    faces: tuple
    face_of: dict


def reference_faces(G):
    """The face orbits of ``ref_face_next``, each from its smallest dart in
    ``ref_dart_key`` order, with the outer face dropped."""
    if G.n == 1:
        if len(G.colors) != 1 or len(G.edges) != 1:
            raise plabic.PlabicError(
                f"Euler check failed: V={len(G.colors) + 1} E={len(G.edges)}, but on one "
                "boundary vertex only the lollipop has one face")
        all_d = tuple(ref_all_darts(G, include_arcs=False))
        return RefFaces((plabic.Face(all_d, True),), {d: 0 for d in all_d})
    seen, orbits = set(), []
    for d0 in sorted(ref_all_darts(G), key=ref_dart_key):
        if d0 in seen:
            continue
        orbit = [d0]
        seen.add(d0)
        d = ref_face_next(G, d0)
        while d != d0:
            if d in seen:
                raise plabic.PlabicError("face tracing revisited a dart; rotation system inconsistent")
            orbit.append(d)
            seen.add(d)
            d = ref_face_next(G, d)
        orbits.append(tuple(orbit))
    V, E = len(G.colors) + G.n, len(G.edges) + G.n
    if V - E + len(orbits) != 2:
        raise plabic.PlabicError(
            f"Euler check failed: V={V} E={E} F={len(orbits)} (disconnected embedding data?)")
    interior = tuple(plabic.Face(o, any(isinstance(d[0], tuple) for d in o))
                     for o in orbits if (ref_arc(G, 0), 0) not in o)
    return RefFaces(interior, {d: i for i, f in enumerate(interior) for d in f.darts})


def reference_leaf_color(G, walk):
    for d in walk:
        v = ref_dart_head(G, d)
        if not G.is_boundary(v) and len(G.rot[v]) == 1:
            return G.colors[v]
    return plabic.BLACK


def reference_trips(G):
    """(start, end, darts) per boundary vertex, and the decorated trip
    permutation."""
    out, images, white = [], {}, set()
    for bd in G.boundary_order:
        d = ref_dart_from(G, bd, ref_pendant_edge(G, bd))
        walk = [d]
        while not G.is_boundary(ref_dart_head(G, d)):
            d = ref_trip_next(G, d)
            walk.append(d)
            if len(walk) > 2 * len(G.edges) + 2:
                raise plabic.PlabicError("trip failed to terminate; malformed rotation system")
        i, j = G.labels[bd], G.labels[ref_dart_head(G, d)]
        out.append((i, j, tuple(walk)))
        images[i] = j
        if i == j and reference_leaf_color(G, walk) == plabic.WHITE:
            white.add(i)
    pi = tuple(images[i] for i in range(1, G.n + 1))
    return tuple(out), perm.DecoratedPermutation(pi, frozenset(white))


def reference_reducedness(G):
    """The reducedness witnesses on the reference trips: round trips, trips
    using an edge twice, pairs of trips sharing two edges in one order."""
    all_trips = reference_trips(G)[0]
    seen = {d for _, _, walk in all_trips for d in walk}
    round_trips = 0
    for d0 in ref_all_darts(G, include_arcs=False):
        if d0 in seen:
            continue
        d = d0
        while True:
            seen.add(d)
            d = ref_trip_next(G, d)
            if d == d0:
                break
        round_trips += 1
    selfint = tuple(start for start, end, walk in all_trips
                    if start != end and len({d[0] for d in walk}) < len(walk))
    parallel = set()
    for i, (start1, _, walk1) in enumerate(all_trips):
        order1 = {d[0]: p for p, d in enumerate(walk1)}
        for start2, _, walk2 in all_trips[i + 1:]:
            shared = [d[0] for d in walk2 if d[0] in order1]
            if any(order1[a] < order1[b] for a, b in itertools.combinations(shared, 2)):
                parallel.add((start1, start2))
    return plabic.ReducednessReport(round_trips, selfint, tuple(sorted(parallel)),
                                    plabic.parallel_edge_reduction_applicable(G) is not None)


def outcome(call):
    """The value of call(), or the error it raises."""
    try:
        return call()
    except plabic.PlabicError as exc:
        return (type(exc).__name__, str(exc))


def assert_tracer_matches_reference(G, where=""):
    """Faces (dart order within each face, ``face_of``), trips, the trip
    permutation, both labelings and the reducedness witnesses equal the
    reference tracer's, or both raise the same error."""
    def plabic_faces():
        fc = plabic.faces(G)
        named = tuple(plabic.Face(tuple(dart_name(G, d) for d in f.darts), f.boundary)
                      for f in fc.faces)
        return named, {dart_name(G, d): i for d, i in enumerate(fc.face_of) if i >= 0}

    def plabic_trips():
        got, sigma = plabic.trips(G)
        return tuple((t.start, t.end, tuple(dart_name(G, d) for d in t.darts)) for t in got), sigma

    assert outcome(plabic_faces) == outcome(lambda: reference_faces(G)), where
    assert outcome(plabic_trips) == outcome(lambda: reference_trips(G)), where
    assert (outcome(lambda: plabic.reducedness_witness_checks(G))
            == outcome(lambda: reference_reducedness(G))), where
    for mode in ("source", "target"):
        assert (labeling_outcome(sweep_labels, G, mode)
                == labeling_outcome(reference_face_labeling, G, mode)), where


def test_tracer_matches_reference_on_bridge_graphs():
    graphs = 0
    for n in range(1, 7):
        for k in range(n + 1):
            for image in itertools.combinations(range(1, n + 1), k):
                x = perm.grassmannian_from_image(image, k, n)
                G = plabic.bridge_graph(k, n, x)
                assert_tracer_matches_reference(G, (k, n, x))
                # darts are numbered in edge-id order, whatever the dict order
                shuffled = plabic.PlabicGraph(G.boundary_order, G.labels, G.colors,
                                              dict(reversed(G.edges.items())), G.rot)
                assert_tracer_matches_reference(shuffled, (k, n, x, "edges reversed"))
                graphs += 1
    assert graphs == 126


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k, n, lam", ((3, 7, (4, 3, 2)), (4, 8, (4, 4, 4, 4))))
def test_tracer_matches_reference_on_square_move_walks(k, n, lam, seed):
    rng = random.Random(seed)
    G = relabelled_bridge_graph(k, n, lam)
    for step in range(12):
        for H in (G, plabic.full_contract(G), plabic.mirror(G)):
            assert_tracer_matches_reference(H, f"seed={seed} step={step}")
        eligible = plabic.square_eligible_labels(G)
        G = plabic.square_move(G, eligible[rng.randrange(len(eligible))])


def malformed_rotation_fixtures():
    """Graphs whose rotations are wrong in the ways the tests below build."""
    G = golden_gr25_graph()
    yield "swapped rotation", plabic.PlabicGraph(
        G.boundary_order, G.labels, G.colors, G.edges, {**G.rot, 3: (8, 7, 12, 3)})
    yield "ambiguous bigon", doubled_edge(plabic.bridge_graph(2, 4, (3, 4, 1, 2)), 5)
    lollipop = plabic.lollipop_graph(0, 1)
    yield "n=1 plus a 4-cycle", plabic.PlabicGraph(
        lollipop.boundary_order, lollipop.labels,
        {**lollipop.colors, 2: "w", 3: "b", 4: "w", 5: "b"},
        {**lollipop.edges, 2: (2, 3), 3: (3, 4), 4: (4, 5), 5: (5, 2)},
        {**lollipop.rot, 2: (5, 2), 3: (2, 3), 4: (3, 4), 5: (4, 5)})
    for x in ((3, 4, 1, 2), (3, 5, 1, 2, 4)):
        B = plabic.bridge_graph(2, len(x), x)
        for v in (v for v, r in B.rot.items() if len(r) >= 3):
            yield f"reversed at {v} plus a digon", with_separate_digon(B, (v,))
            order = B.rot[v]
            yield f"rotation at {v} swapped", plabic.PlabicGraph(
                B.boundary_order, B.labels, B.colors, B.edges,
                {**B.rot, v: (order[1], order[0]) + order[2:]})
            yield f"edge listed twice at {v}", plabic.PlabicGraph(
                B.boundary_order, B.labels, B.colors, B.edges,
                {**B.rot, v: order[:1] + order[2:] + order[:2]})


def test_tracer_matches_reference_on_malformed_rotations():
    messages = []
    for name, G in malformed_rotation_fixtures():
        assert_tracer_matches_reference(G, name)
        for call in (lambda: plabic.faces(G), lambda: plabic.face_labeling(G, "target")):
            got = outcome(call)
            if isinstance(got, tuple):  # an error and its message
                messages.append(got[1])
    seen = " | ".join(messages)
    for kind in ("revisited a dart", "Euler check failed: V=11", "only the lollipop",
                 "both sides of the trip", "left faces unassigned"):
        assert kind in seen, kind


def test_rotation_missing_an_edge_is_a_plabic_error():
    # the reference tracer fails here with a bare ValueError from tuple.index
    G = plabic.bridge_graph(2, 4, (3, 4, 1, 2))
    v = next(v for v, r in G.rot.items() if len(r) >= 3)
    bad = plabic.PlabicGraph(G.boundary_order, G.labels, G.colors, G.edges,
                             {**G.rot, v: G.rot[v][1:]})
    for derive in (plabic.faces, plabic.trips):
        with pytest.raises(plabic.PlabicError, match="the rotations do not list every dart"):
            derive(bad)


def test_graph_without_boundary_has_no_outer_face():
    # Euler's formula holds for a digon on the sphere, but with no boundary
    # vertex no face is the outer one
    digon = {"n": 0, "boundary_labels": [], "vertices": [{"id": 1, "color": "w"}, {"id": 2, "color": "b"}],
             "edges": [[1, 2], [1, 2]], "rotations": {"1": [2, 2], "2": [1, 1]}}
    with pytest.raises(plabic.PlabicError, match="without boundary vertices has no outer face"):
        plabic_json.from_json(digon)


# ---------------------------------------------------------------------------
# references: one flood fill per trip, one build per contracted vertex
# ---------------------------------------------------------------------------

def reference_trip_sides(G, fc, trip):
    """Left ("L") or right ("R") of the trip for every interior face: the
    faces along its darts first, then a flood fill across the edges it does
    not use."""
    start, end, darts = trip
    side = {}

    def put(f, s):
        if side.get(f, s) != s:
            raise plabic.AmbiguousSide(
                f"face {f} lies on both sides of the trip {start}->{end}")
        side[f] = s

    for eid, end_ in darts:
        put(fc.face_of[(eid, end_)], "L")
        put(fc.face_of[(eid, 1 - end_)], "R")
    trip_edges = {d[0] for d in darts}
    adj = {f: set() for f in range(len(fc.faces))}
    for eid in G.edges:
        f0, f1 = fc.face_of[(eid, 0)], fc.face_of[(eid, 1)]
        if eid not in trip_edges and f0 != f1:
            adj[f0].add(f1)
            adj[f1].add(f0)
    queue = list(side)
    while queue:
        f = queue.pop()
        for g in adj[f]:
            if g not in side:
                side[g] = side[f]
                queue.append(g)
            elif side[g] != side[f]:
                raise plabic.AmbiguousSide(
                    f"contradictory side assignment near trip {start}->{end}")
    if len(side) != len(fc.faces):
        raise plabic.PlabicError("flood fill left faces unassigned")
    return side


def reference_face_labeling(G, mode):
    """Labels from one flood fill per trip of the reference tracer: a trip
    marks the faces on its left, a white lollipop every face."""
    fc = reference_faces(G)
    labels = [set() for _ in fc.faces]
    all_trips, sigma = reference_trips(G)
    for trip in all_trips:
        start, end, _ = trip
        if start == end:
            if start in sigma.white_fixed:
                for lab in labels:
                    lab.add(start)
            continue
        for f, s in reference_trip_sides(G, fc, trip).items():
            if s == "L":
                labels[f].add(start if mode == "source" else end)
    return tuple(frozenset(lab) for lab in labels)


def reference_contract_vertex(G, x):
    """(M2) on a copy: delete x and merge its far neighbor into its near one."""
    e1, e2 = G.rot[x]
    u, v = G.other_end(e1, x), G.other_end(e2, x)
    ed = plabic._Edit(G)
    del ed.colors[x], ed.rot[x], ed.edges[e1], ed.edges[e2], ed.colors[v]
    rv = ed.rot.pop(v)
    i = rv.index(e2)
    spliced = rv[i + 1:] + rv[:i]
    for e in spliced:
        ed.reattach(e, v, u)
    ru = ed.rot[u]
    j = ru.index(e1)
    ed.rot[u] = ru[:j] + spliced + ru[j + 1:]
    return ed.build()


def reference_full_contract(G):
    """Contract the smallest eligible degree-2 vertex, build, and repeat."""
    while True:
        candidates = sorted(
            x for x, r in G.rot.items()
            if len(r) == 2
            and not any(G.is_boundary(G.other_end(e, x)) for e in r)
            and G.other_end(r[0], x) != G.other_end(r[1], x)
        )
        if not candidates:
            return G
        G = reference_contract_vertex(G, candidates[0])


def reference_corpus():
    """Graphs of seeded square-move walks with (M3) insertions, their
    mirrors, and each of those with one internal edge doubled (most of those
    are not reduced, and many have an ambiguous trip)."""
    for G in square_walk_graphs(seed=11, walks=30, steps=5):
        for H in (G, plabic.mirror(G)):
            yield H
            for e, (a, b) in sorted(H.edges.items()):
                if a > 0 and b > 0:
                    yield doubled_edge(H, e)


def with_separate_digon(G, flipped):
    """G with the rotations at the vertices in ``flipped`` reversed, plus a
    digon joined to nothing.  Euler's check passes when the flips give G's
    part genus one, and then the digon's faces lie on no side of any trip."""
    v, e = max(G.colors) + 1, max(G.edges) + 1
    H = plabic.PlabicGraph(
        G.boundary_order, G.labels, {**G.colors, v: plabic.WHITE, v + 1: plabic.BLACK},
        {**G.edges, e: (v, v + 1), e + 1: (v, v + 1)},
        {**{w: tuple(reversed(r)) if w in flipped else r for w, r in G.rot.items()},
         v: (e, e + 1), v + 1: (e + 1, e)})
    H.validate()
    return H


def labeling_outcome(label, G, mode):
    """The labels, or the error with the trip it names."""
    try:
        return label(G, mode)
    except plabic.AmbiguousSide as exc:
        return ("AmbiguousSide", re.search(r"trip (\d+->\d+)", str(exc)).group(1))
    except plabic.PlabicError as exc:
        return ("PlabicError", str(exc))


def sweep_labels(G, mode):
    return plabic.face_labeling(G, mode).labels


def test_face_labeling_matches_per_trip_flood_fill():
    outcomes = Counter()
    for G in reference_corpus():
        for mode in ("source", "target"):
            got = labeling_outcome(sweep_labels, G, mode)
            assert got == labeling_outcome(reference_face_labeling, G, mode), plabic_json.to_json(G)
            outcomes[got[0] if isinstance(got[0], str) else "labels"] += 1
    assert outcomes["labels"] >= 2000 and outcomes["AmbiguousSide"] >= 400, outcomes


def test_face_labeling_matches_reference_on_detached_parts():
    outcomes = Counter()
    for k, n, x in ((2, 4, (3, 4, 1, 2)), (2, 5, (3, 5, 1, 2, 4)), (3, 6, (2, 4, 6, 1, 3, 5))):
        G = plabic.bridge_graph(k, n, x)
        trivalent = [v for v, r in G.rot.items() if len(r) >= 3]
        for flipped in itertools.chain.from_iterable(
                itertools.combinations(trivalent, r) for r in (1, 2)):
            H = with_separate_digon(G, flipped)
            try:
                plabic.faces(H)
            except plabic.PlabicError:
                continue  # not genus one: Euler's check fails first
            got = labeling_outcome(sweep_labels, H, "target")
            assert got == labeling_outcome(reference_face_labeling, H, "target"), (x, flipped)
            outcomes[got[0] if isinstance(got[0], str) else "labels"] += 1
    assert outcomes["PlabicError"] == 5 and outcomes["AmbiguousSide"] >= 10, outcomes


def test_full_contract_matches_one_build_per_vertex():
    contracted = 0
    for G in reference_corpus():
        H, R = plabic.full_contract(G), reference_full_contract(G)
        assert (H is G) == (R is G)
        assert (H.colors, H.edges, H.rot) == (R.colors, R.edges, R.rot)
        contracted += H is not G
    assert contracted >= 400


def test_full_contract_builds_one_graph(monkeypatch):
    G = plabic.bridge_graph(3, 7, (3, 5, 7, 1, 2, 4, 6))
    for e in (1, 5, 9):
        G = plabic.insert_degree2_pair(G, e)
    builds = []
    real = plabic._Edit.build
    monkeypatch.setattr(plabic._Edit, "build", lambda ed: builds.append(ed) or real(ed))
    H = plabic.full_contract(G)
    assert len(G.colors) - len(H.colors) >= 8  # at least four vertices contracted
    assert len(builds) == 1


def test_contracted_graph_is_its_own_contraction():
    G = plabic.bridge_graph(3, 7, (3, 5, 7, 1, 2, 4, 6))
    H = plabic.full_contract(G)
    assert H is not G and plabic.full_contract(G) is H
    assert plabic.full_contract(H) is H
    plabic.face_labeling(H, "target")
    assert all(value is not H for value in vars(H).values())


# ---------------------------------------------------------------------------
# bridges
# ---------------------------------------------------------------------------

def test_add_bridge_validity_errors():
    G = plabic.lollipop_graph(2, 5)
    with pytest.raises(plabic.InvalidBridge):
        plabic.add_bridge(G, 3, 4)  # lift not decreasing (both black lollipops)
    with pytest.raises(plabic.InvalidBridge):
        plabic.add_bridge(G, 1, 2)  # white-white


def test_add_bridge_composes_transposition():
    rng = random.Random(0)
    for _ in range(40):
        n = rng.randint(3, 8)
        k, v, x = random_skew_pair(n, rng)
        word = perm.columnar_expression(x, k)
        G = plabic.lollipop_graph(k, n)
        # boundary labels are the positions here, so trips are on positions
        assert G.boundary_labels == tuple(range(1, n + 1))
        lifted = perm.bounded_affine(plabic.trips(G)[1])
        for i in word:
            G = plabic.add_bridge(G, i, i + 1)
            sigma = plabic.trips(G)[1]
            new = perm.bounded_affine(sigma)
            expect = tuple(
                lifted.window[i] if p == i - 1 else
                lifted.window[i - 1] if p == i else lifted.window[p]
                for p in range(n)
            )
            assert new.window == expect
            lifted = new


def test_add_bridge_reads_positions_not_labels():
    # bridging a relabelled graph gives the relabelled bridged graph, and a
    # bridge is valid or not by boundary position whatever the labels
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(3, 7)
        k, v, x = random_skew_pair(n, rng)
        u = tuple(rng.sample(range(1, n + 1), n))
        G = plabic.lollipop_graph(k, n)
        for i in perm.columnar_expression(x, k):
            for a, b in itertools.combinations(range(1, n + 1), 2):
                try:
                    want = plabic.relabel_boundary(plabic.add_bridge(G, a, b), u)
                except plabic.InvalidBridge:
                    with pytest.raises(plabic.InvalidBridge):
                        plabic.add_bridge(plabic.relabel_boundary(G, u), a, b)
                else:
                    assert plabic.add_bridge(plabic.relabel_boundary(G, u), a, b) == want
            G = plabic.add_bridge(G, i, i + 1)


def test_bridge_graph_numbers_darts_once_per_bridge(monkeypatch):
    # add_bridge reads the trips and pendant edges of the graph it is given,
    # so a bridge numbers the darts of that one graph and of no relabelled copy
    built = []
    number = plabic._number_darts
    monkeypatch.setattr(plabic, "_number_darts", lambda G: built.append(G) or number(G))
    x = perm.grassmannian_from_image(range(13, 25), 12, 24)
    plabic.bridge_graph(12, 24, x)
    assert len(perm.columnar_expression(x, 12)) == 144
    assert len(built) == len(set(map(id, built))) == 144


def test_bridge_graphs_pass_reducedness_checks():
    rng = random.Random(1)
    for _ in range(25):
        n = rng.randint(3, 8)
        k, v, x = random_skew_pair(n, rng)
        G = plabic.bridge_graph(k, n, x)
        assert plabic.reducedness_witness_checks(G).passed


def test_goldens_pass_reducedness_checks(gr25_graph, gr37_graph):
    assert plabic.reducedness_witness_checks(gr25_graph).passed
    assert plabic.reducedness_witness_checks(gr37_graph).passed


def test_parallel_edge_reduction_detection():
    W, B = plabic.WHITE, plabic.BLACK
    # hand-built doubled edge between a trivalent black/white pair
    boundary = (-1, -2)
    labels = {-1: 1, -2: 2}
    colors = {1: W, 2: B}
    edges = {1: (-1, 1), 2: (-2, 2), 3: (1, 2), 4: (1, 2)}
    rot = {1: (1, 3, 4), 2: (2, 4, 3)}
    G = plabic.PlabicGraph(boundary, labels, colors, edges, rot)
    G.validate()
    assert plabic.parallel_edge_reduction_applicable(G) == (1, 2)
    assert not plabic.reducedness_witness_checks(G).passed
    assert plabic.parallel_edge_reduction_applicable(plabic.lollipop_graph(1, 3)) is None


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_validate_messages_in_check_order(gr25_graph):
    G = gr25_graph
    e = min(G.edges)
    a = G.edges[e][0]

    def broken(**changes):
        H = plabic.PlabicGraph(**{"boundary_order": G.boundary_order, "labels": G.labels,
                                  "colors": G.colors, "edges": G.edges, "rot": G.rot, **changes})
        with pytest.raises(plabic.PlabicError) as info:
            H.validate()
        return str(info.value)

    assert broken(labels={**G.labels, G.boundary_order[0]: 99}).startswith("boundary labels")
    assert broken(edges={**G.edges, e: (a, a)}) == f"loop edge {e}"
    # an extra edge to boundary vertex -1 fails its rotation check first
    internal = next(v for v in G.colors if G.colors[v] == plabic.WHITE and len(G.rot[v]) > 1)
    extra = max(G.edges) + 1
    assert broken(edges={**G.edges, extra: (internal, G.boundary_order[0])}) == (
        f"rotation at {internal} does not list its incident edges")
    assert broken(edges={**G.edges, extra: (internal, G.boundary_order[0])},
                  rot={**G.rot, internal: G.rot[internal] + (extra,)}) == (
        f"boundary vertex {G.boundary_order[0]} must have degree exactly 1")


def test_pendant_edge_matches_edge_scan():
    # the pendant edge, read off the dart numbering, is the one edge a scan
    # of every edge finds at the boundary vertex
    for G in square_walk_graphs(seed=8, walks=20, steps=4):
        for bd in G.boundary_order:
            scan = tuple(e for e, (a, b) in sorted(G.edges.items()) if bd in (a, b))
            assert scan == (G.pendant_edge(bd),)


def test_pendant_edge_needs_degree_one():
    G = plabic.lollipop_graph(1, 2)
    # edge 2 moved from boundary vertex -2 to -1: degrees 2 and 0; the error
    # names the first such vertex in boundary order
    edges = {2: (2, -1), 1: (-1, 1)}
    for order, bd, degree in (((-1, -2), -1, 2), ((-2, -1), -2, 0)):
        bad = plabic.PlabicGraph(order, G.labels, G.colors, edges, G.rot)
        for call in (lambda: bad.pendant_edge(-1), lambda: bad.pendant_edge(-2),
                     lambda: plabic.trips(bad), lambda: plabic.faces(bad)):
            with pytest.raises(plabic.PlabicError,
                               match=f"boundary vertex {bd} has degree {degree}"):
                call()


def test_json_roundtrip(gr25_graph, gr37_graph):
    for G in (gr25_graph, gr37_graph, plabic.bridge_graph(2, 5, (3, 5, 1, 2, 4))):
        H = plabic_json.from_json(plabic_json.to_json(G))
        _, s1 = plabic.trips(G)
        _, s2 = plabic.trips(H)
        assert s1 == s2
        assert set(plabic.face_labeling(H, "target").labels) == set(
            plabic.face_labeling(G, "target").labels
        )

