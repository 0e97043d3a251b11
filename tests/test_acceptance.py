"""Acceptance suite: one test per criterion, each printing a pass line and
enforcing its stated bounds."""

import random
import time
from collections import Counter
from itertools import combinations

from positroids import lediag, perm, plabic, pluecker, ppalg, seeds, shapes
from conftest import (assert_carried_labelings, dart_name, golden_gr25_graph, golden_gr37_graph,
                      play_le_moves, random_skew_pair, skew_pairs)


def announce(num, elapsed=None):
    suffix = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"criterion {num}: PASS{suffix}")


def nm(label):
    return "".join(str(i) for i in sorted(label))


# -- 1 -----------------------------------------------------------------------

def test_criterion_01_gr25_golden():
    t0 = time.time()
    G = golden_gr25_graph()
    _, sigma = plabic.trips(G)
    assert sigma.perm == (3, 4, 5, 1, 2)
    lab = plabic.face_labeling(G, "source")
    assert sorted(map(nm, lab.labels)) == sorted(["15", "25", "24", "12", "23", "34", "45"])
    internals = sorted(
        nm(lab.labels[i]) for i, f in enumerate(lab.faces.faces) if not f.boundary
    )
    assert internals == ["24", "25"]
    face_of = {dart_name(G, d): i for d, i in enumerate(lab.faces.face_of)}
    # 25 sits in the central square (left of the dart 2->1 along its top edge),
    # 24 in the lower quadrilateral (left of the dart 3->4 along the bottom)
    assert nm(lab.labels[face_of[(6, 1)]]) == "25"
    assert nm(lab.labels[face_of[(8, 0)]]) == "24"
    # boundary placement: face across arc (p, p+1) carries the drawn label
    placed = {}
    for p in range(G.n):
        idx = face_of[(("arc", p), 1)]
        placed[(p + 1, (p % G.n) + 2 if p + 2 <= G.n else 1)] = nm(lab.labels[idx])
    assert placed == {(1, 2): "15", (2, 3): "12", (3, 4): "23", (4, 5): "34", (5, 1): "45"}
    S = seeds.seed_from_graph(G, "source")
    arrows = sorted((nm(s), nm(t)) for s, t in S.quiver.arrows)
    assert arrows == sorted(
        [("25", "15"), ("25", "24"), ("45", "25"), ("12", "25"),
         ("24", "45"), ("24", "23"), ("34", "24")]
    )
    elapsed = time.time() - t0
    assert elapsed < 1.0
    announce(1, elapsed)


# -- 2 -----------------------------------------------------------------------

def test_criterion_02_gr37_golden():
    t0 = time.time()
    G = golden_gr37_graph()
    _, sigma = plabic.trips(G)
    assert sigma.perm == (2, 4, 6, 7, 1, 3, 5)
    lab = plabic.face_labeling(G, "target")
    assert sorted(map(nm, lab.labels)) == sorted(
        ["235", "135", "356", "357", "345", "456", "567", "167", "137", "157"]
    )
    elapsed = time.time() - t0
    assert elapsed < 1.0
    announce(2, elapsed)


# -- 3 -----------------------------------------------------------------------

def test_criterion_03_bridge_example():
    t0 = time.time()
    k, n, x = 2, 5, (3, 5, 1, 2, 4)
    G = plabic.lollipop_graph(k, n)
    counts = []
    for i in perm.columnar_expression(x, k):
        G = plabic.add_bridge(G, i, i + 1)
        counts.append(len(plabic.faces(G)))
    assert counts[:2] == [2, 3]
    assert counts[-1] == 6
    lab = plabic.face_labeling(G, "target")
    lam = shapes.from_vert_ne(x[:k], k, n)
    expected = {shapes.rect_vert_ne(r, c, k, n) for (r, c) in shapes.boxes(lam)}
    expected.add(frozenset({1, 2}))
    assert set(lab.labels) == expected
    elapsed = time.time() - t0
    assert elapsed < 1.0
    announce(3, elapsed)


# -- 4 -----------------------------------------------------------------------

def test_criterion_04_rectangles_seed_golden():
    # the drawn seed, with the (2, 3) label given by its provable value 356
    # (cross-validated against the generalized-minor projections and weak
    # separation; see the decisions ledger)
    S = seeds.rectangles_seed(3, 7, perm.parabolic_longest(3, 7), (3, 5, 7, 1, 2, 4, 6))
    labels = {b: nm(l.columns) for b, l in S.labels.items()}
    assert labels == {
        (1, 1): "237", (1, 2): "236", (1, 3): "235", (1, 4): "234",
        (2, 1): "137", (2, 2): "367", (2, 3): "356",
        (3, 1): "127", (3, 2): "167",
    }
    assert {b for b, f in S.quiver.frozen.items() if f} == {
        (1, 3), (1, 4), (2, 2), (2, 3), (3, 1), (3, 2)
    }
    assert sorted(S.quiver.arrows) == sorted(
        [
            ((1, 2), (1, 1)), ((1, 3), (1, 2)), ((2, 2), (2, 1)),
            ((2, 1), (1, 1)), ((2, 2), (1, 2)), ((3, 1), (2, 1)),
            ((1, 1), (2, 2)), ((1, 2), (2, 3)), ((2, 1), (3, 2)),
        ]
    )
    announce(4)


# -- 5 -----------------------------------------------------------------------

def same_seed_failures(k, n, v, x):
    """How many of the four bridge-graph variants miss the rectangles seed:
    the unmirrored ones must give it exactly, the mirrored ones with every
    arrow reversed."""
    S_rect = seeds.rectangles_seed(k, n, v, x)
    reversed_quiver = seeds.Quiver(S_rect.quiver.frozen,
                                   tuple((t, s) for s, t in S_rect.quiver.arrows))
    S_reversed = seeds.LabeledSeed(reversed_quiver, S_rect.labels)
    B = plabic.bridge_graph(k, n, x)
    vi = perm.inverse(v)
    wi = perm.inverse(perm.multiply(x, v))
    cell = frozenset(vi[:k])
    variants = [
        (plabic.relabel_boundary(B, vi), "target", S_rect),
        (plabic.mirror(plabic.relabel_boundary(B, vi)), "source", S_reversed),
        (plabic.relabel_boundary(B, wi), "source", S_rect),
        (plabic.mirror(plabic.relabel_boundary(B, wi)), "target", S_reversed),
    ]
    return sum(
        not seeds.seeds_equal(seeds.seed_from_graph(G, mode, delete_label=cell), want)
        for G, mode, want in variants
    )


def test_criterion_05_same_seed_suite():
    t0 = time.time()
    # every pair with n <= 7, then seeded random pairs that reach n = 8
    failures = sum(same_seed_failures(k, n, v, x) for n in range(2, 8) for k, v, x in skew_pairs(n))
    rng = random.Random(2024)
    for trial in range(200):
        n = rng.randint(2, 8) if trial % 4 else 8
        want = 0 if trial % 5 else min(4, (n * n) // 4)
        k, v, x = random_skew_pair(n, rng, min_boxes=want)
        failures += same_seed_failures(k, n, v, x)
    assert failures == 0
    elapsed = time.time() - t0
    assert elapsed < 60.0
    announce(5, elapsed)


# -- 6 -----------------------------------------------------------------------

def test_criterion_06_exchange_verification():
    t0 = time.time()
    k, n = 3, 7
    lam = (4, 3, 2)
    v, x = perm.skew_pair(k, n, lam, lam)
    assert perm.multiply(x, v) == perm.longest_element(n)
    rng = random.Random(777)
    vi = perm.inverse(v)
    cell = frozenset(vi[:k])
    necklace = perm.grassmann_necklace(
        perm.positroid_decoration(v, perm.longest_element(n), k)
    )
    samples = [
        pluecker.sample_schubert_cell(k, n, cell, rng, require_nonzero=necklace).matrix
        for _ in range(20)
    ]
    G0 = plabic.relabel_boundary(plabic.bridge_graph(k, n, x), vi)
    failures = 0
    for _ in range(20):
        G = G0
        for _ in range(rng.randint(1, 8)):
            eligible = plabic.square_eligible_labels(G)
            if not eligible:
                break
            lab = eligible[rng.randrange(len(eligible))]
            S = seeds.seed_from_graph(G, "target")
            mutated = seeds.mutate_seed(S, lab)
            H = plabic.square_move(G, lab)
            assert_carried_labelings(H, sorted(lab))
            new_label = next(
                iter(set(plabic.face_labeling(H, "target").labels) - set(S.labels))
            )
            expr = mutated.labels[lab]
            # exchange identity, exactly, at every sample point
            for M in samples:
                cache = {}
                lhs = expr.evaluate(M, cache) * S.labels[lab].evaluate(M, cache)
                out_prod = in_prod = 1
                for r in S.quiver.arrows_from(lab):
                    out_prod *= S.labels[r].evaluate(M, cache)
                for s in S.quiver.arrows_into(lab):
                    in_prod *= S.labels[s].evaluate(M, cache)
                if lhs != out_prod + in_prod:
                    failures += 1
            # square-move label is the matching Pluecker symbol
            if not seeds.expressions_agree(expr, seeds.PluckerSymbol(new_label), samples):
                failures += 1
            G = H
    assert failures == 0
    elapsed = time.time() - t0
    assert elapsed < 120.0
    announce(6, elapsed)


# -- 7 -----------------------------------------------------------------------

def quadruple_of_square_face(G, labeling, idx):
    face = labeling.faces.faces[idx]
    R = None
    neighbors = []
    for d in face.darts:
        nb = labeling.faces.face_of[d ^ 1]
        neighbors.append(labeling.labels[nb])
    R = frozenset.intersection(*neighbors)
    elems = []
    for i in range(4):
        inter = (neighbors[i] & neighbors[(i + 1) % 4]) - R
        if len(inter) != 1:
            return None
        elems.append(next(iter(inter)))
    return elems


def test_criterion_07_weak_separation_suite():
    t0 = time.time()
    rng = random.Random(99)
    failures = 0
    moves_applied = 0
    for trial in range(100):
        n = rng.randint(5, 8)
        # bias toward shapes with interior squares so moves actually fire
        k, v, x = random_skew_pair(n, rng, min_boxes=4 if trial % 3 else 0)
        G = plabic.relabel_boundary(plabic.bridge_graph(k, n, x), perm.inverse(v))
        for _ in range(1 + rng.randint(0, 5)):
            labeling = plabic.face_labeling(G, "target")
            labels = labeling.labels
            for I, J in combinations(labels, 2):
                if not pluecker.weakly_separated(I, J):
                    failures += 1
            eligible = plabic.square_eligible_labels(G)
            H = plabic.full_contract(G)
            labH = plabic.face_labeling(H, "target")
            for lab in eligible:
                idx = labH.index_of(lab)
                quad = quadruple_of_square_face(H, labH, idx)
                if quad is None or not pluecker.cyclically_ordered(*quad):
                    failures += 1
            if not eligible:
                break
            if rng.random() < 0.3:  # interleave a label-preserving (M3) move
                safe = [
                    e for e, (a, b) in sorted(G.edges.items())
                    if not any(w > 0 and len(G.rot[w]) == 1 for w in (a, b))
                ]
                if safe:
                    G = plabic.insert_degree2_pair(G, rng.choice(safe))
            G = plabic.square_move(G, eligible[rng.randrange(len(eligible))])
            moves_applied += 1
    assert failures == 0
    assert moves_applied >= 100
    elapsed = time.time() - t0
    announce(7, elapsed)


# -- 8 -----------------------------------------------------------------------

def _rect_shape(J, k, n):
    """(rows, cols) of the rectangle with vert_ne J, or None."""
    lam = shapes.from_vert_ne(J, k, n)
    if not lam:
        return (0, 0)
    if len(set(lam)) != 1:
        return None
    return (len(lam), lam[0])


def test_criterion_08_necklace_rectangles():
    t0 = time.time()
    failures = 0
    for n in range(2, 8):
        for k in range(1, n):
            for y in perm.all_min_reps(k, n):
                yi = perm.inverse(y)
                lam = shapes.from_vert_ne(yi[:k], k, n)
                fixed = [i for i in range(1, n + 1) if y[i - 1] == i]
                p = 0
                while p < n and y[p] == p + 1:
                    p += 1
                q = n + 1
                while q > 1 and y[q - 2] == q - 1:
                    q -= 1
                white = frozenset(i for i in fixed if i <= k)
                neck = perm.grassmann_necklace(perm.DecoratedPermutation(y, white))
                frozen_rects = {
                    shapes.rect_vert_ne(r, c, k, n)
                    for (r, c) in shapes.boxes(lam)
                    if shapes.is_lambda_frozen(lam, (r, c))
                }
                seen_rects = set()
                empty_range = set(range(1, min(p + 1, n) + 1)) | set(range(q, n + 1))
                for i, J in enumerate(neck, start=1):
                    shape = _rect_shape(J, k, n)
                    if shape is None:
                        failures += 1
                        continue
                    if shape == (0, 0):
                        if i not in empty_range:
                            failures += 1
                    else:
                        if i in empty_range or J not in frozen_rects:
                            failures += 1
                        seen_rects.add(J)
                # every lambda-frozen rectangle occurs
                if seen_rects != frozen_rects:
                    failures += 1
                # transition rule between consecutive entries
                for i in range(1, n):
                    a, b = _rect_shape(neck[i - 1], k, n), _rect_shape(neck[i], k, n)
                    if a is None or b is None or a == (0, 0) or neck[i] == neck[i - 1]:
                        continue
                    if y[i - 1] > k:
                        if b != (a[0], a[1] + 1):
                            failures += 1
                    else:
                        if b != ((a[0] - 1, a[1]) if a[0] > 1 else (0, 0)):
                            failures += 1
    assert failures == 0
    elapsed = time.time() - t0
    announce(8, elapsed)


# -- 9 -----------------------------------------------------------------------

def test_criterion_09_ppalg_golden():
    from test_ppalg import GOLDEN_MODULES, RUNNING_WORD, running_pair

    k, n, v = running_pair()
    x = perm.multiply(perm.apply_word(RUNNING_WORD, n), perm.inverse(v))
    U = ppalg.tilting_module(k, n, v, x)
    # the standard word spells v as the paper's word does, with other letters
    assert perm.apply_word(U.word[:10], n) == perm.apply_word(RUNNING_WORD[:10], n) == v
    assert U.word[10:] == RUNNING_WORD[10:]
    summands = dict(zip(U.positions, U.summands))
    for j, expect in GOLDEN_MODULES.items():
        assert summands[j].normalized().cells == expect
    box_of = dict(zip(U.positions, U.boxes))
    assert sorted(box_of) == list(range(11, 21))
    arrows = set(ppalg.morphism_arrows(U.shape))
    displayed = {
        (11, 15), (14, 11), (14, 18), (17, 14), (17, 20), (19, 17),
        (12, 11), (12, 16), (15, 12), (15, 14), (18, 15), (18, 17),
        (20, 18), (20, 19), (13, 12), (16, 13), (16, 15),
    }
    assert arrows == {(box_of[a], box_of[b]) for a, b in displayed}
    assert {j for j, f in zip(U.positions, U.frozen) if f} == {13, 15, 16, 18, 19, 20}
    got = [nm(P) for P in U.labels]
    assert got == ["247", "147", "127", "246", "467", "167", "245", "456", "234", "345"]
    announce(9)


# -- 10 ----------------------------------------------------------------------

def test_criterion_10_module_structure_crossvalidation():
    t0 = time.time()
    mismatches = 0
    for n in range(2, 8):
        for k, v, x in skew_pairs(n):
            U = ppalg.tilting_module(k, n, v, x)
            for M, P in zip(U.summands, U.labels):
                if M.normalized() != ppalg.region_module(k, n, v, P):
                    mismatches += 1
    assert mismatches == 0
    elapsed = time.time() - t0
    assert elapsed < 600.0
    announce(10, elapsed)


# -- 11 ----------------------------------------------------------------------

def test_criterion_11_seeds_coincide():
    t0 = time.time()
    for n in range(2, 8):
        for k, v, x in skew_pairs(n):
            quiver, labels = ppalg.endomorphism_quiver(k, n, v, x)
            S = seeds.rectangles_seed(k, n, v, x)
            assert quiver.frozen == S.quiver.frozen
            assert Counter(quiver.arrows) == Counter(S.quiver.arrows)
            assert labels == {b: l.columns for b, l in S.labels.items()}
    elapsed = time.time() - t0
    announce(11, elapsed)


# -- 12 ----------------------------------------------------------------------

def test_criterion_12_le_diagram_suite():
    t0 = time.time()
    # golden
    x = (1, 2, 4, 7, 3, 5, 6, 8)
    v = (4, 3, 8, 2, 7, 6, 1, 5)
    O = lediag.skew_oplus(4, 8, x, v)
    assert O == lediag.parse("+ + + 0\n+ 0 0 0\n0 0 0\n0")
    assert lediag.leify(O) == lediag.parse("0 0 + 0\n+ + + 0\n0 0 0\n0")

    # confluence, exhaustively on every filling of every shape with <= 9 boxes:
    # the first-site move play and two random ones reach leify(O)
    rng = random.Random(5)
    shapes_small = [
        lam
        for m in range(1, 10)
        for lam in shapes.partitions_in_box(m, m)
        if shapes.size(lam) == m
    ]
    for lam in shapes_small:
        for O in lediag.all_fillings(lam):
            M = lediag.leify(O)
            assert lediag.is_le_diagram(M)
            assert play_le_moves(O) == M
            for trial in range(2):
                assert play_le_moves(O, random.Random(trial)) == M

    # 500 random larger diagrams
    big_shapes = [(5, 4, 3), (4, 4, 4), (6, 4, 2), (5, 5, 3, 2)]
    for _ in range(500):
        lam = big_shapes[rng.randrange(len(big_shapes))]
        plus = frozenset(b for b in shapes.boxes(lam) if rng.random() < 0.5)
        O = lediag.OplusDiagram(lam, plus)
        M = lediag.leify(O)
        assert lediag.is_le_diagram(M)
        assert play_le_moves(O, random.Random(rng.randrange(10**6))) == M

    # reading-word invariance under moves and reading orders
    for _ in range(60):
        lam = (4, 3, 2)
        plus = frozenset(b for b in shapes.boxes(lam) if rng.random() < 0.5)
        O = lediag.OplusDiagram(lam, plus)
        r = lediag.reading_word(O, 3, 7)
        for order in lediag.sample_reading_orders(lam, rng, 4):
            assert lediag.reading_word(O, 3, 7, order) == r
        for site in lediag.le_moves_applicable(O):
            assert lediag.reading_word(lediag.apply_le_move(O, site), 3, 7) == r

    # skew round trip, exhaustively for n <= 6
    for n in range(2, 7):
        for k, v, x in skew_pairs(n):
            M = lediag.leify(lediag.skew_oplus(k, n, x, v))
            assert lediag.le_decoration(M, k, n) == perm.positroid_decoration(
                v, perm.multiply(x, v), k
            )
    elapsed = time.time() - t0
    announce(12, elapsed)


# -- 13 ----------------------------------------------------------------------

def test_criterion_13_finite_type_classification():
    t0 = time.time()
    all_shapes = [
        lam
        for m in range(0, 9)
        for lam in shapes.partitions_in_box(m if m else 1, m if m else 1)
        if shapes.size(lam) == m
    ]
    # one BFS per class: a shape whose grid quiver an earlier search reached
    # reuses that report (a shape and its transpose share a class)
    reports = []

    def explore(mut):
        key = seeds.canonical_form(seeds.mutable_grid_quiver(mut))
        for rep in reports:
            if key in rep.classes:
                return rep
        reports.append(seeds.mutation_class_explore(seeds.mutable_grid_quiver(mut)))
        return reports[-1]

    for mut in all_shapes:
        want = seeds.classify_mutable_shape(mut)
        rep = explore(mut)
        if want == "Infinite":
            assert rep.verdict == "infinite", mut
        else:
            assert rep.verdict == "finite", mut
            assert rep.closed
            # a closed class holds every orientation of its Dynkin tree
            assert seeds.canonical_form(seeds.dynkin_quiver(want)) in rep.classes, mut

    # D4 reachable from (2,2); E6 from (3,3)
    for mut, t in (((2, 2), "D4"), ((3, 3), "E6")):
        assert seeds.canonical_form(seeds.dynkin_quiver(t)) in explore(mut).classes

    # the four minimal infinite shapes: infinite type is certified by a double
    # arrow in the class (the classes themselves close at 1080 < 1574, so the
    # raw class size never passes the rank-8 finite maximum; see the ledger)
    for mut in ((4, 3, 1), (3, 2, 2, 1), (4, 2, 1, 1), (3, 3, 2)):
        rep = explore(mut)
        assert rep.verdict == "infinite"
        assert rep.saw_multiple_arrow
    # one class each for A0-A8, D4-D8 and E6-E8, and one for the minimal
    # infinite shapes
    assert len(reports) <= 18, len(reports)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    announce(13, elapsed)


# -- 14 ----------------------------------------------------------------------

def test_criterion_14_negative_corpus():
    assert not pluecker.weakly_separated({4, 6, 7}, {2, 3, 5})
    labels = [{1, 3}, {2, 3}, {1, 4}, {4, 5}, {1, 5}]
    assert pluecker.singleton_occurrence_check(labels, 5) == (2,)
    announce(14)


# -- 15 ----------------------------------------------------------------------

def test_criterion_15_path_bijection():
    t0 = time.time()
    from itertools import permutations as iter_perms

    for n in range(2, 7):
        pair_count = 0
        for k in range(1, n):
            for lam_v in shapes.partitions_in_box(k, n - k):
                for lam_x in shapes.subpartitions(lam_v):
                    v, x = perm.skew_pair(k, n, lam_v, lam_x)
                    assert perm.is_length_additive(x, v)
                    assert perm.check_skew_pair(v, x, k) == (lam_v, lam_x)
                    pair_count += 1
        direct = 0
        for k in range(1, n):
            for v in iter_perms(range(1, n + 1)):
                if not perm.is_max_rep(v, k):
                    continue
                for x in iter_perms(range(1, n + 1)):
                    if perm.is_grassmannian(x, k) and perm.is_length_additive(x, v):
                        direct += 1
        assert pair_count == direct
    elapsed = time.time() - t0
    announce(15, elapsed)
