import random
from itertools import permutations as iter_perms

import pytest

from positroids import perm, pluecker, ppalg, seeds, shapes
from conftest import skew_pairs


RUNNING_WORD = (3, 4, 5, 6, 4, 5, 4, 1, 2, 1, 3, 2, 1, 4, 3, 2, 5, 4, 6, 5)


def running_pair():
    k, n = 3, 7
    v = perm.multiply(perm.parabolic_longest(k, n), perm.simple_reflection(3, n))
    return k, n, v


def top_vertices(M):
    """Vertices of the cells with no cell of M above them."""
    return {
        i for i, t in M.cells
        if (i - 1, t + 1) not in M.cells and (i + 1, t + 1) not in M.cells
    }


def is_connected(M):
    """Whether the cells of M form one piece under the cover relation."""
    if not M.cells:
        return True
    seen = {next(iter(M.cells))}
    queue = list(seen)
    while queue:
        i, t = queue.pop()
        for d in ((i - 1, t - 1), (i + 1, t - 1), (i - 1, t + 1), (i + 1, t + 1)):
            if d in M.cells and d not in seen:
                seen.add(d)
                queue.append(d)
    return len(seen) == len(M.cells)


def cells(*rows):
    """Rows from the top: each row is a dict vertex -> present at that level."""
    out = set()
    for level, row in enumerate(reversed(rows)):
        for vtx in row:
            out.add((vtx, level))
    return frozenset(out)


def test_injective_q1():
    Q1 = ppalg.injective(6, 1)
    assert Q1.dimension_vector() == (1, 1, 1, 1, 1)
    assert top_vertices(Q1) == {5}
    assert {i for i, _ in Q1.socle()} == {1}


def test_injective_q2():
    Q2 = ppalg.injective(6, 2)
    assert len(Q2.cells) == 8
    assert Q2.dimension_vector() == (1, 2, 2, 2, 1)
    assert {i for i, _ in Q2.socle()} == {2}
    assert top_vertices(Q2) == {4}


def test_injective_corners():
    for n in (4, 5, 6, 7):
        for i in range(1, n):
            Qi = ppalg.injective(n, i)
            assert {v for v, _ in Qi.socle()} == {i}
            assert top_vertices(Qi) == {n - i}


def test_functor_E_on_zero():
    z = ppalg.module(6, ())
    assert ppalg.functor_E_dagger_word(z, (3,)) == z
    assert ppalg.functor_E_dagger_word(z, (1, 2, 3, 4, 5)) == z


def test_functor_E_dimension_bookkeeping():
    M = ppalg.injective(6, 3)
    socle_vertex = next(iter(M.socle()))[0]
    removed = ppalg.functor_E_dagger_word(M, (socle_vertex,))
    mult = sum(1 for c in M.socle() if c[0] == socle_vertex)
    assert len(removed.cells) == len(M.cells) - mult


def test_functor_E_word_independent():
    # E-dagger_w independent of the reduced word, all reduced words, l(w) <= 5
    n = 5
    for images in iter_perms(range(1, n + 1)):
        w = tuple(images)
        if perm.coxeter_length(w) > 5 or perm.coxeter_length(w) == 0:
            continue
        words = _all_reduced_words(w)
        for i in range(1, n):
            M = ppalg.injective(n, i)
            results = {ppalg.functor_E_dagger_word(M, word).cells for word in words}
            assert len(results) == 1


def _all_reduced_words(w):
    n = len(w)
    if w == perm.identity(n):
        return [()]
    out = []
    for i in range(1, n):
        if w[i - 1] > w[i]:  # right descent: w = w' s_i with s_i applied last
            shorter = list(w)
            shorter[i - 1], shorter[i] = shorter[i], shorter[i - 1]
            for word in _all_reduced_words(tuple(shorter)):
                out.append(word + (i,))
    return out


def test_soc_chain_single_letter():
    Qi = ppalg.injective(6, 4)
    M = ppalg.soc_chain(Qi, (4,))
    assert M.cells == Qi.socle()


def test_soc_chain_saturates():
    Qi = ppalg.injective(5, 2)
    long_word = perm.any_reduced_word(perm.longest_element(5)) * 3
    assert ppalg.soc_chain(Qi, long_word).cells == Qi.cells


def test_v14_build_up():
    k, n, v = running_pair()
    V14 = ppalg.soc_chain(
        ppalg.injective(n, RUNNING_WORD[13]), tuple(reversed(RUNNING_WORD[:14]))
    ).normalized()
    assert V14.cells == cells({5, 3, 1}, {6, 4, 2}, {5, 3}, {4})


def test_u14_golden():
    k, n, v = running_pair()
    U14 = ppalg.tilting_summand(k, n, v, RUNNING_WORD, 14).normalized()
    assert U14.cells == cells({5, 3, 1}, {4, 2})


GOLDEN_MODULES = {
    11: cells({6}, {5, 3, 1}, {4, 2}),
    12: cells({6}, {5, 3}, {4, 2}),
    13: cells({6}, {5}, {4}),
    14: cells({5, 3, 1}, {4, 2}),
    15: cells({5, 3}, {6, 4, 2}, {5, 3, 1}, {4, 2}),
    16: cells({5}, {6, 4}, {5, 3}, {4, 2}),
    17: cells({3, 1}, {4, 2}),
    18: cells({3}, {4, 2}, {5, 3, 1}, {4, 2}),
    19: cells({1}, {2}),
    20: cells({2}, {3, 1}, {4, 2}),
}


def test_all_running_modules_golden():
    k, n, v = running_pair()
    for j, expect in GOLDEN_MODULES.items():
        M = ppalg.tilting_summand(k, n, v, RUNNING_WORD, j).normalized()
        assert M.cells == expect, f"U_{j}"


def test_running_modules_connected():
    # indecomposability witness: each region is connected (its two bounding
    # contours meet only at the ends)
    k, n, v = running_pair()
    for j in GOLDEN_MODULES:
        M = ppalg.tilting_summand(k, n, v, RUNNING_WORD, j)
        assert is_connected(M)


def test_index_set_size_is_dimension():
    # |J| = l(w) - l(v)
    k, n, v = running_pair()
    w = perm.apply_word(RUNNING_WORD, n)
    J = perm.summand_index_set(v, RUNNING_WORD)
    assert len(J) == perm.coxeter_length(w) - perm.coxeter_length(v)


def test_pluecker_projection_golden_list():
    k, n, v = running_pair()
    J = perm.summand_index_set(v, RUNNING_WORD)
    got = ["".join(map(str, sorted(ppalg.plucker_of_module(k, n, v, RUNNING_WORD, j)))) for j in J]
    assert got == ["247", "147", "127", "246", "467", "167", "245", "456", "234", "345"]


def test_frozen_labels_detect_frozen_boxes():
    # for a lambda-frozen box, w_b([l]) = x^{-1}([l])
    k, n, v = running_pair()
    w = perm.apply_word(RUNNING_WORD, n)
    x = perm.multiply(w, perm.inverse(v))
    U = ppalg.tilting_module(k, n, v, x)
    offset = perm.coxeter_length(v)
    xi = perm.inverse(x)
    for j, (r, c), frozen in zip(U.positions, U.boxes, U.frozen):
        if frozen:
            ell = k + c - r
            prefix = RUNNING_WORD[offset:j]
            w_b = perm.apply_word(tuple(reversed(prefix)), n)
            assert frozenset(w_b[:ell]) == frozenset(xi[:ell])


def test_tilting_module_matches_the_per_position_functions_and_the_box_rule():
    # its summands and labels are the per-position ones, and its frozen flags
    # (last occurrences of the letters) are the southeast-boundary boxes
    summands = 0
    for n in range(2, 7):
        for k, v, x in skew_pairs(n):
            U = ppalg.tilting_module(k, n, v, x)
            assert U.word == perm.standard_reduced_expression(x, v, k)
            assert U.positions == perm.summand_index_set(v, U.word)
            assert len(U.boxes) == len(U.summands) == len(U.labels) == len(U.frozen)
            for j, M, P in zip(U.positions, U.summands, U.labels):
                assert M == ppalg.tilting_summand(k, n, v, U.word, j)
                assert P == ppalg.plucker_of_module(k, n, v, U.word, j)
            assert U.frozen == tuple(shapes.is_lambda_frozen(U.shape, b) for b in U.boxes)
            summands += len(U.boxes)
    assert summands > 1000


def test_region_module_zero():
    k, n, v = running_pair()
    vi = perm.inverse(v)
    assert ppalg.region_module(k, n, v, frozenset(vi[:k])).cells == frozenset()


def test_region_module_golden_position_12():
    k, n, v = running_pair()
    P = ppalg.plucker_of_module(k, n, v, RUNNING_WORD, 12)
    assert P == frozenset({1, 4, 7})
    assert ppalg.region_module(k, n, v, P).cells == GOLDEN_MODULES[12]


def test_region_equals_socle_chain_route_random():
    rng = random.Random(2)
    from conftest import random_skew_pair

    for _ in range(40):
        n = rng.randint(2, 7)
        k, v, x = random_skew_pair(n, rng)
        word = perm.standard_reduced_expression(x, v, k)
        for j in perm.summand_index_set(v, word):
            P = ppalg.plucker_of_module(k, n, v, word, j)
            a = ppalg.tilting_summand(k, n, v, word, j).normalized()
            b = ppalg.region_module(k, n, v, P)
            assert a == b


def test_endomorphism_quiver_running_example():
    k, n, v = running_pair()
    w = perm.apply_word(RUNNING_WORD, n)
    x = perm.multiply(w, perm.inverse(v))
    lam = shapes.from_vert_ne(x[:k], k, n)
    assert lam == (4, 4, 2)
    arrows = set(ppalg.morphism_arrows(lam))
    # the displayed 10-vertex quiver, boxes keyed (row, col)
    expect = set()
    for (r, c) in shapes.boxes(lam):
        for tgt in ((r - 1, c), (r, c - 1), (r + 1, c + 1)):
            if shapes.contains_box(lam, tgt):
                expect.add(((r, c), tgt))
    assert arrows == expect
    assert len(arrows) == 17
    quiver, _ = ppalg.endomorphism_quiver(k, n, v, x)
    # U13, U15, U16, U18, U19, U20 <-> columnar positions 3, 5, 6, 8, 9, 10
    U = ppalg.tilting_module(k, n, v, x)
    box_of = dict(zip(U.positions, U.boxes))
    frozen = {b for b, f in quiver.frozen.items() if f}
    assert frozen == {box_of[j] for j in (13, 15, 16, 18, 19, 20)}
    assert set(quiver.arrows) == {(s, t) for s, t in arrows if not {s, t} <= frozen}


def test_endomorphism_quiver_matches_rectangles_seed():
    k, n, v = running_pair()
    w = perm.apply_word(RUNNING_WORD, n)
    x = perm.multiply(w, perm.inverse(v))
    quiver, labels = ppalg.endomorphism_quiver(k, n, v, x)
    S = seeds.rectangles_seed(k, n, v, x)
    assert quiver == S.quiver
    assert labels == {b: l.columns for b, l in S.labels.items()}


def test_endomorphism_quiver_needs_summands_after_v(monkeypatch):
    # in a reduced word for w that is not the standard one, the summand
    # positions are not the last l(x) positions, so no box has its summand
    k, n, v = running_pair()
    w = perm.apply_word(RUNNING_WORD, n)
    x = perm.multiply(w, perm.inverse(v))
    real = perm._standard_word
    monkeypatch.setattr(perm, "_standard_word",
                        lambda x, v, k: (perm.any_reduced_word(w), real(x, v, k)[1]))
    for build in (ppalg.tilting_module, ppalg.endomorphism_quiver):
        with pytest.raises(ValueError, match="summand positions"):
            build(k, n, v, x)


def test_endomorphism_quiver_checks_the_skew_pair_once(monkeypatch):
    k, n, v = running_pair()
    x = perm.multiply(perm.apply_word(RUNNING_WORD, n), perm.inverse(v))
    checked = []
    real = perm.check_skew_pair
    monkeypatch.setattr(perm, "check_skew_pair", lambda *pair: checked.append(pair) or real(*pair))
    ppalg.endomorphism_quiver(k, n, v, x)
    assert checked == [(v, x, k)]


@pytest.mark.parametrize("k, n, v, x", (
    (2, 4, (1, 2, 3, 4), (3, 4, 1, 2)),  # v not in W^K_max
    (2, 4, (2, 1, 4, 3), (2, 1, 3, 4)),  # x not in ^K W
    (2, 4, (2, 4, 1, 3), (3, 4, 1, 2)),  # not length-additive
))
def test_endomorphism_quiver_rejects_a_bad_pair_as_check_skew_pair_does(k, n, v, x):
    with pytest.raises(ValueError) as want:
        perm.check_skew_pair(v, x, k)
    with pytest.raises(ValueError) as got:
        ppalg.endomorphism_quiver(k, n, v, x)
    assert str(got.value) == str(want.value)


def test_modules_equal_up_to_shift_only_once_normalized():
    low, high = ppalg.module(4, {(1, 0), (2, 1)}), ppalg.module(4, {(1, 3), (2, 4)})
    assert low != high
    assert low.normalized() == high.normalized() == low


@pytest.mark.parametrize("bad", (0, 5))
@pytest.mark.parametrize("others", (
    (),                  # the bad cell alone
    ((1, 0), (2, 1)),    # vertex 0 is the least, vertex 5 the greatest
    ((4, 0), (3, 1)),    # vertex 0 below the others, vertex 5 above them
    ((1, 2), (4, 1)),    # a valid cell on each side
), ids=("alone", "low-vertices", "high-vertices", "between"))
def test_diagram_module_rejects_a_vertex_outside_wherever_it_sits(bad, others):
    with pytest.raises(ValueError) as info:
        ppalg.module(5, {(bad, 3), *others})
    assert str(info.value) == f"vertex {bad} outside [1, 4]"
    ppalg.module(5, others)


def test_endomorphism_quiver_single_box():
    k, n = 2, 4
    v, x = perm.skew_pair(k, n, (n - k,) * k, (1,))
    quiver, labels = ppalg.endomorphism_quiver(k, n, v, x)
    assert len(quiver.vertices) == 1
    assert not quiver.arrows
    assert all(quiver.frozen.values())


def test_plucker_of_module_rejects_nonskew():
    # the first non-realizable example: v = (2,5,1,4,3) inside a non-standard word
    word = (1, 2, 3, 4, 2, 3, 1, 2, 1)
    v = (2, 5, 1, 4, 3)
    J = perm.summand_index_set(v, word)
    failures = 0
    for j in J:
        try:
            ppalg.plucker_of_module(2, 5, v, word, j)
        except ValueError:
            failures += 1
    assert failures > 0


def test_render():
    text = ppalg.injective(5, 2).render()
    assert "2" in text and "\n" in text
    assert ppalg.module(5, ()).render() == "0"


# ---------------------------------------------------------------------------
# The library's socle removal and socle chain against their first versions
# ---------------------------------------------------------------------------

def ref_functor_E_dagger_word(M, word):
    """E-dagger along a word as first written: the socle is recomputed for
    every letter."""
    for i in word:
        doomed = {c for c in M.socle() if c[0] == i}
        M = ppalg.DiagramModule(M.n, M.cells - doomed)
    return M


def ref_soc_chain(ambient, word):
    """The socle chain as first written: every letter scans every ambient
    cell."""
    included = set()
    for p in word:
        included |= {
            c for c in ambient.cells
            if c[0] == p and c not in included and set(ambient.below(c)) <= included
        }
    return ppalg.DiagramModule(ambient.n, frozenset(included))


def random_cells(n, rng):
    """An arbitrary cell set, not necessarily a module's diagram: its levels
    start from a random lowest level in [-30, 30], and some vertices may
    hold no cell at all."""
    height = rng.randint(1, 7)
    density = rng.random()
    low = rng.randint(-30, 30)
    rows = [i for i in range(1, n) if rng.random() < 0.8]
    return ppalg.module(n, {
        (i, t) for i in rows for t in range(low, low + height) if rng.random() < density
    })


def test_socle_removal_and_chain_match_references_on_arbitrary_cells():
    rng = random.Random(11)
    lows, empty_rows = set(), 0
    for _ in range(600):
        n = rng.randint(2, 8)
        M = random_cells(n, rng)
        lows.add(min((t for _, t in M.cells), default=0))
        empty_rows += any(count == 0 for count in M.dimension_vector())
        word = [rng.randint(1, n - 1) for _ in range(rng.randint(0, 16))]
        assert ppalg.functor_E_dagger_word(M, word) == ref_functor_E_dagger_word(M, word)
        assert ppalg.soc_chain(M, word) == ref_soc_chain(M, word)
    # the masks' base is exercised below, at and above level 0
    assert min(lows) < 0 < max(lows) and 0 in lows
    assert empty_rows > 100


def test_injective_matches_its_cell_formula():
    for n in range(2, 11):
        for i in range(1, n):
            assert ppalg.injective(n, i).cells == {
                (i + u - v, u + v) for u in range(n - i) for v in range(i)
            }


def test_socle_removal_and_chain_match_references_on_every_summand():
    checked = 0
    for n in range(2, 7):
        for k, v, x in skew_pairs(n):
            word = perm.standard_reduced_expression(x, v, k)
            pds = perm.positive_distinguished_subexpression(v, word)
            for j in perm.summand_index_set(v, word):
                Q = ppalg.injective(n, word[j - 1])
                chain = tuple(reversed(word[:j]))
                V_j = ppalg.soc_chain(Q, chain)
                assert V_j == ref_soc_chain(Q, chain)
                v_letters = tuple(word[p - 1] for p in range(j, 0, -1) if p in pds)
                U_j = ref_functor_E_dagger_word(V_j, v_letters)
                assert ppalg.functor_E_dagger_word(V_j, v_letters) == U_j
                assert ppalg.tilting_summand(k, n, v, word, j) == U_j
                checked += 1
    assert checked > 1000


def ref_plucker_of_module(k, n, v, word, j):
    """The Pluecker label of U_j as first written: the PDS and both prefix
    products are recomputed for every position."""
    pds = perm.positive_distinguished_subexpression(v, word)
    i_j = word[j - 1]
    wj_inv = perm.inverse(perm.apply_word(word[:j], n))
    vj_inv = perm.inverse(perm.apply_word([word[p - 1] for p in range(1, j + 1) if p in pds], n))
    assert frozenset(vj_inv[:i_j]) == frozenset(perm.inverse(v)[:i_j])
    return pluecker.project_minor(v, k, i_j, frozenset(wj_inv[:i_j]))


def ref_region_module(k, n, v, P):
    """The region module as first written: a walk over the boxes of lambda_v."""
    lam_v = shapes.from_vert_sw(perm.inverse(v)[:k], k, n)
    lam_P = shapes.from_vert_sw(P, k, n)
    assert shapes.contains(lam_v, lam_P)
    return ppalg.module(n, {
        ((n - k) + r - c, -(r + c))
        for r, c in shapes.boxes(lam_v) if not shapes.contains_box(lam_P, (r, c))
    }).normalized()


def test_shared_pair_data_matches_references_on_every_summand():
    ppalg._word_data.cache_clear()
    pairs_with_summands = summands = 0
    for n in range(2, 7):
        for k, v, x in skew_pairs(n):
            word = perm.standard_reduced_expression(x, v, k)
            J = perm.summand_index_set(v, word)
            pairs_with_summands += bool(J)
            for j in J:
                P = ppalg.plucker_of_module(k, n, v, word, j)
                assert P == ref_plucker_of_module(k, n, v, word, j)
                assert ppalg.region_module(k, n, v, P) == ref_region_module(k, n, v, P)
                summands += 1
    info = ppalg._word_data.cache_info()
    # one build per pair, and every other summand call of the pair a hit
    assert info.misses == pairs_with_summands > 100
    assert info.hits == summands - pairs_with_summands
    assert info.currsize <= info.maxsize


def test_summand_errors_repeat_on_every_call():
    k, n, v = running_pair()
    pds = sorted(perm.positive_distinguished_subexpression(v, RUNNING_WORD))
    # for v = (2,5,1,4,3) in this non-standard word, position 1 has no label
    not_standard = (1, 2, 3, 4, 2, 3, 1, 2, 1)
    cases = (
        (ppalg.tilting_summand, (k, n, v, RUNNING_WORD, pds[0]), "belongs to the subexpression"),
        (ppalg.tilting_summand, (k, n, v, RUNNING_WORD, 0), "outside the word"),
        (ppalg.plucker_of_module, (k, n, v, RUNNING_WORD, len(RUNNING_WORD) + 1),
         "outside the word"),
        (ppalg.plucker_of_module, (2, 5, (2, 5, 1, 4, 3), not_standard, 1), "not standard"),
        # words too short to hold a reduced word for v
        (ppalg.tilting_summand, (k, n, v, (), 1), "not a Bruhat subword"),
        (ppalg.plucker_of_module, (k, n, v, (1, 2), 1), "not a Bruhat subword"),
        (ppalg.tilting_summand, (k, n, v, (1, n), 1), f"letter {n} is not a generator"),
        (ppalg.plucker_of_module, (k, n + 1, v, RUNNING_WORD, 11), f"not in S_{n + 1}"),
    )
    for fn, args, message in cases:
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                fn(*args)


def test_functor_E_dagger_word_rejects_bad_letters():
    n = 6
    M = ppalg.injective(n, 2)
    for bad in (0, n, -1):
        with pytest.raises(ValueError, match=f"letter {bad} outside"):
            ppalg.functor_E_dagger_word(M, (2, bad))
    # also when there is nothing to remove
    with pytest.raises(ValueError):
        ppalg.functor_E_dagger_word(ppalg.module(n, ()), (0,))


def test_soc_chain_rejects_bad_letters():
    n = 6
    for bad in (0, n, -1):
        with pytest.raises(ValueError, match=f"letter {bad} outside"):
            ppalg.soc_chain(ppalg.injective(n, 2), (2, bad))


def test_tilting_summand_position_errors():
    k, n, v = running_pair()
    pds = perm.positive_distinguished_subexpression(v, RUNNING_WORD)
    for j in pds:
        with pytest.raises(ValueError, match="belongs to the subexpression"):
            ppalg.tilting_summand(k, n, v, RUNNING_WORD, j)
    for j in (0, -1, len(RUNNING_WORD) + 1):
        with pytest.raises(ValueError, match="outside the word"):
            ppalg.tilting_summand(k, n, v, RUNNING_WORD, j)
