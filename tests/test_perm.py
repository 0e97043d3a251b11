import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from positroids import perm, shapes


def test_multiply_identity_and_involution():
    e = perm.identity(3)
    s1 = perm.simple_reflection(1, 3)
    w = (2, 3, 1)
    assert perm.multiply(e, w) == w
    assert perm.multiply(s1, s1) == e


def test_multiply_columnar_product_s5():
    # product check in S_5: the columnar word of (3,5,1,2,4) multiplies back
    word = perm.columnar_expression((3, 5, 1, 2, 4), 2)
    assert tuple(reversed(word)) == (4, 2, 3, 1, 2)  # product order s4 s2 s3 s1 s2
    assert perm.apply_word(word, 5) == (3, 5, 1, 2, 4)


def test_apply_word_matches_product_of_simple_reflections():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(2, 9)
        word = [rng.randint(1, n - 1) for _ in range(rng.randint(0, 30))]
        w = perm.identity(n)
        for i in word:
            w = perm.multiply(perm.simple_reflection(i, n), w)
        assert perm.apply_word(word, n) == w
        assert perm.apply_word(iter(word), n) == w


@pytest.mark.parametrize("bad", [0, -1, 5, 6])
def test_apply_word_rejects_non_generators(bad):
    with pytest.raises(ValueError, match=f"letter {bad} is not a generator of S_5"):
        perm.apply_word((1, bad), 5)


def test_multiply_size_mismatch():
    with pytest.raises(ValueError):
        perm.multiply((1, 2), (1, 2, 3))


def test_coxeter_length():
    assert perm.coxeter_length(perm.identity(4)) == 0
    assert perm.coxeter_length(perm.longest_element(5)) == 10
    assert perm.coxeter_length(perm.parabolic_longest(3, 7)) == 3 + 6


def test_is_length_additive():
    x = (3, 5, 1, 2, 4)
    assert perm.is_length_additive(x, perm.identity(5))
    assert perm.is_length_additive(x, perm.parabolic_longest(2, 5))
    s1 = perm.simple_reflection(1, 2)
    assert not perm.is_length_additive(s1, s1)


def test_coset_reps():
    assert perm.parabolic_longest(2, 5) == (2, 1, 5, 4, 3)
    assert perm.is_grassmannian((2, 4, 7, 8, 1, 3, 5, 6), 4)
    assert perm.is_max_rep((8, 3, 2, 7, 6, 5, 4, 1), 3)
    assert perm.is_grassmannian(perm.inverse(perm.identity(5)), 2)
    assert not perm.is_max_rep(perm.identity(5), 2)


def test_columnar_expression_golden():
    word = perm.columnar_expression((2, 4, 7, 8, 1, 3, 5, 6), 4)
    # displayed right to left: s6 s7 s5 s6 s3 s4 s5 s1 s2 s3 s4
    assert tuple(reversed(word)) == (6, 7, 5, 6, 3, 4, 5, 1, 2, 3, 4)
    assert perm.apply_word(word, 8) == (2, 4, 7, 8, 1, 3, 5, 6)


def test_columnar_expression_identity_and_errors():
    assert perm.columnar_expression(perm.identity(6), 3) == ()
    with pytest.raises(ValueError):
        perm.columnar_expression((2, 1, 4, 3), 2)  # two descents


def test_columnar_length_is_box_count():
    for k, n in ((2, 5), (3, 7)):
        for lam in shapes.partitions_in_box(k, n - k):
            x = perm.grassmannian_from_image(shapes.vert_ne(lam, k, n), k, n)
            word = perm.columnar_expression(x, k)
            assert len(word) == shapes.size(lam) == perm.coxeter_length(x)
            assert perm.apply_word(word, n) == x


def test_standard_reduced_expression_lengths():
    k, n = 2, 5
    x = (3, 5, 1, 2, 4)
    v = perm.parabolic_longest(k, n)
    word = perm.standard_reduced_expression(x, v, k)
    assert len(word) == 5 + 4
    assert perm.apply_word(word, n) == perm.multiply(x, v)
    assert perm.coxeter_length(perm.apply_word(word, n)) == len(word)


def test_standard_reduced_expression_running_example():
    k, n = 3, 7
    v = perm.multiply(perm.parabolic_longest(k, n), perm.simple_reflection(3, n))
    x = (3, 6, 7, 1, 2, 4, 5)
    word = perm.standard_reduced_expression(x, v, k)
    assert len(word) == 20
    assert perm.summand_index_set(v, word) == tuple(range(11, 21))


def test_standard_reduced_expression_wK_only():
    k, n = 3, 6
    v = perm.parabolic_longest(k, n)
    word = perm.standard_reduced_expression(perm.identity(n), v, k)
    assert len(word) == perm.coxeter_length(v)
    assert perm.apply_word(word, n) == v


def _composed_standard_word(x, v, k):
    # the word as a composition: the reversed columnar word of v'^{-1} for
    # v' = w_K v, then w_K's word, then the columnar word of x
    n = len(x)
    v_prime = perm.multiply(perm.parabolic_longest(k, n), v)
    return (tuple(reversed(perm.columnar_expression(perm.inverse(v_prime), k)))
            + perm.parabolic_longest_word(k, n) + perm.columnar_expression(x, k))


def test_standard_reduced_expression_is_the_composition_on_every_pair():
    # every skew pair with n <= 8 (6,900 pairs); the tilting module's shape
    # is lambda_x of the same pair
    from positroids import ppalg

    pairs = 0
    for n in range(2, 9):
        for k in range(1, n):
            for lam_v in shapes.partitions_in_box(k, n - k):
                for lam_x in shapes.subpartitions(lam_v):
                    v, x = perm.skew_pair(k, n, lam_v, lam_x)
                    assert perm.standard_reduced_expression(x, v, k) == _composed_standard_word(x, v, k)
                    assert ppalg.tilting_module(k, n, v, x).shape == shapes.from_vert_ne(x[:k], k, n)
                    pairs += 1
    assert pairs == 6_900


def test_pds_running_example():
    k, n = 3, 7
    v = perm.multiply(perm.parabolic_longest(k, n), perm.simple_reflection(3, n))
    word = (3, 4, 5, 6, 4, 5, 4, 1, 2, 1, 3, 2, 1, 4, 3, 2, 5, 4, 6, 5)
    assert perm.summand_index_set(v, word) == tuple(range(11, 21))


def test_pds_identity_uses_nothing():
    word = perm.any_reduced_word(perm.longest_element(4))
    assert perm.positive_distinguished_subexpression(perm.identity(4), word) == frozenset()
    assert perm.summand_index_set(perm.identity(4), word) == tuple(range(1, len(word) + 1))


def test_pds_appendix_pattern():
    # word displayed s1 s2 s1 s3 s2 s4 s3 s2 s1 with right-to-left position
    # indexing; the rightmost subexpression for v sits at positions {2,3,4,6,7}
    word = (1, 2, 3, 4, 2, 3, 1, 2, 1)
    v = (2, 5, 1, 4, 3)
    assert perm.positive_distinguished_subexpression(v, word) == frozenset({2, 3, 4, 6, 7})


def test_pds_is_reduced_word_for_v_exhaustive():
    # PDS letters multiply to v and their count equals l(v), for all pairs in S_4
    from itertools import permutations

    for w in permutations(range(1, 5)):
        word = perm.any_reduced_word(w)
        for v in permutations(range(1, 5)):
            try:
                used = perm.positive_distinguished_subexpression(v, word)
            except ValueError:
                assert not perm.bruhat_leq(v, w)
                continue
            letters = [word[j - 1] for j in sorted(used)]
            assert perm.apply_word(letters, 4) == v
            assert len(letters) == perm.coxeter_length(v)


def test_pds_rightmost_property_small():
    # shifting any chosen letter strictly left breaks the subword property or
    # rightmostness, exhaustively in S_4
    from itertools import combinations, permutations

    n = 4
    for w in permutations(range(1, n + 1)):
        word = perm.any_reduced_word(w)
        for v in permutations(range(1, n + 1)):
            if not perm.bruhat_leq(v, w):
                continue
            used = sorted(perm.positive_distinguished_subexpression(v, word))
            # any other subexpression for v is lexicographically >= used when
            # positions are sorted increasingly (rightmost = positionwise minimal)
            for cand in combinations(range(1, len(word) + 1), len(used)):
                letters = [word[j - 1] for j in cand]
                if perm.apply_word(letters, n) == v and len(letters) == perm.coxeter_length(v):
                    assert list(cand) >= used


def test_bruhat_leq():
    assert perm.bruhat_leq(perm.identity(4), (4, 3, 2, 1))
    w = (3, 1, 4, 2)
    assert perm.bruhat_leq(w, w)
    for k, n in ((2, 4), (2, 5), (3, 5)):
        assert perm.bruhat_leq(perm.parabolic_longest(k, n), perm.longest_element(n))


def test_bruhat_leq_matches_subword_property_s5():
    from itertools import permutations

    group = list(permutations(range(1, 6)))
    below = 0
    for w in group:
        word = perm.any_reduced_word(w)
        for v in group:
            try:
                perm.positive_distinguished_subexpression(v, word)
                expect = True
            except ValueError:
                expect = False
            assert perm.bruhat_leq(v, w) == expect, (v, w)
            below += expect
    # the number of comparable pairs v <= w in S_5 is neither 0 nor all
    assert 0 < below < len(group) ** 2


def test_coxeter_length_matches_inversion_count_s6():
    from itertools import permutations

    for w in permutations(range(1, 7)):
        inversions = sum(1 for i in range(6) for j in range(i + 1, 6) if w[i] > w[j])
        assert perm.coxeter_length(w) == inversions


def test_bounded_affine():
    n = 5
    ident_black = perm.decorate(perm.identity(n))
    assert perm.bounded_affine(ident_black).window == (1, 2, 3, 4, 5)
    ident_white = perm.decorate(perm.identity(n), range(1, n + 1))
    assert perm.bounded_affine(ident_white).window == (6, 7, 8, 9, 10)
    sigma = perm.decorate((3, 4, 5, 1, 2))
    lifted = perm.bounded_affine(sigma)
    assert lifted.window == (3, 4, 5, 6, 7)
    assert all(i <= lifted.window[i - 1] <= i + n for i in range(1, n + 1))
    assert sorted(f % n for f in lifted.window) == list(range(n))
    assert lifted(7) == lifted(2) + n


def test_grassmann_necklace():
    n = 4
    all_white = perm.decorate(perm.identity(n), range(1, n + 1))
    assert all(J == frozenset(range(1, n + 1)) for J in perm.grassmann_necklace(all_white))
    all_black = perm.decorate(perm.identity(n))
    assert all(J == frozenset() for J in perm.grassmann_necklace(all_black))
    neck = perm.grassmann_necklace(perm.decorate((3, 4, 5, 1, 2)))
    assert [sorted(J) for J in neck] == [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]
    assert len({len(J) for J in neck}) == 1


def test_positroid_decoration():
    # v = w, identity trip permutation with fixed points split by v^{-1}([k])
    k, n = 2, 4
    v = perm.parabolic_longest(k, n)
    dec = perm.positroid_decoration(v, v, k)
    assert dec.perm == perm.identity(n)
    assert dec.white_fixed == frozenset(perm.inverse(v)[:k])

    # the Gr(3,7) figure: v^{-1}([3]) = {1,3,5}, w = w0
    v = perm.max_rep_from_image({1, 3, 5}, 3, 7)
    dec = perm.positroid_decoration(v, perm.longest_element(7), 3)
    assert dec.perm == (2, 4, 6, 7, 1, 3, 5)


def test_positroid_decoration_white_fixed_points_in_k():
    # trip permutation of a bridge graph is x^{-1} with white lollipops in [k]
    k, n = 2, 5
    x = (3, 5, 1, 2, 4)
    v = perm.parabolic_longest(k, n)
    w = perm.multiply(x, v)
    dec = perm.positroid_decoration(v, w, k)
    assert dec.perm == perm.multiply(perm.inverse(v), w)


@settings(max_examples=60, deadline=None)
@given(st.permutations(list(range(1, 7))))
def test_any_reduced_word_roundtrip(images):
    w = tuple(images)
    word = perm.any_reduced_word(w)
    assert perm.apply_word(word, 6) == w
    assert len(word) == perm.coxeter_length(w)


def test_pds_rightmost_property_s5_bounded():
    # same exhaustive-oracle check in S_5, bounded to keep the subword
    # enumeration tractable
    from itertools import combinations, permutations

    n = 5
    for w in permutations(range(1, n + 1)):
        if perm.coxeter_length(w) > 6:
            continue
        word = perm.any_reduced_word(w)
        for v in permutations(range(1, n + 1)):
            if not perm.bruhat_leq(v, w):
                continue
            used = sorted(perm.positive_distinguished_subexpression(v, word))
            for cand in combinations(range(1, len(word) + 1), len(used)):
                letters = [word[j - 1] for j in cand]
                if perm.apply_word(letters, n) == v and len(letters) == perm.coxeter_length(v):
                    assert list(cand) >= used


def test_bounded_affine_and_necklace_all_decorations():
    from itertools import permutations

    n = 4
    for images in permutations(range(1, n + 1)):
        w = tuple(images)
        fixed = [i for i in range(1, n + 1) if w[i - 1] == i]
        for mask in range(1 << len(fixed)):
            white = frozenset(f for i, f in enumerate(fixed) if mask >> i & 1)
            sigma = perm.DecoratedPermutation(w, white)
            lifted = perm.bounded_affine(sigma)
            assert all(i <= lifted.window[i - 1] <= i + n for i in range(1, n + 1))
            assert sorted(f % n for f in lifted.window) == list(range(n))
            neck = perm.grassmann_necklace(sigma)
            assert len({len(J) for J in neck}) == 1
            assert len(neck[0]) == len(sigma.antiexcedances())


def test_pds_rejects_letters_outside_the_generators():
    for word in ((5,), (0,), (1, 3)):
        with pytest.raises(ValueError, match="not a generator of S_3"):
            perm.positive_distinguished_subexpression((2, 1, 3), word)


def test_check_skew_pair_raises_each_reason():
    k = 2
    wK = perm.parabolic_longest(k, 4)
    with pytest.raises(ValueError, match="W\\^K_max"):
        perm.check_skew_pair(perm.identity(4), (3, 4, 1, 2), k)
    with pytest.raises(ValueError, match="\\^K W"):
        perm.check_skew_pair(wK, (2, 1, 3, 4), k)
    with pytest.raises(ValueError, match="length-additive"):
        perm.check_skew_pair((2, 4, 1, 3), (3, 4, 1, 2), k)
    for bad_k in (0, 4):
        with pytest.raises(ValueError, match="0 < k < n"):
            perm.check_skew_pair(perm.longest_element(4), perm.identity(4), bad_k)
    perm.check_skew_pair(wK, (3, 4, 1, 2), k)


@pytest.mark.parametrize("func, args, message", [
    # each input breaks more than one condition (or is no permutation), and
    # the message is that of the first condition checked
    ("check_skew_pair", ((1, 2, 3), (2, 1), 1),
     "need v, x in S_n and 0 < k < n; got v=(1, 2, 3), x=(2, 1), k=1"),
    ("check_skew_pair", ((1, 2, 3, 4), (2, 1, 4, 3), 0),
     "need v, x in S_n and 0 < k < n; got v=(1, 2, 3, 4), x=(2, 1, 4, 3), k=0"),
    ("check_skew_pair", ((1, 2, 3, 4), (2, 1, 4, 3), 2), "(1, 2, 3, 4) is not in W^K_max"),
    ("check_skew_pair", ((2, 1, 4, 3), (2, 1, 4, 3), 2), "(2, 1, 4, 3) is not in ^K W"),
    ("check_skew_pair", ((3, 1, 3, 1), (2, 1, 4, 3), 2), "(2, 1, 4, 3) is not in ^K W"),
    ("check_skew_pair", ((1, 1, 3, 4), (1, 1, 2, 3), 2), "(1, 1, 3, 4) is not in W^K_max"),
    ("check_skew_pair", ((3, 1, 3, 1), (1, 2, 3, 4), 2), "not a 2-subset of [4]: [1, 5]"),
    ("check_skew_pair", ((2, 1, 4, 3), (1, 1, 2, 3), 2), "not a 2-subset of [4]: [1, 1]"),
    ("positroid_decoration", ((2, 1, 3), (1, 2, 3), 1), "(2, 1, 3) is not in W^K_max"),
    ("positroid_decoration", ((1, 2, 3, 4), (2, 1, 4, 3), 2), "(1, 2, 3, 4) is not in W^K_max"),
    ("positroid_decoration", ((2, 1, 4, 3), (4, 3, 2, 1), 0), "(2, 1, 4, 3) is not in W^K_max"),
    ("positroid_decoration", ((3, 1, 3, 1), (1, 2, 3, 4), 2), "need v <= w in Bruhat order"),
    ("positroid_decoration", ((2, 1, 4, 3), (1, 1, 2, 3), 2), "need v <= w in Bruhat order"),
    # a k outside [0, n] once read every adjacent pair, and vi[:k] picked the
    # white fixed points {2, 3, 4} at k = -1
    ("positroid_decoration", ((4, 3, 2, 1), (4, 3, 2, 1), -1), "need 0 <= k <= n; got k=-1, n=4"),
    ("positroid_decoration", ((4, 3, 2, 1), (4, 3, 2, 1), 5), "need 0 <= k <= n; got k=5, n=4"),
    ("is_max_rep", ((4, 3, 2, 1), -1), "need 0 <= k <= n; got k=-1, n=4"),
])
def test_pair_checks_raise_the_first_broken_condition(func, args, message):
    with pytest.raises(ValueError) as info:
        getattr(perm, func)(*args)
    assert str(info.value) == message


def test_skew_pair_figure():
    # the paper's figure: lambda_v = (4, 4) and lambda_x = (3, 1) in the 3 x 5 box
    v, x = perm.skew_pair(3, 8, (4, 4), (3, 1))
    assert v == (8, 3, 2, 7, 6, 5, 4, 1)
    assert x == (1, 3, 6, 2, 4, 5, 7, 8)
    assert perm.is_length_additive(x, v)
    assert perm.check_skew_pair(v, x, 3) == ((4, 4), (3, 1))


def test_skew_pair_rejects_a_non_nested_pair():
    lam_v, lam_x = (4, 4), (3, 1)
    for lam in (lam_v, lam_x):
        perm.check_skew_pair(*perm.skew_pair(3, 8, lam, lam), 3)
    with pytest.raises(ValueError, match="\\(4, 4\\) inside \\(3, 1\\)"):
        perm.skew_pair(3, 8, lam_x, lam_v)
    with pytest.raises(ValueError, match="does not fit"):
        perm.skew_pair(3, 8, (6,), (1,))
    with pytest.raises(ValueError, match="does not fit"):
        perm.skew_pair(2, 8, (4, 4, 4), (1,))
    for bad_k in (0, 8):
        with pytest.raises(ValueError, match="0 < k < n"):
            perm.skew_pair(bad_k, 8, (), ())


def test_skew_pair_roundtrip_exhaustive():
    # for n <= 6: shapes -> (v, x) -> shapes is the identity, and every
    # length-additive pair arises exactly once
    from itertools import permutations

    for n in range(2, 7):
        count = 0
        for k in range(1, n):
            for lam_v in shapes.partitions_in_box(k, n - k):
                for lam_x in shapes.subpartitions(lam_v):
                    v, x = perm.skew_pair(k, n, lam_v, lam_x)
                    assert perm.is_max_rep(v, k) and perm.is_grassmannian(x, k)
                    assert perm.is_length_additive(x, v)
                    assert perm.check_skew_pair(v, x, k) == (lam_v, lam_x)
                    count += 1
        direct = 0
        for k in range(1, n):
            for v in permutations(range(1, n + 1)):
                if not perm.is_max_rep(v, k):
                    continue
                for x in permutations(range(1, n + 1)):
                    if perm.is_grassmannian(x, k) and perm.is_length_additive(x, v):
                        direct += 1
        assert count == direct


def test_check_skew_pair_containment_matches_lengths():
    # the containment test against the lengths, on every v in W^K_max and
    # x in ^K W with n <= 8 (17,560 pairs)
    from itertools import combinations

    pairs = additive = 0
    for n in range(2, 9):
        for k in range(1, n):
            subsets = list(combinations(range(1, n + 1), k))
            for image_v in subsets:
                v = perm.max_rep_from_image(image_v, k, n)
                for image_x in subsets:
                    x = perm.grassmannian_from_image(image_x, k, n)
                    pairs += 1
                    if perm.is_length_additive(x, v):
                        additive += 1
                        assert perm.check_skew_pair(v, x, k) == (
                            shapes.from_vert_sw(image_v, k, n), shapes.from_vert_ne(image_x, k, n))
                    else:
                        with pytest.raises(ValueError, match="not length-additive"):
                            perm.check_skew_pair(v, x, k)
    assert pairs == 17_560
    assert 0 < additive < pairs
