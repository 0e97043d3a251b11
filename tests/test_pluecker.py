import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from positroids import perm, pluecker, shapes
from conftest import exact_type


def test_plucker_pivot_matrix():
    M = pluecker.matrix([[1, 0, 5, 0], [0, 1, 7, 0], [0, 0, 0, 1]])
    assert pluecker.plucker(M, {1, 2, 4}) == 1
    assert pluecker.plucker(M, {1, 3, 4}) == 7
    assert pluecker.plucker(M, {1, 2, 3}) == 0


def test_plucker_hand_determinant():
    M = pluecker.matrix([[1, 0, -1, -2], [0, 1, 3, 1]])
    assert pluecker.plucker(M, {1, 2}) == 1
    assert pluecker.plucker(M, {3, 4}) == 5


def test_plucker_multilinearity():
    rng = random.Random(5)
    M = pluecker.sample_schubert_cell(2, 4, {1, 2}, rng).matrix
    scaled = (tuple(3 * x for x in M[0]),) + M[1:]
    for I in ({1, 2}, {1, 3}, {2, 4}, {3, 4}):
        assert pluecker.plucker(scaled, I) == 3 * pluecker.plucker(M, I)


def test_plucker_size_mismatch():
    M = pluecker.matrix([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        pluecker.plucker(M, {1})


@pytest.mark.parametrize("cols", ({0, 1}, {2, 3}, [1, 1]))
def test_plucker_rejects_columns_outside_the_matrix(cols):
    # column 0 would index the last column, column 3 is past the end, and a
    # repeated column is not a 2-subset; none of them may enter the table
    for M in (pluecker.matrix([[1, 0], [0, 1]]), ((1, 0), (0, 1))):
        with pytest.raises(ValueError):
            pluecker.plucker(M, cols)
        assert getattr(M, "minors", {}) == {}


@pytest.mark.parametrize("k, n, seed", ((3, 7, 2), (4, 8, 3)))
def test_matrix_table_matches_fresh_determinants(k, n, seed, count_determinants):
    rng = random.Random(seed)
    pt = pluecker.sample_schubert_cell(k, n, sorted(rng.sample(range(1, n + 1), k)), rng)
    M = pt.matrix
    assert isinstance(M, pluecker.Matrix)
    subsets = [frozenset(c) for c in itertools.combinations(range(1, n + 1), k)]
    rng.shuffle(subsets)
    fresh = {
        I: pluecker.determinant([[row[c - 1] for c in sorted(I)] for row in M])
        for I in subsets
    }
    count_determinants.clear()
    for I in subsets + subsets[::-1]:
        assert pluecker.plucker(M, I) == fresh[I]
        assert pluecker.plucker(M, sorted(I)) == fresh[I]
    # one determinant per column set, however often and in whatever form asked
    assert len(count_determinants) == len(subsets)
    assert M.minors == fresh
    assert len(M.minors) == math.comb(n, k)


def test_matrix_stores_tuple_rows_and_compares_as_a_tuple():
    rows = [[1, 2, 3], [4, 5, 6]]
    M = pluecker.Matrix(rows)
    assert all(type(row) is tuple for row in M)
    rows[0][0] = 7  # the matrix keeps its own rows
    plain = ((1, 2, 3), (4, 5, 6))
    assert M == plain and plain == M
    assert hash(M) == hash(plain)
    assert {plain: "x"}[M] == "x"
    assert repr(M) == repr(plain)
    assert M.minors == {}
    assert pluecker.matrix(rows) == ((7, 2, 3), (4, 5, 6))
    assert type(pluecker.matrix(rows)) is pluecker.Matrix


def test_plain_tuple_matrix_keeps_nothing(count_determinants):
    M = pluecker.matrix([[1, 0, -1, -2], [0, 1, 3, 1]])
    plain = tuple(M)
    assert type(plain) is tuple
    subsets = [frozenset(c) for c in itertools.combinations(range(1, 5), 2)]
    for _ in range(2):
        for I in subsets:
            assert pluecker.plucker(plain, I) == pluecker.plucker(M, I)
    # the plain tuple computes every time, the Matrix once per column set
    assert len(count_determinants) == 2 * len(subsets) + len(subsets)
    assert not hasattr(plain, "minors")


def test_determinant_rejects_non_square_input():
    for rows in ([[1, 2]], [[1, 2], [3]], [[Fraction(1, 2)], [1]]):
        with pytest.raises(ValueError):
            pluecker.determinant(rows)


def test_determinant_rational_path_divides_exactly():
    # every entry below has a non-unit denominator, so neither matrix is
    # integral; a floor division anywhere in the elimination loses the value
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert pluecker.determinant([[half, third], [third, half]]) == Fraction(5, 36)
    M = [[half, third, 1], [third, half, third], [1, third, half]]
    assert pluecker.determinant(M) == Fraction(-19, 72)


@pytest.mark.parametrize("rows, det", (
    # integral path: one swap at the first pivot, then one found mid-way
    ([[0, 1], [1, 0]], -1),
    ([[0, 2, 3], [1, 5, 7], [2, 1, 1]], -1),
    ([[1, 1, 0], [1, 1, 1], [0, 1, 1]], -1),
    ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], -1),
    # rational path: the same swaps with non-unit denominators
    ([[0, Fraction(1, 2)], [Fraction(1, 3), 0]], Fraction(-1, 6)),
    ([[1, 1, 0], [1, 1, Fraction(1, 2)], [0, 1, Fraction(1, 3)]], Fraction(-1, 2)),
    ([[0, 0, Fraction(1, 2)], [0, 1, 0], [Fraction(1, 3), 0, 0]], Fraction(-1, 6)),
), ids=str)
def test_determinant_row_swaps_flip_the_sign(rows, det):
    result = pluecker.determinant(rows)
    assert type(result) is exact_type(det)
    assert result == det


def _random_matrices(rng: random.Random, size: int):
    """(kind, rows) pairs: integer matrices (small and big entries, singular,
    with a zero leading pivot), rational ones and mixed int/Fraction rows."""
    def ints(lo, hi):
        return [[rng.randint(lo, hi) for _ in range(size)] for _ in range(size)]

    for _ in range(8):
        yield "small int", ints(-3, 3)
        yield "big int", ints(-10**12, 10**12)
        singular = ints(-9, 9)
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if size == 1:
            singular = [[0]]
        else:  # the last row is a combination of two others (one when size 2)
            singular[-1] = [a * x + b * y for x, y in zip(singular[0], singular[size - 2])]
        yield "singular int", singular
        swapped = ints(-9, 9)
        swapped[0][0] = 0
        yield "zero leading pivot", swapped
        yield "rational", [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(size)]
                           for _ in range(size)]
        yield "mixed", [[Fraction(rng.randint(-9, 9), rng.randint(2, 5)) for _ in range(size)]
                        if r % 2 else [rng.randint(-9, 9) for _ in range(size)]
                        for r in range(size)]


@pytest.mark.parametrize("size", range(1, 7))
def test_determinant_matches_sympy(size):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1968 + size)
    kinds = set()
    for kind, rows in _random_matrices(rng, size):
        expected = sympy.Matrix([[sympy.Rational(Fraction(x).numerator, Fraction(x).denominator)
                                  for x in row] for row in rows]).det()
        result = pluecker.determinant(rows)
        want = Fraction(int(expected.p), int(expected.q))
        assert type(result) is exact_type(want), (kind, rows)
        assert result == want, (kind, rows)
        kinds.add((kind, result == 0))
    # the singular ones are singular, and random ones mostly are not
    assert ("singular int", True) in kinds and ("big int", False) in kinds
    if size > 1:
        assert ("singular int", False) not in kinds


def ref_determinant(rows):
    """The first two-path Bareiss: integer rows eliminated on ints with
    ``//``, any other matrix over ``Fraction`` with ``/``; always a
    ``Fraction``."""
    m = [[Fraction(x) for x in row] for row in rows]
    size = len(m)
    if any(len(row) != size for row in m):
        raise ValueError("determinant needs a square matrix")
    if all(x.denominator == 1 for row in m for x in row):
        m = [[x.numerator for x in row] for row in m]
        prev, div = 1, operator.floordiv
    else:
        prev, div = Fraction(1), operator.truediv
    sign = 1
    for j in range(size - 1):
        if m[j][j] == 0:
            for i in range(j + 1, size):
                if m[i][j] != 0:
                    m[j], m[i] = m[i], m[j]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot_row = m[j]
        pivot = pivot_row[j]
        for i in range(j + 1, size):
            row = m[i]
            lead = row[j]
            for c in range(j + 1, size):
                row[c] = div(row[c] * pivot - lead * pivot_row[c], prev)
        prev = pivot
    return Fraction(sign * m[size - 1][size - 1])


@pytest.mark.parametrize("size", range(1, 7))
def test_determinant_matches_its_two_path_version(size):
    rng = random.Random(1968 * size)
    kinds = set()
    for kind, rows in _random_matrices(rng, size):
        want = ref_determinant(rows)
        result = pluecker.determinant(rows)
        assert result == want and type(result) is exact_type(want), (kind, rows)
        kinds.add(kind)
    assert len(kinds) == 6


@pytest.mark.parametrize("k, n, seed", ((3, 7, 4), (4, 8, 5)))
def test_sample_minors_are_ints_equal_to_the_two_path_version(k, n, seed):
    rng = random.Random(seed)
    for _ in range(3):
        pt = pluecker.sample_schubert_cell(k, n, sorted(rng.sample(range(1, n + 1), k)), rng)
        M = pt.matrix
        assert all(type(x) is int for row in M for x in row)
        for cols in itertools.combinations(range(1, n + 1), k):
            value = pluecker.plucker(M, cols)
            assert value == ref_determinant([[row[c - 1] for c in cols] for row in M]), cols
        assert len(M.minors) == math.comb(n, k)
        assert all(type(x) is int for x in M.minors.values())
        assert M.minors[pt.cell] == 1


def test_matrix_stores_integral_entries_as_ints():
    M = pluecker.matrix([[Fraction(4, 2), 3, Fraction(1, 2)], [0.5, Fraction(-6, 3), True]])
    assert M == ((2, 3, Fraction(1, 2)), (Fraction(1, 2), -2, 1))
    assert [type(x) for row in M for x in row] == [int, int, Fraction, Fraction, int, int]
    # a rational minor that is an integer is an int, any other a Fraction
    assert pluecker.plucker(M, {1, 2}) == Fraction(-11, 2)
    assert type(pluecker.plucker(M, {1, 2})) is Fraction
    assert pluecker.plucker(M, {2, 3}) == 4 and type(pluecker.plucker(M, {2, 3})) is int
    assert pluecker.determinant([[Fraction(1, 2), 0], [0, 4]]) == 2
    assert type(pluecker.determinant([[Fraction(1, 2), 0], [0, 4]])) is int


def _rational_kxn(rng: random.Random, k: int, n: int):
    """(kind, rows) pairs of k x n matrices whose denominators the Matrix
    must clear: negative and mixed denominators, integral Fractions, zero
    leading entries that force row swaps, and proportional columns or rows
    that make minors singular."""
    def entry():
        return Fraction(rng.randint(-9, 9), rng.choice((-7, -4, -3, -2, 1, 2, 3, 5, 8)))

    for _ in range(4):
        yield "rational", [[entry() for _ in range(n)] for _ in range(k)]
        yield "mixed", [[entry() for _ in range(n)] if r % 2 else [rng.randint(-9, 9) for _ in range(n)]
                        for r in range(k)]
        yield "integral fractions", [[Fraction(3 * rng.randint(-9, 9), 3) for _ in range(n)]
                                     for _ in range(k)]
        rows = [[entry() for _ in range(n)] for _ in range(k)]
        for r in range(k - 1):  # zero pivots on the diagonal of the leading columns
            rows[r][r] = 0
        yield "zero pivots", rows
        rows = [[entry() for _ in range(n)] for _ in range(k)]
        ratio = Fraction(rng.randint(1, 5), rng.choice((-3, 2, 7)))
        for row in rows:  # column 2 is a multiple of column 1
            row[1] = ratio * row[0]
        yield "proportional columns", rows
        if k > 1:
            rows = [[entry() for _ in range(n)] for _ in range(k)]
            rows[-1] = [Fraction(-1, 2) * x for x in rows[0]]
            yield "proportional rows", rows


@pytest.mark.parametrize("k, n", ((1, 4), (2, 5), (3, 6), (4, 7)))
def test_rational_matrix_minors_match_the_two_path_version(k, n):
    rng = random.Random(1000 * k + n)
    seen = set()
    for kind, rows in _rational_kxn(rng, k, n):
        M = pluecker.Matrix(rows)
        assert all(type(x) is int for row in M.integer_rows for x in row), kind
        for cols in itertools.combinations(range(1, n + 1), k):
            want = ref_determinant([[row[c - 1] for c in cols] for row in rows])
            value = pluecker.plucker(M, cols)
            assert value == want and type(value) is exact_type(want), (kind, rows, cols)
            seen.add((kind, want == 0, type(value)))
        assert len(M.minors) == math.comb(n, k)
        # a plain row sequence gets the same values
        assert all(pluecker.plucker(rows, I) == value for I, value in M.minors.items())
    assert ("rational", False, Fraction) in seen and ("integral fractions", False, int) in seen
    if k > 1:  # columns 1 and 2 together, and every minor of the rows, are singular
        assert ("proportional columns", True, int) in seen
        assert all(zero for kind, zero, _ in seen if kind == "proportional rows")


def test_matrix_clears_each_rows_denominators_once():
    M = pluecker.Matrix([[Fraction(1, 2), Fraction(-1, 3), 1], [2, 4, Fraction(6, 3)]])
    assert M.integer_rows == [[3, -2, 6], [2, 4, 2]]
    assert M.scale == 6
    assert M == ((Fraction(1, 2), Fraction(-1, 3), 1), (2, 4, 2))


def test_all_int_matrix_holds_no_second_copy_of_its_rows():
    for M in (pluecker.Matrix([[1, 0, 2], [0, 1, -3]]),
              pluecker.matrix([[Fraction(4, 2), 1], [0, 1.0]]),
              pluecker.sample_schubert_cell(3, 7, {1, 3, 5}, 2).matrix):
        assert M.integer_rows is M and M.scale == 1
        assert set(vars(M)) == {"minors", "scale"}
    # a matrix with any non-int entry keeps its own scaled rows
    assert "_scaled" in vars(pluecker.Matrix([[Fraction(1, 2), 1]]))
    assert "_scaled" in vars(pluecker.Matrix([[Fraction(2, 1), 1]]))


@pytest.mark.parametrize("size", range(1, 6))
def test_determinant_of_a_matrix_equals_that_of_its_plain_rows(size):
    rng = random.Random(77 + size)
    for kind, rows in _random_matrices(rng, size):
        M = pluecker.Matrix(rows)
        value = pluecker.determinant(M)
        plain = pluecker.determinant(rows)
        assert value == plain and type(value) is type(plain), (kind, rows)
        # the full minor is kept like any other
        assert M.minors == {frozenset(range(1, size + 1)): value}


@pytest.mark.parametrize("I", ({0, 1}, [1, 1], {4, 5}, {1, 2, 3}, {2}))
def test_sample_schubert_cell_rejects_pivot_sets_outside_the_cells(I):
    # {0, 1} once wrote its pivot into the last column, [1, 1] pivoted two
    # rows in column 1, and {4, 5} raised a bare IndexError
    with pytest.raises(ValueError) as info:
        pluecker.sample_schubert_cell(2, 4, I, 1)
    assert str(info.value) == f"pivot set {list(I)} is not a 2-subset of [1, 4]"


def test_the_empty_matrix_has_determinant_1():
    # each of these raised a bare IndexError from _bareiss
    sample = pluecker.sample_schubert_cell(0, 3, set(), 1)
    for value in (
        pluecker.determinant([]),
        pluecker.plucker(pluecker.matrix([]), set()),
        pluecker.plucker(sample.matrix, set()),
    ):
        assert (value, type(value)) == (1, int)


def test_three_term_random_samples():
    rng = random.Random(11)
    for _ in range(100):
        M = pluecker.sample_schubert_cell(2, 5, {1, 2}, rng).matrix
        assert pluecker.three_term_check(M, (), (2, 3, 4, 5))


def test_three_term_degenerate_matrix():
    # equal columns: the identity is polynomial, so it still holds
    M = pluecker.matrix([[1, 1, 2, 3], [4, 4, 5, 6]])
    assert pluecker.three_term_check(M, (), (1, 2, 3, 4))


def test_three_term_misordered_quadruple_rejected():
    M = pluecker.matrix([[1, 0, 2, 3], [0, 1, 5, 7]])
    with pytest.raises(ValueError):
        pluecker.three_term_check(M, (), (1, 3, 2, 4))


def test_three_term_with_R_many_samples():
    rng = random.Random(23)
    for _ in range(30):
        M = pluecker.sample_schubert_cell(4, 8, {1, 2, 3, 4}, rng).matrix
        assert pluecker.three_term_check(M, (2, 7), (1, 3, 5, 6))


def test_misordered_identity_fails_generically():
    # swapping b and c breaks the identity for a generic matrix
    rng = random.Random(3)
    M = pluecker.sample_schubert_cell(2, 5, {1, 2}, rng).matrix

    def D(*cols):
        return pluecker.plucker(M, set(cols))

    a, b, c, d = 2, 3, 4, 5
    # correct: D_ac D_bd = D_bc D_ad + D_ab D_cd; misordered version differs
    assert D(a, b) * D(c, d) != D(c, b) * D(a, d) + D(a, c) * D(b, d)


def test_sample_schubert_cell_lex_min():
    rng = random.Random(7)
    pt = pluecker.sample_schubert_cell(3, 6, {2, 4, 5}, rng)
    from itertools import combinations

    target = tuple(sorted(pt.cell))
    for J in combinations(range(1, 7), 3):
        val = pluecker.plucker(pt.matrix, J)
        if J < target:
            assert val == 0
        if J == target:
            assert val == 1


def test_sample_schubert_cell_determinism():
    a = pluecker.sample_schubert_cell(2, 5, {1, 3}, 42)
    b = pluecker.sample_schubert_cell(2, 5, {1, 3}, 42)
    c = pluecker.sample_schubert_cell(2, 5, {1, 3}, 43)
    assert a == b
    assert a != c


def test_sample_schubert_cell_necklace_nonzero():
    k, n = 2, 5
    x = (3, 5, 1, 2, 4)
    v = perm.parabolic_longest(k, n)
    neck = perm.grassmann_necklace(perm.positroid_decoration(v, perm.multiply(x, v), k))
    vi = perm.inverse(v)
    pt = pluecker.sample_schubert_cell(k, n, frozenset(vi[:k]), 1, require_nonzero=neck)
    assert all(pluecker.plucker(pt.matrix, J) != 0 for J in neck)


def test_weakly_separated():
    assert pluecker.weakly_separated({2, 3, 5}, {2, 3, 5})
    assert not pluecker.weakly_separated({4, 6, 7}, {2, 3, 5})
    assert not pluecker.weakly_separated({1, 3}, {2, 4})
    assert pluecker.weakly_separated({1, 2}, {3, 4})


def test_singleton_occurrence_check():
    bad = [{1, 3}, {2, 3}, {1, 4}, {4, 5}, {1, 5}]
    assert pluecker.singleton_occurrence_check(bad, 5) == (2,)
    good = [{1, 2}, {2, 3}, {1, 3}]
    assert pluecker.singleton_occurrence_check(good, 3) == ()


def test_project_minor_running_example():
    n = 7
    v = perm.multiply(perm.parabolic_longest(3, n), perm.simple_reflection(3, n))
    assert pluecker.project_minor(v, 3, 3, {2, 4, 7}) == frozenset({2, 4, 7})
    assert pluecker.project_minor(v, 3, 1, {7}) == frozenset({1, 2, 7})
    assert pluecker.project_minor(v, 3, 4, {2, 4, 7, 6}) == frozenset({2, 4, 6})


def test_project_minor_size_failure_returns_none():
    v = perm.identity(5)
    # ell < k but the padding collides with J
    assert pluecker.project_minor(v, 3, 2, {1, 3}) is None


def rectangle_label_word(lam, b, k, n):
    """The columnar prefix permutation ``w_b`` through box b, together with
    whether ``w_b([ell])``, padded or stripped by the [k]-interval rule,
    reproduces the rectangle label ``vert_ne(Rect(b))``."""
    lam = shapes.normalize(lam)
    if not shapes.contains_box(lam, b):
        raise ValueError(f"box {b} outside {lam}")
    prefix = []
    for box in shapes.boxes(lam):
        r, c = box
        prefix.append(k + c - r)
        if box == b:
            break
    # reading order is product order for W^K elements: first box acts last
    w_b = perm.apply_word(tuple(reversed(prefix)), n)
    r, c = b
    ell = k + c - r
    J = frozenset(w_b[:ell])
    target = shapes.rect_vert_ne(r, c, k, n)
    if ell == k:
        check = J == target
    elif ell < k:
        check = J | set(range(ell + 1, k + 1)) == target
    else:
        check = J - set(range(k + 1, ell + 1)) == target
    return w_b, check


def test_rectangle_label_word_golden():
    # k=5, n=8 shape (5,3,2,1); box (2,3) carries s6 and the prefix word gives
    # w_b([6]) - {6} = {1,2,3,7,8}
    lam = (5, 3, 2, 1)
    w_b, ok = rectangle_label_word(lam, (2, 3), 5, 8)
    assert ok
    assert frozenset(w_b[:6]) == frozenset({1, 2, 3, 6, 7, 8})
    assert shapes.rect_vert_ne(2, 3, 5, 8) == frozenset({1, 2, 3, 7, 8})


def test_rectangle_label_word_single_box():
    w_b, ok = rectangle_label_word((1,), (1, 1), 3, 6)
    assert ok
    assert w_b == perm.simple_reflection(3, 6)


def test_rectangle_label_word_exhaustive_small():
    for n in range(3, 8):
        for k in range(1, n):
            for lam in shapes.partitions_in_box(k, n - k):
                for b in shapes.boxes(lam):
                    _, ok = rectangle_label_word(lam, b, k, n)
                    assert ok, (n, k, lam, b)


def test_cyclically_ordered():
    assert pluecker.cyclically_ordered(2, 3, 4, 5)
    assert pluecker.cyclically_ordered(4, 5, 1, 3)
    assert not pluecker.cyclically_ordered(1, 3, 2, 4)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=8, max_size=8))
def test_three_term_hypothesis(entries):
    M = pluecker.matrix([entries[:4], entries[4:]])
    assert pluecker.three_term_check(M, (), (1, 2, 3, 4))
