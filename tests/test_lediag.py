import itertools
import random

import pytest

from positroids import lediag, perm, shapes
from conftest import play_le_moves, skew_pairs


def test_is_le_diagram():
    assert lediag.is_le_diagram(lediag.parse("+ +\n+ +"))
    assert lediag.is_le_diagram(lediag.parse("0 0\n0 0"))
    assert not lediag.is_le_diagram(lediag.parse("+ +\n+ 0"))
    # the figure pair: the skew filling fails, its Le-ification passes
    O = lediag.parse("+ + + 0\n+ 0 0 0\n0 0 0\n0")
    M = lediag.parse("0 0 + 0\n+ + + 0\n0 0 0\n0")
    assert not lediag.is_le_diagram(O)
    assert lediag.is_le_diagram(M)


def ref_is_le_diagram(O):
    """The Le-property as first written: every 0 box rescans its row and its
    column."""
    for r, part in enumerate(O.shape, start=1):
        for c in range(1, part + 1):
            if (r, c) in O.plus:
                continue
            above = any((r2, c) in O.plus for r2 in range(1, r))
            left = any((r, c2) in O.plus for c2 in range(1, c))
            if above and left:
                return False
    return True


def test_is_le_diagram_matches_reference_on_every_filling_in_a_3x4_box():
    fillings = les = 0
    for shape in shapes.partitions_in_box(3, 4):
        for O in lediag.all_fillings(shape):
            le = lediag.is_le_diagram(O)
            assert le == ref_is_le_diagram(O), O
            fillings += 1
            les += le
    assert 0 < les < fillings


def test_reading_word_extremes():
    shape = (3, 2)
    all_plus = lediag.OplusDiagram(shape, frozenset(shapes.boxes(shape)))
    assert lediag.reading_word(all_plus, 2, 5) == perm.identity(5)
    all_zero = lediag.OplusDiagram(shape, frozenset())
    assert lediag.reading_word(all_zero, 2, 5) == perm.grassmannian_from_image(
        shapes.vert_ne(shape, 2, 5), 2, 5
    )


def test_reading_word_order_independent():
    rng = random.Random(3)
    shape = (4, 3, 1)
    for _ in range(12):
        boxes = list(shapes.boxes(shape))
        plus = frozenset(b for b in boxes if rng.random() < 0.5)
        O = lediag.OplusDiagram(shape, plus)
        base = lediag.reading_word(O, 3, 8)
        for order in lediag.sample_reading_orders(shape, rng, 5):
            assert lediag.reading_word(O, 3, 8, order) == base


def test_le_moves_figure_cases():
    # the two smallest moves
    O = lediag.parse("0 +\n+ 0")
    (site,) = lediag.le_moves_applicable(O)
    assert lediag.apply_le_move(O, site) == lediag.parse("+ +\n+ +")
    O = lediag.parse("+ +\n+ 0")
    (site,) = lediag.le_moves_applicable(O)
    assert lediag.apply_le_move(O, site) == lediag.parse("0 +\n+ +")


def test_le_move_preserves_reading_word():
    rng = random.Random(5)
    shape = (4, 4, 2)
    for _ in range(20):
        boxes = list(shapes.boxes(shape))
        O = lediag.OplusDiagram(shape, frozenset(b for b in boxes if rng.random() < 0.5))
        r = lediag.reading_word(O, 3, 7)
        for site in lediag.le_moves_applicable(O):
            assert lediag.reading_word(lediag.apply_le_move(O, site), 3, 7) == r


def reference_le_moves(O):
    """Every Le-move site by a scan of all rectangles."""
    sites = []
    rows = len(O.shape)
    for r1 in range(1, rows + 1):
        for r2 in range(r1 + 1, rows + 1):
            for c1 in range(1, O.shape[r2 - 1] + 1):
                for c2 in range(c1 + 1, O.shape[r2 - 1] + 1):
                    corners = ((r1, c1), (r1, c2), (r2, c1), (r2, c2))
                    if ((r2, c2) not in O.plus and (r1, c2) in O.plus and (r2, c1) in O.plus
                            and all((r, c) in corners or (r, c) not in O.plus
                                    for r in range(r1, r2 + 1) for c in range(c1, c2 + 1))):
                        sites.append(((r1, c1), (r2, c2)))
    return tuple(sites)


def test_apply_le_move_raises_exactly_off_the_listed_sites():
    rng = random.Random(9)
    shape = (4, 4, 2)
    near = [(r, c) for r in range(0, 5) for c in range(0, 6)]  # the shape and a rim around it
    moved = 0
    for _ in range(40):
        O = lediag.OplusDiagram(shape, frozenset(b for b in shapes.boxes(shape)
                                                 if rng.random() < 0.5))
        sites = lediag.le_moves_applicable(O)
        assert sites == reference_le_moves(O)
        for site in itertools.product(near, near):
            if site in sites:
                a, b = site
                assert lediag.apply_le_move(O, site).plus == (O.plus | {b}) ^ {a}
                moved += 1
            else:
                with pytest.raises(ValueError, match="does not apply"):
                    lediag.apply_le_move(O, site)
    assert moved >= 20


def test_leify_idempotent_and_fixed_on_le():
    M = lediag.parse("0 0 + 0\n+ + + 0\n0 0 0\n0")
    assert lediag.leify(M) == M


def test_leify_golden():
    x = (1, 2, 4, 7, 3, 5, 6, 8)
    v = (4, 3, 8, 2, 7, 6, 1, 5)
    O = lediag.skew_oplus(4, 8, x, v)
    assert O == lediag.parse("+ + + 0\n+ 0 0 0\n0 0 0\n0")
    assert lediag.leify(O) == lediag.parse("0 0 + 0\n+ + + 0\n0 0 0\n0")


def test_leify_confluence_random():
    rng = random.Random(7)
    shape = (4, 3, 3, 1)
    for _ in range(50):
        boxes = list(shapes.boxes(shape))
        O = lediag.OplusDiagram(shape, frozenset(b for b in boxes if rng.random() < 0.5))
        M = lediag.leify(O)
        for trial in range(10):
            assert play_le_moves(O, random.Random(trial)) == M


def test_skew_oplus_trivial():
    k, n = 2, 5
    v = perm.parabolic_longest(k, n)
    O = lediag.skew_oplus(k, n, perm.identity(n), v)
    assert not O.plus
    assert O.shape == shapes.from_vert_sw(perm.inverse(v)[:k], k, n)


def test_le_to_positroid_all_plus_is_schubert():
    # all-+ of shape lam: reading word e, so the datum has w = w0
    lam = (3, 2)
    k, n = 2, 5
    M = lediag.OplusDiagram(lam, frozenset(shapes.boxes(lam)))
    v, w = lediag.le_to_positroid(M, k, n)
    assert w == perm.longest_element(n)
    assert perm.is_max_rep(v, k)
    assert frozenset(perm.inverse(v)[:k]) == shapes.vert_sw(lam, k, n)


def test_le_to_positroid_opposite_schubert():
    # full rectangle, all boxes above the path of u^{-1}([k]) zero
    k, n = 2, 5
    rect = (3, 3)
    u = perm.inverse((2, 4, 1, 3, 5))  # a W^K_min element
    lam_u = shapes.from_vert_sw(perm.inverse(u)[:k], k, n)
    plus = frozenset(set(shapes.boxes(rect)) - set(shapes.boxes(lam_u)))
    M = lediag.OplusDiagram(rect, plus)
    assert lediag.is_le_diagram(M)
    v, w = lediag.le_to_positroid(M, k, n)
    dec = perm.positroid_decoration(v, w, k)
    expect = perm.positroid_decoration(
        perm.parabolic_longest(k, n), perm.multiply(perm.parabolic_longest(k, n), u), k
    )
    assert dec == expect


def test_skew_roundtrip_exhaustive_small():
    for n in range(2, 7):
        for k, v, x in skew_pairs(n):
            M = lediag.leify(lediag.skew_oplus(k, n, x, v))
            dec = lediag.le_decoration(M, k, n)
            assert dec == perm.positroid_decoration(v, perm.multiply(x, v), k)


def test_not_le_rejected():
    with pytest.raises(ValueError):
        lediag.le_to_positroid(lediag.parse("+ +\n+ 0"), 2, 4)
