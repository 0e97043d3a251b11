import pytest

from positroids import shapes


def test_vert_ne():
    assert shapes.vert_ne((), 3, 7) == frozenset({1, 2, 3})
    assert shapes.vert_ne((4, 4, 4), 3, 7) == frozenset({5, 6, 7})
    # single box, traced by hand: steps N N E N E E E
    assert shapes.vert_ne((1,), 3, 7) == frozenset({1, 2, 4})


def test_vert_sw():
    assert shapes.vert_sw((4, 3, 2), 3, 7) == frozenset({1, 3, 5})
    assert shapes.vert_sw((), 3, 7) == frozenset({5, 6, 7})
    assert shapes.vert_sw((4, 4, 4), 3, 7) == frozenset({1, 2, 3})


@pytest.mark.parametrize("k", (-1, 5))
def test_vert_ne_and_vert_sw_reject_k_outside_0_to_n(k):
    # the k x (n - k) box needs 0 <= k <= n: at k = 5, n = 3 the empty shape
    # would have labels outside [n]
    assert not shapes.fits((), k, 3)
    for vert in (shapes.vert_ne, shapes.vert_sw):
        with pytest.raises(ValueError, match="does not fit"):
            vert((), k, 3)


def test_vert_ne_vert_sw_mutually_recoverable():
    for lam in shapes.partitions_in_box(3, 4):
        ne = shapes.vert_ne(lam, 3, 7)
        sw = shapes.vert_sw(lam, 3, 7)
        assert sw == frozenset(8 - i for i in ne)
        assert shapes.from_vert_ne(ne, 3, 7) == lam
        assert shapes.from_vert_sw(sw, 3, 7) == lam


def rect_of(r, c, k, n):
    """Rect(b) for the box b = (r, c), read back from its ``rect_vert_ne``."""
    return shapes.from_vert_ne(shapes.rect_vert_ne(r, c, k, n), k, n)


def test_rect_of():
    assert rect_of(1, 1, 3, 7) == (1,)
    assert rect_of(2, 3, 3, 7) == (3, 3)
    assert rect_of(3, 2, 3, 7) == (2, 2, 2)
    assert not shapes.contains_box((4, 3, 2), (3, 3))


def test_rect_of_is_maximal_rectangle():
    lam = (4, 3, 3, 1)
    for b in shapes.boxes(lam):
        r, c = b
        rect = rect_of(r, c, 4, 9)
        assert shapes.contains(lam, rect)
        assert rect == (c,) * r
        # no larger rectangle with corner b fits
        assert not shapes.contains(lam, (c + 1,) * r) or lam[r - 1] >= c + 1


def test_is_lambda_frozen():
    lam = (4, 3, 2)
    frozen = {b for b in shapes.boxes(lam) if shapes.is_lambda_frozen(lam, b)}
    assert frozen == {(1, 3), (1, 4), (2, 2), (2, 3), (3, 1), (3, 2)}
    assert shapes.is_lambda_frozen((1,), (1, 1))
    lam = (2, 2)
    assert not shapes.is_lambda_frozen(lam, (1, 1))
    assert all(shapes.is_lambda_frozen(lam, b) for b in shapes.boxes(lam) if b != (1, 1))


def test_mutable_part():
    assert shapes.mutable_part((4, 3, 2)) == (2, 1)
    assert shapes.mutable_part((1,)) == ()
    assert shapes.mutable_part((3, 3, 3)) == (2, 2)


@pytest.mark.parametrize("labels", (
    [2, 2, 5],  # a repeated label
    [1, 1, 1],
    [0, 3, 5],  # labels outside [1, n]
    [3, 5, 8],
    [1, 2],  # the wrong size
    [1, 2, 3, 4],
), ids=str)
def test_from_vert_ne_rejects_non_subsets(labels):
    with pytest.raises(ValueError, match="not a 3-subset of \\[7\\]"):
        shapes.from_vert_ne(labels, 3, 7)


def test_normalize_checks_parts_as_given():
    assert shapes.normalize([3, 2, 2, 0, 0]) == (3, 2, 2)
    assert shapes.normalize([0]) == ()
    for bad in ([2, -1, 2], [3, 0, 2], [-1], [1, 2], [0, 1]):
        with pytest.raises(ValueError, match="weakly decreasing nonnegative"):
            shapes.normalize(bad)
