import pytest

from positroids import perm, shapes


def test_vert_ne():
    assert shapes.vert_ne((), 3, 7) == frozenset({1, 2, 3})
    assert shapes.vert_ne((4, 4, 4), 3, 7) == frozenset({5, 6, 7})
    # single box, traced by hand: steps N N E N E E E
    assert shapes.vert_ne((1,), 3, 7) == frozenset({1, 2, 4})


def test_vert_sw():
    assert shapes.vert_sw((4, 3, 2), 3, 7) == frozenset({1, 3, 5})
    assert shapes.vert_sw((), 3, 7) == frozenset({5, 6, 7})
    assert shapes.vert_sw((4, 4, 4), 3, 7) == frozenset({1, 2, 3})


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


def test_path_leq():
    J = shapes.path_ne({1, 3, 6}, 3, 8)
    L = shapes.path_sw({2, 3, 8}, 3, 8)
    assert shapes.path_leq(J, J)
    assert shapes.path_leq(J, L)
    assert not shapes.path_leq(L, J)


def test_lengthadditive_from_paths_figure():
    J = shapes.path_ne({1, 3, 6}, 3, 8)
    L = shapes.path_sw({2, 3, 8}, 3, 8)
    v, w = shapes.lengthadditive_from_paths(J, L, 3, 8)
    assert v == (8, 3, 2, 7, 6, 5, 4, 1)
    x = perm.multiply(w, perm.inverse(v))
    assert x == (1, 3, 6, 2, 4, 5, 7, 8)
    assert perm.is_length_additive(x, v)


def test_lengthadditive_roundtrip_exhaustive():
    # bijection property for n <= 6: paths -> (v, w) -> paths is the identity,
    # and every length-additive pair arises
    for n in range(2, 7):
        count = 0
        for k in range(1, n):
            for lam_v in shapes.partitions_in_box(k, n - k):
                L = shapes.path_sw(shapes.vert_sw(lam_v, k, n), k, n)
                for lam_x in shapes.subpartitions(lam_v):
                    J = shapes.path_ne(shapes.vert_ne(lam_x, k, n), k, n)
                    v, w = shapes.lengthadditive_from_paths(J, L, k, n)
                    assert perm.is_max_rep(v, k)
                    x = perm.multiply(w, perm.inverse(v))
                    assert perm.is_length_additive(x, v)
                    J2, L2 = shapes.paths_from_lengthadditive(v, w, k, n)
                    assert J2.as_ne().vertical_labels() == J.vertical_labels()
                    assert L2.as_ne().shape() == lam_v
                    count += 1
        # forward direction hits every pair exactly once per k
        direct = 0
        from itertools import permutations

        for k in range(1, n):
            for v in permutations(range(1, n + 1)):
                if not perm.is_max_rep(v, k):
                    continue
                for x in permutations(range(1, n + 1)):
                    if perm.is_grassmannian(x, k) and perm.is_length_additive(x, v):
                        direct += 1
        assert count == direct


def test_forward_direction_path_leq():
    # for all length-additive (v, xv): the x-path lies above the v-path
    n = 6
    import itertools

    for k in (2, 3):
        for v in itertools.permutations(range(1, n + 1)):
            if not perm.is_max_rep(v, k):
                continue
            for lam_x in shapes.partitions_in_box(k, n - k):
                x = perm.grassmannian_from_image(shapes.vert_ne(lam_x, k, n), k, n)
                J, L = shapes.paths_from_lengthadditive(v, perm.multiply(x, v), k, n)
                assert perm.is_length_additive(x, v) == shapes.path_leq(J, L)


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
