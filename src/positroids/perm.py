"""Symmetric-group machinery for positroid combinatorics.

Permutations of ``[n] = {1, ..., n}`` are plain tuples in one-line notation:
``w[i-1]`` is the image of ``i``.  Reduced words are tuples of simple-reflection
indices in *application order*: ``word = (i_1, i_2, ..., i_t)`` denotes the
product ``s_{i_t} ... s_{i_2} s_{i_1}``, i.e. ``s_{i_1}`` acts first.  (Written
out in product notation the word reads right to left.)
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import combinations
from operator import gt
from typing import Iterable, Iterator, Sequence

Permutation = tuple[int, ...]
ReducedWord = tuple[int, ...]
Partition = tuple[int, ...]  # as in shapes


def is_permutation(w: Sequence[int]) -> bool:
    """
    >>> is_permutation((2, 3, 1)), is_permutation((1, 1, 3))
    (True, False)
    """
    return sorted(w) == list(range(1, len(w) + 1))


def identity(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def longest_element(n: int) -> Permutation:
    """w_0, sending i to n+1-i."""
    return tuple(range(n, 0, -1))


def inverse(w: Permutation) -> Permutation:
    """
    >>> inverse((3, 1, 2))
    (2, 3, 1)
    """
    inv = [0] * len(w)
    for i, wi in enumerate(w, start=1):
        inv[wi - 1] = i
    return tuple(inv)


def multiply(a: Permutation, b: Permutation) -> Permutation:
    """Compose: ``multiply(a, b)(i) = a(b(i))`` (b acts first).

    >>> multiply((2, 1, 3), (1, 3, 2))
    (2, 3, 1)
    """
    if len(a) != len(b):
        raise ValueError(f"size mismatch: {len(a)} vs {len(b)}")
    return tuple(a[bi - 1] for bi in b)


def simple_reflection(i: int, n: int) -> Permutation:
    """s_i, swapping i and i+1."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"s_{i} not a generator of S_{n}")
    w = list(range(1, n + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def apply_word(word: Iterable[int], n: int) -> Permutation:
    """Product of a reduced word in application order (first letter acts first).

    >>> apply_word((2, 1, 3, 2, 4), 5)
    (3, 5, 1, 2, 4)
    """
    # left multiplication by s_i swaps the values i, i+1, that is, their
    # positions: pos[m - 1] is the 0-based position of the value m
    pos = list(range(n))
    for i in word:
        if not 1 <= i <= n - 1:
            raise ValueError(f"letter {i} is not a generator of S_{n}")
        pos[i - 1], pos[i] = pos[i], pos[i - 1]
    w = [0] * n
    for m, p in enumerate(pos, start=1):
        w[p] = m
    return tuple(w)


def coxeter_length(w: Permutation) -> int:
    """Number of inversions.

    >>> coxeter_length((3, 5, 1, 2, 4))
    5
    """
    # scan right to left; each value's inversions are the smaller values seen
    seen: list[int] = []
    count = 0
    for wi in reversed(w):
        count += bisect_left(seen, wi)
        insort(seen, wi)
    return count


def any_reduced_word(w: Permutation) -> ReducedWord:
    """Some reduced word for w, in application order.

    Strips descents from the right: repeatedly finds ``j`` with
    ``w(j) > w(j+1)`` and records it, so the collected letters multiply
    back to ``w`` with the first-collected letter applied first.

    >>> apply_word(any_reduced_word((3, 5, 1, 2, 4)), 5)
    (3, 5, 1, 2, 4)
    """
    p = list(w)
    letters = []
    found = True
    while found:
        found = False
        for j in range(len(p) - 1):
            if p[j] > p[j + 1]:
                p[j], p[j + 1] = p[j + 1], p[j]
                letters.append(j + 1)
                found = True
                break
    return tuple(letters)


def is_length_additive(x: Permutation, v: Permutation) -> bool:
    """True iff the factorization ``w = x v`` satisfies ``l(w) = l(x) + l(v)``.

    >>> is_length_additive((2, 1), (2, 1))
    False
    """
    return coxeter_length(multiply(x, v)) == coxeter_length(x) + coxeter_length(v)


# ---------------------------------------------------------------------------
# Parabolic cosets of W_K = S_{1..k} x S_{k+1..n}
# ---------------------------------------------------------------------------

def parabolic_longest(k: int, n: int) -> Permutation:
    """w_K, the longest element of S_{1..k} x S_{k+1..n}.

    >>> parabolic_longest(2, 5)
    (2, 1, 5, 4, 3)
    """
    return tuple(range(k, 0, -1)) + tuple(range(n, k, -1))


def is_grassmannian(x: Permutation, k: int) -> bool:
    """Membership in ^K W: at most one descent, located at position k.

    >>> is_grassmannian((2, 4, 7, 8, 1, 3, 5, 6), 4)
    True
    """
    return all(x[i - 1] <= x[i] for i in range(1, len(x)) if i != k)


def is_max_rep(v: Permutation, k: int) -> bool:
    """Membership in W^K_max: v^{-1} decreases on [1..k] and on [k+1..n];
    ValueError unless ``0 <= k <= n``.

    >>> is_max_rep((8, 3, 2, 7, 6, 5, 4, 1), 3)
    True
    """
    return _decreases_off_k(inverse(v), k)


def _decreases_off_k(vi: Permutation, k: int) -> bool:
    """``vi[i-1] > vi[i]`` at every i but k: :func:`is_max_rep` on ``v^{-1}``."""
    if not 0 <= k <= len(vi):
        raise ValueError(f"need 0 <= k <= n; got k={k}, n={len(vi)}")
    return all(vi[i - 1] > vi[i] for i in range(1, len(vi)) if i != k)


def check_skew_pair(v: Permutation, x: Permutation, k: int) -> tuple[Partition, Partition]:
    """Raise ValueError unless ``(v, w = x v)`` is a length-additive skew
    pair: v and x in S_n with ``0 < k < n``, v in W^K_max, x in ^K W and
    ``l(x v) = l(x) + l(v)``; return its shapes ``(lambda_v, lambda_x)``
    (``v^{-1}([k])`` read by ``vert_sw``, ``x([k])`` by ``vert_ne``), which
    :func:`skew_pair` inverts.  In these cosets the lengths add iff lambda_x
    lies in lambda_v, the path of x above that of v (arXiv:1902.00807); the
    paper's figure:

    >>> check_skew_pair((8, 3, 2, 7, 6, 5, 4, 1), (1, 3, 6, 2, 4, 5, 7, 8), 3)
    ((4, 4), (3, 1))
    >>> check_skew_pair((2, 1), (2, 1), 1)
    Traceback (most recent call last):
    ...
    ValueError: factorization x*v is not length-additive
    """
    n = len(v)
    if len(x) != n or not 0 < k < n:
        raise ValueError(f"need v, x in S_n and 0 < k < n; got v={v}, x={x}, k={k}")
    vi = inverse(v)
    if not _decreases_off_k(vi, k):
        raise ValueError(f"{v} is not in W^K_max")
    if not is_grassmannian(x, k):
        raise ValueError(f"{x} is not in ^K W")
    from positroids import shapes

    lam_v = shapes.from_vert_sw(vi[:k], k, n)
    lam_x = shapes.from_vert_ne(x[:k], k, n)
    if not shapes.contains(lam_v, lam_x):
        raise ValueError("factorization x*v is not length-additive")
    return lam_v, lam_x


def skew_pair(k: int, n: int, lam_v: Partition, lam_x: Partition) -> tuple[Permutation, Permutation]:
    """The skew pair ``(v, x)`` of the shapes ``(lambda_v, lambda_x)``, the
    inverse of :func:`check_skew_pair`: ValueError unless ``0 < k < n`` and
    lambda_x is contained in lambda_v, both in the ``k x (n-k)`` box.

    >>> skew_pair(3, 8, (4, 4), (3, 1))
    ((8, 3, 2, 7, 6, 5, 4, 1), (1, 3, 6, 2, 4, 5, 7, 8))
    """
    from positroids import shapes

    if not (0 < k < n and shapes.contains(lam_v, lam_x)):
        raise ValueError(f"need 0 < k < n and {lam_x} inside {lam_v}; got k={k}, n={n}")
    v = max_rep_from_image(shapes.vert_sw(lam_v, k, n), k, n)
    x = grassmannian_from_image(shapes.vert_ne(lam_x, k, n), k, n)
    return v, x


def grassmannian_from_image(image: Iterable[int], k: int, n: int) -> Permutation:
    """The element of ^K W sending [k] to the given k-subset."""
    top = sorted(image)
    if len(top) != k or not all(1 <= i <= n for i in top):
        raise ValueError(f"not a {k}-subset of [{n}]: {top}")
    rest = sorted(set(range(1, n + 1)) - set(top))
    return tuple(top + rest)


def max_rep_from_image(image: Iterable[int], k: int, n: int) -> Permutation:
    """The element v of W^K_max with ``v^{-1}([k])`` equal to the given set."""
    top = sorted(image, reverse=True)
    if len(top) != k:
        raise ValueError(f"not a {k}-subset: {top}")
    rest = sorted(set(range(1, n + 1)) - set(top), reverse=True)
    return inverse(tuple(top + rest))


# ---------------------------------------------------------------------------
# Columnar and standard reduced expressions
# ---------------------------------------------------------------------------

def columnar_expression(x: Permutation, k: int) -> ReducedWord:
    """Columnar reduced word for a Grassmannian permutation x in ^K W.

    The shape ``lambda = shape of x([k])`` is filled with ``s_{k+c-r}`` in box
    (row r, column c); boxes are read column by column, top to bottom, left to
    right, and the resulting letters multiply with the first-read box acting
    first.

    >>> columnar_expression((3, 5, 1, 2, 4), 2)
    (2, 1, 3, 2, 4)
    >>> apply_word(_, 5)
    (3, 5, 1, 2, 4)
    """
    n = len(x)
    if not is_grassmannian(x, k):
        raise ValueError(f"{x} is not Grassmannian of type ({k}, {n})")
    from positroids import shapes

    return _columnar_word(shapes.from_vert_ne(x[:k], k, n), k)


def _columnar_word(lam: Partition, k: int) -> ReducedWord:
    """The columnar word of a shape: ``s_{k+c-r}`` in box (r, c), in
    columnar order."""
    from positroids import shapes

    return tuple(k + c - r for r, c in shapes.boxes(lam))


def parabolic_longest_word(k: int, n: int) -> ReducedWord:
    """A fixed reduced word for w_K: the staircase word for the longest element
    of S_{1..k} followed by the one for S_{k+1..n}."""
    letters: list[int] = []
    for lo, hi in ((1, k), (k + 1, n)):
        for top in range(lo, hi):
            letters.extend(range(top, lo - 1, -1))
    return tuple(letters)


def standard_reduced_expression(x: Permutation, v: Permutation, k: int) -> ReducedWord:
    """Reduced word ``x . w_K . v'`` for ``w = x v``, in application order
    (so the letters of v' come first).

    Requires a skew pair (:func:`check_skew_pair`); ``v'`` is the W^K_min
    part of ``v = w_K v'``, and its word is the reversed columnar word of the
    shape of ``v'^{-1}([k]) = v^{-1}([k])``: lambda_v's complement in the
    ``k x (n-k)`` box, turned through a half turn.

    >>> standard_reduced_expression((1, 3, 2, 4), (2, 4, 1, 3), 2)
    (2, 1, 3, 2)
    """
    return _standard_word(x, v, k)[0]


def _standard_word(x: Permutation, v: Permutation, k: int) -> tuple[ReducedWord, Partition]:
    """:func:`standard_reduced_expression` and lambda_x, from one check."""
    n = len(x)
    lam_v, lam_x = check_skew_pair(v, x, k)
    lam_v_prime = tuple(n - k - p for p in (0,) * (k - len(lam_v)) + lam_v[::-1])
    word = (_columnar_word(lam_v_prime, k)[::-1] + parabolic_longest_word(k, n)
            + _columnar_word(lam_x, k))
    assert len(word) == coxeter_length(multiply(x, v))
    return word, lam_x


# ---------------------------------------------------------------------------
# Positive distinguished subexpressions and Bruhat order
# ---------------------------------------------------------------------------

def positive_distinguished_subexpression(v: Permutation, w_word: Sequence[int]) -> frozenset[int]:
    """Positions (1-based, in application order) of the rightmost reduced
    subexpression for v inside the given reduced word.

    Greedy from the right: position j is used whenever ``s_{i_j}`` is a right
    descent of what remains of v.  Raises if a letter is not a generator of
    S_n or v is not below the word's product in Bruhat order.
    """
    n = len(v)
    bad = [i for i in w_word if not 1 <= i < n]
    if bad:
        raise ValueError(f"letter {bad[0]} is not a generator of S_{n}")
    u = list(v)
    used = set()
    for j, i in enumerate(w_word, start=1):
        if u[i - 1] > u[i]:
            u[i - 1], u[i] = u[i], u[i - 1]
            used.add(j)
    if tuple(u) != identity(n):
        raise ValueError("v is not a Bruhat subword of the given word")
    return frozenset(used)


def summand_index_set(v: Permutation, w_word: Sequence[int]) -> tuple[int, ...]:
    """Complement of the PDS positions, sorted: the indices j whose letter is
    *not* part of the rightmost subexpression for v."""
    used = positive_distinguished_subexpression(v, w_word)
    return tuple(j for j in range(1, len(w_word) + 1) if j not in used)


def bruhat_leq(v: Permutation, w: Permutation) -> bool:
    """Bruhat order by Ehresmann's tableau criterion: ``v <= w`` iff for every
    i the sorted values of ``v(1..i)`` are entrywise at most those of
    ``w(1..i)``.

    >>> bruhat_leq((1, 3, 2), (3, 2, 1))
    True
    """
    if len(v) != len(w):
        raise ValueError("size mismatch")
    vs: list[int] = []
    ws: list[int] = []
    for vi, wi in zip(v, w):
        insort(vs, vi)
        insort(ws, wi)
        if any(map(gt, vs, ws)):
            return False
    return True


# ---------------------------------------------------------------------------
# Decorated and bounded affine permutations, Grassmann necklaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecoratedPermutation:
    """A permutation with fixed points colored black or white."""

    perm: Permutation
    white_fixed: frozenset[int]

    def __post_init__(self) -> None:
        fixed = {i for i, wi in enumerate(self.perm, start=1) if wi == i}
        if not self.white_fixed <= fixed:
            raise ValueError(f"white fixed points {set(self.white_fixed)} not all fixed by {self.perm}")

    @property
    def n(self) -> int:
        return len(self.perm)

    def antiexcedances(self) -> frozenset[int]:
        """Values i with sigma^{-1}(i) > i, together with white fixed points."""
        inv = inverse(self.perm)
        return frozenset(
            i for i in range(1, self.n + 1) if inv[i - 1] > i or i in self.white_fixed
        )


def decorate(perm: Permutation, white_fixed: Iterable[int] = ()) -> DecoratedPermutation:
    return DecoratedPermutation(perm, frozenset(white_fixed))


@dataclass(frozen=True)
class BoundedAffinePermutation:
    base: DecoratedPermutation
    window: tuple[int, ...]

    def __call__(self, i: int) -> int:
        """Value at any integer, by n-periodicity."""
        n = self.base.n
        q, r = divmod(i - 1, n)
        return self.window[r] + q * n


def bounded_affine(sigma: DecoratedPermutation) -> BoundedAffinePermutation:
    """Lift adding n to every antiexcedance position.

    >>> bounded_affine(decorate((3, 4, 5, 1, 2))).window
    (3, 4, 5, 6, 7)
    """
    n = sigma.n
    window = []
    for i in range(1, n + 1):
        si = sigma.perm[i - 1]
        if si > i or (si == i and i not in sigma.white_fixed):
            window.append(si)
        else:
            window.append(si + n)
    return BoundedAffinePermutation(sigma, tuple(window))


GrassmannNecklace = tuple[frozenset[int], ...]


def grassmann_necklace(sigma: DecoratedPermutation) -> GrassmannNecklace:
    """The necklace (J_1, ..., J_n): J_1 is the antiexcedance set and
    ``J_{i+1} = (J_i - {i}) + {sigma(i)}`` whenever ``i in J_i``.

    >>> [sorted(J) for J in grassmann_necklace(decorate((3, 4, 5, 1, 2)))]
    [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]
    """
    n = sigma.n
    entries = [sigma.antiexcedances()]
    for i in range(1, n):
        J = entries[-1]
        if i in J:
            J = (J - {i}) | {sigma.perm[i - 1]}
        entries.append(J)
    return tuple(entries)


def positroid_decoration(v: Permutation, w: Permutation, k: int) -> DecoratedPermutation:
    """Decorated trip permutation ``v^{-1} w`` of the positroid for (v, w),
    with white fixed points exactly those lying in ``v^{-1}([k])``.
    """
    vi = inverse(v)
    if not _decreases_off_k(vi, k):
        raise ValueError(f"{v} is not in W^K_max")
    if not bruhat_leq(v, w):
        raise ValueError("need v <= w in Bruhat order")
    pi = multiply(vi, w)
    vik = set(vi[:k])
    white = frozenset(i for i, p in enumerate(pi, start=1) if p == i and i in vik)
    return DecoratedPermutation(pi, white)


# ---------------------------------------------------------------------------
# Enumeration helpers
# ---------------------------------------------------------------------------

def all_min_reps(k: int, n: int) -> Iterator[Permutation]:
    """All of W^K_min, as inverses of Grassmannian permutations."""
    for top in combinations(range(1, n + 1), k):
        yield inverse(grassmannian_from_image(top, k, n))
