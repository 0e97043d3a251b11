"""Exact rational linear algebra on ``k x n`` matrices: Pluecker coordinates,
Schubert-cell sampling, three-term relations, weak separation, and the
projection from generalized minors to Pluecker coordinates.

All arithmetic is exact; there is no floating point anywhere in this module.
An exact value that is an integer is an ``int``, any other rational a
``fractions.Fraction``: entries, minors and exchange quotients alike.  One
Bareiss elimination on ints computes every minor.

A :class:`Matrix` keeps its maximal minors: :func:`plucker` computes each
column set's minor once per matrix and answers later calls from the matrix's
table, so a sample evaluated at many steps pays once per column set.  The
table lives and dies with its matrix; there is no module-level memo.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

# draws of sample_schubert_cell before it gives up on its nonvanishing
# requirements
SAMPLE_TRIES = 200


class Matrix(tuple):
    """A ``k x n`` matrix: a tuple of row tuples that keeps its maximal minors.

    ``minors`` maps each column set (a frozenset of 1-based columns) already
    asked of :func:`plucker` to its minor, so it holds at most C(n, k)
    entries.  Rows are stored as tuples, so the matrix cannot change under its
    table.  Equality and hashing are those of the plain tuple of rows.

    >>> M = Matrix([[1, 0, 2], [0, 1, 3]])
    >>> M == ((1, 0, 2), (0, 1, 3)), plucker(M, {2, 3}), M.minors
    (True, -2, {frozenset({2, 3}): -2})
    """

    minors: dict[frozenset[int], int | Fraction]

    def __new__(cls, rows: Iterable[Iterable]) -> Matrix:
        self = super().__new__(cls, map(tuple, rows))
        self.minors = {}
        return self


def matrix(rows: Iterable[Iterable]) -> Matrix:
    """A :class:`Matrix` of the entries as exact values (see the module)."""
    return Matrix((exact_quotient(*Fraction(x).as_integer_ratio()) for x in row) for row in rows)


def exact_quotient(num: int, den: int) -> int | Fraction:
    """num / den: an ``int`` when den divides num, else a reduced ``Fraction``."""
    q, r = divmod(num, den)
    return q if r == 0 else Fraction(num, den)


def determinant(rows: Sequence[Sequence[int | Fraction]]) -> int | Fraction:
    """Bareiss fraction-free elimination on Python ints; exact for rational
    entries.  Each row is first scaled by the lcm of its entries'
    denominators, and the integer determinant divided by their product.

    >>> determinant(matrix([[1, 2], [3, 4]]))
    -2
    >>> determinant(matrix([[Fraction(1, 2), 1], [1, Fraction(1, 3)]]))
    Fraction(-5, 6)
    """
    size = len(rows)
    m = []
    scale = 1
    for row in rows:
        if len(row) != size:
            raise ValueError("determinant needs a square matrix")
        d = lcm(*[x.denominator for x in row])
        m.append([x.numerator * (d // x.denominator) for x in row])
        scale *= d
    return exact_quotient(_bareiss(m), scale)


def _bareiss(m: list[list[int]]) -> int:
    """Determinant of the square int matrix m, eliminated in place; ``//`` is
    exact, since each step's numerator is a multiple of ``prev``.  The last
    pivot is the determinant, and the 0x0 matrix, with no pivot, has 1."""
    size = len(m)
    sign, prev = 1, 1
    for j in range(size):
        if m[j][j] == 0:
            for i in range(j + 1, size):
                if m[i][j] != 0:
                    m[j], m[i] = m[i], m[j]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = m[j]
        pivot = pivot_row[j]
        for i in range(j + 1, size):
            row = m[i]
            lead = row[j]
            for c in range(j + 1, size):
                row[c] = (row[c] * pivot - lead * pivot_row[c]) // prev
        prev = pivot
    return sign * prev


def plucker(M: Sequence[Sequence[int | Fraction]], I: Iterable[int]) -> int | Fraction:
    """Maximal minor in the column set I (1-based columns), an exact value.

    A :class:`Matrix` answers from its table of minors and computes only a
    column set it has not been asked before; any other row sequence computes
    the minor every time.

    >>> plucker(matrix([[1, 0, -1, -2], [0, 1, 3, 1]]), {3, 4})
    5
    """
    key = frozenset(I)
    table = M.minors if isinstance(M, Matrix) else {}
    value = table.get(key)
    if value is None:
        cols = sorted(key)
        n = len(M[0]) if M else 0
        if len(cols) != len(M) or cols and not 1 <= cols[0] <= cols[-1] <= n:
            raise ValueError(f"need {len(M)} distinct columns in 1..{n}, got {cols}")
        value = table[key] = determinant([[row[c - 1] for c in cols] for row in M])
    return value


def three_term_check(M: Matrix, R: Iterable[int], quad: Sequence[int]) -> bool:
    """Verify ``D_{Rac} D_{Rbd} = D_{Rbc} D_{Rad} + D_{Rab} D_{Rcd}`` exactly,
    for a cyclically ordered quadruple (a, b, c, d) disjoint from R."""
    R = frozenset(R)
    a, b, c, d = quad
    if R & {a, b, c, d}:
        raise ValueError("index sets overlap")
    if not cyclically_ordered(a, b, c, d):
        raise ValueError(f"{quad} is not cyclically ordered")

    def D(*extra: int) -> int | Fraction:
        return plucker(M, R | set(extra))

    return D(a, c) * D(b, d) == D(b, c) * D(a, d) + D(a, b) * D(c, d)


def cyclically_ordered(*values: int) -> bool:
    """True iff the values, rotated so the smallest comes first, increase.

    >>> cyclically_ordered(3, 5, 1, 2)
    True
    >>> cyclically_ordered(3, 1, 5, 2)
    False
    """
    lo = values.index(min(values))
    rotated = values[lo:] + values[:lo]
    return all(rotated[i] < rotated[i + 1] for i in range(len(rotated) - 1))


@dataclass(frozen=True)
class SamplePoint:
    matrix: Matrix
    cell: frozenset[int]


def sample_schubert_cell(
    k: int,
    n: int,
    I: Iterable[int],
    rng: random.Random | int,
    require_nonzero: Iterable[frozenset[int]] = (),
) -> SamplePoint:
    """Random point of the Schubert cell with pivot set I: a reduced
    row-echelon matrix with pivot columns I and nonzero random integer free
    entries, so the lexicographically minimal nonvanishing Pluecker coordinate
    is exactly ``D_I``.  Entries are ints.  I must be a k-subset of [1, n].

    When ``require_nonzero`` subsets are given (e.g. a Grassmann necklace),
    the point is resampled until all of those coordinates are nonzero.
    """
    if isinstance(rng, int):
        rng = random.Random(rng)
    I = list(I)
    pivots = sorted(set(I))
    if len(I) != k or len(pivots) != k or any(not 1 <= p <= n for p in pivots):
        raise ValueError(f"pivot set {I} is not a {k}-subset of [1, {n}]")
    required = [frozenset(s) for s in require_nonzero]
    for _ in range(SAMPLE_TRIES):
        rows = []
        for p in pivots:
            row = [0] * n
            row[p - 1] = 1
            for c in range(p + 1, n + 1):
                if c not in pivots:
                    val = 0
                    while val == 0:
                        val = rng.randint(-10**6, 10**6)
                    row[c - 1] = val
            rows.append(row)
        M = Matrix(rows)
        if all(plucker(M, s) != 0 for s in required):
            return SamplePoint(M, frozenset(pivots))
    raise RuntimeError(f"no sample with the required nonvanishing coordinates in {SAMPLE_TRIES} tries")


# ---------------------------------------------------------------------------
# Weak separation and realizability
# ---------------------------------------------------------------------------

def weakly_separated(I: Iterable[int], J: Iterable[int]) -> bool:
    """No pattern a < c < b < d nor c < a < d < b with a, b in I-J and
    c, d in J-I.

    >>> weakly_separated({4, 6, 7}, {2, 3, 5})
    False
    >>> weakly_separated({1, 3}, {2, 4})
    False
    """
    A = sorted(set(I) - set(J))
    B = sorted(set(J) - set(I))

    def crossed(xs: list[int], ys: list[int]) -> bool:
        return any(x1 < y1 < x2 < y2 for x1 in xs for x2 in xs for y1 in ys for y2 in ys)

    return not crossed(A, B) and not crossed(B, A)


def singleton_occurrence_check(labels: Iterable[Iterable[int]], n: int) -> tuple[int, ...]:
    """Realizability pre-check for a would-be face-label set of a lollipop-free
    generalized plabic graph with no internal faces: every boundary label must
    occur in at least two faces.  Returns the offending elements (those that
    occur exactly once); nonempty means non-realizable.

    >>> singleton_occurrence_check([{1, 3}, {2, 3}, {1, 4}, {4, 5}, {1, 5}], 5)
    (2,)
    """
    counts = [0] * (n + 1)
    for lab in labels:
        for i in lab:
            counts[i] += 1
    return tuple(i for i in range(1, n + 1) if counts[i] == 1)


# ---------------------------------------------------------------------------
# Generalized minors and rectangle labels
# ---------------------------------------------------------------------------

def project_minor(
    v: Sequence[int], k: int, ell: int, J: Iterable[int]
) -> frozenset[int] | None:
    """Pluecker coordinate equal to the generalized minor with row set
    ``v^{-1}([ell])`` and column set J, on the Grassmannian of k-planes.

    Case split on ell: pad with ``v^{-1}([k] - [ell])`` when ell < k, strip
    ``v^{-1}([ell] - [k])`` when ell > k; returns None when the size comes out
    wrong (the minor does not project to a single Pluecker coordinate).
    """
    from positroids.perm import inverse

    J = frozenset(J)
    if len(J) != ell:
        raise ValueError(f"column set {sorted(J)} does not have size {ell}")
    vi = inverse(tuple(v))
    if ell == k:
        return J
    if ell < k:
        padded = J | {vi[i - 1] for i in range(ell + 1, k + 1)}
        return padded if len(padded) == k else None
    strip = {vi[i - 1] for i in range(k + 1, ell + 1)}
    if not strip <= J:
        return None
    return J - strip
