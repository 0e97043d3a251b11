"""Exact rational linear algebra on ``k x n`` matrices: Pluecker coordinates,
Schubert-cell sampling, three-term relations, weak separation, and the
projection from generalized minors to Pluecker coordinates.

All arithmetic is exact; there is no floating point anywhere in this module.
An exact value that is an integer is an ``int``, any other rational a
``fractions.Fraction``: entries, minors and exchange quotients alike.  One
Bareiss elimination on ints computes every minor, on rows whose denominators
each :class:`Matrix` clears once, when it is built.

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

    The denominators are cleared once, when the matrix is built: each row is
    scaled to integers by the lcm of its entries' denominators, and ``scale``
    is the product of those lcms.  ``integer_rows`` are the scaled rows, and
    the matrix itself when every entry is an int (scale 1), so a Schubert-cell
    sample holds no second copy of its rows.

    >>> M = Matrix([[1, 0, 2], [0, 1, 3]])
    >>> M == ((1, 0, 2), (0, 1, 3)), plucker(M, {2, 3}), M.minors
    (True, -2, {frozenset({2, 3}): -2})
    >>> N = Matrix([[Fraction(1, 2), 1], [1, Fraction(2, 3)]])
    >>> N.integer_rows, N.scale
    ([[1, 2], [3, 2]], 6)
    """

    minors: dict[frozenset[int], int | Fraction]
    scale: int
    # the scaled rows when they differ from the matrix's own
    _scaled: list[list[int]] | None = None

    def __new__(cls, rows: Iterable[Iterable]) -> Matrix:
        self = super().__new__(cls, map(tuple, rows))
        self.minors = {}
        self.scale = 1
        if not all(type(x) is int for row in self for x in row):
            self._scaled = []
            for row in self:
                d = lcm(*[x.denominator for x in row])
                self._scaled.append([x.numerator * (d // x.denominator) for x in row])
                self.scale *= d
        return self

    @property
    def integer_rows(self) -> Sequence[Sequence[int]]:
        """The rows times their denominators' lcms; integers whose k x k
        minors are the matrix's times ``scale``."""
        return self if self._scaled is None else self._scaled


def matrix(rows: Iterable[Iterable]) -> Matrix:
    """A :class:`Matrix` of the entries as exact values (see the module)."""
    return Matrix((exact_quotient(*Fraction(x).as_integer_ratio()) for x in row) for row in rows)


def exact_quotient(num: int, den: int) -> int | Fraction:
    """num / den: an ``int`` when den divides num, else a reduced ``Fraction``."""
    q, r = divmod(num, den)
    return q if r == 0 else Fraction(num, den)


def determinant(rows: Sequence[Sequence[int | Fraction]]) -> int | Fraction:
    """Bareiss fraction-free elimination on Python ints; exact for rational
    entries, whose denominators are cleared as a :class:`Matrix` clears them.
    The full minor of a square :class:`Matrix`, kept in its table like any
    other.

    >>> determinant(matrix([[1, 2], [3, 4]]))
    -2
    >>> determinant(matrix([[Fraction(1, 2), 1], [1, Fraction(1, 3)]]))
    Fraction(-5, 6)
    """
    size = len(rows)
    if any(len(row) != size for row in rows):
        raise ValueError("determinant needs a square matrix")
    return plucker(rows, range(1, size + 1))


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
    column set it has not been asked before, by :func:`_bareiss` on its
    integer rows divided by its scale.  Any other row sequence is wrapped in
    a fresh :class:`Matrix` on each call, so it computes the minor every time
    and keeps nothing.

    >>> plucker(matrix([[1, 0, -1, -2], [0, 1, 3, 1]]), {3, 4})
    5
    """
    if not isinstance(M, Matrix):
        M = Matrix(M)
    key = frozenset(I)
    value = M.minors.get(key)
    if value is None:
        cols = sorted(key)
        n = len(M[0]) if M else 0
        if len(cols) != len(M) or cols and not 1 <= cols[0] <= cols[-1] <= n:
            raise ValueError(f"need {len(M)} distinct columns in 1..{n}, got {cols}")
        minor = _bareiss([[row[c - 1] for c in cols] for row in M.integer_rows])
        value = M.minors[key] = exact_quotient(minor, M.scale)
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
    J = frozenset(J)
    if len(J) != ell:
        raise ValueError(f"column set {sorted(J)} does not have size {ell}")
    if ell == k:
        return J
    # v^{-1}([b] - [a]) is the set of positions p with a < v(p) <= b
    lo, hi = sorted((ell, k))
    rows = {p for p, vp in enumerate(v, start=1) if lo < vp <= hi}
    if ell < k:
        padded = J | rows
        return padded if len(padded) == k else None
    return J - rows if rows <= J else None
