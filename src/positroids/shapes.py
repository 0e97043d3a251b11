"""Young diagrams in a ``k x (n-k)`` rectangle and their lattice-path views.

A partition is a tuple of weakly decreasing positive parts (no trailing
zeros), drawn in English orientation with row 1 on top.  Its boundary inside
the rectangle is a lattice path from the southwest corner to the northeast
corner; labeling the n steps northeast-ward, the labels of the north steps
form a k-subset of [n] (``vert_ne``), and labeling southwest-ward from the
northeast corner, the south steps form ``vert_sw``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

Partition = tuple[int, ...]
Box = tuple[int, int]  # (row, col), 1-based


def normalize(parts: Iterable[int]) -> Partition:
    """Weakly decreasing nonnegative parts, trailing zeros dropped.

    >>> normalize([3, 2, 0, 0])
    (3, 2)
    """
    parts = tuple(parts)
    if any(p < 0 for p in parts) or any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"not weakly decreasing nonnegative parts: {list(parts)}")
    return tuple(p for p in parts if p > 0)


def size(lam: Partition) -> int:
    return sum(lam)


def fits(lam: Partition, k: int, n: int) -> bool:
    """lam fits in a ``k x (n-k)`` rectangle, which needs ``0 <= k <= n``."""
    return 0 <= k <= n and len(lam) <= k and (not lam or lam[0] <= n - k)


def boxes(lam: Partition) -> Iterator[Box]:
    """Boxes in columnar reading order: columns left to right, top to bottom."""
    ncols = lam[0] if lam else 0
    for c in range(1, ncols + 1):
        for r in range(1, len(lam) + 1):
            if lam[r - 1] >= c:
                yield (r, c)


def contains_box(lam: Partition, b: Box) -> bool:
    r, c = b
    return 1 <= r <= len(lam) and 1 <= c <= lam[r - 1]


def contains(lam: Partition, mu: Partition) -> bool:
    """mu fits inside lam."""
    return len(mu) <= len(lam) and all(m <= l for m, l in zip(mu, lam))


def transpose(lam: Partition) -> Partition:
    """
    >>> transpose((3, 3, 1, 1))
    (4, 2, 2)
    """
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= c) for c in range(1, lam[0] + 1))


# ---------------------------------------------------------------------------
# Lattice-path labelings
# ---------------------------------------------------------------------------

def vert_ne(mu: Partition, k: int, n: int) -> frozenset[int]:
    """Labels of the north steps of the northeast-ward boundary path.

    >>> sorted(vert_ne((), 3, 7))
    [1, 2, 3]
    >>> sorted(vert_ne((4, 3, 2), 3, 7))
    [3, 5, 7]
    """
    if not fits(mu, k, n):
        raise ValueError(f"{mu} does not fit in {k} x {n - k}")
    parts = tuple(mu) + (0,) * (k - len(mu))
    return frozenset(parts[k - j] + j for j in range(1, k + 1))


def vert_sw(mu: Partition, k: int, n: int) -> frozenset[int]:
    """Labels of the south steps of the southwest-ward boundary path.

    >>> sorted(vert_sw((4, 3, 2), 3, 7))
    [1, 3, 5]
    """
    return frozenset(n + 1 - i for i in vert_ne(mu, k, n))


def from_vert_ne(labels: Iterable[int], k: int, n: int) -> Partition:
    """Partition whose northeast path has north steps at the given labels.

    >>> from_vert_ne({3, 5, 7}, 3, 7)
    (4, 3, 2)
    """
    ordered = sorted(labels)
    if (
        len(ordered) != k
        or len(set(ordered)) != k
        or (k and not 1 <= ordered[0] <= ordered[-1] <= n)
    ):
        raise ValueError(f"not a {k}-subset of [{n}]: {ordered}")
    # distinct sorted labels give weakly decreasing nonnegative parts, so
    # only the trailing zeros need dropping
    parts = [ordered[k - r] - (k + 1 - r) for r in range(1, k + 1)]
    while parts and not parts[-1]:
        parts.pop()
    return tuple(parts)


def from_vert_sw(labels: Iterable[int], k: int, n: int) -> Partition:
    return from_vert_ne({n + 1 - i for i in labels}, k, n)


# ---------------------------------------------------------------------------
# Rectangles and frozenness
# ---------------------------------------------------------------------------

def rect_vert_ne(r: int, c: int, k: int, n: int) -> frozenset[int]:
    """``vert_ne`` of the r x c rectangle: [1..k-r] followed by [k-r+c+1..k+c]."""
    return frozenset(range(1, k - r + 1)) | frozenset(range(k - r + c + 1, k + c + 1))


def is_lambda_frozen(lam: Partition, b: Box) -> bool:
    """True iff Rect(b) touches the south or east boundary of lam,
    i.e. the box just southeast of b is not in lam.

    >>> [b for b in boxes((4, 3, 2)) if is_lambda_frozen((4, 3, 2), b)]
    [(3, 1), (2, 2), (3, 2), (1, 3), (2, 3), (1, 4)]
    """
    if not contains_box(lam, b):
        raise ValueError(f"box {b} outside {lam}")
    r, c = b
    return not contains_box(lam, (r + 1, c + 1))


def mutable_part(lam: Partition) -> Partition:
    """Boxes left after deleting every box on the southeast boundary."""
    return normalize(max(part - 1, 0) for part in lam[1:])


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def partitions_in_box(k: int, cols: int) -> Iterator[Partition]:
    """All partitions fitting in a k x cols rectangle."""
    for labels in combinations(range(1, k + cols + 1), k):
        yield from_vert_ne(labels, k, k + cols)


def subpartitions(lam: Partition) -> Iterator[Partition]:
    """All partitions contained in lam.

    >>> sorted(subpartitions((2, 1)))
    [(), (1,), (1, 1), (2,), (2, 1)]
    """
    def rec(row: int, prev: int) -> Iterator[tuple[int, ...]]:
        if row < len(lam):
            for p in range(min(lam[row], prev), 0, -1):
                for rest in rec(row + 1, p):
                    yield (p,) + rest
        yield ()

    yield from rec(0, lam[0] if lam else 0)
