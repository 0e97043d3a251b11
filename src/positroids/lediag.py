"""Oplus-diagrams (0/+ fillings of Young diagrams), Le-moves, Le-ification,
reading words, and the two-path diagrams of skew Schubert varieties.

Le-moves keep the reading word, so :func:`leify` reads the Le-diagram off it:
its 0-boxes are the positive distinguished subexpression (PDS) of the reading
word inside the columnar word of the shape.  :func:`le_moves_applicable` and
:func:`apply_le_move` are the paper's moves; every order of playing them
reaches that diagram."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator

from positroids import perm as permmod
from positroids import shapes
from positroids.perm import DecoratedPermutation, Permutation
from positroids.shapes import Box, Partition


@dataclass(frozen=True)
class OplusDiagram:
    shape: Partition
    plus: frozenset[Box]

    def __post_init__(self) -> None:
        for b in self.plus:
            if not shapes.contains_box(self.shape, b):
                raise ValueError(f"plus at {b} outside shape {self.shape}")

    def render(self) -> str:
        rows = []
        for r, part in enumerate(self.shape, start=1):
            rows.append(" ".join("+" if (r, c) in self.plus else "0" for c in range(1, part + 1)))
        return "\n".join(rows)


def parse(text: str) -> OplusDiagram:
    """Inverse of :meth:`OplusDiagram.render`.

    >>> parse("+ 0\\n0").plus
    frozenset({(1, 1)})
    """
    parts = []
    plus = set()
    for r, line in enumerate([l for l in text.splitlines() if l.strip()], start=1):
        cells = line.split()
        parts.append(len(cells))
        for c, cell in enumerate(cells, start=1):
            if cell == "+":
                plus.add((r, c))
            elif cell != "0":
                raise ValueError(f"unexpected cell {cell!r}")
    return OplusDiagram(shapes.normalize(parts), frozenset(plus))


def is_le_diagram(O: OplusDiagram) -> bool:
    """No 0 with a + above it in its column and a + to its left in its row.

    >>> is_le_diagram(parse("+ +\\n+ 0"))
    False
    """
    plus = O.plus
    above: set[int] = set()  # columns with a + in an earlier row
    for r, part in enumerate(O.shape, start=1):
        left = False  # a + earlier in this row
        for c in range(1, part + 1):
            if (r, c) in plus:
                left = True
                above.add(c)
            elif left and c in above:
                return False
    return True


# ---------------------------------------------------------------------------
# Reading words
# ---------------------------------------------------------------------------

def reading_word(
    O: OplusDiagram, k: int, n: int, order: Iterable[Box] | None = None
) -> Permutation:
    """Product of the simple reflections in the 0-boxes (box (r, c) carries
    ``s_{k+c-r}``), taken along a standard reading order of the shape; the
    + boxes are skipped.  The result does not depend on the reading order.
    """
    if not shapes.fits(O.shape, k, n):
        raise ValueError(f"shape {O.shape} does not fit {k} x {n - k}")
    boxes = tuple(order) if order is not None else tuple(shapes.boxes(O.shape))
    letters = [k + c - r for (r, c) in boxes if (r, c) not in O.plus]
    return permmod.apply_word(letters, n)


def sample_reading_orders(shape: Partition, rng: random.Random, count: int) -> Iterator[tuple[Box, ...]]:
    """Random standard reading orders: each box precedes the boxes below it
    and to its right."""
    all_boxes = list(shapes.boxes(shape))
    for _ in range(count):
        placed: list[Box] = []
        remaining = set(all_boxes)
        while remaining:
            ready = [
                (r, c)
                for (r, c) in remaining
                if (r - 1, c) not in remaining and (r, c - 1) not in remaining
            ]
            placed.append(ready[rng.randrange(len(ready))])
            remaining.remove(placed[-1])
        yield tuple(placed)


# ---------------------------------------------------------------------------
# Le-moves and Le-ification
# ---------------------------------------------------------------------------

MoveSite = tuple[Box, Box]  # (northwest corner a, southeast corner b)


def _is_move_site(O: OplusDiagram, site: MoveSite) -> bool:
    """Whether site is a rectangle of O with + in its northeast and southwest
    corners and 0 everywhere else but possibly its northwest corner."""
    (r1, c1), (r2, c2) = site
    return (1 <= r1 < r2 <= len(O.shape) and 1 <= c1 < c2 <= O.shape[r2 - 1]
            and (r2, c2) not in O.plus and (r1, c2) in O.plus and (r2, c1) in O.plus
            and all((r, c) in ((r1, c1), (r1, c2), (r2, c1)) or (r, c) not in O.plus
                    for r in range(r1, r2 + 1) for c in range(c1, c2 + 1)))


def le_moves_applicable(O: OplusDiagram) -> tuple[MoveSite, ...]:
    """Every Le-move site of O, rows of the northwest corner first."""
    rows = len(O.shape)
    return tuple(
        ((r1, c1), (r2, c2))
        for r1 in range(1, rows + 1)
        for r2 in range(r1 + 1, rows + 1)
        for c1 in range(1, O.shape[r2 - 1] + 1)
        for c2 in range(c1 + 1, O.shape[r2 - 1] + 1)
        if _is_move_site(O, ((r1, c1), (r2, c2)))
    )


def apply_le_move(O: OplusDiagram, site: MoveSite) -> OplusDiagram:
    """Set the southeast corner to + and toggle the northwest corner.

    Moves played until the Le-property holds terminate: a move turns a
    strictly-southeast 0 into a + while toggling a box earlier in the columnar
    order, so the 2-adic weight of the + set over the columnar order strictly
    increases and is bounded.
    """
    if not _is_move_site(O, site):
        raise ValueError(f"move {site} does not apply")
    a, b = site
    return OplusDiagram(O.shape, (O.plus | {b}) ^ {a})


def leify(O: OplusDiagram) -> OplusDiagram:
    """The Le-diagram that Le-moves reach from O, in time linear in its area.

    With k rows, n = k + lambda_1 and r the reading word of O, its 0-boxes
    are the positions of the positive distinguished subexpression for r
    inside the columnar word of the shape, and its other boxes are +.  Le-moves
    keep r, and the Le-diagrams of a shape are exactly the PDS's in that
    reduced word (Lam-Williams, arXiv:0710.2932, Section 5; Postnikov,
    arXiv:math/0609764, Sections 19-20), so every order of moves ends here.

    >>> print(leify(parse("+ +\\n+ 0")).render())
    0 +
    + +
    """
    k = len(O.shape)
    n = k + max(O.shape, default=0)
    boxes = tuple(shapes.boxes(O.shape))
    zeros = permmod.positive_distinguished_subexpression(
        reading_word(O, k, n, boxes), [k + c - r for r, c in boxes])
    return OplusDiagram(O.shape, frozenset(b for j, b in enumerate(boxes, start=1) if j not in zeros))


# ---------------------------------------------------------------------------
# Skew Schubert diagrams
# ---------------------------------------------------------------------------

def skew_oplus(k: int, n: int, x: Permutation, v: Permutation) -> OplusDiagram:
    """The diagram of shape ``lambda_v`` with + exactly on ``lambda_x``, for a
    length-additive pair (x in ^K W, v in W^K_max)."""
    lam_v, lam_x = permmod.check_skew_pair(v, x, k)
    return OplusDiagram(lam_v, frozenset(shapes.boxes(lam_x)))


def le_to_positroid(M: OplusDiagram, k: int, n: int) -> tuple[Permutation, Permutation]:
    """Positroid datum of a Le-diagram: with u the Grassmannian permutation of
    the shape and r the reading word, the diagram indexes the projection of
    the Richardson datum ``(u^{-1} w_0, r^{-1} w_0)``."""
    if not is_le_diagram(M):
        raise ValueError("not a Le-diagram")
    u = permmod.grassmannian_from_image(shapes.vert_ne(M.shape, k, n), k, n)
    r = reading_word(M, k, n)
    # y w_0 is y read backwards
    return permmod.inverse(u)[::-1], permmod.inverse(r)[::-1]


def le_decoration(M: OplusDiagram, k: int, n: int) -> DecoratedPermutation:
    """Decorated trip permutation of the positroid indexed by a Le-diagram."""
    v, w = le_to_positroid(M, k, n)
    return permmod.positroid_decoration(v, w, k)


def all_fillings(shape: Partition) -> Iterator[OplusDiagram]:
    boxes = list(shapes.boxes(shape))
    for mask in range(1 << len(boxes)):
        plus = frozenset(b for i, b in enumerate(boxes) if mask >> i & 1)
        yield OplusDiagram(shape, plus)
