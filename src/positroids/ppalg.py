"""Composition-factor diagram calculus for the type-A preprojective algebra.

A module is a finite set of cells ``(vertex, level)`` with ``vertex`` in
``[1, n-1]``.  A cell covers the cells at ``(vertex +- 1, level - 1)``; the
socle sits at the bottom of the staggered diagram and the top at the top.
``==`` compares cells, levels included; modules are compared up to a uniform
level shift through :meth:`DiagramModule.normalized`.

The socle chain and socle removal run on level bitmasks: n + 1 ints, bit
``t - base`` of entry a set iff ``(a, t)`` is a cell.  Entries 0 and n stay
0, so one letter is a few int operations on whole vertex rows.

A skew pair ``(v, x v)`` has one :class:`TiltingModule`: its standard word,
lambda_x, and each summand U_j with its box, Pluecker label and frozen flag.
A word's summands are built once, in one walk along it, which
:func:`tilting_summand` and :func:`plucker_of_module` read as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Sequence

from positroids import perm as permmod
from positroids import shapes
from positroids.perm import Permutation

Cell = tuple[int, int]  # (vertex, level)


@dataclass(frozen=True)
class DiagramModule:
    n: int
    cells: frozenset[Cell]

    def __post_init__(self) -> None:
        for i, _ in self.cells:
            if not 1 <= i <= self.n - 1:
                raise ValueError(f"vertex {i} outside [1, {self.n - 1}]")

    def dimension_vector(self) -> tuple[int, ...]:
        counts = [0] * (self.n - 1)
        for i, _ in self.cells:
            counts[i - 1] += 1
        return tuple(counts)

    def below(self, cell: Cell) -> tuple[Cell, ...]:
        i, t = cell
        return tuple(c for c in ((i - 1, t - 1), (i + 1, t - 1)) if c in self.cells)

    def socle(self) -> frozenset[Cell]:
        return frozenset(c for c in self.cells if not self.below(c))

    def normalized(self) -> "DiagramModule":
        """Shift levels so the minimum is 0 (modules agree up to translation)."""
        lo = min((t for _, t in self.cells), default=0)
        if lo == 0:
            return self
        return DiagramModule(self.n, frozenset((i, t - lo) for i, t in self.cells))

    def render(self) -> str:
        """Staggered text diagram in the style of composition-factor pictures."""
        if not self.cells:
            return "0"
        levels = sorted({t for _, t in self.cells}, reverse=True)
        width = max(i for i, _ in self.cells)
        lines = []
        for t in levels:
            row = [" "] * (2 * width)
            for i, s in self.cells:
                if s == t:
                    row[2 * (i - 1)] = str(i)
            lines.append("".join(row).rstrip())
        return "\n".join(lines)


def module(n: int, cells: Iterable[Cell]) -> DiagramModule:
    return DiagramModule(n, frozenset(cells))


def injective(n: int, i: int) -> DiagramModule:
    """Composition diagram of the injective Q_i: the rotated rectangle with
    socle S_i and top S_{n-i}.

    >>> injective(6, 2).dimension_vector()
    (1, 2, 2, 2, 1)
    """
    if not 1 <= i <= n - 1:
        raise ValueError(f"need 1 <= i <= n-1, got i={i}")
    return _from_masks(n, _injective_masks(n, i), 0)


# ---------------------------------------------------------------------------
# Functors, on level bitmasks
# ---------------------------------------------------------------------------

def _on_masks(M: DiagramModule, word: Sequence[int], kernel: Callable) -> DiagramModule:
    """Run a mask kernel on M along ``word``, with base M's lowest level."""
    for p in word:
        if not 1 <= p <= M.n - 1:
            raise ValueError(f"letter {p} outside [1, {M.n - 1}]")
    masks = [0] * (M.n + 1)
    base = min((t for _, t in M.cells), default=0)
    for a, t in M.cells:
        masks[a] |= 1 << (t - base)
    return _from_masks(M.n, kernel(masks, word), base)


def _from_masks(n: int, masks: list[int], base: int) -> DiagramModule:
    cells = []
    for a, m in enumerate(masks):
        while m:
            low = m & -m
            cells.append((a, base + low.bit_length() - 1))
            m ^= low
    return DiagramModule(n, frozenset(cells))


def _injective_masks(n: int, i: int) -> list[int]:
    """Q_i from level 0: vertex a holds min(a, i, n-a, n-i) cells, from level |a-i| up by 2."""
    masks = [0] * (n + 1)
    for a in range(1, n):
        masks[a] = ((1 << 2 * min(a, i, n - a, n - i)) - 1) // 3 << abs(a - i)
    return masks


def _chain_masks(A: list[int], word: Iterable[int]) -> list[int]:
    """Socle chain in A: letter p adjoins A's cells at p whose lower neighbours in A are in C."""
    C = [0] * len(A)
    for p in word:
        C[p] |= A[p] & ~(((A[p - 1] & ~C[p - 1]) | (A[p + 1] & ~C[p + 1])) << 1)
    return C


def _remove_socle_masks(C: list[int], word: Iterable[int]) -> list[int]:
    """E-dagger in place: letter i keeps the cells at i with a cell below."""
    for i in word:
        C[i] &= (C[i - 1] | C[i + 1]) << 1
    return C


def functor_E_dagger_word(M: DiagramModule, word: Sequence[int]) -> DiagramModule:
    """Apply E-dagger letter by letter: letter i removes every socle cell at
    vertex i."""
    return _on_masks(M, word, _remove_socle_masks)


def soc_chain(ambient: DiagramModule, word: Sequence[int]) -> DiagramModule:
    """Iterated socle construction inside ``ambient``: reading the word in
    application order, each letter p adjoins every ambient cell at vertex p
    whose lower neighbors are already present."""
    return _on_masks(ambient, word, _chain_masks)


# ---------------------------------------------------------------------------
# The cluster-tilting summands U_j
# ---------------------------------------------------------------------------

class _WordData(NamedTuple):
    """What the summands of one ``(n, v, word)`` read: the PDS, ``v^{-1}``, at
    index ``j - 1`` the sets ``w_(j)^{-1}([i_j])`` and ``v_(j)^{-1}([i_j])``,
    and U_j itself at each position j outside the PDS, in order."""

    pds: frozenset[int]
    v_inv: Permutation
    w_rows: tuple[frozenset[int], ...]
    v_rows: tuple[frozenset[int], ...]
    summands: dict[int, DiagramModule]


# A pair's summands are built back to back, so a few entries serve them all;
# each entry holds 2 * len(word) subsets of [n] and the word's summands.
@lru_cache(maxsize=32)
def _word_data(n: int, v: Permutation, word: tuple[int, ...]) -> _WordData:
    if len(v) != n:
        raise ValueError(f"{v} is not in S_{n}")
    pds = permmod.positive_distinguished_subexpression(v, word)
    # left multiplication by s_i swaps the positions of the values i, i+1;
    # pos[m - 1] is the position of m, so u^{-1}([i]) = pos[:i]
    w_pos = list(range(1, n + 1))
    v_pos = list(range(1, n + 1))
    w_rows, v_rows = [], []
    v_letters = []  # the PDS letters before position j
    summands = {}
    for j, i in enumerate(word, start=1):
        w_pos[i - 1], w_pos[i] = w_pos[i], w_pos[i - 1]
        if j in pds:
            v_pos[i - 1], v_pos[i] = v_pos[i], v_pos[i - 1]
            v_letters.append(i)
        else:
            # U_j: socle chain in Q_{i_j} along w_(j)^{-1}, socle removal along v_(j)^{-1}
            C = _chain_masks(_injective_masks(n, i), reversed(word[:j]))
            summands[j] = _from_masks(n, _remove_socle_masks(C, reversed(v_letters)), 0)
        w_rows.append(frozenset(w_pos[:i]))
        v_rows.append(frozenset(v_pos[:i]))
    return _WordData(pds, permmod.inverse(v), tuple(w_rows), tuple(v_rows), summands)


def tilting_summand(k: int, n: int, v: Permutation, w_word: Sequence[int], j: int) -> DiagramModule:
    """The summand U_j built from the injective Q_{i_j}: first the socle chain
    along ``w_(j)^{-1}``, then socle removal along ``v_(j)^{-1}``.

    ``k`` does not enter the construction; it stays so that every summand
    function takes the same ``(k, n, v, w_word, j)`` arguments, which the CLI,
    the tests and the benchmark workloads pass positionally."""
    data = _word_data(n, tuple(v), tuple(w_word))
    if j in data.pds:
        raise ValueError(f"position {j} belongs to the subexpression for v")
    if not 1 <= j <= len(w_word):
        raise ValueError(f"position {j} outside the word")
    return data.summands[j]


# one entry: the region modules of one pair come back to back, and a larger
# cache would also serve other pairs with the same v
@lru_cache(maxsize=1)
def _lambda_v(k: int, n: int, v: Permutation) -> shapes.Partition:
    """The shape of ``v^{-1}([k])``, shared by the region modules of one pair."""
    return shapes.from_vert_sw(permmod.inverse(v)[:k], k, n)


def region_module(k: int, n: int, v: Permutation, P: Iterable[int]) -> DiagramModule:
    """The composition diagram read off the region between the lattice paths
    of P and of ``v^{-1}([k])`` in the rotated rectangle: the skew shape
    ``lambda_v / lambda_P`` with box (r, c) contributing vertex
    ``(n-k) + r - c`` at level ``-(r + c)``, shifted so the lowest level
    is 0."""
    P = frozenset(P)
    lam_v = _lambda_v(k, n, tuple(v))
    lam_P = shapes.from_vert_sw(P, k, n)
    if not shapes.contains(lam_v, lam_P):
        raise ValueError(f"{sorted(P)} does not lie between the paths")
    # row r holds the boxes c = lo + 1 .. hi with lo = lam_P[r], hi = lam_v[r]
    inner = lam_P + (0,) * (len(lam_v) - len(lam_P))
    rows = [(r, lo, hi) for r, (lo, hi) in enumerate(zip(inner, lam_v), start=1) if lo < hi]
    top = max((r + hi for r, _, hi in rows), default=0)  # -(lowest level)
    cells = frozenset(
        ((n - k) + r - c, top - r - c) for r, lo, hi in rows for c in range(lo + 1, hi + 1)
    )
    return DiagramModule(n, cells)


# ---------------------------------------------------------------------------
# Pluecker labels, the tilting module of a skew pair, its quiver
# ---------------------------------------------------------------------------

def plucker_of_module(
    k: int, n: int, v: Permutation, w_word: Sequence[int], j: int
) -> frozenset[int]:
    """Pluecker label of U_j: the projection of the generalized minor
    ``(v_(j)^{-1}([i_j]), w_(j)^{-1}([i_j]))`` to the Grassmannian, with
    i_j the letter at position j, w_(j) the product of the letters up to j
    and v_(j) the product of the PDS letters up to j."""
    from positroids import pluecker

    data = _word_data(n, tuple(v), tuple(w_word))
    if not 1 <= j <= len(w_word):
        raise ValueError(f"position {j} outside the word")
    i_j = w_word[j - 1]
    if data.v_rows[j - 1] != frozenset(data.v_inv[:i_j]):
        raise ValueError("generalized minor rows are not v^{-1}([l]); "
                         "input word is not standard for a skew pair")
    result = pluecker.project_minor(v, k, i_j, data.w_rows[j - 1])
    if result is None:
        raise ValueError("generalized minor does not project to a single Pluecker coordinate")
    return result


@dataclass(frozen=True)
class TiltingModule:
    """The cluster-tilting module U of a skew pair ``(v, x v)``: its standard
    word, lambda_x as ``shape``, and at each index m the summand U_j at
    position ``j = positions[m] = l(v) + 1 + m`` with its box (the m-th of
    lambda_x in columnar order), diagram, Pluecker label and frozen flag
    (projective-injective exactly at the last occurrence of its letter)."""

    word: permmod.ReducedWord
    shape: shapes.Partition
    positions: tuple[int, ...]
    boxes: tuple[shapes.Box, ...]
    summands: tuple[DiagramModule, ...]
    labels: tuple[frozenset[int], ...]
    frozen: tuple[bool, ...]


def tilting_module(k: int, n: int, v: Permutation, x: Permutation) -> TiltingModule:
    """The cluster-tilting module of the skew pair ``(v, x v)``."""
    word = permmod.standard_reduced_expression(x, v, k)  # checks the skew pair
    shape = shapes.from_vert_ne(tuple(x)[:k], k, n)
    data = _word_data(n, tuple(v), word)
    offset = len(data.pds)
    positions = tuple(data.summands)
    if positions != tuple(range(offset + 1, len(word) + 1)):
        raise ValueError(f"summand positions {positions} are not {offset + 1}..{len(word)}")
    return TiltingModule(
        word, shape, positions, tuple(shapes.boxes(shape)), tuple(data.summands.values()),
        tuple(plucker_of_module(k, n, v, word, j) for j in positions),
        tuple(word[j - 1] not in word[j:] for j in positions),
    )


def morphism_arrows(lam: shapes.Partition) -> tuple[tuple[shapes.Box, shapes.Box], ...]:
    """Irreducible morphisms between the summands indexed by boxes of lam:
    ``Rect(b_j)`` is obtained from ``Rect(b_i)`` by removing a row, removing a
    column, or adding a hook.  At most one arrow per ordered pair."""
    boxes = set(shapes.boxes(lam))
    return tuple(((r, c), t) for r, c in sorted(boxes)
                 for t in ((r - 1, c), (r, c - 1), (r + 1, c + 1)) if t in boxes)


def endomorphism_quiver(k: int, n: int, v: Permutation, x: Permutation):
    """``(quiver, labels)`` of the canonical cluster-tilting module for the
    pair ``(v, x v)``, read off :func:`tilting_module`: one vertex per box of
    lambda_x, frozen at the projective-injective summands, arrows by the
    hook/row/column rules with frozen-frozen arrows dropped, and each box
    labelled by its summand's Pluecker column set."""
    from positroids.seeds import Quiver

    U = tilting_module(k, n, v, x)
    frozen = dict(zip(U.boxes, U.frozen))
    arrows = tuple((s, t) for s, t in morphism_arrows(U.shape)
                   if not (frozen[s] and frozen[t]))
    return Quiver(frozen, arrows), dict(zip(U.boxes, U.labels))
