"""Oplus-diagrams, Le-moves, and the two-path picture of skew cells.

A pair of nested lattice paths in the k x (n-k) rectangle (equivalently a
skew Young diagram) encodes a distinguished positroid cell: fill the inner
shape with +'s and the rest of the outer shape with 0's, then rewrite with
Le-moves until no 0 has a + above it and a + to its left.  The result is the
unique Le-diagram of the cell, independent of the order the moves are played;
``lediag.leify`` reads it off the reading word, which the moves keep, as the
positive distinguished subexpression of that word in the shape's columnar word.
"""

import random

from positroids import lediag, perm

x = (1, 2, 4, 7, 3, 5, 6, 8)
v = (4, 3, 8, 2, 7, 6, 1, 5)
k, n = 4, 8

O = lediag.skew_oplus(k, n, x, v)
print("skew filling O:")
print(O.render())
print("Le-property holds:", lediag.is_le_diagram(O))
print()

M = lediag.leify(O)
print("after Le-ification:")
print(M.render())
print("Le-property holds:", lediag.is_le_diagram(M))
print()

# Confluence: any move order reaches the same diagram.
for seed in range(5):
    rng = random.Random(seed)
    P = O
    while not lediag.is_le_diagram(P):
        sites = lediag.le_moves_applicable(P)
        P = lediag.apply_le_move(P, sites[rng.randrange(len(sites))])
    assert P == M
print("five random move orders agree")

# The reading word never changes along the way, and it pins down the cell:
r = lediag.reading_word(O, k, n)
assert lediag.reading_word(M, k, n) == r
print("reading word:", r)

v2, w2 = lediag.le_to_positroid(M, k, n)
dec = perm.positroid_decoration(v2, w2, k)
assert dec == perm.positroid_decoration(v, perm.multiply(x, v), k)
print("recovered decorated permutation:", dec.perm,
      "white:", sorted(dec.white_fixed))
