"""The rectangles seed of a Schubert variety and exact exchange relations.

Every box b of a Young diagram determines the largest rectangle with b as its
lower-right corner; reading the north steps of the rectangle's boundary path
gives a k-subset, and applying v^{-1} gives the Pluecker coordinate attached
to b.  Together with up/left/diagonal arrows this is a seed whose mutations
are verified here with exact rational arithmetic, no floating point anywhere.
"""

import random

from positroids import perm, pluecker, seeds

k, n = 3, 7
lam = (4, 3, 2)
v, x = perm.skew_pair(k, n, lam, lam)
print("Schubert data: lambda =", lam, " v =", v, " x =", x)

S = seeds.rectangles_seed(k, n, v, x)
for b in sorted(S.labels):
    tag = "frozen " if S.quiver.frozen[b] else "mutable"
    print(f"  box {b}: {tag} Delta_{''.join(map(str, sorted(S.labels[b].columns)))}")
print("arrows:", sorted(S.quiver.arrows))

# Sample exact rational points of the Schubert cell; the necklace coordinates
# are forced nonvanishing so frozen variables stay invertible.
rng = random.Random(42)
necklace = perm.grassmann_necklace(
    perm.positroid_decoration(v, perm.longest_element(n), k)
)
cell = frozenset(perm.inverse(v)[:k])
samples = [
    pluecker.sample_schubert_cell(k, n, cell, rng, require_nonzero=necklace).matrix
    for _ in range(20)
]

# Mutate at the mutable box (1, 1) and check the exchange relation exactly at
# every sample point.
q = (1, 1)
S1 = seeds.mutate_seed(S, q)
new = S1.labels[q]
for M in samples:
    cache = {}
    lhs = new.evaluate(M, cache) * S.labels[q].evaluate(M, cache)
    rhs_out = rhs_in = 1
    for r in S.quiver.arrows_from(q):
        rhs_out *= S.labels[r].evaluate(M, cache)
    for s in S.quiver.arrows_into(q):
        rhs_in *= S.labels[s].evaluate(M, cache)
    assert lhs == rhs_out + rhs_in
print("exchange relation verified exactly at", len(samples), "sample points")

# Mutating twice returns the original variable (an involution), numerically:
S2 = seeds.mutate_seed(S1, q)
assert seeds.expressions_agree(S2.labels[q], S.labels[q], samples)
print("double mutation restores the Pluecker coordinate at", q)

# Finite type classification from the mutable part of the shape:
for shape in ((3, 3, 3), (4, 4, 4), (5, 4, 1), (2, 2)):
    print(f"rectangles seed on {shape}: type", seeds.classify_finite_type(shape))
