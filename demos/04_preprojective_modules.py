"""Diagram modules over the type-A preprojective algebra.

A module is drawn by its composition factors: cells (vertex, level) with the
socle at the bottom.  Socle chains build submodules of an injective Q_i letter
by letter; removing socle letters afterwards carves out the summands of the
canonical cluster-tilting module of a skew Schubert cell, and the same modules
fall out of a purely lattice-path region description.
"""

from positroids import perm, ppalg, seeds

n = 7
print("injective Q_4 for rank", n - 1, "(socle S_4 at the bottom):")
print(ppalg.injective(n, 4).render())
print()

k = 3
v = perm.multiply(perm.parabolic_longest(k, n), perm.simple_reflection(3, n))
x = (3, 6, 7, 1, 2, 4, 5)
U = ppalg.tilting_module(k, n, v, x)
print("pair (v, w = x v) with l(w) =", len(U.word),
      "and summand positions", U.positions)
print()

for j, M, P in zip(U.positions, U.summands, U.labels):
    R = ppalg.region_module(k, n, v, P)
    assert M.normalized() == R  # socle-chain route == region route
    print(f"position {j}:  Delta_{''.join(map(str, sorted(P)))}")
    print(M.render())
    print()

quiver, labels = ppalg.endomorphism_quiver(k, n, v, x)
S = seeds.rectangles_seed(k, n, v, x)
assert quiver == S.quiver
print("the morphism quiver of the summands equals the rectangles-seed quiver:")
print("  vertices per box of", U.shape, "; projective-injectives at",
      sorted(b for b, frozen in zip(U.boxes, U.frozen) if frozen))
