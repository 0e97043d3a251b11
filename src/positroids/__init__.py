"""Combinatorics of positroid varieties: plabic graphs, cluster seeds,
Le-diagrams, and diagram modules over the type-A preprojective algebra.

Subpackages are organized by object:

- :mod:`positroids.perm` -- symmetric-group machinery (reduced words, Bruhat
  order, Grassmann necklaces, decorated and bounded affine permutations).
- :mod:`positroids.shapes` -- Young diagrams in a ``k x (n-k)`` rectangle and
  their lattice-path views.
- :mod:`positroids.plabic` -- plabic graphs with a combinatorial embedding:
  trips, face labelings, local moves, bridge graphs.
- :mod:`positroids.seeds` -- quivers, labeled seeds, mutation, the rectangles
  seed, finite-type classification.
- :mod:`positroids.pluecker` -- exact rational linear algebra and Pluecker
  coordinate identities.
- :mod:`positroids.lediag` -- oplus-diagrams, Le-moves and Le-ification.
- :mod:`positroids.ppalg` -- composition-factor diagram modules, socle chains,
  and the endomorphism quiver of the canonical cluster-tilting module.

``import positroids`` loads none of them; each is loaded by its own import
(``from positroids import seeds``, or ``from positroids import *`` for all
seven).
"""

__all__ = ["perm", "shapes", "plabic", "seeds", "pluecker", "lediag", "ppalg"]
