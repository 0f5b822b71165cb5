"""Exact computations on the variety of complete quadrics: Poincare
polynomials of its special subvarieties by two independent routes (closed
product formula and torus fixed-point cells), the generalized
Kostant-Macdonald identity, and a linear-algebra re-derivation of the
regular = special classification.

`import quadrics` loads no submodule. Each name is imported from the
submodule that defines it; the Layout section of the README says which
module holds what.
"""

__version__ = "0.1.0"
