"""Exact GF(2) computation of the Gerstenhaber bracket and BV operator on the
Hochschild cohomology of the 8-dimensional quaternion quiver algebra.

The product builds the algebra (algebra), the period-4 minimal bimodule
resolution with its weak self-homotopy and one diagonal P -> P (x)_A P that
gives both the cup product and the Gerstenhaber bracket by homotopy lifting
(minres), the comparison morphisms phi and psi to the normalized bar
resolution (compare), and cohomology classes with exact class arithmetic in
every degree by z-periodicity (hhring).  Apart stand the oracles, which
importing the package does not load: the bar complex with its cochain
operations and the transports along phi and psi (bar), the verification
suites with the GF(4) group-algebra oracle (checks), and the command line
(cli), which loads the suites for verify alone and formats all output.

The package re-exports the class-ring API; everything else is imported from
its module.
"""

from .hhring import (
    CohomologyClass,
    bracket_classes,
    catalog,
    class_eq,
    cup_classes,
    delta_class,
    hh_dim,
)

__version__ = "0.1.0"

__all__ = [
    "CohomologyClass",
    "bracket_classes",
    "catalog",
    "class_eq",
    "cup_classes",
    "delta_class",
    "hh_dim",
    "__version__",
]
