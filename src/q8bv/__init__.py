"""Exact GF(2) computation of the Gerstenhaber bracket and BV operator on the
Hochschild cohomology of the 8-dimensional quaternion quiver algebra.

The product builds the algebra and its multiplication oracle (algebra), the
period-4 minimal bimodule resolution with its weak self-homotopy and one
diagonal P -> P (x)_A P that gives both the cup product and the Gerstenhaber
bracket by homotopy lifting (minres), the comparison morphisms phi and psi
to the normalized bar resolution (compare), and cohomology classes with
exact class arithmetic in every degree by z-periodicity (hhring).  Apart
stand the oracles: the bar complex with its cochain operations and the
transports along phi and psi (bar), the verification suites (checks), and
the command line (cli), which loads the suites for verify alone.
"""

from .algebra import AlgebraElement, GroupAlgebraOracle, bilinear_form, dual_basis
from .bar import BarCochain, transport_to_bar, transport_to_min
from .compare import BarChain, phi, psi
from .gf2 import rank
from .hhring import (
    CohomologyClass,
    bracket_classes,
    catalog,
    class_eq,
    cup_classes,
    delta_class,
    hh_dim,
)
from .minres import MinCochain, MinResElement, homotopy_t, min_differential

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "BarChain",
    "BarCochain",
    "CohomologyClass",
    "GroupAlgebraOracle",
    "MinCochain",
    "MinResElement",
    "bilinear_form",
    "bracket_classes",
    "catalog",
    "class_eq",
    "cup_classes",
    "delta_class",
    "dual_basis",
    "hh_dim",
    "homotopy_t",
    "min_differential",
    "phi",
    "psi",
    "rank",
    "transport_to_bar",
    "transport_to_min",
    "__version__",
]
