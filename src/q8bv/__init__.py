"""Exact GF(2) computation of the Gerstenhaber bracket and BV operator on the
Hochschild cohomology of the 8-dimensional quaternion quiver algebra.

The package builds the algebra and its multiplication oracle (algebra), the
normalized bar complex with cup, circle products, bracket, boundary, Connes
operator and the degree -1 operator (bar), the period-4 minimal bimodule
resolution with its weak self-homotopy and one diagonal P -> P (x)_A P that
gives both the cup product and the Gerstenhaber bracket by homotopy lifting
(minres), comparison morphisms in both directions (compare), and cohomology
classes with exact class arithmetic in every degree by z-periodicity
(hhring).  Apart from that product stand the verification suites with every
value they check against (checks) and the command line (cli).
"""

from .algebra import AlgebraElement, GroupAlgebraOracle, bilinear_form, dual_basis
from .bar import BarChain, BarCochain, HochschildChain
from .compare import phi, psi, transport_to_bar, transport_to_min
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
    "HochschildChain",
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
