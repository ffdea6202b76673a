"""Exact GF(2) computation of the Gerstenhaber bracket and BV operator on the
Hochschild cohomology of the 8-dimensional quaternion quiver algebra.

The package builds the algebra and its multiplication oracle (algebra), the
normalized bar complex with cup, circle products, bracket, boundary, Connes
operator and the degree -1 operator (bar), the period-4 minimal bimodule
resolution with its weak self-homotopy (minres), comparison morphisms in both
directions (compare), cohomology classes with exact class arithmetic
(hhring), and a verification/tabulation command line (cli).
"""

from .algebra import AlgebraElement, GroupAlgebraOracle, bilinear_form, dual_basis
from .bar import BarChain, BarCochain, HochschildChain
from .compare import phi, psi, transport_to_bar, transport_to_min, verify_chain_maps
from .gf2 import GF2Matrix, GF2Vector, in_span, kernel_basis, rank
from .hhring import (
    CohomologyClass,
    bracket_classes,
    catalog,
    class_eq,
    coboundary_space,
    cup_classes,
    delta_class,
    hh_dim,
    verify_presentation,
)
from .minres import MinCochain, MinResElement, homotopy_t, min_differential, verify_homotopy

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "BarChain",
    "BarCochain",
    "CohomologyClass",
    "GF2Matrix",
    "GF2Vector",
    "GroupAlgebraOracle",
    "HochschildChain",
    "MinCochain",
    "MinResElement",
    "bilinear_form",
    "bracket_classes",
    "catalog",
    "class_eq",
    "coboundary_space",
    "cup_classes",
    "delta_class",
    "dual_basis",
    "hh_dim",
    "homotopy_t",
    "in_span",
    "kernel_basis",
    "min_differential",
    "phi",
    "psi",
    "rank",
    "transport_to_bar",
    "transport_to_min",
    "verify_chain_maps",
    "verify_presentation",
    "verify_homotopy",
    "__version__",
]
