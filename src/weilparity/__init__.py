"""Exact-arithmetic checks on supersingular Weil polynomial candidates.

Builds candidate Frobenius characteristic polynomials from cyclotomic
polynomials in exact integer arithmetic, verifies that every candidate
is an even polynomial whenever p > 2g+1, and checks the accompanying
coefficient bounds.

Only the entry points are re-exported here; everything else is imported
from its submodule (``weilparity.cyclotomic``, ``weilparity.weil``, ...).
No package name shadows a submodule.
"""

from .bounds import BoundsReport, full_bounds_report
from .enumerator import ParityReport, verify_grid, verify_parity_theorem
from .intpoly import IntPoly
from .weil import WeilParams, minpoly_full_degree

__all__ = [
    "BoundsReport",
    "IntPoly",
    "ParityReport",
    "WeilParams",
    "full_bounds_report",
    "minpoly_full_degree",
    "verify_grid",
    "verify_parity_theorem",
]

__version__ = "0.1.0"
