"""Exact-arithmetic checks on supersingular Weil polynomial candidates.

Builds candidate Frobenius characteristic polynomials from cyclotomic
polynomials in exact integer arithmetic, verifies that every candidate
is an even polynomial whenever p > 2g+1, and checks the accompanying
coefficient bounds.

Only the entry points are re-exported here; everything else is imported
from its submodule (``weilparity.cyclotomic``, ``weilparity.weil``, ...).
No package name shadows a submodule.  The entry points are loaded on
first access (PEP 562): importing the package, or ``weilparity.cli``,
runs no layer module, so a command-line call loads only the layers its
subcommand uses.
"""

__version__ = "0.1.0"

# the submodule that defines each name of __all__
_HOME = {
    "BoundsReport": "bounds",
    "ParityReport": "enumerator",
    "WeilParams": "weil",
    "full_bounds_report": "bounds",
    "minpoly_full_degree": "weil",
    "verify_grid": "enumerator",
    "verify_parity_theorem": "enumerator",
}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
