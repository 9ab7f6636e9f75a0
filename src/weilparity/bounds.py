"""Coefficient bounds for monic degree-2g Weil polynomials.

:func:`full_bounds_report` is the entry point.  It checks the shape of
a polynomial once (monic of degree 2g, else :class:`ShapeError`) and
reads ``a_k``, the coefficient of ``X**(2g-k)``, once for each
k = 1..g.  For roots of absolute value sqrt(q) it reports:

* archimedean bound: |a_k| <= C(2g,k) * q**(k/2), checked in the
  squared form a_k**2 <= C(2g,k)**2 * q**k so that half-integer
  exponents never leave exact integer arithmetic;
* valuation bound:  ord_p(a_k) >= ceil(n*k/2), with a_k = 0 passing
  vacuously (valuation +infinity);
* binomial threshold (``lemma_a1_ok``): for odd k, a_k != 0 forces
  p <= C(2g,k)**2, so past the threshold every odd coefficient must
  vanish;
* literal q-symmetry (``symmetric_ok``): c_{g-j} = q**j * c_{g+j} for
  j = 1..g, so the constant term is exactly +q**g.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import ShapeError
from .intpoly import IntPoly
from .weil import WeilParams


@dataclass(frozen=True)
class CoefficientCheck:
    k: int
    value: int
    archimedean_ok: bool
    valuation_ok: bool


@dataclass(frozen=True)
class BoundsReport:
    """Aggregated bound checks for one polynomial; one entry per k = 1..g."""

    params: WeilParams
    per_coefficient: tuple[CoefficientCheck, ...]
    lemma_a1_ok: bool
    symmetric_ok: bool


def full_bounds_report(poly: IntPoly, params: WeilParams) -> BoundsReport:
    """Every bound check on ``poly``: one shape check, one read of a_1..a_g."""
    g, p, n, q = params.g, params.p, params.n, params.q
    c = poly.coeffs
    if len(c) != 2 * g + 1 or c[-1] != 1:
        raise ShapeError(
            f"polynomial must be monic of degree {2 * g}, got degree {poly.degree}"
        )
    per = []
    lemma_a1_ok = True
    for k in range(1, g + 1):
        a_k = c[2 * g - k]
        binom_sq = comb(2 * g, k) ** 2
        per.append(CoefficientCheck(
            k=k,
            value=a_k,
            archimedean_ok=a_k * a_k <= binom_sq * q ** k,
            valuation_ok=a_k % p ** ((n * k + 1) // 2) == 0,
        ))
        if k % 2 and a_k and p > binom_sq:
            lemma_a1_ok = False
    return BoundsReport(
        params=params,
        per_coefficient=tuple(per),
        lemma_a1_ok=lemma_a1_ok,
        symmetric_ok=all(c[g - j] == q ** j * c[g + j] for j in range(1, g + 1)),
    )
