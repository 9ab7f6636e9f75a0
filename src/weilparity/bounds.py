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

Literal q-symmetry is kept distinct from :func:`functional_equation_sign`,
the signed functional equation X**(2g) P(q/X) = +/- q**g P(X), which
products of factors can realize with either sign: (X**2+q)(X**2-q)
meets it with sign -1 and is not q-symmetric.
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


def functional_equation_sign(poly: IntPoly, q: int) -> int | None:
    """Sign s with X**d P(q/X) = s * q**(d/2) P(X), or None if neither fits.

    Accepts any monic polynomial of even degree d (factors as well as
    full candidates); the identity is checked exactly, coefficient by
    coefficient.
    """
    d = poly.degree
    if not poly.is_monic() or not isinstance(d, int) or d % 2:
        raise ShapeError("functional equation requires a monic even-degree polynomial")
    h = d // 2
    for sign in (1, -1):
        if all(
            poly.coefficient(d - j) * q ** (h - j) == sign * poly.coefficient(j)
            for j in range(h + 1)
        ):
            return sign
    return None


def corollary_threshold(g: int) -> int:
    """The binomial evenness threshold: p beyond it forces all odd a_k = 0.

    C(2g,g)**2 for odd g, C(2g,g-1)**2 for even g (the largest binomial
    square over odd k <= g).
    """
    if g < 1:
        raise ValueError("g must be a positive integer")
    k = g if g % 2 else g - 1
    return comb(2 * g, k) ** 2


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
