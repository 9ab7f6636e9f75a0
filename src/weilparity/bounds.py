"""Coefficient bounds for monic degree-2g Weil polynomials.

:func:`full_bounds_report` is the entry point.  It takes the ascending,
trailing-zero-free coefficients of a polynomial, checks their shape
once (monic of degree 2g, else :class:`ShapeError`) and reads ``a_k``,
the coefficient of ``X**(2g-k)``, once for each k = 1..g.  For roots of
absolute value sqrt(q) it reports:

* archimedean bound: |a_k| <= C(2g,k) * q**(k/2), checked as the
  same bound |a_k| <= isqrt(C(2g,k)**2 * q**k) on integers, so that
  half-integer exponents never leave exact integer arithmetic;
* valuation bound:  ord_p(a_k) >= ceil(n*k/2), with a_k = 0 passing
  vacuously (valuation +infinity);
* binomial threshold (``lemma_a1_ok``): for odd k, a_k != 0 forces
  p <= C(2g,k)**2, so past the threshold every odd coefficient must
  vanish;
* literal q-symmetry (``symmetric_ok``): c_{g-j} = q**j * c_{g+j} for
  j = 1..g, so the constant term is exactly +q**g.

The thresholds depend only on the cell (g, p, n): each cell builds them
once, in the cached :func:`_cell_table`.  A :class:`BoundsReport` holds
a_1..a_g and their archimedean and valuation flags as three flat tuples.
"""

from __future__ import annotations

from functools import cache
from math import comb, isqrt
from operator import eq, le, mod, mul, not_
from typing import NamedTuple, Sequence

from .errors import ShapeError
from .weil import WeilParams, q_powers


class BoundsReport(NamedTuple):
    """Bound checks on one polynomial; the tuples hold one entry per k = 1..g."""

    params: WeilParams
    a_values: tuple[int, ...]
    archimedean_ok: tuple[bool, ...]
    valuation_ok: tuple[bool, ...]
    lemma_a1_ok: bool
    symmetric_ok: bool


@cache
def _cell_table(g: int, p: int, n: int) -> tuple[tuple, tuple, tuple, tuple]:
    """Per k = 1..g: isqrt(C(2g,k)**2 * q**k), p**ceil(nk/2) and q**k; and the
    indices k - 1 of the odd a_k that must vanish, as p > C(2g,k)**2."""
    powers = q_powers(p ** n, g)
    ks = range(1, g + 1)
    return (
        tuple(isqrt(comb(2 * g, k) ** 2 * powers[k]) for k in ks),
        tuple(p ** ((n * k + 1) // 2) for k in ks),
        tuple(powers[1:]),
        tuple(k - 1 for k in ks if k % 2 and p > comb(2 * g, k) ** 2),
    )


def full_bounds_report(coeffs: Sequence[int], params: WeilParams) -> BoundsReport:
    """Every bound check on the polynomial with ascending, trailing-zero-free ``coeffs``."""
    p, n, g = params
    if len(coeffs) != 2 * g + 1 or coeffs[-1] != 1:
        degree = len(coeffs) - 1 if coeffs else "-inf"
        raise ShapeError(f"polynomial must be monic of degree {2 * g}, got degree {degree}")
    arch, val, powers, vanish = _cell_table(g, p, n)
    a = tuple(coeffs[2 * g - 1:g - 1:-1])  # a_k = c_{2g-k}, k = 1..g
    return BoundsReport(
        params, a,
        tuple(map(le, map(abs, a), arch)),  # |a_k| <= isqrt(C(2g,k)**2 * q**k)
        tuple(map(not_, map(mod, a, val))),  # p**ceil(nk/2) divides a_k
        not any(map(a.__getitem__, vanish)),  # lemma_a1_ok
        # symmetric_ok: c_{g-j} == q**j * c_{g+j}, j = 1..g
        all(map(eq, coeffs[g - 1::-1], map(mul, powers, coeffs[g + 1:]))),
    )
