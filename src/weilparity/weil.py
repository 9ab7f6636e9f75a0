"""Supersingular Weil numbers and their minimal polynomials.

Every root of the Frobenius characteristic polynomial of a
supersingular abelian variety has absolute value ``sqrt(q)`` and can be
written as ``sqrt(q_star) * zeta`` where ``q_star`` is ``q`` or ``-q``
and ``zeta`` is a primitive ``4t``-th root of unity.  Depending on
``(q_star, t, p)`` the minimal polynomial of such a number has degree
``phi(4t)`` (the full degree case) or ``phi(4t)/2`` (the half degree
case).  Only the full-degree polynomial is constructed here, in
``Y = X**2``: it is ``Q(X**2)`` for Q the minimal polynomial of
``alpha**2 = q_star * zeta_2t``, of degree phi(2t), so no square root is
ever materialized.  Q is built in two steps: a q-free *shape* in Y,
``Phi_M`` for M the order of ``alpha**2 / q = sign * zeta_2t``
(:func:`minpoly_shape`), and a scaling of ``Y**j`` by ``q**(d - j)`` on
a shape of degree d, which commutes with multiplication, so products of
shapes can be built once and scaled to any q.  A polynomial in Y is
even in X, so nothing here needs a parity check.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import mul
from typing import NamedTuple

from .cyclotomic import FACTORIZE_CAP, cyclotomic, is_prime
from .errors import HalfDegreeUnsupported, OutOfRange
from .intpoly import IntPoly


class _WeilParams(NamedTuple):
    p: int
    n: int
    g: int


class WeilParams(_WeilParams):
    """The triple (p, n, g) with q = p**n.

    ``n`` must be odd: over even powers of p the parity statements
    checked by this package simply fail (already ``(X - p**m)**(2*g)``
    is a counterexample), so even ``n`` is rejected at construction.
    """

    __slots__ = ()

    def __new__(cls, p: int, n: int, g: int):
        if p > FACTORIZE_CAP:  # before is_prime, whose cap error would say n
            raise OutOfRange(f"p={p} exceeds the trial-division cap {FACTORIZE_CAP}")
        if p < 2 or not is_prime(p):
            raise ValueError(f"p={p} must be prime")
        if n < 1 or n % 2 == 0:
            raise ValueError(f"n={n} must be a positive odd integer")
        if g < 1:
            raise ValueError(f"g={g} must be a positive integer")
        return super().__new__(cls, p, n, g)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: check there too
        return cls(*iterable)

    @property
    def q(self) -> int:
        return self.p ** self.n


class _WeilNumberSpec(NamedTuple):
    q_star_sign: int
    t: int


class WeilNumberSpec(_WeilNumberSpec):
    """A Weil number ``sqrt(q_star_sign * q) * zeta_4t``; its degree case also needs (p, n)."""

    __slots__ = ()

    def __new__(cls, q_star_sign: int, t: int):
        if q_star_sign not in (1, -1):
            raise ValueError("q_star_sign must be +1 or -1")
        if t < 1:
            raise ValueError("t must be a positive integer")
        return super().__new__(cls, q_star_sign, t)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: check there too
        return cls(*iterable)


def is_full_degree(p: int, q_star_sign: int, t: int) -> bool:
    """Decide the full/half degree dichotomy for ``sqrt(q_star)*zeta_4t`` over q = p**n.

    Full degree holds iff either q_star is odd and (t is even, or p does
    not divide t, or q_star = 1 mod 4), or q_star is even and
    t != 2 mod 4.  q itself is never built: q_star is odd iff p is, and
    n is odd (see :class:`WeilParams`), so q = p mod 4 and q_star's
    residue mod 4 is that of q_star_sign * p.  Sign and t are not
    checked here: they are those of a :class:`WeilNumberSpec`, which
    checks them once, when it is built.
    """
    if p % 2:
        return t % 2 == 0 or t % p != 0 or q_star_sign * p % 4 == 1
    return t % 4 != 2


def minpoly_shape(q_star_sign: int, t: int) -> IntPoly:
    """The q-free shape, in ``Y = X**2``, of the minimal polynomial of ``sqrt(q_star) * zeta_4t``.

    It is ``Phi_M`` for M the order of ``q_star_sign * zeta_2t``: t for
    sign -1 and odd t, else 2t, so both signs of an even t give one
    shape.  Scaling ``Y**j`` by ``q**(phi(M) - j)`` gives the minimal
    polynomial of ``q_star * zeta_2t``, which is the minimal polynomial
    of ``sqrt(q_star) * zeta_4t`` in ``X**2``.
    """
    WeilNumberSpec(q_star_sign, t)  # the spec's own checks on sign and t
    return cyclotomic(t if q_star_sign == -1 and t % 2 else 2 * t)


def q_powers(q: int, k: int) -> list[int]:
    """``[1, q, q**2, ..., q**k]``: enough to scale a shape of degree <= k in Y."""
    return list(accumulate(repeat(q, k), mul, initial=1))


def minpoly_full_degree(params: WeilParams, q_star_sign: int, t: int) -> IntPoly:
    """Minimal polynomial of ``sqrt(q_star) * zeta_4t`` in the full degree case.

    It is the shape of :func:`minpoly_shape`, with ``Y**j`` scaled by
    ``q**(phi(2t) - j)``, in ``Y = X**2``: the coefficient of ``X**(2j)``
    is ``c_j * q**(phi(2t) - j)`` for ``c_j`` that of ``Y**j`` in the
    shape, an exact monic integer polynomial of degree phi(4t) = 2 phi(2t).
    """
    WeilNumberSpec(q_star_sign, t)  # the spec's own checks on sign and t
    if not is_full_degree(params.p, q_star_sign, t):
        raise HalfDegreeUnsupported(
            f"(sign={q_star_sign:+d}, t={t}) at p={params.p}, n={params.n} is a "
            "half degree case; its minimal polynomial is not constructed"
        )
    shape = minpoly_shape(q_star_sign, t).coeffs
    m = len(shape) - 1
    powers = q_powers(params.q, m)
    out = [0] * (2 * m + 1)
    out[::2] = [c * powers[m - j] for j, c in enumerate(shape)]  # Y**j is X**(2j)
    return IntPoly(out)
