"""Cyclotomic polynomials and the totient/Moebius arithmetic they need.

:func:`cyclotomic` builds the n-th cyclotomic polynomial by the sparse
power-series method of Arnold and Monagan ("Calculating cyclotomic
polynomials", Math. Comp. 80, 2011): reduce ``n`` to its radical, strip
a factor 2 by ``X -> -X``, apply the factors ``(1 - X**d)**moebius(n/d)``
to the lower half of the coefficients in place, and mirror the
palindrome.  The test suite checks it against an independent oracle,
the same Moebius product taken as one exact polynomial quotient
(``cyclotomic_mobius`` in ``tests/oracles.py``).

The memo table behind :func:`cyclotomic` is the only shared mutable
state in the package: readers only ever see fully constructed entries,
and a duplicated computation under contention is harmless.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import isqrt, prod
from typing import NamedTuple

from .errors import OutOfRange
from .intpoly import IntPoly

FACTORIZE_CAP = 10 ** 9  # trial-division scale
CYCLOTOMIC_CAP = 10 ** 6  # about 2**omega(n) * phi(n)/2 coefficient updates


class _FactoredInteger(NamedTuple):
    n: int
    factors: tuple[tuple[int, int], ...]


class FactoredInteger(_FactoredInteger):
    """A positive integer with its prime factorization.

    ``factors`` lists (prime, exponent) pairs with strictly increasing
    primes; their product reconstructs ``n`` (the empty product is 1).
    """

    __slots__ = ()

    def __new__(cls, n: int, factors: tuple[tuple[int, int], ...]):
        acc = 1
        prev = 1
        for p, e in factors:
            if p <= prev or e < 1:
                raise ValueError("factors must be increasing primes with positive exponents")
            prev = p
            acc *= p ** e
        if acc != n:
            raise ValueError(f"factorization does not multiply back to {n}")
        return super().__new__(cls, n, factors)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: check there too
        return cls(*iterable)


@lru_cache(maxsize=None)
def factorize(n: int) -> FactoredInteger:
    """Complete prime factorization by trial division."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > FACTORIZE_CAP:
        raise OutOfRange(f"n={n} exceeds the trial-division cap {FACTORIZE_CAP}")
    factors = []
    rest = n
    d = 2
    while d <= isqrt(rest):
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if rest > 1:
        factors.append((rest, 1))
    return FactoredInteger(n, tuple(factors))


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n).factors == ((n, 1),)


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of ``n`` in increasing order."""
    divs = [1]
    for p, e in factorize(n).factors:
        divs = [d * p ** j for d in divs for j in range(e + 1)]
    return tuple(sorted(divs))


def totient(n: int) -> int:
    """Euler's totient via the product formula over the factorization."""
    result = 1
    for p, e in factorize(n).factors:
        result *= p ** (e - 1) * (p - 1)
    return result


def moebius(n: int) -> int:
    """0 if n is not squarefree, else (-1)**(number of prime factors)."""
    factors = factorize(n).factors
    if any(e > 1 for _, e in factors):
        return 0
    return -1 if len(factors) & 1 else 1


def _check_cap(n: int) -> None:
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > CYCLOTOMIC_CAP:
        raise OutOfRange(f"n={n} exceeds the cyclotomic cap {CYCLOTOMIC_CAP}")


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> IntPoly:
    if n == 1:
        return IntPoly((-1, 1))
    if n == 2:
        return IntPoly((1, 1))
    rad = prod(p for p, _ in factorize(n).factors)
    if rad != n:
        return _cyclotomic(rad).compose_power(n // rad)
    if n % 2 == 0:
        return _cyclotomic(n // 2).sign_flip()
    # Odd squarefree n > 1: prod_{d | n} (1 - X**d)**moebius(n/d) as a
    # power series truncated after X**half, where factors with d > half
    # are 1.  The palindrome fixes the upper half.
    half = totient(n) // 2
    series = [1] + [0] * half
    for d in divisors(n):
        if d > half:
            break
        if moebius(n // d) == 1:
            series[d:] = [hi - lo for hi, lo in zip(series[d:], series)]
        else:
            # 1/(1 - X**d): running sums along each residue class mod d.
            for r in range(d):
                series[r::d] = accumulate(series[r::d])
    return IntPoly(series + series[-2::-1])


def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, exactly.

    Built by the sparse power-series construction described in the
    module docstring.  Monic of degree ``totient(n)``.
    """
    _check_cap(n)
    return _cyclotomic(n)

