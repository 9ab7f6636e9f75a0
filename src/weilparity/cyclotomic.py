"""Cyclotomic polynomials and the prime factorizations they need.

:func:`cyclotomic` builds the n-th cyclotomic polynomial by the sparse
power-series method of Arnold and Monagan ("Calculating cyclotomic
polynomials", Math. Comp. 80, 2011): reduce ``n`` to its radical, strip
a factor 2 by ``X -> -X``, apply the factors ``(1 - X**d)**mu(n/d)``
to the lower half of the coefficients in place, and mirror the
palindrome.  The divisors d of a squarefree n and the signs mu(n/d) are
read off its prime list.  The reduction Phi_n(X) = Phi_rad(n)(X**k),
k = n / rad(n), is :func:`cyclotomic_radical`, which a caller that only
prints Phi_n uses without substituting.  The test suite checks the
result against an independent oracle, the same Moebius product taken as
one exact polynomial quotient (``cyclotomic_mobius`` in
``tests/oracles.py``), which shares no arithmetic helper with this
module.

A polynomial is the tuple of its coefficients in ascending degree
order, ``(c0, c1, ..., cd)`` for ``c0 + c1*X + ... + cd*X**d``.  The
memo table of :func:`cyclotomic` hands out its tuples themselves, which
no caller can change.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import isqrt, prod

from .errors import OutOfRange

FACTORIZE_CAP = 10 ** 9  # trial-division scale
CYCLOTOMIC_CAP = 10 ** 6  # about 2**omega(n) * phi(n)/2 coefficient updates


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization by trial division.

    The (prime, exponent) pairs of ``n``, primes increasing; 1 has none.
    """
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
    return tuple(factors)


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == ((n, 1),)


def totient(n: int) -> int:
    """Euler's totient via the product formula over the factorization."""
    result = 1
    for p, e in factorize(n):
        result *= p ** (e - 1) * (p - 1)
    return result


def _check_cap(n: int) -> None:
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > CYCLOTOMIC_CAP:
        raise OutOfRange(f"n={n} exceeds the cyclotomic cap {CYCLOTOMIC_CAP}")


def cyclotomic_radical(n: int) -> tuple[tuple[int, ...], int]:
    """(Phi_m, k) for m = rad(n) and k = n // m, so that Phi_n(X) = Phi_m(X**k).

    The n-th cyclotomic polynomial is then read off Phi_m without being
    built: its coefficients are those of Phi_m, each followed by k - 1
    zeros, the last excepted.
    """
    _check_cap(n)
    rad = prod(p for p, _ in factorize(n))
    return _cyclotomic(rad), n // rad


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    if n == 1:
        return (-1, 1)
    if n == 2:
        return (1, 1)
    primes = [p for p, _ in factorize(n)]
    if prod(primes) != n:  # Phi_n(X) = Phi_m(X**k)
        base, k = cyclotomic_radical(n)
        out = [0] * ((len(base) - 1) * k + 1)
        out[::k] = base
        return tuple(out)
    if n % 2 == 0:  # Phi_n(X) = Phi_{n/2}(-X)
        return tuple(-c if i & 1 else c for i, c in enumerate(_cyclotomic(n // 2)))
    # Odd squarefree n > 1: prod_{d | n} (1 - X**d)**mu(n/d) as a power
    # series truncated after X**half, where factors with d > half are 1.
    # The palindrome fixes the upper half.  Each pair is (d, mu(n/d) == 1):
    # n/d has one prime fewer for each prime d takes.
    pairs = [(1, len(primes) % 2 == 0)]
    for p in primes:
        pairs += [(d * p, not plus) for d, plus in pairs]
    half = totient(n) // 2
    series = [1] + [0] * half
    for d, plus in sorted(pairs):
        if d > half:
            break
        if plus:
            series[d:] = [hi - lo for hi, lo in zip(series[d:], series)]
        else:
            # 1/(1 - X**d): running sums along each residue class mod d.
            for r in range(d):
                series[r::d] = accumulate(series[r::d])
    return (*series, *series[-2::-1])


def cyclotomic(n: int) -> tuple[int, ...]:
    """The n-th cyclotomic polynomial, exactly, as its ascending coefficients.

    Built by the sparse power-series construction described in the
    module docstring.  Monic of degree ``totient(n)``.
    """
    _check_cap(n)
    return _cyclotomic(n)

