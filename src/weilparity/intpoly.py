"""Exact univariate polynomial arithmetic over the integers.

A polynomial is a tuple of arbitrary-precision integer coefficients in
ascending degree order: ``(c0, c1, ..., cd)`` stands for
``c0 + c1*X + ... + cd*X**d``.  Trailing zeros are stripped on
construction, so equality is structural.  The zero polynomial is the
empty tuple; its degree is the distinguished marker ``float("-inf")``
rather than an integer, so arithmetic on the sentinel fails loudly.

Values are immutable and every operation is a pure function, so
instances can be shared between threads without synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import NotDivisible

NEG_INFINITY = float("-inf")


def _mul_schoolbook(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _exact_div_schoolbook(num: tuple[int, ...], den: tuple[int, ...]) -> list[int]:
    lead = den[-1]
    dn = len(den)
    lower = [(i, c) for i, c in enumerate(den[:-1]) if c]
    rem = list(num)
    quot = [0] * (len(num) - dn + 1)
    for k in range(len(num) - 1, dn - 2, -1):
        c = rem[k]
        if not c:
            continue
        t, r = divmod(c, lead)
        if r:
            raise NotDivisible(
                f"leading step {c} not divisible by {lead} at degree {k}"
            )
        pos = k - dn + 1
        quot[pos] = t
        rem[k] = 0
        for i, dc in lower:
            rem[pos + i] -= t * dc
    if any(rem[:dn - 1]):
        raise NotDivisible("division leaves a nonzero remainder")
    return quot


@dataclass(frozen=True)
class IntPoly:
    """An integer polynomial in canonical (trailing-zero-free) form.

    >>> IntPoly([1, 0, -1, 0, 1]).degree
    4
    >>> IntPoly([]).degree
    -inf
    >>> IntPoly([-1, 1]) * IntPoly([1, 1])
    IntPoly(coeffs=(-1, 0, 1))
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> IntPoly:
        return cls(())

    @classmethod
    def one(cls) -> IntPoly:
        return cls((1,))

    @classmethod
    def x(cls) -> IntPoly:
        return cls((0, 1))

    @classmethod
    def x_pow_minus_one(cls, n: int) -> IntPoly:
        """``X**n - 1``."""
        if n < 1:
            raise ValueError("n must be positive")
        return cls((-1,) + (0,) * (n - 1) + (1,))

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int | float:
        """Degree of the polynomial; ``-inf`` for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coefficient(self, i: int) -> int:
        """Coefficient of ``X**i`` (zero beyond the stored degree)."""
        if i < 0:
            raise ValueError("coefficient index must be nonnegative")
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: IntPoly | int) -> IntPoly:
        if isinstance(other, int):
            other = IntPoly((other,))
        elif not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self) -> IntPoly:
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: IntPoly | int) -> IntPoly:
        return self + (-other)

    def __rsub__(self, other: int) -> IntPoly:
        return (-self) + other

    def __mul__(self, other: IntPoly | int) -> IntPoly:
        if isinstance(other, int):
            return IntPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, IntPoly):
            return NotImplemented
        return IntPoly(_mul_schoolbook(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> IntPoly:
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        result = IntPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def exact_div(self, other: IntPoly) -> IntPoly:
        """Exact quotient ``self / other`` over the integers.

        Raises :class:`NotDivisible` if the division leaves a remainder
        or hits a fractional coefficient; either always signals misuse
        or a broken identity, never a value to be approximated.
        """
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return IntPoly.zero()
        num, den = self.coeffs, other.coeffs
        if len(num) < len(den):
            raise NotDivisible("divisor degree exceeds dividend degree")
        return IntPoly(_exact_div_schoolbook(num, den))

    # -- substitutions -------------------------------------------------

    def compose_power(self, k: int) -> IntPoly:
        """Substitute ``X -> X**k``, i.e. return ``self(X**k)``."""
        if k < 1:
            raise ValueError("k must be a positive integer")
        if k == 1 or self.is_zero():
            return self
        out = [0] * ((len(self.coeffs) - 1) * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return IntPoly(out)

    def sign_flip(self) -> IntPoly:
        """Return ``self(-X)``: negate every odd-degree coefficient."""
        return IntPoly(tuple(-c if i & 1 else c for i, c in enumerate(self.coeffs)))

    def is_even(self) -> bool:
        """True iff every odd-degree coefficient vanishes.

        Equivalent to ``self == self.sign_flip()``; vacuously true for
        the zero polynomial.
        """
        return not any(self.coeffs[1::2])

    def eval_int(self, x: int) -> int:
        """Exact evaluation at an integer point (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    __call__ = eval_int

    # -- text format ----------------------------------------------------
    #
    # One polynomial per line: ascending space-separated decimal
    # coefficients; an empty line is the zero polynomial.

    @classmethod
    def from_line(cls, line: str) -> IntPoly:
        tokens = line.split()
        return cls(int(tok) for tok in tokens)

    def to_line(self) -> str:
        return " ".join(str(c) for c in self.coeffs)
