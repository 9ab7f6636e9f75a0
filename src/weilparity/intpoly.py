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

from typing import Iterable

NEG_INFINITY = float("-inf")


def _mul_schoolbook(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


class IntPoly:
    """An integer polynomial in canonical (trailing-zero-free) form.

    >>> IntPoly([1, 0, -1, 0, 1]).degree
    4
    >>> IntPoly([]).degree
    -inf
    >>> IntPoly([-1, 1]) * IntPoly([1, 1])
    IntPoly(coeffs=(-1, 0, 1))
    """

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self.coeffs == other.coeffs if type(other) is IntPoly else NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPoly(coeffs={self.coeffs!r})"

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

    # -- text format ----------------------------------------------------

    def to_line(self) -> str:
        """Ascending space-separated decimal coefficients; empty for zero."""
        return " ".join(str(c) for c in self.coeffs)
