"""The library's integer polynomials: coefficients and a product, nothing else.

``coeffs`` is a tuple of integers in ascending degree order:
``(c0, c1, ..., cd)`` stands for ``c0 + c1*X + ... + cd*X**d``, with
trailing zeros stripped on construction (zero is the empty tuple).  The
library builds only cyclotomic polynomials, minimal polynomials and
products of shapes; a caller that substitutes X -> X**k or X -> -X, or
prints, works on ``coeffs`` itself.  The tests do their ring arithmetic
in a ring of their own (``tests/oracles.py``) that multiplies by
Kronecker substitution, so a fault in the product here cannot move an
oracle.  Values are immutable, so the ``lru_cache`` of cyclotomic
polynomials can share them, between threads too.
"""

from __future__ import annotations

from typing import Iterable


def _mul_schoolbook(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


class IntPoly:
    """An integer polynomial in canonical (trailing-zero-free) form.

    >>> (IntPoly([-1, 1]) * IntPoly([1, 1, 0])).coeffs
    (-1, 0, 1)
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

    def __mul__(self, other: IntPoly) -> IntPoly:
        return IntPoly(_mul_schoolbook(self.coeffs, other.coeffs))
