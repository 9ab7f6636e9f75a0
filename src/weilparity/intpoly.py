"""The one product of library polynomials, kept as a class for the benchmark's tracer.

Library polynomials are plain tuples of integers in ascending degree
order.  Only ``enumerator.candidate_shapes`` multiplies: it wraps its
shapes in :class:`IntPoly` and returns the products' ``coeffs``.  The
class stays only because the benchmark's ``--trace 1`` mode wraps
``IntPoly.__mul__``; once it no longer does, a ``_mul`` on tuples
replaces it and this module goes.
"""

from __future__ import annotations


def _mul_schoolbook(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


class IntPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)

    def __mul__(self, other: IntPoly) -> IntPoly:
        return IntPoly(_mul_schoolbook(self.coeffs, other.coeffs))
