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
once, in the cached :func:`_cell_table`.  A :class:`BoundsReport`, a
``collections.namedtuple`` subclass, holds a_1..a_g and their
archimedean and valuation flags as three flat tuples.

:func:`ingest_reference` is the file reader of the ``bounds`` command,
the only caller that loads this module.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from math import comb, isqrt
from operator import eq, le, mod, mul, not_

from .errors import ParseError, ShapeError
from .weil import WeilParams, q_powers

TYPE_CHECKING = False
if TYPE_CHECKING:
    import os
    from typing import Callable, Iterator, Sequence


class BoundsReport(namedtuple(
    "BoundsReport", "params a_values archimedean_ok valuation_ok lemma_a1_ok symmetric_ok"
)):
    """Bound checks on one polynomial; the tuples hold one entry per k = 1..g."""

    __slots__ = ()


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


# What a kept memo entry costs beyond its texts, in characters: about the
# bytes of its two objects' headers and its share of the dict's table, so
# that the budget bounds memory for short entries (a token, an a_k) as it
# does for long ones (a line and its item).
_ENTRY_CHARS = 100


class _Memo(dict):
    """``memo[key]`` is ``make(key)``, made at the key's first lookup in a run.

    The entry is kept if its cost fits in ``room[0]``, what is left of the
    run's budget of kept characters, and then takes it from there.  The
    cost is twice the length of whichever of key and value is the text
    (an int counts as long as the text it is made from or into), plus
    ``_ENTRY_CHARS``.  An exception from ``make`` is never kept.
    """

    def __init__(self, make: Callable, room: list[int]):
        super().__init__()
        self.make, self.room = make, room

    def __missing__(self, key):
        value = self.make(key)
        cost = 2 * len(key if isinstance(key, str) else value) + _ENTRY_CHARS
        if cost <= self.room[0]:
            self.room[0] -= cost
            self[key] = value
        return value


def ingest_reference(
    path: str | os.PathLike,
    params: WeilParams,
    render: Callable[[BoundsReport, Callable[[int], str]], str],
    budget: int,
) -> Iterator[str]:
    """``render(report, text)`` of each polynomial line of the file at ``path``, in file order.

    A line's ascending coefficients, trailing zeros dropped, go to
    :func:`full_bounds_report`; ``text(a)`` is ``str(a)``.  Blank lines
    and lines whose text starts with ``#`` are skipped.  The file is
    opened now, before any output, and read a line per item, as UTF-8:
    a byte-order mark at its start is dropped, and bytes that are not
    UTF-8 are kept as lone surrogates, so such a line fails to parse at
    its own number (:class:`ParseError`, with the file and line number).

    Each distinct line is parsed, checked and rendered once: a repeat
    reuses its item.  Each distinct token goes through ``int`` once and
    each distinct ``text`` argument through ``str`` once.  All three are
    kept while their keys and texts, with ``_ENTRY_CHARS`` more for each
    entry, fit in ``budget`` characters; what does not fit is made every
    time.  A line that fails is never kept: it exits at its own number.
    A file with no polynomial line raises :class:`ParseError` at its end.
    """
    handle = open(path, "r", encoding="utf-8-sig", errors="surrogateescape")
    return _items(handle, path, params, render, budget)


def _items(handle, path, params, render, budget) -> Iterator[str]:
    room = [budget]
    ints, texts = _Memo(int, room), _Memo(str, room)
    to_int, text = ints.__getitem__, texts.__getitem__
    kept = {}  # a line's raw text, line ending included -> its item
    checked = False
    with handle:
        for lineno, line in enumerate(handle, 1):
            item = kept.get(line)
            if item is None:
                tokens = line.split()
                if not tokens or tokens[0][0] == "#":  # blank, or a comment
                    continue
                try:
                    coeffs = list(map(to_int, tokens))
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: {exc}") from exc
                while coeffs and not coeffs[-1]:
                    coeffs.pop()
                item = render(full_bounds_report(coeffs, params), text)
                cost = len(line) + len(item) + _ENTRY_CHARS
                if cost <= room[0]:
                    room[0] -= cost
                    kept[line] = item
            yield item
            checked = True
    if not checked:  # a run that checked nothing must not succeed
        raise ParseError(f"{path}: no polynomial line, only blank lines and comments")
