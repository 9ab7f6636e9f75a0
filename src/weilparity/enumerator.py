"""Enumeration of degree-2g supersingular Weil polynomial candidates.

A candidate is any product of full-degree Weil-number minimal
polynomials whose degrees sum to exactly 2g.  This deliberately
over-enumerates: no attempt is made to decide which candidates are
Frobenius polynomials of actual abelian varieties, which is sound for
checking statements quantified over all of them.  Half-degree Weil
numbers cannot be expanded into polynomials, so they are detected and
reported separately: when p > 2g+1 none may fit inside degree 2g.

Everything here is in ``Y = X**2``: the minimal polynomial of spec
(sign, t) is a polynomial of degree phi(2t) = phi(4t)/2 in Y (see
``weil``), and a candidate one of degree g.  A polynomial in Y is even
in X, so no candidate is odd, by construction.

One spec scan per class of p decides the full/half degree dichotomy.
It runs over the root-of-unity indices t with phi(2t) <= 2g, listed by
inverse totient: a prime p dividing m = 2t has p - 1 <= phi(m) <= 2g,
so a walk over the prime powers of the primes up to 2g + 1, carrying
phi, finds every such t exactly, with no factorization.  Those t do not
depend on (p, n), so their specs (both signs of each) are built, and
checked, once per g.  ``is_full_degree`` reads of p only its residue
mod 4 and which t it divides, and by the same bound no p above 2g + 1
divides a fitting t: so a class is one p <= 2g + 1, or every p above
it, which holds every cell of a ``verify`` grid.  The scan of a class
is cached; it runs ``is_full_degree`` once on each spec: a half-degree
spec fits if phi(2t) <= 2g, a full-degree one only if phi(2t) <= g.  A
:class:`ParityReport`, a ``collections.namedtuple`` subclass, holds that
scan and nothing else; its count is computed from it when read.

Counting needs no product.  A cell's candidates are the multisets of
its full-degree specs whose degrees in Y sum to g, and their number is
the coefficient of x**g in the product of 1/(1 - x**phi(2t)) over those
specs: :func:`_candidate_count` computes it by an integer DP over the
degrees, once per key ``(g, specs)``, and builds no polynomial.  The key
is the spec tuple the cell itself computes, not the one the theorem
predicts: cells whose spec sets differ (p <= 2g+1, p = 2) get their own
entry.  The count of every product, each built in X and tested with
``is_even``, is kept in the tests as the oracle of this one.

Candidates are expanded only where their coefficients are printed, from
:func:`candidate_shapes`.  Each minimal polynomial is its spec's q-free
shape in Y with ``Y**j`` scaled by ``q**(d - j)``, d its degree, and
that scaling is multiplicative, so every candidate is the scaled
product of its factors' shapes.  The products are built by a
recurrence memoized on (spec index, degree left).  The command line
builds them once per report (once per g for a ``verify`` grid) and
turns them into a cell's text, literal pieces around slots for p, n and
each distinct value c * q**e among the coefficients, and a cell only
fills it: each slot is converted to decimal once, and the pieces and
those texts are joined once.  This module writes no output text.

A ``verify`` grid is decided once per g: its cells above 2g + 1 are one
scan class, so they share one report, and :func:`verify_grid` returns
that report with the grid's primes above 2g + 1, a view of one array
shared by every g.  No cell gets a report or a :class:`WeilParams` of its
own: only the first cell of each g, and one cell per n (to check n),
prove their p prime again by trial division.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import namedtuple
from functools import cache
from itertools import compress
from math import isqrt

from .cyclotomic import totient
from .errors import OutOfRange
from .weil import WeilNumberSpec, WeilParams, is_full_degree, minpoly_shape

G_CAP = 10
PRIME_SIEVE_CAP = 10 ** 7  # a byte per integer up to the sieve limit


def _check_g_cap(g: int, name: str = "g") -> None:
    if g > G_CAP:
        raise OutOfRange(f"{name}={g} exceeds the enumeration cap {G_CAP}")


class ParityReport(namedtuple("ParityReport", "params full_degree_specs half_degree_specs")):
    """Machine-readable verdict of the parity check for one (p, n, g).

    The report is the cell's spec scan: ``params``, a :class:`WeilParams`,
    then the full-degree specs that fit in degree 2g and the half-degree
    specs that would, each a tuple of :class:`WeilNumberSpec`.  The
    candidate count is the cached count of the full-degree spec tuple; the
    candidates themselves are :func:`candidate_shapes` of the same key.
    A report of :func:`verify_grid` stands for its whole scan class, and
    its ``params`` are the class's first cell.
    """

    __slots__ = ()

    @property
    def total_candidates(self) -> int:
        return _candidate_count(self.params.g, self.full_degree_specs)

    @property
    def odd_candidates(self) -> int:
        """Always 0, by construction: every candidate is a polynomial in ``Y = X**2``."""
        return 0

    @property
    def contract_ok(self) -> bool:
        """Whether the report is consistent with evenness at p > 2g+1.

        For p > 2g+1 no half-degree spec may fit inside degree 2g (no
        candidate is odd, see :attr:`odd_candidates`); below that
        threshold the report is informational and always consistent.
        """
        return self.params.p <= 2 * self.params.g + 1 or not self.half_degree_specs


@cache
def _fitting_specs(g: int) -> tuple[tuple[WeilNumberSpec, int], ...]:
    """Every spec (sign, t) with phi(2t) <= 2g, with its phi(2t), ordered by (t, sign).

    The m = 2t with phi(m) <= 2g are listed by inverse totient, with no
    factorization: a prime p dividing m has p - 1 <= phi(m), so m is
    2**e (e >= 1) times prime powers of the odd primes p <= 2g + 1.  A
    depth-first walk multiplies in those prime powers, primes in
    increasing order, carrying phi, and stops where phi exceeds 2g; phi
    is multiplicative, so no m is missed.  The list depends on g alone,
    so each spec is built, and checked, once per g; ``G_CAP`` applies.
    """
    _check_g_cap(g)
    bound = 2 * g
    odd_primes = primes_between(2, bound + 1)
    found = []  # (m, phi(m))

    def walk(m: int, phi: int, start: int) -> None:
        found.append((m, phi))
        for i in range(start, len(odd_primes)):
            p = odd_primes[i]
            m_p, phi_p = m * p, phi * (p - 1)
            if phi_p > bound:
                break  # and so for every larger prime
            while phi_p <= bound:
                walk(m_p, phi_p, i + 1)
                m_p, phi_p = m_p * p, phi_p * p

    m, phi = 2, 1
    while phi <= bound:
        walk(m, phi, 0)
        m, phi = 2 * m, 2 * phi
    return tuple((WeilNumberSpec(sign, m // 2), d) for m, d in sorted(found) for sign in (-1, 1))


@cache
def _scan_class(
    g: int, p: int | None
) -> tuple[tuple[WeilNumberSpec, ...], tuple[WeilNumberSpec, ...]]:
    """(full, half): the specs of g whose minimal polynomial fits, or would fit, in degree 2g.

    For the cells of g with prime p <= 2g + 1, or (``None``) with any p
    above it, which divides no fitting t.  ``is_full_degree`` reads t mod
    4 at p = 2, and at odd p only whether p divides t and p mod 4 (that
    of q, since n is odd): so it gives every cell of the class one
    answer per spec, and is run once on each spec of
    :func:`_fitting_specs`, at one p of the class: for ``None``, the
    least prime above 2g + 1 (at most 4g + 2, by Bertrand).  A
    half-degree spec fits if phi(2t) <= 2g, a full-degree one only if
    phi(2t) <= g.  For odd p the half side reduces to: t odd, p | t,
    q_star = 3 mod 4 and phi(t) <= 2g.  Both are ordered by (t, sign).
    """
    specs = _fitting_specs(g)  # first: it checks G_CAP before any sieve sized by g
    if p is None:
        p = primes_between(2 * g + 1, 4 * g + 2)[0]
    full, half = [], []
    for spec, degree in specs:
        if not is_full_degree(p, spec.q_star_sign, spec.t):
            half.append(spec)
        elif degree <= g:
            full.append(spec)
    return tuple(full), tuple(half)


@cache
def _candidate_count(g: int, specs: tuple[WeilNumberSpec, ...]) -> int:
    """The number of degree-g products of the specs' shapes, from their degrees alone.

    ``ways[k]`` counts the multisets of the specs taken so far whose
    degrees phi(2t) sum to k: the coefficient of x**k in the product of
    1/(1 - x**d) over their degrees d.  No shape is built.
    """
    ways = [1] + [0] * g
    for spec in specs:
        d = totient(2 * spec.t)
        for k in range(d, g + 1):
            ways[k] += ways[k - d]
    return ways[g]


def candidate_shapes(
    g: int, specs: tuple[WeilNumberSpec, ...]
) -> tuple[tuple[tuple[int, ...], tuple[tuple[WeilNumberSpec, int], ...]], ...]:
    """Every degree-g product of the specs' shapes, in ``Y = X**2``, with its factor record.

    A cell's candidates are these products, for ``specs`` its full-degree
    specs, with ``Y**j`` scaled by ``q**(g - j)`` and read in ``X**2``; a
    product is its ascending coefficients, and a record lists (spec,
    multiplicity) pairs.  This is the one place the library multiplies
    polynomials: the shapes are wrapped in ``IntPoly`` for the call, and
    the products unwrapped before it returns.  ``products(i, left)``,
    memoized for the call, lists the products of ``specs[i:]`` of degree
    ``left`` > 0: ``shape_i**m`` itself if its degree is ``left``, else
    times each product of ``specs[i+1:]`` of degree ``left - m*d_i``, for
    m = 1, 2, ..., then the products of ``specs[i+1:]`` alone.  No product is
    multiplied by the constant 1.  A degree the remaining specs cannot
    fill costs one lookup of ``()``.  The specs come in scan order (by t,
    then sign), so the result is canonical as built: sorted by the factor
    record, lexicographically on (t, sign, multiplicity) triples.
    """
    from .intpoly import IntPoly  # loaded only by a run that multiplies

    degrees = [totient(2 * s.t) for s in specs]
    shapes = [IntPoly(minpoly_shape(s.q_star_sign, s.t)) for s in specs]

    @cache
    def products(i, left):
        if i == len(specs):
            return ()
        out, power = [], shapes[i]
        for m in range(1, left // degrees[i] + 1):
            if m > 1:
                power *= shapes[i]
            rest = left - m * degrees[i]
            if rest == 0:
                out.append((power, ((specs[i], m),)))
            else:
                tails = products(i + 1, rest)
                out += [(power * poly, ((specs[i], m), *record)) for poly, record in tails]
        return (*out, *products(i + 1, left))

    try:
        return tuple((poly.coeffs, record) for poly, record in products(0, g))
    finally:  # the memo is a reference cycle through products: free it now
        products.cache_clear()


def verify_parity_theorem(params: WeilParams) -> ParityReport:
    """Scan the specs of (p, n, g) once; the report counts its candidates when read.

    When p > 2g+1 the report's contract requires no half-degree spec;
    the report states what was found either way and never raises on a
    violation.
    """
    g, p = params.g, params.p
    return ParityReport(params, *_scan_class(g, p if p <= 2 * g + 1 else None))


def primes_between(low: int, high: int) -> array:
    """Primes p with low < p <= high, as an ``array("l")``, by a sieve up to high.

    ``verify_grid`` caps high.  The sieve, a byte per integer, is read through a view."""
    if high < 2:
        return array("l")
    sieve = bytearray([1]) * (high + 1)
    sieve[:2] = b"\0\0"
    for d in range(2, isqrt(high) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, high + 1, d)))
    start = max(low + 1, 2)
    return array("l", compress(range(start, high + 1), memoryview(sieve)[start:]))


def verify_grid(
    g_max: int, p_max: int, n_values: list[int]
) -> tuple[tuple[ParityReport, memoryview], ...]:
    """One (report, primes) pair per g <= g_max: the grid's cells are (g, p, n) with p in primes.

    ``primes`` are the primes p with 2g+1 < p <= p_max, a view of one
    array that every g shares, and the cells of g are in grid order (p,
    then the given n order).  They form one scan class, so they share
    ``report``: :func:`verify_parity_theorem` at the class's first cell,
    the least of the primes and the first n.  The grid is checked before
    any report is built.  Every n must be valid for :class:`WeilParams`,
    none may be repeated (each cell would be checked twice), and every
    g <= g_max must have a prime p with 2g+1 < p <= p_max; a grid that
    leaves some g uncovered is a ``ValueError``, since it would not
    verify what was asked.  A p_max above ``PRIME_SIEVE_CAP`` is
    :class:`OutOfRange`.  Errors name the ``verify`` flags ``--gmax``,
    ``--pmax`` and ``--n``.
    """
    if g_max < 1:
        raise ValueError("--gmax must be a positive integer")
    if not n_values:
        raise ValueError("--n must name at least one n")
    if len(set(n_values)) < len(n_values):
        raise ValueError(f"--n must not repeat an n: {n_values}")
    _check_g_cap(g_max, "--gmax")
    if p_max > PRIME_SIEVE_CAP:
        raise OutOfRange(f"--pmax={p_max} exceeds the prime sieve cap {PRIME_SIEVE_CAP}")
    primes = primes_between(1, p_max)
    # g is covered iff 2g+1 < the largest prime, so the uncovered g form a tail
    covered = (primes[-1] - 2) // 2 if primes else 0
    if covered < g_max:
        raise ValueError(
            f"empty grid for g={covered + 1}..{g_max}: no prime p with 2g+1 < p <= {p_max}"
        )
    for n in n_values:
        WeilParams(p=primes[-1], n=n, g=g_max)  # a cell of the grid, so n is checked
    shared = memoryview(primes)
    firsts = [bisect_right(primes, 2 * g + 1) for g in range(1, g_max + 1)]
    return tuple(
        (verify_parity_theorem(WeilParams(p=primes[i], n=n_values[0], g=g)), shared[i:])
        for g, i in enumerate(firsts, 1)
    )
