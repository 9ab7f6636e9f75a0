"""Enumeration of degree-2g supersingular Weil polynomial candidates.

A candidate is any product of full-degree Weil-number minimal
polynomials whose degrees sum to exactly 2g.  This deliberately
over-enumerates: no attempt is made to decide which candidates are
Frobenius polynomials of actual abelian varieties, which is sound for
checking statements quantified over all of them.  Half-degree Weil
numbers cannot be expanded into polynomials, so they are detected and
reported separately: when p > 2g+1 none may fit inside degree 2g.

The scan over the root-of-unity index t is capped by the provable bound
phi(m) >= sqrt(m/2): once t > 2g**2 every phi(4t) exceeds 2g, so the
enumeration of admissible specs is complete, not heuristic.

Candidates are built from q-free shapes.  Each minimal polynomial is
``q**(d/2) * S(X/sqrt(q))`` for the integer shape S of its spec (sign,
t), and that scaling is multiplicative, so every candidate is the
scaled product of its factors' shapes.  The products are built once per
key ``(g, specs)`` by a depth-first search over multiplicities that
shares prefix products and prunes every branch the remaining specs
cannot fill; a cell then only scales them by its q.  The key is the
spec tuple the cell itself computes, not the one the theorem predicts:
cells whose spec sets differ (p <= 2g+1, p = 2) get their own entry, so
a verify run still checks every cell instead of assuming the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import compress
from math import isqrt

from .cyclotomic import totient
from .errors import CapExceeded, OutOfRange
from .intpoly import IntPoly
from .weil import WeilNumberSpec, WeilParams, is_full_degree, minpoly_shape, scale_shape

G_CAP = 10
PRIME_SIEVE_CAP = 10 ** 7  # a byte per integer up to the sieve limit


def _check_g_cap(g: int, name: str = "g") -> None:
    if g > G_CAP:
        raise CapExceeded(f"{name}={g} exceeds the enumeration cap {G_CAP}")


@dataclass(frozen=True, slots=True)
class CandidatePolynomial:
    """An expanded candidate with its factorization record.

    ``poly`` is the exact product of the full-degree minimal polynomials
    listed in ``factors`` (spec, multiplicity), monic of degree 2g with
    constant term of absolute value q**g.  ``even`` is derived from
    ``poly`` once, at construction.
    """

    poly: IntPoly
    factors: tuple[tuple[WeilNumberSpec, int], ...]
    even: bool = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "even", self.poly.is_even())


@dataclass(frozen=True)
class ParityReport:
    """Machine-readable verdict of the parity check for one (p, n, g).

    The counts and ``violations`` (the odd candidates) are derived from
    ``candidates``.
    """

    params: WeilParams
    candidates: tuple[CandidatePolynomial, ...]
    half_degree_specs: tuple[WeilNumberSpec, ...]

    @property
    def violations(self) -> tuple[CandidatePolynomial, ...]:
        return tuple(c for c in self.candidates if not c.even)

    @property
    def total_candidates(self) -> int:
        return len(self.candidates)

    @property
    def odd_candidates(self) -> int:
        return len(self.violations)

    @property
    def contract_ok(self) -> bool:
        """Whether the report is consistent with evenness at p > 2g+1.

        For p > 2g+1 every candidate must be even and no half-degree
        spec may fit inside degree 2g; below that threshold the report
        is informational and always consistent.
        """
        if self.params.p > 2 * self.params.g + 1:
            return self.odd_candidates == 0 and not self.half_degree_specs
        return True


@dataclass(frozen=True)
class GridResult:
    reports: tuple[ParityReport, ...]

    @property
    def all_ok(self) -> bool:
        return all(r.contract_ok for r in self.reports)


def admissible_full_degree_specs(params: WeilParams) -> list[WeilNumberSpec]:
    """All full-degree specs whose minimal polynomial fits in degree 2g.

    Both signs of q_star are scanned for every t up to 2g**2, beyond
    which phi(4t) > 2g always.  Ordered by (t, sign).
    """
    out = []
    for t in range(1, 2 * params.g * params.g + 1):
        if totient(4 * t) > 2 * params.g:
            continue
        for sign in (-1, 1):
            if is_full_degree(params, sign, t):
                out.append(WeilNumberSpec(sign, t))
    return out


@cache
def _candidate_shapes(
    g: int, specs: tuple[WeilNumberSpec, ...]
) -> tuple[tuple[IntPoly, tuple[tuple[WeilNumberSpec, int], ...]], ...]:
    """Every degree-2g product of the specs' shapes with its factor record.

    A depth-first search over the multiplicity of each spec in turn
    extends one prefix product per branch, and enters a branch only if
    the specs after it can fill the degree still left.  The result is in
    canonical order: sorted by the factor record, lexicographically on
    (t, sign, multiplicity) triples.
    """
    degrees = [totient(4 * s.t) for s in specs]
    shapes = [minpoly_shape(s.q_star_sign, s.t) for s in specs]
    total = 2 * g
    # fillable[i][k]: some multiplicities over specs[i:] sum to degree k
    fillable = [[True] + [False] * total]
    for d in reversed(degrees):
        reach = list(fillable[0])
        for k in range(d, total + 1):
            reach[k] = reach[k] or reach[k - d]
        fillable.insert(0, reach)

    out = []

    def extend(i, left, poly, factors):
        if left == 0:
            out.append((poly, factors))
            return
        d, rest = degrees[i], fillable[i + 1]
        top = max(m for m in range(left // d + 1) if rest[left - m * d])
        for m in range(top + 1):
            if m:
                poly = poly * shapes[i]
            if rest[left - m * d]:
                extend(i + 1, left - m * d, poly, factors + ((specs[i], m),) if m else factors)

    if fillable[0][total]:
        extend(0, total, IntPoly.one(), ())
    out.sort(key=lambda entry: tuple((s.t, s.q_star_sign, m) for s, m in entry[1]))
    return tuple(out)


def enumerate_candidates(params: WeilParams) -> list[CandidatePolynomial]:
    """Every multiset of admissible specs expanded to a degree-2g product.

    The products come from :func:`_candidate_shapes`, scaled by q.  The
    result is in canonical order: sorted by the factor record,
    lexicographically on (t, sign, multiplicity) triples.
    """
    _check_g_cap(params.g)
    specs = tuple(admissible_full_degree_specs(params))
    q = params.q
    return [
        CandidatePolynomial(poly=scale_shape(shape, q), factors=factors)
        for shape, factors in _candidate_shapes(params.g, specs)
    ]


def half_degree_candidates(params: WeilParams) -> list[WeilNumberSpec]:
    """All half-degree specs whose minimal polynomial would fit in degree 2g.

    Scans both signs for every t up to 8g**2, beyond which even the
    halved degree phi(4t)/2 exceeds 2g.  For odd p this reduces to:
    t odd, p | t, q_star = 3 mod 4 and phi(t) <= 2g.  Capped at
    ``G_CAP`` like :func:`enumerate_candidates`, since the scan grows as g**2.
    """
    _check_g_cap(params.g)
    out = []
    for t in range(1, 8 * params.g * params.g + 1):
        if totient(4 * t) // 2 > 2 * params.g:
            continue
        for sign in (-1, 1):
            if not is_full_degree(params, sign, t):
                out.append(WeilNumberSpec(sign, t))
    return out


def verify_parity_theorem(params: WeilParams) -> ParityReport:
    """Enumerate all candidates for (p, n, g) and report their parity.

    When p > 2g+1 the report's contract requires zero odd candidates
    and no half-degree spec; the report states what was found either
    way and never raises on a violation.
    """
    return ParityReport(
        params=params,
        candidates=tuple(enumerate_candidates(params)),
        half_degree_specs=tuple(half_degree_candidates(params)),
    )


def primes_between(low: int, high: int) -> list[int]:
    """Primes p with low < p <= high, by a sieve of Eratosthenes up to high."""
    if high > PRIME_SIEVE_CAP:
        raise OutOfRange(f"p_max={high} exceeds the prime sieve cap {PRIME_SIEVE_CAP}")
    if high < 2:
        return []
    sieve = bytearray([1]) * (high + 1)
    sieve[:2] = b"\0\0"
    for d in range(2, isqrt(high) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, high + 1, d)))
    start = max(low + 1, 2)
    return list(compress(range(start, high + 1), sieve[start:]))


def grid_primes(g_max: int, p_max: int, n_values: list[int]) -> list[int]:
    """Check a :func:`verify_grid` grid before any work; return its primes.

    Every n must be valid for :class:`WeilParams`, and every g <= g_max
    must have a prime p with 2g+1 < p <= p_max; a grid that leaves some
    g uncovered is a ``ValueError``, since it would not verify what was
    asked.  A p_max above ``PRIME_SIEVE_CAP`` is :class:`OutOfRange`.
    """
    if g_max < 1:
        raise ValueError("g_max must be a positive integer")
    if not n_values:
        raise ValueError("n_values must name at least one n")
    _check_g_cap(g_max, "g_max")
    primes = primes_between(1, p_max)
    # g is covered iff 2g+1 < the largest prime, so the uncovered g form a tail
    covered = (primes[-1] - 2) // 2 if primes else 0
    if covered < g_max:
        raise ValueError(
            f"empty grid for g={covered + 1}..{g_max}: no prime p with 2g+1 < p <= {p_max}"
        )
    for n in n_values:
        WeilParams(p=primes[-1], n=n, g=g_max)  # a cell of the grid, so n is checked
    return primes


def verify_grid(g_max: int, p_max: int, n_values: list[int]) -> GridResult:
    """One parity report per (g, p, n) with 2g+1 < p <= p_max.

    Cells are visited in grid order (g, then p, then the given n order),
    once :func:`grid_primes` has checked the grid.
    """
    primes = grid_primes(g_max, p_max, n_values)
    return GridResult(
        reports=tuple(
            verify_parity_theorem(WeilParams(p=p, n=n, g=g))
            for g in range(1, g_max + 1)
            for p in primes
            if p > 2 * g + 1
            for n in n_values
        )
    )
