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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .cyclotomic import is_prime, totient
from .errors import CapExceeded
from .intpoly import IntPoly
from .weil import WeilNumberSpec, WeilParams, classify, is_full_degree, minpoly_full_degree

G_CAP = 10


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
                out.append(classify(params, sign, t))
    return out


@cache
def _bounded_partitions(degrees: tuple[int, ...], total: int) -> tuple[tuple[int, ...], ...]:
    """All multiplicity vectors over ``degrees`` with weighted sum ``total``."""
    if not degrees:
        return ((),) if total == 0 else ()
    head, rest = degrees[0], degrees[1:]
    out = []
    for mult in range(total // head + 1):
        for tail in _bounded_partitions(rest, total - mult * head):
            out.append((mult,) + tail)
    return tuple(out)


def enumerate_candidates(params: WeilParams) -> list[CandidatePolynomial]:
    """Every multiset of admissible specs expanded to a degree-2g product.

    The result is in canonical order: sorted by the factor record,
    lexicographically on (t, sign, multiplicity) triples.
    """
    _check_g_cap(params.g)
    specs = admissible_full_degree_specs(params)
    degrees = tuple(totient(4 * s.t) for s in specs)
    minpolys = [minpoly_full_degree(params, s.q_star_sign, s.t) for s in specs]
    candidates = []
    for mults in _bounded_partitions(degrees, 2 * params.g):
        factors = tuple((s, m) for s, m in zip(specs, mults) if m)
        poly = IntPoly.one()
        for i, m in enumerate(mults):
            if m:
                poly = poly * (minpolys[i] ** m)
        candidates.append(CandidatePolynomial(poly=poly, factors=factors))
    candidates.sort(key=lambda c: tuple((s.t, s.q_star_sign, m) for s, m in c.factors))
    return candidates


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
                out.append(classify(params, sign, t))
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
    """Primes p with low < p <= high."""
    return [p for p in range(max(low + 1, 2), high + 1) if is_prime(p)]


def verify_grid(g_max: int, p_max: int, n_values: list[int]) -> GridResult:
    """One parity report per (g, p, n) with 2g+1 < p <= p_max.

    Cells are visited in deterministic grid order (g, then p, then the
    given n order).  Before any work, every g <= g_max must have a prime
    p with 2g+1 < p <= p_max; a grid that leaves some g uncovered is a
    ``ValueError``, since it would not verify what was asked.
    """
    if g_max < 1:
        raise ValueError("g_max must be a positive integer")
    _check_g_cap(g_max, "g_max")
    primes = primes_between(1, p_max)
    # g is covered iff 2g+1 < the largest prime, so the uncovered g form a tail
    covered = (primes[-1] - 2) // 2 if primes else 0
    if covered < g_max:
        raise ValueError(
            f"empty grid for g={covered + 1}..{g_max}: no prime p with 2g+1 < p <= {p_max}"
        )
    return GridResult(
        reports=tuple(
            verify_parity_theorem(WeilParams(p=p, n=n, g=g))
            for g in range(1, g_max + 1)
            for p in primes
            if p > 2 * g + 1
            for n in n_values
        )
    )
