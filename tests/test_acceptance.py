"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines and per-criterion timings.
"""

import time
from math import gcd

import mpmath
from oracles import (
    Poly,
    candidate_counts,
    candidates,
    corollary_threshold,
    cyclotomic_mobius,
    divisors,
    functional_equation_sign,
    grid_reports,
    prime_power_identity_check,
)

from weilparity.bounds import full_bounds_report
from weilparity.cli import run
from weilparity.cyclotomic import cyclotomic, totient
from weilparity.enumerator import primes_between, verify_parity_theorem
from weilparity.weil import WeilParams, is_full_degree, minpoly_full_degree

# Heavy polynomial-construction suites stay within this index cap.
HEAVY_SUITE_CAP = 2000


def _report(num: int, description: str, ok: bool, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {description} ({time.perf_counter() - started:.1f}s)")


def test_criterion_1_cyclotomic_parity_law():
    started = time.perf_counter()
    mismatches = [
        n for n in range(1, 2001)
        if Poly(cyclotomic(n).coeffs).is_even() != (n % 4 == 0)
    ]
    ok = not mismatches
    _report(1, "cyclotomic(n) is even iff 4 | n, for all n <= 2000", ok, started)
    assert ok, f"parity law fails at n = {mismatches[:10]}"


def test_criterion_2_product_formula_and_oracle():
    started = time.perf_counter()
    failures = []
    for n in range(1, 501):
        product = Poly([1])
        for d in divisors(n):
            product = product * Poly(cyclotomic(d).coeffs)
        if product != Poly([0, 1]) ** n - 1:
            failures.append(("product", n))
        if Poly(cyclotomic(n).coeffs) != cyclotomic_mobius(n):
            failures.append(("oracle", n))
    ok = not failures
    _report(2, "divisor product equals X^n - 1 and both constructions agree, n <= 500",
            ok, started)
    assert ok, failures[:10]


def test_criterion_3_prime_power_identities():
    started = time.perf_counter()
    failures = []
    branch_counts = {"p divides n": 0, "p coprime to n": 0}
    for p in (2, 3, 5, 7, 11, 13):
        for k in (1, 2, 3):
            for n in range(1, 51):
                if p ** k * n > HEAVY_SUITE_CAP:
                    continue
                branch_counts["p divides n" if n % p == 0 else "p coprime to n"] += 1
                if not prime_power_identity_check(p, k, n):
                    failures.append((p, k, n))
    ok = not failures and all(count > 0 for count in branch_counts.values())
    _report(3, f"prime-power shift identities, both branches ({branch_counts})",
            ok, started)
    assert ok, failures[:10]


def test_criterion_4_parity_theorem_grid():
    started = time.perf_counter()
    reports = grid_reports(5, 100, [1, 3])  # every cell, each on its own
    bad = [
        (r.params.p, r.params.n, r.params.g)
        for r in reports
        if r.odd_candidates != 0 or r.half_degree_specs
        # every product built and tested, against the count from the factors' degrees
        or candidate_counts(r.params.g, r.full_degree_specs) != (r.total_candidates, 0)
    ]
    nonvacuous = reports and all(r.total_candidates > 0 for r in reports)
    ok = all(r.contract_ok for r in reports) and not bad and bool(nonvacuous)
    _report(4, f"every candidate even and no half-degree spec over "
               f"{len(reports)} grid cells (g<=5, 2g+1<p<=100, n in {{1,3}})",
            ok, started)
    assert ok, bad[:10]


def test_criterion_5_half_degree_boundary():
    started = time.perf_counter()
    at_5 = list(verify_parity_theorem(WeilParams(p=5, n=1, g=3)).half_degree_specs)
    at_11 = list(verify_parity_theorem(WeilParams(p=11, n=1, g=3)).half_degree_specs)
    ok = (
        any(s.q_star_sign == -1 and s.t == 5 for s in at_5)
        and len(at_5) > 0
        and at_11 == []
    )
    _report(5, "half-degree specs: nonempty at (g=3, p=5) with (-,5), empty at (g=3, p=11)",
            ok, started)
    assert ok, (at_5, at_11)


def test_criterion_6_bounds_on_candidates():
    started = time.perf_counter()
    failures = []
    total = 0
    for g in (1, 2, 3, 4):
        for p in primes_between(1, 50):
            for n in (1, 3):
                params = WeilParams(p=p, n=n, g=g)
                for cand in candidates(verify_parity_theorem(params)):
                    total += 1
                    report = full_bounds_report(cand.poly.coeffs, params)
                    arch = all(report.archimedean_ok)
                    val = all(report.valuation_ok)
                    if not (arch and val and report.lemma_a1_ok):
                        failures.append((p, n, g, cand.poly.coeffs))
    ok = not failures and total > 0
    _report(6, f"archimedean, valuation and binomial checks on {total} candidates "
               "(g<=4, p<=50, n in {1,3})", ok, started)
    assert ok, failures[:5]


def test_criterion_7_corollary_thresholds():
    started = time.perf_counter()
    ok = corollary_threshold(3) == 400 and corollary_threshold(1) == 4
    _report(7, "binomial evenness thresholds: g=3 -> 400, g=1 -> 4", ok, started)
    assert ok


def test_criterion_8_minpoly_evenness_and_roots():
    started = time.perf_counter()
    mpmath.mp.dps = 80
    failures = []
    total = 0
    for p in primes_between(1, 50):
        for n in (1, 3):
            params = WeilParams(p=p, n=n, g=1)
            for t in range(1, 201):
                if totient(4 * t) > 20:
                    continue
                for sign in (-1, 1):
                    if not is_full_degree(p, sign, t):
                        continue
                    total += 1
                    poly = Poly(minpoly_full_degree(params, sign, t).coeffs)
                    if not poly.is_even():
                        failures.append(("parity", p, n, sign, t))
                        continue
                    if functional_equation_sign(poly, params.q) is None:
                        failures.append(("functional", p, n, sign, t))
                        continue
                    coeffs = [mpmath.mpc(c) for c in reversed(poly.coeffs)]
                    sqrt_q_star = mpmath.sqrt(mpmath.mpc(sign * params.q))
                    m = 4 * t
                    for j in range(1, m):
                        if gcd(j, m) != 1:
                            continue
                        theta = sqrt_q_star * mpmath.exp(2 * mpmath.pi * mpmath.mpc(0, 1) * j / m)
                        if abs(mpmath.polyval(coeffs, theta)) >= 1e-6:
                            failures.append(("root", p, n, sign, t, j))
    ok = not failures and total > 0
    _report(8, f"{total} full-degree minimal polynomials: even, signed functional "
               "equation, root residuals < 1e-6", ok, started)
    assert ok, failures[:5]


def test_criterion_9_even_exponent_rejection():
    started = time.perf_counter()
    construction_rejected = False
    try:
        WeilParams(p=5, n=2, g=1)
    except ValueError:
        construction_rejected = True
    cli_codes = (
        run(["enumerate", "--g", "1", "--p", "5", "--n", "2"]),
        run(["verify", "--gmax", "3", "--pmax", "50", "--n", "2"]),
        run(["minpoly", "--p", "5", "--n", "2", "--sign", "+", "--t", "1"]),
    )
    ok = construction_rejected and cli_codes == (2, 2, 2)
    _report(9, "even n rejected at construction; CLI exits 2", ok, started)
    assert ok, (construction_rejected, cli_codes)
