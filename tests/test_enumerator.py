"""Candidate enumeration, parity reports, grid verification."""

import random
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    Poly,
    candidate_counts,
    candidates,
    fitting_specs_scan,
    functional_equation_sign,
    minpoly_shape_x,
    scale_x,
)

from weilparity.cli import run
from weilparity.cyclotomic import cyclotomic, factorize, is_prime, totient
from weilparity.enumerator import (
    G_CAP,
    PRIME_SIEVE_CAP,
    _candidate_count,
    candidate_shapes,
    primes_between,
    verify_grid,
    verify_parity_theorem,
)
from weilparity.errors import OutOfRange
from weilparity.weil import (
    WeilNumberSpec,
    WeilParams,
    is_full_degree,
    minpoly_full_degree,
    minpoly_shape,
    q_powers,
)


def spec_pairs(specs):
    return [(s.q_star_sign, s.t) for s in specs]


def full_specs(params):
    return list(verify_parity_theorem(params).full_degree_specs)


def half_specs(params):
    return list(verify_parity_theorem(params).half_degree_specs)


def candidates_of(params):
    return candidates(verify_parity_theorem(params))


# -- the per-candidate construction, kept as the oracle ------------------------


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


def oracle_candidates(params):
    """(poly, factors) per candidate: each rebuilt from one, factor by factor, in ``Poly``."""
    specs = full_specs(params)
    degrees = tuple(totient(4 * s.t) for s in specs)
    out = []
    for mults in _bounded_partitions(degrees, 2 * params.g):
        poly = Poly([1])
        for s, m in zip(specs, mults):
            poly = poly * Poly(minpoly_full_degree(params, s.q_star_sign, s.t)) ** m
        out.append((poly, tuple((s, m) for s, m in zip(specs, mults) if m)))
    out.sort(key=lambda c: tuple((s.t, s.q_star_sign, m) for s, m in c[1]))
    return out


def substituted_minpoly(params, sign, t):
    """c_j * q_star**((phi(4t) - j)/2) on each coefficient c_j of cyclotomic(4t)."""
    phi = cyclotomic(4 * t)
    m = len(phi) - 1
    q_star = sign * params.q
    return Poly(c * q_star ** ((m - j) // 2) if c else 0 for j, c in enumerate(phi))


# p = 2 and 3 and primes on both sides of 2g+1 for every g <= 4
ORACLE_PRIMES = [2, 3, 5, 7, 11, 13, 17]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    g=st.integers(1, 4),
    p=st.sampled_from(ORACLE_PRIMES),
    n=st.sampled_from([1, 3, 5, 7]),
)
def test_enumeration_matches_per_candidate_oracle(g, p, n):
    params = WeilParams(p=p, n=n, g=g)
    got = [(c.poly, c.factors) for c in candidates_of(params)]
    assert got == oracle_candidates(params)


def oracle_spec_scans(params):
    """(full, half) degree specs by the full t-scans up to 2g**2 and 8g**2, per cell."""
    full, half = [], []
    for t in range(1, 8 * params.g * params.g + 1):
        for sign in (-1, 1):
            if is_full_degree(params.p, sign, t):
                if t <= 2 * params.g * params.g and totient(4 * t) <= 2 * params.g:
                    full.append(WeilNumberSpec(sign, t))
            elif totient(4 * t) // 2 <= 2 * params.g:
                half.append(WeilNumberSpec(sign, t))
    return full, half


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    g=st.integers(1, 4),
    p=st.sampled_from(ORACLE_PRIMES),
    n=st.sampled_from([1, 3, 5, 7]),
)
def test_counts_match_per_cell_expansion(g, p, n):
    params = WeilParams(p=p, n=n, g=g)
    report = verify_parity_theorem(params)
    full, half = oracle_spec_scans(params)
    assert report.full_degree_specs == tuple(full)
    assert report.half_degree_specs == tuple(half)
    assert full_specs(params) == full
    assert half_specs(params) == half
    expanded = candidates_of(params)
    oracle = oracle_candidates(params)
    assert report.total_candidates == len(expanded) == len(oracle)
    odd = sum(not c.poly.is_even() for c in expanded)
    assert report.odd_candidates == odd == sum(not poly.is_even() for poly, _ in oracle)
    assert candidate_counts(g, report.full_degree_specs) == (len(expanded), odd)


def test_counts_read_evenness_from_the_shapes(monkeypatch):
    # the per-product count oracle builds every product in X from its own
    # factors and tests it: an odd factor makes every product it enters odd
    import oracles

    real = oracles.minpoly_shape_x
    odd = lambda sign, t: Poly([1, 1, 1]) if (sign, t) == (-1, 1) else real(sign, t)
    monkeypatch.setattr(oracles, "minpoly_shape_x", odd)
    specs = verify_parity_theorem(WeilParams(p=5, n=1, g=2)).full_degree_specs
    assert candidate_counts(2, specs) == (7, 2)  # (-,1)**2 and (-,1)(+,1)


@pytest.mark.parametrize("g", range(1, 13))
def test_count_matches_the_per_product_oracle(monkeypatch, cold_caches, g):
    # the count from the factors' degrees against every product built and
    # tested, past the enumeration cap; p = 2, 3, 5, 7 scan other spec sets
    import weilparity.enumerator as enumerator

    monkeypatch.setattr(enumerator, "G_CAP", 12)
    for p in (2, 3, 5, 7, 101):
        for n in (1, 3):
            report = verify_parity_theorem(WeilParams(p=p, n=n, g=g))
            counts = (report.total_candidates, report.odd_candidates)
            assert counts == candidate_counts(g, report.full_degree_specs), (p, n)


def test_counts_are_shared_across_cells_with_equal_spec_sets(cold_caches, capsys):
    # one count per g: above 2g+1 the spec set does not depend on (p, n),
    # and a TSV grid reads the count once per g, not once per cell
    grid = verify_grid(4, 17, [1, 3])
    assert [r.params.g for r, _ in grid] == [1, 2, 3, 4]
    assert run(["verify", "--gmax", "4", "--pmax", "17", "--n", "1", "--n", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * (5 + 4 + 3 + 3)
    info = _candidate_count.cache_info()
    assert (info.currsize, info.misses, info.hits) == (4, 4, 0)


def scale_y(shape, q):
    """A shape in Y scaled as the command line fills it: Y**j times q**(d - j), read in X**2."""
    d = len(shape) - 1
    powers = q_powers(q, d)
    return Poly(c * powers[d - j] for j, c in enumerate(shape)).compose_power(2)


def test_shape_scaling_matches_minpoly_for_every_admissible_spec():
    for p in (2, 3, 5, 7, 13):
        for n in (1, 3):
            for g in (1, 2, 4, 6):
                params = WeilParams(p=p, n=n, g=g)
                for s in full_specs(params):
                    scaled = scale_y(minpoly_shape(s.q_star_sign, s.t), params.q)
                    assert scaled == Poly(minpoly_full_degree(params, s.q_star_sign, s.t))
                    assert scaled == substituted_minpoly(params, s.q_star_sign, s.t)
                    assert scaled == scale_x(minpoly_shape_x(s.q_star_sign, s.t), params.q)


def test_shape_scaling_is_multiplicative():
    rng = random.Random(333)
    for _ in range(100):
        a = Poly(minpoly_shape(rng.choice((-1, 1)), rng.randint(1, 12)))
        b = Poly(minpoly_shape(rng.choice((-1, 1)), rng.randint(1, 12)))
        q = rng.choice((2, 3, 5 ** 3, 7 ** 5))
        assert scale_y((a * b).coeffs, q) == scale_y(a.coeffs, q) * scale_y(b.coeffs, q)


def test_scan_builds_each_spec_once_per_g(monkeypatch, cold_caches):
    # every cell hands out the specs listed, and checked, once for its g
    import weilparity.enumerator as enumerator

    built = []
    real = WeilNumberSpec.__new__

    def counting(cls, q_star_sign, t):
        built.append((q_star_sign, t))
        return real(cls, q_star_sign, t)

    monkeypatch.setattr(WeilNumberSpec, "__new__", counting)
    enumerator._fitting_specs.cache_clear()
    reports = [verify_parity_theorem(WeilParams(p=p, n=n, g=3)) for p in ORACLE_PRIMES for n in (1, 3)]
    listed = [spec for spec, _ in enumerator._fitting_specs(3)]
    assert built == spec_pairs(listed)
    ids = {id(spec) for spec in listed}
    assert all(id(s) in ids for r in reports for s in (*r.full_degree_specs, *r.half_degree_specs))


def per_spec_scan(params):
    """(full, half): ``is_full_degree`` on each fitting spec of the cell itself."""
    import weilparity.enumerator as enumerator

    full, half = [], []
    for spec, degree in enumerator._fitting_specs(params.g):
        if not is_full_degree(params.p, spec.q_star_sign, spec.t):
            half.append(spec)
        elif degree <= params.g:
            full.append(spec)
    return tuple(full), tuple(half)


def test_scan_per_class_matches_the_per_spec_scan(cold_caches):
    # each class's scan is made by its first cell, in grid order, and read
    # by every later cell of the class, whose own scan it must equal: p at
    # or below 2g + 1 is its own class, every larger p one
    import weilparity.enumerator as enumerator

    primes = [*primes_between(1, 60), 401, 999_999_937]
    classes, cells = set(), 0
    for g in range(1, G_CAP + 1):
        for p in primes:
            for n in (1, 3, 5):
                params = WeilParams(p=p, n=n, g=g)
                report = verify_parity_theorem(params)
                assert (report.full_degree_specs, report.half_degree_specs) == per_spec_scan(params)
                classes.add((g, p if p <= 2 * g + 1 else None))
                cells += 1
    info = enumerator._scan_class.cache_info()
    assert (info.misses, info.hits) == (len(classes), cells - len(classes))


def test_scan_calls_is_full_degree_once_per_class_and_spec(monkeypatch, cold_caches, capsys):
    # verify --gmax 5 --pmax 600: 1,054 cells, 17,636 calls if each cell
    # scanned its specs, but only five classes of p, one per g: every p of
    # the grid is above 2g + 1
    import weilparity.cli as cli
    import weilparity.enumerator as enumerator

    calls = []
    real = enumerator.is_full_degree
    monkeypatch.setattr(
        enumerator, "is_full_degree", lambda p, sign, t: calls.append(t) or real(p, sign, t)
    )
    assert cli.run(["verify", "--gmax", "5", "--pmax", "600", "--n", "1", "--n", "7"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 1054
    specs = [len(enumerator._fitting_specs(g)) for g in range(1, 6)]
    assert specs == [6, 12, 16, 24, 26]
    primes = primes_between(1, 600)
    assert sum(2 * specs[g - 1] for g in range(1, 6) for p in primes if p > 2 * g + 1) == 17_636
    assert len(calls) == 6 + 12 + 16 + 24 + 26 == 84
    assert enumerator._scan_class.cache_info().misses == 5


def test_no_prime_above_2g_plus_1_divides_a_fitting_t(monkeypatch, cold_caches):
    # a prime p dividing t has p - 1 <= phi(2t) <= 2g, so every p above
    # 2g + 1 divides no fitting t, and all such p make one class
    import weilparity.enumerator as enumerator

    monkeypatch.setattr(enumerator, "G_CAP", 40)
    for g in range(1, 41):
        for spec, _ in enumerator._fitting_specs(g):
            assert all(p <= 2 * g + 1 for p, _ in factorize(spec.t)), (g, spec)


def test_every_prime_above_2g_plus_1_scans_as_the_top_class(cold_caches):
    # the primes the scan once split off, from 2g + 1 up to the largest
    # fitting t, each scan as the class of every p above 2g + 1
    import weilparity.enumerator as enumerator

    checked = 0
    for g in range(1, G_CAP + 1):
        top = enumerator._scan_class(g, None)
        for p in primes_between(2 * g + 1, enumerator._fitting_specs(g)[-1][0].t):
            for n in (1, 3):
                assert per_spec_scan(WeilParams(p=p, n=n, g=g)) == top, (g, p, n)
                checked += 1
    assert checked > 20


def test_admissible_specs_g1():
    params = WeilParams(p=5, n=1, g=1)
    assert spec_pairs(full_specs(params)) == [(-1, 1), (1, 1)]


def test_admissible_specs_g2():
    params = WeilParams(p=5, n=1, g=2)
    pairs = spec_pairs(full_specs(params))
    assert pairs == [(-1, 1), (1, 1), (-1, 2), (1, 2), (-1, 3), (1, 3)]
    degrees = {t: totient(4 * t) for _, t in pairs}
    assert degrees == {1: 2, 2: 4, 3: 4}


def test_admissible_specs_g3_excludes_t5():
    # (-,5) fails full degree; (+,5) is full degree but phi(20) = 8 > 6
    params = WeilParams(p=5, n=1, g=3)
    pairs = spec_pairs(full_specs(params))
    assert (-1, 5) not in pairs
    assert (1, 5) not in pairs


def test_fitting_specs_match_the_scan_oracle(monkeypatch, cold_caches):
    # the inverse-totient walk lists what the scan of every t <= 8g^2 finds
    import weilparity.enumerator as enumerator

    monkeypatch.setattr(enumerator, "G_CAP", 60)
    for g in range(1, 61):
        walked = [(s.q_star_sign, s.t, d) for s, d in enumerator._fitting_specs(g)]
        # the walk carries phi(2t), the scan phi(4t) = 2 phi(2t)
        assert walked == [(sign, t, d // 2) for sign, t, d in fitting_specs_scan(g)], g


def test_scan_cap_is_complete():
    # beyond t = 2g^2 no phi(4t) fits in 2g; beyond 8g^2 not even half fits
    for g in range(1, 7):
        for t in range(2 * g * g + 1, 4 * g * g + 1):
            assert totient(4 * t) > 2 * g
        for t in range(8 * g * g + 1, 16 * g * g + 1):
            assert totient(4 * t) // 2 > 2 * g


def test_enumerate_g1():
    candidates = candidates_of(WeilParams(p=5, n=1, g=1))
    assert [c.poly.coeffs for c in candidates] == [(-5, 0, 1), (5, 0, 1)]


def test_enumerate_g2_contains_expected_products():
    candidates = candidates_of(WeilParams(p=5, n=1, g=2))
    polys = {c.poly.coeffs for c in candidates}
    assert (-25, 0, 0, 0, 1) in polys        # (X^2+5)(X^2-5)
    assert (25, 0, 10, 0, 1) in polys        # (X^2+5)^2
    assert len(candidates) == 7


def test_enumerate_g1_p3():
    candidates = candidates_of(WeilParams(p=3, n=1, g=1))
    assert {c.poly.coeffs for c in candidates} == {(-3, 0, 1), (3, 0, 1)}
    # the half-degree spec at p=3 is flagged separately
    assert spec_pairs(half_specs(WeilParams(p=3, n=1, g=1))) == [(1, 3)]


def test_candidate_structure_invariants():
    for p in (3, 5, 7, 13):
        for g in (1, 2, 3):
            params = WeilParams(p=p, n=1, g=g)
            for cand in candidates_of(params):
                assert cand.poly.is_monic()
                assert cand.poly.degree == 2 * g
                assert abs(cand.poly.coefficient(0)) == params.q ** g
                assert sum(m * totient(4 * s.t) for s, m in cand.factors) == 2 * g
                assert functional_equation_sign(cand.poly, params.q) is not None


def test_enumeration_order_is_canonical():
    # p = 2, 3, 5 scan other spec sets than p = 101 does at the same g
    cells = [(7, 3)] + [(p, g) for p in (101, 2, 3, 5) for g in range(1, G_CAP + 1)]
    for p, g in cells:
        params = WeilParams(p=p, n=1, g=g)
        first = candidates_of(params)
        second = candidates_of(params)
        assert first == second
        keys = [tuple((s.t, s.q_star_sign, m) for s, m in c.factors) for c in first]
        assert keys == sorted(set(keys))  # strictly rising: no record twice


def test_enumerate_cap():
    with pytest.raises(OutOfRange):
        candidates_of(WeilParams(p=23, n=1, g=G_CAP + 1))


def test_scan_past_the_cap_fails_before_sieving_to_g(monkeypatch):
    # p above 2g+1 is the top class, scanned at a prime sieved for up to 4g+2:
    # the cap is read first, so no sieve is sized by an uncapped g
    import weilparity.enumerator as enumerator

    def capped_sieve(low, high):
        assert high <= 4 * G_CAP + 2, f"sieved up to {high}"
        return primes_between(low, high)

    monkeypatch.setattr(enumerator, "primes_between", capped_sieve)
    with pytest.raises(OutOfRange, match=f"g=400000000 exceeds the enumeration cap {G_CAP}"):
        verify_parity_theorem(WeilParams(p=999999937, n=1, g=4 * 10**8))


def test_half_degree_examples():
    assert half_specs(WeilParams(p=11, n=1, g=3)) == []
    assert spec_pairs(half_specs(WeilParams(p=5, n=1, g=3))) == [(-1, 5)]
    assert spec_pairs(half_specs(WeilParams(p=7, n=1, g=3))) == [(1, 7)]


def test_half_degree_cap():
    with pytest.raises(OutOfRange):
        half_specs(WeilParams(p=5, n=1, g=G_CAP + 1))


def test_p_equals_two_detector_branch():
    # q* even: half degree exactly when t = 2 mod 4, for both signs
    params = WeilParams(p=2, n=1, g=1)
    assert {c.poly.coeffs for c in candidates_of(params)} == {(-2, 0, 1), (2, 0, 1)}
    assert spec_pairs(half_specs(params)) == [(-1, 2), (1, 2)]


def test_half_degree_structure_for_odd_p():
    # for odd p the detected specs satisfy: t odd, p | t, q* = 3 mod 4;
    # p | t then forces p-1 | phi(t), which is what makes half-degree
    # specs impossible once p - 1 > 2g
    for p in (3, 5, 7):
        for g in (1, 2, 3, 4):
            params = WeilParams(p=p, n=1, g=g)
            for s in half_specs(params):
                q_star = s.q_star_sign * params.q
                assert s.t % 2 == 1
                assert s.t % p == 0
                assert q_star % 4 == 3
                assert totient(s.t) <= 2 * g
                assert totient(s.t) % (p - 1) == 0


def test_verify_parity_theorem_examples():
    r = verify_parity_theorem(WeilParams(p=11, n=1, g=3))
    assert r.odd_candidates == 0
    assert r.half_degree_specs == ()
    assert r.contract_ok
    assert [c for c in candidates(r) if not c.poly.is_even()] == []

    r = verify_parity_theorem(WeilParams(p=13, n=3, g=2))
    assert r.odd_candidates == 0
    assert r.contract_ok

    r = verify_parity_theorem(WeilParams(p=5, n=1, g=3))
    assert r.half_degree_specs != ()
    assert r.contract_ok  # p = 5 <= 2g+1 = 7: below the threshold, informational


def test_parity_report_violations_consistency():
    for p in (5, 7, 11, 13):
        r = verify_parity_theorem(WeilParams(p=p, n=1, g=2))
        assert (r.odd_candidates > 0) == any(not c.poly.is_even() for c in candidates(r))
        assert r.total_candidates == len(candidates(r))


def test_primes_between():
    assert primes_between(3, 20).tolist() == [5, 7, 11, 13, 17, 19]
    assert primes_between(7, 7).tolist() == []


def test_primes_between_sieve_matches_is_prime():
    # both edges: low itself is excluded, high included, whether prime or not
    for low in range(-2, 40):
        for high in range(-2, 80):
            expected = [p for p in range(max(low + 1, 2), high + 1) if is_prime(p)]
            assert primes_between(low, high).tolist() == expected, (low, high)
    assert primes_between(1000, 3000).tolist() == [p for p in range(1001, 3001) if is_prime(p)]


def test_primes_between_holds_about_a_byte_per_integer():
    # the sieve is a byte per integer, read through a view, and the primes are
    # kept as machine integers: no copy of the sieve and no int object per prime
    import tracemalloc

    tracemalloc.start()
    try:
        primes = primes_between(1, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(primes) == 78_498
    assert peak <= 2.5 * 10 ** 6, f"{peak / 10 ** 6:.2f} bytes per integer sieved"


def test_primes_between_cap(monkeypatch):
    # verify_grid, the sieve's caller, checks the cap before it sieves
    import weilparity.enumerator as enumerator

    assert primes_between(PRIME_SIEVE_CAP - 100, PRIME_SIEVE_CAP)[-1] == 9999991
    monkeypatch.setattr(enumerator, "primes_between", lambda low, high: pytest.fail("sieved"))
    with pytest.raises(OutOfRange, match=f"--pmax={PRIME_SIEVE_CAP + 1} exceeds"):
        verify_grid(1, PRIME_SIEVE_CAP + 1, [1])


def test_verify_grid_small():
    reports = [r for r, _ in verify_grid(3, 50, [1])]
    assert len(reports) == 3
    assert all(r.contract_ok for r in reports)
    assert all(r.odd_candidates == 0 for r in reports)
    assert all(r.half_degree_specs == () for r in reports)


def grid_cells(grid, n_values):
    return [(r.params.g, p, n) for r, primes in grid for p in primes for n in n_values]


def test_verify_grid_cells():
    assert grid_cells(verify_grid(1, 7, [1]), [1]) == [(1, 5, 1), (1, 7, 1)]
    grid = verify_grid(2, 7, [3])
    assert grid_cells(grid, [3]) == [(1, 5, 3), (1, 7, 3), (2, 7, 3)]
    # a g's report is its class's first cell: the least prime above 2g+1 and the first n
    assert [r.params for r, _ in grid] == [WeilParams(p=5, n=3, g=1), WeilParams(p=7, n=3, g=2)]
    assert all(r.contract_ok for r, _ in grid)
    # every g walks one shared array of the grid's primes from its own first index
    (_, low), (_, high) = grid
    assert low.obj is high.obj and list(low.obj) == [2, 3, 5, 7]


def test_verify_grid_validation(monkeypatch):
    # every check runs before the first cell is counted or enumerated
    import weilparity.enumerator as enumerator

    def work(params):
        raise AssertionError(f"cell {params} enumerated before the grid was checked")

    monkeypatch.setattr(enumerator, "verify_parity_theorem", work)
    with pytest.raises(ValueError):
        verify_grid(0, 50, [1])
    with pytest.raises(OutOfRange):
        verify_grid(G_CAP + 1, 50, [1])
    with pytest.raises(ValueError):
        verify_grid(2, 50, [2])  # even n rejected at params construction
    with pytest.raises(ValueError):
        verify_grid(3, 3, [1])  # no cell: nothing would be verified
    with pytest.raises(ValueError, match="g=2..3"):
        verify_grid(3, 5, [1])  # only g = 1 has a cell
    with pytest.raises(ValueError, match="--n must name"):
        verify_grid(3, 50, [])  # no n: nothing would be verified
    with pytest.raises(ValueError, match="repeat"):
        verify_grid(3, 50, [3, 1, 3])  # every cell of n = 3 would be checked twice
    with pytest.raises(ValueError, match="odd"):
        verify_grid(3, 50, [1, 2])  # n = 2 is found before the cells of n = 1


def test_product_of_even_polynomials_is_even():
    rng = random.Random(111)
    for _ in range(200):
        a = Poly([rng.randint(-9, 9) if i % 2 == 0 else 0 for i in range(rng.randint(1, 9))])
        b = Poly([rng.randint(-9, 9) if i % 2 == 0 else 0 for i in range(rng.randint(1, 9))])
        assert a.is_even() and b.is_even()
        assert (a * b).is_even()


def test_candidate_roots_have_weil_magnitude():
    # independent numeric oracle: every root of every candidate must lie
    # on the circle of radius sqrt(q).  Repeated factors limit attainable
    # accuracy to roughly eps**(1/multiplicity), so the tolerance scales
    # with the largest factor multiplicity; a wrong polynomial would be
    # off by orders of magnitude more.
    import numpy as np

    for p, n, g in ((5, 1, 2), (7, 1, 3), (13, 1, 3), (3, 3, 2)):
        params = WeilParams(p=p, n=n, g=g)
        radius = params.q ** 0.5
        for cand in candidates_of(params):
            max_mult = max(m for _, m in cand.factors)
            tol = max(1e-8, 100 * (1e-16) ** (1.0 / max_mult))
            roots = np.roots(list(reversed(cand.poly.coeffs)))
            assert max(abs(abs(r) - radius) for r in roots) < tol * radius


def test_candidate_factorization_recomputes():
    from weilparity.weil import minpoly_full_degree

    params = WeilParams(p=7, n=1, g=3)
    for cand in candidates_of(params):
        product = Poly([1])
        for spec, mult in cand.factors:
            product *= Poly(minpoly_full_degree(params, spec.q_star_sign, spec.t)) ** mult
        assert product == cand.poly


def test_partition_search_is_order_independent():
    # the family of factor multisets must not depend on the spec scan order
    rng = random.Random(222)
    params = WeilParams(p=13, n=1, g=4)
    specs = full_specs(params)

    def family(records):
        return {frozenset((s.q_star_sign, s.t, m) for s, m in factors) for _, factors in records}

    def multisets(order):
        return family(candidate_shapes(params.g, tuple(specs[i] for i in order)))

    canonical = multisets(list(range(len(specs))))
    assert canonical == family(oracle_candidates(params))
    for _ in range(5):
        order = list(range(len(specs)))
        rng.shuffle(order)
        assert multisets(order) == canonical


def test_totient_lower_bound_supporting_scan_cap():
    # phi(m) >= sqrt(m/2) underwrites both scan caps; check it at scale
    for m in range(1, 20001):
        assert totient(m) ** 2 * 2 >= m
