"""Cyclotomic construction, oracle equivalence, parity law, shift identity."""

import ast
from math import gcd
from pathlib import Path

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import Poly, cyclotomic_mobius, divisors, horner, moebius, prime_power_identity_check

import weilparity.cyclotomic as cyclotomic_module
from weilparity.cyclotomic import (
    CYCLOTOMIC_CAP,
    FACTORIZE_CAP,
    cyclotomic,
    cyclotomic_radical,
    factorize,
    is_prime,
    totient,
)
from weilparity.errors import OutOfRange

X = Poly([0, 1])


def ring(poly) -> Poly:
    """A library polynomial in the tests' own ring."""
    return Poly(poly)


def brute_totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_factorize_examples():
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(1) == ()
    assert factorize(28) == ((2, 2), (7, 1))
    assert factorize(97) == ((97, 1),)


def test_factorize_bounds():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(OutOfRange):
        factorize(FACTORIZE_CAP + 1)


def test_divisors():
    # the oracle's own divisors, which the Moebius quotient runs over
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert divisors(49) == [1, 7, 49]


def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)


def test_totient_examples_and_brute_force():
    assert totient(1) == 1
    assert totient(12) == 4 == brute_totient(12)
    for n in range(1, 200):
        assert totient(n) == brute_totient(n)


def test_totient_doubling_for_odd_t():
    # phi(4t) = 2*phi(t) whenever t is odd
    for t in range(1, 400, 2):
        assert totient(4 * t) == 2 * totient(t)
    assert totient(12) == 2 * totient(3)


def test_moebius_examples():
    # the oracle's own Moebius function
    assert moebius(1) == 1
    assert moebius(12) == 0
    assert moebius(6) == 1
    assert moebius(30) == -1
    assert moebius(7) == -1
    assert moebius(49) == 0


def test_oracle_divisor_sums():
    # sum_{d | n} mu(d) = [n = 1] and sum_{d | n} phi(d) = n
    for n in range(1, 5001):
        divs = divisors(n)
        assert divs == sorted(set(divs)) and all(n % d == 0 for d in divs)
        assert sum(moebius(d) for d in divs) == (n == 1)
        assert sum(totient(d) for d in divs) == n


def test_oracles_share_no_arithmetic_helper_with_the_construction():
    # the Moebius oracle finds its own divisors and signs; from this module
    # it may use only the cap check, the construction it is compared
    # against, and the primality and totient the other oracles need
    allowed = {"_check_cap", "cyclotomic", "is_prime", "totient"}
    imported = set()
    for node in ast.walk(ast.parse(Path(oracles.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "weilparity.cyclotomic":
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module == "weilparity":
            assert "cyclotomic" not in {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            assert all(alias.name != "weilparity.cyclotomic" for alias in node.names)
    assert imported <= allowed, sorted(imported - allowed)


def test_cold_cyclotomic_factors_its_index_once():
    # the divisors and signs of a squarefree index come from its one prime list
    cyclotomic_module._cyclotomic.cache_clear()
    factorize.cache_clear()
    cyclotomic(15015)
    assert factorize.cache_info().misses == 1
    cyclotomic_module._cyclotomic.cache_clear()
    cyclotomic(30030)  # and from Phi_15015 by X -> -X
    assert factorize.cache_info().misses == 2


def test_cyclotomic_small_cases():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(3) == (1, 1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_105_has_coefficient_minus_two():
    assert min(cyclotomic(105)) == -2
    assert min(cyclotomic_mobius(105).coeffs) == -2
    # smallest index where a coefficient outside {0, +-1} appears
    for n in range(1, 105):
        assert all(abs(c) <= 1 for c in cyclotomic(n))


def test_cyclotomic_monic_of_totient_degree():
    for n in range(1, 300):
        poly = ring(cyclotomic(n))
        assert poly.is_monic()
        assert poly.degree == totient(n)


def test_radical_form():
    # Phi_n(X) = Phi_m(X**k) for the radical m of n and k = n / m
    for n in range(1, 300):
        base, k = cyclotomic_radical(n)
        m, primes = n // k, [p for p, _ in factorize(n)]
        assert k * m == n and factorize(m) == tuple((p, 1) for p in primes)
        assert base == cyclotomic(m)
        assert ring(base).compose_power(k) == ring(cyclotomic(n))


def test_cyclotomic_caps():
    for build in (cyclotomic, cyclotomic_radical):
        with pytest.raises(ValueError):
            build(0)
        with pytest.raises(OutOfRange):
            build(CYCLOTOMIC_CAP + 1)
    with pytest.raises(OutOfRange):
        cyclotomic_mobius(CYCLOTOMIC_CAP + 1)


def test_mobius_oracle_examples():
    assert cyclotomic_mobius(4) == Poly([1, 0, 1])
    assert cyclotomic_mobius(12) == ring(cyclotomic(12))
    assert cyclotomic_mobius(1) == Poly([-1, 1])


def test_two_constructions_agree():
    for n in range(1, 200):
        assert ring(cyclotomic(n)) == cyclotomic_mobius(n)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=3000))
def test_sparse_construction_matches_mobius_oracle(n):
    assert ring(cyclotomic(n)) == cyclotomic_mobius(n)


@pytest.mark.parametrize("n", [15015, 30030, 32010, 4 * 3 * 5 * 7 * 11, 2 * 5 ** 5, 2 ** 15])
def test_large_n_matches_integer_mobius_product(n):
    # Phi_n(B) = prod_{d | n} (B**d - 1)**moebius(n/d) as exact integers.
    # With every |c| < B/2 the base-B value fixes the polynomial.
    base = 2 ** 16
    numerator = denominator = 1
    for d in divisors(n):
        mu = moebius(n // d)
        if mu == 1:
            numerator *= base ** d - 1
        elif mu == -1:
            denominator *= base ** d - 1
    value, remainder = divmod(numerator, denominator)
    assert remainder == 0
    poly = ring(cyclotomic(n))
    assert poly.degree == totient(n)
    assert all(abs(c) < 2 ** 15 for c in poly.coeffs)
    assert horner(poly, base) == value


@pytest.mark.parametrize("p, k", [(3, 10), (5, 7)])
def test_large_prime_power_closed_form(p, k):
    # Phi_{p**k} = sum_{i < p} X**(i * p**(k-1))
    step = p ** (k - 1)
    expected = Poly(1 if j % step == 0 else 0 for j in range((p - 1) * step + 1))
    assert ring(cyclotomic(p ** k)) == expected


def test_product_formula():
    for n in range(1, 200):
        product = Poly([1])
        for d in divisors(n):
            product = product * ring(cyclotomic(d))
        assert product == X ** n - 1


def test_parity_law_sample():
    for n in range(1, 400):
        assert ring(cyclotomic(n)).is_even() == (n % 4 == 0)


def test_is_even_cyclotomic_examples():
    assert ring(cyclotomic(8)).is_even()
    assert not ring(cyclotomic(6)).is_even()
    assert not ring(cyclotomic(2)).is_even()
    with pytest.raises(ValueError):
        cyclotomic(0)


def test_odd_double_identity():
    # cyclotomic(2m) = cyclotomic(m)(-X) for odd m > 1
    for m in range(3, 1000, 2):
        assert ring(cyclotomic(2 * m)) == ring(cyclotomic(m)).sign_flip()


def test_prime_power_identity_examples():
    assert prime_power_identity_check(2, 1, 4)  # Phi_8 = Phi_4(X^2)
    assert cyclotomic(8) == (1, 0, 0, 0, 1)
    assert prime_power_identity_check(3, 1, 2)  # (X^3+1)/(X+1) = X^2-X+1
    assert prime_power_identity_check(5, 2, 5)  # Phi_125 = Phi_5(X^25)


def test_prime_power_identity_sweep():
    for p in (2, 3, 5, 7):
        for k in (1, 2):
            for n in range(1, 30):
                if p ** k * n <= 600:
                    assert prime_power_identity_check(p, k, n)


def test_prime_power_identity_validation():
    with pytest.raises(ValueError):
        prime_power_identity_check(4, 1, 3)
    with pytest.raises(ValueError):
        prime_power_identity_check(3, 0, 3)
    with pytest.raises(OutOfRange):
        prime_power_identity_check(2, 3, CYCLOTOMIC_CAP)


def test_submodules_are_not_shadowed_by_package_names():
    import importlib
    import pkgutil

    import weilparity
    import weilparity.cyclotomic as module

    assert module is importlib.import_module("weilparity.cyclotomic")
    for info in pkgutil.iter_modules(weilparity.__path__):
        assert info.name not in weilparity.__all__
        assert getattr(weilparity, info.name, None) in (
            None, importlib.import_module(f"weilparity.{info.name}")
        )
