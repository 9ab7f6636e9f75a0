"""Weil number classification and full-degree minimal polynomials."""

from math import gcd

import mpmath
import pytest
from oracles import (
    Poly,
    fitting_specs_scan,
    full_degree_by_factoring,
    functional_equation_sign,
    minpoly_shape_x,
)

from weilparity.cyclotomic import cyclotomic, totient
from weilparity.enumerator import verify_parity_theorem
from weilparity.errors import HalfDegreeUnsupported
from weilparity.weil import (
    WeilNumberSpec,
    WeilParams,
    is_full_degree,
    minpoly_full_degree,
    minpoly_shape,
)


def assert_checked_as_built(value, field, bad):
    """``_replace`` and ``_make`` with ``field`` set to ``bad`` raise the constructor's error."""
    fields = {**value._asdict(), field: bad}
    with pytest.raises(ValueError) as built:
        type(value)(**fields)
    for make in (lambda: value._replace(**{field: bad}), lambda: type(value)._make(fields.values())):
        with pytest.raises(ValueError) as raised:
            make()
        assert str(raised.value) == str(built.value)


def test_params_validation():
    params = WeilParams(p=5, n=3, g=2)
    assert params.q == 125
    with pytest.raises(ValueError):
        WeilParams(p=6, n=1, g=1)  # composite p
    with pytest.raises(ValueError):
        WeilParams(p=5, n=2, g=1)  # even n
    with pytest.raises(ValueError):
        WeilParams(p=5, n=-1, g=1)
    with pytest.raises(ValueError):
        WeilParams(p=5, n=1, g=0)
    with pytest.raises(ValueError):
        params._replace(n=2)  # a replaced field is checked too
    for field, bad in (("p", 6), ("n", 2), ("g", 0)):
        assert_checked_as_built(params, field, bad)


def test_spec_validation():
    with pytest.raises(ValueError):
        WeilNumberSpec(q_star_sign=2, t=1)
    with pytest.raises(ValueError):
        WeilNumberSpec(q_star_sign=1, t=0)
    with pytest.raises(ValueError):
        WeilNumberSpec(q_star_sign=1, t=1)._replace(t=0)
    for field, bad in (("q_star_sign", 2), ("t", 0)):
        assert_checked_as_built(WeilNumberSpec(q_star_sign=1, t=1), field, bad)


def test_is_full_degree_examples():
    assert is_full_degree(7, -1, 3)       # p does not divide t
    assert not is_full_degree(7, 1, 7)    # t odd, 7 | t, +7 = 3 mod 4
    assert is_full_degree(7, -1, 7)       # -7 = 1 mod 4
    assert not is_full_degree(2, 1, 2)    # q* even, t = 2 mod 4
    assert is_full_degree(2, 1, 4)
    # p alone decides: at p = 2 only t counts, and at odd p, as n is odd, q = p**n = p mod 4
    assert all(pow(p, n, 4) == p % 4 for p in (3, 5, 7, 11) for n in (1, 3, 5, 7))


def test_is_full_degree_matches_factoring():
    # the predicate against sympy's factorization of each spec's degree-phi(4t) polynomial,
    # for phi(4t) <= 16: at p = 2 that takes in t = 6 and t = 10, half-degree as t = 2 is
    specs = [(sign, t) for sign, t, _ in fitting_specs_scan(4)]
    cases = [(p, n, *spec) for p in (2, 3, 5, 7, 11, 13) for n in (1, 3) for spec in specs]
    assert len(cases) == 288 and {(1, 6), (1, 10)} <= set(specs)
    mismatches = [
        case for case in cases
        if full_degree_by_factoring(*case) != is_full_degree(case[0], *case[2:])
    ]
    assert not mismatches


def test_classify_matches_predicate():
    # a spec's degree case is the list that holds it: full-degree specs
    # fitting in 2g are admissible, half-degree ones fitting are detected
    for p in (2, 3, 5, 7, 11):
        params = WeilParams(p=p, n=1, g=3)
        report = verify_parity_theorem(params)
        full, half = report.full_degree_specs, report.half_degree_specs
        assert not set(full) & set(half)
        for t in range(1, 40):
            for sign in (-1, 1):
                spec = WeilNumberSpec(sign, t)
                if is_full_degree(p, sign, t):
                    assert (spec in full) == (totient(4 * t) <= 2 * params.g)
                else:
                    assert (spec in half) == (totient(4 * t) // 2 <= 2 * params.g)


def test_weil_factor_degree_examples():
    # phi(4t) in the full degree case, phi(4t)/2 in the half degree case
    assert len(minpoly_full_degree(WeilParams(p=5, n=1, g=1), 1, 1)) - 1 == 2
    assert not is_full_degree(7, 1, 7)
    assert totient(28) // 2 == 6
    assert len(minpoly_full_degree(WeilParams(p=7, n=1, g=1), -1, 3)) - 1 == 4


def test_minpoly_examples():
    p5 = WeilParams(p=5, n=1, g=1)
    assert minpoly_full_degree(p5, 1, 1) == (5, 0, 1)     # X^2 + p
    assert minpoly_full_degree(p5, -1, 1) == (-5, 0, 1)   # X^2 - 5
    p7 = WeilParams(p=7, n=1, g=2)
    assert minpoly_full_degree(p7, -1, 3) == (49, 0, 7, 0, 1)


def test_shape_in_y_matches_the_x_domain_oracle():
    # Phi_4t(X) = Phi_2t(X**2), as 2t is even: the shape built in Y = X**2
    # from index 2t, read in X**2, is the one built in X from index 4t
    for t in range(1, 2001):
        for sign in (-1, 1):
            shape = Poly(minpoly_shape(sign, t))
            assert shape.compose_power(2) == minpoly_shape_x(sign, t), (sign, t)


def test_shape_is_phi_of_the_order_of_alpha_squared_over_q():
    # alpha**2 / q = sign * zeta_2t has order M = t for sign -1 and odd t,
    # else 2t: Phi_2t(-Y), made monic by the sign flip of its coefficients
    # below, is Phi_t(Y) for odd t and Phi_2t(Y) for even t
    for t in range(1, 2001):
        phi = list(cyclotomic(2 * t))
        flipped = phi[:]
        flipped[-2::-2] = [-c for c in phi[-2::-2]]  # c_j * (-1)**(phi(2t) - j)
        for sign, coeffs in ((1, phi), (-1, flipped)):
            m = t if sign == -1 and t % 2 else 2 * t
            assert minpoly_shape(sign, t) == tuple(coeffs) == cyclotomic(m), (sign, t)
        if t % 2 == 0:  # one Weil number: sqrt(-q) zeta_4t = sqrt(q) zeta_4t**(t + 1)
            assert minpoly_shape(-1, t) == minpoly_shape(1, t), t


def test_minpoly_half_degree_is_an_error():
    with pytest.raises(HalfDegreeUnsupported):
        minpoly_full_degree(WeilParams(p=7, n=1, g=3), 1, 7)


def test_minpoly_square_roots_numerically():
    # roots of X^2 - 5 are +-sqrt(5)
    poly = minpoly_full_degree(WeilParams(p=5, n=1, g=1), -1, 1)
    mpmath.mp.dps = 30
    root = mpmath.sqrt(5)
    for r in (root, -root):
        value = mpmath.polyval([mpmath.mpf(c) for c in reversed(poly)], r)
        assert abs(value) < 1e-9


def _primitive_roots_check(params: WeilParams, sign: int, t: int, tol=1e-6) -> None:
    """All sqrt(q*) * (primitive 4t-th roots of unity) must be roots."""
    poly = minpoly_full_degree(params, sign, t)
    coeffs = [mpmath.mpc(c) for c in reversed(poly)]
    sqrt_q_star = mpmath.sqrt(mpmath.mpc(sign * params.q))
    m = 4 * t
    for j in range(1, m):
        if gcd(j, m) != 1:
            continue
        theta = sqrt_q_star * mpmath.exp(2 * mpmath.pi * mpmath.mpc(0, 1) * j / m)
        assert abs(mpmath.polyval(coeffs, theta)) < tol


def test_minpoly_roots_small_grid():
    mpmath.mp.dps = 40
    for p in (3, 5, 7, 11):
        params = WeilParams(p=p, n=1, g=1)
        for t in (1, 2, 3):
            for sign in (-1, 1):
                if is_full_degree(p, sign, t):
                    _primitive_roots_check(params, sign, t)


def test_minpoly_even_monic_constant_term():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for n in (1, 3):
            params = WeilParams(p=p, n=n, g=1)
            for t in range(1, 30):
                if totient(4 * t) > 20:
                    continue
                for sign in (-1, 1):
                    if not is_full_degree(p, sign, t):
                        continue
                    poly = Poly(minpoly_full_degree(params, sign, t))
                    d = totient(4 * t)
                    assert poly.is_monic()
                    assert poly.degree == d
                    assert poly.is_even()
                    assert poly.coefficient(0) == (sign * params.q) ** (d // 2)


def test_minpoly_functional_equation_sign():
    # X^d M(q/X) = s * q^(d/2) M(X) with s = +1 for q* = q and
    # s = (-1)^(d/2) for q* = -q.
    for p in (3, 5, 7, 13):
        params = WeilParams(p=p, n=1, g=1)
        for t in range(1, 16):
            for sign in (-1, 1):
                if not is_full_degree(p, sign, t):
                    continue
                poly = Poly(minpoly_full_degree(params, sign, t))
                d = totient(4 * t)
                expected = 1 if sign == 1 else (-1) ** (d // 2)
                assert functional_equation_sign(poly, params.q) == expected


def test_minpoly_distinctness():
    # For even t the sign of q* does not matter: sqrt(-q)*zeta_4t equals
    # sqrt(q) times another primitive 4t-th root of unity (t+1 is coprime
    # to 4t exactly when t is even), so both signs name the same orbit
    # and must produce the same polynomial.  For odd t the orbits differ
    # and the polynomials are pairwise distinct across all (sign, t).
    for p in (5, 13):
        params = WeilParams(p=p, n=1, g=5)
        by_t = {}
        for t in range(1, 50):
            if totient(4 * t) > 10:
                continue
            polys = {
                sign: minpoly_full_degree(params, sign, t)
                for sign in (-1, 1)
                if is_full_degree(p, sign, t)
            }
            by_t[t] = polys
            if len(polys) == 2:
                if t % 2 == 0:
                    assert polys[-1] == polys[1], t
                else:
                    assert polys[-1] != polys[1], t
        seen = {}
        for t, polys in by_t.items():
            for sign, key in polys.items():
                if key in seen:
                    other_sign, other_t = seen[key]
                    assert other_t == t and t % 2 == 0, (seen[key], (sign, t))
                seen[key] = (sign, t)


def test_minpoly_checks_sign_and_t_before_the_degree_case():
    # each pair below would read as a half degree case if it were not checked first
    with pytest.raises(ValueError, match="^t must be a positive integer$"):
        minpoly_full_degree(WeilParams(p=2, n=1, g=1), 1, -2)
    with pytest.raises(ValueError, match="^q_star_sign must be"):
        minpoly_full_degree(WeilParams(p=7, n=1, g=1), 2, 7)
