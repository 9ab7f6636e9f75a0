"""Coefficient bounds, symmetry checks, binomial thresholds."""

import cmath
from bisect import bisect_right
from math import comb, gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import Poly, candidates, corollary_threshold, functional_equation_sign

from weilparity.bounds import BoundsReport, full_bounds_report
from weilparity.cyclotomic import totient
from weilparity.enumerator import primes_between, verify_parity_theorem
from weilparity.errors import ShapeError
from weilparity.weil import WeilParams, is_full_degree, minpoly_full_degree


# -- reference: one function per check, each reading a_k on its own ----------


def _ref_require_shape(poly, params):
    if poly.degree != 2 * params.g or not poly.is_monic():
        raise ShapeError(
            f"polynomial must be monic of degree {2 * params.g}, "
            f"got degree {poly.degree}"
        )


def _ref_upper_coefficient(poly, params, k):
    # a_k is the coefficient of X**(2g-k)
    return poly.coefficient(2 * params.g - k)


def ref_is_q_symmetric(poly, params):
    """Literal q-symmetry: c_{g-j} = q**j * c_{g+j} for j = 1..g."""
    _ref_require_shape(poly, params)
    g, q = params.g, params.q
    return all(
        poly.coefficient(g - j) == q ** j * poly.coefficient(g + j)
        for j in range(1, g + 1)
    )


def ref_archimedean_bound_check(poly, params):
    """a_k**2 <= C(2g,k)**2 * q**k for each k = 1..g."""
    _ref_require_shape(poly, params)
    g, q = params.g, params.q
    return [
        _ref_upper_coefficient(poly, params, k) ** 2 <= comb(2 * g, k) ** 2 * q ** k
        for k in range(1, g + 1)
    ]


def ref_valuation_bound_check(poly, params):
    """ord_p(a_k) >= ceil(n*k/2) for each k = 1..g; a_k = 0 passes."""
    _ref_require_shape(poly, params)
    out = []
    for k in range(1, params.g + 1):
        a_k = _ref_upper_coefficient(poly, params, k)
        need = params.p ** ((params.n * k + 1) // 2)
        out.append(a_k == 0 or a_k % need == 0)
    return out


def ref_lemma_a1_check(poly, params):
    """Every nonzero odd coefficient a_k forces p <= C(2g,k)**2."""
    _ref_require_shape(poly, params)
    return all(
        params.p <= comb(2 * params.g, k) ** 2
        for k in range(1, params.g + 1, 2)
        if _ref_upper_coefficient(poly, params, k) != 0
    )


def ref_bounds_report(poly, params):
    return BoundsReport(
        params=params,
        a_values=tuple(_ref_upper_coefficient(poly, params, k) for k in range(1, params.g + 1)),
        archimedean_ok=tuple(ref_archimedean_bound_check(poly, params)),
        valuation_ok=tuple(ref_valuation_bound_check(poly, params)),
        lemma_a1_ok=ref_lemma_a1_check(poly, params),
        symmetric_ok=ref_is_q_symmetric(poly, params),
    )


SMALL_PRIMES = primes_between(1, 101)
_PRIMES = primes_between(1, 70000)


def threshold_primes(g):
    """The primes next below and above C(2g,k)**2 for each odd k <= g."""
    out = set()
    for k in range(1, g + 1, 2):
        i = bisect_right(_PRIMES, comb(2 * g, k) ** 2)
        out.update((_PRIMES[i - 1], _PRIMES[i]))
    return sorted(out)


@st.composite
def bounds_cases(draw):
    """(poly, params): each a_k = m * p**e on both sides of both bounds; the
    lower half q-symmetric, sign-flipped or free; now and then a bad shape."""
    g = draw(st.integers(1, 5))
    n = draw(st.sampled_from((1, 3, 5)))
    p = draw(st.one_of(st.sampled_from(SMALL_PRIMES), st.sampled_from(threshold_primes(g))))
    params = WeilParams(p=p, n=n, g=g)
    q = params.q
    upper = [1]  # upper[k] = a_k = c_{2g-k}
    for k in range(1, g + 1):
        e = draw(st.integers(0, (n * k + 1) // 2 + 1))
        b = 2 * comb(2 * g, k)
        upper.append(draw(st.one_of(st.just(0), st.integers(-b, b))) * p ** e)
    sign = draw(st.sampled_from((1, -1, 0)))
    lower = [  # lower[j - 1] = c_{g-j}, against q**j * c_{g+j}
        sign * q ** j * upper[g - j] if sign else draw(st.integers(-q ** j, q ** j))
        for j in range(1, g + 1)
    ]
    coeffs = lower[::-1] + upper[::-1]
    if draw(st.booleans()):
        coeffs[draw(st.integers(0, 2 * g - 1))] += draw(st.sampled_from((1, -1, p)))
    shape = draw(st.sampled_from(("ok",) * 5 + ("short", "long", "non-monic")))
    if shape == "short":
        coeffs = coeffs[:-1]
    elif shape == "long":
        coeffs.append(1)
    elif shape == "non-monic":
        coeffs[-1] = 2
    return Poly(coeffs), params


@settings(max_examples=300, deadline=None, derandomize=True)
@given(bounds_cases())
def test_full_report_matches_per_check_oracle(case):
    poly, params = case
    try:
        expected = ref_bounds_report(poly, params)
    except ShapeError as exc:
        with pytest.raises(ShapeError) as raised:
            full_bounds_report(poly.coeffs, params)
        assert str(raised.value) == str(exc)
        return
    assert full_bounds_report(poly.coeffs, params) == expected


def archimedean_flags(poly, params):
    return list(full_bounds_report(poly.coeffs, params).archimedean_ok)


def valuation_flags(poly, params):
    return list(full_bounds_report(poly.coeffs, params).valuation_ok)


def test_is_q_symmetric_examples():
    assert full_bounds_report([5, 0, 1], WeilParams(p=5, n=1, g=1)).symmetric_ok
    # (X^2+5)(X^2-5) = X^4 - 25: c0 = -25 but q^2*c4 = 25, so not symmetric
    report = full_bounds_report([-25, 0, 0, 0, 1], WeilParams(p=5, n=1, g=2))
    assert not report.symmetric_ok
    # (X-5)^2 = X^2 - 10X + 25: c0 = 25 != q*c2 = 5
    assert not full_bounds_report([25, -10, 1], WeilParams(p=5, n=1, g=1)).symmetric_ok


def test_is_q_symmetric_shape_errors():
    params = WeilParams(p=5, n=1, g=2)
    with pytest.raises(ShapeError):
        full_bounds_report([5, 0, 1], params)  # degree 2 != 2g = 4
    with pytest.raises(ShapeError):
        full_bounds_report([1, 0, 0, 0, 2], params)  # not monic
    with pytest.raises(ShapeError, match="got degree -inf$"):
        full_bounds_report((), params)  # the zero polynomial


def test_functional_equation_sign():
    assert functional_equation_sign(Poly([-25, 0, 0, 0, 1]), 5) == -1
    assert functional_equation_sign(Poly([25, 0, 10, 0, 1]), 5) == 1
    assert functional_equation_sign(Poly([5, 5, 1]), 5) == 1
    assert functional_equation_sign(Poly([3, 1, 1]), 5) is None
    with pytest.raises(ShapeError):
        functional_equation_sign(Poly([1, 1]), 5)  # odd degree
    with pytest.raises(ShapeError):
        functional_equation_sign(Poly([1, 0, 2]), 5)  # not monic


def test_q_symmetry_agrees_with_positive_functional_sign():
    for p in (5, 7, 11):
        params = WeilParams(p=p, n=1, g=2)
        for cand in candidates(verify_parity_theorem(params)):
            sign = functional_equation_sign(cand.poly, params.q)
            assert (sign == 1) == full_bounds_report(cand.poly.coeffs, params).symmetric_ok


def test_archimedean_examples():
    assert archimedean_flags(Poly([5, 0, 1]), WeilParams(p=5, n=1, g=1)) == [True]
    flags = archimedean_flags(Poly([49, 0, 7, 0, 1]), WeilParams(p=7, n=1, g=2))
    assert flags == [True, True]  # a1 = 0; a2 = 7: 49 <= 36*49
    flags = archimedean_flags(Poly([5, 6, 1]), WeilParams(p=5, n=1, g=1))
    assert flags == [False]  # 36 > 4*5


def test_archimedean_bound_at_its_edge():
    # |a_k| = isqrt(C(2g,k)**2 * q**k) passes and one more fails, at either
    # sign and every k, against the squared form a_k**2 <= C(2g,k)**2 * q**k;
    # the bound is a perfect square for even k
    for g, p, n in ((1, 5, 1), (3, 37, 1), (3, 37, 3), (4, 2, 1), (5, 401, 5)):
        params = WeilParams(p=p, n=n, g=g)
        for k in range(1, g + 1):
            bound = comb(2 * g, k) ** 2 * params.q ** k
            for a in (isqrt(bound), isqrt(bound) + 1, -isqrt(bound), -isqrt(bound) - 1):
                coeffs = [0] * (2 * g) + [1]
                coeffs[2 * g - k] = a
                flags = full_bounds_report(coeffs, params).archimedean_ok
                assert flags[k - 1] == (a * a <= bound), (g, p, n, k, a)


def test_valuation_examples():
    assert valuation_flags(Poly([5, 0, 1]), WeilParams(p=5, n=1, g=1)) == [True]
    flags = valuation_flags(Poly([49, 0, 7, 0, 1]), WeilParams(p=7, n=1, g=2))
    assert flags == [True, True]  # ord_7(7) = 1 >= ceil(1*2/2)
    flags = valuation_flags(Poly([49, 0, 7, 0, 1]), WeilParams(p=7, n=3, g=2))
    assert flags == [True, False]  # need ord_7(a2) >= 3 but a2 = 7


def test_valuation_ceiling():
    # ceil(n*k/2): a1 = p passes at n=1 (need ord >= 1), fails at n=3 (need >= 2)
    poly_one = Poly([-5 * 5, 5, 1])  # artificial monic quadratic, a1 = 5
    assert valuation_flags(poly_one, WeilParams(p=5, n=1, g=1)) == [True]
    poly_three = Poly([0, 5, 1])
    assert valuation_flags(poly_three, WeilParams(p=5, n=3, g=1)) == [False]


def test_lemma_a1_examples():
    assert full_bounds_report([25, 0, 10, 0, 1], WeilParams(p=5, n=1, g=2)).lemma_a1_ok
    assert full_bounds_report([3, 3, 1], WeilParams(p=3, n=1, g=1)).lemma_a1_ok  # 3 <= 4
    assert not full_bounds_report([7, 7, 1], WeilParams(p=7, n=1, g=1)).lemma_a1_ok  # 7 > 4


def test_corollary_threshold_values():
    assert corollary_threshold(1) == 4
    assert corollary_threshold(2) == 16
    assert corollary_threshold(3) == 400
    assert comb(6, 3) == 20
    with pytest.raises(ValueError):
        corollary_threshold(0)


def test_corollary_threshold_monotone():
    values = [corollary_threshold(g) for g in range(1, 11)]
    assert values == sorted(values)


def test_full_report_examples():
    report = full_bounds_report([5, 0, 1], WeilParams(p=5, n=1, g=1))
    assert report.symmetric_ok and report.lemma_a1_ok
    assert report.archimedean_ok == report.valuation_ok == (True,)
    assert report.a_values == (0,)

    report = full_bounds_report([25, -10, 1], WeilParams(p=5, n=1, g=1))
    assert not report.symmetric_ok
    assert report.a_values == (-10,)


def test_full_report_on_enumerated_candidates():
    params = WeilParams(p=11, n=1, g=3)
    for cand in candidates(verify_parity_theorem(params)):
        report = full_bounds_report(cand.poly.coeffs, params)
        assert all(report.archimedean_ok) and all(report.valuation_ok)
        assert report.lemma_a1_ok
        assert len(report.a_values) == len(report.valuation_ok) == params.g


def test_vieta_float_oracle():
    # exact expansion must match elementary symmetric functions of the
    # numeric roots sqrt(q*) * zeta, to relative error < 1e-6
    for p in (3, 5, 7, 11, 23, 47):
        params = WeilParams(p=p, n=1, g=1)
        for t in (1, 2, 3, 4, 5, 6):
            if totient(4 * t) > 8:
                continue
            for sign in (-1, 1):
                if not is_full_degree(p, sign, t):
                    continue
                poly = minpoly_full_degree(params, sign, t)
                m = 4 * t
                sqrt_q_star = cmath.sqrt(sign * params.q)
                roots = [
                    sqrt_q_star * cmath.exp(2j * cmath.pi * j / m)
                    for j in range(1, m)
                    if gcd(j, m) == 1
                ]
                numeric = [complex(1)]
                for r in roots:
                    numeric = [complex(0)] + numeric
                    for i in range(len(numeric) - 1):
                        numeric[i] -= r * numeric[i + 1]
                for exact, approx in zip(poly.coeffs, numeric):
                    scale = max(1.0, abs(exact))
                    assert abs(approx - exact) / scale < 1e-6
