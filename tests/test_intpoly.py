"""Integer polynomial arithmetic: the library's product, and the tests' own ring.

The library's ``IntPoly`` holds coefficients and multiplies; its product
is checked against naive convolution and against the ring of the tests,
``oracles.Poly``, which multiplies by Kronecker substitution.  The ring
laws, the substitutions and exact division are checked on ``Poly``.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import NotDivisible, Poly, exact_div, horner, kronecker_mul

from weilparity.cli import run
from weilparity.intpoly import IntPoly, _mul_schoolbook
from weilparity.weil import WeilParams, minpoly_full_degree

X = Poly([0, 1])
ONE = Poly([1])


# -- independent oracles ----------------------------------------------------


def naive_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def rational_divmod(a: list[int], b: list[int]):
    """Classical long division over the rationals; the division oracle."""
    rem = [Fraction(c) for c in a]
    lead = Fraction(b[-1])
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(a) - 1, len(b) - 2, -1):
        t = rem[k] / lead
        quot[k - len(b) + 1] = t
        for i, c in enumerate(b):
            rem[k - len(b) + 1 + i] -= t * c
    return quot, rem


def oracle_exact_div(a: list[int], b: list[int]) -> list[int] | None:
    quot, rem = rational_divmod(a, b)
    if any(rem) or any(t.denominator != 1 for t in quot):
        return None
    return [int(t) for t in quot]


def random_poly(rng, max_len, lo, hi) -> Poly:
    return Poly([rng.randint(lo, hi) for _ in range(rng.randint(0, max_len))])


# -- construction and representation ----------------------------------------


def test_canonical_form_strips_trailing_zeros():
    for make in (IntPoly, Poly):
        assert make([1, 2, 0, 0]).coeffs == (1, 2)
        assert make([0, 0, 0]).coeffs == ()
        assert make([0, 0, 3]).coeffs == (0, 0, 3)


def test_intpoly_values_cannot_be_assigned():
    # the lru_cache of cyclotomic polynomials hands out shared values
    value = IntPoly([-1, 0, 1, 0])
    for name in ("coeffs", "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        del value.coeffs
    assert value.coeffs == (-1, 0, 1)


def test_zero_polynomial_degree_is_minus_infinity():
    zero = Poly()
    assert zero.degree == -math.inf
    assert not isinstance(zero.degree, int)
    assert zero.is_zero()
    assert Poly([5]).degree == 0
    assert (X ** 7).degree == 7


def test_text_format_round_trip(capsys):
    # minpoly prints the library's coefficients as one line of decimals
    for p, sign, t in ((5, "+", 1), (7, "-", 3), (2, "+", 4)):
        assert run(["minpoly", "--p", str(p), "--n", "1", "--sign", sign, "--t", str(t)]) == 0
        line = capsys.readouterr().out
        poly = minpoly_full_degree(WeilParams(p=p, n=1, g=1), 1 if sign == "+" else -1, t)
        assert line == " ".join(map(str, poly.coeffs)) + "\n"
        assert tuple(map(int, line.split())) == poly.coeffs


# -- add ---------------------------------------------------------------------


def test_add_examples():
    assert (X + 1) + (X - 1) == 2 * X
    p = Poly([3, -2, 7])
    assert p + Poly() == p
    assert (X ** 2 + 1) + (-(X ** 2) - 1) == Poly()


# -- mul ---------------------------------------------------------------------


def test_mul_examples():
    assert (X + 1) * (X - 1) == X ** 2 - 1
    # hand convolution: (X^2+5)(X^2-5) = X^4 - 25, in the ring and in the library
    assert (X ** 2 + 5) * (X ** 2 - 5) == Poly([-25, 0, 0, 0, 1])
    assert (IntPoly([5, 0, 1]) * IntPoly([-5, 0, 1])).coeffs == (-25, 0, 0, 0, 1)
    p = Poly([3, -2, 7])
    assert p * ONE == p
    assert p * Poly() == Poly()
    assert (IntPoly([3, -2, 7]) * IntPoly([1])).coeffs == p.coeffs
    assert (IntPoly([3, -2, 7]) * IntPoly()).coeffs == ()


def test_mul_degree_additivity():
    rng = random.Random(101)
    for _ in range(200):
        a = random_poly(rng, 6, -9, 9)
        b = random_poly(rng, 6, -9, 9)
        if a.is_zero() or b.is_zero():
            assert (a * b).is_zero()
        else:
            assert (a * b).degree == a.degree + b.degree


def test_mul_matches_naive_convolution():
    rng = random.Random(102)
    for _ in range(200):
        a = random_poly(rng, 8, -9, 9)
        b = random_poly(rng, 8, -9, 9)
        expected = naive_mul(list(a.coeffs), list(b.coeffs))
        assert list((a * b).coeffs) == expected
        assert list((IntPoly(a.coeffs) * IntPoly(b.coeffs)).coeffs) == expected


# -- exact_div ----------------------------------------------------------------


def test_exact_div_examples():
    assert exact_div(X ** 2 - 1, X - 1) == X + 1
    # long-division oracle: (X^12-1) / ((X-1)(X+1)(X^2+X+1)(X^2+1)(X^2-X+1))
    num = X ** 12 - 1
    den = (X - 1) * (X + 1) * Poly([1, 1, 1]) * Poly([1, 0, 1]) * Poly([1, -1, 1])
    expected = oracle_exact_div(list(num.coeffs), list(den.coeffs))
    assert expected == [1, 0, -1, 0, 1]
    assert exact_div(num, den) == Poly(expected)


def test_exact_div_remainder_raises():
    with pytest.raises(NotDivisible):
        exact_div(X ** 2 + 1, X + 1)  # remainder 2
    with pytest.raises(NotDivisible):
        exact_div(Poly([1, 2]), Poly([0, 0, 1]))  # divisor degree too large
    with pytest.raises(NotDivisible):
        exact_div(2 * X + 2, Poly([3]))  # fractional step


def test_exact_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        exact_div(ONE, Poly())
    assert exact_div(Poly(), X + 1) == Poly()


def test_exact_div_matches_rational_oracle():
    rng = random.Random(202)
    for _ in range(300):
        a = random_poly(rng, 7, -6, 6)
        b = random_poly(rng, 5, -6, 6)
        if b.is_zero():
            continue
        product = a * b
        assert exact_div(product, b) == a
        if not product.is_zero():
            assert oracle_exact_div(list(product.coeffs), list(b.coeffs)) \
                == list(a.coeffs)


# -- compose_power, sign_flip, is_even, eval ----------------------------------


def test_compose_power_examples():
    assert (X + 1).compose_power(3) == X ** 3 + 1
    assert Poly([1, 1, 1]).compose_power(2) == Poly([1, 0, 1, 0, 1])
    assert Poly().compose_power(3) == Poly()
    p = Poly([4, -1, 3])
    assert p.compose_power(1) == p
    with pytest.raises(ValueError):
        p.compose_power(0)


def test_compose_power_composes():
    rng = random.Random(303)
    for _ in range(100):
        a = random_poly(rng, 5, -4, 4)
        j, k = rng.randint(1, 4), rng.randint(1, 4)
        assert a.compose_power(j * k) == a.compose_power(j).compose_power(k)


def test_sign_flip_examples():
    assert Poly([1, -1, 1]).sign_flip() == Poly([1, 1, 1])
    assert Poly([1, 0, 1]).sign_flip() == Poly([1, 0, 1])
    assert (X ** 3).sign_flip() == -(X ** 3)


def test_is_even_examples():
    assert Poly([1, 0, -1, 0, 1]).is_even()
    assert not Poly([1, -1, 1]).is_even()
    assert Poly().is_even()


def test_is_even_iff_fixed_by_sign_flip():
    rng = random.Random(404)
    for _ in range(300):
        a = random_poly(rng, 8, -3, 3)
        assert a.is_even() == (a == a.sign_flip())


def test_eval_int_examples():
    assert horner(Poly([1, 0, 1]), 0) == 1
    assert horner(Poly([-5, 0, 1]), 3) == 4
    phi5 = Poly([1, 1, 1, 1, 1])
    assert horner(phi5, 1) == 5 == sum(phi5.coeffs)
    assert horner(Poly(), 17) == 0


# -- ring laws ----------------------------------------------------------------


def test_ring_laws_small_coefficients():
    rng = random.Random(505)
    for _ in range(400):
        a = random_poly(rng, 5, -3, 3)
        b = random_poly(rng, 5, -3, 3)
        c = random_poly(rng, 5, -3, 3)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_ring_laws_larger_random_cases():
    rng = random.Random(606)
    for _ in range(25):
        a = random_poly(rng, 40, -10 ** 9, 10 ** 9)
        b = random_poly(rng, 40, -10 ** 9, 10 ** 9)
        c = random_poly(rng, 40, -10 ** 9, 10 ** 9)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not b.is_zero():
            assert exact_div(a * b, b) == a


polys = st.lists(st.integers(-(2 ** 70), 2 ** 70), max_size=8).map(Poly)
RING_LAWS = settings(max_examples=200, deadline=None, derandomize=True)


@RING_LAWS
@given(polys, polys, polys)
def test_ring_laws_property(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@RING_LAWS
@given(polys, polys.filter(lambda b: not b.is_zero()))
def test_exact_div_round_trip_property(a, b):
    assert exact_div(a * b, b) == a


@RING_LAWS
@given(polys, polys)
def test_kronecker_product_matches_the_schoolbook_product(a, b):
    # the oracle's product packs each polynomial into one integer and
    # multiplies once; the library's convolves coefficient by coefficient
    assert Poly(kronecker_mul(a.coeffs, b.coeffs)) == Poly(_mul_schoolbook(a.coeffs, b.coeffs))
    assert (IntPoly(a.coeffs) * IntPoly(b.coeffs)).coeffs == (a * b).coeffs


# -- large operands -----------------------------------------------------------


def test_packed_mul_handles_huge_coefficients():
    rng = random.Random(808)
    big = 2 ** 300
    a = [rng.randint(-big, big) for _ in range(50)]
    b = [rng.randint(-big, big) for _ in range(50)]
    assert list((IntPoly(a) * IntPoly(b)).coeffs) == naive_mul(a, b)
    assert list((Poly(a) * Poly(b)).coeffs) == naive_mul(a, b)


def test_large_division_exercises_packed_path():
    rng = random.Random(909)
    for _ in range(10):
        a = Poly([rng.randint(-999, 999) for _ in range(80)] + [1])
        b = Poly([rng.randint(-999, 999) for _ in range(60)] + [1])
        product = a * b
        assert exact_div(product, b) == a
        assert list(exact_div(product, b).coeffs) \
            == oracle_exact_div(list(product.coeffs), list(b.coeffs))
        perturbed = product + 1 + X ** 3
        try:
            got = exact_div(perturbed, b)
        except NotDivisible:
            continue
        # division may only succeed if it is genuinely exact
        assert got * b == perturbed


def test_packed_division_value_coincidence_is_caught():
    # X^2 + 2^40 is not divisible by X, although its value at X = 2^40
    # is divisible by 2^40; the division must still report the remainder.
    with pytest.raises(NotDivisible):
        exact_div(Poly([1 << 40, 0, 1]), X)


def test_pow():
    assert (X + 1) ** 0 == ONE
    assert (X + 1) ** 1 == X + 1
    assert (X + 1) ** 2 == Poly([1, 2, 1])
    assert (X - 2) ** 3 == Poly([-8, 12, -6, 1])
    with pytest.raises(ValueError):
        (X + 1) ** -1
