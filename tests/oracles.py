"""Reference implementations the tests compare the library against.

None of these is on a command-line path: they are independent
constructions (a polynomial ring of the tests' own, :class:`Poly`,
whose product is a Kronecker substitution, and on it the Moebius
quotient for cyclotomic polynomials, over divisors and a Moebius
function found here by trial division, exact polynomial division, the
t-list by a scan of every t, the minimal polynomials and candidates
built in X from the cyclotomic polynomial of index 4t, a ``verify``
grid's report built for each cell on its own, a parity report's document
built as a dict and its TSV rows rendered one candidate at a time, a
bounds report's document built as a dict and its TSV row, the candidate
count taken over every product, the argparse parser the command line had
before its table-driven one, the full/half degree dichotomy decided by
factoring over Q with sympy),
identities from the literature, and the paper's thresholds, kept here as
oracles and acceptance checks.  No oracle multiplies through the
library's ``IntPoly``: a library polynomial, a tuple of coefficients,
enters as ``Poly(value)``.
"""

import argparse
import io
import json
import math
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from itertools import zip_longest
from math import comb, isqrt
from unittest import mock

from weilparity.cli import (
    _CELL,
    _cmd_bounds,
    _cmd_cyclo,
    _cmd_detect_half,
    _cmd_enumerate,
    _cmd_minpoly,
    _cmd_verify,
)
from weilparity.cyclotomic import _check_cap, cyclotomic, is_prime, totient
from weilparity.enumerator import candidate_shapes, verify_parity_theorem
from weilparity.errors import ShapeError
from weilparity.weil import WeilParams


class Poly:
    """An integer polynomial of the tests' own ring, in canonical (trailing-zero-free) form.

    ``coeffs`` holds the coefficients in ascending degree order, as in
    the library.  An int acts as a constant on the right of ``+`` and
    ``-`` and on either side of ``*``, and a product of two polynomials
    is :func:`kronecker_mul`.  Equality is by coefficients, between
    ``Poly`` values only: a library polynomial is compared as
    ``Poly(value)``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __eq__(self, other):
        return self.coeffs == other.coeffs if isinstance(other, Poly) else NotImplemented

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"

    @property
    def degree(self) -> int | float:
        """The degree; ``-inf`` for the zero polynomial, so arithmetic on it fails loudly."""
        return len(self.coeffs) - 1 if self.coeffs else -math.inf

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return self.coeffs[-1:] == (1,)

    def is_even(self) -> bool:
        """True iff every odd-degree coefficient vanishes (so for zero too)."""
        return not any(self.coeffs[1::2])

    def coefficient(self, i: int) -> int:
        """The coefficient of ``X**i``, zero beyond the degree."""
        if i < 0:
            raise ValueError("coefficient index must be nonnegative")
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def __add__(self, other):
        if isinstance(other, int):
            other = Poly((other,))
        elif not isinstance(other, Poly):
            return NotImplemented
        return Poly(map(sum, zip_longest(self.coeffs, other.coeffs, fillvalue=0)))

    def __neg__(self):
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, int):
            return Poly(c * other for c in self.coeffs)
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(kronecker_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        result, base = Poly((1,)), self
        while n:  # square and multiply
            if n & 1:
                result *= base
            n >>= 1
            if n:
                base *= base
        return result

    def compose_power(self, k: int):
        """``self(X**k)``: k - 1 zeros after each coefficient but the last."""
        if k < 1:
            raise ValueError("k must be a positive integer")
        out = [0] * ((len(self.coeffs) - 1) * k + 1)  # [] for zero
        out[::k] = self.coeffs
        return Poly(out)

    def sign_flip(self):
        """``self(-X)``: every odd-degree coefficient negated."""
        return Poly(-c if i & 1 else c for i, c in enumerate(self.coeffs))


def kronecker_mul(a, b) -> list[int]:
    """The product of two coefficient sequences by Kronecker substitution.

    (Harvey, J. Symbolic Comput. 44, 2009.)  Each polynomial is packed
    into one integer, its value at X = B = 2**(8 * width), the two
    integers are multiplied once, and the product is unpacked in signed
    digits.  ``width`` bytes leave room for the largest coefficient the
    product can have, with its sign: every |c| < B/2.  Packing and
    unpacking go through bytes, each digit shifted by B/2 to be
    nonnegative, so both are linear in the size of the integers.
    """
    if not any(a) or not any(b):
        return []
    bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
    width = (bound.bit_length() + 8) // 8  # bound < 2**(8 * width - 1) = B/2
    half = 1 << (8 * width - 1)
    half_digit = half.to_bytes(width, "little")

    def halves(count):  # the value of ``count`` digits B/2
        return int.from_bytes(half_digit * count, "little")

    def pack(coeffs):
        digits = b"".join([(c + half).to_bytes(width, "little") for c in coeffs])
        return int.from_bytes(digits, "little") - halves(len(coeffs))

    size = len(a) + len(b) - 1
    digits = (pack(a) * pack(b) + halves(size)).to_bytes(size * width, "little")
    return [
        int.from_bytes(digits[i:i + width], "little") - half for i in range(0, len(digits), width)
    ]


class NotDivisible(ArithmeticError):
    """An exact polynomial division left a remainder or a fractional step.

    Every division the oracles perform is mathematically exact, so
    raising this means either the inputs were wrong or an identity that
    should hold does not.
    """


def exact_div(num: Poly, den: Poly) -> Poly:
    """Exact quotient ``num / den`` over the integers, by long division."""
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return Poly()
    a, b = num.coeffs, den.coeffs
    if len(a) < len(b):
        raise NotDivisible("divisor degree exceeds dividend degree")
    lead, dn = b[-1], len(b)
    lower = [(i, c) for i, c in enumerate(b[:-1]) if c]
    rem = list(a)
    quot = [0] * (len(a) - dn + 1)
    for k in range(len(a) - 1, dn - 2, -1):
        c = rem[k]
        if not c:
            continue
        t, r = divmod(c, lead)
        if r:
            raise NotDivisible(f"leading step {c} not divisible by {lead} at degree {k}")
        pos = k - dn + 1
        quot[pos] = t
        rem[k] = 0
        for i, dc in lower:
            rem[pos + i] -= t * dc
    if any(rem[:dn - 1]):
        raise NotDivisible("division leaves a nonzero remainder")
    return Poly(quot)


def horner(poly, x: int) -> int:
    """Exact value at the integer ``x`` of ``poly``, a library or oracle polynomial."""
    acc = 0
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def divisors(n: int) -> list[int]:
    """All positive divisors of ``n`` in increasing order, by trial division up to sqrt(n)."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def moebius(n: int) -> int:
    """0 if a prime square divides ``n``, else (-1)**(number of primes dividing n).

    By trial division: each prime p found is divided out once, and a
    second p left in the rest means n is not squarefree.
    """
    mu, rest, p = 1, n, 2
    while p * p <= rest:
        if rest % p == 0:
            rest //= p
            if rest % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if rest > 1 else mu


def cyclotomic_mobius(n: int) -> Poly:
    """The n-th cyclotomic polynomial as one exact Moebius quotient.

    ``prod_{d | n} (X**(n/d) - 1)**moebius(d)``, under the same cap as
    :func:`weilparity.cyclotomic.cyclotomic`.
    """
    _check_cap(n)
    numerator = denominator = Poly((1,))
    for d in divisors(n):
        mu, m = moebius(d), n // d
        factor = Poly((-1,) + (0,) * (m - 1) + (1,))  # X**m - 1
        if mu == 1:
            numerator = numerator * factor
        elif mu == -1:
            denominator = denominator * factor
    return exact_div(numerator, denominator)


def prime_power_identity_check(p: int, k: int, n: int) -> bool:
    """Check the prime-power shift identity for cyclotomic polynomials.

    For prime ``p`` and ``k >= 1`` the polynomial ``Phi_{p**k * n}``
    equals ``Phi_n(X**(p**k))`` when ``p`` divides ``n``, and
    ``Phi_n(X**(p**k)) / Phi_n(X**(p**(k-1)))`` otherwise.  Both sides
    are taken from the library's cyclotomic polynomials into :class:`Poly`.
    """
    if not is_prime(p):
        raise ValueError(f"p={p} must be prime")
    if k < 1:
        raise ValueError("k must be a positive integer")
    if n < 1:
        raise ValueError("n must be a positive integer")
    lhs = Poly(cyclotomic(p ** k * n))
    base = Poly(cyclotomic(n))
    composed = base.compose_power(p ** k)
    if n % p == 0:
        return lhs == composed
    return lhs == exact_div(composed, base.compose_power(p ** (k - 1)))


def functional_equation_sign(poly, q: int) -> int | None:
    """Sign s with X**d P(q/X) = s * q**(d/2) P(X), or None if neither fits.

    Accepts any monic :class:`Poly` of even degree d (factors as well as
    full candidates).  Products of factors can meet the identity with
    either sign: (X**2+q)(X**2-q) has sign -1 and is not q-symmetric.
    """
    d = poly.degree
    if not poly.is_monic() or d % 2:
        raise ShapeError("functional equation requires a monic even-degree polynomial")
    c = poly.coeffs
    for sign in (1, -1):
        if all(c[d - j] * q ** (d // 2 - j) == sign * c[j] for j in range(d // 2 + 1)):
            return sign
    return None


def corollary_threshold(g: int) -> int:
    """The binomial evenness threshold: p beyond it forces all odd a_k = 0.

    C(2g,g)**2 for odd g, C(2g,g-1)**2 for even g (the largest binomial
    square over odd k <= g).
    """
    if g < 1:
        raise ValueError("g must be a positive integer")
    return comb(2 * g, g if g % 2 else g - 1) ** 2


def fitting_specs_scan(g: int) -> list[tuple[int, int, int]]:
    """(sign, t, phi(4t)) for every t with phi(4t) <= 4g, ordered by (t, sign), by a scan of t.

    The scan stops at t = 8g**2: phi(m) >= sqrt(m/2) for every m, so
    phi(4t) <= 4g forces 4t <= 32g**2.  Each phi(4t) is a trial-division
    totient.  The library lists the same t by inverse totient.
    """
    return [
        (sign, t, d)
        for t in range(1, 8 * g * g + 1)
        if (d := totient(4 * t)) <= 4 * g
        for sign in (-1, 1)
    ]


def minpoly_shape_x(q_star_sign: int, t: int) -> Poly:
    """The q-free shape, in X, of the minimal polynomial of ``sqrt(q_star) * zeta_4t``.

    The coefficient ``c_j`` of ``X**j`` in the cyclotomic polynomial of
    index 4t becomes ``c_j * q_star_sign**((phi(4t) - j)/2)``.  That
    polynomial is even, since 4 | 4t: an odd coefficient is an
    ``AssertionError``, so the floor in the exponent never matters.  The
    library builds the same shape in ``Y = X**2``, from index 2t.
    """
    phi = cyclotomic(4 * t)
    assert not any(phi[1::2]), f"the cyclotomic polynomial of index {4 * t} is not even"
    m = len(phi) - 1
    return Poly(c * q_star_sign ** ((m - j) // 2) for j, c in enumerate(phi))


def scale_x(shape: Poly, q: int) -> Poly:
    """``q**(d/2) * shape(X / sqrt(q))`` for an even shape of even degree d.

    The coefficient of ``X**j`` is multiplied by ``q**((d - j)/2)``, an
    exact integer because only even j carry nonzero coefficients.
    """
    d = shape.degree
    assert d % 2 == 0 and shape.is_even(), f"{shape} is not even of even degree"
    return Poly(c * q ** ((d - j) // 2) for j, c in enumerate(shape.coeffs))


def full_degree_by_factoring(p: int, n: int, q_star_sign: int, t: int) -> bool:
    """Whether ``sqrt(q_star) * zeta_4t`` over q = p**n has full degree, by factoring over Q.

    P = ``scale_x(minpoly_shape_x(sign, t), q)`` is the sum of
    ``c_j * q**(d - j) * X**(2j)`` for c the library's shape in Y, of
    degree d: it has the Weil number as a root and degree phi(4t), so the
    number has full degree iff sympy's ``factor_list`` finds P
    irreducible.  Nothing here reads ``is_full_degree``.
    """
    from sympy import Poly as SympyPoly  # loaded only by the tests that factor
    from sympy.abc import x

    poly = scale_x(minpoly_shape_x(q_star_sign, t), p ** n)
    _, factors = SympyPoly(poly.coeffs[::-1], x).factor_list()
    return [mult for _, mult in factors] == [1]


def product_x(record) -> Poly:
    """The product, in X, of the :func:`minpoly_shape_x` of a factor record's (spec, mult) pairs.

    Multiplied in :class:`Poly`, by :func:`kronecker_mul`, not by
    ``IntPoly``'s own product, which builds the library's shapes that
    this product is checked against.
    """
    product = Poly((1,))
    for spec, mult in record:
        shape = minpoly_shape_x(spec.q_star_sign, spec.t)
        for _ in range(mult):
            product *= shape
    return product


def products_x(g: int, specs) -> list[tuple[Poly, Poly, tuple]]:
    """(product in X, product in Y, record) for each record of ``candidate_shapes``.

    The product in X is built from the record's factors by
    :func:`product_x`, not read from the library; the product in
    ``Y = X**2`` is the library's, read into :class:`Poly`.
    """
    return [
        (product_x(record), Poly(shape), record)
        for shape, record in candidate_shapes(g, specs)
    ]


Candidate = namedtuple("Candidate", "poly factors")


def candidates(report) -> list[Candidate]:
    """The cell's candidates as polynomials, with their factor records, in canonical order.

    Each is the X product of its record, scaled by the cell's q, as the
    command line prints it; it must equal the library's Y product in X**2.
    """
    out = []
    for poly, shape, record in products_x(report.params.g, report.full_degree_specs):
        assert poly == shape.compose_power(2), record
        out.append(Candidate(scale_x(poly, report.params.q), record))
    return out


def candidate_counts(g: int, specs) -> tuple[int, int]:
    """(number, number not even) of the X products of ``candidate_shapes``' records.

    The count the library took before it counted from the factors'
    degrees: every product is built in X and tested with ``is_even``.  An
    even one must equal the library's Y product in X**2; an odd one
    cannot, and is counted.
    """
    products = products_x(g, specs)
    odd = 0
    for poly, shape, record in products:
        if poly.is_even():
            assert poly == shape.compose_power(2), record
        else:
            odd += 1
    return len(products), odd


def parity_doc(report) -> dict:
    """The structured document of one parity report, built as a dict.

    Through ``json.dumps`` it gives the bytes the command line streams
    for the cell: the oracle of its text renderer, which builds neither
    the dicts nor the expanded polynomials.
    """
    return {
        "g": report.params.g,
        "p": report.params.p,
        "n": report.params.n,
        "total_candidates": report.total_candidates,
        "odd_candidates": report.odd_candidates,
        "candidates": [
            {
                "coeffs": list(c.poly.coeffs),
                "even": c.poly.is_even(),
                "factors": [
                    {"sign": s.q_star_sign, "t": s.t, "mult": m} for s, m in c.factors
                ],
            }
            for c in candidates(report)
        ],
        "half_degree_specs": [{"sign": s.q_star_sign, "t": s.t} for s in report.half_degree_specs],
    }


def enumerate_rows(report) -> list[str]:
    """The TSV rows ``enumerate`` prints for the cell, one per candidate, header not included.

    Each row is rendered from its own polynomial: the cell, the
    coefficients, ``true``/``false`` for evenness and the factor record
    as ``sign:t:mult`` joined by ``;``.
    """
    cell = [str(report.params.g), str(report.params.p), str(report.params.n)]
    sign_text = {1: "+", -1: "-"}
    return [
        "\t".join([
            *cell,
            " ".join(map(str, c.poly.coeffs)),
            "true" if c.poly.is_even() else "false",
            ";".join(f"{sign_text[s.q_star_sign]}:{s.t}:{m}" for s, m in c.factors),
        ])
        for c in candidates(report)
    ]


def grid_reports(g_max: int, p_max: int, n_values) -> list:
    """The report of every cell (g, p, n) of a ``verify`` grid, in grid order, each built on its own.

    The primes are found by trial division, and each cell gets its own
    :class:`WeilParams` and its own :func:`verify_parity_theorem`; the
    library decides a grid once per scan class instead.
    """
    return [
        verify_parity_theorem(WeilParams(p=p, n=n, g=g))
        for g in range(1, g_max + 1)
        for p in range(2 * g + 2, p_max + 1)
        if is_prime(p)
        for n in n_values
    ]


def parity_json(reports) -> str:
    """What structured ``verify`` prints for ``reports``: one ``json.dumps`` of every document."""
    return json.dumps([parity_doc(r) for r in reports]) + "\n"


def verify_tsv(reports) -> str:
    """What TSV ``verify`` prints for ``reports``: its header, then each cell's counts and verdict."""
    lines = ["g\tp\tn\ttotal_candidates\todd_candidates\thalf_degree_specs\tok"]
    for r in reports:
        fields = (r.params.g, r.params.p, r.params.n, r.total_candidates, r.odd_candidates,
                  len(r.half_degree_specs), json.dumps(r.contract_ok))
        lines.append("\t".join(map(str, fields)))
    return "\n".join(lines) + "\n"


def bounds_doc(report) -> dict:
    """The structured document of one bounds report, built as a dict.

    Through ``json.dumps`` it gives the text the command line writes for
    the report: the oracle of its text renderer, which builds no dict.
    """
    params = report.params
    return {
        "g": params.g, "p": params.p, "n": params.n,
        "symmetric": report.symmetric_ok,
        "lemma_a1": report.lemma_a1_ok,
        "per_coefficient": [
            {"k": k, "a_k": a_k, "archimedean": arch, "valuation": val}
            for k, (a_k, arch, val) in enumerate(
                zip(report.a_values, report.archimedean_ok, report.valuation_ok), 1
            )
        ],
    }


def bounds_row(report) -> str:
    """The TSV row ``bounds`` prints for the report: its cell, a_1..a_g and four flags."""
    params = report.params
    flags = (report.symmetric_ok, report.lemma_a1_ok,
             all(report.archimedean_ok), all(report.valuation_ok))
    return "\t".join([
        str(params.g), str(params.p), str(params.n),
        " ".join(map(str, report.a_values)),
        *(json.dumps(flag) for flag in flags),
    ])


# The command line's argparse parser, kept as the oracle of the table-driven one.
def build_parser() -> argparse.ArgumentParser:
    # --format is accepted before or after the subcommand; SUPPRESS keeps
    # the subparser from clobbering a value parsed by the main parser.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("tsv", "structured"),
        default=argparse.SUPPRESS,
        help="output format (default tsv)",
    )
    cell = argparse.ArgumentParser(add_help=False)
    for name in _CELL:
        cell.add_argument(f"--{name}", type=int, required=True)

    parser = argparse.ArgumentParser(
        prog="weilparity",
        description="Exact checks on supersingular Weil polynomial candidates.",
    )
    parser.add_argument(
        "--format", choices=("tsv", "structured"), default="tsv", help=argparse.SUPPRESS
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, summary, *parents):
        command = sub.add_parser(name, parents=[common, *parents], help=summary)
        command.set_defaults(func=func)
        return command

    cyclo = add("cyclo", _cmd_cyclo, "print a cyclotomic polynomial")
    cyclo.add_argument("n", type=int)

    minpoly = add("minpoly", _cmd_minpoly, "full-degree Weil number minimal polynomial")
    minpoly.add_argument("--p", type=int, required=True)
    minpoly.add_argument("--n", type=int, required=True)
    minpoly.add_argument("--sign", choices=("+", "-"), required=True)
    minpoly.add_argument("--t", type=int, required=True)

    add("enumerate", _cmd_enumerate, "enumerate degree-2g candidates", cell)

    verify = add("verify", _cmd_verify, "check the parity contract over a grid")
    verify.add_argument("--gmax", type=int, required=True)
    verify.add_argument("--pmax", type=int, required=True)
    verify.add_argument("--n", type=int, action="append", required=True)

    add("detect-half", _cmd_detect_half, "list half-degree specs fitting in 2g", cell)

    bounds = add("bounds", _cmd_bounds, "bound checks on a polynomial file", cell)
    bounds.add_argument("--file", type=str, required=True)

    return parser


def parse_reference(argv):
    """(None, namespace) if :func:`build_parser` accepts ``argv``, else (exit code, None).

    The readings are those of Python 3.11's argparse, which the command
    line's own parser was checked against.  Its help and error text are
    dropped.  One reading differs from plain argparse, which strips the
    ``--`` out of ``--flag=--`` and stores ``[]`` as the flag's value (so
    ``--p=--`` failed at run time, exit 3): here, as on the command line
    now, that is a missing value, exit 2.
    """
    real = argparse.ArgumentParser._get_values

    def get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:
            raise argparse.ArgumentError(action, "expected one argument")
        return real(self, action, arg_strings)

    sink = io.StringIO()
    try:
        with mock.patch.object(argparse.ArgumentParser, "_get_values", get_values), \
                redirect_stdout(sink), redirect_stderr(sink):
            return None, build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code, None
