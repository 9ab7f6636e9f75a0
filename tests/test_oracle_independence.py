"""The oracles share no multiplication with the library.

The library multiplies polynomials in ``weilparity.intpoly._mul_schoolbook``;
the oracles multiply in their own ring, by Kronecker substitution.  With a
wrong library product in place the oracles' values must not move, and the
comparison of the library's candidates with the per-candidate oracle must
fail.
"""

import oracles
import pytest
import test_enumerator

import weilparity.intpoly as intpoly
from weilparity.enumerator import candidate_shapes, verify_parity_theorem
from weilparity.weil import WeilParams

MOBIUS_INDICES = (12, 30, 105, 210, 1155)


def records(g, p):
    """The factor records of the candidates of cell (g, p, 1), from the library."""
    specs = verify_parity_theorem(WeilParams(p=p, n=1, g=g)).full_degree_specs
    return [record for _, record in candidate_shapes(g, specs)]


@pytest.fixture
def wrong_product(monkeypatch, cold_caches):
    """Make every library product off by one in each coefficient."""
    real = intpoly._mul_schoolbook
    monkeypatch.setattr(intpoly, "_mul_schoolbook", lambda a, b: [c + 1 for c in real(a, b)])


def oracle_values():
    products = [oracles.product_x(r) for g, p in ((2, 7), (3, 11), (4, 3)) for r in records(g, p)]
    return [oracles.cyclotomic_mobius(n) for n in MOBIUS_INDICES], products


def test_a_wrong_library_product_moves_no_oracle(request):
    before = oracle_values()
    assert len(before[1]) > 20
    request.getfixturevalue("wrong_product")
    assert oracle_values() == before


def test_a_wrong_library_product_fails_the_per_candidate_comparison(request):
    # candidates of g >= 2 are products of at least two shapes
    compare = test_enumerator.test_enumeration_matches_per_candidate_oracle.hypothesis.inner_test
    cells = ((2, 7, 1), (3, 11, 3))
    for g, p, n in cells:
        compare(g=g, p=p, n=n)
    request.getfixturevalue("wrong_product")
    for g, p, n in cells:
        with pytest.raises(AssertionError):
            compare(g=g, p=p, n=n)
