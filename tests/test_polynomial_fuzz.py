"""Property tests: polynomial text and JSON objects round-trip exactly.

Examples are capped at 100 so the test costs about a second, and the example
database is off so a run writes no files.
"""

import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nilharmonic.groups import heisenberg, lattice, unitriangular
from nilharmonic.polynomials import Monomial, Polynomial, monomial_sort_key
from nilharmonic.serialize import parse_polynomial, polynomial_from_obj, polynomial_to_obj

SCHEMAS = [lattice(1), lattice(3), heisenberg(1), heisenberg(2), unitriangular(3), unitriangular(4)]

coefficients = st.builds(
    Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4)
) | st.integers(-3, 3)


@st.composite
def polynomials(draw):
    schema = draw(st.sampled_from(SCHEMAS))
    exponents = st.tuples(*[st.integers(0, 4)] * schema.n_coords).map(Monomial)
    terms = draw(st.dictionaries(exponents, coefficients, max_size=8))
    return Polynomial(schema, terms)


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(polynomials())
def test_polynomial_round_trips(p):
    assert parse_polynomial(p.schema, str(p)) == p
    obj = json.loads(json.dumps(polynomial_to_obj(p)))
    assert polynomial_from_obj(p.schema, obj) == p


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(polynomials())
def test_polynomial_obj_orders_match_str_and_the_graded_basis(p):
    obj = polynomial_to_obj(p)
    assert obj["text"] == str(p)
    graded = sorted(p.terms, key=lambda m: monomial_sort_key(p.schema, m))
    assert [t["exponents"] for t in obj["terms"]] == [list(m.exponents) for m in graded]
