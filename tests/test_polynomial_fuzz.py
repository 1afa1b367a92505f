"""Property tests: polynomial text and JSON objects round-trip exactly and
equal the reference rendering, the arithmetic's results are as clean as the validated constructor makes them,
and left derivatives obey the cocycle and product rules.

Examples are capped at 100 so the test costs about a second, and the example
database is off so a run writes no files.
"""

import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nilharmonic.groups import GroupElement, heisenberg, lattice, mul, unitriangular
from nilharmonic.polynomials import (
    Monomial,
    Polynomial,
    left_derivative,
    monomial_sort_key,
    translate_left,
    translate_right,
)
from nilharmonic.serialize import parse_polynomial, polynomial_from_obj, polynomial_to_obj

# dense_reference.py holds the rendering loops the memoized one replaced
import dense_reference as dense  # noqa: E402

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


# signs, 1, small and multi-digit integers, rationals with multi-digit parts
render_coefficients = st.sampled_from([1, -1, 2, -7]) | st.builds(
    Fraction, st.integers(-10**25, 10**25), st.sampled_from([1, 1, 2, 3, 97, 10**12])
)


@st.composite
def rendered_polynomials(draw):
    schema = draw(st.sampled_from(SCHEMAS))
    exponents = st.tuples(*[st.integers(0, 3)] * schema.n_coords).map(Monomial)
    return Polynomial(schema, draw(st.dictionaries(exponents, render_coefficients, max_size=10)))


def _poly(schema, *terms):
    return Polynomial(schema, {Monomial(e): c for e, c in terms})


H3, UT4 = heisenberg(1), unitriangular(4)


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(Polynomial.zero(H3))  # "0"
@example(_poly(UT4, ((0,) * 6, Fraction(-5, 3))))  # a constant only
@example(_poly(H3, ((0, 0, 0), 1), ((1, 0, 0), -1), ((0, 2, 1), 1)))  # +-1, 1 as a constant
@example(_poly(lattice(3), ((2, 0, 1), Fraction(-123456789, 1000)), ((0, 1, 0), 10**20)))
@example(_poly(UT4, ((1, 0, 0, 0, 0, 1), -1), ((0, 3, 0, 0, 0, 0), Fraction(1, 2)),
               ((1, 0, 0, 0, 0, 0), -12)))  # a negative leading term; a_12, a_23^3, a_14
@example(_poly(heisenberg(2), ((0, 0, 0, 0, 2), Fraction(-2, 3)), ((1, 1, 0, 0, 0), 1),
               ((0, 0, 0, 0, 0), -1)))
@given(rendered_polynomials())
def test_rendering_equals_reference(p):
    assert str(p) == dense.polynomial_str(p)
    assert polynomial_to_obj(p) == dense.polynomial_to_obj(p)
    assert repr(p) == f"Polynomial({p.schema.name()}: {dense.polynomial_str(p)})"


@st.composite
def polynomial_pairs(draw):
    schema = draw(st.sampled_from(SCHEMAS))
    exponents = st.tuples(*[st.integers(0, 3)] * schema.n_coords).map(Monomial)
    p, q = (Polynomial(schema, draw(st.dictionaries(exponents, coefficients, max_size=6)))
            for _ in range(2))
    scalar = draw(coefficients)
    u = GroupElement(tuple(draw(st.integers(-3, 3)) for _ in range(schema.n_coords)))
    return p, q, scalar, u


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(polynomial_pairs())
def test_arithmetic_results_are_clean(pq):
    # every result of the trusted constructor is what the validated one makes
    # of its terms, and holds only non-zero Fraction values
    p, q, scalar, u = pq
    results = [p + q, p - q, p * q, -p, p * scalar, scalar * p,
               translate_left(p, u), translate_right(p, u)]
    for r in results:
        assert r == Polynomial(r.schema, r.terms)
        assert all(type(c) is Fraction and c for c in r.terms.values())
    # and the values are right, by direct evaluation at u
    pu, qu = p.evaluate(u), q.evaluate(u)
    assert [r.evaluate(u) for r in results[:6]] == [
        pu + qu, pu - qu, pu * qu, -pu, pu * scalar, scalar * pu
    ]
    assert p - q == p + (-q)
    assert (p - p).is_zero and not (p + q - q - p).terms


@st.composite
def derivative_cases(draw):
    # two low-degree polynomials and two elements of one group of each family
    schema = draw(st.sampled_from(SCHEMAS))
    exponents = st.tuples(*[st.integers(0, 2)] * schema.n_coords).map(Monomial)
    f, h = (Polynomial(schema, draw(st.dictionaries(exponents, coefficients, max_size=4)))
            for _ in range(2))
    x, y = (GroupElement(tuple(draw(st.integers(-4, 4)) for _ in range(schema.n_coords)))
            for _ in range(2))
    return f, h, x, y


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(derivative_cases())
def test_cocycle_and_product_rules(case):
    # D_xy f = (D_x f) o L_y + D_y f, and D_x(fh) = (L_x f) D_x h + (D_x f) h
    f, h, x, y = case
    xy = mul(f.schema, x, y)
    assert left_derivative(f, xy) == translate_left(left_derivative(f, x), y) + left_derivative(f, y)
    assert left_derivative(f * h, x) == (
        translate_left(f, x) * left_derivative(h, x) + left_derivative(f, x) * h
    )
