"""Property tests: polynomial text and JSON objects round-trip exactly and
equal the reference rendering, the arithmetic's results are as clean as the validated constructor makes them,
every operation on integer numerators equals the ``Fraction``-dict reference
and leaves the canonical form, and left derivatives obey the cocycle and
product rules.

Examples are capped at 100 so the test costs about a second, and the example
database is off so a run writes no files.
"""

import json
from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nilharmonic.groups import GroupElement, heisenberg, lattice, mul, unitriangular
from nilharmonic.laplacian import apply_laplacian, lazy_generator_walk
from nilharmonic.polynomials import (
    Polynomial,
    left_derivative,
    pk_basis,
    restrict_to_sublattice,
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
    exponents = st.tuples(*[st.integers(0, 4)] * schema.n_coords)
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
    graded = sorted(p.terms, key=lambda m: dense.monomial_sort_key(p.schema, m))
    assert [t["exponents"] for t in obj["terms"]] == [list(m) for m in graded]


# signs, 1, small and multi-digit integers, rationals with multi-digit parts
render_coefficients = st.sampled_from([1, -1, 2, -7]) | st.builds(
    Fraction, st.integers(-10**25, 10**25), st.sampled_from([1, 1, 2, 3, 97, 10**12])
)


@st.composite
def rendered_polynomials(draw):
    schema = draw(st.sampled_from(SCHEMAS))
    exponents = st.tuples(*[st.integers(0, 3)] * schema.n_coords)
    return Polynomial(schema, draw(st.dictionaries(exponents, render_coefficients, max_size=10)))


def _poly(schema, *terms):
    return Polynomial(schema, dict(terms))


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
# two degrees of two terms each, inserted low degree first, the lower degree
# led by a negative term: "x^2 - 3/2*x*y - x + 2*y"
@example(_poly(H3, ((1, 0, 0), -1), ((0, 1, 0), 2), ((2, 0, 0), 1), ((1, 1, 0), Fraction(-3, 2))))
@given(rendered_polynomials())
def test_rendering_equals_reference(p):
    assert str(p) == dense.polynomial_str(p)
    assert polynomial_to_obj(p) == dense.polynomial_to_obj(p)
    assert repr(p) == f"Polynomial({p.schema.name()}: {dense.polynomial_str(p)})"


@st.composite
def polynomial_pairs(draw):
    schema = draw(st.sampled_from(SCHEMAS))
    exponents = st.tuples(*[st.integers(0, 3)] * schema.n_coords)
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
    exponents = st.tuples(*[st.integers(0, 2)] * schema.n_coords)
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


# -- integer numerators against the Fraction-dict reference ----------------------

# zero, small and 20-digit numerators; denominators 1, small and 10^9
wide_coefficients = st.sampled_from([0, 1, -1, 2, Fraction(0)]) | st.builds(
    Fraction,
    st.integers(-10**20, 10**20) | st.sampled_from([10**19 + 7, -(10**20) + 1]),
    st.sampled_from([1, 2, 3, 6, 10**9, 10**9 + 7]),
)
# Fraction scalars with numerators of both signs, and ints including 0
scalars = st.integers(-3, 3) | st.builds(
    Fraction, st.integers(-10**20, 10**20), st.sampled_from([1, 4, 10**9])
)
MEASURES = {schema: lazy_generator_walk(schema, Fraction(1, 3)) for schema in SCHEMAS}


def assert_canonical(p):
    # integer numerators on exponent tuples over a positive denominator, with
    # no factor common to all; the zero polynomial is over 1
    assert type(p.den) is int and p.den > 0
    assert all(
        type(e) is tuple and len(e) == p.schema.n_coords and type(c) is int and c
        for e, c in p.ints.items()
    )
    assert gcd(p.den, *p.ints.values()) == 1
    assert p.ints or p.den == 1


@st.composite
def reference_cases(draw):
    schema = draw(st.sampled_from(SCHEMAS))
    exponents = st.tuples(*[st.integers(0, 2)] * schema.n_coords)
    p, q = (Polynomial(schema, draw(st.dictionaries(exponents, wide_coefficients, max_size=5)))
            for _ in range(2))
    u = GroupElement(tuple(draw(st.integers(-3, 3)) for _ in range(schema.n_coords)))
    # unit upper triangular times a non-zero diagonal: a non-singular integer matrix
    d = schema.n_coords
    diagonal = [draw(st.sampled_from([-2, -1, 1, 3])) for _ in range(d)]
    matrix = [[diagonal[i] if i == j else draw(st.integers(-2, 2)) if j > i else 0
               for j in range(d)] for i in range(d)]
    return p, q, draw(scalars), u, matrix


ZERO_H3 = Polynomial.zero(heisenberg(1))
CONSTANT_UT4 = Polynomial.constant(unitriangular(4), Fraction(-(10**20) + 1, 10**9))


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@example((ZERO_H3, ZERO_H3, 0, GroupElement((1, 2, 3)), [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
@example((CONSTANT_UT4, CONSTANT_UT4 * Fraction(-3, 10**9), Fraction(-7, 10**9),
          GroupElement((1, -1, 2, 0, 3, -2)), [[1] * 6] * 6))
@example((_poly(lattice(3), ((2, 0, 1), Fraction(10**20 - 1, 10**9)), ((0, 0, 0), 5)),
          _poly(lattice(3), ((2, 0, 1), Fraction(-(10**20) + 1, 10**9)), ((1, 1, 0), 3)),
          Fraction(-(10**9), 3), GroupElement((-3, 2, 1)), [[2, 1, 0], [0, -1, 2], [0, 0, 3]]))
@given(reference_cases())
def test_integer_polynomial_equals_fraction_reference(case):
    p, q, scalar, u, matrix = case
    schema = p.schema
    for r in (p, q):
        assert_canonical(r)
        assert Polynomial(schema, r.terms) == r
    pairs = [
        (p + q, dense.plus(p, q)),
        (p - q, dense.plus(p, q, -1)),
        (p * q, dense.times(p, q)),
        (p * scalar, dense.times(p, scalar)),
        (scalar * p, dense.times(p, scalar)),
        (-p, dense.negate(p)),
        (translate_left(p, u), dense.translate(p, u, "left")),
        (translate_right(p, u), dense.translate(p, u, "right")),
        (apply_laplacian(MEASURES[schema], p), dense.apply_laplacian(MEASURES[schema], p)),
    ]
    if schema.step == 1:
        pairs.append((restrict_to_sublattice(p, matrix), dense.restrict_to_sublattice(p, matrix)))
    for got, want in pairs:
        assert_canonical(got)
        assert got.terms == want.terms
        assert got == want
    # == is equality of the Fraction terms, in either order of the operands
    assert (p == q) is (q == p) is (p.terms == q.terms)
    assert (p + q == p) is (not q.terms)
    for r in (p, q, p * q):
        assert r.evaluate(u) == dense.evaluate(r, u.coords)
        assert type(r.evaluate(u)) is Fraction
        # the monomials of degree <= 1, then r's others in descending order
        low = pk_basis(schema, 1)
        basis = [*low, *sorted(set(r.terms) - set(low), reverse=True)]
        assert r.coefficient_vector(basis) == dense.coefficient_vector(r, basis)
        assert str(r) == dense.polynomial_str(r)
        assert polynomial_to_obj(r) == dense.polynomial_to_obj(r)
