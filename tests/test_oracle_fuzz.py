"""Property tests: the column-wise oracles and suite checks equal the
point-by-point loops they replaced, field for field, on passing and failing
inputs: harmonic and non-harmonic polynomials, differences that vanish and
differences that do not, and group laws with terms dropped.

Examples are capped at 60 per property and the example database is off, so
a run writes no files.
"""

import dataclasses
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nilharmonic.groups import (
    GroupElement,
    ball,
    heisenberg,
    lattice,
    standard_generators,
    unitriangular,
)
from nilharmonic.laplacian import Measure, generator_walk, harmonic_basis, lazy_generator_walk
from nilharmonic.polynomials import Polynomial, pk_basis
from nilharmonic.suite import _associativity_witness, _symmetric_form
from nilharmonic.verify import (
    _iterated_difference_checks,
    _value_tables,
    check_harmonic_batch,
)

# dense_reference.py holds the point-by-point loops the column-wise ones replaced
import dense_reference as dense  # noqa: E402

SCHEMAS = [lattice(2), heisenberg(1), unitriangular(3), unitriangular(4)]

SETTINGS = settings(
    max_examples=60, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow]
)

coefficients = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))


@st.composite
def polynomials(draw, schema, k):
    basis = pk_basis(schema, k)
    terms = draw(st.dictionaries(st.sampled_from(basis), coefficients, max_size=6))
    return Polynomial(schema, terms)


@st.composite
def measures(draw, schema):
    """A generator walk, a lazy one, or one with the pair {s, s^-1} for a
    product s of two generators, each at a drawn weight."""
    gens = standard_generators(schema)
    kind = draw(st.sampled_from(["walk", "lazy", "pair"]))
    if kind == "walk":
        return generator_walk(schema)
    hold = Fraction(draw(st.integers(1, 5)), 6)
    if kind == "lazy":
        return lazy_generator_walk(schema, hold)
    s = GroupElement(schema.law_mul(gens[0].coords, gens[-2].coords))
    s_inv = GroupElement(schema.law_inv(s.coords))
    w = (1 - hold) / len(gens)
    return Measure(schema, [(g, w) for g in gens] + [(s, hold / 2), (s_inv, hold / 2)])


@SETTINGS
@given(st.data())
def test_value_tables_equal_the_point_loop(data):
    schema = data.draw(st.sampled_from(SCHEMAS))
    polys = data.draw(st.lists(polynomials(schema, 4), max_size=4))
    coords = st.tuples(*[st.integers(-6, 6)] * schema.n_coords)
    points = data.draw(st.lists(coords, max_size=12))
    assert list(_value_tables(polys, points)) == list(dense.value_tables(polys, points))


@SETTINGS
@given(st.data())
def test_harmonic_batch_equals_the_point_loop(data):
    schema = data.draw(st.sampled_from(SCHEMAS[:3]))
    mu = data.draw(measures(schema))
    k = data.draw(st.integers(0, 3))
    # harmonic basis elements pass, and most drawn polynomials fail
    harmonic = list(harmonic_basis(schema, mu, k).basis)[:3]
    polys = harmonic + data.draw(st.lists(polynomials(schema, 3), min_size=1, max_size=3))
    radius = data.draw(st.integers(0, 2))
    got = check_harmonic_batch(schema, mu, polys, radius)
    assert got == dense.check_harmonic_batch(schema, mu, polys, radius)
    assert all(c.passed for c in got[: len(harmonic)])


@SETTINGS
@given(st.data())
def test_iterated_differences_equal_the_signed_sums(data):
    schema = data.draw(st.sampled_from(SCHEMAS))
    # one batch shares its subset points; each check must be the one it makes alone
    polys = data.draw(st.lists(polynomials(schema, 3), min_size=1, max_size=3))
    # an order above the degree kills f; one at or below it need not
    order = data.draw(st.integers(0, 4))
    elems = ball(schema, standard_generators(schema), data.draw(st.integers(1, 2)))
    test_points = data.draw(
        st.lists(st.sampled_from(ball(schema, standard_generators(schema), 2)), max_size=3)
    )
    budget = data.draw(st.integers(0, 200))
    side = data.draw(st.sampled_from(["left", "right"]))
    rest = (order, elems, test_points, budget, side)
    batch = _iterated_difference_checks(schema, polys, *rest)
    assert len(batch) == len(polys)
    for f, got in zip(polys, batch):
        assert got == dense.iterated_difference_check(schema, f, *rest)
        if f.is_zero or order > f.degree:
            assert got.passed


@SETTINGS
@given(st.data())
def test_associativity_witness_equals_the_triple_scan(data):
    base = data.draw(st.sampled_from([heisenberg(2), unitriangular(4), unitriangular(5)]))
    kept = data.draw(st.lists(st.booleans(), min_size=len(base.law), max_size=len(base.law)))
    schema = dataclasses.replace(base, law=tuple(t for t, keep in zip(base.law, kept) if keep))
    coords = [g.coords for g in ball(schema, standard_generators(schema), 2)]
    coords = data.draw(st.permutations(coords))[: data.draw(st.integers(1, 30))]
    assert _associativity_witness(schema.law_mul, coords) == dense.associativity_witness(
        schema, coords
    )


def test_associativity_witness_on_broken_and_whole_laws():
    u4 = unitriangular(4)
    coords = [g.coords for g in ball(u4, standard_generators(u4), 2)]
    assert _associativity_witness(u4.law_mul, coords) is None
    for drop in range(len(u4.law)):
        broken = dataclasses.replace(u4, law=u4.law[:drop] + u4.law[drop + 1:])
        want = dense.associativity_witness(broken, coords)
        assert want is not None
        assert _associativity_witness(broken.law_mul, coords) == want


@SETTINGS
@given(st.data())
def test_symmetric_form_equals_polynomial_arithmetic(data):
    schema = data.draw(st.sampled_from(SCHEMAS))
    mu = data.draw(measures(schema))
    p = data.draw(polynomials(schema, 3))
    assert _symmetric_form(mu, p) == dense.symmetric_form(mu, p)


def test_symmetric_form_of_a_square():
    # on the generator walk of heisenberg(1), x^2 averages to x^2 + 1/2
    h3 = heisenberg(1)
    x2 = Polynomial(h3, {(2, 0, 0): 1})
    assert _symmetric_form(generator_walk(h3), x2) == Polynomial.constant(h3, Fraction(-1, 2))
