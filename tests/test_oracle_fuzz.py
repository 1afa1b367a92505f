"""Property tests: the packed oracles and suite checks equal the
point-by-point and per-polynomial loops they replaced, field for field, on
passing and failing inputs: harmonic and non-harmonic polynomials, large and
negative numerators, batches of several chunks, differences that vanish and
differences that do not, and group laws with terms dropped.

Examples are capped at 60 per property and the example database is off, so
a run writes no files.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nilharmonic.groups import (
    GroupElement,
    GroupSchema,
    ball,
    heisenberg,
    lattice,
    standard_generators,
    unitriangular,
)
from nilharmonic.laplacian import Measure, generator_walk, harmonic_basis, lazy_generator_walk
from nilharmonic.polynomials import Polynomial, _from_ints, pk_basis
from nilharmonic.suite import _associativity_witness
from nilharmonic.verify import (
    CHUNK_BITS,
    HarmonicCheck,
    _digit_bits,
    _digits,
    _first_digits,
    _iterated_difference_checks,
    _mean_value_checks,
    _packed,
    _packed_tables,
    _peel,
    _prefix_levels,
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


def unpacked(polys, points, spread=1):
    """(den, values) per polynomial, decoded from the packed tables."""
    for start, stop, width, values in _packed_tables(polys, points, spread):
        rows = [_digits(v, width, stop - start) for v in values]
        for j, p in enumerate(polys[start:stop]):
            yield p.den, [row[j] for row in rows]


@SETTINGS
@given(st.data())
def test_value_tables_equal_the_point_loop(data):
    schema = data.draw(st.sampled_from(SCHEMAS))
    polys = data.draw(st.lists(polynomials(schema, 4), max_size=4))
    coords = st.tuples(*[st.integers(-6, 6)] * schema.n_coords)
    points = data.draw(st.lists(coords, max_size=12))
    spread = data.draw(st.integers(1, 40))
    assert list(unpacked(polys, points, spread)) == list(dense.value_tables(polys, points))


@st.composite
def point_lists(draw, schema):
    """A Cayley ball in drawn order, whose points share many prefixes, or a
    drawn list of points, repeats allowed, which share few."""
    if draw(st.booleans()):
        radius = draw(st.integers(0, 2))
        points = [g.coords for g in ball(schema, standard_generators(schema), radius)]
        return draw(st.permutations(points))
    coords = st.tuples(*[st.integers(-9, 9)] * schema.n_coords)
    return draw(st.lists(coords, max_size=30))


@SETTINGS
@given(st.data())
def test_peeled_values_equal_the_horner_tree_and_the_point_loop(data):
    # a chunk of polynomials with gapped exponents and numerators up to 2^300,
    # packed at a drawn width, narrow or wide; the packed value at y is
    # sum_j n_j(y) 2^(width j) whatever the width
    schema = data.draw(st.sampled_from([lattice(1), *SCHEMAS]))
    basis = pk_basis(schema, 6)
    numerators = st.one_of(st.integers(-9, 9), st.integers(-(2**300), 2**300))
    terms = st.dictionaries(st.sampled_from(basis), numerators, max_size=8)
    polys = [_from_ints(schema, data.draw(terms), 1) for _ in range(data.draw(st.integers(0, 5)))]
    width = data.draw(st.integers(1, 400))
    points = data.draw(point_lists(schema))
    coeffs = _packed(polys, width)
    expected = [0] * len(points)
    for j, (_, values) in enumerate(dense.value_tables(polys, points)):
        expected = [v + (x << (width * j)) for v, x in zip(expected, values)]
    axes = [[y[t] for y in points] for t in range(schema.n_coords)]
    assert dense.horner(coeffs, axes, len(points)) == expected
    assert _peel(coeffs, _prefix_levels(points, schema.n_coords)) == expected


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


@st.composite
def mean_value_batches(draw, schema, mu):
    """Harmonic basis elements with their numerators scaled by drawn factors,
    large and negative among them, some with one numerator off by 1, and
    drawn polynomials; long enough for several chunks more often than not."""
    basis = list(harmonic_basis(schema, mu, draw(st.integers(1, 4))).basis)
    factors = st.one_of(st.integers(-9, 9), st.integers(-(2**200), 2**200)).filter(bool)
    batch = []
    for _ in range(draw(st.integers(1, 40))):
        p = draw(st.sampled_from(basis))
        factor = draw(factors) * draw(st.sampled_from([1, 1, 2**1100]))
        ints = {e: factor * c for e, c in p.ints.items()}
        if draw(st.booleans()):
            e = draw(st.sampled_from(sorted(ints)))
            ints[e] += draw(st.sampled_from([1, -1]))
        batch.append(_from_ints(schema, ints, p.den * draw(st.integers(1, 5))))
    batch += draw(st.lists(polynomials(schema, 3), max_size=2))
    return draw(st.permutations(batch))


@SETTINGS
@given(st.data())
def test_packed_harmonic_batch_equals_the_per_polynomial_loop(data):
    schema = data.draw(st.sampled_from(SCHEMAS))
    mu = data.draw(measures(schema))
    polys = data.draw(mean_value_batches(schema, mu))
    radius = data.draw(st.integers(0, 2))
    got = check_harmonic_batch(schema, mu, polys, radius)
    assert got == dense.column_harmonic_batch(schema, mu, polys, radius)


def test_packed_harmonic_batch_spans_chunks_and_fails_by_one():
    # 60 passing elements scaled past one chunk each, and one off by 1 among them
    h3 = heisenberg(1)
    mu = lazy_generator_walk(h3, Fraction(1, 3))
    basis = list(harmonic_basis(h3, mu, 4).basis)
    polys = [_from_ints(h3, {e: -(3**i) * 2**300 * c for e, c in basis[i % len(basis)].ints.items()},
                        basis[i % len(basis)].den) for i in range(60)]
    # x^2 is not harmonic, so its numerator off by 1 fails the check
    ints = dict(polys[37].ints)
    ints[(2, 0, 0)] = ints.get((2, 0, 0), 0) + 1
    polys[37] = _from_ints(h3, ints, polys[37].den)
    assert sum(1 for _ in _packed_tables(polys, [(9, 9, 9)], 2)) > 1
    got = check_harmonic_batch(h3, mu, polys, 2)
    assert got == dense.column_harmonic_batch(h3, mu, polys, 2)
    assert [c.passed for c in got] == [i != 37 for i in range(60)]


@SETTINGS
@given(st.data())
def test_balanced_digits_decode_at_the_edges(data):
    width = data.draw(st.integers(2, 80))
    half = 1 << (width - 1)
    digit = st.one_of(st.sampled_from([-half, half - 1, -1, 0, 1]), st.integers(-half, half - 1))
    digits = data.draw(st.lists(digit, min_size=1, max_size=CHUNK_BITS // width + 2))
    packed = sum(d << (width * j) for j, d in enumerate(digits))
    assert _digits(packed, width, len(digits)) == digits
    # a zero sum is skipped, and the first sum with digit j non-zero names it
    got = _first_digits([("zero", 0), ("a", packed)], width, len(digits))
    assert got == {j: ("a", d) for j, d in enumerate(digits) if d}


def test_order_zero_differences_at_the_edge_of_the_digit_bound():
    # with order 0 a difference is the value itself, a sum of spread 1, so a
    # monomial at the point where every |coordinate| is largest reaches the
    # bound M of its digit, 2^(B - 2) <= M < 2^(B - 1), in both signs
    for schema in SCHEMAS:
        n = schema.n_coords
        corner = GroupElement((-3,) * n)
        test_points = [GroupElement((1,) * n), corner]
        polys = [
            Polynomial(schema, {tuple(int(t == i) * (j + 1) for t in range(n)): c})
            for i in range(n) for j, c in enumerate([-(2**70) - 1, 2**64, -1, 5, -(3**40)])
        ]
        elems = [GroupElement((0,) * n)]
        got = _iterated_difference_checks(schema, polys, 0, elems, test_points, 1, "left")
        for f, check in zip(polys, got):
            assert check == dense.iterated_difference_check(
                schema, f, 0, elems, test_points, 1, "left"
            )
            assert not check.passed and check.witness_point == test_points[0]
        values = list(unpacked(polys, [p.coords for p in test_points]))
        assert [v[1] for _, v in values] == [f.evaluate(corner) for f in polys]


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
    law = tuple(t for t, keep in zip(base.law, kept) if keep)
    schema = GroupSchema(base.family, base.size, base.weights, base.coord_names, law)
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
        law = u4.law[:drop] + u4.law[drop + 1:]
        broken = GroupSchema(u4.family, u4.size, u4.weights, u4.coord_names, law)
        want = dense.associativity_witness(broken, coords)
        assert want is not None
        assert _associativity_witness(broken.law_mul, coords) == want


@st.composite
def dense_polynomials(draw, schema, d):
    """Every monomial of P^d, each numerator past 2^100 in absolute value,
    over one drawn denominator: the shape of the suite's preimages."""
    big = st.one_of(st.integers(2**100, 2**130), st.integers(-(2**130), -(2**100)))
    den = draw(st.integers(1, 10**6))
    return Polynomial(schema, {e: Fraction(draw(big), den) for e in pk_basis(schema, d)})


@SETTINGS
@given(st.data())
def test_mean_value_oracle_with_a_right_side_equals_the_pointwise_loop(data):
    # f drawn, or a batch of scaled harmonic elements long enough for several
    # chunks; h its Laplacian, or that off by a drawn polynomial; the centres
    # a ball or drawn points, repeats allowed.  Or preimage-shaped pairs: f
    # dense on P^d, h of degree d - 2, at S_(d-2), the exponent vectors of
    # P^(d-2) read as points, where the check passes exactly when h is f's
    # Laplacian
    schema = data.draw(st.sampled_from(SCHEMAS))
    mu = data.draw(measures(schema))
    preimage_shaped = data.draw(st.booleans())
    if preimage_shaped:
        d = data.draw(st.integers(2, 6))
        polys = data.draw(st.lists(dense_polynomials(schema, d), min_size=1, max_size=3))
        off = polynomials(schema, d - 2)
    else:
        polys = data.draw(st.one_of(st.lists(polynomials(schema, 3), max_size=4),
                                    mean_value_batches(schema, mu)))
        off = polynomials(schema, 2)
    laplacians = [dense.apply_laplacian(mu, f) for f in polys]
    rhs = [h + data.draw(st.sampled_from([Polynomial(schema), data.draw(off)])) for h in laplacians]
    if preimage_shaped:
        centres = pk_basis(schema, d - 2)
    elif data.draw(st.booleans()):
        centres = [g.coords for g in ball(schema, mu.support(), data.draw(st.integers(0, 2)))]
    else:
        coords = st.tuples(*[st.integers(-6, 6)] * schema.n_coords)
        centres = data.draw(st.lists(coords, min_size=1, max_size=12))
    got = _mean_value_checks(mu, polys, centres, rhs)
    assert got == dense.mean_value_checks(mu, polys, rhs, centres)
    if preimage_shaped:
        assert [c.passed for c in got] == [h == q for h, q in zip(rhs, laplacians)]


@SETTINGS
@given(st.data())
def test_mean_value_oracle_reads_its_centres_as_a_set(data):
    # a list of centres, its reverse and the list with drawn repeats give
    # equal checks, witnesses and checked_points: repeats count once, and
    # the witness is the first failing centre in coordinate order
    schema = data.draw(st.sampled_from(SCHEMAS))
    mu = data.draw(measures(schema))
    polys = data.draw(st.one_of(st.lists(polynomials(schema, 3), min_size=1, max_size=4),
                                mean_value_batches(schema, mu)))
    rhs = data.draw(st.sampled_from([(), [dense.apply_laplacian(mu, f) for f in polys]]))
    coords = st.tuples(*[st.integers(-6, 6)] * schema.n_coords)
    centres = data.draw(st.lists(coords, min_size=1, max_size=12))
    repeated = centres + data.draw(st.lists(st.sampled_from(centres), min_size=1, max_size=12))
    got = _mean_value_checks(mu, polys, centres, rhs)
    assert _mean_value_checks(mu, polys, centres[::-1], rhs) == got
    assert _mean_value_checks(mu, polys, data.draw(st.permutations(repeated)), rhs) == got
    assert all(c.checked_points <= len(set(centres)) for c in got)


@SETTINGS
@given(st.data())
def test_oracle_packs_pairs_by_their_factors_as_it_packed_their_copies(data):
    # the oracle bounds and packs F = h.den f and H = f.den h from f and h
    # with their integer factors; its checks, witnesses and exact sides equal
    # those of the copies over 1 it once packed, on pairs that pass (h the
    # Laplacian, or 0 for a harmonic f as the suite's basis pairs share it)
    # and pairs that fail (h off by a drawn polynomial, or drawn outright),
    # with numerators past 2^100 and denominators that differ
    schema = data.draw(st.sampled_from(SCHEMAS))
    mu = data.draw(measures(schema))
    polys = data.draw(st.one_of(st.lists(polynomials(schema, 3), max_size=5),
                                mean_value_batches(schema, mu),
                                st.lists(dense_polynomials(schema, 3), min_size=1, max_size=2)))
    kind = data.draw(st.sampled_from(["none", "zero", "laplacian", "off", "drawn"]))
    zero = Polynomial(schema)
    if kind == "zero":
        rhs = [zero] * len(polys)
    elif kind in ("laplacian", "off"):
        off = polynomials(schema, 2) if kind == "off" else st.just(zero)
        rhs = [dense.apply_laplacian(mu, f) + data.draw(off) for f in polys]
    elif kind == "drawn":
        rhs = data.draw(st.lists(polynomials(schema, 2), min_size=len(polys),
                                 max_size=len(polys)))
    else:
        rhs = []
    if data.draw(st.booleans()):
        centres = pk_basis(schema, data.draw(st.integers(0, 3)))
    else:
        coords = st.tuples(*[st.integers(-6, 6)] * schema.n_coords)
        centres = data.draw(st.lists(coords, min_size=1, max_size=12))
    got = _mean_value_checks(mu, polys, centres, rhs)
    assert got == dense.copied_mean_value_checks(mu, polys, centres, rhs)

    # the helpers with factors, against the same calls on the scaled copies;
    # with none given, each factor is 1
    factors = data.draw(st.lists(st.one_of(st.integers(1, 12), st.integers(1, 2**80)),
                                 min_size=len(polys), max_size=len(polys)))
    scaled = [dense.over_one(p, k) for p, k in zip(polys, factors)]
    levels = _prefix_levels(centres, schema.n_coords)
    spread = data.draw(st.integers(1, 40))
    width = data.draw(st.integers(1, 300))
    assert _digit_bits(polys, levels, spread, factors) == _digit_bits(scaled, levels, spread)
    assert _packed(polys, width, factors) == _packed(scaled, width)
    ones = [1] * len(polys)
    assert _digit_bits(polys, levels, spread) == _digit_bits(polys, levels, spread, ones)
    assert _packed(polys, width) == _packed(polys, width, ones)


def test_symmetric_form_of_a_square():
    # on the generator walk of heisenberg(1), x^2 averages to x^2 + 1/2, so
    # its Laplacian is -1/2; -1/4 fails at the first centre, the identity
    h3 = heisenberg(1)
    mu = generator_walk(h3)
    x2 = Polynomial(h3, {(2, 0, 0): 1})
    centres = pk_basis(h3, 2)
    half, quarter = (Polynomial(h3, {(0, 0, 0): Fraction(-1, n)}) for n in (2, 4))
    assert _mean_value_checks(mu, [x2], centres, [half]) == [HarmonicCheck(True, 7)]
    assert _mean_value_checks(mu, [x2], centres, [quarter]) == [
        HarmonicCheck(False, 1, GroupElement((0, 0, 0)), Fraction(0), Fraction(1, 4))
    ]
