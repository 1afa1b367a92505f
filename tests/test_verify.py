"""Brute-force oracles: direct mean-value, derivative and growth checks."""

import itertools
import random
import time
from fractions import Fraction

import pytest

import nilharmonic.groups as groups
import nilharmonic.verify as verify
from nilharmonic.errors import ValidationError
from nilharmonic.groups import (
    GroupElement,
    GroupSchema,
    ball,
    heisenberg,
    lattice,
    mul,
    standard_generators,
    unitriangular,
)
from nilharmonic.laplacian import generator_walk, lazy_generator_walk
from nilharmonic.polynomials import Polynomial, pk_basis
from nilharmonic.verify import (
    _digits,
    _packed_tables,
    check_derivative_vanishing,
    check_left_right_batch,
    check_harmonic_batch,
    check_harmonic_on_ball,
    check_left_right_agreement,
)

# dense_reference.py holds the per-tuple subset products the shared prefixes replaced
import dense_reference as dense

H3 = heisenberg(1)
Z1 = lattice(1)
Z2 = lattice(2)
MU_H3 = generator_walk(H3)
MU_Z1 = generator_walk(Z1)

X, Y, Z = (Polynomial.coordinate(H3, i) for i in (1, 2, 3))


def test_central_coordinate_harmonic_on_ball():
    res = check_harmonic_on_ball(H3, MU_H3, Z, 5)
    assert res.passed
    assert res.checked_points == 299


def test_square_fails_with_witness():
    x = Polynomial.coordinate(Z1, 1)
    res = check_harmonic_on_ball(Z1, MU_Z1, x * x, 3)
    assert not res.passed
    # the mean exceeds the value by exactly 1 everywhere
    assert res.lhs - res.rhs == -1
    # at the origin the two sides are 0 and 1
    origin = GroupElement((0,))
    lhs = (x * x).evaluate(origin)
    rhs = sum(
        (w * (x * x).evaluate(mul(Z1, origin, s)) for s, w in MU_Z1.atoms.items()),
        Fraction(0),
    )
    assert (lhs, rhs) == (0, 1)


def test_constant_passes():
    res = check_harmonic_on_ball(H3, MU_H3, Polynomial(H3, {(0, 0, 0): Fraction(7, 2)}), 4)
    assert res.passed


def test_batch_matches_single():
    polys = [Z, X * Y, X * X]
    batch = check_harmonic_batch(H3, MU_H3, polys, 3)
    singles = [check_harmonic_on_ball(H3, MU_H3, p, 3) for p in polys]
    assert batch == singles
    assert [r.passed for r in batch] == [True, True, False]


def test_derivative_vanishing_degree_two():
    gens = standard_generators(H3)
    res = check_derivative_vanishing(H3, X * Y, 2, gens, 2, budget=400)
    assert res.passed and res.order == 3


def test_derivative_vanishing_fails_below_degree():
    gens = standard_generators(H3)
    res = check_derivative_vanishing(H3, Z, 1, gens, 2, budget=400)
    assert not res.passed
    assert res.witness_tuple is not None and res.value != 0


def test_derivative_vanishing_zero_function():
    gens = standard_generators(H3)
    assert check_derivative_vanishing(H3, Polynomial(H3), 0, gens, 2).passed


def test_degree_agreement_per_class():
    # every monomial passes at its weighted degree; each degree class up to 3
    # has a monomial that fails one order below
    gens = standard_generators(H3)
    failed_at = set()
    for m in pk_basis(H3, 3):
        p = Polynomial(H3, {m: 1})
        w = sum(a * e for a, e in zip(H3.weights, m))
        assert check_derivative_vanishing(H3, p, w, gens, 2, budget=300).passed
        if w >= 1 and not check_derivative_vanishing(H3, p, w - 1, gens, 2, budget=300).passed:
            failed_at.add(w)
    assert failed_at == {1, 2, 3}


def test_derivative_checks_are_deterministic():
    gens = standard_generators(H3)
    a = check_derivative_vanishing(H3, Z, 1, gens, 2, budget=500)
    b = check_derivative_vanishing(H3, Z, 1, gens, 2, budget=500)
    assert a == b


def test_left_right_agreement_abelian():
    x1, x2 = (Polynomial.coordinate(Z2, i) for i in (1, 2))
    res = check_left_right_agreement(Z2, x1 * x1 - x2 * x2, 2, 2, budget=300)
    assert res.passed and res.left.passed and res.right.passed


def test_left_right_agreement_heisenberg():
    ok = check_left_right_agreement(H3, Z, 2, 2, budget=300)
    assert ok.passed and ok.left.passed and ok.right.passed
    low = check_left_right_agreement(H3, Z, 1, 2, budget=300)
    assert low.passed
    assert not low.left.passed and not low.right.passed


def test_difference_oracles_past_depth_two_test_at_the_radius_two_points():
    # the tuples run over the radius-3 ball, whose first point is (-3, 0, 0);
    # the test points are the first three of the radius-2 ball, and the
    # witness (-1, -1, 0) is the second of them, not among the radius-3 first three
    gens = standard_generators(H3)
    assert [g.coords for g in ball(H3, gens, 2)[:3]] == [(-2, 0, 0), (-1, -1, 0), (-1, -1, 1)]
    f = Fraction(3, 2) * X * Z - Fraction(1, 3) * X * X * Y + Y
    corner = (GroupElement((-3, 0, 0)),) * 2
    point = GroupElement((-1, -1, 0))
    left = verify.DerivativeCheck(False, 2, 1, corner, point, Fraction(-21))
    right = verify.DerivativeCheck(False, 2, 1, corner, point, Fraction(6))
    assert check_derivative_vanishing(H3, f, 1, gens, 3, budget=500) == left
    assert check_left_right_agreement(H3, f, 1, 3, budget=500) == verify.AgreementCheck(
        True, left, right
    )
    passing = verify.DerivativeCheck(True, 4, 100)
    assert check_derivative_vanishing(H3, f, 3, gens, 3, budget=100) == passing
    assert check_left_right_agreement(H3, f, 3, 3, budget=100) == verify.AgreementCheck(
        True, passing, passing
    )


@pytest.mark.parametrize(
    "k,depth,budget,message",
    [
        (1, 1, 0, "budget must be at least 1, got 0"),
        (1, 1, -1, "budget must be at least 1, got -1"),
        (1, 1, True, "budget must be an int, got True"),
        (1, 1, 2.5, "budget must be an int, got 2.5"),
        (True, 1, 10, "k must be an int, got True"),
        (1.5, 1, 10, "k must be an int, got 1.5"),
        (-3, 1, 10, "k must be at least -1, got -3"),
        (1, True, 10, "depth must be an int, got True"),
        (1, 1.0, 10, "depth must be an int, got 1.0"),
        (1, -1, 10, "depth must be at least 0, got -1"),
    ],
)
def test_difference_oracles_refuse_bad_arguments_before_any_walk(
    k, depth, budget, message, monkeypatch
):
    monkeypatch.setattr(verify, "ball_levels", None)
    gens = standard_generators(H3)
    with pytest.raises(ValidationError, match=message):
        check_left_right_agreement(H3, X, k, depth, budget=budget)
    with pytest.raises(ValidationError, match=message):
        check_derivative_vanishing(H3, X, k, gens, depth, budget=budget)


def test_difference_oracles_take_the_smallest_arguments():
    # order 0 (k = -1) checks f itself at the identity; a non-zero f fails it
    gens = standard_generators(H3)
    assert check_derivative_vanishing(H3, Polynomial(H3), -1, gens, 0, budget=1).passed
    res = check_left_right_agreement(H3, X + Polynomial(H3, {(0, 0, 0): 1}), -1, 0, budget=1)
    assert not res.left.passed and res.left.order == 0 and res.left.tuples_checked == 1


@pytest.mark.parametrize("schema", [H3, Z2, unitriangular(3)], ids=str)
@pytest.mark.parametrize("side", ["left", "right"])
def test_difference_table_holds_the_per_tuple_subset_points(schema, side):
    # budgets 7 and 33 stop the odometer inside a prefix at every order >= 2
    gens = standard_generators(schema)
    elems, tests = ball(schema, gens, 1), ball(schema, gens, 2)[:3]
    for order, budget in itertools.product(range(5), [1, 7, 33, 700]):
        args = (schema, order, elems, tests, budget, side)
        tuples, columns, points = verify._difference_points(*args)
        want_tuples, ids, want_points = dense.difference_points(*args)
        assert tuples == want_tuples and len(columns) == 2**order
        assert all(len(column) == len(tuples) * len(tests) for column in columns)
        got = [[[points[column[j * len(tests) + x]] for column in columns]
                for x in range(len(tests))] for j in range(len(tuples))]
        assert got == [[[want_points[i] for i in row] for row in rows] for rows in ids]


def test_difference_table_shares_prefix_products():
    # the 125 order-3 tuples of the radius-1 ball take 5 + 25 * 2 + 125 * 4
    # subset products and move the 3 test points by each of 53 distinct ones:
    # 714 group products, against 31 per tuple (3,875) when each builds its own
    counted = GroupSchema(H3.family, H3.size, H3.weights, H3.coord_names, H3.law)
    calls = []

    def law_mul(a, b):
        calls.append(a)
        return H3.law_mul(a, b)

    counted.__dict__["law_mul"] = law_mul
    gens = standard_generators(H3)
    elems, tests = ball(H3, gens, 1), ball(H3, gens, 2)[:3]
    for side in ("left", "right"):
        calls.clear()
        table = verify._difference_points(counted, 3, elems, tests, 300, side)
        assert len(calls) <= 800
        assert table == verify._difference_points(H3, 3, elems, tests, 300, side)


def test_difference_oracles_refuse_a_table_past_the_point_limit(monkeypatch):
    # budget * 2^(k+1) subset points may reach MAX_BALL_POINTS, not pass it;
    # |ball|^(k+1) caps the tuples below the budget
    gens = standard_generators(H3)
    assert check_left_right_agreement(H3, Z, 3, 2, budget=1250).passed
    assert check_derivative_vanishing(H3, Z, 13, gens, 0, budget=10**9).passed
    message = "takes more than 20000 subset points"
    with pytest.raises(ValidationError, match=message):
        check_left_right_agreement(H3, Z, 3, 2, budget=1251)
    with pytest.raises(ValidationError, match=message):
        check_derivative_vanishing(H3, Z, 14, gens, 0, budget=1)
    # refused after the ball search, before any subset product, however large k
    monkeypatch.setattr(verify, "_difference_points", None)
    start = time.perf_counter()
    for k in (30, 10**9):
        with pytest.raises(ValidationError, match=message):
            check_derivative_vanishing(H3, X, k, gens, 2, budget=1)
        with pytest.raises(ValidationError, match=message):
            check_left_right_agreement(H3, X, k, 2, budget=1)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("radius", [True, 2.5, 1.0])
def test_ball_radius_must_be_an_int(radius):
    with pytest.raises(ValidationError, match=f"radius must be an int, got {radius!r}"):
        groups.ball_levels(H3, standard_generators(H3), radius)
    with pytest.raises(ValidationError, match=f"radius must be an int, got {radius!r}"):
        check_harmonic_batch(H3, MU_H3, [Z], radius)


# -- cross-checks of the packed value tables against Polynomial.evaluate -------


def _random_polynomial(rng, schema, k, n_terms):
    basis = pk_basis(schema, k)
    terms = {
        rng.choice(basis): Fraction(rng.randint(-20, 20), rng.randint(1, 12))
        for _ in range(n_terms)
    }
    return Polynomial(schema, terms)


def test_oracle_ball_above_a_lowered_cap_is_refused_before_evaluation(monkeypatch):
    def no_work(*args):
        raise AssertionError("the oracle evaluated a polynomial")

    for name in ("_packed_tables", "_peel"):
        monkeypatch.setattr(verify, name, no_work)
    monkeypatch.setattr(groups, "MAX_BALL_POINTS", 100)
    with pytest.raises(ValidationError, match="radius-4 ball on heisenberg.1. has more than 100"):
        check_harmonic_batch(H3, MU_H3, [Z], 4)
    with pytest.raises(ValidationError, match="more than 100 points"):
        check_harmonic_on_ball(H3, MU_H3, Z, 4)


@pytest.mark.parametrize("schema", [heisenberg(1), lattice(2), unitriangular(4)], ids=str)
def test_value_tables_match_evaluate(schema):
    rng = random.Random(7)
    polys = [_random_polynomial(rng, schema, 3, n) for n in (1, 3, 6, 10)]
    constant = Polynomial(schema, {(0,) * schema.n_coords: Fraction(-5, 3)})
    polys += [Polynomial(schema), constant]
    points = [g.coords for g in ball(schema, standard_generators(schema), 2)]
    assert any(c < 0 for point in points for c in point)
    # a spread past the numerators' size makes each digit wide; each chunk
    # still holds at most CHUNK_BITS bits of digits
    chunks = list(_packed_tables(polys, points, 10**60))
    assert len(chunks) > 1
    assert [stop for _, stop, _, _ in chunks][-1] == len(polys)
    for start, stop, width, values in chunks:
        assert len(values) == len(points)
        assert stop - start == 1 or width * (stop - start) <= verify.CHUNK_BITS
        for point, v in zip(points, values):
            for p, n in zip(polys[start:stop], _digits(v, width, stop - start)):
                assert Fraction(n, p.den) == p.evaluate(GroupElement(point))


@pytest.mark.parametrize(
    "schema, coeffs, points, expected",
    [
        # one coordinate, so every point's head is the empty prefix; repeats kept
        (Z1, {(3,): 2}, [(-3,), (0,), (2,), (2,)], [-54, 0, 16, 16]),
        (H3, {(1, 0, 0): 1, (0, 0, 0): 4}, [], []),
        (H3, {(1, 1, 0): 3, (0, 0, 2): -1, (0, 0, 0): 7}, [(-2, 5, -3)], [-32]),
        # an all-zero chunk
        (H3, {}, [(1, 2, 3), (-1, 0, 0)], [0, 0]),
        # gapped exponents at negative coordinates: x^3 and z^2, nothing between
        (H3, {(3, 0, 0): 1, (0, 0, 2): 1}, [(-2, 0, 1), (1, -4, -3), (-2, 7, -1)], [-7, 10, -7]),
    ],
)
def test_peeled_values_at_the_edges(schema, coeffs, points, expected):
    assert verify._peel(coeffs, verify._prefix_levels(points, schema.n_coords)) == expected
    axes = [[y[t] for y in points] for t in range(schema.n_coords)]
    assert dense.horner(coeffs, axes, len(points)) == expected


def test_an_all_zero_batch_packs_to_zero_values():
    points = [(1, 2, 3), (-1, 0, 0)]
    assert list(_packed_tables([Polynomial(H3)] * 3, points, 8)) == [(0, 3, 1, [0, 0])]


def _signed_sum(schema, f, tup, x, side):
    """sum over subsets S of (-1)^(order - |S|) f(prod(S) x) or f(x prod(S))."""
    total = Fraction(0)
    for bits in itertools.product((0, 1), repeat=len(tup)):
        point = x
        for u, bit in zip(tup, bits):
            if bit:
                point = mul(schema, u, point) if side == "left" else mul(schema, point, u)
        total += (-1) ** (len(tup) - sum(bits)) * f.evaluate(point)
    return total


def test_failing_difference_values_match_evaluate():
    # degree 3 at order 2, so the left and right values differ at the same witness
    f = Fraction(3, 2) * X * Z - Fraction(1, 3) * X * X * Y + Y
    res = check_left_right_agreement(H3, f, 1, 2, budget=400)
    for side, check in (("left", res.left), ("right", res.right)):
        assert not check.passed and check.order == 2
        assert check.value == _signed_sum(H3, f, check.witness_tuple, check.witness_point, side)
    assert res.left.value != res.right.value


def test_failing_harmonic_sides_match_evaluate():
    mu = lazy_generator_walk(H3, Fraction(1, 3))
    f = Fraction(3, 2) * X * X - Fraction(1, 3) * Y + Fraction(5, 7) * Z
    res = check_harmonic_on_ball(H3, mu, f, 2)
    assert not res.passed
    g = res.witness
    assert res.lhs == f.evaluate(g)
    assert res.rhs == sum(
        (w * f.evaluate(mul(H3, g, s)) for s, w in mu.atoms.items()), Fraction(0)
    )
    assert res.lhs.denominator > 1 or res.rhs.denominator > 1


# -- polynomials of another schema are refused ----------------------------------

X3 = Polynomial.coordinate(lattice(3), 3)
XY2 = Polynomial.coordinate(Z2, 1) * Polynomial.coordinate(Z2, 2)


@pytest.fixture
def no_ball(monkeypatch):
    """Make any ball search of the oracles fail the test."""
    def no_work(*args):
        raise AssertionError("the oracle searched a ball")

    for name in ("ball_levels", "ball"):
        monkeypatch.setattr(verify, name, no_work)


@pytest.mark.parametrize("f", [X3, XY2], ids=["lattice(3)", "lattice(2)"])
def test_harmonic_batch_refuses_another_schema(no_ball, f):
    # x3 of lattice(3) would pass on heisenberg(1); x1*x2 of lattice(2) would
    # be evaluated on 3-coordinate points, its exponents cut to two
    with pytest.raises(ValidationError, match=r"lattice\(.\) cannot be checked on heisenberg\(1\)"):
        check_harmonic_batch(H3, MU_H3, [Z, f], 2)


@pytest.mark.parametrize("f", [X3, XY2], ids=["lattice(3)", "lattice(2)"])
def test_left_right_checks_refuse_another_schema(no_ball, f):
    with pytest.raises(ValidationError, match="cannot be checked on heisenberg"):
        check_left_right_batch(H3, [X, f], 1, 1)
    with pytest.raises(ValidationError, match="cannot be checked on heisenberg"):
        check_left_right_agreement(H3, f, 1, 1)


@pytest.mark.parametrize("f", [X3, XY2], ids=["lattice(3)", "lattice(2)"])
def test_derivative_check_refuses_another_schema(no_ball, f):
    with pytest.raises(ValidationError, match="cannot be checked on heisenberg"):
        check_derivative_vanishing(H3, f, 1, standard_generators(H3), 1)


def test_oracles_refuse_what_is_not_a_polynomial(no_ball):
    with pytest.raises(ValidationError, match="expected a polynomial, got 'z'"):
        check_harmonic_batch(H3, MU_H3, ["z"], 2)
