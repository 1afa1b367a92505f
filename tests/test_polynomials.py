"""Polynomial calculus: bases, translation, derivatives, restriction."""

import copy
import itertools
import random
import re
import tracemalloc
from fractions import Fraction
from math import comb, prod

import pytest

import nilharmonic.polynomials as polynomials
from nilharmonic.errors import ValidationError
from nilharmonic.groups import (
    GroupElement,
    ball,
    basis_element,
    heisenberg,
    identity,
    inv,
    lattice,
    mul,
    mul_coords,
    standard_generators,
    unitriangular,
)
from nilharmonic.polynomials import (
    Polynomial,
    dim_pk,
    left_derivative,
    pk_basis,
    restrict_to_sublattice,
    translate_left,
    translate_right,
)
from nilharmonic.laplacian import Measure, apply_laplacian, generator_walk, lazy_generator_walk
from nilharmonic.serialize import polynomial_to_obj

# dense_reference.py holds the Fraction composition the integer one replaced
import dense_reference as dense

H3 = heisenberg(1)
Z1 = lattice(1)
Z2 = lattice(2)
UT4 = unitriangular(4)


def mono(schema, *exps):
    return Polynomial(schema, {tuple(exps): 1})


X, Y, Z = (Polynomial.coordinate(H3, i) for i in (1, 2, 3))


# -- basis enumeration ---------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("k", range(7))
def test_lattice_basis_count_is_binomial(d, k):
    assert dim_pk(lattice(d), k) == comb(d + k, d)


def test_heisenberg_degree2_basis():
    basis = pk_basis(H3, 2)
    assert list(basis) == [
        (0, 0, 0),
        (1, 0, 0),
        (0, 1, 0),
        (2, 0, 0),
        (1, 1, 0),
        (0, 2, 0),
        (0, 0, 1),
    ]
    assert dim_pk(H3, 2) == 7


@pytest.mark.parametrize("k", range(9))
def test_heisenberg_dims_match_two_step_closed_form(k):
    d1, d2 = 2, 1
    expected = sum(
        comb(d2 - 1 + y, d2 - 1) * comb(d1 + k - 2 * y, d1) for y in range(k // 2 + 1)
    )
    assert dim_pk(H3, k) == expected


def test_dim_examples():
    assert dim_pk(lattice(3), 2) == 10
    assert dim_pk(H3, 3) == 13
    assert dim_pk(UT4, 2) == 12


@pytest.mark.parametrize(
    "schema",
    [lattice(1), Z2, lattice(4), H3, heisenberg(2), heisenberg(3),
     unitriangular(2), unitriangular(3), UT4, unitriangular(5)],
    ids=str,
)
def test_counted_dim_equals_enumerated_basis(schema):
    for k in range(-2, 9):
        assert dim_pk(schema, k) == len(pk_basis(schema, k))


@pytest.mark.parametrize(
    "schema",
    [lattice(1), lattice(4), H3, heisenberg(3), UT4, unitriangular(5), unitriangular(9)],
    ids=str,
)
def test_basis_by_degree_equals_the_sorted_enumeration(schema):
    # the degree-by-degree basis against every exponent vector within the
    # bound, sorted by the graded key
    for k in range(-1, 7):
        assert list(pk_basis(schema, k)) == dense.pk_basis(schema, k)


def test_negative_degree_basis_is_empty():
    assert pk_basis(H3, -1) == ()
    assert dim_pk(Z2, -3) == 0


def test_basis_is_graded_and_deterministic():
    basis = pk_basis(UT4, 3)
    degs = [dense.weighted_degree(UT4, m) for m in basis]
    assert degs == sorted(degs)
    assert basis == pk_basis(UT4, 3)


@pytest.mark.parametrize(
    "schema", [lattice(1), Z2, lattice(4), H3, heisenberg(2), unitriangular(3), UT4], ids=str
)
def test_walking_up_from_the_constant_finds_each_basis_position(schema):
    # every divisor of a monomial of P^k is in P^k, so the walk never reads
    # the past-degree-k size; P^(k-2), the rows of a preimage target, is a prefix
    for k in range(9):
        basis = pk_basis(schema, k)
        up = polynomials.graded_index(schema, k)
        assert [polynomials._position(up, e) for e in basis] == list(range(len(basis)))


def test_basis_memos_are_keyed_by_weights_and_stay_within_their_bound(monkeypatch):
    memos = polynomials._BASES, polynomials._INDICES
    cases = [(schema, k) for schema in (Z2, H3, UT4, lattice(3)) for k in range(8)]
    cold = {}
    for schema, k in cases:
        for memo in memos:
            memo.clear()
        cold[schema, k] = pk_basis(schema, k), polynomials.graded_index(schema, k)
    # heisenberg(1) and unitriangular(3) have one set of weights, so one entry
    assert pk_basis(unitriangular(3), 4) is pk_basis(H3, 4)
    assert polynomials.graded_index(unitriangular(3), 4) is polynomials.graded_index(H3, 4)
    # past a lowered bound the memos drop what they must and give the same
    # bases and indices; a basis of more monomials than the bound is not kept
    for memo in memos:
        monkeypatch.setattr(memo, "bound", 100)
        memo.clear()
    for _ in range(2):
        for schema, k in cases:
            basis = pk_basis(schema, k)
            assert (basis, polynomials.graded_index(schema, k)) == cold[schema, k]
            assert (k in polynomials._BASES.get(schema.weights)) == (len(basis) <= 100)
            for memo in memos:
                assert 0 < memo.size <= 100 and _costs_add_up(memo)
    assert len(pk_basis(UT4, 7)) > 100
    # a negative degree takes no entry
    for memo in memos:
        memo.clear()
    assert pk_basis(H3, -1) == () and not polynomials._BASES.dicts


# -- evaluation ----------------------------------------------------------------

def test_evaluate_examples():
    assert Z.evaluate(GroupElement((1, 1, 1))) == 1
    p = mono(Z2, 2, 0) - mono(Z2, 0, 2)
    assert p.evaluate(GroupElement((3, 2))) == 5
    assert Polynomial(H3).evaluate(GroupElement((4, -1, 9))) == 0


def test_evaluate_schema_mismatch():
    with pytest.raises(ValidationError):
        Z.evaluate(GroupElement((1, 2)))


def test_degree_conventions():
    assert Polynomial(H3).degree is None
    assert Polynomial(H3, {(0, 0, 0): 5}).degree == 0
    assert Z.degree == 2
    assert (X * X * Z).degree == 4


# -- translation ---------------------------------------------------------------

def test_translate_shift_on_line():
    x = Polynomial.coordinate(Z1, 1)
    shifted = translate_left(x * x, GroupElement((1,)))
    assert shifted == x * x + 2 * x + Polynomial(Z1, {(0,): 1})


def test_translate_left_central_coordinate():
    assert translate_left(Z, GroupElement((1, 0, 0))) == Z + Y


def test_translate_right_central_coordinate():
    assert translate_right(Z, GroupElement((0, 1, 0))) == Z + X


def test_translate_by_identity_is_identity_map():
    for p in (X * Y, Z, X * X - Y * Y + Z):
        assert translate_left(p, identity(H3)) == p
        assert translate_right(p, identity(H3)) == p


def test_translate_right_lattice_example():
    x1, x2 = (Polynomial.coordinate(Z2, i) for i in (1, 2))
    assert translate_right(x1 * x2, GroupElement((1, 0))) == x1 * x2 + x2


def test_translate_of_zero_and_constants():
    u = GroupElement((3, -1, 2))
    assert translate_left(Polynomial(H3), u).is_zero
    constant = Polynomial(H3, {(0, 0, 0): Fraction(7, 3)})
    assert translate_left(constant, u) == constant


@pytest.mark.parametrize("schema", [Z2, H3, UT4])
def test_interpolation_soundness_on_balls(schema):
    gens = standard_generators(schema)
    b2 = ball(schema, gens, 2)
    b3 = ball(schema, gens, 3)
    for m in pk_basis(schema, 2):
        p = Polynomial(schema, {m: 1})
        for u in b2:
            q = translate_left(p, u)
            assert all(q.evaluate(g) == p.evaluate(mul(schema, u, g)) for g in b3)


def test_translate_right_matches_pointwise():
    gens = standard_generators(H3)
    b2 = ball(H3, gens, 2)
    p = X * X * Y + Z * X
    for u in b2:
        q = translate_right(p, u)
        assert all(q.evaluate(g) == p.evaluate(mul(H3, g, u)) for g in b2)


@pytest.mark.parametrize("schema", [lattice(3), H3, UT4], ids=str)
def test_translation_matches_sympy_expansion(schema):
    # independent oracle: expand m(x u) and m(u x) symbolically
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(f"x1:{schema.n_coords + 1}")
    basis = pk_basis(schema, 3)
    for u in ball(schema, standard_generators(schema), 2):
        for law, translate in (
            (mul_coords(schema, xs, u.coords), translate_right),
            (mul_coords(schema, u.coords, xs), translate_left),
        ):
            coords = [sympy.Poly(c, *xs) for c in law]
            for m in basis:
                expected = sympy.Poly(1, *xs)
                for c, e in zip(coords, m):
                    expected *= c**e
                got = translate(Polynomial(schema, {m: 1}), u)
                assert got.terms == {
                    exps: Fraction(int(c)) for exps, c in expected.as_dict().items()
                }


@pytest.mark.parametrize("schema", [lattice(3), heisenberg(2), UT4, unitriangular(5)], ids=str)
def test_forms_evaluate_to_the_group_law(schema):
    # independent of how the forms are built: evaluate them against mul_coords
    b2 = [g.coords for g in ball(schema, standard_generators(schema), 2)]
    for u in b2:
        left = polynomials._translation_forms(schema, GroupElement(u), "left")
        right = polynomials._translation_forms(schema, GroupElement(u), "right")
        for x in b2:
            for forms, product in (
                (left, mul_coords(schema, u, x)),
                (right, mul_coords(schema, x, u)),
            ):
                assert tuple(c + sum(a * x[v] for v, a in lin) for c, lin in forms) == product


def test_wrong_length_element_raises_with_warm_forms():
    translate_left(X, basis_element(H3, 1))
    assert polynomials._IMAGES.dicts
    for translate in (translate_left, translate_right):
        with pytest.raises(ValidationError):
            translate(X, GroupElement((1, 0)))
    # Z2 and lattice(3) share a law, the empty one, but not a coordinate count
    x1 = Polynomial.coordinate(lattice(3), 1)
    for translate in (translate_left, translate_right):
        translate(Polynomial.coordinate(Z2, 1), GroupElement((1, 0)))
        with pytest.raises(ValidationError):
            translate(x1, GroupElement((1, 0)))


def test_equal_schemas_share_translation_entries():
    # a copy, like a pickle, is an equal schema but not the same object
    memo = polynomials._IMAGES
    memo.clear()
    first, second = heisenberg(1), copy.copy(heisenberg(1))
    assert first == second and first is not second
    u = GroupElement((1, -1, 2))
    p = mixed_denominators(first, 2)
    q = Polynomial(second, p.terms)
    assert translate_left(q, u) == translate_left(p, u)
    assert len(memo.dicts) == 1


TEST_SCHEMAS = [Z1, Z2, lattice(3), H3, heisenberg(2), unitriangular(3), UT4]


def mixed_denominators(schema, k):
    """A polynomial on every monomial of degree <= k, with coefficients whose
    denominators 2, 3 and 6 force a common scale of 6."""
    cycle = [Fraction(1, 2), Fraction(2, 3), Fraction(-5, 6), Fraction(-3), Fraction(7, 2)]
    return Polynomial(schema, {m: cycle[i % 5] for i, m in enumerate(pk_basis(schema, k))})


def _translates(p, elems):
    return [(translate_left(p, u), translate_right(p, u)) for u in elems]


def _costs_add_up(memo):
    # the size is the cost of what the dicts hold; no dict is registered empty
    return memo.size == sum(memo.cost(value) for stored in memo.dicts.values()
                            for value in stored.values()) and all(memo.dicts.values())


def test_image_memo_stays_within_its_bounds(monkeypatch):
    memo = polynomials._IMAGES
    memo.clear()
    p = mixed_denominators(UT4, 3)
    elems = ball(UT4, standard_generators(UT4), 1)
    want = [(dense.translate(p, u, "left"), dense.translate(p, u, "right")) for u in elems]
    cold = _translates(p, elems)
    assert cold == want
    assert 0 < memo.size <= memo.bound and _costs_add_up(memo)
    stored = memo.size
    # a warm memo reads every image and stores nothing more
    assert _translates(p, elems) == want
    assert memo.size == stored
    # under a lowered bound every translation still stores what fits, and the
    # bound holds after each, over the dicts and in their number
    monkeypatch.setattr(memo, "bound", 40)
    memo.clear()
    for _ in range(2):
        for u, pair in zip(elems, want):
            assert (translate_left(p, u), translate_right(p, u)) == pair
            assert 0 < memo.size <= 40 and len(memo.dicts) <= 40 and _costs_add_up(memo)
    assert list(memo.dicts)[-1] == polynomials._translation_forms(UT4, elems[-1], "right")


def test_a_full_image_memo_makes_room_for_later_translations():
    # fill the bound with the images of one translation on lattice(2), whose
    # terms are many more than the bound
    memo = polynomials._IMAGES
    memo.clear()
    u = GroupElement((1, 1))
    full = polynomials._translation_forms(Z2, u, "right")
    everything = Polynomial(Z2, {m: 1 for m in pk_basis(Z2, 30)})
    translate_right(everything, u)
    assert list(memo.dicts) == [full] and memo.size > memo.bound - 100
    # a later Laplacian stores the images of its right translates by
    # dropping that older dict
    mu = generator_walk(H3)
    ps = [Polynomial(H3, {m: 1}) for m in pk_basis(H3, 6)]
    deltas = [apply_laplacian(mu, p) for p in ps]
    assert deltas == [dense.apply_laplacian(mu, p) for p in ps]
    atoms = {polynomials._translation_forms(H3, s, "right") for s in mu.atoms}
    assert set(memo.dicts) == atoms and _costs_add_up(memo)
    assert all(set(images) == set(pk_basis(H3, 6)[1:]) for images in memo.dicts.values())
    # and reads them back: the second sweep stores nothing more
    stored = memo.size
    assert [apply_laplacian(mu, p) for p in ps] == deltas
    assert memo.size == stored


def test_a_full_dict_of_images_drops_its_oldest_to_extend_every_chain(monkeypatch):
    # the 230 non-constant monomials of degree <= 20 on lattice(2) are read in
    # graded order, so each image's parent is among the newest stored: one
    # affine product each, although the bound holds far fewer image terms than
    # the call makes (a memo that stopped storing once full took 727 and 734)
    memo = polynomials._IMAGES
    everything = Polynomial(Z2, {m: 1 for m in pk_basis(Z2, 20)})
    u, matrix = GroupElement((1, 1)), [[1, 1], [0, 1]]
    cases = [
        (2000, lambda: translate_right(everything, u), dense.translate(everything, u, "right")),
        (500, lambda: restrict_to_sublattice(everything, matrix),
         dense.restrict_to_sublattice(everything, matrix)),
    ]
    times, calls = polynomials._times, []

    def counted(form, image):
        calls.append(form)
        return times(form, image)

    monkeypatch.setattr(polynomials, "_times", counted)
    for bound, run, want in cases:
        monkeypatch.setattr(memo, "bound", bound)
        memo.clear()
        calls.clear()
        assert run() == want
        assert len(calls) == 230
        assert 0 < memo.size <= bound and _costs_add_up(memo)


def test_equal_forms_share_one_dict_of_images():
    memo = polynomials._IMAGES

    def shared(first, second):
        memo.clear()
        a = first()
        stored = memo.size
        b = second()
        assert len(memo.dicts) == 1 and memo.size == stored > 0
        return a, b

    # heisenberg(1) and unitriangular(3) are one law under two names
    U3 = unitriangular(3)
    p = mixed_denominators(H3, 3)
    q = Polynomial(U3, p.terms)
    for translate in (translate_left, translate_right):
        a, b = shared(lambda: translate(p, GroupElement((1, -1, 2))),
                      lambda: translate(q, GroupElement((1, -1, 2))))
        assert a.terms == b.terms
    # an abelian group translates alike on either side
    r = mixed_denominators(Z2, 4)
    u = GroupElement((2, -3))
    a, b = shared(lambda: translate_left(r, u), lambda: translate_right(r, u))
    assert a == b == dense.translate(r, u, "left")
    # the identity matrix restricts by the forms of the identity's translation
    a, b = shared(lambda: restrict_to_sublattice(r, [[1, 0], [0, 1]]),
                  lambda: translate_left(r, identity(Z2)))
    assert a == b == r


def test_moment_images_at_an_element_are_its_right_translates():
    # sum_gamma s^gamma U_gamma(m) at a concrete s over the pattern is m(x s)
    for schema, k in ((H3, 4), (UT4, 3), (lattice(3), 3)):
        basis = pk_basis(schema, k)
        for s in ball(schema, standard_generators(schema), 2):
            pattern = tuple(t for t, c in enumerate(s.coords) if c)
            images = polynomials.moment_images(schema, k, pattern)
            translates = [{} for _ in basis]
            for j, g, b, c in zip(images.cols, images.gammas, images.betas, images.coeffs):
                value = c * prod(x**e for x, e in zip(s.coords, basis[g]))
                translates[j][basis[b]] = translates[j].get(basis[b], 0) + value
            for m, terms in zip(basis, translates):
                want = dense.translate(Polynomial(schema, {m: 1}), s, "right")
                assert Polynomial(schema, terms) == want
            # the chain lists every s^gamma != 1 over the pattern, in graded order
            assert [g for g, _, _ in images.chain] == [
                i for i, m in enumerate(basis)
                if any(m) and not any(e for t, e in enumerate(m) if t not in pattern)
            ]
            for g, parent, t in images.chain:
                bumped = list(basis[parent])
                bumped[t] += 1
                assert basis[g] == tuple(bumped)


def _seeded_symmetric_measure(schema, seed):
    """The generators and two pairs {s, s^-1} from the radius-2 ball, integer
    weights drawn per pair, and an identity atom."""
    rng = random.Random(seed)
    gens = standard_generators(schema)
    others = [g for g in ball(schema, gens, 2) if any(g.coords) and g not in gens]
    weights = {}
    for s in gens + rng.sample(others, 2):
        weights.setdefault(s, rng.randint(1, 4))
        weights.setdefault(inv(schema, s), weights[s])
    weights[identity(schema)] = rng.randint(1, 4)
    total = sum(weights.values())
    return Measure(schema, [(g, Fraction(w, total)) for g, w in weights.items()])


@pytest.mark.parametrize(
    "schema",
    [*map(lattice, range(1, 5)), *map(heisenberg, range(1, 4)), *map(unitriangular, range(3, 6))],
    ids=str,
)
def test_moment_images_equal_the_ones_read_off_the_parent_steps(schema):
    # the parent steps the images read off ``up`` are the ones the graded
    # index kept as a table, so every field is equal, links and term order too
    patterns = {(t,) for t in range(schema.n_coords)}
    for seed in (0, 1):
        patterns.update(p for p, _ in _seeded_symmetric_measure(schema, seed).groups)
    polynomials._MOMENTS.clear()
    for k in range(7 if schema == unitriangular(5) else 8):
        for pattern in sorted(patterns):
            assert polynomials.moment_images(schema, k, pattern) == dense.moment_images(
                schema, k, pattern
            )


def test_moment_memo_is_shared_by_equal_laws_and_holds_a_lowered_bound(monkeypatch):
    memo = polynomials._MOMENTS
    memo.clear()
    # heisenberg(1) and unitriangular(3) are one law under two names
    first = polynomials.moment_images(H3, 4, (0, 1))
    assert polynomials.moment_images(unitriangular(3), 4, (0, 1)) is first
    assert len(memo.dicts) == 1 and memo.size == len(first.chain) + len(first.cols)
    # under a bound that holds any one item but not all of them, every call
    # stores what fits and reads back the images a fresh memo makes
    fresh = {(p, k): polynomials.moment_images(UT4, k, p)
             for p in ((0,), (1,), (0, 1, 2), (1, 3)) for k in (2, 3, 4)}
    bound = max(map(memo.cost, fresh.values()))
    assert bound < sum(map(memo.cost, fresh.values())) // 2
    monkeypatch.setattr(memo, "bound", bound)
    memo.clear()
    for _ in range(2):
        for (p, k), want in fresh.items():
            assert polynomials.moment_images(UT4, k, p) == want
            assert 0 < memo.size <= bound and _costs_add_up(memo)


def test_stored_images_are_not_modified_by_their_readers():
    memo = polynomials._IMAGES
    memo.clear()
    p = mixed_denominators(H3, 3)
    u = GroupElement((1, -2, 3))
    first = translate_left(p, u)
    entry = memo.get(polynomials._translation_forms(H3, u, "left"))
    images = {e: dict(image) for e, image in entry.items()}
    assert len(images) > 1
    for q in (p, first, first * p, -p):
        translate_left(q, u)
    assert {e: entry[e] for e in images} == images
    assert translate_left(p, u) == first
    # the Laplacian builds its monomials' images from the right translates by
    # the atoms, which it reads from the same memo
    mu = lazy_generator_walk(H3, Fraction(1, 3))
    delta = apply_laplacian(mu, p)
    entries = [memo.get(polynomials._translation_forms(H3, s, "right")) for s in mu.atoms]
    stored = [{e: dict(image) for e, image in entry.items()} for entry in entries]
    assert all(stored)
    for q in (p, first, first * p, -p, delta):
        apply_laplacian(mu, q)
    for entry, images in zip(entries, stored):
        assert {e: entry[e] for e in images} == images
    assert apply_laplacian(mu, p) == delta == dense.apply_laplacian(mu, p)
    # and restriction reads and stores in the same memo
    r = mixed_denominators(Z2, 4)
    matrix = [[1, 2], [0, 1]]
    restricted = restrict_to_sublattice(r, matrix)
    entry = memo.get(((0, ((0, 1), (1, 2))), (0, ((1, 1),))))
    images = {e: dict(image) for e, image in entry.items()}
    assert len(images) > 1
    for q in (r, restricted, r * r, -r):
        restrict_to_sublattice(q, matrix)
    assert {e: entry[e] for e in images} == images
    assert restrict_to_sublattice(r, matrix) == restricted == dense.restrict_to_sublattice(r, matrix)


@pytest.mark.parametrize("bad", [1.0, 0.5, Fraction(1), True, "1"], ids=repr)
def test_non_int_element_coordinates_are_refused_and_poison_no_memo(bad):
    # (1.0, 0, 0) and (True, 0, 0) hash and compare equal to (1, 0, 0), so a
    # memo that took them would give their images to exact callers; a float
    # coefficient compares equal to an int too, so the types are checked
    polynomials._IMAGES.clear()
    polynomials._translation_forms.cache_clear()
    g = GroupElement((bad, 0, 0))
    u = GroupElement((1, 0, 0))
    mu = generator_walk(H3)
    x_plus_1 = X + Polynomial(H3, {(0, 0, 0): 1})
    calls = [lambda: translate_left(X * X, g), lambda: translate_right(X * X * X, g),
             lambda: (X * X).evaluate(g), lambda: mul(H3, g, u), lambda: mul(H3, u, g),
             lambda: inv(H3, g), lambda: ball(H3, [g, GroupElement((-1, 0, 0))], 1)]
    message = re.escape(f"coordinate must be an int, got {bad!r}")
    for _ in range(2):  # on cold memos, then on warm ones
        for call in calls:
            with pytest.raises(ValidationError, match=message):
                call()
        results = [translate_left(X * X, u), translate_right(X * X * X, u),
                   apply_laplacian(mu, X * X * X)]
        assert results == [x_plus_1 * x_plus_1, x_plus_1 * x_plus_1 * x_plus_1,
                           dense.apply_laplacian(mu, X * X * X)]
        assert all(type(c) is int for p in results for c in (p.den, *p.ints.values()))


@pytest.mark.parametrize("bad", [(1, 0, 0), [1, 0, 0], None, GroupElement([1, 0, 0])], ids=repr)
def test_translation_takes_only_group_elements(bad):
    for translate in (translate_left, translate_right):
        with pytest.raises(ValidationError, match="expected a group element"):
            translate(X, bad)
    with pytest.raises(ValidationError, match="expected a group element"):
        X.evaluate(bad)


@pytest.mark.parametrize("schema", TEST_SCHEMAS, ids=str)
def test_integer_composition_equals_fraction_reference(schema):
    # the integer-cleared _compose against the Fraction loop it replaced
    p = mixed_denominators(schema, 3)
    for u in ball(schema, standard_generators(schema), 2):
        for side, translate in (("left", translate_left), ("right", translate_right)):
            forms = polynomials._translation_forms(schema, u, side)
            assert translate(p, u) == dense.compose(p, forms)
    if schema.step == 1:
        d = schema.n_coords
        matrix = [[(i + 2 * j) % 3 - (i == j) * 4 for j in range(d)] for i in range(d)]
        forms = tuple((0, tuple((j, x) for j, x in enumerate(row) if x)) for row in matrix)
        assert restrict_to_sublattice(p, matrix) == dense.compose(p, forms)


# -- derivatives ---------------------------------------------------------------

def test_derivative_examples():
    assert left_derivative(Z, basis_element(H3, 1)) == Y
    assert left_derivative(Z, basis_element(H3, 3)) == Polynomial(H3, {(0, 0, 0): 1})
    assert left_derivative(Polynomial(H3, {(0, 0, 0): 9}), GroupElement((1, 2, 3))).is_zero


def test_right_derivative_example():
    # the right derivative x -> p(x u) - p(x)
    assert translate_right(Z, basis_element(H3, 2)) - Z == X


@pytest.mark.parametrize("schema", [Z2, lattice(3), H3, heisenberg(2), unitriangular(3), UT4])
def test_degree_reduction(schema):
    for m in pk_basis(schema, 4):
        p = Polynomial(schema, {m: 1})
        d = p.degree
        for i in range(1, schema.n_coords + 1):
            for power in (1, -1):
                dp = left_derivative(p, basis_element(schema, i, power))
                if not dp.is_zero:
                    assert dp.degree <= d - schema.weight(i)


@pytest.mark.parametrize("schema", [Z2, H3])
def test_cocycle_identity(schema):
    b1 = ball(schema, standard_generators(schema), 1)
    fs = [Polynomial(schema, {m: 1}) for m in pk_basis(schema, 2)]
    for f in fs:
        for x, y in itertools.product(b1, repeat=2):
            lhs = left_derivative(f, mul(schema, x, y))
            rhs = translate_left(left_derivative(f, x), y) + left_derivative(f, y)
            assert lhs == rhs


@pytest.mark.parametrize("schema", [Z2, H3])
def test_product_rule(schema):
    b1 = ball(schema, standard_generators(schema), 1)
    coords = [Polynomial.coordinate(schema, i) for i in range(1, schema.n_coords + 1)]
    for f, h in itertools.product(coords, repeat=2):
        for x in b1:
            lhs = left_derivative(f * h, x)
            rhs = translate_left(f, x) * left_derivative(h, x) + left_derivative(f, x) * h
            assert lhs == rhs


def test_multilinearity_of_top_derivative():
    # f of degree exactly 2: (u1, u2) -> (d_u1 d_u2 f)(1) is additive per slot
    f = X * Y
    e = identity(H3)
    b1 = ball(H3, standard_generators(H3), 1)

    def phi(u1, u2):
        return left_derivative(left_derivative(f, u2), u1).evaluate(e)

    for u, v, y in itertools.product(b1, repeat=3):
        assert phi(mul(H3, u, v), y) == phi(u, y) + phi(v, y)
        assert phi(y, mul(H3, u, v)) == phi(y, u) + phi(y, v)


def test_central_translation_fixes_low_degree():
    # degree <= 1 functions are blind to the commutator subgroup
    f = X + 2 * Y + Polynomial(H3, {(0, 0, 0): 3})
    for m in (1, -3):
        assert translate_left(f, basis_element(H3, 3, m)) == f
    assert translate_left(Z, basis_element(H3, 3, 1)) != Z


def test_left_right_equivalence_on_monomials():
    # degree-w monomials: (w+1)-fold right derivatives vanish, some w-fold does not
    b1 = ball(H3, standard_generators(H3), 1)
    for m in pk_basis(H3, 2):
        p = Polynomial(H3, {m: 1})
        w = p.degree
        for tup in itertools.islice(itertools.product(b1, repeat=w + 1), 60):
            q = p
            for u in tup:
                q = translate_right(q, u) - q
            assert q.is_zero
        if w >= 1:
            found = False
            for tup in itertools.product(b1, repeat=w):
                q = p
                for u in tup:
                    q = left_derivative(q, u)
                if not q.is_zero:
                    found = True
                    break
            assert found


# -- products ------------------------------------------------------------------

def test_product_examples():
    assert (X * Y).degree == 2
    assert (Z * X).degree == 3
    assert (Z * Polynomial(H3)).is_zero
    assert X * Y == Y * X


def test_product_degree_additivity():
    ps = [X + Y, Z - X * X, Polynomial(H3, {(0, 0, 0): 2}) + X]
    for p, q in itertools.product(ps, repeat=2):
        assert (p * q).degree == p.degree + q.degree


# -- sublattice restriction ------------------------------------------------------

def test_restrict_examples():
    x1 = Polynomial.coordinate(Z2, 1)
    assert restrict_to_sublattice(x1 * x1, [[2, 0], [0, 1]]) == 4 * x1 * x1
    p = x1 * x1 - 3 * Polynomial.coordinate(Z2, 2)
    assert restrict_to_sublattice(p, [[1, 0], [0, 1]]) == p
    # unitriangular(2) is Z: step 1, no law terms, so it restricts like lattice(1)
    z = 3 * mono(Z1, 3) - mono(Z1, 1) + Polynomial(Z1, {(0,): 2})
    u2 = Polynomial(unitriangular(2), z.terms)
    assert restrict_to_sublattice(u2, [[-3]]).terms == restrict_to_sublattice(z, [[-3]]).terms


def test_restrict_pointwise_agreement():
    m = [[1, 1], [0, 2]]
    p = mono(Z2, 2, 1) - 2 * mono(Z2, 0, 1)
    q = restrict_to_sublattice(p, m)
    for u1 in range(-2, 3):
        for u2 in range(-2, 3):
            image = GroupElement((m[0][0] * u1 + m[0][1] * u2, m[1][0] * u1 + m[1][1] * u2))
            assert q.evaluate(GroupElement((u1, u2))) == p.evaluate(image)


def test_restricting_a_high_power_keeps_few_images():
    # x1 = u1 + u2: the images of x1^j along the chain hold d^2 / 2 terms in
    # all (31 MB at d = 600 in a memo of the chain); the result has d + 1
    d = 600
    tracemalloc.start()
    try:
        q = restrict_to_sublattice(mono(Z2, d, 0), [[1, 1], [0, 1]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q.den == 1 and q.ints == {(i, d - i): comb(d, i) for i in range(d + 1)}
    assert peak < 10 * 2**20


def test_restrict_rejects_singular_and_non_lattice():
    with pytest.raises(ValidationError):
        restrict_to_sublattice(mono(Z2, 1, 0), [[1, 1], [1, 1]])
    with pytest.raises(ValidationError):
        restrict_to_sublattice(mono(Z2, 1, 0), [[1, 0]])
    # entries must be ints, as element coordinates are: nothing is coerced
    for entry in (Fraction(1, 2), 2.0, True, Fraction(4, 2)):
        with pytest.raises(ValidationError):
            restrict_to_sublattice(mono(Z2, 1, 0), [[entry, 0], [0, 1]])
    with pytest.raises(ValidationError):
        restrict_to_sublattice(Z, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    # the matrix must be a sequence of rows
    for matrix in ([1, 2], None, [[1, 0], 5]):
        with pytest.raises(ValidationError):
            restrict_to_sublattice(mono(Z2, 1, 0), matrix)


def test_restrict_refuses_exactly_the_singular_matrices():
    # seeded integer matrices of order 1..4, entries -2..2: the rank is read
    # off one elimination of the entries, so it must equal the dense rank
    rng = random.Random(5)
    singular = 0
    for _ in range(200):
        d = rng.randint(1, 4)
        matrix = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
        schema = lattice(d)
        p = Polynomial(schema, {e: i + 1 for i, e in enumerate(pk_basis(schema, 2))})
        if dense.rank([[Fraction(x) for x in row] for row in matrix], d) < d:
            singular += 1
            with pytest.raises(ValidationError, match="singular"):
                restrict_to_sublattice(p, matrix)
        else:
            assert restrict_to_sublattice(p, matrix) == dense.restrict_to_sublattice(p, matrix)
    assert 20 <= singular <= 180


# -- term bookkeeping ------------------------------------------------------------

def test_no_zero_coefficients_stored():
    p = X - X
    assert p.terms == {} and p.is_zero
    q = X + Y - X
    assert list(q.terms) == [(0, 1, 0)]


def test_coefficients_must_be_int_or_fraction():
    # a float, a bool or a string would be coerced to some rational: all refused
    m = (1, 0, 0)
    for value in (0.1, 2.0, True, False, "1/3", None, 1j):
        with pytest.raises(ValidationError):
            Polynomial(H3, {m: value})
        with pytest.raises(ValidationError):
            Polynomial(H3, {(0, 0, 0): value})
        with pytest.raises(ValidationError):
            X * value
        with pytest.raises(ValidationError):
            value * X
    assert Polynomial(H3, {m: Fraction(1, 3)}) == Fraction(1, 3) * X
    assert (X * 0).is_zero and (0 * X).is_zero


class _Pairs(list):
    """Term pairs read through ``items()``, so a key may be one a dict cannot
    hold, such as a list."""

    def items(self):
        return iter(self)


def test_term_keys_must_be_monomials_of_the_schema():
    assert Polynomial(H3, {(1, 0, 0): 1}) == X
    # wrong length, a negative, float or bool exponent, or a list key
    for key in ((1, 0), (1, -1, 0), (1.0, 0, 0), (True, 0, 0), [1, 0, 0]):
        with pytest.raises(ValidationError):
            Polynomial(H3, _Pairs([(key, 1)]))


def test_schema_mismatch_in_arithmetic():
    with pytest.raises(ValidationError):
        X + Polynomial.coordinate(Z2, 1)


def test_rendering():
    p = X * X - Y * Y
    assert str(p) == "x^2 - y^2"
    assert str(Fraction(3, 2) * X * Y + Z - Polynomial(H3, {(0, 0, 0): 1})) == "3/2*x*y + z - 1"
    assert str(Polynomial(H3)) == "0"


def _dense_poly(schema, k):
    # every monomial of degree <= k, with coefficients of both signs and several sizes
    coeffs = [Fraction(1), Fraction(-1), Fraction(-3, 2), Fraction(12, 7), Fraction(10**12)]
    return Polynomial(schema, {m: coeffs[i % 5] for i, m in enumerate(pk_basis(schema, k))})


def test_render_memo_stays_within_its_bounds(monkeypatch):
    memo = polynomials._RENDERED
    memo.clear()
    schemas = [lattice(d) for d in range(1, 8)]
    for schema in schemas:
        p = _dense_poly(schema, 2)
        assert str(p) == dense.polynomial_str(p)
        assert len(memo.get(schema)) == len(p.terms)
    assert list(memo.dicts) == schemas and memo.size <= memo.bound and _costs_add_up(memo)
    # past a lowered bound the memo stops growing, and the text is the same
    monkeypatch.setattr(memo, "bound", 5)
    memo.clear()
    p = _dense_poly(UT4, 4)
    assert len(p.terms) > 5
    for _ in range(2):
        assert str(p) == dense.polynomial_str(p)
        assert polynomial_to_obj(p) == dense.polynomial_to_obj(p)
        assert memo.size == len(memo.get(UT4)) == 5 and _costs_add_up(memo)
    # a later schema drops the older one to make room
    q = _dense_poly(lattice(2), 1)
    assert str(q) == dense.polynomial_str(q)
    assert list(memo.dicts) == [lattice(2)] and memo.size == 3 and _costs_add_up(memo)


def test_a_schema_evicted_from_the_render_memo_renders_identically(monkeypatch):
    memo = polynomials._RENDERED
    memo.clear()
    p = _dense_poly(UT4, 4)
    first = (str(p), polynomial_to_obj(p))
    assert first == (dense.polynomial_str(p), dense.polynomial_to_obj(p))
    monkeypatch.setattr(memo, "bound", len(p.terms))
    str(_dense_poly(lattice(1), 1))
    assert list(memo.dicts) == [lattice(1)]
    assert (str(p), polynomial_to_obj(p)) == first
    assert UT4 in memo.dicts  # UT4's dict was dropped and filled again


@pytest.mark.parametrize("schema", [H3, lattice(3), unitriangular(4)], ids=str)
def test_terms_text_equals_fraction_reference(schema):
    # signs, unit and non-unit magnitudes, constants, large numerators and
    # denominators, in every position of the term list
    values = [1, 2, 7, 10**20 + 1]
    coeffs = [Fraction(sign * n, d) for sign in (1, -1) for n in values for d in (1, 3, 10**9)]
    # the lowest and the highest monomials of degree <= 3, inserted in either order
    basis = pk_basis(schema, 3)
    for monos in (basis[:9], basis[-9:]):
        for shift in range(len(coeffs)):
            terms = [(m, coeffs[(i + shift) % len(coeffs)]) for i, m in enumerate(monos)]
            for ordered in (terms, terms[::-1], terms[:1], []):
                p = Polynomial(schema, dict(ordered))
                assert str(p) == dense.polynomial_str(p)
                assert polynomial_to_obj(p) == dense.polynomial_to_obj(p)
