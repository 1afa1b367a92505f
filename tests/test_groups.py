"""Group coordinate arithmetic: multiplication laws, balls, normal forms."""

import copy
import itertools
import pickle
import random
import re
from fractions import Fraction

import pytest

import nilharmonic.groups as groups
from nilharmonic.errors import ValidationError
from nilharmonic.groups import (
    GroupElement,
    GroupSchema,
    _require_ball_size,
    ball,
    ball_levels,
    basis_element,
    check_coordinate_order,
    decomposition_order,
    heisenberg,
    identity,
    inv,
    inv_coords,
    lattice,
    mul,
    mul_coords,
    reaches_all_generators,
    standard_generators,
    unitriangular,
)

# dense_reference.py holds the term-list loops the compiled law replaced
import dense_reference as dense  # noqa: E402

H3 = heisenberg(1)
Z1 = lattice(1)
Z2 = lattice(2)
UT3 = unitriangular(3)
UT4 = unitriangular(4)

ALL_SCHEMAS = [Z1, Z2, lattice(3), H3, heisenberg(2), UT3, UT4]


def with_fields(schema, **changes):
    """A new schema from the constructor: the fields of ``schema`` with ``changes``."""
    return GroupSchema(**{f: changes.get(f, getattr(schema, f)) for f in groups._SCHEMA_FIELDS})


def test_schema_fields():
    assert H3.n_coords == 3
    assert H3.weights == (1, 1, 2)
    assert H3.layer_ranks == (2, 1)
    assert H3.step == 2
    assert H3.coord_names == ("x", "y", "z")
    h2 = heisenberg(2)
    assert h2.n_coords == 5
    assert h2.weights == (1, 1, 1, 1, 2)
    assert UT4.n_coords == 6
    assert UT4.weights == (1, 1, 1, 2, 2, 3)
    assert UT4.layer_ranks == (3, 2, 1)
    assert UT4.step == 3
    assert UT4.coord_names == ("a_12", "a_23", "a_34", "a_13", "a_24", "a_14")
    assert lattice(3).n_coords == 3 and lattice(3).layer_ranks == (3,) and lattice(3).step == 1
    # the largest sizes each family admits
    assert lattice(36).n_coords == 36 and heisenberg(17).n_coords == 35


# the size caps are checked before any field is built, so a huge size costs nothing
@pytest.mark.parametrize("bad", [lambda: lattice(0), lambda: heisenberg(0),
                                 lambda: unitriangular(1), lambda: unitriangular(10),
                                 lambda: lattice(37), lambda: lattice(10**9),
                                 lambda: heisenberg(18), lambda: heisenberg(10**9)])
def test_invalid_schema_parameters(bad):
    with pytest.raises(ValidationError):
        bad()


def test_heisenberg_product_example():
    g = mul(H3, GroupElement((1, 0, 0)), GroupElement((0, 1, 0)))
    assert g.coords == (1, 1, 1)


def test_lattice_product_example():
    assert mul(Z2, GroupElement((2, 3)), GroupElement((-1, 1))).coords == (1, 4)


def test_unitriangular_product_fillin():
    # e_12 * e_23 picks up the (1,3) entry
    g = mul(UT4, basis_element(UT4, 1), basis_element(UT4, 2))
    assert g.coords == (1, 1, 0, 1, 0, 0)


@pytest.mark.parametrize("schema", ALL_SCHEMAS)
def test_identity_is_all_zeros(schema):
    assert identity(schema).coords == (0,) * schema.n_coords


def test_inverse_examples():
    assert inv(Z2, GroupElement((2, 3))).coords == (-2, -3)
    assert inv(H3, GroupElement((1, 1, 1))).coords == (-1, -1, 0)
    assert inv(H3, identity(H3)) == identity(H3)


@pytest.mark.parametrize("schema", ALL_SCHEMAS)
def test_inverse_law_on_ball(schema):
    e = identity(schema)
    for g in ball(schema, standard_generators(schema), 2):
        assert mul(schema, g, inv(schema, g)) == e
        assert mul(schema, inv(schema, g), g) == e
        assert mul(schema, g, e) == g
        assert mul(schema, e, g) == g


# -- the term-list law against closed forms built here ----------------------------

def _ball_pairs(schema):
    b2 = [g.coords for g in ball(schema, standard_generators(schema), 2)]
    return itertools.product(b2, repeat=2)


@pytest.mark.parametrize("n", [1, 2])
def test_heisenberg_law_matches_closed_form(n):
    schema = heisenberg(n)

    def dot(u, v):
        return sum(ui * vi for ui, vi in zip(u, v))

    for a, b in _ball_pairs(schema):
        x, y, z = a[:n], a[n:2 * n], a[2 * n]
        x2, y2, z2 = b[:n], b[n:2 * n], b[2 * n]
        expected = (
            tuple(u + v for u, v in zip(x, x2))
            + tuple(u + v for u, v in zip(y, y2))
            + (z + z2 + dot(x, y2),)
        )
        assert mul_coords(schema, a, b) == expected
        px, py, pz = expected[:n], expected[n:2 * n], expected[2 * n]
        assert inv_coords(schema, expected) == tuple(-u for u in px + py) + (-pz + dot(px, py),)


def _ut_positions(n):
    return [(i, i + w) for w in range(1, n) for i in range(1, n - w + 1)]


def _ut_matrix(n, coords):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for (i, j), c in zip(_ut_positions(n), coords):
        m[i - 1][j - 1] = c
    return m


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _ut_inverse(m):
    # (I + N)^-1 = sum_k (-N)^k, a finite sum since N is nilpotent
    n = len(m)
    neg = [[-(m[i][j] - int(i == j)) for j in range(n)] for i in range(n)]
    term = [[int(i == j) for j in range(n)] for i in range(n)]
    total = [row[:] for row in term]
    for _ in range(n - 1):
        term = _matmul(term, neg)
        total = [[u + v for u, v in zip(r, s)] for r, s in zip(total, term)]
    return total


def _ut_coords(n, m):
    return tuple(m[i - 1][j - 1] for i, j in _ut_positions(n))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_unitriangular_law_matches_matrix_product(n):
    schema = unitriangular(n)
    assert schema.coord_names == tuple(f"a_{i}{j}" for i, j in _ut_positions(n))
    for a, b in _ball_pairs(schema):
        product = _matmul(_ut_matrix(n, a), _ut_matrix(n, b))
        ab = _ut_coords(n, product)
        assert mul_coords(schema, a, b) == ab
        # products reach radius 4, so the inverse's cubic terms show for n >= 4
        assert inv_coords(schema, ab) == _ut_coords(n, _ut_inverse(product))


def test_laws_as_term_lists():
    assert lattice(3).law == ()
    assert heisenberg(2).law == ((4, 0, 2), (4, 1, 3))
    # a_13 gets a_12 * a_23
    assert UT3.law == ((2, 0, 1),)


@pytest.mark.parametrize(
    "law",
    [
        ((5, 0, 4), (3, 0, 1)),  # not sorted by target coordinate
        ((3, 0, 4),),  # reads coordinate 4 into coordinate 3
        ((3, 3, 0),),  # reads the target coordinate itself
        ((6, 0, 1),),  # target out of range
        ((3, -1, 0),),  # negative index
        ((1, 0, 0),),  # a weight-1 coordinate gains a product of weight 2
        # the law is compiled into code, so a term is exactly three ints
        ((3, 0.0, 1),),
        ((3, "0", 1),),
        (("3", 0, 1),),
        ((3, True, 1),),  # bool is an int subclass, but not an index
        ((3, 0),),
        ((3, 0, 1, 2),),
        ([3, 0, 1],),
    ],
)
def test_schema_rejects_bad_law(law):
    with pytest.raises(ValidationError):
        with_fields(UT4, law=law)


# the coordinate count is len(weights), so a bad count is a bad weights tuple;
# the ids name the n_coords values these cases replaced
@pytest.mark.parametrize("weights", [
    pytest.param((), id="0"),
    pytest.param((1.0, 1.0, 2.0), id="3.0"),
    pytest.param((True, True, 2), id="True"),
    pytest.param("112", id="3"),
])
def test_schema_rejects_bad_coordinate_count(weights):
    with pytest.raises(ValidationError, match="weights"):
        with_fields(H3, weights=weights, coord_names=H3.coord_names[:len(weights)])


@pytest.mark.parametrize("weights", [(2, 2, 2), (1, 2, 1), (0, 1, 2), [1, 1, 2]])
def test_schema_rejects_weights_that_do_not_start_at_1_and_climb(weights):
    with pytest.raises(ValidationError, match="weights"):
        with_fields(H3, weights=weights, law=())


@pytest.mark.parametrize("names", [("x", "x", "z"), ("x", "y z", "z"), ("x", "y"),
                                   ("x", "1y", "z"), ("x", "y", 3), ["x", "y", "z"]])
def test_schema_rejects_bad_coordinate_names(names):
    # a repeated name parses as only one coordinate and renders as two;
    # a name that is no parser token can never be read back
    with pytest.raises(ValidationError, match="name"):
        with_fields(H3, coord_names=names)


# the values the family constructors stored before they were derived from weights
@pytest.mark.parametrize(
    "schema, n_coords, layer_ranks, step",
    [*((lattice(d), d, (d,), 1) for d in range(1, 37)),
     *((heisenberg(n), 2 * n + 1, (2 * n, 1), 2) for n in range(1, 18)),
     *((unitriangular(n), n * (n - 1) // 2, tuple(n - w for w in range(1, n)), n - 1)
       for n in range(2, 10))],
    ids=str,
)
def test_derived_values_match_the_family_formulas(schema, n_coords, layer_ranks, step):
    assert (schema.n_coords, schema.layer_ranks, schema.step) == (n_coords, layer_ranks, step)
    assert not {"n_coords", "layer_ranks", "step", "rank"} & set(groups._SCHEMA_FIELDS)
    assert not hasattr(schema, "rank")


@pytest.mark.parametrize("family, keyword, sizes", [(lattice, "d", range(1, 37)),
                                                    (heisenberg, "n", range(1, 18)),
                                                    (unitriangular, "n", range(2, 10))])
def test_each_size_is_one_shared_schema(family, keyword, sizes):
    for n in sizes:
        assert family(n) is family(n) is family(**{keyword: n})


@pytest.mark.parametrize("family", [lattice, heisenberg, unitriangular], ids=lambda f: f.__name__)
@pytest.mark.parametrize("bad", [True, 2.0, Fraction(2), "2", None], ids=repr)
def test_family_constructors_take_only_plain_ints(family, bad):
    # True and 2.0 hash and compare equal to an int size, and must not find its schema
    with pytest.raises(ValidationError, match=re.escape(f"must be an int, got {bad!r}")):
        family(bad)


# x and y each feed a weight-2 coordinate through the other
TWISTED = GroupSchema(
    family="twisted", size=1, weights=(1, 1, 2, 2), coord_names=("x", "y", "z", "w"),
    law=((2, 0, 1), (3, 1, 0)),
)


def test_cyclic_law_has_no_decomposition_order():
    assert mul_coords(TWISTED, (1, 0, 0, 0), (0, 1, 0, 0)) == (1, 1, 1, 0)
    with pytest.raises(ValidationError):
        decomposition_order(TWISTED)


def _assert_law_equals_reference(schema, points, rng):
    partners = rng.sample(points, min(len(points), 25))
    for a in points:
        assert inv_coords(schema, a) == dense.inv_coords(schema, a)
        assert inv(schema, GroupElement(a)).coords == dense.inv_coords(schema, a)
        for b in partners:
            expected = dense.mul_coords(schema, a, b)
            assert mul_coords(schema, a, b) == expected
            assert mul(schema, GroupElement(a), GroupElement(b)).coords == expected


@pytest.mark.parametrize(
    "schema",
    [*map(lattice, range(1, 6)), *map(heisenberg, range(1, 4)), *map(unitriangular, range(2, 7)),
     TWISTED],
    ids=str,
)
def test_compiled_law_equals_term_loop_on_ball(schema):
    points = [g.coords for g in ball(schema, standard_generators(schema), 3)]
    _assert_law_equals_reference(schema, points, random.Random(f"law/{schema}"))


@pytest.mark.parametrize("schema", [lattice(36), heisenberg(17), unitriangular(9)], ids=str)
def test_compiled_law_equals_term_loop_on_largest_groups(schema):
    rng = random.Random(f"law/{schema}")
    points = [
        tuple(rng.randint(-(10 ** rng.randint(0, 25)), 10 ** rng.randint(0, 25))
              for _ in range(schema.n_coords))
        for _ in range(60)
    ]
    _assert_law_equals_reference(schema, points, rng)


def test_compiled_law_is_not_schema_state():
    # compiled on first use and cached on the instance, outside the fields:
    # equality, hashing, repr, copies and replace see only the term list
    schema = unitriangular(4)
    a, b = (1, 2, 3, 4, 5, 6), (-3, 0, 2, 1, -1, 7)
    expected = dense.mul_coords(schema, a, b)
    assert schema.law_mul(a, b) == expected
    fresh = unitriangular(4)
    assert schema == fresh and hash(schema) == hash(fresh) and repr(schema) == repr(fresh)
    assert not {"law_mul", "law_inv"} & set(groups._SCHEMA_FIELDS)
    for twin in (pickle.loads(pickle.dumps(schema)), copy.deepcopy(schema), copy.copy(schema)):
        assert twin == schema and hash(twin) == hash(schema)
        assert twin.law_mul(a, b) == expected
        assert twin.law_inv(a) == dense.inv_coords(schema, a)
    replaced = with_fields(schema, law=schema.law[:-1])
    assert replaced.law_mul is not schema.law_mul
    assert replaced.law_mul(a, b) == dense.mul_coords(replaced, a, b) != expected
    assert replaced.law_inv(a) == dense.inv_coords(replaced, a) != schema.law_inv(a)


def test_basis_element_examples():
    assert basis_element(H3, 3, 5).coords == (0, 0, 5)
    assert basis_element(Z2, 1, -1).coords == (-1, 0)
    a = mul(H3, basis_element(H3, 2, 4), basis_element(H3, 2, -7))
    assert a == basis_element(H3, 2, -3)


@pytest.mark.parametrize("bad", [1.7, 1.0, True, "1", Fraction(1)])
def test_element_rejects_non_int_coordinates(bad):
    g = GroupElement((bad, 0, 0))
    with pytest.raises(ValidationError, match=re.escape(repr(bad))):
        mul(H3, g, identity(H3))
    with pytest.raises(ValidationError, match=re.escape(repr(bad))):
        mul(H3, identity(H3), g)
    with pytest.raises(ValidationError, match=re.escape(repr(bad))):
        inv(H3, g)
    with pytest.raises(ValidationError):
        basis_element(H3, 1, bad)


def test_basis_element_out_of_range():
    with pytest.raises(ValidationError):
        basis_element(H3, 4)
    with pytest.raises(ValidationError):
        basis_element(H3, 0)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValidationError):
        mul(H3, GroupElement((0, 0, 0)), GroupElement((1, 2)))
    with pytest.raises(ValidationError):
        inv(Z2, GroupElement((1, 2, 3)))


@pytest.mark.parametrize("schema", [Z2, H3, UT3, UT4])
def test_associativity_on_ball(schema):
    b2 = ball(schema, standard_generators(schema), 2)
    for a, b, c in itertools.product(b2, repeat=3):
        assert mul(schema, mul(schema, a, b), c) == mul(schema, a, mul(schema, b, c))


def test_ball_examples():
    line = ball(Z1, [GroupElement((1,)), GroupElement((-1,))], 2)
    assert [g.coords[0] for g in line] == [-2, -1, 0, 1, 2]
    assert ball(H3, standard_generators(H3), 0) == [identity(H3)]
    assert len(ball(H3, standard_generators(H3), 1)) == 5


def test_ball_requires_symmetric_support():
    with pytest.raises(ValidationError):
        ball(Z1, [GroupElement((1,))], 2)


@pytest.mark.parametrize("schema", [Z2, H3, UT4])
def test_ball_growth_bounds(schema):
    gens = standard_generators(schema)
    sizes = [len(ball(schema, gens, r)) for r in range(5)]
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))
    assert all(sizes[r] <= len(gens) ** r + 1 for r in range(1, 5))


def test_ball_above_a_lowered_cap_is_refused(monkeypatch):
    # the radius-3 ball of heisenberg(1) has 53 points and the radius-4 one 135
    gens = standard_generators(H3)
    monkeypatch.setattr(groups, "MAX_BALL_POINTS", 53)
    assert len(ball(H3, gens, 3)) == 53
    for radius in (4, 6):
        with pytest.raises(ValidationError) as info:
            ball_levels(H3, gens, radius)
        assert str(info.value) == (
            f"the radius-{radius} ball on heisenberg(1) has more than 53 points; "
            "choose a smaller radius"
        )
    # the count stops the search within the level that passes the cap
    calls = []
    law_mul = H3.law_mul

    def counting(a, b):
        calls.append(a)
        return law_mul(a, b)

    monkeypatch.setitem(H3.__dict__, "law_mul", counting)
    with pytest.raises(ValidationError):
        ball(H3, gens, 6)
    assert len(calls) <= 4 * 53


def test_ball_is_sorted_and_deterministic():
    b = ball(H3, standard_generators(H3), 3)
    assert [g.coords for g in b] == sorted(g.coords for g in b)
    assert b == ball(H3, standard_generators(H3), 3)


def test_coordinate_order_example():
    rep = check_coordinate_order(H3, GroupElement((2, 3, 4)), GroupElement((0, 1, 7)))
    assert rep.first_nonzero == 2
    assert rep.prefix_ok == (True,)
    assert rep.additive_ok and rep.passed
    # the product itself: (2, 3+1, 4+7+2*1)
    assert mul(H3, GroupElement((2, 3, 4)), GroupElement((0, 1, 7))).coords == (2, 4, 13)


def test_coordinate_order_identity_vacuous():
    rep = check_coordinate_order(H3, GroupElement((5, -2, 9)), identity(H3))
    assert rep.first_nonzero is None and rep.passed


@pytest.mark.parametrize("schema", ALL_SCHEMAS)
def test_coordinate_order_on_ball(schema):
    b2 = ball(schema, standard_generators(schema), 2)
    for g, u in itertools.product(b2, repeat=2):
        assert check_coordinate_order(schema, g, u).passed
        # same leading-coordinate behaviour for u*g
        j = next((t for t, c in enumerate(u.coords) if c), None)
        if j is not None:
            prod = mul(schema, u, g).coords
            assert prod[:j] == g.coords[:j]
            assert prod[j] == g.coords[j] + u.coords[j]


@pytest.mark.parametrize("schema", ALL_SCHEMAS)
def test_basis_decomposition_on_ball(schema):
    order = decomposition_order(schema)
    assert sorted(order) == list(range(1, schema.n_coords + 1))
    for g in ball(schema, standard_generators(schema), 3):
        acc = identity(schema)
        for i in order:
            acc = mul(schema, acc, basis_element(schema, i, g.coords[i - 1]))
        assert acc == g


def test_heisenberg_decomposition_order_is_y_x_z():
    assert decomposition_order(H3) == (2, 1, 3)


def test_unitriangular5_normal_form_invariants():
    # larger family member: the chart invariants back its validity
    u5 = unitriangular(5)
    assert u5.n_coords == 10
    assert u5.weights == (1, 1, 1, 1, 2, 2, 2, 3, 3, 4)
    gens = standard_generators(u5)
    order = decomposition_order(u5)
    for g in ball(u5, gens, 2):
        acc = identity(u5)
        for i in order:
            acc = mul(u5, acc, basis_element(u5, i, g.coords[i - 1]))
        assert acc == g
        for u in (basis_element(u5, 5, 3), basis_element(u5, 10, -2)):
            assert check_coordinate_order(u5, g, u).passed


def test_generator_reachability():
    # includes UT4, whose central generator is 8 steps from the identity
    for schema in ALL_SCHEMAS + [unitriangular(9)]:
        assert reaches_all_generators(schema, standard_generators(schema)) == (True, None)
    assert reaches_all_generators(Z2, []) == (False, basis_element(Z2, 1))


@pytest.mark.parametrize(
    "bad, message",
    [
        (GroupElement((1, 0)), r"^element has 2 coordinates, schema heisenberg\(1\) expects 3$"),
        (GroupElement((1, 0, 0.5)), r"must be an int"),
        ((1, 0, 0), r"^expected a group element"),
    ],
)
def test_generator_reachability_checks_its_support(bad, message):
    # the public test checks what it is given; Measure hands checked coordinates
    # to the private one
    with pytest.raises(ValidationError, match=message):
        reaches_all_generators(H3, [*standard_generators(H3), bad])


def _symmetric(schema, coords):
    elems = [GroupElement(c) for c in coords]
    return elems + [inv(schema, g) for g in elems]


@pytest.mark.parametrize(
    "schema, coords, missing",
    [
        (Z2, [(2, 0), (0, 1)], 1),
        (H3, [(1, 0, 0), (1, 0, 5)], 2),
        (UT4, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)], 3),
        (Z2, [(6, 0), (10, 1), (15, 0)], 2),
    ],
)
def test_non_generating_support_names_missing_generator(schema, coords, missing):
    support = _symmetric(schema, coords)
    assert reaches_all_generators(schema, support) == (False, basis_element(schema, missing))
    # the named generator is not a short word either
    assert basis_element(schema, missing) not in ball(schema, support, 4)


@pytest.mark.parametrize("schema", [Z2, lattice(3), H3, heisenberg(2), UT3, UT4], ids=str)
def test_exact_generation_agrees_with_ball_search(schema):
    # reference: the radius-6 ball is the radius-3 ball times itself.  When
    # it holds every e_i^{+-1} the support generates, and the exact test must
    # accept; a generator the exact test names as missing is never in it.
    rng = random.Random(f"generation/{schema}")
    r = schema.layer_ranks[0]
    ball_accepted = exact_rejected = 0
    for _ in range(60):
        coords = [
            tuple(rng.choice((-1, 0, 0, 1, 2)) for _ in range(schema.n_coords))
            for _ in range(rng.randint(r - 1, r + 2))
        ]
        support = _symmetric(schema, [c for c in coords if any(c)])
        half = [g.coords for g in ball(schema, support, 3)]
        reach = set(half)

        def in_ball6(g):
            return any(mul_coords(schema, inv_coords(schema, a), g.coords) in reach for a in half)

        ok, missing = reaches_all_generators(schema, support)
        if all(in_ball6(basis_element(schema, i, e))
               for i in range(1, schema.n_coords + 1) for e in (1, -1)):
            ball_accepted += 1
            assert ok, coords
        if not ok:
            exact_rejected += 1
            assert not in_ball6(missing), coords
    assert ball_accepted and exact_rejected


@pytest.mark.parametrize("support, radius", [
    ("walk", -1), ("walk", 1.0), ("walk", True), ("walk", Fraction(1)), ("walk", "2"),
    ("asymmetric", 1), ("other_schema", 1), ("walk", 10**9), ("walk", 10**100),
], ids=str)
def test_the_ball_size_refusal_refuses_as_the_search_does(support, radius):
    # a bad radius or support gets the search's message from the count, and
    # a radius past the cap is refused by the search the count runs, which
    # stops within the level that passes the cap
    gens = {
        "walk": standard_generators(H3),
        "asymmetric": [GroupElement((1, 0, 0))],
        "other_schema": standard_generators(lattice(2)),
    }[support]
    messages = []
    for check in (ball_levels, _require_ball_size):
        with pytest.raises(ValidationError) as info:
            check(H3, gens, radius)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
