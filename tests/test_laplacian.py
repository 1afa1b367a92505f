"""Measures, the Laplacian, harmonic bases, preimages."""

import copy
import random
from fractions import Fraction
from math import comb, gcd

import pytest

import nilharmonic.laplacian as laplacian
import nilharmonic.polynomials as polynomials
from nilharmonic.errors import InternalInconsistency, InvariantFailure, ValidationError
from nilharmonic.groups import (
    GroupElement,
    ball,
    basis_element,
    heisenberg,
    identity,
    inv,
    inv_coords,
    lattice,
    mul,
    standard_generators,
    unitriangular,
)
from nilharmonic.laplacian import (
    MAX_MATRIX_CELLS,
    Measure,
    action_is_trivial,
    apply_laplacian,
    dim_hk,
    generator_walk,
    growth_exponent_table,
    harmonic_basis,
    laplacian_matrix,
    lazy_generator_walk,
    matrix_shape,
    solve_preimage,
    uniform_measure,
)
from nilharmonic.linalg import Factorization, Inconsistent
from nilharmonic.polynomials import Polynomial, dim_pk, dim_pk_table, pk_basis
from nilharmonic.serialize import measure_from_config, measure_to_config

# dense_reference.py holds the Fraction Laplacian the integer one replaced
import dense_reference as dense

H3 = heisenberg(1)
Z1 = lattice(1)
Z2 = lattice(2)
UT4 = unitriangular(4)

MU_H3 = generator_walk(H3)
MU_Z1 = generator_walk(Z1)
MU_Z2 = generator_walk(Z2)

X, Y, Z = (Polynomial.coordinate(H3, i) for i in (1, 2, 3))


def mono(schema, *exps):
    return Polynomial(schema, {tuple(exps): 1})


# -- measure validation ----------------------------------------------------------

def test_measure_atoms_are_sorted_and_mass_one():
    assert sum(MU_H3.atoms.values()) == 1
    assert list(MU_H3.atoms) == sorted(MU_H3.atoms, key=lambda g: g.coords)


def test_asymmetric_measure_rejected_naming_atom():
    with pytest.raises(ValidationError, match=r"not symmetric.*\(1,\)"):
        Measure(Z1, {GroupElement((1,)): Fraction(3, 4), GroupElement((-1,)): Fraction(1, 4)})


def test_wrong_mass_rejected():
    with pytest.raises(ValidationError, match="mass"):
        Measure(Z1, {GroupElement((1,)): Fraction(1, 4), GroupElement((-1,)): Fraction(1, 4)})


def test_non_positive_weight_rejected():
    with pytest.raises(ValidationError, match="non-positive"):
        Measure(Z1, {GroupElement((1,)): Fraction(0), GroupElement((-1,)): Fraction(1)})


@pytest.mark.parametrize("weight", [0.25, "1/4", True], ids=repr)
def test_weights_must_be_int_or_fraction(weight):
    # 0.25 and "1/4" would be coerced to 1/4, which makes the generator walk
    atoms = dict(MU_H3.atoms)
    atoms[GroupElement((1, 0, 0))] = weight
    message = f"atom weight must be an int or a Fraction, got {weight!r}"
    with pytest.raises(ValidationError, match=message):
        Measure(H3, atoms)


@pytest.mark.parametrize("x", [1.0, True], ids=repr)
def test_atom_coordinates_must_be_ints(x):
    # the float atoms once built a measure whose harmonic basis died in elimination
    coords = [(x, 0, 0), (-x, 0, 0), (0, 1, 0), (0, -1, 0)]
    atoms = {GroupElement(c): Fraction(1, 4) for c in coords}
    with pytest.raises(ValidationError, match=f"atom coordinate must be an int, got {x!r}"):
        Measure(H3, atoms)


def test_non_adapted_measure_rejected():
    atoms = {GroupElement((1, 0)): Fraction(1, 2), GroupElement((-1, 0)): Fraction(1, 2)}
    with pytest.raises(ValidationError, match="not adapted"):
        Measure(Z2, atoms)


def test_unitriangular_walk_is_adapted():
    # the central generator of unitriangular(4) is 8 walk steps from the identity
    for n in range(2, 10):
        mu = generator_walk(unitriangular(n))
        assert len(mu.atoms) == 2 * (n - 1)


def test_lazy_walk_has_identity_atom():
    mu = lazy_generator_walk(Z1)
    assert len(mu.atoms) == 3
    assert mu.atoms[identity(Z1)] == Fraction(1, 2)


# generators, the pair {s, s^-1} with s = (1, 1, 0), and the identity
PAIRS_H3 = Measure(
    H3,
    [(g, Fraction(1, 8)) for g in standard_generators(H3)]
    + [(GroupElement(c), Fraction(1, 8)) for c in ((1, 1, 0), (-1, -1, 1))]
    + [(identity(H3), Fraction(1, 4))],
)
# the generators of unitriangular(4) and one pair {s, s^-1} whose supports
# are two maximal patterns
SPLIT_UT4 = uniform_measure(
    UT4, standard_generators(UT4) + [GroupElement((1, 1, 1, 0, 1, 0)),
                                     GroupElement((-1, -1, -1, 1, 0, 0))]
)


def test_measure_keeps_its_scale_integer_weights_and_pairs():
    assert PAIRS_H3.scale == 8
    assert PAIRS_H3.int_weights == (1, 1, 1, 2, 1, 1, 1)
    assert [(s.coords, s_inv.coords, w) for s, s_inv, w in dense.pairs(PAIRS_H3)] == [
        ((-1, -1, 1), (1, 1, 0), 1),
        ((-1, 0, 0), (1, 0, 0), 1),
        ((0, -1, 0), (0, 1, 0), 1),
    ]


def test_measure_groups_its_atoms_under_maximal_support_patterns():
    # (1, 1, 0) and the generators lie in the support of (-1, -1, 1)
    assert PAIRS_H3.groups == (
        ((0, 1, 2), (((-1, -1, 1), 1), ((-1, 0, 0), 1), ((0, -1, 0), 1), ((0, 1, 0), 1),
                     ((1, 0, 0), 1), ((1, 1, 0), 1))),
    )
    assert MU_H3.groups == (((0,), (((-1, 0, 0), 1), ((1, 0, 0), 1))),
                            ((1,), (((0, -1, 0), 1), ((0, 1, 0), 1))))
    # each atom goes to the first pattern that holds it: the generators of the
    # coordinates 1 and 2 go to (0, 1, 2, 3), and s and s^-1 go apart
    assert [(p, [c for c, _ in atoms]) for p, atoms in SPLIT_UT4.groups] == [
        ((0, 1, 2, 3), [(-1, -1, -1, 1, 0, 0), (-1, 0, 0, 0, 0, 0), (0, -1, 0, 0, 0, 0),
                        (0, 0, -1, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 1, 0, 0, 0, 0),
                        (1, 0, 0, 0, 0, 0)]),
        ((0, 1, 2, 4), [(1, 1, 1, 0, 1, 0)]),
    ]


def test_a_pair_split_over_two_groups_gives_the_laplacian():
    # the weight-1 moments of SPLIT_UT4's two groups cancel only in their sum
    for k in range(6):
        domain, codomain = pk_basis(UT4, k), pk_basis(UT4, k - 2)
        columns = [
            dense.coefficient_vector(
                apply_laplacian(SPLIT_UT4, Polynomial(UT4, {m: 1})), codomain
            )
            for m in domain
        ]
        matrix = laplacian_matrix(UT4, SPLIT_UT4, k)
        assert (matrix.rows, matrix.cols) == (len(codomain), len(domain))
        assert matrix.data == [list(row) for row in zip(*columns)]


@pytest.mark.parametrize(
    "mu",
    [MU_H3, PAIRS_H3, lazy_generator_walk(UT4, Fraction(1, 3)), generator_walk(unitriangular(5))],
    ids=repr,
)
def test_measure_pairs_cover_the_support_once(mu):
    schema = mu.schema
    # the least scale that clears every weight
    assert gcd(mu.scale, *mu.int_weights) == 1
    assert all(type(w) is int for w in mu.int_weights)
    assert [Fraction(w, mu.scale) for w in mu.int_weights] == list(mu.atoms.values())
    pairs = dense.pairs(mu)
    assert sorted(g for s, s_inv, _ in pairs for g in (s, s_inv)) == mu.support()
    assert [s for s, _, _ in pairs] == sorted(s for s, _, _ in pairs)
    for s, s_inv, w in pairs:
        assert s.coords < s_inv.coords
        assert mul(schema, s, s_inv) == identity(schema)
        assert w == mu.scale * mu.atoms[s]


# -- the Laplacian -----------------------------------------------------------------

def test_laplacian_on_line_square():
    x = Polynomial.coordinate(Z1, 1)
    assert apply_laplacian(MU_Z1, x * x) == Polynomial(Z1, {(0,): -1})


def test_laplacian_on_line_cube():
    x = Polynomial.coordinate(Z1, 1)
    assert apply_laplacian(MU_Z1, x * x * x) == -3 * x


def test_central_coordinate_is_harmonic():
    assert apply_laplacian(MU_H3, Z).is_zero
    assert apply_laplacian(MU_H3, X * Y).is_zero
    assert apply_laplacian(MU_H3, X * X - Y * Y).is_zero


def test_laplacian_kills_constants():
    for mu, schema in ((MU_H3, H3), (MU_Z2, Z2)):
        constant = Polynomial(schema, {(0,) * schema.n_coords: Fraction(5, 3)})
        assert apply_laplacian(mu, constant).is_zero


def test_laplacian_symmetric_second_difference_form():
    # p - E_s[p(.s)] agrees with (1/2) E_s[2p - p(.s) - p(.s^-1)]
    from nilharmonic.groups import inv
    from nilharmonic.polynomials import translate_right

    for mu, schema in ((MU_H3, H3), (lazy_generator_walk(Z2), Z2)):
        for m in pk_basis(schema, 3):
            p = Polynomial(schema, {m: 1})
            alt = Polynomial(schema)
            for s, w in mu.atoms.items():
                alt = alt + (
                    p * 2 - translate_right(p, s) - translate_right(p, inv(schema, s))
                ) * (w * Fraction(1, 2))
            assert apply_laplacian(mu, p) == alt


def test_laplacian_degree_drop():
    for m in pk_basis(H3, 5):
        image = apply_laplacian(MU_H3, Polynomial(H3, {m: 1}))
        if not image.is_zero:
            assert image.degree <= dense.weighted_degree(H3, m) - 2


def test_matrix_on_line_degree_two():
    A = laplacian_matrix(Z1, MU_Z1, 2)
    assert (A.rows, A.cols) == (1, 3)
    assert A.data == [[0, 0, -1]]


def test_matrix_trivial_codomain():
    A = laplacian_matrix(H3, MU_H3, 1)
    assert (A.rows, A.cols) == (0, 3)
    assert len(A.kernel_basis()) == 3


def test_matrix_annihilates_square_difference():
    A = laplacian_matrix(Z2, MU_Z2, 2)
    p = mono(Z2, 2, 0) - mono(Z2, 0, 2)
    vec = dense.coefficient_vector(p, pk_basis(Z2, 2))
    assert dense.mul_vector(A.data, vec) == [Fraction(0)] * A.rows


def test_matrix_rejects_negative_degree():
    with pytest.raises(ValidationError):
        laplacian_matrix(Z1, MU_Z1, -1)


def test_oversized_matrix_rejected_before_enumeration(monkeypatch):
    # H3 at k = 200 would be 671650 x 691951; the check reads only the dimensions
    def no_enumeration(schema, k):
        raise AssertionError("a basis was enumerated")

    for owner in (polynomials, laplacian):
        monkeypatch.setattr(owner, "pk_basis", no_enumeration)
    with pytest.raises(ValidationError, match=r"671650 x 691951, more than the limit"):
        laplacian_matrix(H3, MU_H3, 200)
    with pytest.raises(ValidationError, match="limit"):
        harmonic_basis(H3, MU_H3, 200)
    with pytest.raises(ValidationError, match="degree-402"):
        solve_preimage(H3, MU_H3, mono(H3, 400, 0, 0))


def test_huge_degree_is_refused_from_k_alone(monkeypatch):
    # dim P^j >= j + 1, so at k = 3 * 10^9 the matrix has at least 9 * 10^18
    # cells; that is decided before the O(k) dimension count runs
    def no_count(schema, k):
        raise AssertionError("the dimensions were counted")

    monkeypatch.setattr(polynomials, "dim_pk_table", no_count)
    monkeypatch.setattr(laplacian, "dim_pk", no_count)
    k = 3 * 10**9
    for schema in (H3, Z1, UT4, lattice(36)):
        with pytest.raises(ValidationError, match=r"at least 2999999999 x 3000000001, more"):
            matrix_shape(schema, k)
    with pytest.raises(ValidationError, match="at least"):
        laplacian_matrix(H3, MU_H3, k)
    with pytest.raises(ValidationError, match="at least"):
        harmonic_basis(H3, MU_H3, k)
    with pytest.raises(ValidationError, match="degree-3000000002 .* at least"):
        solve_preimage(H3, MU_H3, mono(H3, k, 0, 0))


def test_degree_bound_from_k_is_exact_on_the_integers():
    # on Z, dim P^j = j + 1, so the bound from k alone refuses exactly the
    # matrices over the limit: 4471 x 4473 is admitted, 4472 x 4474 is not
    assert 4471 * 4473 <= MAX_MATRIX_CELLS < 4472 * 4474
    assert matrix_shape(Z1, 4472) == (4471, 4473)
    with pytest.raises(ValidationError, match=r"degree-4473 .* at least 4472 x 4474"):
        matrix_shape(Z1, 4473)
    # and below k = 2 it refuses nothing
    assert [matrix_shape(H3, k) for k in (-5, 0, 1)] == [(0, 0), (0, 1), (0, 3)]


def test_matrix_cell_limit_admits_lattice_four_at_sixteen():
    z4 = lattice(4)
    assert dim_pk(z4, 14) * dim_pk(z4, 16) == 14_825_700 <= MAX_MATRIX_CELLS
    assert dim_pk(z4, 15) * dim_pk(z4, 17) > MAX_MATRIX_CELLS


TEST_SCHEMAS = [Z1, Z2, lattice(3), H3, heisenberg(2), unitriangular(3), UT4]


def _workload_measure(schema, rng, extra_pairs, with_identity):
    # the benchmark's shape: the generators, extra pairs {g, g^-1} of products
    # of two generators, maybe the identity; weights 1/(d n) with distinct random
    # d for all but the first pair, which takes the rest of the mass
    gens = standard_generators(schema)
    products = {mul(schema, s, t) for s in gens for t in gens} - set(gens) - {identity(schema)}
    candidates = sorted(
        (g for g in products if g.coords < inv_coords(schema, g.coords)), key=lambda g: g.coords
    )
    reps = [g for g in gens if g.coords < inv_coords(schema, g.coords)]
    reps += rng.sample(candidates, min(extra_pairs, len(candidates)))
    n = 2 * len(reps) + with_identity
    weights = [Fraction(1, d * n) for d in rng.sample(range(2, 9), len(reps) - 1 + with_identity)]
    first = (1 - 2 * sum(weights[: len(reps) - 1]) - sum(weights[len(reps) - 1:])) / 2
    atoms = []
    for g, w in zip(reps, [first] + weights):
        atoms += [(g, w), (GroupElement(inv_coords(schema, g.coords)), w)]
    if with_identity:
        atoms.append((identity(schema), weights[-1]))
    return Measure(schema, atoms)


def _workload_walk(seed):
    def walk(schema):
        rng = random.Random(f"{schema.name()}/{seed}")
        return _workload_measure(schema, rng, 1 + seed % 2, seed >= 2)

    walk.__name__ = f"workload_walk_{seed}"
    return walk


@pytest.mark.parametrize(
    "walk", [generator_walk, lazy_generator_walk] + [_workload_walk(seed) for seed in range(4)],
    ids=lambda walk: walk.__name__,
)
@pytest.mark.parametrize("schema", TEST_SCHEMAS, ids=str)
def test_matrix_equals_column_by_column_laplacian(schema, walk):
    # the moment assembly against one apply_laplacian per domain monomial
    mu = walk(schema)
    for k in range(6):
        domain, codomain = pk_basis(schema, k), pk_basis(schema, k - 2)
        columns = [
            dense.coefficient_vector(
                apply_laplacian(mu, Polynomial(schema, {m: 1})), codomain
            )
            for m in domain
        ]
        matrix = laplacian_matrix(schema, mu, k)
        assert (matrix.rows, matrix.cols) == (len(codomain), len(domain))
        assert matrix.data == [list(row) for row in zip(*columns)]


@pytest.mark.parametrize(
    "walk", [generator_walk] + [_workload_walk(seed) for seed in range(4)],
    ids=lambda walk: walk.__name__,
)
@pytest.mark.parametrize("schema", TEST_SCHEMAS, ids=str)
def test_integer_laplacian_equals_fraction_reference(schema, walk):
    # the integer-cleared apply_laplacian against the per-atom Fraction sum it
    # replaced; seeds 2 and 3 have an identity atom, all but the walk uneven weights
    mu = walk(schema)
    cycle = [Fraction(1, 2), Fraction(2, 3), Fraction(-5, 6), Fraction(-3), Fraction(7, 2)]
    for k in range(5):
        p = Polynomial(schema, {m: cycle[i % 5] for i, m in enumerate(pk_basis(schema, k))})
        assert apply_laplacian(mu, p) == dense.apply_laplacian(mu, p)
        for m in pk_basis(schema, k)[-3:]:
            q = Polynomial(schema, {m: Fraction(2, 3)})
            assert apply_laplacian(mu, q) == dense.apply_laplacian(mu, q)


U5 = unitriangular(5)


def _long_form_walk(schema, coords, w_gen, w_pair):
    # the generators, a pair {s, s^-1} whose coordinates of weight >= 2 are not
    # all 0, so its right translation forms have long linear parts, and the
    # identity with the rest of the mass
    s = GroupElement(coords)
    gens = standard_generators(schema)
    atoms = [(g, w_gen) for g in gens] + [(s, w_pair), (inv(schema, s), w_pair)]
    return Measure(schema, atoms + [(identity(schema), 1 - len(gens) * w_gen - 2 * w_pair)])


LAPLACIAN_IMAGE_CASES = [
    (UT4, lambda schema: _long_form_walk(schema, (1, 1, 0, 1, 0, 0),
                                         Fraction(1, 9), Fraction(1, 12))),
    (U5, lambda schema: _long_form_walk(schema, (1, 0, 1, 1, 2, 0, -1, 0, 0, 0),
                                        Fraction(1, 12), Fraction(1, 12))),
    (H3, lambda schema: PAIRS_H3),
] + [(schema, walk) for schema in (UT4, U5)
     for walk in [generator_walk, lazy_generator_walk] + [_workload_walk(seed) for seed in range(4)]]


def _laplacian_image_costs_add_up(memo):
    return memo.size == sum(memo.cost(image) for images in memo.dicts.values()
                            for image in images.values()) and all(memo.dicts.values())


def test_memoized_laplacian_images_equal_the_fraction_reference(monkeypatch):
    # apply_laplacian sums the memoized Laplacian images of p's monomials; on
    # seeded measures with pairs, an identity atom and long linear forms it
    # must equal the per-atom Fraction sum cold, warm and past a lowered bound
    memo = polynomials._LAPLACIAN_IMAGES
    cycle = [Fraction(1, 2), Fraction(2, 3), Fraction(-5, 6), Fraction(-3), Fraction(7, 2)]
    cases = []
    for schema, walk in LAPLACIAN_IMAGE_CASES:
        mu = walk(schema)
        basis = pk_basis(schema, 3)
        ps = [Polynomial(schema, {m: cycle[(i + j) % 5] for i, m in enumerate(basis[j::3])})
              for j in range(3)]
        ps.append(Polynomial(schema, {pk_basis(schema, 4)[-1]: Fraction(2, 3)}))
        cases.append((mu, ps, [dense.apply_laplacian(mu, p) for p in ps]))
    memo.clear()
    for mu, ps, want in cases:
        assert [apply_laplacian(mu, p) for p in ps] == want
    assert 0 < memo.size <= memo.bound and _laplacian_image_costs_add_up(memo)
    # warm: every image is read back, nothing more is stored, and the readers
    # modified none of them
    stored = memo.size
    kept = {mu: {e: dict(image) for e, image in memo.get(mu).items()} for mu, _, _ in cases}
    for mu, ps, want in cases:
        assert [apply_laplacian(mu, p) for p in ps] == want
    assert memo.size == stored
    assert all(memo.get(mu) == images for mu, images in kept.items())
    # a bound below one call's images: each call stores what fits, and the
    # bound holds after each
    largest = max(sum(map(memo.cost, polynomials.laplacian_images(mu, p.ints)))
                  for mu, ps, _ in cases for p in ps)
    assert largest > 20
    monkeypatch.setattr(memo, "bound", 20)
    memo.clear()
    for _ in range(2):
        for mu, ps, want in cases:
            for p, delta in zip(ps, want):
                assert apply_laplacian(mu, p) == delta
                assert 0 < memo.size <= 20 and _laplacian_image_costs_add_up(memo)


def test_equal_measures_share_laplacian_images_and_other_weights_do_not():
    memo = polynomials._LAPLACIAN_IMAGES
    memo.clear()
    p = Polynomial(UT4, {m: Fraction(i + 1, 3) for i, m in enumerate(pk_basis(UT4, 3))})
    first = _long_form_walk(UT4, (1, 1, 0, 1, 0, 0), Fraction(1, 9), Fraction(1, 12))
    twin = _long_form_walk(UT4, (1, 1, 0, 1, 0, 0), Fraction(1, 9), Fraction(1, 12))
    assert twin == first and twin is not first
    delta = apply_laplacian(first, p)
    stored = memo.size
    assert apply_laplacian(twin, p) == delta
    assert memo.size == stored and len(memo.dicts) == 1 and memo.get(twin) is memo.get(first)
    # the same atoms with other weights keep their own images
    other = _long_form_walk(UT4, (1, 1, 0, 1, 0, 0), Fraction(1, 12), Fraction(1, 12))
    assert set(other.atoms) == set(first.atoms) and other != first
    assert apply_laplacian(other, p) == dense.apply_laplacian(other, p) != delta
    assert len(memo.dicts) == 2 and memo.size > stored
    assert memo.get(other) is not memo.get(first)
    assert apply_laplacian(first, p) == delta == dense.apply_laplacian(first, p)


def moment_pair_columns(schema, s, k):
    """The columns of m -> 2m - m(x s) - m(x s^-1) over pk_basis(schema, k),
    as {row: coefficient} dicts, read off the moment images of the pair's
    joint support: -(s^gamma + s^-gamma) U_gamma(m) summed over gamma != 0."""
    pair = (s.coords, inv_coords(schema, s.coords))
    pattern = tuple(t for t in range(schema.n_coords) if any(c[t] for c in pair))
    images = polynomials.moment_images(schema, k, pattern)
    moments = [0] * dim_pk(schema, k)
    for coords in pair:
        power = [1] * len(moments)
        for g, parent, t in images.chain:
            power[g] = power[parent] * coords[t]
            moments[g] += power[g]
    columns = [{} for _ in moments]
    for j, g, i, c in zip(images.cols, images.gammas, images.betas, images.coeffs):
        if g:
            columns[j][i] = columns[j].get(i, 0) - moments[g] * c
    return [{i: c for i, c in column.items() if c} for column in columns]


@pytest.mark.parametrize("schema", [lattice(3), heisenberg(2), UT4], ids=str)
def test_memoized_pair_columns_equal_fresh_columns(schema):
    # the pair columns read off the memoized moment images equal the fresh
    # tuple-keyed sweep, and the memoized images equal fresh ones
    for s in ball(schema, standard_generators(schema), 2):
        if s.coords < inv_coords(schema, s.coords):
            for k in (2, 4):
                assert moment_pair_columns(schema, s, k) == [
                    dict(column) for column in dense.pair_columns(schema, s, k)
                ]
    memo = polynomials._MOMENTS
    warm = [(key[2], dict(images)) for key, images in memo.dicts.items()
            if key[:2] == (schema.weights, schema.law)]
    assert warm
    memo.clear()
    for pattern, images in warm:
        for k, stored in images.items():
            assert polynomials.moment_images(schema, k, pattern) == stored


def test_entries_that_the_pairs_cancel_are_dropped():
    # on heisenberg(1) the second differences of the pairs {x, y, xy, xy^-1}
    # cancel on 2, 7, 21 and 49 entries at k = 2..5; no row keeps a 0 there
    x, y = basis_element(H3, 1), basis_element(H3, 2)
    reps = [x, y, mul(H3, x, y), mul(H3, x, inv(H3, y))]
    mu = uniform_measure(H3, [g for s in reps for g in (s, inv(H3, s))])
    for k, cancelled in zip(range(2, 6), (2, 7, 21, 49)):
        sums = {}
        for s, _, ws in dense.pairs(mu):
            for j, column in enumerate(dense.pair_columns(H3, s, k)):
                for i, c in column:
                    sums[i, j] = sums.get((i, j), 0) + ws * c
        assert list(sums.values()).count(0) == cancelled
        matrix = laplacian_matrix(H3, mu, k)
        assert all(all(row.values()) for row in matrix._int_rows()[0])
        domain, codomain = pk_basis(H3, k), pk_basis(H3, k - 2)
        columns = [
            dense.coefficient_vector(
                dense.apply_laplacian(mu, Polynomial(H3, {m: 1})), codomain
            )
            for m in domain
        ]
        assert (matrix.rows, matrix.cols) == (len(codomain), len(domain))
        assert matrix.data == [list(row) for row in zip(*columns)]


# -- harmonic bases ----------------------------------------------------------------

def test_harmonic_dim_plane_degree_two():
    report = harmonic_basis(Z2, MU_Z2, 2)
    assert report.dim == 5 == report.predicted_dim


def test_harmonic_degree_zero_is_constants():
    for schema, mu in ((Z1, MU_Z1), (H3, MU_H3)):
        report = harmonic_basis(schema, mu, 0)
        assert report.dim == 1
        assert report.basis[0] == Polynomial(schema, {(0,) * schema.n_coords: 1})


def test_heisenberg_degree2_span():
    report = harmonic_basis(H3, MU_H3, 2)
    assert report.dim == 6
    basis7 = pk_basis(H3, 2)
    computed = dense.rref([dense.coefficient_vector(p, basis7) for p in report.basis], 7)[0]
    reference = dense.rref(
        [
            dense.coefficient_vector(p, basis7)
            for p in (
                Polynomial(H3, {(0, 0, 0): 1}),
                X,
                Y,
                X * X - Y * Y,
                X * Y,
                Z,
            )
        ],
        7,
    )[0]
    assert computed[: report.dim] == reference[:6]


@pytest.mark.parametrize("k", range(4))
def test_dimension_identity_small(k):
    for schema, mu in ((Z2, MU_Z2), (H3, MU_H3)):
        A = laplacian_matrix(schema, mu, k)
        assert len(A.kernel_basis()) == dim_hk(schema, k)


def test_dimension_identity_heisenberg_rank_two():
    h2 = heisenberg(2)
    mu = generator_walk(h2)
    for k in range(4):
        A = laplacian_matrix(h2, mu, k)
        assert len(A.kernel_basis()) == dim_hk(h2, k)


def test_harmonic_basis_members_are_killed():
    report = harmonic_basis(H3, MU_H3, 3)
    for p in report.basis:
        assert apply_laplacian(MU_H3, p).is_zero


# -- preimages ---------------------------------------------------------------------

def test_preimage_of_one_on_line():
    q = Polynomial(Z1, {(0,): 1})
    p_hat = solve_preimage(Z1, MU_Z1, q)
    assert p_hat.degree == 2
    assert apply_laplacian(MU_Z1, p_hat) == q


def test_preimage_of_zero_is_zero():
    assert solve_preimage(Z1, MU_Z1, Polynomial(Z1)).is_zero


def test_preimage_of_x_on_line():
    q = Polynomial.coordinate(Z1, 1)
    p_hat = solve_preimage(Z1, MU_Z1, q)
    assert apply_laplacian(MU_Z1, p_hat) == q
    assert p_hat.degree == 3


def test_preimage_on_heisenberg():
    p_hat = solve_preimage(H3, MU_H3, X)
    assert p_hat.degree == 3
    assert apply_laplacian(MU_H3, p_hat) == X


def test_preimage_supported_on_leading_coordinates():
    # when q reads only x_1..x_m, a preimage reading only x_1..x_m exists:
    # the column-restricted system stays solvable
    cases = [
        (Z2, MU_Z2, mono(Z2, 2, 0), 1),
        (H3, MU_H3, X, 1),
        (H3, MU_H3, X * Y, 2),
    ]
    for schema, mu, q, m in cases:
        k = q.degree + 2
        A = laplacian_matrix(schema, mu, k)
        domain = pk_basis(schema, k)
        keep = [
            j
            for j, monoj in enumerate(domain)
            if all(e == 0 for e in monoj[m:])
        ]
        restricted = dense.matrix([[row[j] for j in keep] for row in A.data], len(keep))
        rhs = dense.coefficient_vector(q, pk_basis(schema, k - 2))
        sol = restricted.solve(rhs)
        assert not isinstance(sol, Inconsistent)
        p_hat = Polynomial(schema, {domain[j]: c for j, c in zip(keep, sol) if c})
        assert apply_laplacian(mu, p_hat) == q


# -- dimensions and corollaries -------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", range(6))
def test_dim_hk_lattice_formula(d, k):
    expected = comb(d + k, d) - (comb(d + k - 2, d) if k >= 2 else 0)
    assert dim_hk(lattice(d), k) == expected


def test_dim_hk_examples():
    assert dim_hk(H3, 3) == 10
    assert dim_hk(H3, 0) == 1
    assert dim_hk(UT4, 0) == 1


def test_action_kernel_witnesses():
    e_z = basis_element(H3, 3)
    assert action_is_trivial(H3, MU_H3, 1, e_z)
    assert not action_is_trivial(H3, MU_H3, 2, e_z)
    assert action_is_trivial(H3, MU_H3, 2, identity(H3))


def test_growth_table_line():
    rows = growth_exponent_table(Z1, MU_Z1, 6)
    assert rows[0].dim == 1 and rows[0].ratio is None
    assert all(r.dim == 2 for r in rows[1:])
    assert rows[3].ratio == 2


def test_growth_table_heisenberg_quadratic():
    rows = growth_exponent_table(H3, MU_H3, 8)
    for r in rows[2:]:
        assert Fraction(1, 2) < r.ratio <= Fraction(3, 2)


@pytest.mark.parametrize("schema", [heisenberg(1), lattice(4)], ids=str)
def test_growth_table_reads_one_dimension_count(schema, monkeypatch):
    monkeypatch.setattr(laplacian, "dim_hk", None)
    rows = growth_exponent_table(schema, generator_walk(schema), 60)
    monkeypatch.undo()
    assert [r.k for r in rows] == list(range(61))
    assert [r.dim for r in rows] == [dim_hk(schema, k) for k in range(61)]


def test_growth_table_rejects_small_kmax():
    with pytest.raises(ValidationError):
        growth_exponent_table(Z1, MU_Z1, 1)


def test_measures_with_equal_moments_to_order_k_share_the_laplacian_on_p_k():
    # Delta on P^k reads mu only through sum_s mu(s) s^gamma for gamma of degree
    # <= k: atoms x^+-1, x^+-2 and atoms x^+-1, x^+-3 with the identity have
    # the same x^2 moment (5/4), and so, next to the same y walk, the same
    # Laplacian up to k = 3; their x^4 moments (17/4 and 37/4) differ
    y_walk = [(GroupElement((0, c, 0)), Fraction(1, 4)) for c in (-1, 1)]
    first = Measure(H3, y_walk + [(GroupElement((c, 0, 0)), Fraction(1, 8))
                                  for c in (-2, -1, 1, 2)])
    second = Measure(H3, y_walk + [(GroupElement((c, 0, 0)), w)
                                   for c, w in ((-3, Fraction(1, 18)), (-1, Fraction(1, 8)),
                                                (1, Fraction(1, 8)), (3, Fraction(1, 18)))]
                     + [(identity(H3), Fraction(5, 36))])
    assert first.scale != second.scale
    for k in range(4):
        assert laplacian_matrix(H3, first, k).data == laplacian_matrix(H3, second, k).data
        assert ([str(p) for p in harmonic_basis(H3, first, k).basis]
                == [str(p) for p in harmonic_basis(H3, second, k).basis])
    assert laplacian_matrix(H3, first, 4).data != laplacian_matrix(H3, second, 4).data
    assert harmonic_basis(H3, first, 4).basis != harmonic_basis(H3, second, 4).basis


def test_six_atom_heisenberg_walk():
    atoms = [basis_element(H3, i, s) for i in (1, 2, 3) for s in (1, -1)]
    mu6 = uniform_measure(H3, atoms)
    report = harmonic_basis(H3, mu6, 2)
    assert report.dim == 6
    # the +-e_z shifts of z cancel in the mean, so z stays harmonic
    assert apply_laplacian(mu6, Z).is_zero
    assert apply_laplacian(mu6, X * Y).is_zero
    assert apply_laplacian(mu6, X * X) == Polynomial(H3, {(0, 0, 0): Fraction(-1, 3)})


# -- the matrix memo -----------------------------------------------------------------

@pytest.fixture
def fresh_memo():
    laplacian_matrix.cache_clear()
    polynomials._MOMENTS.clear()
    yield laplacian_matrix
    laplacian_matrix.cache_clear()
    polynomials._MOMENTS.clear()


def _atoms(schema):
    gens = [basis_element(schema, i, s) for i in (1, 2) for s in (1, -1)]
    return [(identity(schema), Fraction(1, 3))] + [(g, Fraction(1, 6)) for g in gens]


def test_assembly_reads_the_pairs_and_takes_no_inverse(fresh_memo, monkeypatch):
    want = laplacian_matrix(H3, PAIRS_H3, 4).data
    laplacian_matrix.cache_clear()
    # the moment images are memoized now; only the assembly runs again, from
    # the measure's groups and moments
    monkeypatch.setattr(laplacian, "inv_coords", None)
    assert laplacian_matrix(H3, PAIRS_H3, 4).data == want


def test_equal_measures_hash_equal_and_share_one_entry(fresh_memo, monkeypatch):
    # measures built apart, one loaded from its config and one a copy, hash
    # alike; the hash is kept, so no lookup builds it from the atoms again
    forward = Measure(H3, _atoms(H3))
    backward = Measure(H3, list(reversed(_atoms(H3))))
    loaded = measure_from_config(H3, measure_to_config(backward))
    copied = copy.copy(forward)
    monkeypatch.setattr(laplacian, "frozenset", None, raising=False)
    assert forward == backward == loaded == copied
    assert hash(forward) == hash(backward) == hash(loaded) == hash(copied)
    matrices = [laplacian_matrix(H3, mu, 4) for mu in (forward, backward, loaded, copied)]
    assert all(m is matrices[0] for m in matrices)
    info = fresh_memo.cache_info()
    assert (info.currsize, info.hits, info.misses) == (1, 3, 1)
    # a different measure gets its own entry
    assert laplacian_matrix(H3, MU_H3, 4).data != laplacian_matrix(H3, forward, 4).data
    assert fresh_memo.cache_info().currsize == 2


def test_mutating_returned_values_does_not_leak_into_the_memo(fresh_memo):
    k = 4
    uncached = laplacian_matrix.__wrapped__(H3, MU_H3, k)
    rhs = dense.coefficient_vector(X * Y, pk_basis(H3, k - 2))
    int_rhs = (1, {i: int(c) for i, c in enumerate(rhs) if c})
    expected_kernel = uncached.kernel_basis()
    expected_sol = uncached.solve(rhs)
    expected_int_sol = uncached.factorization().solve(int_rhs)
    expected_reduced = uncached.rref()[0].data

    A = laplacian_matrix(H3, MU_H3, k)
    A.data[0][0] += 1
    grid = A.data
    grid[0][:] = [Fraction(7)] * A.cols
    A.kernel_basis()[0][0] = Fraction(99)
    A.factorization().kernel()[0][1].clear()
    A.solve(rhs)[0] = Fraction(99)
    A.factorization().solve(int_rhs)[1].clear()
    A.rref()[0].data[0][0] = Fraction(99)

    again = laplacian_matrix(H3, MU_H3, k)
    assert again is A
    assert again.data == uncached.data
    assert again.kernel_basis() == expected_kernel
    assert again.solve(rhs) == expected_sol
    assert again.factorization().solve(int_rhs) == expected_int_sol
    assert again.rref()[0].data == expected_reduced
    report = harmonic_basis(H3, MU_H3, k)
    assert [dense.coefficient_vector(p, pk_basis(H3, k)) for p in report.basis] == expected_kernel
    assert apply_laplacian(MU_H3, solve_preimage(H3, MU_H3, X * Y)) == X * Y


def test_more_measures_than_the_memo_holds(fresh_memo):
    size = fresh_memo.cache_info().maxsize
    measures = [lazy_generator_walk(H3, Fraction(1, n)) for n in range(2, size + 5)]
    q = X * X - Z
    for _ in range(2):
        for mu in measures:
            for k in (1, 3):
                assert (laplacian_matrix(H3, mu, k).data
                        == laplacian_matrix.__wrapped__(H3, mu, k).data)
            p_hat = solve_preimage(H3, mu, q)
            assert apply_laplacian(mu, p_hat) == q
            fresh = laplacian_matrix.__wrapped__(H3, mu, 4).solve(
                dense.coefficient_vector(q, pk_basis(H3, 2)))
            assert dense.coefficient_vector(p_hat, pk_basis(H3, 4)) == fresh
    assert fresh_memo.cache_info().currsize == size


def test_preimage_recheck_survives_the_memo(fresh_memo, monkeypatch):
    solve_preimage(H3, MU_H3, X)  # the matrix is now memoized
    from nilharmonic import laplacian

    monkeypatch.setattr(laplacian, "apply_laplacian", lambda measure, p: p)
    with pytest.raises(InternalInconsistency, match="verification failed"):
        solve_preimage(H3, MU_H3, X)


def test_predicted_dimension_check_survives_the_memo(fresh_memo, monkeypatch):
    harmonic_basis(H3, MU_H3, 3)
    from nilharmonic import laplacian

    monkeypatch.setattr(laplacian, "dim_hk", lambda schema, k: dim_hk(schema, k) + 1)
    with pytest.raises(InvariantFailure, match="predicted"):
        harmonic_basis(H3, MU_H3, 3)


def test_out_of_range_image_is_not_memoized(fresh_memo):
    # a weight-1 moment that does not cancel would put terms of degree k - 1
    # past the rows; a measure whose groups lost the atom (0, 1, 0) has one
    broken = copy.copy(PAIRS_H3)
    (pattern, atoms), = PAIRS_H3.groups
    broken.groups = ((pattern, tuple(a for a in atoms if a[0] != (0, 1, 0))),)
    for k in (1, 3):
        for _ in range(2):
            with pytest.raises(InternalInconsistency, match="out-of-range.* coordinate 2 is -1/8"):
                laplacian_matrix(H3, broken, k)
    assert fresh_memo.cache_info().currsize == 0
    assert polynomials._MOMENTS.size == 0


def pairs_h3(schema):
    return PAIRS_H3


POSITION_CASES = [(schema, generator_walk) for schema in (Z2, H3, UT4, U5)] + [
    (H3, pairs_h3),
] + [(schema, _workload_walk(seed)) for schema in (UT4, U5) for seed in range(4)]


@pytest.mark.parametrize(
    "schema, walk", POSITION_CASES,
    ids=lambda case: getattr(case, "__name__", str(case)),
)
def test_matrix_reads_weight_one_moments_by_position(fresh_memo, monkeypatch, schema, walk):
    # the weight-1 coordinates come first, and graded order puts s_t at basis
    # index 1 + t, so the assembly drops their moments without a graded index
    mu = walk(schema)
    ks = range(6 if schema is U5 else 7)
    want = [laplacian_matrix(schema, mu, k) for k in ks]
    fresh_memo.cache_clear()
    polynomials._MOMENTS.clear()

    def no_index(schema, k):
        raise AssertionError("the assembly read the graded index")

    monkeypatch.setattr(laplacian, "graded_index", no_index)
    fields = Factorization.__slots__
    for k, expected in zip(ks, want):
        got = laplacian_matrix(schema, mu, k)
        assert got is not expected
        assert got._int_rows() == expected._int_rows()
        assert [getattr(got.factorization(), f) for f in fields] == [
            getattr(expected.factorization(), f) for f in fields
        ]


def test_translate_past_the_basis_is_not_memoized(fresh_memo, monkeypatch):
    # a law term that makes x read z (weight 2) maps x^2 to a term in z^2, of
    # degree 4: no schema takes such a law, and the moment images refuse it
    heavy = copy.copy(H3)
    object.__setattr__(heavy, "law", H3.law + ((0, 2, 1),))
    real = polynomials.moment_images
    with pytest.raises(InternalInconsistency, match="outweighs"):
        real(heavy, 3, (0, 1))
    monkeypatch.setattr(laplacian, "moment_images", lambda schema, k, p: real(heavy, k, p))
    for _ in range(2):
        with pytest.raises(InternalInconsistency, match="outweighs"):
            laplacian_matrix(H3, MU_H3, 3)
    assert fresh_memo.cache_info().currsize == 0
    assert polynomials._MOMENTS.size == 0


# -- a degree or coordinate index is an int ------------------------------------------

# each call takes its degree or index as the last argument; True would be read
# as 1, 2.0 and Fraction(2) compare equal to 2, and "2" fails on the comparison
DEGREE_CALLS = {
    "harmonic_basis": lambda v: harmonic_basis(H3, MU_H3, v),
    "laplacian_matrix": lambda v: laplacian_matrix(H3, MU_H3, v),
    "dim_pk": lambda v: dim_pk(H3, v),
    "dim_pk_table": lambda v: dim_pk_table(H3, v),
    "dim_hk": lambda v: dim_hk(H3, v),
    "growth_exponent_table": lambda v: growth_exponent_table(H3, MU_H3, v),
    "action_is_trivial": lambda v: action_is_trivial(H3, MU_H3, v, basis_element(H3, 3)),
    "pk_basis": lambda v: pk_basis(H3, v),
    "Polynomial.coordinate": lambda v: Polynomial.coordinate(H3, v),
    "basis_element": lambda v: basis_element(H3, v),
    "GroupSchema.weight": lambda v: H3.weight(v),
}


@pytest.mark.parametrize("bad", [2.0, 2.5, True, Fraction(2), "2"], ids=repr)
@pytest.mark.parametrize("call", DEGREE_CALLS, ids=str)
def test_a_degree_or_index_that_is_not_an_int_is_refused(fresh_memo, call, bad):
    with pytest.raises(ValidationError):
        DEGREE_CALLS[call](bad)


def test_a_coordinate_index_out_of_range_is_refused():
    # weight(0) would read the last coordinate's weight through index -1
    assert [H3.weight(i) for i in (1, 2, 3)] == [1, 1, 2]
    for i in (0, 4, -1):
        with pytest.raises(ValidationError, match="out of range"):
            H3.weight(i)


def test_a_float_degree_misses_the_memoized_int_matrix(fresh_memo):
    assert laplacian_matrix(H3, MU_H3, 2).rows == 1
    assert laplacian_matrix(H3, MU_H3, 1).rows == 0
    for bad in (2.0, Fraction(2), True):
        with pytest.raises(ValidationError):
            laplacian_matrix(H3, MU_H3, bad)
        with pytest.raises(ValidationError):
            harmonic_basis(H3, MU_H3, bad)
    assert fresh_memo.cache_info().currsize == 2


@pytest.mark.parametrize("hold", [0.5, "1/2", None], ids=repr)
def test_a_holding_probability_that_is_not_rational_is_refused(hold):
    # 0.5 used to be refused as an "atom weight", and "1/2" failed on the comparison
    with pytest.raises(ValidationError, match="holding probability"):
        lazy_generator_walk(H3, hold)
