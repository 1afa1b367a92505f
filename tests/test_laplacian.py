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
    element,
    heisenberg,
    identity,
    inv_coords,
    lattice,
    mul,
    standard_generators,
    unitriangular,
)
from nilharmonic.laplacian import (
    MAX_MATRIX_CELLS,
    Measure,
    _pair_columns,
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
from nilharmonic.linalg import Inconsistent, RationalMatrix
from nilharmonic.polynomials import Polynomial, dim_pk, pk_basis
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
    return Polynomial.from_monomial(schema, tuple(exps))


# -- measure validation ----------------------------------------------------------

def test_measure_atoms_are_sorted_and_mass_one():
    assert sum(MU_H3.atoms.values()) == 1
    assert list(MU_H3.atoms) == sorted(MU_H3.atoms, key=lambda g: g.coords)


def test_asymmetric_measure_rejected_naming_atom():
    with pytest.raises(ValidationError, match=r"not symmetric.*\(1,\)"):
        Measure(Z1, {element(Z1, (1,)): Fraction(3, 4), element(Z1, (-1,)): Fraction(1, 4)})


def test_wrong_mass_rejected():
    with pytest.raises(ValidationError, match="mass"):
        Measure(Z1, {element(Z1, (1,)): Fraction(1, 4), element(Z1, (-1,)): Fraction(1, 4)})


def test_non_positive_weight_rejected():
    with pytest.raises(ValidationError, match="non-positive"):
        Measure(Z1, {element(Z1, (1,)): Fraction(0), element(Z1, (-1,)): Fraction(1)})


@pytest.mark.parametrize("weight", [0.25, "1/4", True], ids=repr)
def test_weights_must_be_int_or_fraction(weight):
    # 0.25 and "1/4" would be coerced to 1/4, which makes the generator walk
    atoms = dict(MU_H3.atoms)
    atoms[element(H3, (1, 0, 0))] = weight
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
    atoms = {element(Z2, (1, 0)): Fraction(1, 2), element(Z2, (-1, 0)): Fraction(1, 2)}
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
    + [(element(H3, c), Fraction(1, 8)) for c in ((1, 1, 0), (-1, -1, 1))]
    + [(identity(H3), Fraction(1, 4))],
)


def test_measure_keeps_its_scale_integer_weights_and_pairs():
    assert PAIRS_H3.scale == 8
    assert PAIRS_H3.int_weights == (1, 1, 1, 2, 1, 1, 1)
    assert [(s.coords, s_inv.coords, w) for s, s_inv, w in PAIRS_H3.pairs] == [
        ((-1, -1, 1), (1, 1, 0), 1),
        ((-1, 0, 0), (1, 0, 0), 1),
        ((0, -1, 0), (0, 1, 0), 1),
    ]


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
    assert sorted(g for s, s_inv, _ in mu.pairs for g in (s, s_inv)) == mu.support()
    assert [s for s, _, _ in mu.pairs] == sorted(s for s, _, _ in mu.pairs)
    for s, s_inv, w in mu.pairs:
        assert s.coords < s_inv.coords
        assert mul(schema, s, s_inv) == identity(schema)
        assert w == mu.scale * mu.atoms[s]


# -- the Laplacian -----------------------------------------------------------------

def test_laplacian_on_line_square():
    x = Polynomial.coordinate(Z1, 1)
    assert apply_laplacian(MU_Z1, x * x) == Polynomial.constant(Z1, -1)


def test_laplacian_on_line_cube():
    x = Polynomial.coordinate(Z1, 1)
    assert apply_laplacian(MU_Z1, x * x * x) == -3 * x


def test_central_coordinate_is_harmonic():
    assert apply_laplacian(MU_H3, Z).is_zero
    assert apply_laplacian(MU_H3, X * Y).is_zero
    assert apply_laplacian(MU_H3, X * X - Y * Y).is_zero


def test_laplacian_kills_constants():
    for mu, schema in ((MU_H3, H3), (MU_Z2, Z2)):
        assert apply_laplacian(mu, Polynomial.constant(schema, Fraction(5, 3))).is_zero


def test_laplacian_symmetric_second_difference_form():
    # p - E_s[p(.s)] agrees with (1/2) E_s[2p - p(.s) - p(.s^-1)]
    from nilharmonic.groups import inv
    from nilharmonic.polynomials import translate_right

    for mu, schema in ((MU_H3, H3), (lazy_generator_walk(Z2), Z2)):
        for m in pk_basis(schema, 3):
            p = Polynomial.from_monomial(schema, m)
            alt = Polynomial.zero(schema)
            for s, w in mu.atoms.items():
                alt = alt + (
                    p * 2 - translate_right(p, s) - translate_right(p, inv(schema, s))
                ) * (w * Fraction(1, 2))
            assert apply_laplacian(mu, p) == alt


def test_laplacian_degree_drop():
    for m in pk_basis(H3, 5):
        image = apply_laplacian(MU_H3, Polynomial.from_monomial(H3, m))
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
    vec = p.coefficient_vector(pk_basis(Z2, 2))
    assert A.mul_vector(vec) == [Fraction(0)] * A.rows


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
        atoms += [(g, w), (element(schema, inv_coords(schema, g.coords)), w)]
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
    # the pair-summed assembly against one apply_laplacian per domain monomial
    mu = walk(schema)
    for k in range(6):
        domain, codomain = pk_basis(schema, k), pk_basis(schema, k - 2)
        columns = [
            apply_laplacian(mu, Polynomial.from_monomial(schema, m)).coefficient_vector(codomain)
            for m in domain
        ]
        reference = RationalMatrix(len(codomain), len(domain), zip(*columns))
        assert laplacian_matrix(schema, mu, k) == reference


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
            q = Polynomial.from_monomial(schema, m, Fraction(2, 3))
            assert apply_laplacian(mu, q) == dense.apply_laplacian(mu, q)


@pytest.mark.parametrize("schema", [lattice(3), heisenberg(2), UT4], ids=str)
def test_memoized_pair_columns_equal_fresh_columns(schema):
    for s in ball(schema, standard_generators(schema), 2):
        if s.coords < inv_coords(schema, s.coords):
            for k in (2, 4):
                assert _pair_columns(schema, s, k) == _pair_columns.__wrapped__(schema, s, k)


# -- harmonic bases ----------------------------------------------------------------

def test_harmonic_dim_plane_degree_two():
    report = harmonic_basis(Z2, MU_Z2, 2)
    assert report.dim == 5 == report.predicted_dim


def test_harmonic_degree_zero_is_constants():
    for schema, mu in ((Z1, MU_Z1), (H3, MU_H3)):
        report = harmonic_basis(schema, mu, 0)
        assert report.dim == 1
        assert report.basis[0] == Polynomial.constant(schema, 1)


def test_heisenberg_degree2_span():
    report = harmonic_basis(H3, MU_H3, 2)
    assert report.dim == 6
    basis7 = pk_basis(H3, 2)
    computed = RationalMatrix.from_rows(
        [p.coefficient_vector(basis7) for p in report.basis], cols=7
    )
    reference = RationalMatrix.from_rows(
        [
            p.coefficient_vector(basis7)
            for p in (
                Polynomial.constant(H3, 1),
                X,
                Y,
                X * X - Y * Y,
                X * Y,
                Z,
            )
        ],
        cols=7,
    )
    assert computed.rref()[0].data[: report.dim] == reference.rref()[0].data[:6]


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
    q = Polynomial.constant(Z1, 1)
    p_hat = solve_preimage(Z1, MU_Z1, q)
    assert p_hat.degree == 2
    assert apply_laplacian(MU_Z1, p_hat) == q


def test_preimage_of_zero_is_zero():
    assert solve_preimage(Z1, MU_Z1, Polynomial.zero(Z1)).is_zero


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
        restricted = RationalMatrix(
            A.rows, len(keep), [[row[j] for j in keep] for row in A.data]
        )
        rhs = q.coefficient_vector(pk_basis(schema, k - 2))
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


def test_six_atom_heisenberg_walk():
    atoms = [basis_element(H3, i, s) for i in (1, 2, 3) for s in (1, -1)]
    mu6 = uniform_measure(H3, atoms)
    report = harmonic_basis(H3, mu6, 2)
    assert report.dim == 6
    # the +-e_z shifts of z cancel in the mean, so z stays harmonic
    assert apply_laplacian(mu6, Z).is_zero
    assert apply_laplacian(mu6, X * Y).is_zero
    assert apply_laplacian(mu6, X * X) == Polynomial.constant(H3, Fraction(-1, 3))


# -- the matrix memo -----------------------------------------------------------------

@pytest.fixture
def fresh_memo():
    laplacian_matrix.cache_clear()
    _pair_columns.cache_clear()
    yield laplacian_matrix
    laplacian_matrix.cache_clear()
    _pair_columns.cache_clear()


def _atoms(schema):
    gens = [basis_element(schema, i, s) for i in (1, 2) for s in (1, -1)]
    return [(identity(schema), Fraction(1, 3))] + [(g, Fraction(1, 6)) for g in gens]


def test_assembly_reads_the_pairs_and_takes_no_inverse(fresh_memo, monkeypatch):
    want = laplacian_matrix(H3, PAIRS_H3, 4)
    laplacian_matrix.cache_clear()
    # the pair columns are memoized now; only the assembly runs again
    monkeypatch.setattr(laplacian, "inv_coords", None)
    assert laplacian_matrix(H3, PAIRS_H3, 4) == want


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
    assert laplacian_matrix(H3, MU_H3, 4) != laplacian_matrix(H3, forward, 4)
    assert fresh_memo.cache_info().currsize == 2


def test_mutating_returned_values_does_not_leak_into_the_memo(fresh_memo):
    k = 4
    uncached = laplacian_matrix.__wrapped__(H3, MU_H3, k)
    rhs = (X * Y).coefficient_vector(pk_basis(H3, k - 2))
    expected_kernel = uncached.kernel_basis()
    expected_sol = uncached.solve(rhs)
    expected_reduced = uncached.rref()[0].data

    A = laplacian_matrix(H3, MU_H3, k)
    A.data[0][0] += 1
    grid = A.data
    grid[0][:] = [Fraction(7)] * A.cols
    A.kernel_basis()[0][0] = Fraction(99)
    A.factorization().kernel()[0][1].clear()
    A.solve(rhs)[0] = Fraction(99)
    A.factorization().solve(rhs).clear()
    A.rref()[0].data[0][0] = Fraction(99)

    again = laplacian_matrix(H3, MU_H3, k)
    assert again is A
    assert again == uncached
    assert again.kernel_basis() == expected_kernel
    assert again.solve(rhs) == expected_sol
    assert again.rref()[0].data == expected_reduced
    report = harmonic_basis(H3, MU_H3, k)
    assert [p.coefficient_vector(pk_basis(H3, k)) for p in report.basis] == expected_kernel
    assert apply_laplacian(MU_H3, solve_preimage(H3, MU_H3, X * Y)) == X * Y


def test_more_measures_than_the_memo_holds(fresh_memo):
    size = fresh_memo.cache_info().maxsize
    measures = [lazy_generator_walk(H3, Fraction(1, n)) for n in range(2, size + 5)]
    q = X * X - Z
    for _ in range(2):
        for mu in measures:
            for k in (1, 3):
                assert laplacian_matrix(H3, mu, k) == laplacian_matrix.__wrapped__(H3, mu, k)
            p_hat = solve_preimage(H3, mu, q)
            assert apply_laplacian(mu, p_hat) == q
            fresh = laplacian_matrix.__wrapped__(H3, mu, 4).solve(
                q.coefficient_vector(pk_basis(H3, 2)))
            assert p_hat.coefficient_vector(pk_basis(H3, 4)) == fresh
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


def test_out_of_range_image_is_not_memoized(fresh_memo, monkeypatch):
    from nilharmonic import laplacian

    real = laplacian.graded_images
    # H3 at k = 3: rows 0..2 are P^1, indices 3..12 the rest of P^3, and 13 is
    # the sweep's index for a term past the basis
    for stray_row in (3, 12, 13, 10**6):
        def stray(schema, u, side, k, row=stray_row):
            return [{**image, row: 1} for image in real(schema, u, side, k)]

        monkeypatch.setattr(laplacian, "graded_images", stray)
        for _ in range(2):
            with pytest.raises(InternalInconsistency, match="out-of-range"):
                laplacian_matrix(H3, MU_H3, 3)
        assert fresh_memo.cache_info().currsize == 0
        assert _pair_columns.cache_info().currsize == 0


def test_translate_past_the_basis_is_not_memoized(fresh_memo, monkeypatch):
    # a form of x that reads z (weight 2) maps x^3 to degree 4: the sweep's
    # up table has no index for it, and the sweep refuses it
    from nilharmonic import polynomials

    real = polynomials._translation_forms

    def heavy(schema, u, side):
        (c, lin), *rest = real(schema, u, side)
        return ((c, lin + ((2, 1),)), *rest)

    # the images are keyed by the forms, so the heavy ones share nothing
    monkeypatch.setattr(polynomials, "_translation_forms", heavy)
    with pytest.raises(InternalInconsistency, match="out-of-range"):
        polynomials.graded_images(H3, basis_element(H3, 1, 1), "right", 3)
    for _ in range(2):
        with pytest.raises(InternalInconsistency, match="out-of-range"):
            laplacian_matrix(H3, MU_H3, 3)
    assert fresh_memo.cache_info().currsize == 0
    assert _pair_columns.cache_info().currsize == 0
