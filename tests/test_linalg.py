"""Exact rational elimination: RREF, kernels, solving."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from nilharmonic import linalg
from nilharmonic.errors import ValidationError
from nilharmonic.groups import (
    basis_element,
    heisenberg,
    identity,
    inv,
    lattice,
    mul,
    standard_generators,
    unitriangular,
)
from nilharmonic.laplacian import Measure, generator_walk, laplacian_matrix
from nilharmonic.linalg import Inconsistent, RationalMatrix


def test_rref_identity():
    m = RationalMatrix.identity(3)
    r, pivots = m.rref()
    assert r == m
    assert pivots == (0, 1, 2)


def test_rref_zero():
    m = RationalMatrix.zeros(2, 3)
    r, pivots = m.rref()
    assert r == m
    assert pivots == ()


def test_rref_dependent_rows():
    m = RationalMatrix.from_rows([[1, 2], [2, 4]])
    r, pivots = m.rref()
    assert r.data == [[1, 2], [0, 0]]
    assert pivots == (0,)


def test_kernel_identity_empty():
    assert RationalMatrix.identity(4).kernel_basis() == []


def test_kernel_zero_matrix_standard_vectors():
    basis = RationalMatrix.zeros(3, 3).kernel_basis()
    assert basis == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]


def test_kernel_canonical_parameterization():
    basis = RationalMatrix.from_rows([[1, 1]]).kernel_basis()
    assert basis == [[-1, 1]]


def test_solve_identity():
    m = RationalMatrix.identity(3)
    b = [Fraction(1, 2), Fraction(-3), Fraction(7, 5)]
    assert m.solve(b) == b


def test_solve_inconsistent():
    out = RationalMatrix.from_rows([[0]]).solve([1])
    assert out == Inconsistent(row=0)


def test_solve_scalar():
    assert RationalMatrix.from_rows([[2]]).solve([3]) == [Fraction(3, 2)]


def test_solve_free_variables_zero():
    # x + y = 2 with y free
    sol = RationalMatrix.from_rows([[1, 1]]).solve([2])
    assert sol == [Fraction(2), Fraction(0)]


def test_zero_row_matrix():
    m = RationalMatrix(0, 3, [])
    assert m.kernel_basis() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert m.solve([]) == [0, 0, 0]


def test_shape_validation():
    with pytest.raises(ValidationError):
        RationalMatrix(2, 2, [[1, 2], [3]])
    with pytest.raises(ValidationError):
        RationalMatrix.identity(2).solve([1, 2, 3])


def _random_matrix(rng, rows, cols):
    return RationalMatrix(
        rows,
        cols,
        [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ],
    )


@pytest.mark.parametrize("seed", range(8))
def test_kernel_and_rank_properties(seed):
    rng = random.Random(seed)
    m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 7))
    reduced, pivots = m.rref()
    kernel = m.kernel_basis()
    assert len(pivots) + len(kernel) == m.cols
    for v in kernel:
        assert m.mul_vector(v) == [Fraction(0)] * m.rows
    # kernel vectors are independent: each has a 1 where the others are 0
    free_cols = [v.index(1) for v in kernel]
    assert len(set(free_cols)) == len(kernel)
    # rref is idempotent and deterministic
    assert reduced.rref()[0] == reduced
    assert m.rref()[0] == reduced


@pytest.mark.parametrize("seed", range(8))
def test_solve_properties(seed):
    rng = random.Random(100 + seed)
    m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
    x_true = [Fraction(rng.randint(-3, 3)) for _ in range(m.cols)]
    b = m.mul_vector(x_true)
    sol = m.solve(b)
    assert not isinstance(sol, Inconsistent)
    assert m.mul_vector(sol) == b


def _sympy_cases():
    # Laplacian matrices of the generator walks, and the seeded random matrices above
    for schema, k in ((lattice(3), 4), (heisenberg(1), 5), (unitriangular(4), 4)):
        yield laplacian_matrix(schema, generator_walk(schema), k)
    for seed in range(8):
        rng = random.Random(seed)
        yield _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 7))
    for seed in range(8):
        rng = random.Random(100 + seed)
        yield _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))


def test_rref_and_kernel_match_sympy():
    sympy = pytest.importorskip("sympy")
    for m in _sympy_cases():
        expected = sympy.Matrix(m.data)
        reduced, pivots = m.rref()
        sym_reduced, sym_pivots = expected.rref()
        assert pivots == sym_pivots
        assert reduced.data == sym_reduced.tolist()
        # both use the canonical parameterization: each free column set to 1 in turn
        assert m.kernel_basis() == [list(v) for v in expected.nullspace()]


# -- cross-checks of the sparse factorization ------------------------------------
#
# dense_reference.py holds the dense Gauss-Jordan the factorization replaced; every
# answer must equal it exactly, and sympy's where sympy has one.

import dense_reference as dense  # noqa: E402


def _sparse_random(rng, rows, cols, density=0.4):
    return [
        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < density else 0
         for _ in range(cols)]
        for _ in range(rows)
    ]


def _low_rank(rng, rows, cols, rank):
    left = _sparse_random(rng, rows, rank, 0.7)
    right = _sparse_random(rng, rank, cols, 0.5)
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*right)]
            for row in left]


def _with_zero_columns(rng, rows, cols):
    grid = _sparse_random(rng, rows, cols, 0.6)
    for j in rng.sample(range(cols), max(1, cols // 3)):
        for row in grid:
            row[j] = 0
    return grid


def _cross_check_cases():
    """(label, matrix) pairs: rank-deficient, zero-row, zero-column, wide, tall."""
    for seed in range(6):
        rng = random.Random(1000 + seed)
        rows, cols = rng.randint(3, 7), rng.randint(3, 7)
        rank = rng.randint(1, min(rows, cols) - 1)
        yield f"rank-deficient-{seed}", RationalMatrix.from_rows(
            _low_rank(rng, rows, cols, rank), cols=cols)
        yield f"zero-column-{seed}", RationalMatrix.from_rows(
            _with_zero_columns(rng, rows, cols), cols=cols)
        yield f"wide-{seed}", RationalMatrix.from_rows(
            _sparse_random(rng, rng.randint(1, 3), rng.randint(6, 10)))
        yield f"tall-{seed}", RationalMatrix.from_rows(
            _sparse_random(rng, rng.randint(6, 10), rng.randint(1, 3)))
    for cols in (0, 1, 4):
        yield f"zero-row-{cols}", RationalMatrix(0, cols, [])
    yield "zero-width", RationalMatrix(3, 0, [[], [], []])
    for schema in (lattice(2), heisenberg(1), unitriangular(3)):
        for k in (0, 1, 3):  # k <= 1: the Laplacian has no rows
            yield f"laplacian-{schema.name()}-{k}", laplacian_matrix(
                schema, generator_walk(schema), k)


def _right_hand_sides(rng, m):
    """Consistent ones (images of random vectors) and, where the rank allows,
    inconsistent ones."""
    out = []
    for _ in range(3):
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m.cols)]
        out.append(m.mul_vector(x))
    if m.rows:
        out.extend(
            [Fraction(rng.randint(-3, 3)) for _ in range(m.rows)] for _ in range(3)
        )
        out.append([Fraction(int(i == m.rows - 1)) for i in range(m.rows)])
    return out


CROSS_CASES = list(_cross_check_cases())


@pytest.mark.parametrize("label,m", CROSS_CASES, ids=[c[0] for c in CROSS_CASES])
def test_factorization_matches_dense_reference(label, m):
    data = m.data
    ref_reduced, ref_pivots = dense.rref(data, m.cols)
    reduced, pivots = m.rref()
    assert pivots == ref_pivots
    assert reduced.data == ref_reduced
    assert m.rank == dense.rank(data, m.cols)
    assert m.kernel_basis() == dense.kernel_basis(data, m.cols)
    rng = random.Random(label)
    for b in _right_hand_sides(rng, m):
        # Inconsistent is compared by value, so its row must equal the dense one
        assert m.solve(b) == dense.solve(data, m.cols, b)


def test_cross_check_cases_cover_inconsistent_systems():
    inconsistent = 0
    for label, m in CROSS_CASES:
        for b in _right_hand_sides(random.Random(label), m):
            inconsistent += isinstance(m.solve(b), Inconsistent)
    assert inconsistent >= 20


@pytest.mark.parametrize("label,m", CROSS_CASES, ids=[c[0] for c in CROSS_CASES])
def test_factorization_matches_sympy(label, m):
    sympy = pytest.importorskip("sympy")
    expected = sympy.Matrix(m.rows, m.cols, [x for row in m.data for x in row])
    sym_reduced, sym_pivots = expected.rref()
    reduced, pivots = m.rref()
    assert pivots == sym_pivots
    assert reduced.data == sym_reduced.tolist()
    assert m.rank == expected.rank()
    assert m.kernel_basis() == [list(v) for v in expected.nullspace()]
    rng = random.Random(label)
    for b in _right_hand_sides(rng, m):
        column = sympy.Matrix(m.rows, 1, b)
        sol = m.solve(b)
        if expected.hstack(expected, column).rank() > expected.rank():
            assert sol == Inconsistent(row=expected.rank())
        else:
            assert expected * sympy.Matrix(m.cols, 1, sol) == column
            assert all(sol[j] == 0 for j in range(m.cols) if j not in pivots)


def test_many_right_hand_sides_share_one_elimination(monkeypatch):
    calls = []
    original = linalg._eliminate

    def counting(*args):
        calls.append(args[:2])
        return original(*args)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    rng = random.Random(7)
    m = RationalMatrix.from_rows(_low_rank(rng, 8, 11, 5), cols=11)
    data = m.data
    f = m.factorization()
    for _ in range(40):
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(m.cols)]
        for b in (m.mul_vector(x), [Fraction(rng.randint(-2, 2)) for _ in range(m.rows)]):
            assert m.solve(b) == dense.solve(data, m.cols, b)
    assert m.kernel_basis() == dense.kernel_basis(data, m.cols)
    assert m.rank == 5 and m.rref()[1] == dense.rref(data, m.cols)[1]
    assert m.factorization() is f
    assert calls == [(8, 11)]


def test_sparse_kernel_and_solution_match_dense_forms():
    rng = random.Random(11)
    m = RationalMatrix.from_rows(_low_rank(rng, 6, 9, 4), cols=9)
    f = m.factorization()
    dense_kernel = m.kernel_basis()
    assert [[Fraction(v.get(j, 0), d) for j in range(m.cols)] for d, v in f.kernel()] == dense_kernel
    assert all(list(v) == sorted(v) and all(v.values()) for _, v in f.kernel())
    b = m.mul_vector([Fraction(j - 4) for j in range(m.cols)])
    sol = f.solve(b)
    assert [sol.get(j, 0) for j in range(m.cols)] == m.solve(b)
    assert all(sol.values())


def test_from_sparse_validates_shape_and_drops_zeros():
    m = RationalMatrix.from_sparse(2, 3, [{0: 1, 2: 0}, {1: Fraction(1, 2)}])
    assert m == RationalMatrix.from_rows([[1, 0, 0], [0, Fraction(1, 2), 0]])
    with pytest.raises(ValidationError):
        RationalMatrix.from_sparse(2, 3, [{0: 1}])
    with pytest.raises(ValidationError):
        RationalMatrix.from_sparse(1, 3, [{3: 1}])
    with pytest.raises(ValidationError):
        RationalMatrix.from_sparse(1, 3, [{-1: 1}])


# -- the integer-row elimination against the Fraction one it replaced -------------
#
# dense_reference.eliminate is the same leftmost-pivot, row-insertion elimination
# on Fraction rows; the factorization must come out equal, field by field.


def _negative_lead_rank_deficient(seed):
    # rational, rank-deficient, and every row leads with a negative entry
    rng = random.Random(2000 + seed)
    rows, cols = rng.randint(3, 9), rng.randint(3, 9)
    grid = _low_rank(rng, rows, cols, rng.randint(1, min(rows, cols) - 1))
    for row in grid:
        if next((x for x in row if x), 0) > 0:
            row[:] = [-x for x in row]
    scales = [Fraction(rng.choice([1, 2, 3, 5, 7]), rng.choice([1, 4, 6, 9])) for _ in grid]
    return RationalMatrix.from_rows([[c * x for x in row] for c, row in zip(scales, grid)],
                                    cols=cols)


def _pair_measure(schema):
    # the generators, the pair {s, s^-1} for s the product of the first two
    # basis elements, and the identity; weights 2/(3n), 1/12 and 1/6 for n generators
    gens = standard_generators(schema)
    s = mul(schema, basis_element(schema, 1), basis_element(schema, 2))
    atoms = [(g, Fraction(2, 3 * len(gens))) for g in gens]
    atoms += [(s, Fraction(1, 12)), (inv(schema, s), Fraction(1, 12))]
    return Measure(schema, atoms + [(identity(schema), Fraction(1, 6))])


def _elimination_cases():
    yield from CROSS_CASES
    for seed in range(12):
        yield f"negative-lead-{seed}", _negative_lead_rank_deficient(seed)
    for schema, k_max in ((lattice(3), 6), (heisenberg(1), 7), (unitriangular(4), 5)):
        mu = _pair_measure(schema)
        for k in range(k_max + 1):
            yield f"pair-laplacian-{schema.name()}-{k}", laplacian_matrix(schema, mu, k)


ELIMINATION_CASES = list(_elimination_cases())


def _fraction_rows(m):
    return [{j: x for j, x in enumerate(row) if x} for row in m.data]


@pytest.mark.parametrize("label,m", ELIMINATION_CASES, ids=[c[0] for c in ELIMINATION_CASES])
def test_integer_elimination_equals_fraction_reference(label, m):
    int_rows, denominator = m._int_rows()
    assert denominator > 0
    assert all(type(v) is int and v for row in int_rows for v in row.values())
    got = linalg._eliminate(m.rows, m.cols, int_rows, denominator)
    want = dense.eliminate(m.cols, _fraction_rows(m))
    assert got.pivots == want.pivots
    assert got.steps == want.steps
    # equal as values is not enough: every factor must be a Fraction
    for eliminated, _, scale, cleared in got.steps:
        assert all(type(f) is Fraction for _, f in eliminated + cleared)
        assert scale is None or type(scale) is Fraction
    # the integer tails are the Fraction ones over positive leads
    assert sorted(got.leads) == sorted(got.int_tails) == list(got.pivots)
    assert all(type(lead) is int and lead > 0 for lead in got.leads.values())
    for p, tail in got.int_tails.items():
        assert all(type(v) is int and v for v in tail.values())
        assert {c: Fraction(v, got.leads[p]) for c, v in tail.items()} == want.tails[p]
    # the kernel is read from the integer tails as integers over one positive
    # denominator, and equals the reference's
    kernel = got.kernel()
    assert all(type(d) is int and d > 0 for d, _ in kernel)
    assert all(type(x) is int and x for _, v in kernel for x in v.values())
    fractions = [{c: Fraction(x, d) for c, x in v.items()} for d, v in kernel]
    assert fractions == want.kernel()
    assert [list(v) for v in fractions] == [list(v) for v in want.kernel()]
    assert m.factorization().kernel() == kernel


def test_kernel_vectors_are_in_lowest_terms():
    # each vector equals the one read over the lcm of its leads, as the kernel
    # gave it before it was reduced, and some of those had a common factor
    reduced = 0
    for _, m in ELIMINATION_CASES:
        f = m.factorization()
        free = [c for c in range(f.cols) if c not in f.int_tails]
        for (d, vec), c in zip(f.kernel(), free, strict=True):
            column = [(p, f.int_tails[p][c]) for p in f.pivots if c in f.int_tails[p]]
            old_d = lcm(*(f.leads[p] for p, _ in column))
            old = {p: -v * (old_d // f.leads[p]) for p, v in column}
            old[c] = old_d
            assert d > 0 and gcd(d, *vec.values()) == 1
            assert {j: Fraction(v, d) for j, v in vec.items()} == {
                j: Fraction(v, old_d) for j, v in old.items()
            }
            reduced += d != old_d
    assert reduced


def test_elimination_cases_cover_every_kind_of_step():
    eliminated = cleared = scaled = zero_rows = negative_scales = 0
    for _, m in ELIMINATION_CASES:
        for e, pivot, scale, c in dense.eliminate(m.cols, _fraction_rows(m)).steps:
            eliminated += len(e)
            cleared += len(c)
            zero_rows += pivot is None
            scaled += scale is not None
            negative_scales += scale is not None and scale < 0
    assert min(eliminated, cleared, scaled, zero_rows, negative_scales) >= 20
