"""Exact rational elimination: RREF, kernels, solving."""

import random
from fractions import Fraction

import pytest

from nilharmonic.errors import ValidationError
from nilharmonic.groups import heisenberg, lattice, unitriangular
from nilharmonic.laplacian import generator_walk, laplacian_matrix
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
