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
from nilharmonic.linalg import Inconsistent

import dense_reference as dense
from dense_reference import matrix


def _identity(n):
    return matrix([[int(i == j) for j in range(n)] for i in range(n)])


def _zeros(rows, cols):
    return matrix([[0] * cols for _ in range(rows)], cols)


def test_rref_identity():
    m = _identity(3)
    r, pivots = m.rref()
    assert r.data == m.data
    assert pivots == (0, 1, 2)


def test_rref_zero():
    m = _zeros(2, 3)
    r, pivots = m.rref()
    assert r.data == m.data
    assert pivots == ()


def test_rref_dependent_rows():
    m = matrix([[1, 2], [2, 4]])
    r, pivots = m.rref()
    assert r.data == [[1, 2], [0, 0]]
    assert pivots == (0,)


def test_kernel_identity_empty():
    assert _identity(4).kernel_basis() == []


def test_kernel_zero_matrix_standard_vectors():
    basis = _zeros(3, 3).kernel_basis()
    assert basis == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]


def test_kernel_canonical_parameterization():
    basis = matrix([[1, 1]]).kernel_basis()
    assert basis == [[-1, 1]]


def test_solve_identity():
    m = _identity(3)
    b = [Fraction(1, 2), Fraction(-3), Fraction(7, 5)]
    assert m.solve(b) == b


def test_solve_inconsistent():
    out = matrix([[0]]).solve([1])
    assert out == Inconsistent(row=0)


def test_solve_scalar():
    assert matrix([[2]]).solve([3]) == [Fraction(3, 2)]


def test_solve_free_variables_zero():
    # x + y = 2 with y free
    sol = matrix([[1, 1]]).solve([2])
    assert sol == [Fraction(2), Fraction(0)]


def test_zero_row_matrix():
    m = matrix([], 3)
    assert m.kernel_basis() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert m.solve([]) == [0, 0, 0]


def test_shape_validation():
    with pytest.raises(ValidationError):
        _identity(2).solve([1, 2, 3])


def _random_matrix(rng, rows, cols):
    return matrix(
        [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ],
        cols,
    )


@pytest.mark.parametrize("seed", range(8))
def test_kernel_and_rank_properties(seed):
    rng = random.Random(seed)
    m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 7))
    reduced, pivots = m.rref()
    kernel = m.kernel_basis()
    assert len(pivots) + len(kernel) == m.cols
    for v in kernel:
        assert dense.mul_vector(m.data, v) == [Fraction(0)] * m.rows
    # kernel vectors are independent: each has a 1 where the others are 0
    free_cols = [v.index(1) for v in kernel]
    assert len(set(free_cols)) == len(kernel)
    # rref is idempotent and deterministic
    assert reduced.rref()[0].data == reduced.data
    assert m.rref()[0].data == reduced.data


@pytest.mark.parametrize("seed", range(8))
def test_solve_properties(seed):
    rng = random.Random(100 + seed)
    m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
    x_true = [Fraction(rng.randint(-3, 3)) for _ in range(m.cols)]
    b = dense.mul_vector(m.data, x_true)
    sol = m.solve(b)
    assert not isinstance(sol, Inconsistent)
    assert dense.mul_vector(m.data, sol) == b


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
        yield f"rank-deficient-{seed}", matrix(_low_rank(rng, rows, cols, rank), cols)
        yield f"zero-column-{seed}", matrix(_with_zero_columns(rng, rows, cols), cols)
        yield f"wide-{seed}", matrix(_sparse_random(rng, rng.randint(1, 3), rng.randint(6, 10)))
        yield f"tall-{seed}", matrix(_sparse_random(rng, rng.randint(6, 10), rng.randint(1, 3)))
    for cols in (0, 1, 4):
        yield f"zero-row-{cols}", matrix([], cols)
    yield "zero-width", matrix([[], [], []], 0)
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
        out.append(dense.mul_vector(m.data, x))
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
    assert len(m.factorization().pivots) == dense.rank(data, m.cols)
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
    assert len(m.factorization().pivots) == expected.rank()
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
    m = matrix(_low_rank(rng, 8, 11, 5), 11)
    data = m.data
    f = m.factorization()
    for _ in range(40):
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(m.cols)]
        for b in (dense.mul_vector(data, x), [Fraction(rng.randint(-2, 2)) for _ in range(m.rows)]):
            assert m.solve(b) == dense.solve(data, m.cols, b)
    assert m.kernel_basis() == dense.kernel_basis(data, m.cols)
    assert len(f.pivots) == 5 and m.rref()[1] == dense.rref(data, m.cols)[1]
    assert m.factorization() is f
    assert calls == [(8, 11)]


def _int_vector(b):
    """A dense Fraction vector as (d, {index: n}) over the lcm d of its denominators."""
    d = lcm(*(x.denominator for x in b))
    return d, {i: x.numerator * (d // x.denominator) for i, x in enumerate(b) if x}


def _as_fractions(v, cols):
    d, vec = v
    return [Fraction(vec.get(j, 0), d) for j in range(cols)]


def test_sparse_kernel_and_solution_match_dense_forms():
    rng = random.Random(11)
    m = matrix(_low_rank(rng, 6, 9, 4), 9)
    f = m.factorization()
    dense_kernel = m.kernel_basis()
    assert [_as_fractions(v, m.cols) for v in f.kernel()] == dense_kernel
    assert all(list(v) == sorted(v) and all(v.values()) for _, v in f.kernel())
    b = dense.mul_vector(m.data, [Fraction(j - 4) for j in range(m.cols)])
    # the sparse solve takes and gives integers over one denominator, the
    # kernel's form; the dense solve converts at its boundary
    sol = f.solve(_int_vector(b))
    assert _as_fractions(sol, m.cols) == m.solve(b)
    d, vec = sol
    assert list(vec) == sorted(vec) and all(vec.values())
    assert d > 0 and gcd(d, *vec.values()) == 1


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
    return matrix([[c * x for x in row] for c, row in zip(scales, grid)], cols)


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
    assert got.denominator == denominator
    # every recorded factor is an int pair (or triple), and read as a Fraction
    # it is the reference's: v / denominator, sigma / lead and h / l
    for eliminated, _, scale, cleared in got.int_steps:
        assert all(type(x) is int for step in eliminated + cleared for x in step)
        assert scale is None or (len(scale) == 2 and all(type(x) is int for x in scale))
    assert [
        (
            tuple((p, Fraction(v, denominator)) for p, v in eliminated),
            pivot,
            None if scale is None else Fraction(*scale),
            tuple((q, Fraction(h, l)) for q, h, l in cleared),
        )
        for eliminated, pivot, scale, cleared in got.int_steps
    ] == want.steps
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


# -- the integer solve ------------------------------------------------------------
#
# Factorization.solve replays the recorded integer factors on a right-hand side
# given as integers over one denominator; its answers must equal the dense
# reference's, in lowest terms.


def _sparse_right_hand_sides(rng, m):
    """Images of sparse random vectors, then sparse random vectors, which are
    inconsistent for most rank-deficient matrices."""
    out = []
    for _ in range(4):
        x = [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3, 5]))
             if rng.random() < 0.3 else Fraction(0) for _ in range(m.cols)]
        out.append(dense.mul_vector(m.data, x))
    for _ in range(4):
        out.append([Fraction(rng.randint(-4, 4), rng.choice([1, 2, 6]))
                    if rng.random() < 0.3 else Fraction(0) for _ in range(m.rows)])
    return out


@pytest.mark.parametrize("label,m", ELIMINATION_CASES, ids=[c[0] for c in ELIMINATION_CASES])
def test_integer_solve_equals_dense_reference(label, m):
    data = m.data
    f = m.factorization()
    for b in _sparse_right_hand_sides(random.Random(label), m):
        got = f.solve(_int_vector(b))
        want = dense.solve(data, m.cols, b)
        if isinstance(want, Inconsistent):
            assert got == want  # the same row
            continue
        d, vec = got
        assert type(d) is int and d > 0
        assert all(type(j) is int and type(n) is int and n for j, n in vec.items())
        assert gcd(d, *vec.values()) == 1
        assert _as_fractions(got, m.cols) == want
        assert m.solve(b) == want


def test_integer_solve_cases_cover_both_outcomes():
    outcomes = [
        isinstance(m.factorization().solve(_int_vector(b)), Inconsistent)
        for label, m in ELIMINATION_CASES
        for b in _sparse_right_hand_sides(random.Random(label), m)
    ]
    assert outcomes.count(True) >= 50 and outcomes.count(False) >= 200


def test_integer_solve_keeps_a_denominator_that_does_not_cancel():
    # 2 x = 1/3: the input denominator stays; 2 x = 4/6 cancels to x = 1/3
    f = matrix([[2]]).factorization()
    assert f.solve((3, {0: 1})) == (6, {0: 1})
    assert f.solve((6, {0: 4})) == (3, {0: 1})
    assert f.solve((7, {})) == (1, {})
    assert f.solve((1, {0: 0})) == (1, {})


@pytest.mark.parametrize("rhs", [
    (0, {0: 1}), (-1, {0: 1}), (1.0, {0: 1}), (True, {0: 1}), (Fraction(1), {0: 1}),
    (1, {2: 1}), (1, {-1: 1}), (1, {1.0: 1}), (1, {True: 1}),
    (1, {0: 1.5}), (1, {0: Fraction(1, 2)}), (1, {0: True}), (1, {0: "1"}),
    [1, {0: 1}], (1, [1, 0]), (1, {0: 1}, 2), [Fraction(1), Fraction(0)],
], ids=repr)
def test_integer_solve_refuses_a_malformed_right_hand_side(rhs):
    f = _identity(2).factorization()
    with pytest.raises(ValidationError):
        f.solve(rhs)


# -- only ints and Fractions enter a dense right-hand side --------------------------


BAD_VALUES = [0.25, 0.0, True, False, "1/2", "0", None]


@pytest.mark.parametrize("bad", BAD_VALUES, ids=repr)
def test_matrix_solve_and_mul_vector_refuse_non_rational_entries(bad):
    # solve is the one matrix method that takes a dense vector
    m = matrix([[2, 0], [0, 1]])
    with pytest.raises(ValidationError):
        m.solve([bad, 1])
    with pytest.raises(ValidationError):
        m.solve([1, bad])

