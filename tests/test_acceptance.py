"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison is exact (integer/rational); the only tolerances are the
stated wall-clock budgets.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import itertools
import time
from fractions import Fraction
from math import comb

from nilharmonic.groups import (
    ball,
    basis_element,
    heisenberg,
    lattice,
    mul,
    standard_generators,
    unitriangular,
)
from nilharmonic.laplacian import (
    action_is_trivial,
    apply_laplacian,
    dim_pk,
    generator_walk,
    growth_exponent_table,
    harmonic_basis,
    laplacian_matrix,
    lazy_generator_walk,
    solve_preimage,
    uniform_measure,
)
from nilharmonic.polynomials import (
    Polynomial,
    left_derivative,
    pk_basis,
    restrict_to_sublattice,
    translate_left,
)
from nilharmonic.verify import check_harmonic_batch, check_left_right_agreement

# the dense Gauss-Jordan of dense_reference.py compares spans and counts ranks
import dense_reference as dense

H3 = heisenberg(1)


def _heisenberg_six_atom_walk():
    atoms = [basis_element(H3, i, s) for i in (1, 2, 3) for s in (1, -1)]
    return uniform_measure(H3, atoms)


def _criterion3_configs():
    """(label, schema, measure, k_max, oracle_radius) for the dimension-identity set."""
    configs = []
    for d in (1, 2, 3):
        ld = lattice(d)
        configs.append((f"lattice({d})+simple", ld, generator_walk(ld), 5, 5))
        configs.append((f"lattice({d})+lazy", ld, lazy_generator_walk(ld), 5, 5))
    configs.append(("heisenberg(1)+4gen", H3, generator_walk(H3), 5, 5))
    configs.append(("heisenberg(1)+6atom", H3, _heisenberg_six_atom_walk(), 5, 5))
    u4 = unitriangular(4)
    configs.append(("unitriangular(4)+elementary", u4, generator_walk(u4), 4, 3))
    return configs


def _report(n, label, t0, budget=None):
    elapsed = time.time() - t0
    suffix = f" [budget {budget:.0f}s]" if budget else ""
    print(f"criterion {n:>2} ({label}): PASS ({elapsed:.2f}s){suffix}", flush=True)
    if budget is not None:
        assert elapsed < budget


def test_criterion_01_lattice_kernel_dims():
    t0 = time.time()
    for d in range(1, 5):
        schema = lattice(d)
        mu = generator_walk(schema)
        for k in range(9):
            nullity = len(laplacian_matrix(schema, mu, k).kernel_basis())
            expected = comb(d + k, d) - (comb(d + k - 2, d) if k >= 2 else 0)
            assert nullity == expected, f"d={d}, k={k}: {nullity} != {expected}"
    _report(1, "lattice kernel dimensions", t0, budget=10)


def test_criterion_02_heisenberg_degree2_basis():
    t0 = time.time()
    mu = generator_walk(H3)
    report = harmonic_basis(H3, mu, 2)
    assert report.dim == 6
    x, y, z = (Polynomial.coordinate(H3, i) for i in (1, 2, 3))
    reference = [Polynomial(H3, {(0, 0, 0): 1}), x, y, x * x - y * y, x * y, z]
    basis7 = pk_basis(H3, 2)
    computed_rref = dense.rref([dense.coefficient_vector(p, basis7) for p in report.basis], 7)[0]
    reference_rref = dense.rref([dense.coefficient_vector(p, basis7) for p in reference], 7)[0]
    assert computed_rref[:6] == reference_rref[:6]
    _report(2, "Heisenberg degree-2 basis", t0, budget=1)


def test_criterion_03_dimension_identity():
    t0 = time.time()
    for label, schema, mu, k_max, _ in _criterion3_configs():
        for k in range(k_max + 1):
            nullity = len(laplacian_matrix(schema, mu, k).kernel_basis())
            expected = dim_pk(schema, k) - dim_pk(schema, k - 2)
            assert nullity == expected, f"{label}, k={k}: {nullity} != {expected}"
    _report(3, "dimension identity", t0, budget=120)


def test_criterion_04_surjectivity():
    t0 = time.time()
    for label, schema, mu, k_max, _ in _criterion3_configs():
        for q_mono in pk_basis(schema, k_max - 2):
            q = Polynomial(schema, {q_mono: 1})
            p_hat = solve_preimage(schema, mu, q)
            assert apply_laplacian(mu, p_hat) == q, f"{label}, q={q}"
    _report(4, "surjectivity", t0, budget=120)


def test_criterion_05_oracle_harmonicity():
    t0 = time.time()
    jobs = []
    for d in range(1, 5):
        schema = lattice(d)
        mu = generator_walk(schema)
        for k in range(9):
            jobs.append((schema, mu, k, 5))
    jobs.append((H3, generator_walk(H3), 2, 5))
    for _, schema, mu, k_max, radius in _criterion3_configs():
        for k in range(k_max + 1):
            jobs.append((schema, mu, k, radius))
    for schema, mu, k, radius in jobs:
        report = harmonic_basis(schema, mu, k)
        checks = check_harmonic_batch(schema, mu, list(report.basis), radius)
        bad = next((i for i, c in enumerate(checks) if not c.passed), None)
        assert bad is None, (
            f"{schema.name()}, k={k}: basis element {bad} fails at "
            f"{checks[bad].witness}: {checks[bad].lhs} != {checks[bad].rhs}"
        )
    _report(5, "oracle harmonicity", t0, budget=120)


def test_criterion_06_degree_reduction():
    t0 = time.time()
    schemas = [lattice(d) for d in range(1, 5)]
    schemas += [H3, heisenberg(2), unitriangular(3), unitriangular(4)]
    for schema in schemas:
        for mono in pk_basis(schema, 5):
            p = Polynomial(schema, {mono: 1})
            d = p.degree
            for i in range(1, schema.n_coords + 1):
                dp = left_derivative(p, basis_element(schema, i))
                if not dp.is_zero:
                    assert dp.degree <= d - schema.weight(i), (
                        f"{schema.name()}: d_{i} {mono}"
                    )
    _report(6, "degree reduction", t0)


def test_criterion_07_left_right_and_identities():
    t0 = time.time()
    budget = 2000
    for schema in (H3, lattice(2)):
        gens = standard_generators(schema)
        b2 = ball(schema, gens, 2)

        # left/right equivalence at each monomial's own degree, and failure
        # of the left check one order below
        for mono in pk_basis(schema, 2):
            p = Polynomial(schema, {mono: 1})
            w = p.degree
            res = check_left_right_agreement(schema, p, w, 2, budget=budget)
            assert res.passed and res.left.passed and res.right.passed
            if w >= 1:
                low = check_left_right_agreement(schema, p, w - 1, 2, budget=budget)
                assert low.passed and not low.left.passed

        # cocycle identity over all radius-2 pairs (fewer than 2000 here)
        pairs = list(itertools.islice(itertools.product(b2, repeat=2), budget))
        fs = [Polynomial(schema, {m: 1}) for m in pk_basis(schema, 3)]
        for f in fs:
            for u, v in pairs:
                lhs = left_derivative(f, mul(schema, u, v))
                rhs = translate_left(left_derivative(f, u), v) + left_derivative(f, v)
                assert lhs == rhs

        # product rule over all radius-2 elements
        coords = [Polynomial.coordinate(schema, i) for i in range(1, schema.n_coords + 1)]
        triples = list(
            itertools.islice(itertools.product(coords, coords, b2), budget)
        )
        for f, h, u in triples:
            lhs = left_derivative(f * h, u)
            rhs = translate_left(f, u) * left_derivative(h, u) + left_derivative(f, u) * h
            assert lhs == rhs
    _report(7, "left/right equivalence and identities", t0)


def test_criterion_08_action_kernel():
    t0 = time.time()
    mu = generator_walk(H3)
    e_z = basis_element(H3, 3)
    assert action_is_trivial(H3, mu, 1, e_z) is True
    assert action_is_trivial(H3, mu, 2, e_z) is False
    _report(8, "action kernel witnesses", t0)


def test_criterion_09_growth_bounds():
    t0 = time.time()
    rows = growth_exponent_table(H3, generator_walk(H3), 12)
    dims = [r.dim for r in rows[2:]]
    assert dims == [6, 10, 15, 21, 28, 36, 45, 55, 66, 78, 91]
    ratios = [r.ratio for r in rows[2:]]
    lo, hi = Fraction(91, 144), Fraction(3, 2)  # frozen golden bounds
    assert min(ratios) == lo and max(ratios) == hi
    assert all(lo <= r <= hi for r in ratios)
    _report(9, "growth bounds", t0, budget=5)


def test_criterion_10_restriction_bijection():
    t0 = time.time()
    schema = lattice(2)
    for m in ([[2, 0], [0, 1]], [[1, 1], [0, 2]]):
        for k in range(5):
            basis = pk_basis(schema, k)
            rows = [
                dense.coefficient_vector(
                    restrict_to_sublattice(Polynomial(schema, {mono: 1}), m), basis
                )
                for mono in basis
            ]
            rank = dense.rank(rows, len(basis))
            assert rank == dim_pk(schema, k), f"M={m}, k={k}"
    _report(10, "restriction bijection", t0)
