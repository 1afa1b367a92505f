"""The invariant suite: pinned records, a broken group law, warm and cold memos."""

import dataclasses

import pytest

import nilharmonic.laplacian as laplacian
import nilharmonic.suite as suite
from nilharmonic.errors import ValidationError
from nilharmonic.groups import heisenberg, lattice, unitriangular
from nilharmonic.laplacian import _pair_columns, generator_walk, laplacian_matrix
from nilharmonic.polynomials import _translation_forms
from nilharmonic.suite import run_invariant_suite
from nilharmonic.verify import _difference_points

H3 = heisenberg(1)
U4 = unitriangular(4)


def records(schema, k, radius):
    suite = run_invariant_suite(schema, generator_walk(schema), k, radius)
    return [(r.name, r.passed, r.detail) for r in suite]


def expected(b2, sizes, nullities, targets):
    """Every record of an all-green suite at k=4, r=3 on a generator walk."""
    laplacian = []
    for k, (nullity, n_targets) in enumerate(zip(nullities, targets)):
        laplacian += [
            (f"laplacian.dimension_identity[k={k}]", True, f"nullity {nullity}, predicted {nullity}"),
            (f"laplacian.surjectivity[k={k}]", True, f"{n_targets} targets"),
        ]
    return [
        ("group.associativity", True, f"{b2}^3 triples"),
        ("group.identity_inverse", True, ""),
        ("group.coordinate_order", True, f"{b2}^2 pairs"),
        ("group.basis_decomposition", True, ""),
        ("group.ball_growth", True, f"sizes {sizes}"),
        ("poly.interpolation_soundness", True, "degree <= 2"),
        ("poly.degree_reduction", True, "degree <= 4"),
        ("poly.cocycle_identity", True, "25 pairs"),
        ("poly.product_rule", True, ""),
        ("poly.left_right_agreement", True, ""),
        *laplacian,
        ("laplacian.harmonic_oracle[k=4,r=3]", True, f"{nullities[-1]} basis elements"),
        ("laplacian.symmetric_form", True, ""),
    ]


@pytest.mark.parametrize(
    "schema, pinned",
    [
        (H3, expected(17, [1, 5, 17, 53, 135], [1, 3, 6, 10, 15], [0, 0, 1, 3, 7])),
        (lattice(2), expected(13, [1, 5, 13, 25, 41], [1, 3, 5, 7, 9], [0, 0, 1, 3, 6])),
        (unitriangular(3), expected(17, [1, 5, 17, 53, 135], [1, 3, 6, 10, 15], [0, 0, 1, 3, 7])),
    ],
    ids=str,
)
def test_suite_records_are_pinned(schema, pinned):
    assert records(schema, 4, 3) == pinned


@pytest.mark.parametrize(
    "k, limit, shape", [(200, None, "671650 x 691951"), (5, 100, "13 x 34")]
)
def test_oversized_degree_is_refused_before_any_check(monkeypatch, k, limit, shape):
    # the matrix of the largest degree is checked first, so the run fails as a
    # bad input, not as failed checks after every smaller degree was built
    def no_work(*args):
        raise AssertionError("the suite started its checks")

    monkeypatch.setattr(suite, "ball", no_work)
    if limit is not None:
        monkeypatch.setattr(laplacian, "MAX_MATRIX_CELLS", limit)
    with pytest.raises(ValidationError, match=f"degree-{k} .* {shape}, more than the limit"):
        run_invariant_suite(H3, generator_walk(H3), k, 3)


def test_broken_law_fails_the_group_checks():
    broken = dataclasses.replace(U4, law=U4.law[:-1])
    failed = [r for r in records(broken, 2, 1) if not r[1]]
    assert failed == [
        (
            "group.associativity",
            False,
            "failed at (GroupElement(coords=(-2, 0, 0, 0, 0, 0)), "
            "GroupElement(coords=(-1, -1, 0, 0, 0, 0)), "
            "GroupElement(coords=(-1, 0, -1, 0, 0, 0)))",
        ),
        ("group.identity_inverse", False, "failed at (-1, -1, -1, 0, 0, 0)"),
    ]


def test_warm_and_cold_memos_give_identical_records():
    first = records(H3, 4, 3)
    assert records(H3, 4, 3) == first
    for memo in (_translation_forms, _difference_points, _pair_columns, laplacian_matrix):
        memo.cache_clear()
        assert records(H3, 4, 3) == first
