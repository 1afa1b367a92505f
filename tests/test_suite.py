"""The invariant suite: pinned records, a broken group law, bad inputs, warm
and cold memos, and the group records memoized per group."""

import dataclasses
from fractions import Fraction

import pytest

import nilharmonic.groups as groups
import nilharmonic.laplacian as laplacian
import nilharmonic.suite as suite
from nilharmonic.errors import ValidationError
from nilharmonic.groups import element, heisenberg, lattice, unitriangular
from nilharmonic.laplacian import (
    Measure,
    _pair_columns,
    generator_walk,
    laplacian_matrix,
    solve_preimage,
)
from nilharmonic.polynomials import _IMAGES, _translation_forms, graded_index, pk_basis
from nilharmonic.serialize import parse_polynomial
from nilharmonic.suite import _group_records, run_invariant_suite

# dense_reference.py holds the Fraction-dict Laplacian the integer one replaced
import dense_reference as dense  # noqa: E402

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


def no_checks(monkeypatch, *also):
    """Make any check or group-record lookup of the suite fail the test, and
    the suite's functions named in ``also``."""
    def no_work(*args):
        raise AssertionError("the suite started its checks")

    for name in ("_group_records", "standard_generators", "laplacian_matrix",
                 "check_harmonic_batch", *also):
        monkeypatch.setattr(suite, name, no_work)


@pytest.mark.parametrize(
    "k, limit, shape", [(200, None, "671650 x 691951"), (5, 100, "13 x 34")]
)
def test_oversized_degree_is_refused_before_any_check(monkeypatch, k, limit, shape):
    # the matrix of the largest degree is checked first, so the run fails as a
    # bad input, not as failed checks after every smaller degree was built;
    # the group records are not looked up either, so a warm memo cannot
    # answer before the refusal
    no_checks(monkeypatch)
    if limit is not None:
        monkeypatch.setattr(laplacian, "MAX_MATRIX_CELLS", limit)
    with pytest.raises(ValidationError, match=f"degree-{k} .* {shape}, more than the limit"):
        run_invariant_suite(H3, generator_walk(H3), k, 3)


def test_oracle_ball_above_a_lowered_cap_is_refused_before_any_check(monkeypatch):
    # the radius-4 ball has 135 points: a bad input, not a failed oracle record
    no_checks(monkeypatch)
    monkeypatch.setattr(groups, "MAX_BALL_POINTS", 100)
    with pytest.raises(ValidationError, match="radius-4 ball on heisenberg.1. has more than 100"):
        run_invariant_suite(H3, generator_walk(H3), 4, 4)


def test_measure_of_another_schema_is_refused_before_any_check(monkeypatch):
    no_checks(monkeypatch, "matrix_shape", "ball_levels")
    for schema, measure in ((H3, generator_walk(lattice(3))), (U4, generator_walk(H3))):
        with pytest.raises(ValidationError, match="measure belongs to a different schema"):
            run_invariant_suite(schema, measure, 2, 1)


@pytest.mark.parametrize(
    "k, radius, message",
    [(-1, 1, "k_max must be non-negative, got -1"), (2, -1, "radius must be non-negative"),
     (True, 1, "k_max must be an int, got True"), (2, False, "radius must be an int"),
     (2.0, 1, "k_max must be an int, got 2.0"), (2, Fraction(1), "radius must be an int")],
)
def test_bad_degree_or_radius_is_refused_before_any_check(monkeypatch, k, radius, message):
    no_checks(monkeypatch, "matrix_shape", "ball_levels")
    with pytest.raises(ValidationError, match=message):
        run_invariant_suite(H3, generator_walk(H3), k, radius)


def details(schema, k):
    return {name: detail for name, _, detail in records(schema, k, 1)}


def test_group_records_are_keyed_on_degree():
    _group_records.cache_clear()
    low, high = details(H3, 1), details(H3, 4)
    assert low["poly.interpolation_soundness"] == low["poly.degree_reduction"] == "degree <= 1"
    assert high["poly.interpolation_soundness"] == "degree <= 2"
    assert high["poly.degree_reduction"] == "degree <= 4"
    assert details(H3, 2)["poly.cocycle_identity"] == "25 pairs"
    # degrees past 4 read the same group records as degree 4
    misses = _group_records.cache_info().misses
    top = details(H3, 5)
    assert all(top[name] == high[name] for name in high if not name.startswith("laplacian."))
    assert _group_records.cache_info().misses == misses


def test_a_renamed_schema_gets_its_own_group_records():
    renamed = dataclasses.replace(H3, coord_names=("a", "b", "c"))
    records(H3, 2, 1)
    misses = _group_records.cache_info().misses
    assert records(renamed, 2, 1) == records(H3, 2, 1)
    assert _group_records.cache_info().misses == misses + 1


def test_the_measure_half_is_never_memoized(monkeypatch):
    # a Laplacian that returns its argument, after the group records are warm
    records(H3, 4, 3)
    monkeypatch.setattr(suite, "apply_laplacian", lambda measure, p: p)
    failed = {name for name, passed, _ in records(H3, 4, 3) if not passed}
    assert failed == {
        "laplacian.surjectivity[k=2]", "laplacian.surjectivity[k=3]",
        "laplacian.surjectivity[k=4]", "laplacian.symmetric_form",
    }


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


# a measure with an identity atom and the pair {s, s^-1}, s = x*y, next to the
# generators, and a target with rational coefficients
MU_PAIRS = Measure(
    H3,
    [(element(H3, c), w) for c, w in [
        ((-1, 0, 0), Fraction(1, 8)), ((0, -1, 0), Fraction(1, 8)), ((0, 1, 0), Fraction(1, 8)),
        ((1, 0, 0), Fraction(1, 8)), ((1, 1, 0), Fraction(1, 8)), ((-1, -1, 1), Fraction(1, 8)),
        ((0, 0, 0), Fraction(1, 4)),
    ]],
)
TARGETS = ["3/2*x*y - z + 1/3", "x^2*y - 5/7*z^2 + y", "x^3 + 2*y*z"]


def preimages():
    return [solve_preimage(H3, MU_PAIRS, parse_polynomial(H3, q)) for q in TARGETS]


def test_warm_and_cold_memos_give_identical_records(monkeypatch):
    first = records(H3, 4, 3)
    assert records(H3, 4, 3) == first
    for clear in (_IMAGES.clear, _translation_forms.cache_clear, pk_basis.cache_clear,
                  graded_index.cache_clear, _pair_columns.cache_clear,
                  laplacian_matrix.cache_clear, _group_records.cache_clear):
        clear()
        assert records(H3, 4, 3) == first
    # solve_preimage checks its answer through apply_laplacian, which reads and
    # stores the image memo's images: cold, warm, and with room for fewer
    # image terms than one call stores (each stores 200 to 440)
    _IMAGES.clear()
    cold = preimages()
    for p, q in zip(cold, TARGETS):
        assert dense.apply_laplacian(MU_PAIRS, p) == parse_polynomial(H3, q)
    stored = _IMAGES.size
    assert stored > 0 and preimages() == cold and _IMAGES.size == stored
    monkeypatch.setattr(_IMAGES, "bound", 30)
    for _ in range(2):
        _IMAGES.clear()
        assert preimages() == cold
        assert 0 < _IMAGES.size <= 30
