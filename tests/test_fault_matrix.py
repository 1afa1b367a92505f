"""A fault matrix: faults seeded in the machinery beneath the invariant
suite, each pinned to the records it fails.

Each fault is a monkeypatch of one library function, undone after its run,
never a rewrite of the source.  Every memo is cleared before a fault is
applied, so the faulty function computes what the run reads, and again
after it is undone, so nothing it computed outlives it.  A run is the suite
on heisenberg(1) at k = 4, r = 1, and a row pins the failing records with
their details.  A fault the ``laplacian_images`` path turns into an image
whose degree does not drop by 2 makes ``apply_laplacian`` raise, and the
error is the detail of the records whose checks it stops.  A row that fails
nothing pins no records: the suite cannot see that fault.
"""

import json
from fractions import Fraction

import pytest

import nilharmonic.laplacian as laplacian
import nilharmonic.linalg as linalg
import nilharmonic.polynomials as polynomials
import nilharmonic.serialize as serialize
import nilharmonic.verify as verify
from nilharmonic.cli import main
from nilharmonic.groups import GroupElement, heisenberg
from nilharmonic.laplacian import Measure, generator_walk, laplacian_matrix, lazy_generator_walk
from nilharmonic.polynomials import (
    _BASES, _IMAGES, _INDICES, _LAPLACIAN_IMAGES, _MOMENTS, _translation_forms,
)
from nilharmonic.suite import _group_records, run_invariant_suite

H3 = heisenberg(1)
WALK = generator_walk(H3)
# the identity at 1/2 and each generator at 1/8, and the same scale 8 with
# 1/8 moved from the identity to each of x and x^-1
LAZY = lazy_generator_walk(H3)
SHIFTED = Measure(H3, [
    (GroupElement(c), Fraction(w, 8))
    for c, w in [((0, 0, 0), 2), ((1, 0, 0), 2), ((-1, 0, 0), 2), ((0, 1, 0), 1), ((0, -1, 0), 1)]
])
ONE, XY = (0, 0, 0), (1, 1, 0)


def clear_memos():
    for clear in (_IMAGES.clear, _translation_forms.cache_clear, _BASES.clear, _INDICES.clear,
                  _MOMENTS.clear, _LAPLACIAN_IMAGES.clear, laplacian_matrix.cache_clear,
                  _group_records.cache_clear):
        clear()


def xy_image_constant(m):
    """The constant term of x*y's image under every affine map is 1 too large."""
    real = polynomials._images

    def faulty(forms, keys):
        keys = list(keys)
        return [{**image, ONE: image.get(ONE, 0) + 1} if e == XY else image
                for e, image in zip(keys, real(forms, keys))]

    m.setattr(polynomials, "_images", faulty)


def pair_weight(m):
    """``laplacian_images`` reads x and x^-1 at 1/8 more each, the identity at
    1/4 less: another symmetric probability measure's images."""
    real = polynomials.laplacian_images
    m.setattr(laplacian, "laplacian_images",
              lambda measure, keys: real(SHIFTED if measure == LAZY else measure, keys))


def lone_weight(m):
    """``laplacian_images`` reads the first atom at 1/b more, b the scale."""
    real = polynomials.laplacian_images

    def faulty(measure, keys):
        forms = _translation_forms(measure.schema, measure.support()[0], "right")
        out = []
        for image, moved in zip(real(measure, keys), polynomials._images(forms, keys)):
            acc = dict(image)
            for e, c in moved.items():
                acc[e] = acc.get(e, 0) - c
            out.append({e: c for e, c in acc.items() if c})
        return out

    m.setattr(laplacian, "laplacian_images", faulty)


def form_constant(m):
    """The first coordinate's translation form has its constant off by 1."""
    real = polynomials._translation_forms

    def faulty(schema, u, side):
        (c, lin), *rest = real(schema, u, side)
        return ((c + 1, lin), *rest)

    m.setattr(polynomials, "_translation_forms", faulty)


def moment_coefficient(m):
    """The first term of a moment image whose s-monomial is past the weight-1
    coordinates has its coefficient doubled."""
    real = polynomials.moment_images

    def faulty(schema, k, pattern):
        images = real(schema, k, pattern)
        i = next((i for i, g in enumerate(images.gammas) if g > schema.layer_ranks[0]), None)
        if i is None:
            return images
        coeffs = images.coeffs
        return images._replace(coeffs=coeffs[:i] + (2 * coeffs[i],) + coeffs[i + 1:])

    m.setattr(laplacian, "moment_images", faulty)


def peel_coordinate(m):
    """The oracles' evaluator reads a first coordinate of 2 as 3."""
    real = verify._peel

    def faulty(coeffs, levels):
        (up, ys), *rest = levels
        return real(coeffs, [(up, [3 if y == 2 else y for y in ys]), *rest])

    m.setattr(verify, "_peel", faulty)


def eliminate_tail(m):
    """The elimination drops the last tail entry of its first pivot row that
    has one."""
    real = linalg._eliminate

    def faulty(rows, cols, entries, denominator):
        f = real(rows, cols, entries, denominator)
        p = next((p for p in f.pivots if f.int_tails[p]), None)
        if p is not None:
            f.int_tails[p].popitem()
        return f

    m.setattr(linalg, "_eliminate", faulty)


def kernel_sign(m):
    """The first kernel vector with a pivot entry has that entry negated."""
    real = linalg.Factorization.kernel

    def faulty(self):
        basis = real(self)
        i = next((i for i, (_, vec) in enumerate(basis) if len(vec) > 1), None)
        if i is not None:
            d, vec = basis[i]
            p = next(iter(vec))
            basis[i] = (d, {**vec, p: -vec[p]})
        return basis

    m.setattr(linalg.Factorization, "kernel", faulty)


def render_coefficient(m):
    """The first coefficient text of ``render_terms``' term list is written 1
    larger; the polynomial's text is left as it is."""
    real = polynomials.render_terms

    def faulty(p):
        terms, text = real(p)
        if terms:
            e, coeff = terms[0]
            terms[0] = (e, str(Fraction(coeff) + 1))
        return terms, text

    m.setattr(polynomials, "render_terms", faulty)
    m.setattr(serialize, "render_terms", faulty)


SURJECTIVITY = {
    f"laplacian.surjectivity[k={k}]": "bad preimage for (0, 0, 0)" for k in (2, 3, 4)
}
ROWS = {
    # the FOUND fault: the symmetric form summed the same images, so it passed
    "xy_image_constant": (xy_image_constant, WALK, {
        "laplacian.symmetric_form": "monomial (1, 1, 0)",
        "poly.cocycle_identity": "f=x*y, x=(-1, 0, 0), y=(-1, 0, 0)",
        "poly.interpolation_soundness": "monomial (1, 1, 0), u=(-2, 0, 0), g=(-3, 0, 0)",
        "poly.product_rule": "f=x, h=y, x=(-1, 0, 0)",
    }),
    "pair_weight": (pair_weight, LAZY, {
        **SURJECTIVITY, "laplacian.symmetric_form": "monomial (2, 0, 0)",
    }),
    # the preimage of 1 has degree 2, and its image keeps degree 2
    "lone_weight": (lone_weight, WALK, {
        **{f"laplacian.matrix[k={k}]": "Laplacian image has degree 2, expected <= 0"
           for k in (2, 3, 4)},
        "laplacian.symmetric_form":
            "monomial (0, 0, 0): Laplacian image has degree 0, expected <= -2",
    }),
    "form_constant": (form_constant, WALK, {
        **{f"laplacian.matrix[k={k}]": "Laplacian image has degree 1, expected <= 0"
           for k in (2, 3, 4)},
        "laplacian.symmetric_form":
            "monomial (1, 0, 0): Laplacian image has degree 0, expected <= -1",
        "poly.cocycle_identity": "f=x, x=(-1, 0, 0), y=(-1, 0, 0)",
        "poly.degree_reduction": "monomial (1, 0, 0), coordinate 3",
        "poly.interpolation_soundness": "monomial (1, 0, 0), u=(-2, 0, 0), g=(-3, 0, 0)",
    }),
    "moment_coefficient": (moment_coefficient, WALK, {
        **SURJECTIVITY,
        "laplacian.harmonic_oracle[k=4,r=1]": "element 11: (-1, 0, 0) lhs=-1/12 rhs=-1/8",
    }),
    "peel_coordinate": (peel_coordinate, WALK, {
        "laplacian.harmonic_oracle[k=4,r=1]": "element 1: (1, 0, 0) lhs=1 rhs=5/4",
        "laplacian.symmetric_form": "monomial (1, 0, 0)",
        "poly.interpolation_soundness": "monomial (1, 0, 0), u=(-2, 0, 0), g=(2, -1, -2)",
        "poly.left_right_agreement": "monomial (1, 0, 0)",
    }),
    # solve replays the row steps, not the reduced rows, so only the
    # harmonic basis, read off the kernel, goes wrong
    "eliminate_tail": (eliminate_tail, WALK, {
        "laplacian.harmonic_oracle[k=4,r=1]": "element 14: (-1, 0, 0) lhs=-1/6 rhs=-1/4",
    }),
    "kernel_sign": (kernel_sign, WALK, {
        "laplacian.harmonic_oracle[k=4,r=1]": "element 4: (-1, 0, 0) lhs=1 rhs=2",
    }),
    # expected to pass: no record renders a polynomial unless it fails, so
    # the suite cannot see a wrong coefficient text (a FOUND line)
    "render_coefficient": (render_coefficient, WALK, {}),
}


def failing_records(fault, measure):
    """The failing records of the suite run under ``fault``, by name."""
    clear_memos()
    try:
        with pytest.MonkeyPatch.context() as m:
            fault(m)
            records = run_invariant_suite(H3, measure, 4, 1)
    finally:
        clear_memos()
    return {r.name: r.detail for r in records if not r.passed}


@pytest.mark.parametrize("measure", [WALK, LAZY], ids=["walk", "lazy"])
def test_without_a_fault_every_record_passes(measure):
    assert failing_records(lambda m: None, measure) == {}


@pytest.mark.parametrize("row", ROWS)
def test_each_fault_fails_its_pinned_records(row):
    fault, measure, expected = ROWS[row]
    assert failing_records(fault, measure) == expected
    # the fault is undone and its memo entries gone
    assert failing_records(lambda m: None, measure) == {}


def test_verify_under_a_raising_fault_exits_2_with_every_record(tmp_path, capsys):
    # the degree error of the lone weight fails its records; it does not end
    # the run with exit 3 and no records
    group, measure = tmp_path / "group.json", tmp_path / "measure.json"
    group.write_text(json.dumps({"family": "heisenberg", "n": 1}), encoding="utf-8")
    measure.write_text(json.dumps(serialize.measure_to_config(WALK)), encoding="utf-8")
    n_records = len(run_invariant_suite(H3, WALK, 4, 1))
    clear_memos()
    try:
        with pytest.MonkeyPatch.context() as m:
            lone_weight(m)
            code = main(["verify", "--group", str(group), "--measure", str(measure),
                         "--k", "4", "--radius", "1"])
    finally:
        clear_memos()
    lines = capsys.readouterr().out.splitlines()
    assert code == 2
    records = [line for line in lines if line.startswith(("ok   ", "FAIL "))]
    assert len(records) == n_records
    assert {line[5:].split(" - ", 1)[0]: line.split(" - ", 1)[1]
            for line in records if line.startswith("FAIL")} == ROWS["lone_weight"][2]
    assert lines[-1] == f"result: {n_records - 4}/{n_records} checks passed"
