"""A fault matrix: faults seeded in the machinery beneath the invariant
suite, each pinned to the records and commands it fails.

Each fault is a monkeypatch of one library function, undone after its run,
never a rewrite of the source.  Every memo is cleared before each run under
a fault, so the faulty function computes what the run reads, and again after
the fault is undone, so nothing it computed outlives it.  A row runs on two
cases: heisenberg(1) with the row's measure, a generator walk or a lazy one,
and unitriangular(3) with a pair {s, s^-1} and an identity atom next to the
generators.  On each case it runs the suite at k = 4, r = 1, and the
commands' own checks: ``preimage`` on a degree-2 target, which checks its
answer as a sum of the degree-4 matrix's pivot columns, each certified as
Delta of its monomial by the mean-value oracle at S_2, and reads its
rendered target and answer back, and ``harmonic --verify`` at k = 4, r = 1,
which checks the basis with the mean-value oracle and reads its rendered
basis back.  The suite and
``harmonic --verify`` first certify the basis exactly at S_2, and search
the ball only to name a failure; the parity test shows that this changes
no record and no command, under every fault and at radii 0 to 3, but to
fail a basis that is not harmonic off the ball.  A row pins,
per case, the failing records with their details and the failing commands
with their exit codes and messages.  The Laplacian has one path, the
moment assembly, and the suite builds one matrix per run, of degree k:
the preimages, the kernel and the symmetric form, whose images are the
columns of its monomials in that matrix, are all read off it.  So a fault
in the assembly can reach each of them and both commands, a fault in the
degree-4 matrix alone reaches the symmetric form too, and an error the
assembly raises is the detail of every Laplacian record.  Every row fails some
record or command; a row that failed nothing would pin nothing, since
neither the suite nor the commands could see that fault.
"""

import contextlib
import io
import json
from fractions import Fraction
from operator import mul
from types import SimpleNamespace

import pytest

import nilharmonic.cli as cli
import nilharmonic.laplacian as laplacian
import nilharmonic.linalg as linalg
import nilharmonic.polynomials as polynomials
import nilharmonic.serialize as serialize
import nilharmonic.suite as suite
import nilharmonic.verify as verify
from nilharmonic.cli import main
from nilharmonic.groups import GroupElement, GroupSchema, heisenberg, unitriangular
from nilharmonic.laplacian import Measure, generator_walk, laplacian_matrix, lazy_generator_walk
from nilharmonic.linalg import _lowest
from nilharmonic.polynomials import (
    _BASES, _IMAGES, _INDICES, _MOMENTS, Polynomial, _translation_forms, pk_basis,
)
from nilharmonic.suite import _group_records, run_invariant_suite

H3 = heisenberg(1)
U3 = unitriangular(3)
WALK = generator_walk(H3)
# the identity at 1/2 and each generator at 1/8, and the same scale 8 with
# 1/8 moved from the identity to each of x and x^-1
LAZY = lazy_generator_walk(H3)
SHIFTED = Measure(H3, [
    (GroupElement(c), Fraction(w, 8))
    for c, w in [((0, 0, 0), 2), ((1, 0, 0), 2), ((-1, 0, 0), 2), ((0, 1, 0), 1), ((0, -1, 0), 1)]
])
# each generator at 1/8, the pair {s, s^-1} for s = a_12 a_23 at 1/8 each and
# the identity at 1/4; and the same scale 8 with 1/8 moved from the identity
# to each of a_12 and a_12^-1
U3_PAIRS = Measure(U3, [
    (GroupElement(c), Fraction(w, 8))
    for c, w in [((0, 0, 0), 2), ((1, 0, 0), 1), ((-1, 0, 0), 1), ((0, 1, 0), 1),
                 ((0, -1, 0), 1), ((1, 1, 1), 1), ((-1, -1, 0), 1)]
])
U3_SHIFTED = Measure(U3, [
    (GroupElement(c), Fraction(w, 8))
    for c, w in [((1, 0, 0), 2), ((-1, 0, 0), 2), ((0, 1, 0), 1),
                 ((0, -1, 0), 1), ((1, 1, 1), 1), ((-1, -1, 0), 1)]
])
ONE, X2, XY, X3Y = (0, 0, 0), (2, 0, 0), (1, 1, 0), (3, 1, 0)
# the row of x*y in the Laplacian's matrix, whose rows are P^(k-2) in graded
# order; a_12*a_23 has the same row on unitriangular(3)
XY_ROW = pk_basis(H3, 2).index(XY)
# and the row of z, a_13 on unitriangular(3)
Z_ROW = pk_basis(H3, 2).index((0, 0, 1))
# the degree-2 target of ``preimage``, x*y on each group
TARGETS = {H3: "x*y", U3: "a_12*a_23"}
COMMANDS = ("preimage", "harmonic --verify")


def clear_memos():
    for clear in (_IMAGES.clear, _translation_forms.cache_clear, _BASES.clear, _INDICES.clear,
                  _MOMENTS.clear, laplacian_matrix.cache_clear,
                  laplacian._certified_columns.cache_clear, _group_records.cache_clear):
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
    """The assembly reads the moments of the first generator and its inverse
    at 1/8 more each, the identity at 1/4 less: another symmetric probability
    measure's moments, over the same scale."""
    real = laplacian._assemble
    shifted = {LAZY: SHIFTED, U3_PAIRS: U3_SHIFTED}
    m.setattr(laplacian, "_assemble",
              lambda schema, measure, k: real(schema, shifted.get(measure, measure), k))


def lone_weight(m):
    """The assembly reads the first atom of the first support group at 1/b
    more, b the scale, so that atom's first moment is not cancelled."""
    real = laplacian._assemble

    def faulty(schema, measure, k):
        (pattern, ((coords, w), *atoms)), *groups = measure.groups
        bumped = ((pattern, ((coords, w + 1), *atoms)), *groups)
        return real(schema, SimpleNamespace(schema=schema, scale=measure.scale, groups=bumped), k)

    m.setattr(laplacian, "_assemble", faulty)


def degree4_image_constant(m):
    """The assembly adds 1 to the constant term of Delta x^e for every
    monomial x^e of degree 4, in every matrix that has its column."""
    real = laplacian._assemble

    def faulty(schema, measure, k):
        matrix = real(schema, measure, k)
        if k < 4:
            return matrix
        (first, *rest), den = matrix._int_rows()
        first = dict(first)
        for j, e in enumerate(pk_basis(schema, k)):
            if sum(map(mul, e, schema.weights)) == 4:
                first[j] = first.get(j, 0) + den
        first = {j: c for j, c in first.items() if c}
        return linalg.RationalMatrix._trusted(matrix.rows, matrix.cols, [first, *rest], den)

    m.setattr(laplacian, "_assemble", faulty)


def x2_column_constant(m):
    """The assembly adds 1 to the constant term of the column of x^2
    (a_12^2), Delta x^2 times the scale, in every matrix of degree 4 or more;
    the matrices of degree 2 and 3 keep it right."""
    real = laplacian._assemble

    def faulty(schema, measure, k):
        matrix = real(schema, measure, k)
        if k < 4:
            return matrix
        (first, *rest), den = matrix._int_rows()
        j = pk_basis(schema, k).index(X2)
        first = {**first, j: first.get(j, 0) + den}
        return linalg.RationalMatrix._trusted(matrix.rows, matrix.cols, [first, *rest], den)

    m.setattr(laplacian, "_assemble", faulty)


def pivot_column_constant(m):
    """The assembled degree-4 matrix has 1 added to the constant term of the
    column of x^3*y (a_12^3*a_23), a pivot column on both cases, which the
    preimage of x*y reaches."""
    real = laplacian.laplacian_matrix

    def faulty(schema, measure, k):
        matrix = real(schema, measure, k)
        if k != 4:
            return matrix
        (first, *rest), den = matrix._int_rows()
        j = pk_basis(schema, 4).index(X3Y)
        first = {**first, j: first.get(j, 0) + den}
        return linalg.RationalMatrix._trusted(matrix.rows, matrix.cols, [first, *rest], den)

    for module in (laplacian, suite):
        m.setattr(module, "laplacian_matrix", faulty)


def form_constant(m):
    """The first coordinate's translation form has its constant off by 1."""
    real = polynomials._translation_forms

    def faulty(schema, u, side):
        (c, lin), *rest = real(schema, u, side)
        return ((c + 1, lin), *rest)

    m.setattr(polynomials, "_translation_forms", faulty)


def forms_drop_law_term(m):
    """The translation forms leave out the law's last term (t, p, q): the
    form of coordinate t of u*x lacks u_p x_q, and of x*u lacks x_p u_q."""
    real = polynomials._translation_forms

    def faulty(schema, u, side):
        forms = list(real(schema, u, side))
        t, p, q = schema.law[-1]
        v, a = (q, u.coords[p]) if side == "left" else (p, u.coords[q])
        c, lin = forms[t]
        lin = dict(lin)
        lin[v] = lin.get(v, 0) - a
        forms[t] = (c, tuple((w, b) for w, b in lin.items() if b))
        return tuple(forms)

    m.setattr(polynomials, "_translation_forms", faulty)


def moments_drop_law_term(m):
    """The moment images are those of the law without its last term."""
    real = polynomials.moment_images

    def faulty(schema, k, pattern):
        broken = GroupSchema(schema.family, schema.size, schema.weights, schema.coord_names,
                             schema.law[:-1])
        return real(broken, k, pattern)

    m.setattr(laplacian, "moment_images", faulty)


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


def transform_entry(m):
    """The first entry of the row transform at the row of x*y is 1 too large,
    so only a solve whose target has an x*y term goes wrong."""
    real = linalg._eliminate

    def faulty(rows, cols, entries, denominator):
        f = real(rows, cols, entries, denominator)
        if rows > XY_ROW and f.transform[XY_ROW]:
            (p, v), *rest = f.transform[XY_ROW]
            f.transform[XY_ROW] = [(p, v + 1), *rest]
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


def kernel_plus_preimage(m):
    """The first kernel vector has the preimage of the last coordinate
    added, so the first basis element's Laplacian is z (a_13), which is 0 at
    every point of the generator walk's radius-1 ball."""
    real = linalg.Factorization.kernel

    def faulty(self):
        basis = real(self)
        if basis and self.rows > Z_ROW:
            (d, vec), (e, sol) = basis[0], self.solve((1, {Z_ROW: 1}))
            acc = {c: n * e for c, n in vec.items()}
            for c, n in sol.items():
                acc[c] = acc.get(c, 0) + n * d
            basis[0] = _lowest(d * e, {c: acc[c] for c in sorted(acc) if acc[c]})
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


def write_inputs(measure, tmp_path):
    """The group and measure files of ``measure`` as command-line options,
    and the path of its case's target file."""
    schema = measure.schema
    paths = {name: tmp_path / name for name in ("group.json", "measure.json", "target.txt")}
    paths["group.json"].write_text(json.dumps(serialize.schema_to_config(schema)), encoding="utf-8")
    paths["measure.json"].write_text(json.dumps(serialize.measure_to_config(measure)),
                                     encoding="utf-8")
    paths["target.txt"].write_text(TARGETS[schema], encoding="utf-8")
    return ["--group", str(paths["group.json"]), "--measure", str(paths["measure.json"])], \
        str(paths["target.txt"])


def run_main(argv):
    """``cli.main`` on ``argv`` from fresh memos: its exit code, stdout and
    stderr."""
    clear_memos()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def harmonic_verify(common, radius):
    return ["harmonic", *common, "--k", "4", "--verify", "--radius", str(radius)]


def failing_commands(measure, tmp_path):
    """``preimage`` and ``harmonic --verify`` on ``measure``, run through
    ``cli.main``: "exit n: message" for each that does not exit 0, by name.
    The message is the first line of stderr, or the oracle's FAIL line."""
    common, target = write_inputs(measure, tmp_path)
    failed = {}
    for name, argv in zip(COMMANDS, (["preimage", *common, target], harmonic_verify(common, 1))):
        code, out, err = run_main(argv)
        if code:
            lines = err.splitlines() or [line for line in out.splitlines() if "FAIL" in line]
            failed[name] = f"exit {code}: {lines[0]}"
    return failed


def failing_checks(fault, measure, tmp_path):
    """The failing records of the suite run under ``fault`` and the failing
    commands, by name."""
    clear_memos()
    try:
        with pytest.MonkeyPatch.context() as m:
            fault(m)
            records = run_invariant_suite(measure.schema, measure, 4, 1)
            failed = {r.name: r.detail for r in records if not r.passed}
            failed.update(failing_commands(measure, tmp_path))
    finally:
        clear_memos()
    return failed


def no_fault(m):
    pass


SURJECTIVITY = {
    f"laplacian.surjectivity[k={k}]": "bad preimage for (0, 0, 0)" for k in (2, 3, 4)
}
BAD_PREIMAGE = {"preimage": "exit 3: internal inconsistency: preimage verification failed"}


def on_both(pins):
    """The same pins on both cases."""
    return {"heisenberg(1)": pins, "unitriangular(3)": pins}



def first_moment(weight):
    """The assembly's error for a first moment of coordinate 1 that is not 0."""
    return ("Laplacian image has an out-of-range term: "
            f"the first moment of coordinate 1 is {weight}, not 0")


ROWS = {
    # translation alone goes wrong, which the Laplacian does not read: the
    # left-translation records see it
    "xy_image_constant": (xy_image_constant, WALK, {
        "heisenberg(1)": {
            "poly.cocycle_identity": "f=x*y, x=(-1, 0, 0), y=(-1, 0, 0)",
            "poly.interpolation_soundness": "monomial (1, 1, 0), u=(-2, 0, 0), g=(-3, 0, 0)",
            "poly.product_rule": "f=x, h=y, x=(-1, 0, 0)",
        },
        "unitriangular(3)": {
            "poly.cocycle_identity": "f=a_12*a_23, x=(-1, 0, 0), y=(-1, 0, 0)",
            "poly.interpolation_soundness": "monomial (1, 1, 0), u=(-2, 0, 0), g=(-3, 0, 0)",
            "poly.product_rule": "f=a_12, h=a_23, x=(-1, 0, 0)",
        },
    }),
    # the assembly is another measure's Laplacian: its kernel, its preimages,
    # its columns and preimage's certificate all fail the group law
    "pair_weight": (pair_weight, LAZY, {
        "heisenberg(1)": {
            **SURJECTIVITY,
            "laplacian.harmonic_oracle[k=4,r=1]": "element 4: (-1, 0, 0) lhs=-1/2 rhs=-3/8",
            "harmonic --verify": "exit 2: verify (radius 1): FAIL at basis element 5, "
                                 "point (-1, 0, 0), lhs -1/2, rhs -3/8",
            "laplacian.symmetric_form": "monomial (2, 0, 0)",
            **BAD_PREIMAGE,
        },
        "unitriangular(3)": {
            **SURJECTIVITY,
            "laplacian.harmonic_oracle[k=4,r=1]": "element 3: (-1, -1, 0) lhs=2/3 rhs=3/4",
            "harmonic --verify": "exit 2: verify (radius 1): FAIL at basis element 4, "
                                 "point (-1, -1, 0), lhs 2/3, rhs 3/4",
            "laplacian.symmetric_form": "monomial (2, 0, 0)",
            **BAD_PREIMAGE,
        },
    }),
    # the assembly's first-moment check raises at every degree: every
    # Laplacian record fails with the error, and both commands exit 3
    "lone_weight": (lone_weight, WALK, {
        case: {
            **{f"laplacian.matrix[k={k}]": first_moment(weight) for k in range(5)},
            "laplacian.harmonic_oracle": first_moment(weight),
            "laplacian.symmetric_form": first_moment(weight),
            "harmonic --verify": f"exit 3: internal inconsistency: {first_moment(weight)}",
            "preimage": f"exit 3: internal inconsistency: {first_moment(weight)}",
        } for case, weight in (("heisenberg(1)", "-1/4"), ("unitriangular(3)", "-1/8"))
    }),
    "form_constant": (form_constant, WALK, {
        case: {
            "poly.cocycle_identity": f"f={x}, x=(-1, 0, 0), y=(-1, 0, 0)",
            "poly.degree_reduction": "monomial (1, 0, 0), coordinate 3",
            "poly.interpolation_soundness": "monomial (1, 0, 0), u=(-2, 0, 0), g=(-3, 0, 0)",
        } for case, x in (("heisenberg(1)", "x"), ("unitriangular(3)", "a_12"))
    }),
    # the suite applies the Laplacian to no monomial above degree 3, but the
    # degree-4 matrix holds the wrong columns: its kernel, the preimage of x^2
    # and preimage's certificate fail the group law
    "degree4_image_constant": (degree4_image_constant, WALK, {
        "heisenberg(1)": {
            "laplacian.surjectivity[k=4]": "bad preimage for (2, 0, 0)",
            "laplacian.harmonic_oracle[k=4,r=1]": "element 11: (-1, 0, 0) lhs=5/3 rhs=5/2",
            "harmonic --verify": "exit 2: verify (radius 1): FAIL at basis element 12, "
                                 "point (-1, 0, 0), lhs 5/3, rhs 5/2",
            **BAD_PREIMAGE,
        },
        "unitriangular(3)": {
            "laplacian.surjectivity[k=4]": "bad preimage for (2, 0, 0)",
            "laplacian.harmonic_oracle[k=4,r=1]": "element 10: (-1, -1, 0) lhs=-3/4 rhs=-1",
            "harmonic --verify": "exit 2: verify (radius 1): FAIL at basis element 11, "
                                 "point (-1, -1, 0), lhs -3/4, rhs -1",
            **BAD_PREIMAGE,
        },
    }),
    # the column of x^2 is wrong in the degree-4 matrix alone, which the
    # suite reads the symmetric form's columns off: the symmetric form, the
    # preimage of 1, which is x^2 times a constant, and the kernel fail the
    # group law, and so does preimage's certificate on unitriangular(3)
    "x2_column_constant": (x2_column_constant, WALK, {
        "heisenberg(1)": {
            **SURJECTIVITY,
            "laplacian.harmonic_oracle[k=4,r=1]": "element 4: (-1, 0, 0) lhs=1 rhs=2",
            "harmonic --verify": "exit 2: verify (radius 1): FAIL at basis element 5, "
                                 "point (-1, 0, 0), lhs 1, rhs 2",
            "laplacian.symmetric_form": "monomial (2, 0, 0)",
        },
        "unitriangular(3)": {
            **SURJECTIVITY,
            "laplacian.harmonic_oracle[k=4,r=1]": "element 3: (-1, -1, 0) lhs=3/2 rhs=2",
            "harmonic --verify": "exit 2: verify (radius 1): FAIL at basis element 4, "
                                 "point (-1, -1, 0), lhs 3/2, rhs 2",
            "laplacian.symmetric_form": "monomial (2, 0, 0)",
            **BAD_PREIMAGE,
        },
    }),
    # translation alone goes wrong: the left-translation records see it; the
    # moment assembly does not, so the Laplacian records pass
    "forms_drop_law_term": (forms_drop_law_term, WALK, {
        case: {
            "poly.cocycle_identity": f"f={z}, x=(-1, 0, 0), y=(0, -1, 0)",
            "poly.interpolation_soundness": "monomial (0, 0, 1), u=(-2, 0, 0), g=(-2, -1, 0)",
        } for case, z in (("heisenberg(1)", "z"), ("unitriangular(3)", "a_13"))
    }),
    # the assembly alone goes wrong: the kernel, the column of the monomial
    # that reaches the dropped term, and on unitriangular(3) one preimage,
    # fail the group law; the preimage of x*y stays right
    "moments_drop_law_term": (moments_drop_law_term, WALK, {
        "heisenberg(1)": {
            "laplacian.harmonic_oracle[k=4,r=1]": "element 9: (-1, 0, 0) lhs=0 rhs=-1/2",
            "harmonic --verify": "exit 2: verify (radius 1): FAIL at basis element 10, "
                                 "point (-1, 0, 0), lhs 0, rhs -1/2",
            "laplacian.symmetric_form": "monomial (0, 1, 1)",
        },
        "unitriangular(3)": {
            "laplacian.harmonic_oracle[k=4,r=1]": "element 7: (-1, -1, 0) lhs=-1/6 rhs=-5/12",
            "harmonic --verify": "exit 2: verify (radius 1): FAIL at basis element 8, "
                                 "point (-1, -1, 0), lhs -1/6, rhs -5/12",
            "laplacian.surjectivity[k=4]": "bad preimage for (0, 0, 1)",
            "laplacian.symmetric_form": "monomial (1, 0, 1)",
        },
    }),
    "moment_coefficient": (moment_coefficient, WALK, {
        "heisenberg(1)": {
            **SURJECTIVITY,
            "laplacian.harmonic_oracle[k=4,r=1]": "element 11: (-1, 0, 0) lhs=-1/12 rhs=-1/8",
            "harmonic --verify": "exit 2: verify (radius 1): FAIL at basis element 12, "
                                 "point (-1, 0, 0), lhs -1/12, rhs -1/8",
            "laplacian.symmetric_form": "monomial (2, 0, 0)",
        },
        "unitriangular(3)": {
            **SURJECTIVITY,
            "laplacian.harmonic_oracle[k=4,r=1]": "element 3: (-1, -1, 0) lhs=3/4 rhs=7/8",
            "harmonic --verify": "exit 2: verify (radius 1): FAIL at basis element 4, "
                                 "point (-1, -1, 0), lhs 3/4, rhs 7/8",
            "laplacian.symmetric_form": "monomial (2, 0, 0)",
            **BAD_PREIMAGE,
        },
    }),
    # the oracle reads a wrong value at the centre (2, 0, 0) of S_2, so every
    # preimage record fails too, and so does preimage, whose pivot columns
    # are certified at S_2
    "peel_coordinate": (peel_coordinate, WALK, on_both({
        **SURJECTIVITY,
        "laplacian.harmonic_oracle[k=4,r=1]": "element 1: (1, 0, 0) lhs=1 rhs=5/4",
        "harmonic --verify":
            "exit 2: verify (radius 1): FAIL at basis element 2, point (1, 0, 0), lhs 1, rhs 5/4",
        "laplacian.symmetric_form": "monomial (1, 0, 0)",
        "poly.interpolation_soundness": "monomial (1, 0, 0), u=(-2, 0, 0), g=(2, -1, -2)",
        "poly.left_right_agreement": "monomial (1, 0, 0)",
        **BAD_PREIMAGE,
    })),
    # solve reads the row transform, not the reduced rows, so only the
    # harmonic basis, read off the kernel, goes wrong
    "eliminate_tail": (eliminate_tail, WALK, {
        "heisenberg(1)": {
            "laplacian.harmonic_oracle[k=4,r=1]": "element 14: (-1, 0, 0) lhs=-1/6 rhs=-1/4",
            "harmonic --verify": "exit 2: verify (radius 1): FAIL at basis element 15, "
                                 "point (-1, 0, 0), lhs -1/6, rhs -1/4",
        },
        "unitriangular(3)": {
            "laplacian.harmonic_oracle[k=4,r=1]": "element 14: (-1, -1, 0) lhs=1/48 rhs=5/96",
            "harmonic --verify": "exit 2: verify (radius 1): FAIL at basis element 15, "
                                 "point (-1, -1, 0), lhs 1/48, rhs 5/96",
        },
    }),
    # the certificate fails the column of x^3*y, which the preimage of x*y
    # reaches; the suite's preimages and kernel, read off the same matrix,
    # fail the group law too
    "pivot_column_constant": (pivot_column_constant, WALK, {
        "heisenberg(1)": {
            "laplacian.surjectivity[k=4]": "bad preimage for (1, 1, 0)",
            "laplacian.harmonic_oracle[k=4,r=1]": "element 10: (-1, 0, 0) lhs=-2 rhs=-3",
            "harmonic --verify": "exit 2: verify (radius 1): FAIL at basis element 11, "
                                 "point (-1, 0, 0), lhs -2, rhs -3",
            **BAD_PREIMAGE,
        },
        "unitriangular(3)": {
            "laplacian.surjectivity[k=4]": "bad preimage for (1, 1, 0)",
            "laplacian.harmonic_oracle[k=4,r=1]": "element 11: (-1, -1, 0) lhs=-7/12 rhs=-5/6",
            "harmonic --verify": "exit 2: verify (radius 1): FAIL at basis element 12, "
                                 "point (-1, -1, 0), lhs -7/12, rhs -5/6",
            **BAD_PREIMAGE,
        },
    }),
    # the transform is read by solves alone, so only the preimages go wrong
    "transform_entry": (transform_entry, WALK, on_both({
        "laplacian.surjectivity[k=4]": "bad preimage for (1, 1, 0)", **BAD_PREIMAGE,
    })),
    "kernel_sign": (kernel_sign, WALK, {
        "heisenberg(1)": {
            "laplacian.harmonic_oracle[k=4,r=1]": "element 4: (-1, 0, 0) lhs=1 rhs=2",
            "harmonic --verify":
                "exit 2: verify (radius 1): FAIL at basis element 5, point (-1, 0, 0), lhs 1, rhs 2",
        },
        "unitriangular(3)": {
            "laplacian.harmonic_oracle[k=4,r=1]": "element 3: (-1, -1, 0) lhs=3/2 rhs=2",
            "harmonic --verify": "exit 2: verify (radius 1): FAIL at basis element 4, "
                                 "point (-1, -1, 0), lhs 3/2, rhs 2",
        },
    }),
    # on heisenberg(1) the walk's radius-1 ball, where z is 0, cannot see the
    # fault: the witness is the point (0, 0, 1) of S_2, where the certificate
    # failed; the pairs measure's ball holds (1, 1, 1) and names it
    "kernel_plus_preimage": (kernel_plus_preimage, WALK, {
        "heisenberg(1)": {
            "laplacian.harmonic_oracle[k=4,r=1]": "element 0: (0, 0, 1) lhs=1 rhs=0",
            "harmonic --verify": "exit 2: verify (radius 1): FAIL at basis element 1, "
                                 "point (0, 0, 1), lhs 1, rhs 0",
        },
        "unitriangular(3)": {
            "laplacian.harmonic_oracle[k=4,r=1]": "element 0: (1, 1, 1) lhs=-1/6 rhs=-7/6",
            "harmonic --verify": "exit 2: verify (radius 1): FAIL at basis element 1, "
                                 "point (1, 1, 1), lhs -1/6, rhs -7/6",
        },
    }),
    # no record renders a polynomial unless it fails, so only the commands,
    # which read their reports back, see a wrong coefficient text
    "render_coefficient": (render_coefficient, WALK, on_both({
        "harmonic --verify":
            "exit 3: internal inconsistency: basis element 1 does not read back",
        "preimage": "exit 3: internal inconsistency: preimage does not read back",
    })),
}


@pytest.mark.parametrize("measure", [WALK, LAZY, U3_PAIRS], ids=["walk", "lazy", "u3_pairs"])
def test_without_a_fault_every_record_passes(measure, tmp_path):
    assert failing_checks(no_fault, measure, tmp_path) == {}


@pytest.mark.parametrize("row", ROWS)
def test_each_fault_fails_its_pinned_records(row, tmp_path):
    fault, measure, expected = ROWS[row]
    assert {case: failing_checks(fault, mu, tmp_path) for case, mu in
            (("heisenberg(1)", measure), ("unitriangular(3)", U3_PAIRS))} == expected
    # the fault is undone and its memo entries gone
    assert failing_checks(no_fault, measure, tmp_path) == {}


def certify(m, taken):
    """Rebind the suite's rule, which ``harmonic --verify`` asks too, so that
    the harmonic basis is first certified at S_(k-2) if ``taken``, and
    checked on the ball alone if not."""
    m.setattr(suite, "_certifiable", lambda *args: taken)


def runs_with_and_without_the_certificate(fault, measure, k, radius, argv):
    """The suite's records and ``harmonic --verify``'s exit code, stdout and
    stderr under ``fault``, with the certificate taken and then refused."""
    runs = []
    for taken in (True, False):
        clear_memos()
        try:
            with pytest.MonkeyPatch.context() as m:
                fault(m)
                certify(m, taken)
                runs.append((run_invariant_suite(measure.schema, measure, k, radius),
                             run_main(argv)))
        finally:
            clear_memos()
    return runs


@pytest.mark.parametrize("row", ROWS)
def test_the_certificate_changes_no_record_and_no_command(row, tmp_path):
    # a basis certified at S_2 passes on every ball, and one that fails there
    # is checked on the ball as before, so under every fault, at every radius,
    # the suite and harmonic --verify give what the ball alone gives, but
    # where the ball passes a basis that failed at S_2: the certificate then
    # fails it, with a point of S_2 as the witness
    fault, measure, _ = ROWS[row]
    for mu in (measure, U3_PAIRS):
        common, _ = write_inputs(mu, tmp_path)
        for radius in range(4):
            argv = harmonic_verify(common, radius)
            (records, command), (ball_records, ball_command) = \
                runs_with_and_without_the_certificate(fault, mu, 4, radius, argv)
            if (records, command) == (ball_records, ball_command):
                continue
            i = next(i for i, r in enumerate(records)
                     if r.name.startswith("laplacian.harmonic_oracle"))
            assert ball_records[i].passed and not records[i].passed, (mu.schema.name(), radius)
            assert records[:i] + records[i + 1:] == ball_records[:i] + ball_records[i + 1:]
            witness = records[i].detail.split(": ", 1)[1].split(" lhs=")[0]
            assert witness in {str(GroupElement(e)) for e in pk_basis(mu.schema, 2)}
            *lines, fail = command[1].splitlines()
            assert (command[0], ball_command[0]) == (2, 0) and f"point {witness}," in fail
            assert lines == ball_command[1].splitlines()[:-1]


def counted_oracle(m):
    """The arguments of each mean-value oracle call that the suite, or
    ``harmonic --verify`` through the suite, makes, the exact call at S,
    which ``verify._laplacian_checks`` makes, included."""
    calls, real = [], verify._mean_value_checks

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (suite, verify):
        m.setattr(module, "_mean_value_checks", counted)
    return calls


@pytest.mark.parametrize("fault, k, radius, n_suite, n_cli", [
    # S_2 has 7 points, the radius-3 ball 53: the basis is certified at S_2
    (no_fault, 4, 3, 1, 1),
    # S_6 has 50 points, the radius-1 ball 5: the basis is certified at S_6
    # all the same, in the call that checks the preimages
    (no_fault, 8, 1, 1, 1),
    # an element fails at S_2, so the ball is searched for the witness
    (kernel_sign, 4, 3, 2, 2),
], ids=["certified", "certified_past_the_ball", "fails_at_s"])
def test_the_ball_is_checked_only_where_the_certificate_fails(
        fault, k, radius, n_suite, n_cli, tmp_path):
    common, _ = write_inputs(WALK, tmp_path)
    argv = ["harmonic", *common, "--k", str(k), "--verify", "--radius", str(radius)]
    clear_memos()
    try:
        with pytest.MonkeyPatch.context() as m:
            fault(m)
            calls = counted_oracle(m)
            records = run_invariant_suite(H3, WALK, k, radius)
            assert len(calls) == n_suite
            calls.clear()
            command = run_main(argv)
            assert len(calls) == n_cli
            certify(m, False)
            assert (records, command) == (run_invariant_suite(H3, WALK, k, radius), run_main(argv))
    finally:
        clear_memos()
    oracle = next(r for r in records if r.name.startswith("laplacian.harmonic_oracle"))
    if fault is kernel_sign:
        # the witness is a point of the ball at radius 3, not of S_2
        assert not oracle.passed and oracle.detail == "element 4: (-3, 0, 0) lhs=9 rhs=10"
        assert command[0] == 2
    else:
        assert all(r.passed for r in records) and command[0] == 0


def test_a_failure_the_ball_cannot_see_still_fails(tmp_path):
    # the first basis element's Laplacian is z, 0 on the walk's radius-1
    # ball: checked on that ball alone, the basis passes, but the certificate
    # has failed at the point (0, 0, 1) of S_2, which is the witness
    common, _ = write_inputs(WALK, tmp_path)
    (records, command), (ball_records, ball_command) = runs_with_and_without_the_certificate(
        kernel_plus_preimage, WALK, 4, 1, harmonic_verify(common, 1))
    assert all(r.passed for r in ball_records) and ball_command[0] == 0
    assert [r for r in records if not r.passed] == [
        ("laplacian.harmonic_oracle[k=4,r=1]", False, "element 0: (0, 0, 1) lhs=1 rhs=0")]
    assert command[0] == 2 and command[1].endswith(
        "FAIL at basis element 1, point (0, 0, 1), lhs 1, rhs 0\n")


def test_a_polynomial_above_k_max_is_never_certified(tmp_path):
    # x^3 has Laplacian 3x/2 on the walk, which is 0 at the identity, all of
    # S_0: at k = 2 only the degree check keeps it from being certified, and
    # the radius-1 ball fails it
    x = Polynomial.coordinate(H3, 1)
    x3 = x * x * x
    assert not suite._certifiable(2, [x3])
    assert suite._certifiable(2, [x * x, Polynomial(H3)])
    assert suite._certifiable(3, [x3]) and suite._certifiable(4, [])
    real = laplacian.harmonic_basis

    def with_x3(schema, measure, k):
        report = real(schema, measure, k)
        return report._replace(basis=(*report.basis, x3))

    common, _ = write_inputs(WALK, tmp_path)
    clear_memos()
    try:
        with pytest.MonkeyPatch.context() as m:
            for module in (suite, cli):
                m.setattr(module, "harmonic_basis", with_x3)
            oracle = run_invariant_suite(H3, WALK, 2, 1)[-2]
            code, out, _ = run_main(["harmonic", *common, "--k", "2", "--verify", "--radius", "1"])
    finally:
        clear_memos()
    n = len(real(H3, WALK, 2).basis)
    assert oracle == ("laplacian.harmonic_oracle[k=2,r=1]", False,
                      f"element {n}: (-1, 0, 0) lhs=-1 rhs=-5/2")
    assert code == 2 and f"FAIL at basis element {n + 1}, point (-1, 0, 0)" in out


def test_verify_under_a_raising_fault_exits_2_with_every_record(tmp_path, capsys):
    # the first-moment error of the lone weight fails every Laplacian record,
    # one per degree in place of the matrix's two; it does not end the run
    # with exit 3 and no records
    group, measure = tmp_path / "group.json", tmp_path / "measure.json"
    group.write_text(json.dumps({"family": "heisenberg", "n": 1}), encoding="utf-8")
    measure.write_text(json.dumps(serialize.measure_to_config(WALK)), encoding="utf-8")
    failing = {name: detail for name, detail in ROWS["lone_weight"][2]["heisenberg(1)"].items()
               if name not in COMMANDS}
    n_records = len(_group_records(H3, 4)) + len(failing)
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
            for line in records if line.startswith("FAIL")} == failing
    assert lines[-1] == f"result: {n_records - len(failing)}/{n_records} checks passed"
