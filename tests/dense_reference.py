"""Reference implementations the library has replaced, kept as cross-checks.

Dense Gauss-Jordan elimination over the rationals is the elimination the
library used before its sparse factorization: leftmost-pivot order on a
dense grid of ``Fraction``, and every solve reduces a fresh augmented
matrix.  The cross-check tests compare the library's ``rref``, ``rank``,
``kernel_basis`` and ``solve`` with it.

``eliminate`` is the sparse factorization as it ran on ``Fraction`` rows,
before the library moved it to integer-cleared rows; the library's
``_eliminate`` must produce the same pivots, tails and steps.

``compose`` and ``apply_laplacian`` are the polynomial loops used before the
integer-cleared arithmetic: they accumulate ``Fraction`` coefficients term by
term, and the Laplacian sums one right translate per atom as a polynomial.

``terms_text`` is the polynomial text as it was written from ``abs`` and
comparisons on each ``Fraction`` coefficient, before it read the numerator
and denominator.

``mul_coords`` and ``inv_coords`` are the group law as a loop over the
schema's ``(t, p, q)`` terms, before each schema compiled its law into
straight-line code.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from nilharmonic.groups import GroupSchema
from nilharmonic.laplacian import Measure
from nilharmonic.linalg import Factorization, Inconsistent
from nilharmonic.polynomials import (
    AffineForm,
    Monomial,
    Polynomial,
    _monomial_images,
    _translation_forms,
)

Grid = list[list[Fraction]]


def rref(data: Sequence[Sequence[Fraction]], cols: int) -> tuple[Grid, tuple[int, ...]]:
    """Reduced row echelon form of a rows x cols grid and its pivot columns."""
    m = [[Fraction(x) for x in row] for row in data]
    rows = len(m)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        prow = m[r]
        if prow[c] != 1:
            scale = Fraction(1) / prow[c]
            for j in range(c, cols):
                if prow[j]:
                    prow[j] *= scale
        for i in range(rows):
            if i == r:
                continue
            f = m[i][c]
            if f:
                row = m[i]
                for j in range(c, cols):
                    v = prow[j]
                    if v:
                        row[j] -= f * v
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, tuple(pivots)


def rank(data: Sequence[Sequence[Fraction]], cols: int) -> int:
    return len(rref(data, cols)[1])


def kernel_basis(data: Sequence[Sequence[Fraction]], cols: int) -> Grid:
    """Canonical kernel basis: each free column set to 1 in turn."""
    reduced, pivots = rref(data, cols)
    pivot_set = set(pivots)
    basis = []
    for fc in range(cols):
        if fc in pivot_set:
            continue
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -reduced[ri][fc]
        basis.append(v)
    return basis


def solve(
    data: Sequence[Sequence[Fraction]], cols: int, b: Sequence[Fraction]
) -> list[Fraction] | Inconsistent:
    """The solution with all free variables 0, from one augmented RREF."""
    aug = [list(row) + [bi] for row, bi in zip(data, b)]
    reduced, pivots = rref(aug, cols + 1)
    if pivots and pivots[-1] == cols:
        return Inconsistent(row=len(pivots) - 1)
    x = [Fraction(0)] * cols
    for ri, pc in enumerate(pivots):
        x[pc] = reduced[ri][cols]
    return x


def eliminate(rows: int, cols: int, entries: Sequence[dict[int, Fraction]]) -> Factorization:
    """Leftmost-pivot Gauss-Jordan on sparse ``Fraction`` rows, inserted one
    at a time; a new pivot is cleared from the earlier pivot rows."""
    tails: dict[int, dict[int, Fraction]] = {}
    steps = []
    for source in entries:
        row = dict(source)
        eliminated = []
        for p in [c for c in row if c in tails]:
            f = row.pop(p)
            get = row.get
            for c, v in tails[p].items():
                x = get(c, Fraction(0)) - f * v
                if x:
                    row[c] = x
                else:
                    del row[c]
            eliminated.append((p, f))
        if not row:
            steps.append((tuple(eliminated), None, None, ()))
            continue
        pivot = min(row)
        lead = row.pop(pivot)
        scale = None
        if lead != 1:
            scale = 1 / lead
            row = {c: v * scale for c, v in row.items()}
        cleared = []
        for q, tail in tails.items():
            g = tail.pop(pivot, None)
            if g is None:
                continue
            get = tail.get
            for c, v in row.items():
                x = get(c, Fraction(0)) - g * v
                if x:
                    tail[c] = x
                else:
                    del tail[c]
            cleared.append((q, g))
        tails[pivot] = row
        steps.append((tuple(eliminated), pivot, scale, tuple(cleared)))
    return Factorization(rows, cols, tails, steps)


def compose(p: Polynomial, forms: Sequence[AffineForm]) -> Polynomial:
    """The polynomial p(L_1(x), ..., L_n(x)), summed in ``Fraction``."""
    terms: dict[Monomial, Fraction] = {}
    for coeff, image in zip(p.terms.values(), _monomial_images(forms, p.terms)):
        for exps, c in image.items():
            key = Monomial(exps)
            terms[key] = terms.get(key, 0) + coeff * c
    return Polynomial(p.schema, terms)


def apply_laplacian(measure: Measure, p: Polynomial) -> Polynomial:
    """p - sum_s mu(s) (x -> p(x s)), one translated polynomial per atom."""
    expected = Polynomial.zero(p.schema)
    for s, w in measure.atoms.items():
        expected = expected + compose(p, _translation_forms(p.schema, s, "right")) * w
    return p - expected


def terms_text(schema: GroupSchema, ordered: Iterable[tuple[Monomial, Fraction]]) -> str:
    """Text of the non-zero terms in the given order; "0" for no terms."""
    pieces: list[str] = []
    for mono, coeff in ordered:
        factors = []
        for name, e in zip(schema.coord_names, mono.exponents):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces) or "0"


def mul_coords(schema: GroupSchema, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a*b: coordinatewise sums, then each term adds a_p*b_q to coordinate t."""
    out = [u + v for u, v in zip(a, b)]
    for t, p, q in schema.law:
        out[t] += a[p] * b[q]
    return tuple(out)


def inv_coords(schema: GroupSchema, a: tuple[int, ...]) -> tuple[int, ...]:
    """a^-1, solving a * x = identity by increasing t: every x_q a term reads is final."""
    out = [-u for u in a]
    for t, p, q in schema.law:
        out[t] -= a[p] * out[q]
    return tuple(out)
