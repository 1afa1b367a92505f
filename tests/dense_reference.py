"""Reference implementations the library has replaced, kept as cross-checks.

Dense Gauss-Jordan elimination over the rationals is the elimination the
library used before its sparse factorization: leftmost-pivot order on a
dense grid of ``Fraction``, and every solve reduces a fresh augmented
matrix.  The cross-check tests compare the library's ``rref``, ``rank``,
``kernel_basis`` and ``solve`` with it.

``compose`` and ``apply_laplacian`` are the polynomial loops used before the
integer-cleared arithmetic: they accumulate ``Fraction`` coefficients term by
term, and the Laplacian sums one right translate per atom as a polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from nilharmonic.laplacian import Measure
from nilharmonic.linalg import Inconsistent
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
