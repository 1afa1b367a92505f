"""Reference implementations the library has replaced, kept as cross-checks.

Dense Gauss-Jordan elimination over the rationals is the elimination the
library used before its sparse factorization: leftmost-pivot order on a
dense grid of ``Fraction``, and every solve reduces a fresh augmented
matrix.  The cross-check tests compare the library's ``rref``, ``rank``,
``kernel_basis`` and ``solve`` with it.

``eliminate`` is the sparse factorization as it ran on ``Fraction`` rows,
before the library moved it to integer rows; the library's ``_eliminate``
must produce the same pivots, tails and steps, and its kernel, read from
the integer tails, must equal the one read here from the ``Fraction`` tails.

``plus``, ``times``, ``negate``, ``evaluate``, ``coefficient_vector``,
``compose``, ``translate``, ``restrict_to_sublattice`` and ``apply_laplacian``
are the polynomial operations on ``{Monomial: Fraction}`` dicts, as the
library ran them before it kept integer numerators over one denominator:
they work on ``Fraction`` coefficients term by term, composition expands
each monomial as a product of the affine forms, and the Laplacian sums one
right translate per atom as a polynomial.

``terms_text``, ``polynomial_str`` and ``polynomial_to_obj`` are the
polynomial text and JSON object as they were rendered before the library
kept a per-schema memo of each monomial's sort key and factor text: every
call recomputes the weighted degrees and the factors, and the JSON object
sorts the terms again after ``str`` did.

``mul_coords`` and ``inv_coords`` are the group law as a loop over the
schema's ``(t, p, q)`` terms, before each schema compiled its law into
straight-line code.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Iterable, NamedTuple, Sequence

from nilharmonic.groups import GroupElement, GroupSchema
from nilharmonic.laplacian import Measure
from nilharmonic.linalg import Inconsistent
from nilharmonic.polynomials import AffineForm, Monomial, Polynomial, _translation_forms

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


class Elimination(NamedTuple):
    """The fields the library's ``Factorization`` must reproduce, with the
    reduced rows as ``Fraction`` tails."""

    pivots: tuple[int, ...]
    tails: dict[int, dict[int, Fraction]]
    steps: list
    cols: int

    def kernel(self) -> list[dict[int, Fraction]]:
        """One sparse vector per free column: 1 there and minus the tail
        entries at the pivots."""
        basis: dict[int, dict[int, Fraction]] = {
            c: {} for c in range(self.cols) if c not in self.tails
        }
        for p in self.pivots:
            for c, v in self.tails[p].items():
                basis[c][p] = -v
        for c, vec in basis.items():
            vec[c] = Fraction(1)
        return list(basis.values())


def eliminate(cols: int, entries: Sequence[dict[int, Fraction]]) -> Elimination:
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
    return Elimination(tuple(sorted(tails)), tails, steps, cols)


# -- polynomials on Fraction dicts ------------------------------------------------
#
# Each operation reads the library polynomial's ``terms`` ({Monomial:
# Fraction}), works term by term in Fraction, and hands its terms to the
# validated public constructor, as the library did before it kept integer
# numerators over one denominator.

Terms = dict[Monomial, Fraction]


def _poly(schema: GroupSchema, terms: Terms) -> Polynomial:
    return Polynomial(schema, {m: c for m, c in terms.items() if c})


def plus(p: Polynomial, q: Polynomial, sign: int = 1) -> Polynomial:
    """p + sign * q."""
    terms = dict(p.terms)
    for m, c in q.terms.items():
        terms[m] = terms.get(m, Fraction(0)) + sign * c
    return _poly(p.schema, terms)


def _product(a: Terms, b: Terms) -> Terms:
    out: Terms = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = Monomial(tuple(x + y for x, y in zip(m1.exponents, m2.exponents)))
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return out


def times(p: Polynomial, q: Polynomial | Fraction | int) -> Polynomial:
    """p * q for a polynomial or a scalar q."""
    if isinstance(q, Polynomial):
        return _poly(p.schema, _product(p.terms, q.terms))
    return _poly(p.schema, {m: c * q for m, c in p.terms.items()})


def negate(p: Polynomial) -> Polynomial:
    return _poly(p.schema, {m: -c for m, c in p.terms.items()})


def evaluate(p: Polynomial, coords: Sequence[int]) -> Fraction:
    total = Fraction(0)
    for m, c in p.terms.items():
        v = c
        for x, e in zip(coords, m.exponents):
            v *= Fraction(x) ** e
        total += v
    return total


def coefficient_vector(p: Polynomial, basis: Sequence[Monomial]) -> list[Fraction]:
    terms = p.terms
    return [terms.get(m, Fraction(0)) for m in basis]


def compose(p: Polynomial, forms: Sequence[AffineForm]) -> Polynomial:
    """The polynomial p(L_1(x), ..., L_n(x)): each monomial expanded as a
    product of the forms, one Fraction product at a time, and summed."""
    n = len(forms)
    zero = (0,) * n
    linear: list[Terms] = []
    for c, lin in forms:
        form: Terms = {Monomial(zero): Fraction(c)} if c else {}
        for v, a in lin:
            form[Monomial(zero[:v] + (1,) + zero[v + 1:])] = Fraction(a)
        linear.append(form)
    total: Terms = {}
    for m, coeff in p.terms.items():
        term: Terms = {Monomial(zero): coeff}
        for form, e in zip(linear, m.exponents):
            for _ in range(e):
                term = _product(term, form)
        for mono, c in term.items():
            total[mono] = total.get(mono, Fraction(0)) + c
    return _poly(p.schema, total)


def translate(p: Polynomial, u: GroupElement, side: str) -> Polynomial:
    """x -> p(u x) for side left, x -> p(x u) for side right."""
    return compose(p, _translation_forms(p.schema, u, side))


def restrict_to_sublattice(p: Polynomial, matrix: Sequence[Sequence[int]]) -> Polynomial:
    """u -> p(M u), x_i = sum_j M[i][j] u_j."""
    return compose(p, tuple((0, tuple((j, x) for j, x in enumerate(row) if x)) for row in matrix))


def apply_laplacian(measure: Measure, p: Polynomial) -> Polynomial:
    """p - sum_s mu(s) (x -> p(x s)), one translated polynomial per atom."""
    expected = Polynomial.zero(p.schema)
    for s, w in measure.atoms.items():
        expected = plus(expected, times(translate(p, s, "right"), w))
    return plus(p, expected, -1)


def terms_text(schema: GroupSchema, ordered: Iterable[tuple[Monomial, Fraction]]) -> str:
    """Text of the non-zero terms in the given order; "0" for no terms."""
    names = schema.coord_names
    pieces: list[str] = []
    for mono, coeff in ordered:
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, mono.exponents) if e]
        # the magnitude as str(abs(coeff)) writes it, read off the int parts
        num, den = coeff.numerator, coeff.denominator
        positive = num > 0
        if not positive:
            num = -num
        if den != 1:
            factors.insert(0, f"{num}/{den}")
        elif num != 1 or not factors:
            factors.insert(0, str(num))
        body = "*".join(factors)
        if not pieces:
            pieces.append(body if positive else f"-{body}")
        else:
            pieces.append(f"+ {body}" if positive else f"- {body}")
    return " ".join(pieces) or "0"


def polynomial_str(p: Polynomial) -> str:
    """str(p): leading terms first; ties follow the graded basis order."""
    ordered = sorted(
        p.terms.items(),
        key=lambda mc: (
            -mc[0].weighted_degree(p.schema),
            tuple(-e for e in mc[0].exponents),
        ),
    )
    return terms_text(p.schema, ordered)


def polynomial_to_obj(p: Polynomial) -> dict[str, Any]:
    """The JSON object: the terms in graded order, and the text of str(p)."""
    keyed = sorted(
        ((m.weighted_degree(p.schema), tuple(-e for e in m.exponents)), m, c)
        for m, c in p.terms.items()
    )
    leading = sorted(keyed, key=lambda t: -t[0][0])
    return {
        "terms": [
            {"exponents": list(m.exponents), "coeff": str(c)}
            for _, m, c in keyed
        ],
        "text": terms_text(p.schema, ((m, c) for _, m, c in leading)),
    }


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
