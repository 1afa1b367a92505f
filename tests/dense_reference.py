"""Reference implementations the library has replaced, kept as cross-checks.

Dense Gauss-Jordan elimination over the rationals is the elimination the
library used before its sparse factorization: leftmost-pivot order on a
dense grid of ``Fraction``, and every solve reduces a fresh augmented
matrix.  The cross-check tests compare the library's ``rref``,
``kernel_basis`` and ``solve`` and its pivot count with it, and
``mul_vector``, the dense product, checks that a solution or a kernel
vector satisfies its system.  ``matrix`` builds the library's matrix of a
dense grid the one way the library builds it: integer rows over one
denominator, handed to ``RationalMatrix._trusted``.

``eliminate`` is the sparse factorization as it ran on ``Fraction`` rows,
before the library moved it to integer rows; the library's ``_eliminate``
must produce the same pivots, tails and steps, and its kernel, read from
the integer tails, must equal the one read here from the ``Fraction`` tails.

``plus``, ``times``, ``negate``, ``evaluate``, ``coefficient_vector``,
``compose``, ``translate``, ``restrict_to_sublattice`` and ``apply_laplacian``
are the polynomial operations on ``{exponents: Fraction}`` dicts, as the
library ran them before it kept integer numerators over one denominator:
they work on ``Fraction`` coefficients term by term, composition expands
each monomial as a product of the affine forms, and the Laplacian sums one
right translate per atom as a polynomial.

``pk_basis`` is the graded basis as the library enumerated it before it
built the basis degree by degree: every exponent vector within the degree
bound, sorted by ``monomial_sort_key``.

``graded_index`` and ``moment_images`` are the graded index and the moment
images as the library built them before the index was its ``up`` rows
alone: the index also kept ``steps``, each monomial's first-coordinate
parent, found through a dict from exponent vector to index, and the moment
images read their chain and their parent steps from it.

``monomial_translates`` and ``pair_columns`` are the Laplacian's pair
columns as they were assembled before the translation sweep ran on graded
basis indices, and before the matrix was read off the measure's moments:
each image is keyed by exponent vector, every term is moved by building its
exponent tuple, and the rows are found through a dict from exponent vector
to index.  Each monomial's image is read off ``translate``, so the sweep
shares no memo with the library.  ``translated_pair_columns`` reads the same
columns off ``translate`` in ``Fraction`` polynomial arithmetic.

``terms_text``, ``polynomial_str`` and ``polynomial_to_obj`` are the
polynomial text and JSON object as they were rendered before the library
kept a per-schema memo of each monomial's sort key and factor text: every
call recomputes the weighted degrees and the factors, and the JSON object
sorts the terms again after ``str`` did.

``mul_coords`` and ``inv_coords`` are the group law as a loop over the
schema's ``(t, p, q)`` terms, before each schema compiled its law into
straight-line code.

``value_tables``, ``check_harmonic_batch``, ``difference_points`` and
``iterated_difference_check`` are the brute-force oracles as they ran before
their tables were built column by column: every monomial value is a product
of powers at each point, every polynomial and every mean-value sum is a
Python loop over the points, and every iterated difference is a signed sum
over the subsets of one tuple at one point.  ``difference_points`` builds
every tuple's subset products afresh and moves each test point by each of
them, as the library did before the tuples of one odometer prefix shared
that prefix's products.  ``associativity_witness`` is the
suite's scan of all triples, two law products per triple, and
``symmetric_form`` is its half-sum of second differences in ``Polynomial``
arithmetic.

``mean_value_checks`` is the mean-value oracle with a right-hand side h,
f(x) = sum_s mu(s) f(x s) + h(x), checked at each centre in ``Fraction``
arithmetic with ``Polynomial.evaluate`` and the group's ``mul``.  ``pairs``
lists a symmetric measure's pairs {s, s^-1} with their integer weights, as
``Measure.pairs`` did while the suite's symmetric form summed over them.

``column_value_tables`` and ``column_harmonic_batch`` are the mean-value
oracle as it ran before it packed a batch into one int per point: one
shared value column per monomial, each its parent's times a coordinate,
summed per polynomial, and one gather per atom per polynomial.

``horner`` is the packed chunk's evaluation as it ran before it peeled one
coordinate at a time over the distinct point prefixes: Horner's rule along
the first-coordinate tree of the monomials, depth first, with every row as
long as the list of points.

``laplacian_records`` is the measure half of the invariant suite as it ran
before one factorization served every degree: one Laplacian matrix and one
elimination per k, and every target of P^(k-2) solved and checked again at
each k.  Each preimage is checked with this module's ``apply_laplacian``,
the sum of its right translates, as the suite checks it against the group
law; each monomial of P^min(k, 3) is checked with ``lib_apply_laplacian``
against ``symmetric_form``, the half-sum of second differences over the
pairs {s, s^-1}, which the library's record has replaced with the
mean-value oracle.  ``lib_apply_laplacian`` reads the monomial's column off
a fresh matrix of the monomial's own degree, where the suite reads it off
its one degree-k_max matrix, so equal records cross-check that a column is
the same in both.  A test that rebinds ``lib_apply_laplacian`` and the
suite's column reader, ``_column_images``, to the same faulty Laplacian
reaches the symmetric form alone in both.

``parse_polynomial`` is the polynomial text parser as it ran before it kept
integer numerators and denominators: a token list, then ``Fraction``
arithmetic on each number and each sum of like terms, and the public
``Polynomial`` constructor, which validates the terms again.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import lcm
from operator import add, mul
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

from nilharmonic.errors import InternalInconsistency, NilharmonicError, ValidationError
from nilharmonic.groups import COORD_NAME, GroupElement, GroupSchema, ball, inv
from nilharmonic.groups import mul as group_mul
from nilharmonic.laplacian import Measure, dim_hk, harmonic_basis, laplacian_matrix
from nilharmonic.laplacian import apply_laplacian as lib_apply_laplacian
from nilharmonic.polynomials import pk_basis as lib_pk_basis
from nilharmonic.linalg import Inconsistent, IntRows, RationalMatrix
from nilharmonic.polynomials import (
    MomentImages,
    AffineForm,
    Exponents,
    IntTerms,
    Polynomial,
    _parent,
    _translation_forms,
    translate_right,
)
from nilharmonic.verify import DerivativeCheck, HarmonicCheck

Grid = list[list[Fraction]]


def matrix(grid: Sequence[Sequence[Fraction | int]], cols: int | None = None) -> RationalMatrix:
    """The library's matrix of a dense grid of ints and Fractions: its
    non-zero entries as integer rows over the lcm of their denominators.
    ``cols`` defaults to the length of the first row."""
    if cols is None:
        cols = len(grid[0])
    assert all(len(row) == cols for row in grid)
    d = lcm(*(x.denominator for row in grid for x in row))
    int_rows: IntRows = [{j: int(x * d) for j, x in enumerate(row) if x} for row in grid]
    return RationalMatrix._trusted(len(grid), cols, int_rows, d)


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


def mul_vector(data: Sequence[Sequence[Fraction]], x: Sequence[Fraction]) -> list[Fraction]:
    """The product of a grid and a vector."""
    return [sum((a * v for a, v in zip(row, x)), Fraction(0)) for row in data]


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
# Each operation reads the library polynomial's ``terms`` ({exponents:
# Fraction}), works term by term in Fraction, and hands its terms to the
# validated public constructor, as the library did before it kept integer
# numerators over one denominator.

Terms = dict[Exponents, Fraction]


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
            m = tuple(x + y for x, y in zip(m1, m2))
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
        for x, e in zip(coords, m):
            v *= Fraction(x) ** e
        total += v
    return total


def coefficient_vector(p: Polynomial, basis: Sequence[Exponents]) -> list[Fraction]:
    """p's coefficients in the given monomial basis, which must hold all its terms."""
    terms = p.terms
    assert terms.keys() <= set(basis), "a term of p is not in the basis"
    return [terms.get(m, Fraction(0)) for m in basis]


def compose(p: Polynomial, forms: Sequence[AffineForm]) -> Polynomial:
    """The polynomial p(L_1(x), ..., L_n(x)): each monomial expanded as a
    product of the forms, one Fraction product at a time, and summed."""
    n = len(forms)
    zero = (0,) * n
    linear: list[Terms] = []
    for c, lin in forms:
        form: Terms = {zero: Fraction(c)} if c else {}
        for v, a in lin:
            form[zero[:v] + (1,) + zero[v + 1:]] = Fraction(a)
        linear.append(form)
    total: Terms = {}
    for m, coeff in p.terms.items():
        term: Terms = {zero: coeff}
        for form, e in zip(linear, m):
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
    expected = Polynomial(p.schema)
    for s, w in measure.atoms.items():
        expected = plus(expected, times(translate(p, s, "right"), w))
    return plus(p, expected, -1)


def weighted_degree(schema: GroupSchema, m: Exponents) -> int:
    return sum(w * e for w, e in zip(schema.weights, m))


def monomial_sort_key(schema: GroupSchema, m: Exponents) -> tuple:
    """Graded order: weighted degree, then exponent-lexicographic descending."""
    return (weighted_degree(schema, m), tuple(-e for e in m))


def pk_basis(schema: GroupSchema, k: int) -> list[Exponents]:
    """All monomials of weighted degree <= k, sorted into graded order."""
    if k < 0:
        return []
    n, weights = schema.n_coords, schema.weights
    out: list[tuple[int, ...]] = []
    exps = [0] * n

    def rec(i: int, budget: int) -> None:
        if i == n:
            out.append(tuple(exps))
            return
        for e in range(budget // weights[i] + 1):
            exps[i] = e
            rec(i + 1, budget - e * weights[i])
        exps[i] = 0

    rec(0, k)
    return sorted(out, key=lambda m: monomial_sort_key(schema, m))


def graded_index(
    schema: GroupSchema, k: int
) -> tuple[tuple[tuple[int, int], ...], tuple[list[int], ...]]:
    """``steps`` and ``up`` of pk_basis(schema, k): ``steps[i - 1]`` is
    (parent, t) for m_i = m_parent x_t, t the first non-zero coordinate of
    m_i, and ``up[v][j]`` is the index of m_j x_v, or the basis size past
    degree k."""
    basis = pk_basis(schema, k)
    size = len(basis)
    position = {e: i for i, e in enumerate(basis)}
    up = tuple([position.get(e[:v] + (e[v] + 1,) + e[v + 1:], size) for e in basis]
               for v in range(schema.n_coords))
    steps = tuple((position[m], t) for m, t in map(_parent, basis[1:]))
    return steps, up


def moment_images(schema: GroupSchema, k: int, pattern: tuple[int, ...]) -> MomentImages:
    """The library's ``moment_images``, unmemoized, reading each monomial's
    first-coordinate parent from the ``steps`` of ``graded_index``."""
    weights, law = schema.weights, schema.law
    if any(weights[p] + weights[q] > weights[t] for t, p, q in law):
        raise InternalInconsistency("a law term outweighs its target; translation leaves P^k")
    steps, up = graded_index(schema, k)
    size = len(up[0])
    bumps: list[list[tuple[Sequence[int], Sequence[int]]]] = [
        [(up[t], range(size))] if t in pattern else [] for t in range(schema.n_coords)
    ]
    for t, p, q in law:
        if q in pattern:
            bumps[t].append((up[q], up[p]))
    reach = [None, *steps]
    for t, terms in enumerate(bumps):
        if not terms:
            for j, i in enumerate(up[t]):
                if i != size:
                    reach[i] = (j, t)
    images = [((0,), (0,), (1,))]
    for parent, t in reach[1:]:
        gs, bs, cs = images[parent]
        moved = tuple(map(up[t].__getitem__, bs))
        if not bumps[t]:
            images.append((gs, moved, cs))
            continue
        out = dict(zip(zip(gs, moved), cs))
        get = out.get
        for s_up, x_up in bumps[t]:
            for at, c in zip(zip(map(s_up.__getitem__, gs), map(x_up.__getitem__, bs)), cs):
                out[at] = get(at, 0) + c
        images.append((*zip(*out), tuple(out.values())))
    cols = tuple(itertools.chain.from_iterable(
        itertools.repeat(j, len(gs)) for j, (gs, _, _) in enumerate(images)))
    gammas, betas, coeffs = (
        tuple(itertools.chain.from_iterable(image[n] for image in images)) for n in range(3))
    seen = set(gammas)
    links = tuple((i, *step) for i, step in enumerate(steps, 1) if i in seen)
    return MomentImages(links, cols, gammas, betas, coeffs)


def monomial_translates(
    schema: GroupSchema, u: GroupElement, side: str, keys: Iterable[Exponents]
) -> list[IntTerms]:
    """For each exponent vector m, the integer coefficients of x -> x^m(u x)
    (side left) or x -> x^m(x u) (side right), keyed by exponent vector, each
    read off ``translate``, so that the reference reads and stores none of the
    library's images."""
    images = []
    for m in keys:
        image = translate(Polynomial(schema, {m: 1}), u, side)
        assert image.den == 1, "a translated monomial has integer coefficients"
        images.append(image.ints)
    return images


def pair_columns(
    schema: GroupSchema, s: GroupElement, k: int
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Integer columns of m -> 2m - m(x s) - m(x s^-1) over pk_basis(schema, k),
    as (row, coefficient) pairs over pk_basis(schema, k - 2), from the
    tuple-keyed sweep."""
    domain = pk_basis(schema, k)
    index = {m: i for i, m in enumerate(pk_basis(schema, k - 2))}
    s_inv = GroupElement(inv_coords(schema, s.coords))
    columns = []
    for mono, *images in zip(
        domain,
        monomial_translates(schema, s, "right", domain),
        monomial_translates(schema, s_inv, "right", domain),
    ):
        column = {mono: 2}
        for image in images:
            for exps, c in image.items():
                column[exps] = column.get(exps, 0) - c
        entries = []
        for exps, c in column.items():
            if not c:
                continue
            i = index.get(exps)
            if i is None:
                raise InternalInconsistency(f"out-of-range monomial {exps} in column {mono}")
            entries.append((i, c))
        columns.append(tuple(entries))
    return tuple(columns)


def translated_pair_columns(
    schema: GroupSchema, s: GroupElement, k: int
) -> list[dict[int, Fraction]]:
    """The columns of ``pair_columns`` as {row: coefficient} dicts, each read
    off 2m - translate(m, s) - translate(m, s^-1) in Fraction arithmetic."""
    index = {m: i for i, m in enumerate(pk_basis(schema, k - 2))}
    s_inv = GroupElement(inv_coords(schema, s.coords))
    columns = []
    for mono in pk_basis(schema, k):
        m = Polynomial(schema, {mono: 1})
        column = plus(times(m, 2), plus(translate(m, s, "right"), translate(m, s_inv, "right")), -1)
        if any(c not in index for c in column.terms):
            raise InternalInconsistency(f"out-of-range monomial in column {mono}")
        columns.append({index[c]: v for c, v in column.terms.items()})
    return columns


def terms_text(schema: GroupSchema, ordered: Iterable[tuple[Exponents, Fraction]]) -> str:
    """Text of the non-zero terms in the given order; "0" for no terms."""
    names = schema.coord_names
    pieces: list[str] = []
    for mono, coeff in ordered:
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, mono) if e]
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
            -weighted_degree(p.schema, mc[0]),
            tuple(-e for e in mc[0]),
        ),
    )
    return terms_text(p.schema, ordered)


def polynomial_to_obj(p: Polynomial) -> dict[str, Any]:
    """The JSON object: the terms in graded order, and the text of str(p)."""
    keyed = sorted(
        (monomial_sort_key(p.schema, m), m, c)
        for m, c in p.terms.items()
    )
    leading = sorted(keyed, key=lambda t: -t[0][0])
    return {
        "terms": [
            {"exponents": list(m), "coeff": str(c)}
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


# -- the brute-force oracles as point-by-point loops -----------------------------


def value_tables(
    polys: Sequence[Polynomial], points: Sequence[tuple[int, ...]]
) -> Iterator[tuple[int, list[int]]]:
    """(den, [den * p(x) for x in points]) per polynomial: each monomial column
    a product of powers at every point, each polynomial a sum of columns."""
    columns: dict[tuple[int, ...], list[int]] = {}
    for exps in sorted({e for p in polys for e in p.ints}):
        powers = [(t, e) for t, e in enumerate(exps) if e]
        col = []
        for c in points:
            v = 1
            for t, e in powers:
                v *= c[t] ** e
            col.append(v)
        columns[exps] = col
    for p in polys:
        values = [0] * len(points)
        for exps, c in p.ints.items():
            values = [x + c * v for x, v in zip(values, columns[exps])]
        yield p.den, values


def check_harmonic_batch(
    schema: GroupSchema, measure: Measure, polys: Sequence[Polynomial], radius: int
) -> list[HarmonicCheck]:
    """The mean-value check, one centre and one atom at a time."""
    atoms = list(measure.atoms.items())
    weight_scale = lcm(*(w.denominator for _, w in atoms))
    int_weights = [int(w * weight_scale) for _, w in atoms]
    centers = [g.coords for g in ball(schema, measure.support(), radius)]
    index: dict[tuple[int, ...], int] = {}
    center_ids = [index.setdefault(c, len(index)) for c in centers]
    shifted_ids = [
        [index.setdefault(schema.law_mul(c, s.coords), len(index)) for s, _ in atoms]
        for c in centers
    ]
    results = []
    for scale, values in value_tables(polys, list(index)):
        result = HarmonicCheck(True, len(centers))
        for ci, (gid, sids) in enumerate(zip(center_ids, shifted_ids)):
            rhs = 0
            for sid, w in zip(sids, int_weights):
                rhs += w * values[sid]
            if weight_scale * values[gid] != rhs:
                exact = Fraction(values[gid], scale), Fraction(rhs, weight_scale * scale)
                result = HarmonicCheck(False, ci + 1, GroupElement(centers[ci]), *exact)
                break
        results.append(result)
    return results


def mean_value_checks(
    measure: Measure,
    polys: Sequence[Polynomial],
    rhs: Sequence[Polynomial],
    centres: Iterable[tuple[int, ...]],
) -> list[HarmonicCheck]:
    """The mean-value oracle with a right-hand side, one centre at a time in
    ``Fraction`` arithmetic: f(x) against sum_s mu(s) f(x s) + h(x) at each
    distinct centre x, in coordinate order, from ``Polynomial.evaluate`` and
    the group's ``mul``."""
    schema = measure.schema
    order = [GroupElement(c) for c in sorted(set(centres))]
    results = []
    for f, h in zip(polys, rhs):
        result = HarmonicCheck(True, len(order))
        for rank, x in enumerate(order):
            lhs = f.evaluate(x)
            mean = sum((w * f.evaluate(group_mul(schema, x, s)) for s, w in measure.atoms.items()),
                       Fraction(0))
            if lhs != mean + h.evaluate(x):
                result = HarmonicCheck(False, rank + 1, x, lhs, mean + h.evaluate(x))
                break
        results.append(result)
    return results


def pairs(measure: Measure) -> list[tuple[GroupElement, GroupElement, int]]:
    """One (s, s^-1, w) per pair of non-identity atoms of a symmetric
    measure, s the smaller and w = scale * mu(s), in order of s, as
    ``Measure.pairs`` held them."""
    out = []
    for s, ws in zip(measure.atoms, measure.int_weights):
        s_inv = inv(measure.schema, s)
        if s < s_inv:
            out.append((s, s_inv, ws))
    return out


def column_value_tables(
    polys: Sequence[Polynomial], points: Sequence[tuple[int, ...]]
) -> Iterator[tuple[int, list[int]]]:
    """(den, [den * p(x) for x in points]) per polynomial, from one value
    column per monomial, each its parent's times a coordinate."""
    n_coords = polys[0].schema.n_coords if polys else 0
    axes = [[c[t] for c in points] for t in range(n_coords)]
    columns: dict[tuple[int, ...], list[int]] = {(0,) * n_coords: [1] * len(points)}
    for exps in {e for p in polys for e in p.ints}:
        chain = []
        while exps not in columns:
            t = next(i for i, e in enumerate(exps) if e)
            chain.append((exps, t))
            exps = exps[:t] + (exps[t] - 1,) + exps[t + 1:]
        col = columns[exps]
        for exps, t in reversed(chain):
            col = columns[exps] = [a * b for a, b in zip(col, axes[t])]
    for p in polys:
        values = [0] * len(points)
        for exps, c in p.ints.items():
            values = [x + c * v for x, v in zip(values, columns[exps])]
        yield p.den, values


def column_harmonic_batch(
    schema: GroupSchema, measure: Measure, polys: Sequence[Polynomial], radius: int
) -> list[HarmonicCheck]:
    """The mean-value check on ``column_value_tables``, one polynomial at a
    time, with one gather per atom per polynomial."""
    atoms = list(measure.atoms.items())
    weight_scale = lcm(*(w.denominator for _, w in atoms))
    int_weights = [int(w * weight_scale) for _, w in atoms]
    centers = [g.coords for g in ball(schema, measure.support(), radius)]
    n = len(centers)
    index = {c: i for i, c in enumerate(centers)}
    atom_ids = [
        [index.setdefault(schema.law_mul(c, s.coords), len(index)) for c in centers]
        for s, _ in atoms
    ]
    results = []
    for scale, values in column_value_tables(polys, list(index)):
        rhs = [0] * n
        for ids, w in zip(atom_ids, int_weights):
            rhs = [r + w * values[i] for r, i in zip(rhs, ids)]
        lhs = [weight_scale * v for v in values[:n]]
        if lhs == rhs:
            results.append(HarmonicCheck(True, n))
            continue
        ci = next(i for i, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
        exact = Fraction(values[ci], scale), Fraction(rhs[ci], weight_scale * scale)
        results.append(HarmonicCheck(False, ci + 1, GroupElement(centers[ci]), *exact))
    return results


def horner(coeffs: dict[Exponents, int], axes: Sequence[Sequence[int]], n: int) -> list[int]:
    """sum_e coeffs[e] y^e at each of the n points whose coordinate rows are ``axes``.

    The monomials and their ancestors form a tree, x^e the child of x^e / x_t
    for t the first non-zero coordinate of e.  The value below x^e, divided
    by x^e, is coeffs[e] plus y_t times that of each child x^e x_t; it is
    summed depth first, so one row per level of the tree is live at a time.
    """
    root = (0,) * len(axes)
    kids: dict[Exponents, list[tuple[int, Exponents]]] = {root: []}
    for e in coeffs:
        links = []
        while e not in kids:
            kids[e] = []
            t = next(i for i, x in enumerate(e) if x)
            parent = e[:t] + (e[t] - 1,) + e[t + 1:]
            links.append((parent, t, e))
            e = parent
        for parent, t, child in links:
            kids[parent].append((t, child))
    # [monomial, coordinate to its parent, children left, row so far or None]
    stack: list[list] = [[root, 0, iter(kids[root]), None]]
    while True:
        top = stack[-1]
        step = next(top[2], None)
        if step is not None:
            t, child = step
            stack.append([child, t, iter(kids[child]), None])
            continue
        e, t, _, row = stack.pop()
        const = coeffs.get(e, 0)
        value = const if row is None else [v + const for v in row] if const else row
        if not stack:
            return [value] * n if row is None else value
        axis = axes[t]
        term = map(value.__mul__, axis) if row is None else map(mul, value, axis)
        above = stack[-1]
        above[3] = list(term) if above[3] is None else list(map(add, above[3], term))


def laplacian_records(
    schema: GroupSchema, measure: Measure, k_max: int, radius: int
) -> list[tuple[str, bool, str]]:
    """The measure half of the suite, (name, passed, detail) per record: per
    k, the nullity of the degree-k matrix and a solve and check of every
    target of P^(k-2) against its own factorization and ``apply_laplacian``;
    then the mean-value oracle on the degree-k_max basis and the symmetric
    form of every monomial of P^min(k_max, 3), one polynomial at a time."""
    records = []
    for k in range(k_max + 1):
        try:
            matrix = laplacian_matrix(schema, measure, k)
            nullity = matrix.cols - len(matrix.factorization().pivots)
            predicted = dim_hk(schema, k)
            records.append((f"laplacian.dimension_identity[k={k}]", nullity == predicted,
                            f"nullity {nullity}, predicted {predicted}"))
            domain = lib_pk_basis(schema, k)
            codomain = lib_pk_basis(schema, k - 2)
            bad_detail = ""
            for i, mono in enumerate(codomain):
                sol = matrix.factorization().solve((1, {i: 1}))
                if isinstance(sol, Inconsistent):
                    bad_detail = f"no preimage for {mono}"
                    break
                den, vec = sol
                p_hat = Polynomial(schema, {domain[t]: Fraction(n, den) for t, n in vec.items()})
                if apply_laplacian(measure, p_hat) != Polynomial(schema, {mono: 1}):
                    bad_detail = f"bad preimage for {mono}"
                    break
            records.append((f"laplacian.surjectivity[k={k}]", not bad_detail,
                            bad_detail or f"{len(codomain)} targets"))
        except NilharmonicError as exc:
            records.append((f"laplacian.matrix[k={k}]", False, str(exc)))
    try:
        report = harmonic_basis(schema, measure, k_max)
        checks = column_harmonic_batch(schema, measure, list(report.basis), radius)
        bad = next((i for i, c in enumerate(checks) if not c.passed), None)
        records.append((
            f"laplacian.harmonic_oracle[k={k_max},r={radius}]",
            bad is None,
            f"{report.dim} basis elements" if bad is None
            else f"element {bad}: {checks[bad].witness} lhs={checks[bad].lhs} rhs={checks[bad].rhs}",
        ))
    except NilharmonicError as exc:
        records.append(("laplacian.harmonic_oracle", False, str(exc)))
    bad_detail = next(
        (f"monomial {m}" for m in lib_pk_basis(schema, min(k_max, 3))
         if lib_apply_laplacian(measure, p := Polynomial(schema, {m: 1}))
         != symmetric_form(measure, p)),
        "",
    )
    records.append(("laplacian.symmetric_form", not bad_detail, bad_detail))
    return records


def difference_points(
    schema: GroupSchema,
    order: int,
    elems: Sequence[GroupElement],
    test_points: Sequence[GroupElement],
    budget: int,
    side: str,
) -> tuple[list, list, list]:
    """The budgeted tuples, ``ids[j][x]`` listing by subset index the point ids
    of tuple j at test point x, and the interned points."""
    law_mul = schema.law_mul

    def act(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return law_mul(b, a) if side == "left" else law_mul(a, b)

    tuples = list(itertools.islice(itertools.product(elems, repeat=order), budget))
    index: dict[tuple[int, ...], int] = {}
    ids = []
    for tup in tuples:
        prods = [(0,) * schema.n_coords]
        for u in tup:
            prods += [act(prod, u.coords) for prod in prods]
        ids.append(
            [[index.setdefault(act(x.coords, p), len(index)) for p in prods] for x in test_points]
        )
    return tuples, ids, list(index)


def iterated_difference_check(
    schema: GroupSchema,
    f: Polynomial,
    order: int,
    elems: Sequence[GroupElement],
    test_points: Sequence[GroupElement],
    budget: int,
    side: str,
) -> DerivativeCheck:
    """Each order-fold difference as a signed sum over 2**order subset points."""
    tuples, ids, points = difference_points(schema, order, elems, test_points, budget, side)
    signs = [1 if order % 2 == 0 else -1]
    for _ in range(order):
        signs += [-s for s in signs]
    ((scale, values),) = value_tables([f], points)
    for checked, (tup, tup_ids) in enumerate(zip(tuples, ids), 1):
        for x, point_ids in zip(test_points, tup_ids):
            total = 0
            for sign, i in zip(signs, point_ids):
                total += sign * values[i]
            if total:
                return DerivativeCheck(False, order, checked, tuple(tup), x, Fraction(total, scale))
    return DerivativeCheck(True, order, len(tuples))


def associativity_witness(
    schema: GroupSchema, coords: Sequence[tuple[int, ...]]
) -> tuple[int, int, int] | None:
    """The first (i, j, m) in lexicographic order with (a_i a_j) a_m != a_i (a_j a_m)."""
    law_mul = schema.law_mul
    ab = [[law_mul(a, b) for b in coords] for a in coords]
    return next(
        (
            (i, j, m)
            for i, j in itertools.product(range(len(coords)), repeat=2)
            for m, c in enumerate(coords)
            if law_mul(ab[i][j], c) != law_mul(coords[i], ab[j][m])
        ),
        None,
    )


def symmetric_form(measure: Measure, p: Polynomial) -> Polynomial:
    """sum_s mu(s)/2 (2p - p(x s) - p(x s^-1)), one polynomial operation at a time."""
    half = Fraction(1, 2)
    alt = Polynomial(p.schema)
    for s, w in measure.atoms.items():
        second = p * 2 - translate_right(p, s) - translate_right(p, inv(p.schema, s))
        alt = alt + second * (w * half)
    return alt


# -- the polynomial text syntax, parsed in Fraction arithmetic -----------------

_TOKEN_RE = re.compile(rf"\s*(?:([0-9]+)|({COORD_NAME})|([-+*/^()]))")


def _tokenize(text: str) -> list[str]:
    tokens = []
    text = text.strip()
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValidationError(f"cannot read polynomial at ...{text[pos:pos + 12]!r}")
        tokens.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    return tokens


def _token_int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:  # more digits than int() converts
        raise ValidationError(f"number with {len(tok)} digits is too long") from None


def parse_polynomial(schema: GroupSchema, text: str) -> Polynomial:
    """The polynomial of caret-and-star text like ``x^2 - y^2 + 3/2*x*y - 1``,
    read token by token in ``Fraction`` arithmetic."""
    if not text.strip():
        raise ValidationError("empty polynomial input")
    tokens = _tokenize(text)
    name_index = {name: i for i, name in enumerate(schema.coord_names)}
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise ValidationError("unexpected end of polynomial")
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_number() -> Fraction:
        tok = take()
        if not tok.isdigit():
            raise ValidationError(f"expected a number, found {tok!r}")
        value = Fraction(_token_int(tok))
        if peek() == "/":
            take()
            den = take()
            d = _token_int(den) if den.isdigit() else 0
            if d == 0:
                raise ValidationError("invalid denominator in coefficient")
            value /= d
        return value

    def parse_term() -> tuple[Fraction, tuple[int, ...]]:
        coeff = Fraction(1)
        exps = [0] * schema.n_coords
        while True:
            tok = peek()
            if tok is None:
                raise ValidationError("unexpected end of polynomial")
            if tok.isdigit():
                coeff *= parse_number()
            elif tok in name_index or tok[0].isalpha():
                name = take()
                if name not in name_index:
                    raise ValidationError(
                        f"unknown coordinate {name!r}; valid names: "
                        + ", ".join(schema.coord_names)
                    )
                e = 1
                if peek() == "^":
                    take()
                    etok = take()
                    if not etok.isdigit():
                        raise ValidationError("exponent must be a non-negative integer")
                    e = _token_int(etok)
                exps[name_index[name]] += e
            else:
                raise ValidationError(f"unexpected token {tok!r} in term")
            if peek() == "*":
                take()
                continue
            break
        return coeff, tuple(exps)

    terms: dict[Exponents, Fraction] = {}
    sign = Fraction(1)
    first = True
    while pos < len(tokens):
        tok = peek()
        if tok == "+":
            take()
            sign = Fraction(1)
        elif tok == "-":
            take()
            sign = Fraction(-1)
        elif not first:
            raise ValidationError(f"expected '+' or '-' before {tok!r}")
        coeff, exps = parse_term()
        acc = terms.get(exps, Fraction(0)) + sign * coeff
        if acc:
            terms[exps] = acc
        else:
            terms.pop(exps, None)
        sign = Fraction(1)
        first = False
    return Polynomial(schema, terms)
