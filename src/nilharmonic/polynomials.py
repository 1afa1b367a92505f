"""Coordinate polynomials with exact rational coefficients.

A polynomial is a finite rational combination of coordinate monomials;
the degree of a monomial weights each exponent by the weight of its
coordinate.  The space of polynomials of degree at most k has the
monomials of weighted degree <= k as a basis, listed here in graded
order (degree first, ties by descending exponent lexicographic order).

Translations x -> p(u x) and x -> p(x u) are computed by composition.  For
every group family each coordinate of u x and of x u is an affine form
L_t(x) = c_t + sum_i a_{t,i} x_i with integer coefficients, read off the
group law itself, so a monomial x^a translates to prod_t L_t^{a_t}.  The
same substitution, with linear forms taken from a matrix, restricts lattice
polynomials to sublattices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InternalInconsistency, ValidationError
from .groups import LATTICE, GroupElement, GroupSchema, mul_coords
from .linalg import RationalMatrix


@dataclass(frozen=True, order=True)
class Monomial:
    """A product of coordinate powers, stored as its exponent vector."""

    exponents: tuple[int, ...]

    def weighted_degree(self, schema: GroupSchema) -> int:
        return sum(w * e for w, e in zip(schema.weights, self.exponents))


def monomial_sort_key(schema: GroupSchema, m: Monomial) -> tuple:
    """Graded order: weighted degree, then exponent-lexicographic descending."""
    return (m.weighted_degree(schema), tuple(-e for e in m.exponents))


@lru_cache(maxsize=None)
def _pk_basis_cached(schema: GroupSchema, k: int) -> tuple[Monomial, ...]:
    if k < 0:
        return ()
    n = schema.n_coords
    weights = schema.weights
    out: list[tuple[int, ...]] = []
    exps = [0] * n

    def rec(i: int, budget: int) -> None:
        if i == n:
            out.append(tuple(exps))
            return
        w = weights[i]
        for e in range(budget // w + 1):
            exps[i] = e
            rec(i + 1, budget - e * w)
        exps[i] = 0

    rec(0, k)
    monos = [Monomial(t) for t in out]
    monos.sort(key=lambda m: monomial_sort_key(schema, m))
    return tuple(monos)


def pk_basis(schema: GroupSchema, k: int) -> list[Monomial]:
    """All monomials of weighted degree <= k, in graded order; empty for k < 0."""
    return list(_pk_basis_cached(schema, k))


def dim_pk(schema: GroupSchema, k: int) -> int:
    """Dimension of the space of polynomials of degree <= k.

    Counted without enumerating the basis: exact[t] is the number of
    exponent vectors of weighted degree exactly t over the coordinates seen
    so far, one unbounded-knapsack pass per coordinate weight, O(n k).
    """
    if k < 0:
        return 0
    exact = [1] + [0] * k
    for w in schema.weights:
        for t in range(w, k + 1):
            exact[t] += exact[t - w]
    return sum(exact)


class Polynomial:
    """Sparse exact-rational combination of coordinate monomials."""

    __slots__ = ("schema", "terms")

    def __init__(
        self,
        schema: GroupSchema,
        terms: Mapping[Monomial, Fraction | int] | None = None,
    ):
        self.schema = schema
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                if len(mono.exponents) != schema.n_coords:
                    raise ValidationError("monomial does not match schema coordinate count")
                if any(e < 0 for e in mono.exponents):
                    raise ValidationError("monomial exponents must be non-negative")
                c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
                if c:
                    clean[mono] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, schema: GroupSchema) -> "Polynomial":
        return cls(schema)

    @classmethod
    def constant(cls, schema: GroupSchema, value: Fraction | int) -> "Polynomial":
        return cls(schema, {Monomial((0,) * schema.n_coords): value})

    @classmethod
    def coordinate(cls, schema: GroupSchema, i: int) -> "Polynomial":
        """The coordinate function x_i (1-based index)."""
        if not 1 <= i <= schema.n_coords:
            raise ValidationError(f"coordinate index {i} out of range 1..{schema.n_coords}")
        exps = [0] * schema.n_coords
        exps[i - 1] = 1
        return cls(schema, {Monomial(tuple(exps)): 1})

    @classmethod
    def from_monomial(
        cls, schema: GroupSchema, mono: Monomial, coeff: Fraction | int = 1
    ) -> "Polynomial":
        return cls(schema, {mono: coeff})

    # -- basic queries --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int | None:
        """Weighted degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(m.weighted_degree(self.schema) for m in self.terms)

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(mono, Fraction(0))

    def evaluate(self, g: GroupElement) -> Fraction:
        if len(g.coords) != self.schema.n_coords:
            raise ValidationError("element does not match the polynomial's schema")
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            v = 1
            for c, e in zip(g.coords, mono.exponents):
                if e:
                    v *= c**e
            total += coeff * v
        return total

    def coefficient_vector(self, basis: Sequence[Monomial]) -> list[Fraction]:
        """Coefficients in the given monomial basis; all terms must be covered."""
        index = {m: i for i, m in enumerate(basis)}
        vec = [Fraction(0)] * len(basis)
        for mono, coeff in self.terms.items():
            if mono not in index:
                raise ValidationError(f"monomial {mono.exponents} not in the given basis")
            vec[index[mono]] = coeff
        return vec

    # -- arithmetic -----------------------------------------------------------

    def _require_same_schema(self, other: "Polynomial") -> None:
        if self.schema != other.schema:
            raise ValidationError("polynomials belong to different schemas")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_schema(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = terms.get(mono, Fraction(0)) + coeff
            if acc:
                terms[mono] = acc
            else:
                terms.pop(mono, None)
        return Polynomial(self.schema, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.schema, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "Polynomial | Fraction | int") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial(self.schema, {m: c * other for m, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_schema(other)
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = Monomial(tuple(a + b for a, b in zip(m1.exponents, m2.exponents)))
                acc = terms.get(mono, Fraction(0)) + c1 * c2
                if acc:
                    terms[mono] = acc
                else:
                    terms.pop(mono, None)
        return Polynomial(self.schema, terms)

    def __rmul__(self, other: "Fraction | int") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.schema == other.schema
            and self.terms == other.terms
        )

    __hash__ = None  # type: ignore[assignment]

    # -- rendering ------------------------------------------------------------

    def __str__(self) -> str:
        # leading terms first; ties follow the graded basis order
        ordered = sorted(
            self.terms.items(),
            key=lambda mc: (
                -mc[0].weighted_degree(self.schema),
                tuple(-e for e in mc[0].exponents),
            ),
        )
        return terms_text(self.schema, ordered)

    def __repr__(self) -> str:
        return f"Polynomial({self.schema.name()}: {self})"


def terms_text(schema: GroupSchema, ordered: Iterable[tuple[Monomial, Fraction]]) -> str:
    """Text of the non-zero terms in the given order, as ``str(Polynomial)``
    writes it (which orders them leading degree first); "0" for no terms."""
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


# -- translation by composition -----------------------------------------------

# An affine form c + sum_i a_i x_i in the coordinates, stored as
# (c, ((i, a_i), ...)) over the non-zero a_i (0-based i).
AffineForm = tuple[int, tuple[tuple[int, int], ...]]


@lru_cache(maxsize=512)
def _translation_forms(
    schema: GroupSchema, u: GroupElement, side: str
) -> tuple[AffineForm, ...]:
    """The affine forms of the coordinates of u*x (side left) or x*u (side right).

    For every family these products are affine in x, so the forms are read
    off the group law at 0 and at the unit vectors, then checked at one
    further point.  The forms depend only on the arguments, so the last 512
    are memoized (a raised error is not); code that patches ``mul_coords``
    must call ``cache_clear``.
    """
    n = schema.n_coords
    if len(u.coords) != n:
        raise ValidationError("translation element does not match the schema")
    uc = u.coords

    def act(x: tuple[int, ...]) -> tuple[int, ...]:
        return mul_coords(schema, uc, x) if side == "left" else mul_coords(schema, x, uc)

    base = act((0,) * n)
    units = [act(tuple(int(i == v) for i in range(n))) for v in range(n)]
    forms = tuple(
        (c, tuple((v, units[v][t] - c) for v in range(n) if units[v][t] != c))
        for t, c in enumerate(base)
    )
    probe = tuple(range(2, n + 2))
    for (c, lin), actual in zip(forms, act(probe)):
        if c + sum(a * probe[v] for v, a in lin) != actual:
            raise InternalInconsistency(
                f"the {side} action of {uc} on {schema.name()} is not affine in the "
                "coordinates; translation by composition does not apply"
            )
    return forms


def _times_affine(
    poly: dict[tuple[int, ...], int], form: AffineForm
) -> dict[tuple[int, ...], int]:
    """The product of an integer polynomial, keyed by exponent vector, with a form."""
    c, lin = form
    out: dict[tuple[int, ...], int] = {}
    for exps, coeff in poly.items():
        if c:
            out[exps] = out.get(exps, 0) + c * coeff
        for v, a in lin:
            bumped = exps[:v] + (exps[v] + 1,) + exps[v + 1:]
            out[bumped] = out.get(bumped, 0) + a * coeff
    return {exps: coeff for exps, coeff in out.items() if coeff}


def _monomial_images(
    forms: Sequence[AffineForm], monomials: Iterable[Monomial]
) -> Iterator[dict[tuple[int, ...], int]]:
    """Yield T(m) = prod_t L_t^{m_t} for each monomial m, as integer
    coefficients keyed by exponent vector.

    Images are memoized by T(x_t m') = L_t T(m'), where m' drops one power of
    the first non-zero coordinate t of m; m' precedes m in graded order, so a
    graded sweep builds each image with one affine product.  The memo lives
    as long as this generator.
    """
    n = len(forms)
    zero = (0,) * n
    memo: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {zero: {zero: 1}}
    for mono in monomials:
        exps = mono.exponents
        chain = []
        while exps not in memo:
            t = next(i for i, e in enumerate(exps) if e)
            chain.append((exps, t))
            exps = exps[:t] + (exps[t] - 1,) + exps[t + 1:]
        image = memo[exps]
        for exps, t in reversed(chain):
            image = _times_affine(image, forms[t])
            memo[exps] = image
        yield image


def monomial_translates(
    schema: GroupSchema, u: GroupElement, side: str, monomials: Iterable[Monomial]
) -> Iterator[dict[tuple[int, ...], int]]:
    """For each monomial m, the integer coefficients of x -> m(u x) (side
    left) or x -> m(x u) (side right), keyed by exponent vector.  The dicts
    are shared with the memo and must not be modified."""
    return _monomial_images(_translation_forms(schema, u, side), monomials)


def _compose(p: Polynomial, forms: Sequence[AffineForm]) -> Polynomial:
    """The polynomial p(L_1(x), ..., L_n(x))."""
    terms: dict[Monomial, Fraction] = {}
    for coeff, image in zip(p.terms.values(), _monomial_images(forms, p.terms)):
        for exps, c in image.items():
            key = Monomial(exps)
            terms[key] = terms.get(key, 0) + coeff * c
    return Polynomial(p.schema, terms)


def translate_left(p: Polynomial, u: GroupElement) -> Polynomial:
    """The polynomial x -> p(u x)."""
    return _compose(p, _translation_forms(p.schema, u, "left"))


def translate_right(p: Polynomial, u: GroupElement) -> Polynomial:
    """The polynomial x -> p(x u)."""
    return _compose(p, _translation_forms(p.schema, u, "right"))


def left_derivative(p: Polynomial, u: GroupElement) -> Polynomial:
    """x -> p(u x) - p(x); strictly degree-decreasing on non-constants."""
    return translate_left(p, u) - p


def right_derivative(p: Polynomial, u: GroupElement) -> Polynomial:
    """x -> p(x u) - p(x); strictly degree-decreasing on non-constants."""
    return translate_right(p, u) - p


# -- lattice restriction --------------------------------------------------------

def restrict_to_sublattice(p: Polynomial, matrix: Sequence[Sequence[int]]) -> Polynomial:
    """Rewrite a lattice polynomial in the coordinates of the sublattice M Z^d.

    Returns u -> p(M u).  The matrix must be square, integral and
    non-singular, so that M Z^d has finite index and the induced map on
    degree-<= k polynomials is a linear bijection.
    """
    schema = p.schema
    if schema.family != LATTICE:
        raise ValidationError("sublattice restriction is defined for lattice schemas only")
    d = schema.n_coords
    rows = [list(row) for row in matrix]
    if len(rows) != d or any(len(row) != d for row in rows):
        raise ValidationError(f"matrix must be {d}x{d}")
    if any(int(x) != x for row in rows for x in row):
        raise ValidationError("matrix entries must be integers")
    if RationalMatrix.from_rows(rows, cols=d).rank != d:
        raise ValidationError("matrix is singular; the sublattice has infinite index")

    # x_i = sum_j M[i][j] u_j
    forms = tuple(
        (0, tuple((j, int(x)) for j, x in enumerate(row) if x)) for row in rows
    )
    return _compose(p, forms)
