"""Coordinate polynomials with exact rational coefficients.

A polynomial is a finite rational combination of coordinate monomials;
the degree of a monomial weights each exponent by the weight of its
coordinate.  The space of polynomials of degree at most k has the
monomials of weighted degree <= k as a basis, listed here in graded
order (degree first, ties by descending exponent lexicographic order).

Coefficients are ``Fraction`` values, but the arithmetic builds each
result coefficient as a ``Fraction`` only once: products, translations and
restrictions clear the operands' denominators (scaling by the lcm of each
operand's coefficient denominators), accumulate in Python ints keyed by
exponent vector, and divide each output coefficient by the scale at the
end.  Results go through a trusted constructor that skips the validation
of the public one, which takes only ``int`` and ``Fraction`` coefficients.

Translations x -> p(u x) and x -> p(x u) are computed by composition.  The
group law is a list of bilinear terms (t, p, q), so each coordinate of u x
and of x u is an affine form L_t(x) = c_t + sum_i a_{t,i} x_i with integer
coefficients, read off that list, and a monomial x^a translates to
prod_t L_t^{a_t}, an integer polynomial.  The same substitution, with
linear forms taken from a matrix, restricts polynomials on abelian groups
to sublattices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import lcm
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ValidationError
# mul_coords is unused here, but the benchmark's tracer wraps it by this name
from .groups import GroupElement, GroupSchema, _require_int, mul_coords
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


def dim_pk_table(schema: GroupSchema, k: int) -> list[int]:
    """The dimensions of the spaces of polynomials of degree <= j, j = 0..k.

    Counted without enumerating the basis: exact[t] is the number of
    exponent vectors of weighted degree exactly t over the coordinates seen
    so far, one unbounded-knapsack pass per coordinate weight, O(n k); the
    dimensions are its prefix sums.
    """
    if k < 0:
        return []
    exact = [1] + [0] * k
    for w in schema.weights:
        for t in range(w, k + 1):
            exact[t] += exact[t - w]
    return list(accumulate(exact))


def dim_pk(schema: GroupSchema, k: int) -> int:
    """Dimension of the space of polynomials of degree <= k; 0 for k < 0."""
    return dim_pk_table(schema, k)[-1] if k >= 0 else 0


def _require_coeff(value: object) -> Fraction:
    """A coefficient as a Fraction; only int (not bool) and Fraction are taken."""
    # a float or a string would be coerced to some rational, a bool to 0 or 1
    if type(value) is Fraction:
        return value
    if type(value) is int:
        return Fraction(value)
    raise ValidationError(f"coefficient must be an int or a Fraction, got {value!r}")


def _cleared(coeffs: Iterable[Fraction]) -> tuple[int, list[int]]:
    """(s, [s * c for each c]) for s the lcm of the denominators, the least
    scale that makes every s * c an int."""
    coeffs = list(coeffs)
    s = lcm(*(c.denominator for c in coeffs))
    return s, [c.numerator * (s // c.denominator) for c in coeffs]


def _from_ints(
    schema: GroupSchema, acc: Mapping[tuple[int, ...], int], scale: int
) -> "Polynomial":
    """The polynomial sum_e (acc[e] / scale) x^e, one Fraction per non-zero term."""
    return Polynomial._trusted(
        schema, {Monomial(exps): Fraction(c, scale) for exps, c in acc.items() if c}
    )


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
                if type(mono) is not Monomial:
                    raise ValidationError(f"term key must be a Monomial, got {mono!r}")
                if len(mono.exponents) != schema.n_coords:
                    raise ValidationError("monomial does not match schema coordinate count")
                if any(type(e) is not int or e < 0 for e in mono.exponents):
                    raise ValidationError("monomial exponents must be non-negative ints")
                if type(coeff) is not Fraction:
                    coeff = _require_coeff(coeff)
                if coeff:
                    clean[mono] = coeff
        self.terms = clean

    @classmethod
    def _trusted(cls, schema: GroupSchema, terms: dict[Monomial, Fraction]) -> "Polynomial":
        """A polynomial that takes ownership of clean terms: non-zero Fraction
        values on monomials of the schema's length.  Nothing is checked."""
        p = object.__new__(cls)
        p.schema = schema
        p.terms = terms
        return p

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

    def _plus(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * other, for sign +1 or -1."""
        self._require_same_schema(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = terms.get(mono)
            if acc is None:
                terms[mono] = coeff if sign > 0 else -coeff
            else:
                acc = acc + coeff if sign > 0 else acc - coeff
                if acc:
                    terms[mono] = acc
                else:
                    del terms[mono]
        return Polynomial._trusted(self.schema, terms)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._plus(other, 1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._plus(other, -1)

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.schema, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Polynomial | Fraction | int") -> "Polynomial":
        if not isinstance(other, Polynomial):
            scalar = _require_coeff(other)
            if not scalar:
                return Polynomial._trusted(self.schema, {})
            return Polynomial._trusted(
                self.schema, {m: c * scalar for m, c in self.terms.items()}
            )
        self._require_same_schema(other)
        # (sa self) * (sb other) has integer coefficients
        sa, ints_a = _cleared(self.terms.values())
        sb, ints_b = _cleared(other.terms.values())
        right = [(m.exponents, b) for m, b in zip(other.terms, ints_b)]
        acc: dict[tuple[int, ...], int] = {}
        for m1, a in zip(self.terms, ints_a):
            e1 = m1.exponents
            for e2, b in right:
                exps = tuple(x + y for x, y in zip(e1, e2))
                acc[exps] = acc.get(exps, 0) + a * b
        return _from_ints(self.schema, acc, sa * sb)

    def __rmul__(self, other: "Fraction | int") -> "Polynomial":
        return self * other

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

    Read off the law: coordinate t of u*x is u_t + x_t plus u_p*x_q for each
    term (t, p, q), and of x*u it is u_t + x_t plus x_p*u_q.  The forms
    depend only on the arguments, so the last 512 are memoized (a raised
    error is not).
    """
    if len(u.coords) != schema.n_coords:
        raise ValidationError("translation element does not match the schema")
    uc = u.coords
    lins: list[dict[int, int]] = [{t: 1} for t in range(schema.n_coords)]
    for t, p, q in schema.law:
        v, a = (q, uc[p]) if side == "left" else (p, uc[q])
        lins[t][v] = lins[t].get(v, 0) + a
    return tuple(
        (c, tuple(sorted((v, a) for v, a in lin.items() if a))) for c, lin in zip(uc, lins)
    )


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
    """The polynomial p(L_1(x), ..., L_n(x)).

    Integer-cleared: with s the lcm of p's coefficient denominators, the
    integer images of p's monomials are summed with the integer weights
    s * coefficient, and each output coefficient is divided by s once.
    """
    scale, ints = _cleared(p.terms.values())
    acc: dict[tuple[int, ...], int] = {}
    for a, image in zip(ints, _monomial_images(forms, p.terms)):
        for exps, c in image.items():
            acc[exps] = acc.get(exps, 0) + a * c
    return _from_ints(p.schema, acc, scale)


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
    """Rewrite a polynomial on an abelian group Z^d in the coordinates of the
    sublattice M Z^d.

    Returns u -> p(M u).  The schema must have step 1 (all weights 1, no law
    terms), so the coordinates add.  The matrix must be square, integral and
    non-singular, so that M Z^d has finite index and the induced map on
    degree-<= k polynomials is a linear bijection.
    """
    schema = p.schema
    if schema.step != 1:
        raise ValidationError("sublattice restriction needs an abelian (step 1) schema")
    d = schema.n_coords
    if not isinstance(matrix, Sequence) or not all(isinstance(row, Sequence) for row in matrix):
        raise ValidationError("matrix must be a sequence of rows of ints")
    rows = [[_require_int(x, "matrix entry") for x in row] for row in matrix]
    if len(rows) != d or any(len(row) != d for row in rows):
        raise ValidationError(f"matrix must be {d}x{d}")
    if RationalMatrix.from_rows(rows, cols=d).rank != d:
        raise ValidationError("matrix is singular; the sublattice has infinite index")

    # x_i = sum_j M[i][j] u_j
    forms = tuple((0, tuple((j, x) for j, x in enumerate(row) if x)) for row in rows)
    return _compose(p, forms)
