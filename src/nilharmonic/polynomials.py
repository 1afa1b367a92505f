"""Coordinate polynomials with exact rational coefficients.

A polynomial is a finite rational combination of coordinate monomials;
the degree of a monomial weights each exponent by the weight of its
coordinate.  The space of polynomials of degree at most k has the
monomials of weighted degree <= k as a basis, listed here in graded
order (degree first, ties by descending exponent lexicographic order).

A ``Polynomial`` stores integer numerators over one positive denominator:
``ints`` maps each exponent vector (a plain tuple) to a non-zero ``int``,
and the coefficient there is that int divided by ``den``.  The form is
canonical: ``gcd(den, *ints.values()) == 1``, and the zero polynomial has
``den == 1``, so two polynomials are equal exactly when their ``den`` and
``ints`` are.  Every operation works on the ints and normalizes its result
once, by a single gcd; ``Fraction`` values are made only where a caller
reads them (``terms``, ``evaluate``).  A monomial is its exponent vector, a
plain tuple of non-negative ints, everywhere: the public constructor takes
``int`` and ``Fraction`` coefficients on such keys and validates both, and
is the one way to build a polynomial from terms (``Polynomial(schema)`` is
zero, ``Polynomial(schema, {exps: 1})`` a monomial); ``pk_basis`` returns
its memoized tuple of them.

Translations x -> p(u x) and x -> p(x u) are computed by composition.  The
group law is a list of bilinear terms (t, p, q), so each coordinate of u x
and of x u is an affine form L_t(x) = c_t + sum_i a_{t,i} x_i with integer
coefficients, read off that list, and a monomial x^a translates to
prod_t L_t^{a_t}, an integer polynomial, built as L_t times the image of
x^a / x_t for t the first non-zero coordinate.  The same substitution,
with linear forms taken from a matrix, restricts polynomials on abelian
groups to sublattices.  Both read their monomial images through ``_images``
from its one memo, ``_IMAGES``, keyed by the affine forms themselves, so
equal forms share their images: heisenberg(1) and unitriangular(3), the
left and right translations of an abelian group, and restriction by the
identity matrix and translation by the identity.  The Laplacian matrix
reads its translations from ``moment_images``: the same recursion, run on
basis indices, translates a whole basis by a symbolic element s whose
non-zero coordinates are one support pattern.  ``graded_index`` is the one table of
those indices, each monomial's index times each coordinate; each monomial's
first-coordinate parent is read off it.  Each term of an image is a
monomial in x and one in s; the images' own memo is keyed by what they
read, the weights, the law and the pattern.  ``apply_laplacian`` reads its
columns off that assembly too, so the Laplacian has one path.

Rendering (``str`` and the JSON object of ``serialize.polynomial_to_obj``)
goes through ``render_terms``, which reads each monomial's graded sort key
and factor text, such as ``x1^2*x3``, from a memo keyed by schema.  These
memos, and the bases and graded indices (keyed by the weights, all they
read), are bounded ``_Memo``s; what they drop is computed again.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, repeat
from math import gcd, lcm
from operator import add, itemgetter, mul
from typing import Any, Callable, Hashable, Iterable, Mapping, NamedTuple

from .errors import InternalInconsistency, ValidationError
# mul_coords is unused here, but the benchmark's tracer wraps it by this name
from .groups import GroupElement, GroupSchema, _require_conforming, _require_int, mul_coords
from .linalg import _eliminate, _int_vector, _lowest, _require_coeff

Exponents = tuple[int, ...]
IntTerms = dict[Exponents, int]


def pk_basis(schema: GroupSchema, k: int) -> tuple[Exponents, ...]:
    """The exponent vectors of weighted degree <= k, in graded order; empty
    for k < 0.  One tuple per (weights, k) is memoized and shared by callers."""
    # degree by degree: m != 1 is m' x_v for v its first non-zero coordinate
    if _require_int(k, "k") < 0:
        return ()
    weights = schema.weights
    bases = _BASES.get(weights)
    if k in bases:
        return bases[k]
    levels = [[(0,) * schema.n_coords]]
    for d in range(1, k + 1):
        level = []
        for v, w in enumerate(weights):
            if w <= d:
                level += [e[:v] + (e[v] + 1,) + e[v + 1:] for e in levels[d - w] if not any(e[:v])]
        levels.append(sorted(level, reverse=True))
    basis = tuple(e for level in levels for e in level)
    _BASES.store(weights, bases, k, basis)
    return basis


def _parent(exps: Exponents) -> tuple[Exponents, int]:
    """m and t with exps = x_t m, for t the first non-zero coordinate of exps."""
    t = next(i for i, e in enumerate(exps) if e)
    return exps[:t] + (exps[t] - 1,) + exps[t + 1:], t


def graded_index(schema: GroupSchema, k: int) -> tuple[list[int], ...]:
    """The rows ``up`` of pk_basis(schema, k), k >= 0: ``up[v][j]`` is the
    index of m_j x_v, or the basis size past degree k.  Memoized per
    (weights, k).  pk_basis(schema, k - 2) is the graded prefix of this basis,
    so an index below its size names the same monomial in both."""
    indices = _INDICES.get(schema.weights)
    if k in indices:
        return indices[k]
    basis = pk_basis(schema, k)
    size = len(basis)  # one int object for every miss
    position = {e: i for i, e in enumerate(basis)}
    up = tuple([position.get(e[:v] + (e[v] + 1,) + e[v + 1:], size) for e in basis]
               for v in range(schema.n_coords))
    _INDICES.store(schema.weights, indices, k, up)
    return up


def _position(up: Sequence[list[int]], exps: Exponents) -> int:
    """The index of x^exps in the basis whose ``graded_index`` is ``up``, for
    x^exps in that basis: the walk from the constant multiplies in x_t
    exps[t] times for each t, and every monomial on the way divides x^exps,
    so it is in the basis too and no step reads the past-degree-k size."""
    i = 0
    for row, e in zip(up, exps):
        for _ in range(e):
            i = row[i]
    return i


def dim_pk_table(schema: GroupSchema, k: int) -> list[int]:
    """The dimensions of the spaces of polynomials of degree <= j, j = 0..k.

    Counted without enumerating the basis: exact[t] is the number of
    exponent vectors of weighted degree exactly t over the coordinates seen
    so far, one unbounded-knapsack pass per coordinate weight, O(n k); the
    dimensions are its prefix sums.
    """
    if _require_int(k, "k") < 0:
        return []
    exact = [1] + [0] * k
    for w in schema.weights:
        for t in range(w, k + 1):
            exact[t] += exact[t - w]
    return list(accumulate(exact))


def dim_pk(schema: GroupSchema, k: int) -> int:
    """Dimension of the space of polynomials of degree <= k; 0 for k < 0."""
    table = dim_pk_table(schema, k)
    return table[-1] if table else 0


def _from_ints(schema: GroupSchema, acc: IntTerms, den: int) -> "Polynomial":
    """The polynomial sum_e (acc[e] / den) x^e for den > 0, in canonical form:
    zero entries dropped, then the gcd of den and the entries divided out.
    It may keep ``acc`` itself, so the caller must not use it again."""
    ints = {e: c for e, c in acc.items() if c} if 0 in acc.values() else acc
    den, ints = _lowest(den, ints)
    return Polynomial._trusted(schema, ints, den)


class Polynomial:
    """Sparse exact-rational combination of coordinate monomials, kept as
    integer numerators over one positive denominator (see the module notes)."""

    __slots__ = ("schema", "ints", "den")

    def __init__(
        self,
        schema: GroupSchema,
        terms: Mapping[Exponents, Fraction | int] | None = None,
    ):
        clean: dict[Exponents, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                if type(exps) is not tuple:
                    raise ValidationError(f"term key must be an exponent tuple, got {exps!r}")
                if len(exps) != schema.n_coords:
                    raise ValidationError("monomial does not match schema coordinate count")
                if any(type(e) is not int or e < 0 for e in exps):
                    raise ValidationError("monomial exponents must be non-negative ints")
                if type(coeff) is not Fraction:
                    coeff = _require_coeff(coeff)
                if coeff:
                    clean[exps] = coeff
        self.schema = schema
        self.den, self.ints = _int_vector(clean)

    @classmethod
    def _trusted(cls, schema: GroupSchema, ints: IntTerms, den: int) -> "Polynomial":
        """A polynomial that takes ownership of canonical integer terms: non-zero
        ints on exponent vectors of the schema's length, over den > 0 sharing
        no factor with all of them.  Nothing is checked."""
        p = object.__new__(cls)
        p.schema = schema
        p.ints = ints
        p.den = den
        return p

    # -- constructors ---------------------------------------------------------

    @classmethod
    def coordinate(cls, schema: GroupSchema, i: int) -> "Polynomial":
        """The coordinate function x_i (1-based index)."""
        if not 1 <= _require_int(i, "coordinate index") <= schema.n_coords:
            raise ValidationError(f"coordinate index {i} out of range 1..{schema.n_coords}")
        exps = [0] * schema.n_coords
        exps[i - 1] = 1
        return cls(schema, {tuple(exps): 1})

    # -- basic queries --------------------------------------------------------

    @property
    def terms(self) -> dict[Exponents, Fraction]:
        """The non-zero coefficients by exponent vector, as a new dict on every read."""
        den = self.den
        return {e: Fraction(c, den) for e, c in self.ints.items()}

    @property
    def is_zero(self) -> bool:
        return not self.ints

    @property
    def degree(self) -> int | None:
        """Weighted degree, or None for the zero polynomial."""
        if not self.ints:
            return None
        weights = self.schema.weights
        return max(sum(map(mul, weights, e)) for e in self.ints)

    def evaluate(self, g: GroupElement) -> Fraction:
        _require_conforming(self.schema, g)
        total = 0
        for exps, v in self.ints.items():
            for c, e in zip(g.coords, exps):
                if e:
                    v *= c**e
            total += v
        return Fraction(total, self.den)

    # -- arithmetic -----------------------------------------------------------

    def _require_same_schema(self, other: "Polynomial") -> None:
        if self.schema is not other.schema and self.schema != other.schema:
            raise ValidationError("polynomials belong to different schemas")

    def _plus(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * other, for sign +1 or -1, over the lcm of the two dens."""
        self._require_same_schema(other)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        acc = dict(self.ints) if fa == 1 else {e: c * fa for e, c in self.ints.items()}
        get = acc.get
        for e, c in other.ints.items():
            acc[e] = get(e, 0) + fb * c
        return _from_ints(self.schema, acc, den)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._plus(other, 1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._plus(other, -1)

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.schema, {e: -c for e, c in self.ints.items()}, self.den)

    def __mul__(self, other: "Polynomial | Fraction | int") -> "Polynomial":
        if not isinstance(other, Polynomial):
            scalar = _require_coeff(other)
            if not scalar:
                return Polynomial._trusted(self.schema, {}, 1)
            n = scalar.numerator
            return _from_ints(
                self.schema, {e: c * n for e, c in self.ints.items()},
                self.den * scalar.denominator,
            )
        self._require_same_schema(other)
        right = list(other.ints.items())
        acc: IntTerms = {}
        get = acc.get
        for e1, a in self.ints.items():
            for e2, b in right:
                exps = tuple(map(add, e1, e2))
                acc[exps] = get(exps, 0) + a * b
        return _from_ints(self.schema, acc, self.den * other.den)

    def __rmul__(self, other: "Fraction | int") -> "Polynomial":
        return self * other

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Polynomial)
            and (self.schema is other.schema or self.schema == other.schema)
            and self.den == other.den
            and self.ints == other.ints
        )

    __hash__ = None  # type: ignore[assignment]

    # -- rendering ------------------------------------------------------------

    def __str__(self) -> str:
        return render_terms(self)[1]

    def __repr__(self) -> str:
        return f"Polynomial({self.schema.name()}: {self})"


def _require_polynomial(p: object) -> Polynomial:
    if not isinstance(p, Polynomial):
        raise ValidationError(f"expected a polynomial, got {p!r}")
    return p


# -- the memo of monomial images and rendered monomials -----------------------

class _Memo:
    """A least-recently-used map from keys to dicts, bounded in the items
    stored over all its dicts, where an item counts its value's ``cost``.

    ``get`` returns a key's dict, or a new empty one for a key with none, and
    ``store`` puts an item in it.  An item that would pass the bound first
    drops the least recently used other dicts, then its own dict's oldest
    items, in insertion order; only an item costlier than the whole bound is
    not stored.  A key's dict is registered only once it holds an item, so
    the bound also bounds the number of dicts.  A reader stores into the dict
    it got before it gets another key's.
    """

    def __init__(self, bound: int, cost: Callable[[Any], int] = lambda value: 1):
        self.bound = bound
        self.cost = cost
        self.clear()

    def clear(self) -> None:
        self.dicts: OrderedDict[Hashable, dict] = OrderedDict()
        self.size = 0

    def get(self, key: Hashable) -> dict:
        d = self.dicts.get(key)
        if d is None:
            return {}
        self.dicts.move_to_end(key)
        return d

    def store(self, key: Hashable, d: dict, item: Hashable, value: Any) -> None:
        """d[item] = value, for d the dict that ``get(key)`` returned, if it fits."""
        cost = self.cost(value)
        if cost > self.bound:
            return
        if self.size + cost > self.bound:
            for other in [k for k in self.dicts if k != key]:
                self.size -= sum(map(self.cost, self.dicts.pop(other).values()))
                if self.size + cost <= self.bound:
                    break
            while self.size + cost > self.bound:  # only d's own items are left
                self.size -= self.cost(d.pop(next(iter(d))))
        if not d:  # registered with its first item; a registered dict is never empty
            self.dicts[key] = d
        d[item] = value
        self.size += cost


# The memos' bounds.  Measured full with tracemalloc, 2**14 image terms take
# 6.7 MB on lattice(36) and 2.1 MB on heisenberg(2), 4 * 4096 rendered
# monomials 8.8 MB on lattice(36) and 5.2 MB on heisenberg(2), and the basis
# and index memos, where each costs its basis size, 73 MB together, 36 MB of
# it the indices (lattice(29) at k = 4, the largest Laplacian basis at 40,920
# monomials, and lattice(12..36) at k = 3).  2**18
# moment terms take 10.0 MB (the 260,144 terms of the two generator patterns
# of heisenberg(1) at k = 36) to 16.0 MB (the 256,958 of the 36 patterns of
# lattice(36) at k = 3).
_IMAGE_TERMS = 2**14
_RENDER_MONOMIALS = 4 * 4096
_BASIS_MONOMIALS = 2**17
_MOMENT_TERMS = 2**18

_IMAGES = _Memo(_IMAGE_TERMS, len)
_RENDERED = _Memo(_RENDER_MONOMIALS)
_BASES = _Memo(_BASIS_MONOMIALS, len)
_INDICES = _Memo(_BASIS_MONOMIALS, lambda up: len(up[0]))
_MOMENTS = _Memo(_MOMENT_TERMS, lambda images: len(images.chain) + len(images.cols))


# -- rendering -------------------------------------------------------------------
#
# The render memo maps a schema to its monomials' graded sort keys and factor
# texts: (2, 0, 1) on heisenberg(1) to ((4, (-2, 0, -1)), "x^2*z").

def render_terms(p: Polynomial) -> tuple[list[tuple[Exponents, str]], str]:
    """p's terms in graded order, each as its exponent vector and its
    coefficient as ``str(Fraction)`` writes it, and p's text as ``str(p)``
    writes it: leading degree first, the terms of one degree in graded
    order, "0" for no terms.

    A sort on the render memo's keys gives graded order, and a stable sort by
    descending degree the text's.  n / den is written reduced by gcd(n, den).
    """
    schema = _require_polynomial(p).schema
    memo = _RENDERED.get(schema)
    den = p.den
    rows = []
    for e, n in p.ints.items():
        entry = memo.get(e)
        if entry is None:
            names = schema.coord_names
            factors = [s if x == 1 else f"{s}^{x}" for s, x in zip(names, e) if x]
            key = (sum(map(mul, schema.weights, e)), tuple(-x for x in e))
            entry = (key, "*".join(factors))
            _RENDERED.store(schema, memo, e, entry)
        g = gcd(n, den)
        coeff = str(n // g) if g == den else f"{n // g}/{den // g}"
        rows.append((entry[0], e, coeff, entry[1]))
    rows.sort(key=itemgetter(0))
    terms = [(e, coeff) for _, e, coeff, _ in rows]
    rows.sort(key=lambda row: row[0][0], reverse=True)  # reverse=True keeps ties in order
    pieces: list[str] = []
    for _, _, coeff, factors in rows:
        negative = coeff[0] == "-"
        magnitude = coeff[1:] if negative else coeff
        if not factors:
            body = magnitude
        elif magnitude == "1":
            body = factors
        else:
            body = f"{magnitude}*{factors}"
        if pieces:
            pieces.append(f"- {body}" if negative else f"+ {body}")
        else:
            pieces.append(f"-{body}" if negative else body)
    return terms, " ".join(pieces) or "0"


# -- translation by composition -----------------------------------------------

# An affine form c + sum_i a_i x_i in the coordinates, stored as
# (c, ((i, a_i), ...)) over the non-zero a_i (0-based i).
AffineForm = tuple[int, tuple[tuple[int, int], ...]]


# The bound of the forms cache: the verify benchmark's 27 suite runs read the
# forms of 49 (schema, u, side), all left translations, 31 of them distinct.
_TRANSLATION_FORMS = 512


@lru_cache(maxsize=_TRANSLATION_FORMS)
def _translation_forms(
    schema: GroupSchema, u: GroupElement, side: str
) -> tuple[AffineForm, ...]:
    """The affine forms of the coordinates of u*x (side left) or x*u (side right).

    Read off the law: coordinate t of u*x is u_t + x_t plus u_p*x_q for each
    term (t, p, q), and of x*u it is u_t + x_t plus x_p*u_q.
    """
    _require_conforming(schema, u)
    uc = u.coords
    lins: list[dict[int, int]] = [{t: 1} for t in range(schema.n_coords)]
    for t, p, q in schema.law:
        v, a = (q, uc[p]) if side == "left" else (p, uc[q])
        lins[t][v] = lins[t].get(v, 0) + a
    return tuple(
        (c, tuple(sorted((v, a) for v, a in lin.items() if a))) for c, lin in zip(uc, lins)
    )


def _times(form: AffineForm, image: IntTerms) -> IntTerms:
    """L * image for the affine form L."""
    c, lin = form
    out: IntTerms = {}
    for e, coeff in image.items():
        if c:
            out[e] = out.get(e, 0) + c * coeff
        for v, a in lin:
            bumped = e[:v] + (e[v] + 1,) + e[v + 1:]
            out[bumped] = out.get(bumped, 0) + a * coeff
    return {e: coeff for e, coeff in out.items() if coeff}


def _images(forms: tuple[AffineForm, ...], keys: Iterable[Exponents]) -> list[IntTerms]:
    """T(x^e) = prod_t L_t^{e_t} for each exponent vector e of ``keys``.

    T(x_t m) = L_t T(m) for t the first non-zero coordinate of x_t m, so an
    image is a chain of affine products from the longest part stored in
    ``_IMAGES`` under ``forms``, or from the constant monomial, which T fixes.
    Each new image on the way is offered to that memo.  Callers must not
    modify the images.
    """
    images = _IMAGES.get(forms)
    out = []
    for exps in keys:
        image = images.get(exps)
        if image is None:
            chain = []
            while exps not in images and any(exps):
                parent, t = _parent(exps)
                chain.append((exps, t))
                exps = parent
            image = images[exps] if exps in images else {exps: 1}
            for exps, t in reversed(chain):
                image = _times(forms[t], image)
                _IMAGES.store(forms, images, exps, image)
        out.append(image)
    return out


class MomentImages(NamedTuple):
    """Parallel tuples, one entry per term coeff * s^gamma x^beta of m_col(x s),
    in order of col, each of col, gamma and beta a basis index; ``chain`` is
    (gamma, parent, t) for each s^gamma != 1 that occurs, in graded order,
    s^gamma = s^parent s_t."""

    chain: tuple[tuple[int, int, int], ...]
    cols: tuple[int, ...]
    gammas: tuple[int, ...]
    betas: tuple[int, ...]
    coeffs: tuple[int, ...]


def moment_images(schema: GroupSchema, k: int, pattern: tuple[int, ...]) -> MomentImages:
    """x -> m(x s) for each m in pk_basis(schema, k), k >= 0, as a polynomial
    in x and in a symbolic s whose coordinates outside ``pattern`` (sorted
    0-based indices) are 0.  Memoized per (weights, law, pattern) and k.

    The recursion T(x_t m) = L_t T(m) of ``_images``, on basis indices, with
    L_t = x_t + [t in pattern] s_t + sum x_p s_q over the law's terms
    (t, p, q) with q in ``pattern``.  A law term with weight(p) + weight(q) >
    weight(t), which ``GroupSchema`` refuses, would leave P^k: it raises
    InternalInconsistency.
    """
    weights, law = schema.weights, schema.law
    key = (weights, law, pattern)
    memo = _MOMENTS.get(key)
    if k in memo:
        return memo[k]
    if any(weights[p] + weights[q] > weights[t] for t, p, q in law):
        raise InternalInconsistency("a law term outweighs its target; translation leaves P^k")
    up = graded_index(schema, k)
    size = len(up[0])
    # per coordinate t, the (s, x) index maps of L_t's terms s_t and x_p s_q
    bumps: list[list[tuple[Sequence[int], Sequence[int]]]] = [
        [(up[t], range(size))] if t in pattern else [] for t in range(schema.n_coords)
    ]
    for t, p, q in law:
        if q in pattern:
            bumps[t].append((up[q], up[p]))
    # steps[i] is (j, t) with m_i = m_j x_t for t the first non-zero
    # coordinate of m_i; that holds just when t <= lead[j], m_j's first
    # non-zero coordinate (any t for the constant), so one walk in graded
    # order finds each step once
    steps = [None] * size
    lead = [schema.n_coords - 1] * size
    for j in range(size):
        for t in range(lead[j] + 1):
            i = up[t][j]
            if i != size:
                steps[i] = (j, t)
                lead[i] = t
    # T is multiplicative, so x_t m may be reached from m for any t it holds;
    # a t with L_t = x_t moves T(m)'s terms apart and adds none
    reach = list(steps)
    for t, terms in enumerate(bumps):
        if not terms:
            for j, i in enumerate(up[t]):
                if i != size:
                    reach[i] = (j, t)
    images = [((0,), (0,), (1,))]  # (gammas, betas, coeffs) of each T(m)
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
    cols = tuple(chain.from_iterable(map(repeat, range(size), (len(gs) for gs, _, _ in images))))
    gammas, betas, coeffs = (tuple(chain.from_iterable(map(itemgetter(n), images))) for n in range(3))
    seen = set(gammas)  # each s^gamma's first-coordinate parent occurs too
    links = tuple((i, *steps[i]) for i in range(1, size) if i in seen)
    found = MomentImages(links, cols, gammas, betas, coeffs)
    _MOMENTS.store(key, memo, k, found)
    return found


def _combine(p: Polynomial, images: Iterable[IntTerms], scale: int = 1) -> Polynomial:
    """sum_e p.ints[e] * images[e] / (p.den * scale), for one image per term of p."""
    acc: IntTerms = {}
    get = acc.get
    for a, image in zip(p.ints.values(), images):
        for exps, c in image.items():
            acc[exps] = get(exps, 0) + a * c
    return _from_ints(p.schema, acc, p.den * scale)


def _translate(p: Polynomial, u: GroupElement, side: str) -> Polynomial:
    # before the forms cache, which takes (1.0, 0) for the (1, 0) it holds
    _require_conforming(_require_polynomial(p).schema, u)
    return _combine(p, _images(_translation_forms(p.schema, u, side), p.ints))


def translate_left(p: Polynomial, u: GroupElement) -> Polynomial:
    """The polynomial x -> p(u x)."""
    return _translate(p, u, "left")


def translate_right(p: Polynomial, u: GroupElement) -> Polynomial:
    """The polynomial x -> p(x u)."""
    return _translate(p, u, "right")


def left_derivative(p: Polynomial, u: GroupElement) -> Polynomial:
    """x -> p(u x) - p(x); strictly degree-decreasing on non-constants."""
    return translate_left(p, u) - p


# -- lattice restriction --------------------------------------------------------

def restrict_to_sublattice(p: Polynomial, matrix: Sequence[Sequence[int]]) -> Polynomial:
    """Rewrite a polynomial on an abelian group Z^d in the coordinates of the
    sublattice M Z^d.

    Returns u -> p(M u).  The schema must have step 1 (all weights 1, no law
    terms), so the coordinates add.  The matrix must be square, integral and
    non-singular, so that M Z^d has finite index and the induced map on
    degree-<= k polynomials is a linear bijection.
    """
    schema = _require_polynomial(p).schema
    if schema.step != 1:
        raise ValidationError("sublattice restriction needs an abelian (step 1) schema")
    d = schema.n_coords
    if not isinstance(matrix, Sequence) or not all(isinstance(row, Sequence) for row in matrix):
        raise ValidationError("matrix must be a sequence of rows of ints")
    rows = [[_require_int(x, "matrix entry") for x in row] for row in matrix]
    if len(rows) != d or any(len(row) != d for row in rows):
        raise ValidationError(f"matrix must be {d}x{d}")
    entries = [{j: x for j, x in enumerate(row) if x} for row in rows]
    if len(_eliminate(d, d, entries, 1).pivots) != d:
        raise ValidationError("matrix is singular; the sublattice has infinite index")

    # x_i = sum_j M[i][j] u_j
    forms = tuple((0, tuple(row.items())) for row in entries)
    return _combine(p, _images(forms, p.ints))
