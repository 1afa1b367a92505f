"""Symmetric probability measures and the associated group Laplacian.

The Laplacian of f at x is f(x) - sum_s mu(s) f(xs).  On polynomials of
degree <= k it lands in degree <= k-2, is surjective onto that space, and
its kernel is the space of degree-<= k harmonic functions; those facts are
what the matrix builders and solvers here rely on, and every one of them
is cross-checked by the verifier oracles and the test suite.

The operator sees mu only through its moments: x s is polynomial in s, so
the matrix is the measure's integer moments times the memoized symbolic
translation of each support pattern (``_assemble``).  That assembly is the
one implementation of Delta: ``laplacian_matrix`` keeps the last few
matrices, and ``apply_laplacian`` sums the columns of p's monomials in the
degree-(deg p) matrix; the suite checks those columns against the group law.
``solve_preimage`` answers to the group law too: the first solve against a
matrix certifies its pivot columns as Delta of their monomials, in one call
of the mean-value oracle, and every answer is checked as a sum of certified
columns (``_certified_columns``).
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import lcm
from types import MappingProxyType
from typing import Iterable, NamedTuple, Sequence

from .errors import InternalInconsistency, InvariantFailure, ValidationError
from .groups import (
    GroupElement,
    GroupSchema,
    _reaches_all_generators,
    _require_conforming,
    _require_int,
    identity,
    inv,
    inv_coords,
    standard_generators,
)
# unused here, but the benchmark's tracer wraps laplacian.reaches_all_generators by name
from .groups import reaches_all_generators  # noqa: F401
from .linalg import Inconsistent, RationalMatrix, _require_coeff
from .polynomials import (
    Exponents,
    IntTerms,
    Polynomial,
    _combine,
    _position,
    dim_pk,
    dim_pk_table,
    graded_index,
    moment_images,
    pk_basis,
    translate_left,
)
# unused here, but the benchmark's tracer wraps laplacian.translate_right by name
from .polynomials import translate_right  # noqa: F401
from .verify import _laplacian_checks

class Measure:
    """Finitely supported symmetric probability measure with rational weights.

    Validated on construction: coordinates are ints and weights ints or
    Fractions, never coerced from a float, bool or string; weights positive,
    total mass exactly 1, weight(g) = weight(g^-1) for every atom, and the
    measure must be adapted: its support generates the group, which is
    decided exactly from the weight-1 coordinates (see
    ``reaches_all_generators``).

    ``atoms`` is sorted by coordinates.  The validation's findings are kept:
    ``scale``, the lcm of the weights' denominators; ``int_weights``, scale
    times each weight, in ``atoms`` order; and ``groups``, one (pattern,
    ((coords, w), ...)) per maximal support pattern, in sorted order: a
    pattern is the sorted coordinates where an atom is not 0, maximal when
    no other atom's pattern holds it, and each non-identity atom, with
    w = scale * mu(s), goes to the first pattern that holds its own.
    """

    __slots__ = ("schema", "atoms", "scale", "int_weights", "groups", "_hash")

    def __init__(
        self,
        schema: GroupSchema,
        atoms: Mapping[GroupElement, Fraction | int] | Iterable[tuple[GroupElement, Fraction | int]],
    ):
        items = atoms.items() if isinstance(atoms, Mapping) else list(atoms)
        clean: dict[GroupElement, Fraction] = {}
        for g, w in items:
            _require_conforming(schema, g, "atom coordinate")
            w = _require_coeff(w, "atom weight")
            if w <= 0:
                raise ValidationError(f"atom {g.coords} has non-positive weight {w}")
            if g in clean:
                raise ValidationError(f"duplicate atom {g.coords}")
            clean[g] = w

        for g, w in clean.items():
            gi = GroupElement(inv_coords(schema, g.coords))
            if clean.get(gi) != w:
                raise ValidationError(
                    f"measure is not symmetric: atom {g.coords} has weight {w} "
                    f"but its inverse {gi.coords} has weight {clean.get(gi, 0)}"
                )
        mass = sum(clean.values(), Fraction(0))
        if mass != 1:
            raise ValidationError(f"total mass must be exactly 1, got {mass}")

        ok, missing = _reaches_all_generators(schema, [g.coords for g in clean if any(g.coords)])
        if not ok:
            raise ValidationError(
                f"measure is not adapted: its support does not generate {missing.coords}"
            )

        self.schema = schema
        self.atoms = MappingProxyType(
            {g: clean[g] for g in sorted(clean, key=lambda e: e.coords)}
        )
        self.scale = scale = lcm(*(w.denominator for w in clean.values()))
        self.int_weights = tuple(scale * w.numerator // w.denominator for w in self.atoms.values())
        # supports as bit masks; a mask holds another when it has all its bits
        masks = [sum(1 << i for i, c in enumerate(s.coords) if c) for s in self.atoms]
        maximal: list[int] = []
        for mask in sorted(set(masks) - {0}, key=int.bit_count, reverse=True):
            if all(mask & ~m for m in maximal):
                maximal.append(mask)
        patterns = sorted((tuple(i for i in range(schema.n_coords) if m >> i & 1), m)
                          for m in maximal)
        groups: dict[tuple[int, ...], list] = {p: [] for p, _ in patterns}
        for s, ws, mask in zip(self.atoms, self.int_weights, masks):
            if mask:
                groups[next(p for p, m in patterns if not mask & ~m)].append((s.coords, ws))
        self.groups = tuple((p, tuple(atoms)) for p, atoms in groups.items())
        # every laplacian_matrix lookup hashes the measure
        self._hash = hash((schema, frozenset(self.atoms.items())))

    def support(self) -> list[GroupElement]:
        """Non-identity atoms, sorted by coordinates."""
        return [g for g in self.atoms if any(g.coords)]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Measure)
            and self.schema == other.schema
            and self.atoms == other.atoms
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Measure({self.schema.name()}, {len(self.atoms)} atoms)"


def uniform_measure(schema: GroupSchema, elements: Sequence[GroupElement]) -> Measure:
    """Uniform measure on a symmetric set of elements."""
    if not elements:
        raise ValidationError("cannot build a measure on an empty set")
    w = Fraction(1, len(elements))
    return Measure(schema, [(g, w) for g in elements])


def generator_walk(schema: GroupSchema) -> Measure:
    """Uniform measure on {e_i^{+-1}} over the weight-1 coordinates.

    For lattices this is the simple random walk; for the Heisenberg and
    unitriangular families it is the walk on the elementary generators.
    """
    return uniform_measure(schema, standard_generators(schema))


def lazy_generator_walk(schema: GroupSchema, hold: Fraction = Fraction(1, 2)) -> Measure:
    """Generator walk with probability ``hold`` of staying put."""
    if not 0 < _require_coeff(hold, "holding probability") < 1:
        raise ValidationError("holding probability must be strictly between 0 and 1")
    gens = standard_generators(schema)
    w = (1 - hold) / len(gens)
    atoms = [(identity(schema), hold)] + [(g, w) for g in gens]
    return Measure(schema, atoms)


# -- the Laplacian -------------------------------------------------------------

def apply_laplacian(measure: Measure, p: Polynomial) -> Polynomial:
    """Delta p = p - sum_s mu(s) (x -> p(xs)); drops weighted degree by >= 2.

    Integer and linear: with p = sum_e n_e x^e / a for its integer numerators
    n_e and denominator a, and b the measure's ``scale``, a b Delta p =
    sum_e n_e D_e for D_e = b Delta x^e, column e of the degree-d matrix's
    integer rows, d = deg p, and the result is normalized over a b once.
    That matrix is assembled afresh, not read from ``laplacian_matrix``'s
    memo, and its rows are P^(d-2), so the image drops the degree by 2 by
    construction.  A schema other than the measure's, or a degree whose
    matrix ``matrix_shape`` refuses, is refused as the assembly refuses it.
    The suite checks the image of each monomial of degree at most 3 against
    the group law through the mean-value oracle.
    """
    k = p.degree or 0
    matrix = _assemble(p.schema, measure, k)
    up = graded_index(p.schema, k)
    return _combine(p, _columns(p.schema, matrix, k, [_position(up, e) for e in p.ints]),
                    measure.scale)


# The most cells (rows x columns) a Laplacian matrix may have.  lattice(4) at
# k = 16 has 14.8 million; a larger matrix would take minutes and gigabytes.
MAX_MATRIX_CELLS = 2 * 10**7


def matrix_shape(schema: GroupSchema, k: int) -> tuple[int, int]:
    """Rows and columns of the degree-k Laplacian matrix, from ``dim_pk`` alone.

    Raises ``ValidationError`` when the matrix would have more than
    ``MAX_MATRIX_CELLS`` cells.  Both dimensions grow with k, so a check at
    the largest degree of a run covers every smaller one.  ``dim_pk`` takes
    O(k) memory, so a degree too large for any schema is refused from k
    first: the first coordinate has weight 1, so dim P^j >= j + 1 and the
    matrix has at least (k - 1) x (k + 1) cells.
    """
    if k >= 2 and (k - 1) * (k + 1) > MAX_MATRIX_CELLS:
        raise ValidationError(
            f"the degree-{k} Laplacian matrix on {schema.name()} would be at least "
            f"{k - 1} x {k + 1}, more than the limit of {MAX_MATRIX_CELLS} cells"
        )
    n_rows, n_cols = dim_pk(schema, k - 2), dim_pk(schema, k)
    if n_rows * n_cols > MAX_MATRIX_CELLS:
        raise ValidationError(
            f"the degree-{k} Laplacian matrix on {schema.name()} would be "
            f"{n_rows} x {n_cols}, more than the limit of {MAX_MATRIX_CELLS} cells"
        )
    return n_rows, n_cols


# typed: 2.0 and True would hit the entry of k = 2 or 1 before the check
@lru_cache(maxsize=4, typed=True)
def laplacian_matrix(schema: GroupSchema, measure: Measure, k: int) -> RationalMatrix:
    """Matrix of the Laplacian from the degree-k basis to the degree-(k-2)
    basis, as ``_assemble`` builds it.  The last few matrices are kept, keyed
    by (schema, measure, k), so repeated solves against one Laplacian share
    one factorization."""
    return _assemble(schema, measure, k)


def _assemble(schema: GroupSchema, measure: Measure, k: int) -> RationalMatrix:
    """Matrix of the Laplacian from the degree-k basis to the degree-(k-2) basis.

    Columns follow pk_basis(schema, k), rows pk_basis(schema, k-2), both in
    graded order.  For k <= 1 the codomain is trivial and the matrix has
    zero rows.  With b the measure's ``scale``, the rows are integers over b:
    m(x s) = sum_gamma s^gamma U_gamma(m) for U_gamma of ``moment_images``,
    so b Delta m = -sum_{gamma != 0} P_gamma U_gamma(m) summed over the
    measure's ``groups``, P_gamma = sum_s b mu(s) s^gamma over a group's atoms
    (P_0 sums to b, and U_0(m) = m).  Only gamma = 0 and weight-1 gamma reach
    past degree k - 2: U_gamma does not depend on the pattern, and each
    weight-1 moment sums to 0 over a symmetric measure, so those terms are
    dropped once that sum is checked (InternalInconsistency if it is not 0,
    before any image is read).  The weight-1 coordinates are the first
    r = ``layer_ranks[0]``, and graded order puts s_t at basis index 1 + t,
    so those moments are read by position, as the slice 1..r of each
    group's moments.  A matrix of more than ``MAX_MATRIX_CELLS`` cells is
    refused by ``matrix_shape``, before any basis is enumerated.
    """
    if _require_int(k, "k") < 0:
        raise ValidationError("k must be non-negative")
    if schema != measure.schema:
        raise ValidationError("schema and measure do not match")
    n_rows, n_cols = matrix_shape(schema, k)
    r = schema.layer_ranks[0]
    for t in range(r):
        first = sum(ws * coords[t] for _, atoms in measure.groups for coords, ws in atoms)
        if first:
            raise InternalInconsistency(
                f"Laplacian image has an out-of-range term: the first moment "
                f"of coordinate {t + 1} is {first}/{measure.scale}, not 0"
            )
    rows: list[dict[int, int]] = [{} for _ in range(n_rows)]
    if not rows:
        return RationalMatrix._trusted(n_rows, n_cols, rows, measure.scale)
    for pattern, atoms in measure.groups:
        images = moment_images(schema, k, pattern)
        # the group's moments, s^gamma = s^parent s_t along the chain
        moments = [0] * n_cols
        for coords, ws in atoms:
            power = [ws] * n_cols
            for g, parent, t in images.chain:
                power[g] = power[parent] * coords[t]
                moments[g] += power[g]
        moments[1:1 + r] = [0] * r
        factors = list(map(moments.__getitem__, images.gammas))
        for j, i, c, a in compress(zip(images.cols, images.betas, images.coeffs, factors), factors):
            row = rows[i]
            row[j] = row.get(j, 0) - a * c
    # the entries that cancelled are dropped
    rows = [{j: c for j, c in row.items() if c} if 0 in row.values() else row for row in rows]
    return RationalMatrix._trusted(n_rows, n_cols, rows, measure.scale)


def _columns(
    schema: GroupSchema, matrix: RationalMatrix, k: int, cols: Iterable[int]
) -> list[IntTerms]:
    """The columns ``cols``, distinct, of the degree-k matrix's integer rows,
    each keyed by the monomials of P^(k-2): column j is b Delta x^e for x^e
    the j-th monomial of P^k, b the measure's ``scale``, so b Delta p is the
    sum of p's columns (``_combine``)."""
    columns: dict[int, IntTerms] = {j: {} for j in cols}
    int_rows, _ = matrix._int_rows()
    for row, entries in zip(pk_basis(schema, k - 2), int_rows):
        for j, c in entries.items():
            column = columns.get(j)
            if column is not None:
                column[row] = c
    return list(columns.values())


class HarmonicBasisReport(NamedTuple):
    """Kernel basis of the Laplacian on degree-<= k polynomials."""

    schema: GroupSchema
    measure: Measure
    k: int
    basis: tuple[Polynomial, ...]
    dim: int
    predicted_dim: int


def dim_hk(schema: GroupSchema, k: int) -> int:
    """dim of the degree-<= k harmonic space: dim P^k - dim P^{k-2}."""
    if _require_int(k, "k") < 0:
        raise ValidationError("k must be non-negative")
    return dim_pk(schema, k) - dim_pk(schema, k - 2)


def dim_hk_from_pk(pk: Sequence[int]) -> list[int]:
    """[dim H^0, ..., dim H^k] from pk = dim_pk_table(schema, k), by
    dim H^j = dim P^j - dim P^{j-2}."""
    return [dim - below for dim, below in zip(pk, [0, 0, *pk])]


def harmonic_basis(schema: GroupSchema, measure: Measure, k: int) -> HarmonicBasisReport:
    """Basis of harmonic polynomials of degree <= k, in the canonical
    kernel parameterization of the Laplacian matrix.

    Each kernel vector comes as non-zero integers over one denominator in
    lowest terms, so it is a polynomial's canonical form as it stands."""
    matrix = laplacian_matrix(schema, measure, k)
    domain = pk_basis(schema, k)
    basis = tuple(
        Polynomial._trusted(schema, {domain[i]: v for i, v in vec.items()}, den)
        for den, vec in matrix.factorization().kernel()
    )
    predicted = dim_hk(schema, k)
    if len(basis) != predicted:
        raise InvariantFailure(
            f"harmonic dimension {len(basis)} != predicted {predicted} "
            f"for {schema.name()}, k={k}"
        )
    return HarmonicBasisReport(schema, measure, k, basis, len(basis), predicted)


# keyed and bounded as laplacian_matrix, whose columns it certifies
@lru_cache(maxsize=4, typed=True)
def _certified_columns(schema: GroupSchema, measure: Measure, k: int) -> dict[Exponents, IntTerms]:
    """b Delta x^e for each monomial x^e whose column in the degree-k matrix
    is a pivot column and equals Delta x^e by the group law; b the
    measure's ``scale``.

    Column e, read off the matrix's integer rows over b (``_columns``), is a
    polynomial of P^(k-2) and x^e one of P^k, so one ``_laplacian_checks``
    call at S_(k-2) decides each pair (x^e, column e) exactly, on all of G.
    A column that fails is left out.  Callers must not modify the columns.
    """
    matrix = laplacian_matrix(schema, measure, k)
    pivots = matrix.factorization().pivots
    columns = _columns(schema, matrix, k, pivots)
    domain = pk_basis(schema, k)
    monomials = [Polynomial._trusted(schema, {domain[j]: 1}, 1) for j in pivots]
    checks = _laplacian_checks(measure, k, [
        (x, _combine(x, [column], measure.scale)) for x, column in zip(monomials, columns)])
    return {domain[j]: column
            for j, column, check in zip(pivots, columns, checks) if check.passed}


def solve_preimage(schema: GroupSchema, measure: Measure, q: Polynomial) -> Polynomial:
    """A polynomial p of degree <= deg q + 2 with Delta p = q, exactly.

    The factorization solves for q's integer numerators, keyed by row index
    in pk_basis(schema, deg q), and gives p in its canonical form, integers
    over one denominator in lowest terms.  Surjectivity of the Laplacian
    guarantees a solution; failure to find one is reported as an internal
    inconsistency, not as a normal outcome.

    The answer is checked against the group law: each monomial x^e of p must
    have a column in ``_certified_columns``, b Delta x^e by the group law on
    all of G, and their sum over p's coefficients must be q.  Delta is
    linear, so Delta p is that sum, and the check is exact everywhere.  The
    first solve against a matrix pays for one oracle call on all its pivot
    columns; the solve gives p on pivot columns alone, so every later check
    is a sum of certified columns.
    """
    if q.schema != schema:
        raise ValidationError("polynomial does not match the schema")
    if q.is_zero:
        return Polynomial(schema)
    k = q.degree + 2
    matrix = laplacian_matrix(schema, measure, k)
    # P^{k-2} is the graded prefix of P^k, so q's rows are its monomials' positions there
    up = graded_index(schema, k)
    sol = matrix.factorization().solve((q.den, {_position(up, e): n for e, n in q.ints.items()}))
    if isinstance(sol, Inconsistent):
        raise InternalInconsistency(
            f"no Laplacian preimage found for degree-{q.degree} input; "
            f"inconsistent at reduced row {sol.row}"
        )
    den, vec = sol
    domain = pk_basis(schema, k)
    p_hat = Polynomial._trusted(schema, {domain[i]: n for i, n in vec.items()}, den)
    certified = _certified_columns(schema, measure, k)
    columns = [certified.get(e) for e in p_hat.ints]
    if None in columns or _combine(p_hat, columns, measure.scale) != q:
        raise InternalInconsistency("preimage verification failed")
    return p_hat


def action_is_trivial(
    schema: GroupSchema, measure: Measure, k: int, g: GroupElement
) -> bool:
    """Whether left translation by g fixes every degree-<= k harmonic function."""
    report = harmonic_basis(schema, measure, k)
    gi = inv(schema, g)
    return all(translate_left(f, gi) == f for f in report.basis)


class GrowthRow(NamedTuple):
    k: int
    dim: int
    ratio: Fraction | None


def growth_exponent_table(
    schema: GroupSchema, measure: Measure, k_max: int
) -> list[GrowthRow]:
    """Harmonic dimensions for k = 0..k_max with the ratios dim / k^(d-1),
    d the coordinate count (the Hirsch length).

    Dimensions come from the kernel-dimension identity
    dim H^k = dim P^k - dim P^{k-2}, read off one ``dim_pk_table`` count;
    the identity itself is verified against explicit kernels elsewhere,
    which keeps large k cheap here.
    """
    if _require_int(k_max, "k_max") < 2:
        raise ValidationError("k_max must be at least 2")
    if schema != measure.schema:
        raise ValidationError("schema and measure do not match")
    d = schema.n_coords
    dims = dim_hk_from_pk(dim_pk_table(schema, k_max))
    return [
        GrowthRow(k, dim, Fraction(dim, k ** (d - 1)) if k else None) for k, dim in enumerate(dims)
    ]
