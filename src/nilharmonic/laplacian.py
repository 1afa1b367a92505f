"""Symmetric probability measures and the associated group Laplacian.

The Laplacian of f at x is f(x) - sum_s mu(s) f(xs).  On polynomials of
degree <= k it lands in degree <= k-2, is surjective onto that space, and
its kernel is the space of degree-<= k harmonic functions; those facts are
what the matrix builders and solvers here rely on, and every one of them
is cross-checked by the verifier oracles and the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import InternalInconsistency, InvariantFailure, ValidationError
from .groups import (
    GroupElement,
    GroupSchema,
    _require_conforming,
    identity,
    inv,
    inv_coords,
    reaches_all_generators,
    standard_generators,
)
from .linalg import Inconsistent, RationalMatrix
from .polynomials import (
    Polynomial,
    _from_fractions,
    _from_ints,
    _images,
    _require_coeff,
    _translation_forms,
    dim_pk,
    dim_pk_table,
    graded_images,
    pk_basis,
    translate_left,
)
# unused here, but the benchmark's tracer wraps laplacian.translate_right by name
from .polynomials import translate_right  # noqa: F401

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
    times each weight, in ``atoms`` order; and ``pairs``, one (s, s^-1, w)
    per pair of non-identity atoms, s the smaller and w = scale * mu(s), in
    order of s.
    """

    __slots__ = ("schema", "atoms", "scale", "int_weights", "pairs", "_hash")

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

        inverses: dict[GroupElement, GroupElement] = {}
        for g, w in clean.items():
            gi = inverses[g] = GroupElement(inv_coords(schema, g.coords))
            if clean.get(gi) != w:
                raise ValidationError(
                    f"measure is not symmetric: atom {g.coords} has weight {w} "
                    f"but its inverse {gi.coords} has weight {clean.get(gi, 0)}"
                )
        mass = sum(clean.values(), Fraction(0))
        if mass != 1:
            raise ValidationError(f"total mass must be exactly 1, got {mass}")

        support = [g for g in clean if any(g.coords)]
        ok, missing = reaches_all_generators(schema, support)
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
        self.pairs = tuple(
            (s, inverses[s], ws) for s, ws in zip(self.atoms, self.int_weights) if s < inverses[s]
        )
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
    if not 0 < hold < 1:
        raise ValidationError("holding probability must be strictly between 0 and 1")
    gens = standard_generators(schema)
    w = (1 - hold) / len(gens)
    atoms = [(identity(schema), hold)] + [(g, w) for g in gens]
    return Measure(schema, atoms)


# -- the Laplacian -------------------------------------------------------------

def apply_laplacian(measure: Measure, p: Polynomial) -> Polynomial:
    """Delta p = p - sum_s mu(s) (x -> p(xs)); drops weighted degree by >= 2.

    Integer: with p = P / a for its integer numerators P and denominator a,
    and b the measure's ``scale``, a b Delta p = sum_s (b mu(s))
    (P - P(x s)), as mu has mass 1.  That sum is accumulated in ints, one
    atom at a time over the memoized right translates of p's monomials, and
    the result is normalized over a b once.  The suite checks the matrix
    assembly, which sweeps its own translates, against this path.
    """
    if p.schema != measure.schema:
        raise ValidationError("polynomial and measure belong to different schemas")
    schema = p.schema
    ints = p.ints
    acc = {e: measure.scale * a for e, a in ints.items()}
    for s, ws in zip(measure.atoms, measure.int_weights):
        for a, image in zip(ints.values(), _images(_translation_forms(schema, s, "right"), ints)):
            wa = ws * a
            for exps, c in image.items():
                acc[exps] = acc.get(exps, 0) - wa * c
    result = _from_ints(schema, acc, p.den * measure.scale)
    k = p.degree
    kr = result.degree
    if k is not None and kr is not None and kr > k - 2:
        raise InternalInconsistency(
            f"Laplacian image has degree {kr}, expected <= {k - 2}"
        )
    return result


@lru_cache(maxsize=128)
def _pair_columns(
    schema: GroupSchema, s: GroupElement, k: int
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Integer columns of m -> 2m - m(x s) - m(x s^-1) over the degree-k basis.

    One column per monomial of pk_basis(schema, k), as (row, coefficient)
    pairs over pk_basis(schema, k - 2), its graded prefix; each second
    difference drops the degree by 2.  Callers pass the member of
    {s, s^-1} with the smaller coordinates.  The last 128 are memoized (a
    raised error is not); code that patches ``graded_images`` must call
    ``cache_clear``.
    """
    n_rows = dim_pk(schema, k - 2)
    s_inv = GroupElement(inv_coords(schema, s.coords))
    columns = []
    images = zip(graded_images(schema, s, "right", k), graded_images(schema, s_inv, "right", k))
    for i, pair in enumerate(images):
        column = {i: 2}
        for image in pair:
            for j, c in image.items():
                column[j] = column.get(j, 0) - c
        entries = tuple((j, c) for j, c in column.items() if c)
        if entries and max(entries)[0] >= n_rows:
            mono = pk_basis(schema, k)[i]
            raise InternalInconsistency(f"Laplacian image of {mono} has an out-of-range term")
        columns.append(entries)
    return tuple(columns)


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


@lru_cache(maxsize=4)
def laplacian_matrix(schema: GroupSchema, measure: Measure, k: int) -> RationalMatrix:
    """Matrix of the Laplacian from the degree-k basis to the degree-(k-2) basis.

    Columns follow pk_basis(schema, k), rows pk_basis(schema, k-2), both in
    graded order.  For k <= 1 the codomain is trivial and the matrix has
    zero rows.  The columns are summed from the memoized second differences
    of ``measure.pairs`` (see ``_pair_columns``), which jobs on one group
    share.  The last few matrices are kept, keyed by (schema,
    measure, k), so repeated solves against one Laplacian share one
    factorization.  A matrix of more than ``MAX_MATRIX_CELLS`` cells is
    refused by ``matrix_shape``, before any basis is enumerated.
    """
    if k < 0:
        raise ValidationError("k must be non-negative")
    if schema != measure.schema:
        raise ValidationError("schema and measure do not match")
    n_rows, n_cols = matrix_shape(schema, k)
    # mu is symmetric, so scale * Delta is the sum over the pairs {s, s^-1} of
    # (scale mu(s)) (2m - m(x s) - m(x s^-1)); the identity atom adds 0
    columns: list[dict[int, int]] = [{} for _ in range(n_cols)]
    for s, _, ws in measure.pairs:
        for column, pair in zip(columns, _pair_columns(schema, s, k)):
            for i, c in pair:
                column[i] = column.get(i, 0) + ws * c
    # the matrix is rows / scale; the rows are in range and hold no zero
    rows: list[dict[int, int]] = [{} for _ in range(n_rows)]
    for j, column in enumerate(columns):
        for i, c in column.items():
            if c:
                rows[i][j] = c
    return RationalMatrix._trusted(n_rows, n_cols, rows, measure.scale)


@dataclass(frozen=True)
class HarmonicBasisReport:
    """Kernel basis of the Laplacian on degree-<= k polynomials."""

    schema: GroupSchema
    measure: Measure
    k: int
    basis: tuple[Polynomial, ...]
    dim: int
    predicted_dim: int


def dim_hk(schema: GroupSchema, k: int) -> int:
    """dim of the degree-<= k harmonic space: dim P^k - dim P^{k-2}."""
    if k < 0:
        raise ValidationError("k must be non-negative")
    return dim_pk(schema, k) - dim_pk(schema, k - 2)


def dim_hk_from_pk(pk: Sequence[int]) -> list[int]:
    """[dim H^0, ..., dim H^k] from pk = dim_pk_table(schema, k), by
    dim H^j = dim P^j - dim P^{j-2}."""
    return [dim - below for dim, below in zip(pk, [0, 0, *pk])]


def harmonic_basis(schema: GroupSchema, measure: Measure, k: int) -> HarmonicBasisReport:
    """Basis of harmonic polynomials of degree <= k, in the canonical
    kernel parameterization of the Laplacian matrix.

    Each kernel vector comes as integers over one denominator, so it becomes
    a polynomial by one gcd, without a ``Fraction``."""
    matrix = laplacian_matrix(schema, measure, k)
    domain = pk_basis(schema, k)
    basis = tuple(
        _from_ints(schema, {domain[i]: v for i, v in vec.items()}, den)
        for den, vec in matrix.factorization().kernel()
    )
    predicted = dim_hk(schema, k)
    if len(basis) != predicted:
        raise InvariantFailure(
            f"harmonic dimension {len(basis)} != predicted {predicted} "
            f"for {schema.name()}, k={k}"
        )
    return HarmonicBasisReport(schema, measure, k, basis, len(basis), predicted)


def solve_preimage(schema: GroupSchema, measure: Measure, q: Polynomial) -> Polynomial:
    """A polynomial p of degree <= deg q + 2 with Delta p = q, exactly.

    Surjectivity of the Laplacian guarantees a solution; failure to find
    one is reported as an internal inconsistency, not as a normal outcome.
    """
    if q.schema != schema:
        raise ValidationError("polynomial does not match the schema")
    if q.is_zero:
        return Polynomial.zero(schema)
    k = q.degree + 2
    matrix = laplacian_matrix(schema, measure, k)
    rhs = q.coefficient_vector(pk_basis(schema, k - 2))
    sol = matrix.factorization().solve(rhs)
    if isinstance(sol, Inconsistent):
        raise InternalInconsistency(
            f"no Laplacian preimage found for degree-{q.degree} input; "
            f"inconsistent at reduced row {sol.row}"
        )
    domain = pk_basis(schema, k)
    # the solution holds non-zero Fractions only
    p_hat = _from_fractions(schema, {domain[i]: c for i, c in sol.items()})
    if apply_laplacian(measure, p_hat) != q:
        raise InternalInconsistency("preimage verification failed")
    return p_hat


def action_is_trivial(
    schema: GroupSchema, measure: Measure, k: int, g: GroupElement
) -> bool:
    """Whether left translation by g fixes every degree-<= k harmonic function."""
    report = harmonic_basis(schema, measure, k)
    gi = inv(schema, g)
    return all(translate_left(f, gi) == f for f in report.basis)


@dataclass(frozen=True)
class GrowthRow:
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
    if k_max < 2:
        raise ValidationError("k_max must be at least 2")
    if schema != measure.schema:
        raise ValidationError("schema and measure do not match")
    d = schema.n_coords
    dims = dim_hk_from_pk(dim_pk_table(schema, k_max))
    return [
        GrowthRow(k, dim, Fraction(dim, k ** (d - 1)) if k else None) for k, dim in enumerate(dims)
    ]
