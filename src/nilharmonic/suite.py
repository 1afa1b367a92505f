"""Invariant suite behind the ``verify`` CLI command.

Runs the checked invariants of every module against one (group, measure)
pair up to a degree bound, returning structured pass/fail records.  All
sampling is deterministic.

The suite has two halves.  The group half, ``_group_records``, holds the
``group.*`` and ``poly.*`` checks: the group law and the polynomial
calculus are properties of the group alone, so their records depend only on
the schema and ``min(k_max, 4)``, and are memoized on those, so
``verify`` with several measures, or any process checking several measures
on one group, runs them once.  The measure half, the ``laplacian.*`` checks,
reads the measure and runs on every call.  The inputs and the size refusals
are checked before either.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from .errors import NilharmonicError, ValidationError
from .groups import (
    Coords,
    GroupElement,
    GroupSchema,
    _ball_search,
    _require_int,
    ball_levels,
    basis_element,
    check_coordinate_order,
    decomposition_order,
    identity,
    standard_generators,
)
# unused here, but the benchmark's tracer wraps suite.ball by name
from .groups import ball  # noqa: F401
from .laplacian import (
    Measure,
    apply_laplacian,
    dim_hk_from_pk,
    harmonic_basis,
    laplacian_matrix,
    matrix_shape,
)
from .linalg import Factorization, Inconsistent
from .polynomials import (
    Polynomial,
    _from_ints,
    _images,
    _translation_forms,
    dim_pk_table,
    left_derivative,
    pk_basis,
    translate_left,
)
# unused here, but the benchmark's tracer wraps suite.translate_right by name
from .polynomials import translate_right  # noqa: F401
from .verify import _first_translation_mismatch, _mean_value_checks, check_left_right_batch
# unused here, but the benchmark's tracer wraps suite.check_harmonic_batch and
# suite.check_left_right_agreement by name
from .verify import check_harmonic_batch, check_left_right_agreement  # noqa: F401


@dataclass(frozen=True)
class SuiteRecord:
    name: str
    passed: bool
    detail: str = ""


# The pairs of the cocycle check, and the tuples of each left/right agreement
# check; on heisenberg(1) the 25 pairs of the radius-1 ball all fit.
SUITE_BUDGET = 300


# One entry per (schema, min(k_max, 4)).  An entry is ten short records;
# measured with tracemalloc on a copy, it takes 2.2 to 4.3 kB on the largest
# groups whose radius-4 generator ball passes the ball cap (lattice(12),
# heisenberg(5), unitriangular(9)) and 4.8 kB with the failure details of a
# broken unitriangular(9) law.  Its key holds the schema, up to 3.7 kB with the
# compiled law, so a full memo stays under 0.3 MB.
@lru_cache(maxsize=32)
def _group_records(schema: GroupSchema, k_red: int) -> tuple[SuiteRecord, ...]:
    """The ``group.*`` and ``poly.*`` records, checked to degree ``k_red``
    (interpolation to ``min(k_red, 2)``) with ``SUITE_BUDGET`` pairs and tuples.

    Each check calls this module's names, so rebinding them reaches every
    miss; a raised error is not memoized.
    """
    records: list[SuiteRecord] = []

    def add(name: str, passed: bool, detail: str = "") -> None:
        records.append(SuiteRecord(name, passed, detail))

    # one breadth-first search gives the radius-1, 2 and 3 balls and the growth
    gens = standard_generators(schema)
    levels = ball_levels(schema, gens, 4)
    b1, b2, b3 = (
        [GroupElement(c) for c in sorted(itertools.chain(*levels[: r + 1]))] for r in (1, 2, 3)
    )

    # group laws, on raw coordinates
    law_mul, law_inv = schema.law_mul, schema.law_inv
    witness = _associativity_witness(law_mul, [g.coords for g in b2])
    add(
        "group.associativity",
        witness is None,
        f"{len(b2)}^3 triples" if witness is None else f"failed at {tuple(b2[i] for i in witness)}",
    )

    e = identity(schema).coords

    def breaks_identity_inverse(g: Coords) -> bool:
        h = law_inv(g)
        return law_mul(g, e) != g or law_mul(e, g) != g or law_mul(g, h) != e or law_mul(h, g) != e

    bad = next((g for g in b3 if breaks_identity_inverse(g.coords)), None)
    add("group.identity_inverse", bad is None, "" if bad is None else f"failed at {bad}")

    bad_pair = None
    for g, u in itertools.product(b2, repeat=2):
        if not check_coordinate_order(schema, g, u).passed:
            bad_pair = (g, u, "g*u")
            break
        # mirrored form: leading coordinate behaviour of u*g
        j = next((t for t, c in enumerate(u.coords) if c), None)
        if j is not None:
            prod = law_mul(u.coords, g.coords)
            if prod[:j] != g.coords[:j] or prod[j] != g.coords[j] + u.coords[j]:
                bad_pair = (g, u, "u*g")
                break
    add(
        "group.coordinate_order",
        bad_pair is None,
        f"{len(b2)}^2 pairs" if bad_pair is None else f"failed at {bad_pair}",
    )

    order = decomposition_order(schema)

    def rebuilt(g: Coords) -> Coords:
        acc = e
        for i in order:
            acc = law_mul(acc, e[: i - 1] + g[i - 1 : i] + e[i:])
        return acc

    bad = next((g for g in b3 if rebuilt(g.coords) != g.coords), None)
    add("group.basis_decomposition", bad is None, "" if bad is None else f"failed at {bad}")

    sizes = list(itertools.accumulate(map(len, levels)))
    mono = all(a <= b for a, b in zip(sizes, sizes[1:]))
    bound = all(sizes[r] <= len(gens) ** r + 1 for r in range(1, 5))
    add("group.ball_growth", mono and bound, f"sizes {sizes}")

    # polynomial calculus: every left translate of a monomial on the points
    # g against the monomial on the points u*g (b2 holds the identity, so
    # those points hold b3)
    k_interp = min(k_red, 2)
    index: dict[Coords, int] = {}
    ug_ids = [[index.setdefault(law_mul(u.coords, g.coords), len(index)) for g in b3] for u in b2]
    basis = pk_basis(schema, k_interp)
    monos = [Polynomial.from_monomial(schema, m) for m in basis]
    translates = [[translate_left(p, u) for p in monos] for u in b2]
    bad = _first_translation_mismatch(monos, translates, ug_ids, list(index), [g.coords for g in b3])
    bad_detail = "" if bad is None else f"monomial {basis[bad[0]]}, u={b2[bad[1]]}, g={b3[bad[2]]}"
    add("poly.interpolation_soundness", not bad_detail, bad_detail or f"degree <= {k_interp}")

    bad_detail = ""
    for mono_ in pk_basis(schema, k_red):
        p = Polynomial.from_monomial(schema, mono_)
        d = p.degree
        for i in range(1, schema.n_coords + 1):
            dd = left_derivative(p, basis_element(schema, i)).degree
            if dd is not None and dd > d - schema.weight(i):
                bad_detail = f"monomial {mono_}, coordinate {i}"
                break
        if bad_detail:
            break
    add("poly.degree_reduction", not bad_detail, bad_detail or f"degree <= {k_red}")

    pairs = list(itertools.product(b1, repeat=2))[:SUITE_BUDGET]
    bad_detail = ""
    for m in pk_basis(schema, 2)[1:]:
        f = Polynomial.from_monomial(schema, m)
        # D_u f once per element u among the x, y and x*y of the pairs
        derivatives: dict[GroupElement, Polynomial] = {}
        for x, y in pairs:
            xy = GroupElement(law_mul(x.coords, y.coords))
            for u in (x, y, xy):
                if u not in derivatives:
                    derivatives[u] = left_derivative(f, u)
            if derivatives[xy] != translate_left(derivatives[x], y) + derivatives[y]:
                bad_detail = f"f={f}, x={x}, y={y}"
                break
        if bad_detail:
            break
    add("poly.cocycle_identity", not bad_detail, bad_detail or f"{len(pairs)} pairs")

    coords = [Polynomial.coordinate(schema, i) for i in range(1, schema.n_coords + 1)]
    bad_detail = next(
        (
            f"f={f}, h={h}, x={x}"
            for f, h in itertools.product(coords[:3], repeat=2)
            for x in b1
            if left_derivative(f * h, x)
            != translate_left(f, x) * left_derivative(h, x) + left_derivative(f, x) * h
        ),
        "",
    )
    add("poly.product_rule", not bad_detail, bad_detail)

    # the monomials of one degree share a sample, so each is checked in one batch
    bad_detail = ""
    polys = {m: Polynomial.from_monomial(schema, m) for m in pk_basis(schema, 2)}
    for d, monos in itertools.groupby(polys, key=lambda m: polys[m].degree):
        monos = list(monos)
        checks = check_left_right_batch(schema, [polys[m] for m in monos], d, 1, budget=SUITE_BUDGET)
        bad = next((m for m, res in zip(monos, checks)
                    if not (res.passed and res.left.passed and res.right.passed)), None)
        if bad is not None:
            bad_detail = f"monomial {bad}"
            break
    add("poly.left_right_agreement", not bad_detail, bad_detail)
    return tuple(records)


def run_invariant_suite(
    schema: GroupSchema,
    measure: Measure,
    k_max: int,
    radius: int,
) -> list[SuiteRecord]:
    """The group half's records, then the measure half's, in a new list."""
    if measure.schema != schema:
        raise ValidationError("the measure belongs to a different schema than the group")
    for value, what in ((k_max, "k_max"), (radius, "radius")):
        if _require_int(value, what) < 0:
            raise ValidationError(f"{what} must be non-negative, got {value}")
    # the largest Laplacian and the harmonic oracle's ball are refused here,
    # before any check has run; the oracle reads this search of its ball
    matrix_shape(schema, k_max)
    search = _ball_search(schema, measure.support(), radius)
    records = list(_group_records(schema, min(k_max, 4)))

    def add(name: str, passed: bool, detail: str = "") -> None:
        records.append(SuiteRecord(name, passed, detail))

    # Laplacian: dimension identity and surjectivity at every k, from the one
    # factorization of degree k_max, which also serves the harmonic oracle's
    # basis below.  A_k is the block of A_{k_max} on the columns below dim P^k,
    # and A_{k_max}'s rows of degree > k - 2 are 0 there, so rank A_k is the
    # number of pivots below dim P^k, and a target in P^{k-2} has a preimage
    # in P^k exactly when its canonical solution in A_{k_max} stays below
    # dim P^k; that solution is then A_k's.
    dims = dim_pk_table(schema, k_max)
    try:
        factorization = laplacian_matrix(schema, measure, k_max).factorization()
    except NilharmonicError as exc:
        for k in range(k_max + 1):
            add(f"laplacian.matrix[k={k}]", False, str(exc))
    else:
        targets = [dims[k - 2] if k >= 2 else 0 for k in range(k_max + 1)]
        bad = _first_bad_preimages(schema, measure, factorization, dims, targets)
        for k, (dim, predicted) in enumerate(zip(dims, dim_hk_from_pk(dims))):
            nullity = dim - bisect_left(factorization.pivots, dim)
            add(
                f"laplacian.dimension_identity[k={k}]",
                nullity == predicted,
                f"nullity {nullity}, predicted {predicted}",
            )
            verdict = bad.get(k)
            if isinstance(verdict, NilharmonicError):
                add(f"laplacian.matrix[k={k}]", False, str(verdict))
            else:
                add(f"laplacian.surjectivity[k={k}]", verdict is None,
                    verdict or f"{targets[k]} targets")

    try:
        report = harmonic_basis(schema, measure, k_max)
        checks = _mean_value_checks(measure, list(report.basis), search)
        bad_idx = next((i for i, c in enumerate(checks) if not c.passed), None)
        add(
            f"laplacian.harmonic_oracle[k={k_max},r={radius}]",
            bad_idx is None,
            f"{report.dim} basis elements"
            if bad_idx is None
            else f"element {bad_idx}: {checks[bad_idx].witness} "
            f"lhs={checks[bad_idx].lhs} rhs={checks[bad_idx].rhs}",
        )
    except NilharmonicError as exc:
        add("laplacian.harmonic_oracle", False, str(exc))

    bad_detail = ""
    monos = pk_basis(schema, min(k_max, 3))
    polys = [Polynomial._trusted(schema, {m: 1}, 1) for m in monos]
    for m, p, form in zip(monos, polys, _symmetric_form(measure, polys)):
        if apply_laplacian(measure, p) != form:
            bad_detail = f"monomial {m}"
            break
    add("laplacian.symmetric_form", not bad_detail, bad_detail)
    return records


def _first_bad_preimages(
    schema: GroupSchema,
    measure: Measure,
    factorization: Factorization,
    dims: Sequence[int],
    targets: Sequence[int],
) -> dict[int, str | NilharmonicError]:
    """For each k whose surjectivity check fails, what its first failing
    target gives: "no preimage for m", "bad preimage for m", or the
    ``NilharmonicError`` its check raised.

    ``factorization`` is that of the degree-K Laplacian, K = len(dims) - 1,
    ``dims[k]`` is dim P^k, and the check at k covers the first
    ``targets[k]`` monomials of P^(K-2), the basis of P^(k-2).  Each target
    is solved and checked with ``apply_laplacian`` once, in basis order; a
    preimage reaching column dim P^k or past it is none at k.  Solving stops
    at the first target that fails at every k it belongs to.
    """
    domain = pk_basis(schema, len(dims) - 1)
    bad: dict[int, str | NilharmonicError] = {}
    for i, mono_ in enumerate(pk_basis(schema, len(dims) - 3)):
        sol = factorization.solve((1, {i: 1}))
        top, verdict = -1, None
        if isinstance(sol, Inconsistent):
            verdict = f"no preimage for {mono_}"
        else:
            den, vec = sol
            top = max(vec, default=-1)
            p_hat = Polynomial._trusted(schema, {domain[t]: n for t, n in vec.items()}, den)
            try:
                if apply_laplacian(measure, p_hat) != Polynomial._trusted(schema, {mono_: 1}, 1):
                    verdict = f"bad preimage for {mono_}"
            except NilharmonicError as exc:
                verdict = exc
        for k, n_targets in enumerate(targets):
            if k not in bad and i < n_targets:
                if top >= dims[k]:
                    bad[k] = f"no preimage for {mono_}"
                elif verdict is not None:
                    bad[k] = verdict
        if verdict is not None:
            break
    return bad


def _associativity_witness(
    law_mul: Callable[[Coords, Coords], Coords], coords: Sequence[Coords]
) -> tuple[int, int, int] | None:
    """The first (i, j, m) in lexicographic order with (a_i a_j) a_m != a_i (a_j a_m).

    Each distinct product is computed once: the values v of the products
    a_j a_m are interned, a table holds v a_m and a_i v for each of them, and
    the triples of one (i, j) are compared as two whole rows.
    """
    ids: dict[Coords, int] = {}
    ab = [[ids.setdefault(law_mul(a, b), len(ids)) for b in coords] for a in coords]
    left = [[law_mul(v, c) for c in coords] for v in ids]
    right = [[law_mul(a, v) for v in ids] for a in coords]
    for i, j in itertools.product(range(len(coords)), repeat=2):
        row, ri = left[ab[i][j]], right[i]
        other = [ri[v] for v in ab[j]]
        if row != other:
            return i, j, next(m for m, (x, y) in enumerate(zip(row, other)) if x != y)
    return None


def _symmetric_form(measure: Measure, polys: Sequence[Polynomial]) -> list[Polynomial]:
    """For each p of ``polys``, the sum over the pairs {s, s^-1} of
    mu(s) (2p - p(x s) - p(x s^-1)), which is Delta p when mu is symmetric
    (the identity's term is 0), in ints over b p.den for b the measure's
    ``scale``.  Each pair atom's right-translation images of every monomial
    of ``polys`` are read in one ``_images`` call."""
    schema = measure.schema
    keys = list(dict.fromkeys(e for p in polys for e in p.ints))
    mass = 2 * sum(ws for _, _, ws in measure.pairs)
    accs = [{e: mass * c for e, c in p.ints.items()} for p in polys]
    for s, s_inv, ws in measure.pairs:
        for u in (s, s_inv):
            images = dict(zip(keys, _images(_translation_forms(schema, u, "right"), keys)))
            for p, acc in zip(polys, accs):
                get = acc.get
                for e, c in p.ints.items():
                    f = ws * c
                    for exps, v in images[e].items():
                        acc[exps] = get(exps, 0) - f * v
    return [_from_ints(schema, acc, measure.scale * p.den) for p, acc in zip(polys, accs)]
