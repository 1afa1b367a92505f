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

The measure half reaches the Laplacian only through ``laplacian_matrix`` and
``apply_laplacian``.  Every target of P^(k_max - 2) is solved once through the
factorization of the degree-k_max matrix, and ``apply_laplacian`` is called
once per monomial of P^min(k_max, 3).  One call of the mean-value oracle then
checks three kinds of pair (p, q), a preimage and its target, a monomial and
its image, and a harmonic basis element and 0, as Delta p = q with Delta read
off the group law: Delta p - q is in P^(k_max - 2), and S_(k_max - 2), where
the oracle checks, determines such a polynomial (see ``_laplacian_checks``).
A basis element that passes is harmonic on all of G, so on the radius-r ball
too, and the harmonic record passes with no check on the ball.  The basis
joins the call when every element is in P^(k_max), its degree read off its
own exponents (``_certifiable``); otherwise, and when an element fails at S,
``harmonic_failure`` checks the basis on that ball, whose first failure
names the record's witness, and if the ball shows none, the first failure
at S does.  A basis that raised gives the error as the detail.  A failing
record names its first failing target, monomial or element, and an error
``apply_laplacian`` raises becomes the symmetric form's detail.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

from .errors import NilharmonicError, ValidationError
from .groups import (
    Coords,
    GroupElement,
    GroupSchema,
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
    HarmonicBasisReport,
    Measure,
    apply_laplacian,
    dim_hk_from_pk,
    harmonic_basis,
    laplacian_matrix,
    matrix_shape,
)
from .linalg import Inconsistent, IntVector
from .polynomials import (
    Exponents,
    Polynomial,
    dim_pk_table,
    left_derivative,
    pk_basis,
    translate_left,
)
# unused here, but the benchmark's tracer wraps suite.translate_right by name
from .polynomials import translate_right  # noqa: F401
from .verify import (
    HarmonicCheck, _first_translation_mismatch, _mean_value_checks, check_left_right_batch,
)
# unused here, but the benchmark's tracer wraps suite.check_harmonic_batch and
# suite.check_left_right_agreement by name
from .verify import check_harmonic_batch, check_left_right_agreement  # noqa: F401


class SuiteRecord(NamedTuple):
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
    monos = [Polynomial(schema, {m: 1}) for m in basis]
    translates = [[translate_left(p, u) for p in monos] for u in b2]
    bad = _first_translation_mismatch(monos, translates, ug_ids, list(index), [g.coords for g in b3])
    bad_detail = "" if bad is None else f"monomial {basis[bad[0]]}, u={b2[bad[1]]}, g={b3[bad[2]]}"
    add("poly.interpolation_soundness", not bad_detail, bad_detail or f"degree <= {k_interp}")

    bad_detail = ""
    for mono_ in pk_basis(schema, k_red):
        p = Polynomial(schema, {mono_: 1})
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
        f = Polynomial(schema, {m: 1})
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
    polys = {m: Polynomial(schema, {m: 1}) for m in pk_basis(schema, 2)}
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
    # before any check has run; the oracle checks at the points of this search
    matrix_shape(schema, k_max)
    ball_points = list(itertools.chain(*ball_levels(schema, measure.support(), radius)))
    records = list(_group_records(schema, min(k_max, 4)))

    def add(name: str, passed: bool, detail: str = "") -> None:
        records.append(SuiteRecord(name, passed, detail))

    # Laplacian: dimension identity and surjectivity at every k, from the one
    # factorization of degree k_max, which also serves the harmonic oracle's
    # basis below.  A_k is the block of A_{k_max} on the columns below dim P^k,
    # and A_{k_max}'s rows of degree > k - 2 are 0 there, so rank A_k is the
    # number of pivots below dim P^k, and a target in P^{k-2} has a preimage
    # in P^k exactly when its canonical solution in A_{k_max} stays below
    # dim P^k; that solution is then A_k's.  Each target is solved once, in
    # basis order, up to the first with no solution.
    dims = dim_pk_table(schema, k_max)
    codomain = pk_basis(schema, k_max - 2)
    sols: list[IntVector | Inconsistent] = []
    try:
        factorization = laplacian_matrix(schema, measure, k_max).factorization()
    except NilharmonicError as exc:
        factorization = None
        for k in range(k_max + 1):
            add(f"laplacian.matrix[k={k}]", False, str(exc))
    else:
        for i in range(len(codomain)):
            sols.append(sol := factorization.solve((1, {i: 1})))
            if isinstance(sol, Inconsistent):
                break

    def unit(m: Exponents) -> Polynomial:
        return Polynomial._trusted(schema, {m: 1}, 1)

    # one oracle call checks each preimage against its target, then each
    # monomial of P^min(k_max, 3) against its image; an image that raises,
    # or whose degree does not drop by 2, fails the symmetric form at once
    domain = pk_basis(schema, k_max)
    pairs = [(Polynomial._trusted(schema, {domain[t]: n for t, n in sol[1].items()}, sol[0]),
              unit(m)) for m, sol in zip(codomain, sols) if not isinstance(sol, Inconsistent)]
    n_preimages = len(pairs)
    monos = pk_basis(schema, min(k_max, 3))
    form_details = []
    for m in monos:
        p = unit(m)
        try:
            image = apply_laplacian(measure, p)
        except NilharmonicError as exc:
            image, detail = Polynomial(schema), f"monomial {m}: {exc}"
        else:
            detail = "" if image.is_zero or image.degree <= p.degree - 2 else f"monomial {m}"
        pairs.append((p, image))
        form_details.append(detail)
    # and each harmonic basis element h in P^(k_max) as (h, 0), which
    # certifies the basis on all of G when every one passes
    report: HarmonicBasisReport | NilharmonicError
    try:
        report = harmonic_basis(schema, measure, k_max)
    except NilharmonicError as exc:
        report = exc
    n_before = len(pairs)
    certifiable = not isinstance(report, NilharmonicError) and _certifiable(k_max, report.basis)
    if certifiable:
        pairs += [(h, Polynomial(schema)) for h in report.basis]
    checks = _laplacian_checks(measure, k_max, pairs)

    if factorization is not None:
        # (top column, verdict) per target solved; a preimage reaching column
        # dim P^k or past it is none at k
        preimage_checks = iter(checks)
        verdicts = [
            (-1, f"no preimage for {m}") if isinstance(sol, Inconsistent)
            else (max(sol[1], default=-1),
                  None if next(preimage_checks).passed else f"bad preimage for {m}")
            for m, sol in zip(codomain, sols)
        ]
        for k, (dim, predicted) in enumerate(zip(dims, dim_hk_from_pk(dims))):
            nullity = dim - bisect_left(factorization.pivots, dim)
            add(
                f"laplacian.dimension_identity[k={k}]",
                nullity == predicted,
                f"nullity {nullity}, predicted {predicted}",
            )
            n_targets = dims[k - 2] if k >= 2 else 0
            bad = next((f"no preimage for {m}" if top >= dim else verdict
                        for m, (top, verdict) in zip(codomain, verdicts[:n_targets])
                        if top >= dim or verdict), None)
            add(f"laplacian.surjectivity[k={k}]", bad is None, bad or f"{n_targets} targets")

    if isinstance(report, NilharmonicError):
        add("laplacian.harmonic_oracle", False, str(report))
    else:
        bad = harmonic_failure(measure, k_max, report.basis, ball_points,
                               checks[n_before:] if certifiable else None)
        add(
            f"laplacian.harmonic_oracle[k={k_max},r={radius}]",
            bad is None,
            f"{report.dim} basis elements"
            if bad is None
            else f"element {bad[0]}: {bad[1].witness} lhs={bad[1].lhs} rhs={bad[1].rhs}",
        )

    bad_detail = next((detail or f"monomial {m}"
                       for m, detail, check in zip(monos, form_details, checks[n_preimages:])
                       if detail or not check.passed), "")
    add("laplacian.symmetric_form", not bad_detail, bad_detail)
    return records


def _laplacian_checks(
    measure: Measure, k_max: int, pairs: Sequence[tuple[Polynomial, Polynomial]]
) -> list[HarmonicCheck]:
    """Whether Delta p = q, Delta of the group law, for each (p, q) of
    ``pairs``, checked in one call of the mean-value oracle; exact where p
    is in P^K and q in P^(K-2), K = ``k_max``.

    The suite passes three kinds of pair: a preimage and its target
    monomial, a monomial of P^min(K, 3) and its ``apply_laplacian`` image,
    and a harmonic basis element h in P^K and 0 (``harmonic_failure``).
    The measure is symmetric, so Delta lowers weighted degree by 2:
    translation keeps it, and the terms of p(x s) that lose exactly 1 are
    linear in the weight-1 coordinates of s, whose mu-average is 0.  So
    Delta p - q is in P^(K-2).  The oracle checks it at S_j,
    j = max(K - 2, 0), the exponent vectors of ``pk_basis(j)`` passed as
    its centres.  S_j is downward closed, so in the binomial basis
    prod_t C(x_t, a_t) the values of P^j on S_j form a unitriangular matrix:
    a polynomial of P^j that vanishes there is 0, and each check that
    passes is an identity on all of G, while each that fails names a point
    of G where it does not hold.  A passing (h, 0) thus gives Delta h = 0 everywhere,
    and so the mean-value identity at every point of any ball.
    """
    centres = pk_basis(measure.schema, max(k_max - 2, 0))
    return _mean_value_checks(measure, [p for p, _ in pairs], centres, [q for _, q in pairs])


def harmonic_failure(
    measure: Measure,
    k: int,
    basis: Sequence[Polynomial],
    ball_points: Sequence[Coords],
    certificate: Sequence[HarmonicCheck] | None = None,
) -> tuple[int, HarmonicCheck] | None:
    """The first element of ``basis`` that fails the mean-value identity,
    by its index, with its check; None if the basis is harmonic.

    A basis in P^k (``_certifiable``) is first checked as the pairs (h, 0)
    at S_(k-2) by ``_laplacian_checks``; ``certificate`` holds those checks
    where the caller has made them already, as the suite does in its one
    call.  If every one passes, Delta h = 0 on all of G and the ball is not
    checked.  Otherwise the mean-value oracle runs at ``ball_points``, and
    its first failure, a point of the ball, is the one returned; where the
    ball shows none, the first failure at S is, since Delta h is then
    non-zero off the ball.  The suite and ``harmonic --verify`` both ask
    this, with the ball their size refusal searched.
    """
    if certificate is None and _certifiable(k, basis):
        zero = Polynomial(measure.schema)
        certificate = _laplacian_checks(measure, k, [(h, zero) for h in basis])
    at_s = None if certificate is None else next(
        ((i, c) for i, c in enumerate(certificate) if not c.passed), None)
    if certificate is not None and at_s is None:
        return None
    ball_checks = _mean_value_checks(measure, list(basis), ball_points)
    return next(((i, c) for i, c in enumerate(ball_checks) if not c.passed), at_s)


def _certifiable(k: int, polys: Sequence[Polynomial]) -> bool:
    """Whether each poly is in P^k, its weighted degree read off its own
    exponents, so that ``_laplacian_checks`` at degree k checks Delta p = 0
    exactly."""
    return all(p.is_zero or p.degree <= k for p in polys)


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
