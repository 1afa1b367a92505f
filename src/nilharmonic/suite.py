"""Invariant suite behind the ``verify`` CLI command.

Runs the checked invariants of every module against one (group, measure)
pair up to a degree bound, returning structured pass/fail records.  All
sampling is deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import NilharmonicError
from .groups import (
    GroupElement,
    GroupSchema,
    ball,
    basis_element,
    check_coordinate_order,
    decomposition_order,
    identity,
    inv,
    mul,
    standard_generators,
)
from .laplacian import (
    Measure,
    apply_laplacian,
    dim_hk,
    harmonic_basis,
    laplacian_matrix,
    matrix_shape,
)
from .linalg import Inconsistent
from .polynomials import (
    Polynomial,
    left_derivative,
    pk_basis,
    translate_left,
    translate_right,
)
from .verify import _value_tables, check_harmonic_batch, check_left_right_agreement


@dataclass(frozen=True)
class SuiteRecord:
    name: str
    passed: bool
    detail: str = ""


def run_invariant_suite(
    schema: GroupSchema,
    measure: Measure,
    k_max: int,
    radius: int,
    budget: int = 300,
) -> list[SuiteRecord]:
    # the largest Laplacian is refused here, before any check has run
    matrix_shape(schema, k_max)
    records: list[SuiteRecord] = []

    def add(name: str, passed: bool, detail: str = "") -> None:
        records.append(SuiteRecord(name, passed, detail))

    gens = standard_generators(schema)
    b1 = ball(schema, gens, 1)
    b2 = ball(schema, gens, 2)
    b3 = ball(schema, gens, 3)

    # group laws, on raw coordinates with a table of the products in b2
    law_mul, law_inv = schema.law_mul, schema.law_inv
    c2 = [g.coords for g in b2]
    ab = [[law_mul(a, b) for b in c2] for a in c2]
    witness = next(
        (
            (b2[i], b2[j], b2[m])
            for i, j in itertools.product(range(len(c2)), repeat=2)
            for m, c in enumerate(c2)
            if law_mul(ab[i][j], c) != law_mul(c2[i], ab[j][m])
        ),
        None,
    )
    add(
        "group.associativity",
        witness is None,
        f"{len(b2)}^3 triples" if witness is None else f"failed at {witness}",
    )

    e = identity(schema)

    def breaks_identity_inverse(g: tuple[int, ...]) -> bool:
        h = law_inv(g)
        return (
            law_mul(g, e.coords) != g
            or law_mul(e.coords, g) != g
            or law_mul(g, h) != e.coords
            or law_mul(h, g) != e.coords
        )

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
            prod = mul(schema, u, g).coords
            if prod[:j] != g.coords[:j] or prod[j] != g.coords[j] + u.coords[j]:
                bad_pair = (g, u, "u*g")
                break
    add(
        "group.coordinate_order",
        bad_pair is None,
        f"{len(b2)}^2 pairs" if bad_pair is None else f"failed at {bad_pair}",
    )

    order = decomposition_order(schema)
    bad = None
    for g in b3:
        acc = e
        for i in order:
            acc = mul(schema, acc, basis_element(schema, i, g.coords[i - 1]))
        if acc != g:
            bad = g
            break
    add("group.basis_decomposition", bad is None, "" if bad is None else f"failed at {bad}")

    sizes = [len(ball(schema, gens, r)) for r in range(5)]
    mono = all(a <= b for a, b in zip(sizes, sizes[1:]))
    bound = all(sizes[r] <= len(gens) ** r + 1 for r in range(1, 5))
    add("group.ball_growth", mono and bound, f"sizes {sizes}")

    # polynomial calculus
    k_interp = min(k_max, 2)
    index: dict[tuple[int, ...], int] = {}
    ug_ids = [[index.setdefault(mul(schema, u, g).coords, len(index)) for g in b3] for u in b2]
    bad_detail = ""
    for mono_ in pk_basis(schema, k_interp):
        p = Polynomial.from_monomial(schema, mono_)
        ((p_scale, p_values),) = _value_tables([p], list(index))
        q_tables = _value_tables([translate_left(p, u) for u in b2], [g.coords for g in b3])
        for u, ids, (q_scale, q_values) in zip(b2, ug_ids, q_tables):
            bad = next(
                (g for g, qv, i in zip(b3, q_values, ids) if qv * p_scale != p_values[i] * q_scale),
                None,
            )
            if bad is not None:
                bad_detail = f"monomial {mono_.exponents}, u={u}, g={bad}"
                break
        if bad_detail:
            break
    add("poly.interpolation_soundness", not bad_detail, bad_detail or f"degree <= {k_interp}")

    k_red = min(k_max, 4)
    ok = True
    bad_detail = ""
    for mono_ in pk_basis(schema, k_red):
        p = Polynomial.from_monomial(schema, mono_)
        d = p.degree
        for i in range(1, schema.n_coords + 1):
            dp = left_derivative(p, basis_element(schema, i))
            dd = dp.degree
            if dd is not None and dd > d - schema.weight(i):
                ok = False
                bad_detail = f"monomial {mono_.exponents}, coordinate {i}"
                break
        if not ok:
            break
    add("poly.degree_reduction", ok, bad_detail or f"degree <= {k_red}")

    sample_polys = [
        Polynomial.from_monomial(schema, m) for m in pk_basis(schema, 2) if any(m.exponents)
    ]
    pairs = list(itertools.product(b1, repeat=2))[:budget]
    ok = True
    bad_detail = ""
    for f in sample_polys:
        # D_u f once per element u among the x, y and x*y of the pairs
        derivatives: dict[GroupElement, Polynomial] = {}
        for x, y in pairs:
            xy = mul(schema, x, y)
            for u in (x, y, xy):
                if u not in derivatives:
                    derivatives[u] = left_derivative(f, u)
            lhs = derivatives[xy]
            rhs = translate_left(derivatives[x], y) + derivatives[y]
            if lhs != rhs:
                ok = False
                bad_detail = f"f={f}, x={x}, y={y}"
                break
        if not ok:
            break
    add("poly.cocycle_identity", ok, bad_detail or f"{len(pairs)} pairs")

    ok = True
    bad_detail = ""
    coords = [Polynomial.coordinate(schema, i) for i in range(1, schema.n_coords + 1)]
    for f, h in itertools.product(coords[:3], repeat=2):
        for x in b1:
            lhs = left_derivative(f * h, x)
            rhs = translate_left(f, x) * left_derivative(h, x) + left_derivative(f, x) * h
            if lhs != rhs:
                ok = False
                bad_detail = f"f={f}, h={h}, x={x}"
                break
        if not ok:
            break
    add("poly.product_rule", ok, bad_detail or "")

    ok = True
    bad_detail = ""
    for mono_ in pk_basis(schema, 2):
        p = Polynomial.from_monomial(schema, mono_)
        k = p.degree
        res = check_left_right_agreement(schema, p, k, 1, budget=budget)
        if not (res.passed and res.left.passed and res.right.passed):
            ok = False
            bad_detail = f"monomial {mono_.exponents}"
            break
    add("poly.left_right_agreement", ok, bad_detail or "")

    # Laplacian: dimension identity, surjectivity, harmonicity oracle
    for k in range(k_max + 1):
        try:
            # one factorization per k serves the nullity, every surjectivity
            # solve and, at k_max, the harmonic oracle's basis below
            matrix = laplacian_matrix(schema, measure, k)
            nullity = matrix.cols - matrix.rank
            predicted = dim_hk(schema, k)
            add(
                f"laplacian.dimension_identity[k={k}]",
                nullity == predicted,
                f"nullity {nullity}, predicted {predicted}",
            )
            domain = pk_basis(schema, k)
            codomain = pk_basis(schema, k - 2)
            factorization = matrix.factorization()
            ok = True
            bad_detail = ""
            for i, mono_ in enumerate(codomain):
                rhs = [Fraction(0)] * len(codomain)
                rhs[i] = Fraction(1)
                sol = factorization.solve(rhs)
                if isinstance(sol, Inconsistent):
                    ok = False
                    bad_detail = f"no preimage for {mono_.exponents}"
                    break
                p_hat = Polynomial._trusted(schema, {domain[t]: c for t, c in sol.items()})
                if apply_laplacian(measure, p_hat) != Polynomial.from_monomial(schema, mono_):
                    ok = False
                    bad_detail = f"bad preimage for {mono_.exponents}"
                    break
            add(f"laplacian.surjectivity[k={k}]", ok, bad_detail or f"{len(codomain)} targets")
        except NilharmonicError as exc:
            add(f"laplacian.matrix[k={k}]", False, str(exc))
            continue

    try:
        report = harmonic_basis(schema, measure, k_max)
        checks = check_harmonic_batch(schema, measure, list(report.basis), radius)
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

    ok = True
    bad_detail = ""
    for mono_ in pk_basis(schema, min(k_max, 3)):
        p = Polynomial.from_monomial(schema, mono_)
        direct = apply_laplacian(measure, p)
        half = Fraction(1, 2)
        alt = Polynomial.zero(schema)
        for s, w in measure.atoms.items():
            alt = alt + (p * 2 - translate_right(p, s) - translate_right(p, inv(schema, s))) * (w * half)
        if direct != alt:
            ok = False
            bad_detail = f"monomial {mono_.exponents}"
            break
    add("laplacian.symmetric_form", ok, bad_detail or "")

    return records
