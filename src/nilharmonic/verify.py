"""Brute-force oracles that validate the algebra by direct evaluation.

Everything here works pointwise on Cayley balls using only group
multiplication and polynomial evaluation; the translation machinery under
test (composition with the affine forms of the group law) is never called,
so a bug there cannot hide from these checks.  All enumeration orders are
fixed, making every oracle deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import ValidationError
from .groups import (
    GroupElement,
    GroupSchema,
    ball,
    ball_levels,
    mul_coords,
    standard_generators,
)
from .laplacian import Measure
from .polynomials import Polynomial

DEFAULT_TUPLE_BUDGET = 2000


@dataclass(frozen=True)
class HarmonicCheck:
    passed: bool
    checked_points: int
    witness: GroupElement | None = None
    lhs: Fraction | None = None
    rhs: Fraction | None = None


def check_harmonic_batch(
    schema: GroupSchema,
    measure: Measure,
    polys: Sequence[Polynomial],
    radius: int,
) -> list[HarmonicCheck]:
    """Mean-value check f(g) = sum_s mu(s) f(gs) for every g in the ball.

    Batch form: the ball, the products g*s and the monomial value tables are
    shared across all polynomials.  Arithmetic is integer after clearing
    denominators, so every comparison is exact.
    """
    if schema != measure.schema:
        raise ValidationError("schema and measure do not match")
    atoms = list(measure.atoms.items())
    weight_scale = lcm(*(w.denominator for _, w in atoms))
    int_weights = [int(w * weight_scale) for _, w in atoms]

    centers = [g.coords for g in ball(schema, measure.support(), radius)]
    point_index: dict[tuple[int, ...], int] = {}
    points: list[tuple[int, ...]] = []

    def intern(c: tuple[int, ...]) -> int:
        i = point_index.get(c)
        if i is None:
            i = len(points)
            point_index[c] = i
            points.append(c)
        return i

    center_ids = [intern(c) for c in centers]
    shifted_ids = [
        [intern(mul_coords(schema, c, s.coords)) for s, _ in atoms] for c in centers
    ]

    monomials = sorted({m for p in polys for m in p.terms})
    mono_values: dict[tuple[int, ...], list[int]] = {}
    for mono in monomials:
        powers = [(t, e) for t, e in enumerate(mono.exponents) if e]
        col = []
        for c in points:
            v = 1
            for t, e in powers:
                v *= c[t] ** e
            col.append(v)
        mono_values[mono.exponents] = col

    results = []
    for p in polys:
        if p.terms:
            coeff_scale = lcm(*(c.denominator for c in p.terms.values()))
        else:
            coeff_scale = 1
        support = [
            (mono_values[m.exponents], int(c * coeff_scale)) for m, c in p.terms.items()
        ]
        values = [0] * len(points)
        for i in range(len(points)):
            acc = 0
            for col, c in support:
                acc += c * col[i]
            values[i] = acc

        failure = None
        for ci, (gid, sids) in enumerate(zip(center_ids, shifted_ids)):
            rhs = 0
            for sid, w in zip(sids, int_weights):
                rhs += w * values[sid]
            if weight_scale * values[gid] != rhs:
                failure = ci
                break
        if failure is None:
            results.append(HarmonicCheck(True, len(centers)))
        else:
            g = GroupElement(centers[failure])
            lhs_exact = p.evaluate(g)
            rhs_exact = sum(
                (w * p.evaluate(GroupElement(mul_coords(schema, g.coords, s.coords)))
                 for s, w in atoms),
                Fraction(0),
            )
            results.append(HarmonicCheck(False, failure + 1, g, lhs_exact, rhs_exact))
    return results


def check_harmonic_on_ball(
    schema: GroupSchema, measure: Measure, f: Polynomial, radius: int
) -> HarmonicCheck:
    """Single-polynomial form of the mean-value oracle."""
    return check_harmonic_batch(schema, measure, [f], radius)[0]


@dataclass(frozen=True)
class DerivativeCheck:
    passed: bool
    order: int
    tuples_checked: int
    witness_tuple: tuple[GroupElement, ...] | None = None
    witness_point: GroupElement | None = None
    value: Fraction | None = None


def _default_test_points(
    schema: GroupSchema, support: Sequence[GroupElement], depth: int
) -> list[GroupElement]:
    return ball(schema, support, min(depth, 2))[:3]


def _iterated_difference_check(
    schema: GroupSchema,
    f: Polynomial,
    order: int,
    elems: Sequence[GroupElement],
    test_points: Sequence[GroupElement],
    budget: int,
    side: str,
) -> DerivativeCheck:
    """Evaluate order-fold differences of f directly via signed sums.

    For the left derivative the subset {i_1 < ... < i_r} contributes
    f(u_{i_r} ... u_{i_1} x); for the right, f(x u_{i_1} ... u_{i_r}).
    """
    checked = 0
    id_coords = (0,) * schema.n_coords
    for tup in itertools.product(elems, repeat=order):
        if checked >= budget:
            break
        checked += 1
        prods = []
        signs = []
        for mask in range(1 << order):
            prod = id_coords
            if side == "left":
                for i in range(order - 1, -1, -1):
                    if mask >> i & 1:
                        prod = mul_coords(schema, prod, tup[i].coords)
            else:
                for i in range(order):
                    if mask >> i & 1:
                        prod = mul_coords(schema, prod, tup[i].coords)
            prods.append(prod)
            signs.append(1 if (order - mask.bit_count()) % 2 == 0 else -1)
        for x in test_points:
            total = Fraction(0)
            for prod, sign in zip(prods, signs):
                if side == "left":
                    point = mul_coords(schema, prod, x.coords)
                else:
                    point = mul_coords(schema, x.coords, prod)
                total += sign * f.evaluate(GroupElement(point))
            if total:
                return DerivativeCheck(False, order, checked, tup, x, total)
    return DerivativeCheck(True, order, checked)


def check_derivative_vanishing(
    schema: GroupSchema,
    f: Polynomial,
    k: int,
    support: Sequence[GroupElement],
    depth: int,
    budget: int = DEFAULT_TUPLE_BUDGET,
    test_points: Sequence[GroupElement] | None = None,
) -> DerivativeCheck:
    """Whether all (k+1)-fold left differences of f by ball elements vanish.

    Tuples are enumerated in lexicographic odometer order over the sorted
    radius-``depth`` ball and capped at ``budget``; evaluation is direct.
    """
    elems = ball(schema, support, depth)
    if test_points is None:
        test_points = _default_test_points(schema, support, depth)
    return _iterated_difference_check(schema, f, k + 1, elems, test_points, budget, "left")


@dataclass(frozen=True)
class AgreementCheck:
    passed: bool
    left: DerivativeCheck
    right: DerivativeCheck


def check_left_right_agreement(
    schema: GroupSchema,
    f: Polynomial,
    k: int,
    depth: int,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> AgreementCheck:
    """Left and right (k+1)-fold difference checks must agree on the same sample."""
    support = standard_generators(schema)
    elems = ball(schema, support, depth)
    points = _default_test_points(schema, support, depth)
    left = _iterated_difference_check(schema, f, k + 1, elems, points, budget, "left")
    right = _iterated_difference_check(schema, f, k + 1, elems, points, budget, "right")
    return AgreementCheck(left.passed == right.passed, left, right)


@dataclass(frozen=True)
class GrowthProfileRow:
    radius: int
    max_abs: Fraction
    ratio: Fraction | None


def growth_profile(
    schema: GroupSchema,
    f: Polynomial,
    support: Sequence[GroupElement],
    r_max: int,
) -> list[GrowthProfileRow]:
    """Exact max of |f| on each word-metric sphere, with max / r^deg ratios."""
    deg = f.degree or 0
    rows = []
    for r, level in enumerate(ball_levels(schema, support, r_max)):
        m = max((abs(f.evaluate(GroupElement(c))) for c in level), default=Fraction(0))
        ratio = Fraction(m, r**deg) if r >= 1 else None
        rows.append(GrowthProfileRow(r, m, ratio))
    return rows
