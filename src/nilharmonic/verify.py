"""Brute-force oracles that validate the algebra by direct evaluation.

Everything here works pointwise on Cayley balls using only group
multiplication and integer value tables: each polynomial is scaled by the
lcm of its coefficient denominators and evaluated at an interned list of
points, one shared column per monomial.  The translation machinery under
test (composition with the affine forms of the group law) is never called,
so a bug there cannot hide from these checks.  All enumeration orders are
fixed, making every oracle deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterator, Sequence

from .errors import ValidationError
from .groups import (
    GroupElement,
    GroupSchema,
    ball,
    ball_levels,
    standard_generators,
)
# unused here, but the benchmark's tracer wraps verify.mul_coords by name
from .groups import mul_coords  # noqa: F401
from .laplacian import Measure
from .polynomials import Monomial, Polynomial

DEFAULT_TUPLE_BUDGET = 2000


def _value_tables(
    polys: Sequence[Polynomial], points: Sequence[tuple[int, ...]]
) -> Iterator[tuple[int, list[int]]]:
    """Yield ``(scale, values)`` per polynomial, ``values[i] == scale * p(points[i])``.

    ``scale`` is the lcm of p's coefficient denominators, so all arithmetic is
    integer; the monomial value columns are shared across the polynomials.
    """
    columns: dict[Monomial, list[int]] = {}
    for mono in sorted({m for p in polys for m in p.terms}):
        powers = [(t, e) for t, e in enumerate(mono.exponents) if e]
        col = []
        for c in points:
            v = 1
            for t, e in powers:
                v *= c[t] ** e
            col.append(v)
        columns[mono] = col
    for p in polys:
        scale = lcm(*(c.denominator for c in p.terms.values()))
        values = [0] * len(points)
        for mono, c in p.terms.items():
            c = int(c * scale)
            for i, v in enumerate(columns[mono]):
                values[i] += c * v
        yield scale, values


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

    Batch form: the ball, the products g*s and the value tables are shared
    across all polynomials.  Arithmetic is integer after clearing
    denominators, so every comparison is exact.
    """
    if schema != measure.schema:
        raise ValidationError("schema and measure do not match")
    atoms = list(measure.atoms.items())
    weight_scale = lcm(*(w.denominator for _, w in atoms))
    int_weights = [int(w * weight_scale) for _, w in atoms]

    centers = [g.coords for g in ball(schema, measure.support(), radius)]
    index: dict[tuple[int, ...], int] = {}
    center_ids = [index.setdefault(c, len(index)) for c in centers]
    law_mul = schema.law_mul
    shifted_ids = [
        [index.setdefault(law_mul(c, s.coords), len(index)) for s, _ in atoms]
        for c in centers
    ]

    results = []
    for scale, values in _value_tables(polys, list(index)):
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


@lru_cache(maxsize=32)
def _difference_points(
    schema: GroupSchema,
    order: int,
    elems: tuple[GroupElement, ...],
    test_points: tuple[GroupElement, ...],
    budget: int,
    side: str,
) -> tuple[tuple, tuple, tuple]:
    """The budgeted tuples, their point ids and the interned points.

    For the left derivative the subset {i_1 < ... < i_r} of a tuple is the
    point u_{i_r} ... u_{i_1} x; for the right, x u_{i_1} ... u_{i_r}.  Subset
    products are built by doubling, so bit i of a subset's index marks
    u_{i+1}.  ``ids[j][x]`` lists, by subset index, the positions in
    ``points`` of the subset points of tuple j at test point x.  Nothing here
    depends on the polynomial, so every polynomial of one order shares it.
    The last 32 results are kept, each at most ``budget * len(test_points)
    * 2**order`` ids: the suite's three orders and two sides for a few groups.
    """

    law_mul = schema.law_mul

    def act(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return law_mul(b, a) if side == "left" else law_mul(a, b)

    tuples = tuple(itertools.islice(itertools.product(elems, repeat=order), budget))
    index: dict[tuple[int, ...], int] = {}
    ids = []
    for tup in tuples:
        prods = [(0,) * schema.n_coords]
        for u in tup:
            prods += [act(prod, u.coords) for prod in prods]
        ids.append(
            tuple(
                tuple(index.setdefault(act(x.coords, p), len(index)) for p in prods)
                for x in test_points
            )
        )
    return tuples, tuple(ids), tuple(index)


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

    The subset points of ``_difference_points`` carry the sign
    (-1)^(order - r) for a subset of size r.  They are evaluated in one value
    table, then the tuples are scanned in odometer order.
    """
    tuples, ids, points = _difference_points(
        schema, order, tuple(elems), tuple(test_points), budget, side
    )
    signs = [1 if order % 2 == 0 else -1]
    for _ in range(order):
        signs += [-s for s in signs]
    ((scale, values),) = _value_tables([f], points)
    for checked, (tup, tup_ids) in enumerate(zip(tuples, ids), 1):
        for x, point_ids in zip(test_points, tup_ids):
            total = 0
            for sign, i in zip(signs, point_ids):
                total += sign * values[i]
            if total:
                return DerivativeCheck(False, order, checked, tup, x, Fraction(total, scale))
    return DerivativeCheck(True, order, len(tuples))


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
    levels = ball_levels(schema, support, r_max)
    ((scale, values),) = _value_tables([f], [c for level in levels for c in level])
    rows = []
    start = 0
    for r, level in enumerate(levels):
        m = Fraction(max(map(abs, values[start : start + len(level)]), default=0), scale)
        start += len(level)
        ratio = Fraction(m, r**deg) if r >= 1 else None
        rows.append(GrowthProfileRow(r, m, ratio))
    return rows
