"""Brute-force oracles that validate the algebra by direct evaluation.

Everything here works pointwise on Cayley balls using only group
multiplication and integer value tables: each polynomial's integer
numerators are evaluated at an interned list of points, one shared column
per monomial, and every oracle sum runs over whole columns of ids.  The
translation machinery under test (composition with the affine forms of the
group law), the matrix assembly and the elimination are never called, so a
bug there cannot hide from these checks.  For the same reason the mean-value
oracle clears the measure's ``Fraction`` weights to integers itself and
does not read the ``scale`` and ``int_weights`` that the Laplacian uses.
Every oracle is stateless, and deterministic: enumeration orders are fixed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import itemgetter, mul
from typing import Iterator, Sequence

from .errors import ValidationError
from .groups import (
    MAX_BALL_POINTS,
    GroupElement,
    GroupSchema,
    _require_int,
    ball,
    ball_levels,
    standard_generators,
)
# unused here, but the benchmark's tracer wraps verify.mul_coords by name
from .groups import mul_coords  # noqa: F401
from .laplacian import Measure
from .polynomials import Polynomial

DEFAULT_TUPLE_BUDGET = 2000


def _value_tables(
    polys: Sequence[Polynomial], points: Sequence[tuple[int, ...]]
) -> Iterator[tuple[int, list[int]]]:
    """Yield ``(scale, values)`` per polynomial, ``values[i] == scale * p(points[i])``.

    ``scale`` is p's denominator ``den``, so all arithmetic is on p's integer
    numerators ``ints``; the monomial value columns are shared across the
    polynomials, each its parent's times a coordinate: x^e = x^(e - e_t) x_t.
    """
    n_coords = polys[0].schema.n_coords if polys else 0
    axes = [list(map(itemgetter(t), points)) for t in range(n_coords)]
    columns: dict[tuple[int, ...], list[int]] = {(0,) * n_coords: [1] * len(points)}
    for exps in {e for p in polys for e in p.ints}:
        chain = []
        while exps not in columns:
            t = next(i for i, e in enumerate(exps) if e)
            chain.append((exps, t))
            exps = exps[:t] + (exps[t] - 1,) + exps[t + 1:]
        col = columns[exps]
        for exps, t in reversed(chain):
            col = columns[exps] = list(map(mul, col, axes[t]))
    for p in polys:
        values = [0] * len(points)
        for exps, c in p.ints.items():
            values = [x + c * v for x, v in zip(values, columns[exps])]
        yield p.den, values


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

    # the centres are distinct, so they take the point ids 0..n-1
    centers = [g.coords for g in ball(schema, measure.support(), radius)]
    n = len(centers)
    index = {c: i for i, c in enumerate(centers)}
    law_mul = schema.law_mul
    atom_ids = [
        [index.setdefault(law_mul(c, s.coords), len(index)) for c in centers] for s, _ in atoms
    ]

    results = []
    for scale, values in _value_tables(polys, list(index)):
        rhs = [0] * n
        for ids, w in zip(atom_ids, int_weights):
            rhs = [r + w * values[i] for r, i in zip(rhs, ids)]
        lhs = [weight_scale * v for v in values[:n]]
        if lhs == rhs:
            results.append(HarmonicCheck(True, n))
            continue
        ci = next(i for i, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
        exact = Fraction(values[ci], scale), Fraction(rhs[ci], weight_scale * scale)
        results.append(HarmonicCheck(False, ci + 1, GroupElement(centers[ci]), *exact))
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


def _difference_points(
    schema: GroupSchema,
    order: int,
    elems: Sequence[GroupElement],
    test_points: Sequence[GroupElement],
    budget: int,
    side: str,
) -> tuple[list, list, list]:
    """The budgeted tuples, their id columns and the interned points.

    For the left derivative the subset {i_1 < ... < i_r} of a tuple is the
    point u_{i_r} ... u_{i_1} x; for the right, x u_{i_1} ... u_{i_r}.  Subset
    products are built by doubling, so bit i of a subset's index marks
    u_{i+1}, one odometer prefix length at a time: each product is built once
    for all tuples sharing its prefix, and each test point is moved once per
    distinct product.  ``columns[s]`` lists, for every tuple j and test point
    x in that order, the position in ``points`` of subset s's point.
    """
    law_mul = schema.law_mul

    def act(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return law_mul(b, a) if side == "left" else law_mul(a, b)

    tuples = list(itertools.islice(itertools.product(elems, repeat=order), budget))
    n = len(elems)
    # prods[s][j]: subset s's product for prefix j, over the prefixes of one length
    prods = [[(0,) * schema.n_coords] * min(len(tuples), 1)]
    for rest in range(order - 1, -1, -1):
        # prefix j is prefix j // n one entry shorter, then elems[j % n]
        count = (len(tuples) - 1) // n**rest + 1 if tuples else 0
        prods = [[p[j // n] for j in range(count)] for p in prods]
        prods += [[act(p, elems[j % n].coords) for j, p in enumerate(q)] for q in prods]
    index: dict[tuple[int, ...], int] = {}
    moved = {
        p: [index.setdefault(act(x.coords, p), len(index)) for x in test_points]
        for p in dict.fromkeys(itertools.chain.from_iterable(prods))
    }
    columns = [list(itertools.chain.from_iterable(map(moved.__getitem__, c))) for c in prods]
    return tuples, columns, list(index)


def _iterated_difference_checks(
    schema: GroupSchema,
    polys: Sequence[Polynomial],
    order: int,
    elems: Sequence[GroupElement],
    test_points: Sequence[GroupElement],
    budget: int,
    side: str,
) -> list[DerivativeCheck]:
    """Evaluate order-fold differences of each f in ``polys`` directly via
    signed sums, on one table of subset points.

    The subset points of ``_difference_points`` carry the sign
    (-1)^(order - r) for a subset of size r.  They are evaluated in one value
    table and each sign's columns summed; the first tuple and point where the
    two sums differ, in odometer order, is the witness.
    """
    tuples, columns, points = _difference_points(schema, order, elems, test_points, budget, side)
    signs = [1 if order % 2 == 0 else -1]
    for _ in range(order):
        signs += [-s for s in signs]
    size = len(tuples) * len(test_points)
    results = []
    for scale, values in _value_tables(polys, points):
        sums = {1: [0] * size, -1: [0] * size}
        for sign, ids in zip(signs, columns):
            sums[sign] = [x + values[i] for x, i in zip(sums[sign], ids)]
        plus, minus = sums[1], sums[-1]
        if plus == minus:
            results.append(DerivativeCheck(True, order, len(tuples)))
            continue
        i = next(i for i, (a, b) in enumerate(zip(plus, minus)) if a != b)
        j, x = divmod(i, len(test_points))
        results.append(DerivativeCheck(
            False, order, j + 1, tuples[j], test_points[x], Fraction(plus[i] - minus[i], scale)
        ))
    return results


def _difference_sample(
    schema: GroupSchema, support: Sequence[GroupElement], k: int, depth: int, budget: int
) -> tuple[list[GroupElement], list[GroupElement]]:
    """The sorted radius-``depth`` ball and the test points, the first three
    of its radius-<= 2 prefix, from one search, after the arguments are
    checked: ints, not bools or floats, with k >= -1, depth >= 0, budget >= 1.
    A check whose min(budget, |ball|^(k+1)) tuples of 2^(k+1) subsets pass
    ``MAX_BALL_POINTS`` is refused after the search, before any product."""
    for value, what, low in ((k, "k", -1), (depth, "depth", 0), (budget, "budget", 1)):
        if _require_int(value, what) < low:
            raise ValidationError(f"{what} must be at least {low}, got {value}")
    levels = ball_levels(schema, support, depth)
    elems = [GroupElement(c) for c in sorted(itertools.chain(*levels))]
    order = k + 1  # past the limit's bit length, 2^order alone passes it
    if (order >= MAX_BALL_POINTS.bit_length()
            or min(budget, len(elems) ** order) << order > MAX_BALL_POINTS):
        raise ValidationError(
            f"an order-{order} difference check at budget {budget} takes more than "
            f"{MAX_BALL_POINTS} subset points; choose a smaller k or budget"
        )
    points = [GroupElement(c) for c in sorted(itertools.chain(*levels[:3]))[:3]]
    return elems, points


def check_derivative_vanishing(
    schema: GroupSchema,
    f: Polynomial,
    k: int,
    support: Sequence[GroupElement],
    depth: int,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> DerivativeCheck:
    """Whether all (k+1)-fold left differences of f by ball elements vanish.

    Tuples are enumerated in lexicographic odometer order over the sorted
    radius-``depth`` ball and capped at ``budget``; evaluation is direct at
    the test points of ``_difference_sample``.
    """
    elems, points = _difference_sample(schema, support, k, depth, budget)
    return _iterated_difference_checks(schema, [f], k + 1, elems, points, budget, "left")[0]


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
    """Left and right (k+1)-fold difference checks must agree on the same
    sample, that of ``_difference_sample`` on the standard generators."""
    return check_left_right_batch(schema, [f], k, depth, budget)[0]


def check_left_right_batch(
    schema: GroupSchema,
    polys: Sequence[Polynomial],
    k: int,
    depth: int,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> list[AgreementCheck]:
    """``check_left_right_agreement`` for each f in ``polys``, with one table
    of subset points per side shared by all of them."""
    elems, points = _difference_sample(schema, standard_generators(schema), k, depth, budget)
    left = _iterated_difference_checks(schema, polys, k + 1, elems, points, budget, "left")
    right = _iterated_difference_checks(schema, polys, k + 1, elems, points, budget, "right")
    return [AgreementCheck(a.passed == b.passed, a, b) for a, b in zip(left, right)]


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
