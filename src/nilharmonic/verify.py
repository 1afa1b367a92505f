"""Brute-force oracles that validate the algebra by direct evaluation.

Everything here works pointwise on Cayley balls and other point sets using
only group multiplication and integer polynomial values.  A batch of
polynomials is evaluated at an interned list of points in chunks: the integer
numerators of a chunk are packed into one int per monomial, as balanced
base-2^B digits with B from an exact bound on the sums the oracle takes, and
the packed polynomial is evaluated one coordinate at a time: its coefficients
in the last coordinate are evaluated together on the distinct prefixes of the
points, then combined by Horner's rule, so the work at each coordinate scales
with the distinct prefixes, not with the points.  Every oracle sum then runs
over whole rows of ids once per chunk, and a non-zero packed sum is decoded
digit by digit into the polynomials that fail.  The translation machinery
under test (composition with the affine forms of the group law), the
Laplacian, the matrix assembly and the elimination are never called, so a bug
there cannot hide from these checks.  For the same reason the mean-value
oracle clears the measure's ``Fraction`` weights to integers itself and does
not read the ``scale`` and ``int_weights`` that the Laplacian uses.  Every
oracle is stateless and deterministic: enumeration orders are fixed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm, prod
from operator import add, mul, sub
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .errors import ValidationError
from .groups import (
    MAX_BALL_POINTS,
    Coords,
    GroupElement,
    GroupSchema,
    _require_int,
    ball_levels,
    standard_generators,
)
# unused here, but the benchmark's tracer wraps verify.ball and verify.mul_coords by name
from .groups import ball, mul_coords  # noqa: F401
from .polynomials import Exponents, Polynomial, _require_polynomial, pk_basis

if TYPE_CHECKING:  # the Laplacian module imports this one
    from .laplacian import Measure

DEFAULT_TUPLE_BUDGET = 2000

# The most bits of one packed value.  A batch is evaluated in chunks whose
# digits fit, so the rows of a long batch stay as small as those of a short one.
CHUNK_BITS = 1024


def _require_schema(schema: GroupSchema, polys: Iterable[Polynomial]) -> None:
    """Refuse anything but polynomials of ``schema``: another schema's
    polynomial would be evaluated on points of the wrong length."""
    for p in polys:
        if _require_polynomial(p).schema is not schema and p.schema != schema:
            raise ValidationError(
                f"a polynomial on {p.schema.name()} cannot be checked on {schema.name()}"
            )


# (up, ys) per coordinate; see ``_prefix_levels``
Levels = list[tuple[list[int], list[int]]]


def _prefix_levels(points: Sequence[tuple[int, ...]], n_coords: int) -> Levels:
    """The prefix tree of ``points``: (up, ys) per coordinate t = 1..n_coords.

    Level t holds the distinct t-prefixes (y_1, ..., y_t) of the points, in
    order of first appearance, except the last level, which holds every point
    as it is: ``ys[i]`` is coordinate t of prefix i and ``up[i]`` the position
    of its (t-1)-prefix in level t - 1 (level 0 is the empty prefix alone).
    """
    levels = []
    rows = points
    for t in range(n_coords, 0, -1):
        heads: dict[tuple[int, ...], int] = {}
        up = [heads.setdefault(y[: t - 1], len(heads)) for y in rows]
        levels.append((up, [y[t - 1] for y in rows]))
        rows = list(heads)
    levels.reverse()
    return levels


def _digit_bits(polys: Sequence[Polynomial], levels: Levels, spread: int,
                factors: Sequence[int] = ()) -> list[int]:
    """The digit width B of each polynomial, times its entry of ``factors``
    if given, for sums of its values at the points of ``levels``.

    With R_t the largest |y_t| over the points, read off level t, p's
    numerator at y is at most M = sum_e |n_e| prod_t R_t^e_t over its
    integer terms n_e.  A sum of values whose integer factors add up to at
    most ``spread`` in absolute value is at most spread * M < 2^(B - 1), so
    it is one balanced digit.
    """
    radii = [max(map(abs, ys), default=0) for _, ys in levels]
    sizes: dict[Exponents, int] = {}
    bits = []
    for p, factor in zip(polys, factors or itertools.repeat(1)):
        bound = 0
        for e, c in p.ints.items():
            size = sizes.get(e)
            if size is None:
                size = sizes[e] = prod(map(pow, radii, e))
            bound += abs(c) * size
        bits.append((spread * factor * bound).bit_length() + 1)
    return bits


def _chunks(bits: Sequence[int]) -> Iterator[tuple[int, int, int]]:
    """(start, stop, B): consecutive runs of ``bits`` whose widest entry B
    times their length is at most ``CHUNK_BITS``; a wider entry is alone."""
    start = width = 0
    for i, b in enumerate(bits):
        wider = max(width, b)
        if i > start and wider * (i + 1 - start) > CHUNK_BITS:
            yield start, i, width
            start, wider = i, b
        width = wider
    if bits:
        yield start, len(bits), width


def _packed(polys: Sequence[Polynomial], width: int,
            factors: Sequence[int] = ()) -> dict[Exponents, int]:
    """sum_j k_j n_j,e 2^(width j) for each monomial e, n_j,e the numerators
    of polys[j] and k_j its entry of ``factors``, or 1 if none is given."""
    coeffs: dict[Exponents, int] = {}
    get = coeffs.get
    for j, (p, factor) in enumerate(zip(polys, factors or itertools.repeat(1))):
        shift = width * j
        for e, c in p.ints.items():
            coeffs[e] = get(e, 0) + (c * factor << shift)
    return coeffs


def _peel(coeffs: dict[Exponents, int], levels: Levels) -> list[int]:
    """sum_e coeffs[e] y^e at each point of ``levels``.

    For a suffix s = (s_(t+1), ..., s_n) of exponents, let F_s be the
    polynomial in y_1..y_t that multiplies y_(t+1)^s_(t+1) ... y_n^s_n in the
    sum.  Then F_s = sum_j y_t^j F_(j, s), each F_(j, s) in y_1..y_(t-1), so
    the values of every F_s at the distinct t-prefixes follow by Horner's
    rule in y_t from those of the F_(j, s) at each prefix's (t-1)-prefix.
    Starting from the constants F_e at the empty prefix, one level per
    coordinate gives F_() at every point; the rows of level t are as long as
    its distinct prefixes, not as the points.
    """
    # F_s at the prefixes of the level done, keyed by the exponents s still to peel
    rows = {e: [c] for e, c in coeffs.items()}
    for up, ys in levels:
        parts: dict[Exponents, dict[int, list[int]]] = {}
        for e, row in rows.items():
            parts.setdefault(e[1:], {})[e[0]] = row
        rows = {}
        for s, part in parts.items():
            top = max(part)
            value = list(map(part[top].__getitem__, up))
            for j in range(top - 1, -1, -1):
                below = part.get(j)
                if below is None:
                    value = list(map(mul, value, ys))
                else:
                    value = list(map(add, map(mul, value, ys), map(below.__getitem__, up)))
            rows[s] = value
    return rows.get((), [0] * len(levels[-1][1]))


def _packed_tables(
    polys: Sequence[Polynomial], points: Sequence[tuple[int, ...]], spread: int
) -> Iterator[tuple[int, int, int, list[int]]]:
    """(start, stop, B, values) for each chunk polys[start:stop]:
    values[i] = sum_j n_j(points[i]) 2^(B (j - start)), n_j(y) = p_j.den * p_j(y),
    with B wide enough for sums of values with factors of total size ``spread``
    (see ``_digit_bits``)."""
    if not polys:
        return
    levels = _prefix_levels(points, polys[0].schema.n_coords)
    for start, stop, width in _chunks(_digit_bits(polys, levels, spread)):
        yield start, stop, width, _peel(_packed(polys[start:stop], width), levels)


def _digits(x: int, width: int, count: int) -> list[int]:
    """The ``count`` lowest balanced base-2^width digits of x, each in
    [-2^(width - 1), 2^(width - 1)), the lowest first."""
    full = 1 << width
    half = full >> 1
    out = []
    for _ in range(count):
        d = x & (full - 1)
        if d >= half:
            d -= full
        out.append(d)
        x = (x - d) >> width
    return out


def _first_digits(
    sums: Iterable[tuple[object, int]], width: int, count: int
) -> dict[int, tuple[object, int]]:
    """For each digit j < ``count`` that is non-zero in some packed sum, the
    (key, digit) of the first such (key, sum) of ``sums``; read lazily, up to
    the sum where every digit has been seen non-zero."""
    found: dict[int, tuple[object, int]] = {}
    for key, x in sums:
        if x:
            for j, d in enumerate(_digits(x, width, count)):
                if d and j not in found:
                    found[j] = (key, d)
            if len(found) == count:
                break
    return found


class HarmonicCheck(NamedTuple):
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

    Batch form: one ``ball_levels`` search, whose points are the centres of
    one ``_mean_value_checks`` call, one packed value table per chunk of
    polys and one gather per atom serve them all.  Arithmetic is integer
    after clearing denominators, so every comparison is exact.
    """
    if schema != measure.schema:
        raise ValidationError("schema and measure do not match")
    _require_schema(schema, polys)
    levels = ball_levels(schema, measure.support(), radius)
    return _mean_value_checks(measure, polys, itertools.chain(*levels))


def _mean_value_checks(measure: Measure, polys: Sequence[Polynomial], centres: Iterable[Coords],
                       rhs: Sequence[Polynomial] = ()) -> list[HarmonicCheck]:
    """f(g) = sum_s mu(s) f(gs) + h(g) at each point g of ``centres``, given
    as coordinate tuples, for each f of ``polys``, h its entry of ``rhs`` or
    0.  A repeated centre counts once, and the centres' order changes
    nothing.  Per chunk, with F = d f and H = d h for d = f.den h.den, and w
    the lcm of the weights' denominators, w F(g) - sum_s w mu(s) F(gs) -
    w H(g) is below 2^(B - 1), B one more than the wider width
    ``_digit_bits`` gives F or H, both bounded and packed from f and h with
    the factors h.den and f.den.  A failing f's witness is the first
    centre, in coordinate order, with a non-zero digit for f, and its
    ``checked_points`` that centre's rank; a passing f's is the number of
    distinct centres.
    """
    atoms = list(measure.atoms.items())
    weight_scale = lcm(*(w.denominator for _, w in atoms))
    int_weights = [w.numerator * (weight_scale // w.denominator) for _, w in atoms]

    # the centres take the ids 0..n-1, and each is multiplied by every atom
    # but the identity
    distinct = list(dict.fromkeys(centres))
    index = {c: i for i, c in enumerate(distinct)}
    n = len(distinct)
    law_mul = measure.schema.law_mul
    atom_ids = [
        [index.setdefault(law_mul(c, s.coords), len(index)) for c in distinct]
        if any(s.coords) else range(n)
        for s, _ in atoms
    ]
    points = list(index)

    levels = _prefix_levels(points, measure.schema.n_coords)
    # F = d f and H = d h for d = f.den h.den: f's numerators times h.den, h's times f.den
    f_factors, h_factors = [h.den for h in rhs] or [1] * len(polys), [p.den for p in polys]
    dens = list(map(mul, f_factors, h_factors))
    bits = _digit_bits([*polys, *rhs], levels, 2 * weight_scale, f_factors + h_factors)
    if rhs:  # one bit more than the wider of F's and H's holds their sum
        bits = [max(b, c) + 1 for b, c in zip(bits, bits[len(polys):])]
    order = None
    results = []
    for start, stop, width in _chunks(bits):
        values = _peel(_packed(polys[start:stop], width, f_factors[start:stop]), levels)
        lhs = [weight_scale * v for v in values[:n]]
        total = [0] * n
        if rhs:
            total = [weight_scale * v for v in
                     _peel(_packed(rhs[start:stop], width, h_factors[start:stop]), levels)[:n]]
        for ids, w in zip(atom_ids, int_weights):
            total = list(map(add, total, map(w.__mul__, map(values.__getitem__, ids))))
        if lhs == total:
            results += [HarmonicCheck(True, n) for _ in range(start, stop)]
            continue
        if order is None:
            order = sorted(range(n), key=points.__getitem__)
        found = _first_digits(
            (((rank, i), lhs[i] - total[i]) for rank, i in enumerate(order)), width, stop - start
        )
        for j, den in enumerate(dens[start:stop]):
            if j not in found:
                results.append(HarmonicCheck(True, n))
                continue
            (rank, i), r = found[j]
            v = _digits(values[i], width, j + 1)[j]
            exact = Fraction(v, den), Fraction(weight_scale * v - r, weight_scale * den)
            results.append(HarmonicCheck(False, rank + 1, GroupElement(points[i]), *exact))
    return results


def _laplacian_checks(
    measure: Measure, k_max: int, pairs: Sequence[tuple[Polynomial, Polynomial]]
) -> list[HarmonicCheck]:
    """Whether Delta p = q, Delta of the group law, for each (p, q) of
    ``pairs``, checked in one call of the mean-value oracle; exact where p
    is in P^K and q in P^(K-2), K = ``k_max``.

    Two callers pass such pairs off one degree-K matrix.  The suite passes
    a preimage and its target monomial, a monomial of P^min(K, 3) and its
    image, the monomial's column in that matrix, and a harmonic basis
    element h in P^K and 0; ``solve_preimage`` passes each pivot column of
    the matrix as a monomial x^e and its column.  The measure is symmetric,
    so Delta lowers weighted degree by 2: translation keeps it, and the
    terms of p(x s) that lose exactly 1 are linear in the weight-1
    coordinates of s, whose mu-average is 0.  So Delta p - q is in P^(K-2).
    The oracle checks it at S_j, j = max(K - 2, 0), the exponent vectors of
    ``pk_basis(j)`` passed as its centres.  S_j is downward closed, so in the
    binomial basis prod_t C(x_t, a_t) the values of P^j on S_j form a
    unitriangular matrix: a polynomial of P^j that vanishes there is 0, and
    each check that passes is an identity on all of G, while each that fails
    names a point of G where it does not hold.  A passing (h, 0) thus gives
    Delta h = 0 everywhere, and so the mean-value identity at every point of
    any ball.
    """
    centres = pk_basis(measure.schema, max(k_max - 2, 0))
    return _mean_value_checks(measure, [p for p, _ in pairs], centres, [q for _, q in pairs])


def _first_translation_mismatch(
    monos: Sequence[Polynomial],
    translates: Sequence[Sequence[Polynomial]],
    ids: Sequence[Sequence[int]],
    points: Sequence[tuple[int, ...]],
    g_points: Sequence[tuple[int, ...]],
) -> tuple[int, int, int] | None:
    """The first (j, u, g) in lexicographic order with translates[u][j] at
    g_points[g] unequal to monos[j] at points[ids[u][g]], or None.

    ``monos`` are monomials and ``translates`` their translates by integer
    elements, so all have denominator 1 and their numerators are their
    values.  A chunk of monomials and each u's chunk of translates are packed
    with one digit width, a bound over ``points``, which must hold
    ``g_points``; the packed rows are compared, and decoded where they differ.
    """
    if not monos:
        return None
    n_coords = monos[0].schema.n_coords
    levels = _prefix_levels(points, n_coords)
    g_levels = _prefix_levels(g_points, n_coords)
    width = max(_digit_bits([*monos, *itertools.chain(*translates)], levels, 2))
    for start, stop, _ in _chunks([width] * len(monos)):
        chunk = slice(start, stop)
        values = _peel(_packed(monos[chunk], width), levels)
        # digit j: the first (u, g), in that order, where monomial start + j fails
        found: dict[int, tuple[int, int]] = {}
        for u, (u_ids, qs) in enumerate(zip(ids, translates)):
            q_values = _peel(_packed(qs[chunk], width), g_levels)
            moved = list(map(values.__getitem__, u_ids))
            if q_values != moved:
                diffs = enumerate(map(sub, q_values, moved))
                for j, (g, _) in _first_digits(diffs, width, len(qs[chunk])).items():
                    found.setdefault(j, (u, g))
        if found:
            j = min(found)
            return (start + j, *found[j])
    return None


def check_harmonic_on_ball(
    schema: GroupSchema, measure: Measure, f: Polynomial, radius: int
) -> HarmonicCheck:
    """Single-polynomial form of the mean-value oracle."""
    return check_harmonic_batch(schema, measure, [f], radius)[0]


class DerivativeCheck(NamedTuple):
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
    (-1)^(order - r) for a subset of size r.  They are evaluated in one packed
    table per chunk of ``polys`` and each sign's columns summed; a difference
    is a sum of 2^order values.  The first tuple and point where a
    polynomial's digits of the two sums differ, in odometer order, is its
    witness.
    """
    tuples, columns, points = _difference_points(schema, order, elems, test_points, budget, side)
    signs = [1 if order % 2 == 0 else -1]
    for _ in range(order):
        signs += [-s for s in signs]
    size = len(tuples) * len(test_points)
    results = []
    for start, stop, width, values in _packed_tables(polys, points, 1 << order):
        sums = {1: [0] * size, -1: [0] * size}
        for sign, ids in zip(signs, columns):
            sums[sign] = list(map(add, sums[sign], map(values.__getitem__, ids)))
        plus, minus = sums[1], sums[-1]
        found = {} if plus == minus else _first_digits(
            enumerate(map(sub, plus, minus)), width, stop - start
        )
        for j, p in enumerate(polys[start:stop]):
            if j not in found:
                results.append(DerivativeCheck(True, order, len(tuples)))
                continue
            i, value = found[j]
            t, x = divmod(i, len(test_points))
            results.append(DerivativeCheck(
                False, order, t + 1, tuples[t], test_points[x], Fraction(value, p.den)
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
    _require_schema(schema, [f])
    elems, points = _difference_sample(schema, support, k, depth, budget)
    return _iterated_difference_checks(schema, [f], k + 1, elems, points, budget, "left")[0]


class AgreementCheck(NamedTuple):
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
    _require_schema(schema, polys)
    elems, points = _difference_sample(schema, standard_generators(schema), k, depth, budget)
    left = _iterated_difference_checks(schema, polys, k + 1, elems, points, budget, "left")
    right = _iterated_difference_checks(schema, polys, k + 1, elems, points, budget, "right")
    return [AgreementCheck(a.passed == b.passed, a, b) for a, b in zip(left, right)]

