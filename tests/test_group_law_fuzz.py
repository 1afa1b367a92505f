"""Property tests: the compiled group law equals the term-list loop on
random valid laws, and its inverse is two-sided wherever the law is a group;
a Cayley ball holds at most the points its count admits, and the size
refusal that counts them refuses exactly what the search refuses.

Examples are capped at 200 and the example database is off, so a run costs
a few seconds and writes no files.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nilharmonic.groups as groups
from nilharmonic.errors import ValidationError
from nilharmonic.groups import (
    GroupElement,
    GroupSchema,
    _require_ball_size,
    ball_levels,
    heisenberg,
    lattice,
    standard_generators,
    unitriangular,
)

# dense_reference.py holds the term-list loops the compiled law replaced
import dense_reference as dense  # noqa: E402

entries = st.integers(-(2**70), 2**70)


@st.composite
def laws_and_points(draw):
    """A schema with a random valid law, and two points of it.

    Weights run up to 3 with gaps allowed; terms are any (t, p, q) the weight
    rule admits, sorted by target, so targets repeat, a term may occur twice,
    and the law may be empty (always so when there is one coordinate).
    """
    n = draw(st.integers(1, 7))
    weights = (1, *sorted(draw(st.lists(st.integers(1, 3), min_size=n - 1, max_size=n - 1))))
    admitted = [
        (t, p, q)
        for t in range(n)
        for p in range(t)
        for q in range(t)
        if weights[t] >= weights[p] + weights[q]
    ]
    law = tuple(sorted(draw(st.lists(st.sampled_from(admitted), max_size=10)))) if admitted else ()
    schema = GroupSchema(
        family="random", size=n, weights=weights, coord_names=tuple(f"c{i}" for i in range(n)),
        law=law,
    )
    a, b = (tuple(draw(st.lists(entries, min_size=n, max_size=n))) for _ in range(2))
    return schema, a, b


@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(laws_and_points())
def test_compiled_law_equals_term_loop(case):
    schema, a, b = case
    e = (0,) * schema.n_coords
    mul, inv = schema.law_mul, schema.law_inv
    assert mul(a, b) == dense.mul_coords(schema, a, b)
    assert inv(a) == dense.inv_coords(schema, a)
    # the inverse solves a * x = e by construction ...
    assert mul(a, inv(a)) == e
    # ... and is also a left inverse when every term reads weight-1
    # coordinates, which add: such a law is associative, a group law.  A deeper
    # law may not be (dropping a term of unitriangular(4) breaks associativity).
    if all(schema.weights[p] == schema.weights[q] == 1 for _, p, q in schema.law):
        assert mul(inv(a), a) == e
        assert mul(mul(a, b), inv(b)) == a


BUILT_IN = [lattice(1), lattice(3), heisenberg(1), heisenberg(2), unitriangular(3), unitriangular(4)]


def refusal(check, *args):
    try:
        check(*args)
    except ValidationError as exc:
        return str(exc)
    return None


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_a_ball_holds_at_most_the_points_its_count_admits(data):
    # the standard generators or a random symmetric support, repeats and the
    # identity allowed: the radius-r ball holds at most sum_(i<=r) |S|^i
    # points, S the distinct support points, so a radius whose count stays
    # within the cap is never refused; under any cap, the count refuses
    # exactly the radii the search refuses, with the search's message, and
    # searches only where the count passes the cap
    schema = data.draw(st.sampled_from(BUILT_IN))
    if data.draw(st.booleans()):
        support = list(standard_generators(schema))
    else:
        coords = st.tuples(*[st.integers(-2, 2)] * schema.n_coords)
        picked = data.draw(st.lists(coords, min_size=1, max_size=4))
        support = [GroupElement(c) for p in picked for c in (p, schema.law_inv(p))]
    radius = data.draw(st.integers(0, 4))
    size = len({g.coords for g in support})
    bound = sum(size**i for i in range(radius + 1))
    assert sum(map(len, ball_levels(schema, support, radius))) <= bound
    cap = data.draw(st.integers(1, 2 * bound))
    searches = []
    real = groups.ball_levels

    def counted(*args):
        searches.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(groups, "MAX_BALL_POINTS", cap)
        expected = refusal(real, schema, support, radius)
        m.setattr(groups, "ball_levels", counted)
        assert refusal(_require_ball_size, schema, support, radius) == expected
    if bound <= cap:
        assert expected is None and not searches
    else:
        assert len(searches) == 1
