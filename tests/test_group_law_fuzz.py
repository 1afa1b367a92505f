"""Property tests: the compiled group law equals the term-list loop on
random valid laws, and its inverse is two-sided wherever the law is a group.

Examples are capped at 200 and the example database is off, so a run costs
about a second and writes no files.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nilharmonic.groups import GroupSchema

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
