"""Property tests: the Laplacian read off the moment images equals the pair
columns it replaced.

On random valid laws and random elements, the columns of one pair
{s, s^-1} read off the moment images of its joint support equal the
tuple-keyed sweep and the columns read off ``Fraction`` translates.  The
laws come from ``laws_and_points``, so they include deep and
non-associative ones.  On the three families, the whole matrix of a random
symmetric measure, with pairs of several coordinates, overlapping
supports and maybe an identity atom, equals the sum over its pairs of the
weighted ``Fraction`` columns, over the scale.  Examples are capped and the
example database is off, so a run costs a few seconds and writes no files.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nilharmonic.errors import InternalInconsistency
from nilharmonic.groups import (
    GroupElement,
    ball,
    heisenberg,
    identity,
    inv,
    lattice,
    standard_generators,
    unitriangular,
)
from nilharmonic.laplacian import Measure, laplacian_matrix
from nilharmonic.polynomials import dim_pk

# dense_reference.py holds the tuple-keyed sweep and the Fraction translates
import dense_reference as dense  # noqa: E402
from test_group_law_fuzz import laws_and_points  # noqa: E402
from test_laplacian import moment_pair_columns  # noqa: E402

# the largest basis drawn: the Fraction translates of a degree-6 monomial in
# seven coordinates take tens of milliseconds each
MAX_BASIS = 200


def _outcome(columns, schema, s, k):
    try:
        return [dict(column) for column in columns(schema, s, k)]
    except InternalInconsistency:
        return "out of range"


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
# sampled_from leans towards its first elements, so most draws ask for k = 6
# and the basis cap brings k down to what the coordinates allow
@given(laws_and_points(), st.sampled_from(range(6, -1, -1)), st.booleans())
def test_indexed_pair_columns_equal_the_tuple_sweep(case, k, small):
    schema, a, b = case
    # a is drawn up to 2**70 per coordinate; b, cut to -3..3, hits zeros and units
    s = GroupElement(a if not small else tuple(x % 7 - 3 for x in b))
    while dim_pk(schema, k) > MAX_BASIS:
        k -= 1
    indexed = _outcome(moment_pair_columns, schema, s, k)
    assert indexed == _outcome(dense.pair_columns, schema, s, k)
    assert indexed == _outcome(dense.translated_pair_columns, schema, s, k)


FAMILIES = [lattice(2), lattice(3), heisenberg(1), heisenberg(2), unitriangular(3),
            unitriangular(4)]


@st.composite
def measures(draw):
    """A symmetric measure on one of the families: the generators and up to
    three pairs {s, s^-1} from the radius-2 ball, integer weights per pair,
    and maybe an identity atom."""
    schema = draw(st.sampled_from(FAMILIES))
    gens = standard_generators(schema)
    others = [g for g in ball(schema, gens, 2) if any(g.coords) and g not in gens]
    picks = draw(st.lists(st.sampled_from(others), max_size=3, unique=True))
    weights: dict[GroupElement, int] = {}
    for s in gens + picks:
        w = draw(st.integers(1, 4))
        weights.setdefault(s, w)
        weights.setdefault(inv(schema, s), weights[s])
    if draw(st.booleans()):
        weights[identity(schema)] = draw(st.integers(1, 4))
    total = sum(weights.values())
    return Measure(schema, [(g, Fraction(w, total)) for g, w in weights.items()])


@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(measures(), st.integers(0, 5))
def test_moment_matrix_equals_the_translated_pair_columns(mu, k):
    schema = mu.schema
    while dim_pk(schema, k) > MAX_BASIS:
        k -= 1
    want = [{} for _ in range(dim_pk(schema, k - 2))]
    for s, _, ws in dense.pairs(mu):
        for j, column in enumerate(dense.translated_pair_columns(schema, s, k)):
            for i, c in column.items():
                want[i][j] = want[i].get(j, 0) + ws * c / mu.scale
    got = laplacian_matrix.__wrapped__(schema, mu, k).data
    assert got == [[row.get(j, 0) for j in range(dim_pk(schema, k))] for row in want]
