"""Property test: the Laplacian's pair columns, swept on graded basis indices,
equal the tuple-keyed sweep they replaced and the columns read off
``Fraction`` translates, on random valid laws and random elements.

The laws come from ``laws_and_points``, so they include deep and
non-associative ones; there the second difference need not drop the degree
by 2, and then all three must refuse the columns.  Examples are capped at 100
and the example database is off, so a run costs a few seconds and writes no
files.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nilharmonic.errors import InternalInconsistency
from nilharmonic.groups import GroupElement
from nilharmonic.laplacian import _pair_columns
from nilharmonic.polynomials import dim_pk

# dense_reference.py holds the tuple-keyed sweep the indexed one replaced
import dense_reference as dense  # noqa: E402
from test_group_law_fuzz import laws_and_points  # noqa: E402

# the largest basis drawn: the Fraction translates of a degree-6 monomial in
# seven coordinates take tens of milliseconds each
MAX_BASIS = 200


def _outcome(columns, schema, s, k):
    try:
        return columns(schema, s, k)
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
    indexed = _outcome(_pair_columns.__wrapped__, schema, s, k)
    assert indexed == _outcome(dense.pair_columns, schema, s, k)
    reference = _outcome(dense.translated_pair_columns, schema, s, k)
    if indexed == "out of range":
        assert reference == "out of range"
    else:
        assert [dict(column) for column in indexed] == reference
