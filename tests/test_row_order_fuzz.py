"""Property test: the elimination does not depend on the order of its rows.

The reduced row echelon form depends only on the row space, so
``linalg._eliminate`` on the rows of a matrix in any order must give the
same pivots, the same rational reduced rows, the same canonical kernel, and
the same solution with every free variable 0 for a right-hand side renumbered
with the rows; ``Inconsistent.row`` is the rank, so it agrees too.  That
solution must also be the one a dense augmented reduced form over the
``Fraction``s gives (``dense_reference.solve``).  The integers of a reduced
row may carry a common factor that depends on the order, so the rows are
compared as ``Fraction``s, not as ``int_tails`` and ``leads``.  The
matrices are random integer ones of low rank, and random ones with the
Laplacian's block shape, where a row of degree d has entries only in
columns of degree d + 2 or more.  Examples are capped at 150 and the example
database is off, so a run writes no files.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nilharmonic.linalg import Inconsistent, _eliminate

import dense_reference as dense

entries = st.integers(-4, 4)


@st.composite
def low_rank(draw):
    """(cols, rows) of a product of a rows x r and an r x cols matrix, r
    below both, so the rows are dependent."""
    n_rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 9))
    r = draw(st.integers(0, min(n_rows, cols) - 1))
    left = draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=n_rows, max_size=n_rows))
    right = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=r, max_size=r))
    return cols, [[sum(a * b for a, b in zip(row, column)) for column in zip(*right)] or [0] * cols
                  for row in left]


@st.composite
def block_shaped(draw):
    """(cols, rows) with columns graded by degree 0..K and rows of degree
    0..K-2, a row of degree d holding entries only in columns of degree
    d + 2 or more, as in the Laplacian's matrix on graded bases."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=3, max_size=5))
    degrees = [d for d, size in enumerate(sizes) for _ in range(size)]
    rows = []
    for d, size in enumerate(sizes[:-2]):
        for _ in range(size):
            rows.append([draw(entries) if e >= d + 2 else 0 for e in degrees])
    return len(degrees), rows


def reduced_rows(f):
    """Each pivot's row of the reduced echelon form, as Fractions."""
    return {p: {p: Fraction(1), **{c: Fraction(v, f.leads[p]) for c, v in f.int_tails[p].items()}}
            for p in f.pivots}


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_shuffled_rows_give_the_same_factorization(data):
    cols, dense_rows = data.draw(st.one_of(low_rank(), block_shaped()))
    n_rows = len(dense_rows)
    rows = [{c: v for c, v in enumerate(row) if v} for row in dense_rows]
    denominator = data.draw(st.integers(1, 6))
    order = data.draw(st.permutations(range(n_rows)))
    f = _eliminate(n_rows, cols, rows, denominator)
    g = _eliminate(n_rows, cols, [rows[i] for i in order], denominator)
    assert g.pivots == f.pivots
    assert reduced_rows(g) == reduced_rows(f)
    assert g.kernel() == f.kernel()
    # a right-hand side drawn at random, mostly outside the column space, or
    # the image of a drawn vector, inside it
    if data.draw(st.booleans()):
        rhs = data.draw(st.dictionaries(st.integers(0, n_rows - 1), entries.filter(bool)))
    else:
        x = data.draw(st.lists(entries, min_size=cols, max_size=cols))
        rhs = {i: v for i, row in enumerate(dense_rows) if (v := sum(map(int.__mul__, row, x)))}
    d = data.draw(st.integers(1, 6))
    position = {i: j for j, i in enumerate(order)}
    solution = f.solve((d, rhs))
    assert g.solve((d, {position[i]: n for i, n in rhs.items()})) == solution
    # and it is the solution of one augmented reduced form over the Fractions
    data = [[Fraction(v, denominator) for v in row] for row in dense_rows]
    want = dense.solve(data, cols, [Fraction(rhs.get(i, 0), d) for i in range(n_rows)])
    if not isinstance(solution, Inconsistent):
        e, vec = solution
        solution = [Fraction(vec.get(j, 0), e) for j in range(cols)]
    assert solution == want
