"""Exact sparse linear algebra over the rationals.

The one matrix here is the Laplacian's: integer rows over one positive
common denominator d, each row a dict from column index to non-zero
``int``, the entry there being that int divided by d.  One elimination
serves every question asked of it: a leftmost-pivot Gauss-Jordan on the
matrix augmented by the identity, [A | I], that inserts the rows one at a
time from the last to the first, reduces each against the pivot rows found
so far and, when a new pivot appears, clears that column from the earlier
pivot rows, by integer cross-multiplication.  It yields a
``Factorization``: the pivot columns, the rows of the unique reduced row
echelon form as integers over one lead per row, and their part in I, the
transform E with E A the reduced form, from which every solve reads its
answer.  A matrix computes its factorization once, and the library reads
nothing else of it.  Kernel bases use the canonical free-variable
parameterization (each free variable set to 1 in turn, in ascending column
order), so outputs are deterministic and portable.
Kernel vectors, right-hand sides and solutions are integers over one
denominator, in lowest terms; the dense views that tests and the
benchmark's tracer read make each entry a ``Fraction`` once from those.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, NamedTuple, Sequence

from .errors import ValidationError

RationalLike = Fraction | int
IntRows = list[dict[int, int]]
# a vector as (d, {column: n}), the entry at each column being n / d, d > 0
IntVector = tuple[int, dict[int, int]]

_ZERO = Fraction(0)


def _require_coeff(value: object, what: str = "coefficient") -> Fraction:
    """A rational value as a Fraction; only int (not bool) and Fraction are taken."""
    # a float or a string would be coerced to some rational, a bool to 0 or 1
    if type(value) is Fraction:
        return value
    if type(value) is int:
        return Fraction(value)
    raise ValidationError(f"{what} must be an int or a Fraction, got {value!r}")


def _int_vector(fracs: Mapping[Hashable, Fraction]) -> tuple[int, dict]:
    """(d, ints) of the non-zero Fraction values ``fracs``, d their lcm.

    That scale leaves no common factor (a prime at its highest power in d
    divides one denominator fully, and neither that numerator nor the
    cofactor), so the form is in lowest terms without a gcd.
    """
    d = lcm(*(x.denominator for x in fracs.values()))
    return d, {key: x.numerator * (d // x.denominator) for key, x in fracs.items()}


def _lowest(d: int, ints: dict) -> tuple[int, dict]:
    """(d, ints), the ints over d > 0, divided by the gcd of d and the ints."""
    g = gcd(d, *ints.values()) if d != 1 else 1
    return (d, ints) if g == 1 else (d // g, {key: n // g for key, n in ints.items()})


class Inconsistent(NamedTuple):
    """Witness that a linear system has no solution.

    ``row`` indexes the row of the reduced augmented system whose equation
    reads 0 = 1; that row comes right after the pivot rows, so it equals
    the rank of the coefficient matrix.
    """

    row: int


class Factorization:
    """The elimination of one rows x cols matrix A, run on [A | I].

    ``pivots`` are the pivot columns of A in ascending order.  The row of the
    reduced echelon form with pivot ``p`` is kept as integers: it is 1 at
    ``p`` and ``int_tails[p][c] / leads[p]`` at each of its other non-zero
    columns ``c`` of A, which are free columns right of ``p``;
    ``leads[p] > 0``.  ``kernel`` and the reduced matrix of ``rref`` read
    these integer rows.  ``transform`` holds the same rows' part in I, E, by
    column: ``transform[i]`` lists (p, v) for the entry v / leads[p] that the
    row with pivot p has at column i of I, so that E A is the reduced form.
    A reduced row whose pivot lies in I is a left null vector of A; it is
    listed as (p, v) too, with p >= cols its pivot in [A | I], and only
    whether it meets a right-hand side is read.  ``kernel`` and ``solve``
    both give vectors as integers over one denominator in lowest terms, and
    the methods hand out fresh dicts only.
    """

    __slots__ = ("rows", "cols", "pivots", "leads", "int_tails", "transform")

    def __init__(
        self,
        rows: int,
        cols: int,
        leads: dict[int, int],
        int_tails: dict[int, dict[int, int]],
        transform: list[list[tuple[int, int]]],
    ):
        self.rows = rows
        self.cols = cols
        self.pivots = tuple(sorted(int_tails))
        self.leads = leads
        self.int_tails = int_tails
        self.transform = transform

    def kernel(self) -> list[IntVector]:
        """Sparse right null space basis, one vector per free column c, in
        ascending order of c; each vector's keys are ascending.

        The vector of c is 1 at c and -v / L_p at each pivot p whose reduced
        row holds v / L_p at c.  Over l, the lcm of those leads L_p, it is l
        at c and -v * (l // L_p) at p; it comes divided by the gcd of these,
        as integers over d > 0 in lowest terms.
        """
        int_tails, leads = self.int_tails, self.leads
        entries: dict[int, list[tuple[int, int]]] = {
            c: [] for c in range(self.cols) if c not in int_tails
        }
        for p in self.pivots:
            for c, v in int_tails[p].items():
                entries[c].append((p, v))
        basis = []
        for c, column in entries.items():
            d = lcm(*(leads[p] for p, _ in column))
            d, vec = _lowest(d, {p: -v * (d // leads[p]) for p, v in column})
            vec[c] = d
            basis.append((d, vec))
        return basis

    def solve(self, b: IntVector) -> IntVector | Inconsistent:
        """The solution of A x = b with all free variables 0; inconsistency is
        reported as a value.

        ``b`` is (d, {row: n}) for the entry n / d at each row, d > 0, rows
        left out being 0; the solution comes in the same form over its
        columns, in lowest terms, with no zero entry.  A solution exists
        exactly when every left null vector meets b in 0, and then x = E b:
        x_p is the sum of n_i v / (L_p d) over the (p, v) at each row i of
        b.  The sums are put over the lcm of their leads and reduced.
        """
        if type(b) is not tuple or len(b) != 2 or not isinstance(b[1], Mapping):
            raise ValidationError("right-hand side must be a pair (d, {row: n})")
        d, rhs = b
        if type(d) is not int or d <= 0:
            raise ValidationError(f"right-hand side denominator must be a positive int, got {d!r}")
        for i, n in rhs.items():
            if type(i) is not int or not 0 <= i < self.rows or type(n) is not int:
                raise ValidationError(
                    f"right-hand side entry {i!r}: {n!r} is not an int in a row of 0..{self.rows - 1}"
                )
        transform = self.transform
        sums: dict[int, int] = {}
        get = sums.get
        for i, n in rhs.items():
            for p, v in transform[i]:
                sums[p] = get(p, 0) + n * v
        cols, leads = self.cols, self.leads
        values = {}
        for p, n in sorted(sums.items()):
            if n:
                if p >= cols:
                    return Inconsistent(row=len(self.pivots))
                values[p] = n
        lcd = lcm(*(leads[p] for p in values))
        return _lowest(d * lcd, {p: n * (lcd // leads[p]) for p, n in values.items()})


def _eliminate(
    rows: int, cols: int, entries: Sequence[Mapping[int, int]], denominator: int
) -> Factorization:
    """Leftmost-pivot Gauss-Jordan on integer rows; the only elimination here.

    The matrix A is ``entries`` divided by ``denominator``, and the
    elimination runs on [A | I]: row i carries ``denominator`` at column
    ``cols + i``.  The rows go in from the last to the first, which for the
    Laplacian is the highest degree first, so a new row's pivot seldom lies
    where an earlier row has an entry.  A pivot row is kept as integers: its
    lead L > 0 at the pivot column and its tail at free columns, the reduced
    row being the tail divided by L.  Tails hold no pivot column, so the
    factor by which a pivot row is eliminated from a new row is the new
    row's own entry there, and the row is reduced by all of them in one
    integer combination, scaled by the lcm of their leads.  The new pivot row
    is divided by the gcd of its entries.  Clearing the new pivot from an
    earlier pivot row cross-multiplies; when that scales the earlier row's
    lead up, the row is divided by its gcd again.  At the end the columns of
    I leave the tails for the ``transform``, with the rows whose pivot lies
    there.
    """
    leads: dict[int, int] = {}
    int_tails: dict[int, dict[int, int]] = {}
    for i in range(rows - 1, -1, -1):
        source = entries[i]
        eliminated = [(p, v) for p, v in source.items() if p in leads]
        if eliminated:
            # lam * (source - sum_p v_p * (pivot row p) / L_p) is an integer row
            lam = lcm(*(leads[p] for p, _ in eliminated))
            row = {c: v * lam for c, v in source.items() if c not in leads}
            row[cols + i] = denominator * lam
            for p, v in eliminated:
                m = v * (lam // leads[p])
                get = row.get
                for c, t in int_tails[p].items():
                    x = get(c, 0) - m * t
                    if x:
                        row[c] = x
                    else:
                        del row[c]
        else:
            row = dict(source)
            row[cols + i] = denominator
        # no earlier row has an entry at cols + i, so the row is never zero
        pivot = min(row)
        lead = row.pop(pivot)
        g = gcd(lead, *row.values())
        if lead < 0:
            g = -g
        if g != 1:
            lead //= g
            row = {c: v // g for c, v in row.items()}
        tail = row
        for q, tq in int_tails.items():
            h = tq.pop(pivot, None)
            if h is None:
                continue
            # L * (row q) - h * (new row), divided by gcd(L, h)
            d = gcd(lead, h)
            a, b = lead // d, h // d
            if a != 1:
                for c in tq:
                    tq[c] *= a
            get = tq.get
            for c, v in tail.items():
                x = get(c, 0) - b * v
                if x:
                    tq[c] = x
                else:
                    del tq[c]
            if a != 1:
                lq = leads[q] * a
                # the lead grew, so take out what the row now has in common
                d = gcd(lq, *tq.values())
                if d != 1:
                    for c in tq:
                        tq[c] //= d
                    lq //= d
                leads[q] = lq
        leads[pivot] = lead
        int_tails[pivot] = tail
    transform: list[list[tuple[int, int]]] = [[] for _ in range(rows)]
    for p, tail in list(int_tails.items()):
        if p >= cols:
            del int_tails[p]
            transform[p - cols].append((p, leads.pop(p)))
        for c in [c for c in tail if c >= cols]:
            transform[c - cols].append((p, tail.pop(c)))
    return Factorization(rows, cols, leads, int_tails, transform)


def _reduced_rows(f: Factorization) -> tuple[IntRows, int]:
    """The reduced echelon form of a factorization as integer rows over the
    lcm of the leads: the pivot rows in pivot order, then zero rows."""
    d = lcm(*f.leads.values())
    out: IntRows = []
    for p in f.pivots:
        s = d // f.leads[p]
        row = {p: d}
        row.update((c, v * s) for c, v in f.int_tails[p].items())
        out.append(row)
    out += [{} for _ in range(f.rows - len(out))]
    return out, d


class RationalMatrix:
    """The integer rows of a Laplacian matrix, its one memoized factorization,
    and the dense views that tests and the benchmark's tracer read.

    ``laplacian_matrix`` builds it through ``_trusted``; the library asks it
    only for ``factorization()``.  ``data``, ``kernel_basis`` and ``solve``
    give the rational entries, the kernel and a solution as dense
    ``Fraction`` lists, and ``rref`` the reduced echelon form, a matrix of the
    same kind whose integer rows are built from the factorization when first
    read.  Treated as immutable: ``data`` is a fresh copy on every read.
    """

    # _ints is (integer rows, denominator), or, for a reduced echelon form whose
    # rows have not been read yet, the Factorization they come from
    __slots__ = ("rows", "cols", "_ints", "_factorization")

    @classmethod
    def _trusted(
        cls, rows: int, cols: int, int_rows: IntRows, denominator: int
    ) -> "RationalMatrix":
        """The matrix int_rows / denominator, taking ownership of the rows: one
        dict per row from a column in range(cols) to a non-zero int, and a
        denominator > 0.  Nothing is checked."""
        m = cls.__new__(cls)
        m.rows, m.cols, m._ints, m._factorization = rows, cols, (int_rows, denominator), None
        return m

    def _int_rows(self) -> tuple[IntRows, int]:
        """(integer rows, denominator); built here for an unread reduced form."""
        ints = self._ints
        if type(ints) is Factorization:
            ints = self._ints = _reduced_rows(ints)
        return ints

    @property
    def data(self) -> list[list[Fraction]]:
        """Dense copy of the entries, row by row."""
        int_rows, d = self._int_rows()
        out = []
        for row in int_rows:
            dense = [_ZERO] * self.cols
            for j, v in row.items():
                dense[j] = Fraction(v, d)
            out.append(dense)
        return out

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"

    # -- elimination ----------------------------------------------------------

    def rref(self) -> tuple["RationalMatrix", tuple[int, ...]]:
        """Reduced row echelon form and the tuple of pivot columns.

        The first call runs the elimination; every other method reaches it
        through here, so a wrapper around ``rref`` (as in perfbench's tracer)
        sees each elimination once.  The returned matrix builds its rows
        from the factorization only when they are read.
        """
        f = self._factorization
        if f is None:
            f = self._factorization = _eliminate(self.rows, self.cols, *self._int_rows())
        view = RationalMatrix.__new__(RationalMatrix)
        view.rows, view.cols, view._ints, view._factorization = self.rows, self.cols, f, None
        return view, f.pivots

    def factorization(self) -> Factorization:
        """The memoized elimination of this matrix."""
        if self._factorization is None:
            self.rref()
        return self._factorization

    def kernel_basis(self) -> list[list[Fraction]]:
        """Dense basis of the right null space, one vector per free column.

        ``factorization().kernel()`` gives the same vectors sparsely, as
        integers over one denominator.
        """
        return [self._dense(v) for v in self.factorization().kernel()]

    def solve(self, b: Sequence[RationalLike]) -> list[Fraction] | Inconsistent:
        """A particular solution of A x = b with all free variables 0.

        Inconsistency is reported as a value, not raised.  ``b`` and the
        solution are dense; ``factorization().solve`` takes and gives them
        as integers over one denominator.
        """
        if len(b) != self.rows:
            raise ValidationError("right-hand side length does not match row count")
        rhs = _int_vector(
            {i: x for i, v in enumerate(b) if (x := _require_coeff(v, "right-hand side entry"))}
        )
        sol = self.factorization().solve(rhs)
        return sol if isinstance(sol, Inconsistent) else self._dense(sol)

    def _dense(self, v: IntVector) -> list[Fraction]:
        d, vec = v
        out = [_ZERO] * self.cols
        for j, n in vec.items():
            out[j] = Fraction(n, d)
        return out
