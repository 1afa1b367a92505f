"""Exact sparse linear algebra over the rationals.

A matrix keeps its entries as integer rows over one positive common
denominator d: each row is a dict from column index to non-zero ``int``,
and the entry there is that int divided by d.  One elimination serves every
question asked of it: a leftmost-pivot Gauss-Jordan that inserts the rows
one at a time, reduces each against the pivot rows found so far and, when
a new pivot appears, clears that column from the earlier pivot rows.  It
runs on the integer rows by integer cross-multiplication, so the only
``Fraction`` values it makes are one per recorded factor.  It yields a
``Factorization``: the pivot columns, the rows of the unique reduced row
echelon form as integers over one lead per row, and the row operations it
applied, which replay on any number of right-hand sides.  A matrix computes
its factorization once; ``rref``, ``rank``, ``kernel_basis`` and ``solve``
all read it.  Kernel bases use the canonical free-variable parameterization
(each free variable set to 1 in turn, in ascending column order), so
outputs are deterministic and portable; each kernel vector is read from the
integer rows as integers over one denominator, in lowest terms, and
``kernel_basis`` makes each entry a ``Fraction`` once from those.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .errors import ValidationError

RationalLike = Fraction | int
SparseVector = dict[int, Fraction]
IntRows = list[dict[int, int]]
# a vector as (d, {column: n}), the entry at each column being n / d, d > 0
IntVector = tuple[int, dict[int, int]]

_ZERO = Fraction(0)


def _frac(x: RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class Inconsistent:
    """Witness that a linear system has no solution.

    ``row`` indexes the row of the reduced augmented system whose equation
    reads 0 = 1; that row comes right after the pivot rows, so it equals
    the rank of the coefficient matrix.
    """

    row: int


# One step of the row transform per input row, in input order:
# (eliminated, pivot, scale, cleared).  ``eliminated`` lists the (pivot
# column, factor) pairs subtracted from the row; ``pivot`` is the column the
# row then leads in, or None when it reduced to zero; the row is multiplied
# by ``scale`` (None for 1); ``cleared`` lists the (pivot column, factor)
# pairs of the earlier pivot rows that the new row was subtracted from.
_Step = tuple[
    tuple[tuple[int, Fraction], ...],
    int | None,
    Fraction | None,
    tuple[tuple[int, Fraction], ...],
]
# The same step as the elimination records it, every factor an int pair:
# eliminated (p, v) for the factor v / denominator, scale (sigma, lead) for
# sigma / lead, cleared (q, h, l) for h / l.
_IntStep = tuple[
    tuple[tuple[int, int], ...],
    int | None,
    tuple[int, int] | None,
    tuple[tuple[int, int, int], ...],
]


class Factorization:
    """The elimination of one rows x cols matrix.

    ``pivots`` are the pivot columns in ascending order.  The row of the
    reduced echelon form with pivot ``p`` is kept as integers: it is 1 at
    ``p`` and ``int_tails[p][c] / leads[p]`` at each of its other non-zero
    columns ``c``, which are free columns right of ``p``; ``leads[p] > 0``.
    ``kernel`` and the reduced matrix of ``rref`` read these integer rows.
    ``steps`` is the row transform (see ``_Step``), made on first read from
    the integer factors the elimination recorded over the matrix's
    ``denominator`` (see ``_IntStep``); only ``solve`` reads it.  The
    methods hand out fresh dicts only.
    """

    __slots__ = (
        "rows", "cols", "pivots", "leads", "int_tails", "denominator", "int_steps", "_steps",
    )

    def __init__(
        self,
        rows: int,
        cols: int,
        leads: dict[int, int],
        int_tails: dict[int, dict[int, int]],
        denominator: int,
        int_steps: list[_IntStep],
    ):
        self.rows = rows
        self.cols = cols
        self.pivots = tuple(sorted(int_tails))
        self.leads = leads
        self.int_tails = int_tails
        self.denominator = denominator
        self.int_steps = int_steps
        self._steps: list[_Step] | None = None

    @property
    def steps(self) -> list[_Step]:
        if self._steps is None:
            d = self.denominator
            self._steps = [
                (
                    tuple((p, Fraction(v, d)) for p, v in eliminated),
                    pivot,
                    None if scale is None else Fraction(*scale),
                    tuple((q, Fraction(h, lq)) for q, h, lq in cleared),
                )
                for eliminated, pivot, scale, cleared in self.int_steps
            ]
        return self._steps

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
            vec = {p: -v * (d // leads[p]) for p, v in column}
            g = gcd(d, *vec.values())
            if g != 1:
                d //= g
                vec = {p: v // g for p, v in vec.items()}
            vec[c] = d
            basis.append((d, vec))
        return basis

    def solve(self, b: Sequence[RationalLike]) -> SparseVector | Inconsistent:
        """The solution of A x = b with all free variables 0, as its non-zero
        entries by column; inconsistency is reported as a value."""
        if len(b) != self.rows:
            raise ValidationError("right-hand side length does not match row count")
        values: dict[int, Fraction] = {}
        for bi, (eliminated, pivot, scale, cleared) in zip(b, self.steps):
            x = _frac(bi)
            for p, f in eliminated:
                v = values[p]
                if v:
                    x -= f * v
            if pivot is None:
                if x:
                    return Inconsistent(row=len(self.pivots))
                continue
            if x:
                if scale is not None:
                    x *= scale
                for q, g in cleared:
                    values[q] -= g * x
            values[pivot] = x
        return {p: values[p] for p in self.pivots if values[p]}


def _eliminate(
    rows: int, cols: int, entries: Sequence[Mapping[int, int]], denominator: int
) -> Factorization:
    """Leftmost-pivot Gauss-Jordan on integer rows; the only elimination here.

    The matrix is ``entries`` divided by ``denominator``.  A pivot row is kept
    as integers: its lead L > 0 at the pivot column and its tail at free
    columns, the reduced row being the tail divided by L.  Tails hold no
    pivot column, so the factor by which a pivot row is eliminated from a
    new row is the new row's own entry there, and the row is reduced by all
    of them in one integer combination, scaled by the lcm of their leads.
    The new pivot row is divided by the gcd of its entries.  Clearing the
    new pivot from an earlier pivot row cross-multiplies; when that scales
    the earlier row's lead up, the row is divided by its gcd again.  (With
    the sign of L fixed, a lead of 1 needs no scaling.)  The steps record,
    as int pairs (see ``_IntStep``), the factors that the same elimination
    on ``Fraction`` rows records.
    """
    leads: dict[int, int] = {}
    int_tails: dict[int, dict[int, int]] = {}
    steps: list[_IntStep] = []
    for source in entries:
        eliminated = tuple((p, v) for p, v in source.items() if p in leads)
        if eliminated:
            # lam * (source - sum_p v_p * (pivot row p) / L_p) is an integer row
            lam = lcm(*(leads[p] for p, _ in eliminated))
            row = {c: v * lam for c, v in source.items() if c not in leads}
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
            lam = 1
            row = dict(source)
        if not row:
            steps.append((eliminated, None, None, ()))
            continue
        sigma = denominator * lam
        pivot = min(row)
        lead = row.pop(pivot)
        scale = None if lead == sigma else (sigma, lead)
        g = gcd(lead, *row.values())
        if lead < 0:
            g = -g
        if g != 1:
            lead //= g
            row = {c: v // g for c, v in row.items()}
        tail = row
        cleared = []
        for q, tq in int_tails.items():
            h = tq.pop(pivot, None)
            if h is None:
                continue
            lq = leads[q]
            cleared.append((q, h, lq))
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
                lq *= a
                # the lead grew, so take out what the row now has in common
                d = gcd(lq, *tq.values())
                if d != 1:
                    for c in tq:
                        tq[c] //= d
                    lq //= d
                leads[q] = lq
        leads[pivot] = lead
        int_tails[pivot] = tail
        steps.append((eliminated, pivot, scale, tuple(cleared)))
    return Factorization(rows, cols, leads, int_tails, denominator, steps)


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
    """Matrix with exact rational entries, kept as integer rows over one
    positive common denominator.

    Treated as immutable: ``data`` is a fresh dense copy of the rational
    entries on every read, and the factorization is computed on first use
    and then kept.  The reduced echelon form that ``rref`` returns is a
    matrix whose integer rows are built from the factorization when first read.
    """

    # _ints is (integer rows, denominator), or, for a reduced echelon form whose
    # rows have not been read yet, the Factorization they come from
    __slots__ = ("rows", "cols", "_ints", "_factorization")

    def __init__(self, rows: int, cols: int, entries: Iterable[Iterable[RationalLike]]):
        dense = [list(row) for row in entries]
        if any(len(row) != cols for row in dense):
            raise ValidationError("matrix entries do not match the declared shape")
        self._fill(rows, cols, [dict(enumerate(row)) for row in dense])

    @classmethod
    def from_sparse(
        cls, rows: int, cols: int, entries: Sequence[Mapping[int, RationalLike]]
    ) -> "RationalMatrix":
        """Matrix from one {column: value} mapping per row; zeros may be omitted."""
        m = cls.__new__(cls)
        m._fill(rows, cols, entries)
        return m

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

    def _fill(self, rows: int, cols: int, entries: Sequence[Mapping[int, RationalLike]]) -> None:
        if rows < 0 or cols < 0:
            raise ValidationError("matrix dimensions must be non-negative")
        if len(entries) != rows or any(not 0 <= j < cols for row in entries for j in row):
            raise ValidationError("matrix entries do not match the declared shape")
        fracs = [{j: _frac(x) for j, x in row.items() if x} for row in entries]
        d = lcm(*(x.denominator for row in fracs for x in row.values()))
        int_rows = [
            {j: x.numerator * (d // x.denominator) for j, x in row.items()} for row in fracs
        ]
        self.rows, self.cols, self._ints, self._factorization = rows, cols, (int_rows, d), None

    def _int_rows(self) -> tuple[IntRows, int]:
        """(integer rows, denominator); built here for an unread reduced form."""
        ints = self._ints
        if type(ints) is Factorization:
            ints = self._ints = _reduced_rows(ints)
        return ints

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence[RationalLike]], cols: int | None = None) -> "RationalMatrix":
        entries = [list(row) for row in entries]
        if cols is None:
            if not entries:
                raise ValidationError("cannot infer column count of an empty matrix")
            cols = len(entries[0])
        return cls(len(entries), cols, entries)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls.from_sparse(rows, cols, [{}] * rows)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls.from_sparse(n, n, [{i: 1} for i in range(n)])

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

    def __eq__(self, other: object) -> bool:
        if not (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
        ):
            return False
        a, da = self._int_rows()
        b, db = other._int_rows()
        if da == db:
            return a == b
        # a / da == b / db entry by entry, on the same non-zero columns
        return all(
            ra.keys() == rb.keys() and all(v * db == rb[j] * da for j, v in ra.items())
            for ra, rb in zip(a, b)
        )

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"

    def mul_vector(self, x: Sequence[RationalLike]) -> list[Fraction]:
        if len(x) != self.cols:
            raise ValidationError("vector length does not match column count")
        int_rows, d = self._int_rows()
        return [sum((v * x[j] for j, v in row.items()), _ZERO) / d for row in int_rows]

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

    @property
    def rank(self) -> int:
        return len(self.factorization().pivots)

    def kernel_basis(self) -> list[list[Fraction]]:
        """Dense basis of the right null space, one vector per free column.

        ``factorization().kernel()`` gives the same vectors sparsely, as
        integers over one denominator.
        """
        return [
            self._dense({j: Fraction(x, d) for j, x in v.items()})
            for d, v in self.factorization().kernel()
        ]

    def solve(self, b: Sequence[RationalLike]) -> list[Fraction] | Inconsistent:
        """A particular solution of A x = b with all free variables 0.

        Inconsistency is reported as a value, not raised.
        """
        sol = self.factorization().solve(b)
        return sol if isinstance(sol, Inconsistent) else self._dense(sol)

    def _dense(self, v: SparseVector) -> list[Fraction]:
        out = [_ZERO] * self.cols
        for j, x in v.items():
            out[j] = x
        return out
