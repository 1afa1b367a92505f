"""Exact sparse linear algebra over the rationals.

A matrix keeps its rows as dicts from column index to non-zero ``Fraction``.
One elimination serves every question asked of it: a leftmost-pivot
Gauss-Jordan that inserts the rows one at a time, reduces each against the
pivot rows found so far and, when a new pivot appears, clears that column
from the earlier pivot rows.  It runs on integer-cleared rows: each row is
scaled to integers and reduced by integer cross-multiplication, so the
only ``Fraction`` values it makes are one per recorded factor and one per
entry of the result.  It yields a ``Factorization``: the pivot
columns, the rows of the unique reduced row echelon form, and the row
operations it applied, which replay on any number of right-hand sides.  A
matrix computes its factorization once; ``rref``, ``rank``, ``kernel_basis``
and ``solve`` all read it.  Kernel bases use the canonical free-variable
parameterization (each free variable set to 1 in turn, in ascending column
order), so outputs are deterministic and portable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .errors import ValidationError

RationalLike = Fraction | int
SparseVector = dict[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


class Factorization:
    """The elimination of one rows x cols matrix.

    ``pivots`` are the pivot columns in ascending order.  ``tails[p]`` is the
    row of the reduced echelon form with pivot ``p``, without its leading 1;
    its columns are free columns right of ``p``.  ``steps`` is the row
    transform (see ``_Step``).  The methods hand out fresh dicts only.
    """

    __slots__ = ("rows", "cols", "pivots", "tails", "steps")

    def __init__(
        self, rows: int, cols: int, tails: dict[int, SparseVector], steps: list[_Step]
    ):
        self.rows = rows
        self.cols = cols
        self.pivots = tuple(sorted(tails))
        self.tails = tails
        self.steps = steps

    def kernel(self) -> list[SparseVector]:
        """Sparse right null space basis, one vector per free column,
        in ascending order; each vector's keys are ascending."""
        basis: dict[int, SparseVector] = {
            c: {} for c in range(self.cols) if c not in self.tails
        }
        for p in self.pivots:
            for c, v in self.tails[p].items():
                basis[c][p] = -v
        for c, vec in basis.items():
            vec[c] = _ONE
        return list(basis.values())

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


def _eliminate(rows: int, cols: int, entries: Sequence[Mapping[int, Fraction]]) -> Factorization:
    """Leftmost-pivot Gauss-Jordan on integer-cleared rows; the only elimination here.

    A pivot row is kept as integers: its lead L > 0 at the pivot column and
    its tail at free columns, the reduced row being the tail divided by L.
    An input row is cleared by the lcm of its denominators.  Tails hold no
    pivot column, so the factor by which a pivot row is eliminated from a
    new row is the new row's own entry there, and the row is reduced by all
    of them in one integer combination, scaled by the lcm of their leads.
    The new pivot row is divided by the gcd of its entries.  Clearing the
    new pivot from an earlier pivot row cross-multiplies; when that scales
    the earlier row's lead up, the row is divided by its gcd again.  (With
    the sign of L fixed, a lead of 1 needs no scaling.)  The steps record
    the factors that the same elimination on ``Fraction`` rows records (see
    ``_Step``), and each tail entry becomes a ``Fraction`` once, at the end.
    """
    leads: dict[int, int] = {}
    int_tails: dict[int, dict[int, int]] = {}
    steps: list[_Step] = []
    for source in entries:
        eliminated = tuple((p, f) for p, f in source.items() if p in leads)
        # sigma * (source - sum_p f_p * (pivot row p) / L_p) is an integer row
        sigma = lcm(*(f.denominator for f in source.values()))
        lam = lcm(*(leads[p] for p, _ in eliminated))
        row = {
            c: f.numerator * (sigma // f.denominator) * lam
            for c, f in source.items()
            if c not in leads
        }
        for p, f in eliminated:
            m = f.numerator * (sigma // f.denominator) * (lam // leads[p])
            get = row.get
            for c, v in int_tails[p].items():
                x = get(c, 0) - m * v
                if x:
                    row[c] = x
                else:
                    del row[c]
        if not row:
            steps.append((eliminated, None, None, ()))
            continue
        sigma *= lam
        pivot = min(row)
        lead = row.pop(pivot)
        scale = None if lead == sigma else Fraction(sigma, lead)
        g = gcd(lead, *row.values())
        if lead < 0:
            g = -g
        lead //= g
        tail = {c: v // g for c, v in row.items()}
        cleared = []
        for q, tq in int_tails.items():
            h = tq.pop(pivot, None)
            if h is None:
                continue
            lq = leads[q]
            cleared.append((q, Fraction(h, lq)))
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
    tails = {
        p: {c: Fraction(v, leads[p]) for c, v in tail.items()} for p, tail in int_tails.items()
    }
    return Factorization(rows, cols, tails, steps)


class RationalMatrix:
    """Matrix with exact rational entries, stored as sparse rows.

    Treated as immutable: ``data`` is a fresh dense copy on every read, and
    the factorization is computed on first use and then kept.
    """

    __slots__ = ("rows", "cols", "_entries", "_factorization")

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

    def _fill(self, rows: int, cols: int, entries: Sequence[Mapping[int, RationalLike]]) -> None:
        if rows < 0 or cols < 0:
            raise ValidationError("matrix dimensions must be non-negative")
        if len(entries) != rows or any(not 0 <= j < cols for row in entries for j in row):
            raise ValidationError("matrix entries do not match the declared shape")
        self.rows = rows
        self.cols = cols
        self._entries = [{j: _frac(x) for j, x in row.items() if x} for row in entries]
        self._factorization: Factorization | None = None

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
        return [[row.get(j, _ZERO) for j in range(self.cols)] for row in self._entries]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._entries == other._entries
        )

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"

    def mul_vector(self, x: Sequence[RationalLike]) -> list[Fraction]:
        if len(x) != self.cols:
            raise ValidationError("vector length does not match column count")
        return [sum((v * x[j] for j, v in row.items()), _ZERO) for row in self._entries]

    # -- elimination ----------------------------------------------------------

    def rref(self) -> tuple["RationalMatrix", tuple[int, ...]]:
        """Reduced row echelon form and the tuple of pivot columns.

        The first call runs the elimination; every other method reaches it
        through here, so a wrapper around ``rref`` (as in perfbench's tracer)
        sees each elimination once.
        """
        f = self._factorization
        if f is None:
            f = self._factorization = _eliminate(self.rows, self.cols, self._entries)
        # the rows are clean (in range, non-zero Fractions), so they are not re-checked
        view = RationalMatrix.__new__(RationalMatrix)
        view.rows, view.cols, view._factorization = self.rows, self.cols, None
        view._entries = [{p: _ONE, **f.tails[p]} for p in f.pivots]
        view._entries += [{} for _ in range(self.rows - len(f.pivots))]
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

        ``factorization().kernel()`` gives the same vectors sparsely.
        """
        return [self._dense(v) for v in self.factorization().kernel()]

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
