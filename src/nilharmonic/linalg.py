"""Exact sparse linear algebra over the rationals.

A matrix keeps its rows as dicts from column index to non-zero ``Fraction``.
One elimination serves every question asked of it: a leftmost-pivot
Gauss-Jordan that inserts the rows one at a time, reduces each against the
pivot rows found so far and, when a new pivot appears, clears that column
from the earlier pivot rows.  It yields a ``Factorization``: the pivot
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
    """Leftmost-pivot Gauss-Jordan on sparse rows; the only elimination here."""
    tails: dict[int, SparseVector] = {}
    steps: list[_Step] = []
    for source in entries:
        row = dict(source)
        eliminated = []
        for p in [c for c in row if c in tails]:
            f = row.pop(p)
            get = row.get
            for c, v in tails[p].items():
                x = get(c, _ZERO) - f * v
                if x:
                    row[c] = x
                else:
                    del row[c]
            eliminated.append((p, f))
        if not row:
            steps.append((tuple(eliminated), None, None, ()))
            continue
        pivot = min(row)
        lead = row.pop(pivot)
        scale = None
        if lead != 1:
            scale = 1 / lead
            row = {c: v * scale for c, v in row.items()}
        cleared = []
        for q, tail in tails.items():
            g = tail.pop(pivot, None)
            if g is None:
                continue
            get = tail.get
            for c, v in row.items():
                x = get(c, _ZERO) - g * v
                if x:
                    tail[c] = x
                else:
                    del tail[c]
            cleared.append((q, g))
        tails[pivot] = row
        steps.append((tuple(eliminated), pivot, scale, tuple(cleared)))
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
        reduced = [{p: _ONE, **f.tails[p]} for p in f.pivots]
        reduced += [{}] * (self.rows - len(reduced))
        return RationalMatrix.from_sparse(self.rows, self.cols, reduced), f.pivots

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
