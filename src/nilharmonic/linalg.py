"""Exact dense linear algebra over the rationals.

Plain Gauss-Jordan elimination with leftmost-pivot order, producing the
unique reduced row echelon form.  Kernel bases use the canonical
free-variable parameterization (each free variable set to 1 in turn, in
ascending column order), so outputs are deterministic and portable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ValidationError

RationalLike = Fraction | int


def _frac(x: RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class Inconsistent:
    """Witness that a linear system has no solution.

    ``row`` indexes the row of the reduced augmented system whose equation
    reads 0 = 1.
    """

    row: int


class RationalMatrix:
    """Dense matrix with exact rational entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, entries: Iterable[Iterable[RationalLike]]):
        if rows < 0 or cols < 0:
            raise ValidationError("matrix dimensions must be non-negative")
        data = [[_frac(x) for x in row] for row in entries]
        if len(data) != rows or any(len(row) != cols for row in data):
            raise ValidationError("matrix entries do not match the declared shape")
        self.rows = rows
        self.cols = cols
        self.data = data

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
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"

    def mul_vector(self, x: Sequence[RationalLike]) -> list[Fraction]:
        if len(x) != self.cols:
            raise ValidationError("vector length does not match column count")
        out = []
        for row in self.data:
            acc = Fraction(0)
            for a, b in zip(row, x):
                if a and b:
                    acc += a * b
            out.append(acc)
        return out

    # -- elimination ----------------------------------------------------------

    def rref(self) -> tuple["RationalMatrix", tuple[int, ...]]:
        """Reduced row echelon form and the tuple of pivot columns."""
        m = [row[:] for row in self.data]
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            piv = None
            for i in range(r, self.rows):
                if m[i][c]:
                    piv = i
                    break
            if piv is None:
                continue
            if piv != r:
                m[r], m[piv] = m[piv], m[r]
            prow = m[r]
            if prow[c] != 1:
                scale = Fraction(1) / prow[c]
                for j in range(c, self.cols):
                    if prow[j]:
                        prow[j] *= scale
            for i in range(self.rows):
                if i == r:
                    continue
                f = m[i][c]
                if f:
                    row = m[i]
                    for j in range(c, self.cols):
                        v = prow[j]
                        if v:
                            row[j] -= f * v
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return RationalMatrix(self.rows, self.cols, m), tuple(pivots)

    @property
    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> list[list[Fraction]]:
        """Basis of the right null space, one vector per free column."""
        reduced, pivots = self.rref()
        pivot_set = set(pivots)
        basis = []
        for fc in range(self.cols):
            if fc in pivot_set:
                continue
            v = [Fraction(0)] * self.cols
            v[fc] = Fraction(1)
            for ri, pc in enumerate(pivots):
                v[pc] = -reduced.data[ri][fc]
            basis.append(v)
        return basis

    def solve(self, b: Sequence[RationalLike]) -> list[Fraction] | Inconsistent:
        """A particular solution of A x = b with all free variables 0.

        Inconsistency is reported as a value, not raised.
        """
        if len(b) != self.rows:
            raise ValidationError("right-hand side length does not match row count")
        aug = RationalMatrix(
            self.rows,
            self.cols + 1,
            [row + [bi] for row, bi in zip(self.data, b)],
        )
        reduced, pivots = aug.rref()
        if pivots and pivots[-1] == self.cols:
            return Inconsistent(row=len(pivots) - 1)
        x = [Fraction(0)] * self.cols
        for ri, pc in enumerate(pivots):
            x[pc] = reduced.data[ri][self.cols]
        return x
