"""Exact dense linear algebra over Q.

Entries are Fractions, or ints where a caller's rows are integral.  rref
works in integers throughout: each row is cleared to integers, forward
elimination is fraction-free (Bareiss), and the back-substitution runs on
the integer echelon rows, each divided by its gcd after every step so that
coefficient growth stays polynomial.  Fractions appear only in the result,
one per nonzero entry (every zero entry is one shared Fraction(0)).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import DimensionMismatch


class RatMatrix:
    """A rows x cols matrix, its entries a row-major tuple.  A value: equal
    matrices hash alike, and nothing mutates one after construction."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[Fraction | int, ...]):
        if len(entries) != rows * cols:
            raise DimensionMismatch(f"{rows}x{cols} matrix needs {rows * cols} entries")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    def __eq__(self, other: object) -> bool:
        if type(other) is not RatMatrix:
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"RatMatrix(rows={self.rows!r}, cols={self.cols!r}, entries={self.entries!r})"

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Fraction | int]]) -> "RatMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat: list[Fraction] = []
        for row in rows:
            if len(row) != c:
                raise DimensionMismatch("ragged rows")
            flat.extend(Fraction(x) for x in row)
        return RatMatrix(r, c, tuple(flat))

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]


def _int_rows(m: RatMatrix) -> list[list[int]]:
    out = []
    for i in range(m.rows):
        row = m.row(i)
        den = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (den // x.denominator) for x in row])
    return out


def _primitive_row(row: list[int]) -> tuple[int, ...]:
    """The row divided by its gcd, signed so its first nonzero entry is positive."""
    g = gcd(*row)
    if next(x for x in row if x) < 0:
        g = -g
    return tuple(x // g for x in row)


def rref(m: RatMatrix) -> tuple[RatMatrix, list[int], int]:
    """Reduced row echelon form; returns (rref, pivot columns, rank)."""
    rows = _int_rows(m)
    nr, nc = m.rows, m.cols
    pivots: list[int] = []
    prev_pivot = 1
    r = 0
    for c in range(nc):
        piv = None
        for i in range(r, nr):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        for i in range(r + 1, nr):
            xi = rows[i][c]
            # Bareiss step: exact integer division by the previous pivot
            rows[i] = [
                (pv * rows[i][j] - xi * rows[r][j]) // prev_pivot for j in range(nc)
            ]
        prev_pivot = pv
        pivots.append(c)
        r += 1
        if r == nr:
            break
    rank = len(pivots)

    # Back-substitution on the integer echelon rows, each kept primitive;
    # a row is divided by its pivot only when the Fractions are built.
    echelon = [_primitive_row(rows[i]) for i in range(rank)]
    for i in range(rank - 1, -1, -1):
        c = pivots[i]
        below = echelon[i]
        pv = below[c]
        for k in range(i):
            f = echelon[k][c]
            if f:
                echelon[k] = _primitive_row([pv * a - f * b for a, b in zip(echelon[k], below)])
    zero = Fraction(0)
    flat: list[Fraction] = []
    for row, c in zip(echelon, pivots):
        pv = row[c]
        flat.extend(Fraction(x, pv) if x else zero for x in row)
    flat.extend([zero] * (nc * (nr - rank)))
    return RatMatrix(nr, nc, tuple(flat)), pivots, rank


def kernel_basis(m: RatMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space; empty when the rank equals cols.

    The kernel depends only on the row space, so the elimination sees each
    distinct primitive row once, in sorted order; zero rows are dropped.
    """
    rows = sorted({_primitive_row(r) for r in _int_rows(m) if any(r)})
    red, pivots, rank = rref(RatMatrix(len(rows), m.cols, tuple(x for r in rows for x in r)))
    free = [c for c in range(m.cols) if c not in pivots]
    basis: list[tuple[Fraction, ...]] = []
    for fc in free:
        v = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red.at(i, fc)
        basis.append(tuple(v))
    return basis


def solve(m: RatMatrix, rhs: Sequence[Fraction | int]) -> tuple[Fraction, ...] | None:
    """One exact solution of m x = rhs, free variables set to zero.

    Returns None when the system is inconsistent.  Public API for library
    callers that express one vector through others, such as one index's
    decomposition through a family of them; the package's own pipelines
    need only kernels (:func:`kernel_basis`).
    """
    if len(rhs) != m.rows:
        raise DimensionMismatch(f"rhs length {len(rhs)} != rows {m.rows}")
    aug = RatMatrix.from_rows(
        [list(m.row(i)) + [Fraction(rhs[i])] for i in range(m.rows)]
    )
    red, pivots, rank = rref(aug)
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for i, pc in enumerate(pivots):
        x[pc] = red.at(i, m.cols)
    return tuple(x)
