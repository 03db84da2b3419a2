"""Exact linear algebra over the rationals.

Vectors and dense matrices with fractions.Fraction entries, an integer
row reduction with the kernel basis read from it, and an exact positive
semidefiniteness test.  Python's Fraction already keeps every value in
lowest terms with a positive denominator and arbitrary-precision
integer parts, so it serves directly as the scalar type.  The
constructors keep entries that already are Fractions as they are.
Row reduction (echelon) runs fraction-free on integer rows, since every
Fraction operation pays for a gcd, and null_basis reads an integer kernel
basis from it.

Rationals serialize as "p/q" with the "/q" omitted when q == 1.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rat_str(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rat(s: str) -> Fraction:
    """Parse rat_str's form, -?digits(/digits)? with a nonzero denominator;
    anything else, exponents and nan among them, is a ValueError."""
    match = isinstance(s, str) and _RATIONAL.fullmatch(s)
    den = int(match[2] or 1) if match else 0
    if not den:
        raise ValueError(f"malformed rational {s!r}")
    return Fraction(int(match[1]), den)


def echelon(rows: list[list[int]]) -> list[int]:
    """Fraction-free Gauss-Jordan (Bareiss 1968) on integer rows, in place.

    Returns the pivot columns, chosen left to right.  A pivot p at (r, c)
    clears column c of every other row i by row_i <- p*row_i - row_i[c]*row_r,
    and each new row is divided by the gcd of its entries.  Afterwards row r
    is a nonzero multiple of row r of the reduced row-echelon form, for r
    below the rank, and the rows below the rank are zero.
    """
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f:
                new = [p * x - f * y for x, y in zip(rows[i], prow)]
                g = gcd(*new)
                rows[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
    return pivots


def null_basis(rows: list[list[int]], ncols: int) -> list[tuple[int, list[int]]]:
    """(free column, primitive integer vector) for each free column, in order.

    Each vector spans the same line as the Fraction kernel vector with a 1
    in its free column, and is positive there.  Reduces rows in place.
    """
    pivots = echelon(rows)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        entries = [(pc, row[pc], row[fc]) for row, pc in zip(rows, pivots) if row[fc]]
        scale = lcm(*(p for _, p, _ in entries))  # positive, 1 for none
        v = [0] * ncols
        v[fc] = scale
        for pc, p, f in entries:
            v[pc] = -f * (scale // p)
        g = gcd(*v)
        basis.append((fc, [x // g for x in v] if g > 1 else v))
    return basis


class Vector:
    """Immutable rational vector."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable):
        self.coords = tuple(c if type(c) is Fraction else Fraction(c) for c in coords)

    @classmethod
    def unit(cls, n: int, i: int) -> "Vector":
        c = [ZERO] * n
        c[i] = ONE
        return cls(c)

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)

    def __eq__(self, other):
        return isinstance(other, Vector) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __add__(self, other: "Vector") -> "Vector":
        if len(self) != len(other):
            raise ValueError("dimension mismatch")
        return Vector(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other: "Vector") -> "Vector":
        if len(self) != len(other):
            raise ValueError("dimension mismatch")
        return Vector(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self) -> "Vector":
        return Vector(-a for a in self.coords)

    def __mul__(self, scalar) -> "Vector":
        s = Fraction(scalar)
        return Vector(a * s for a in self.coords)

    __rmul__ = __mul__

    def dot(self, other: "Vector") -> Fraction:
        if len(self) != len(other):
            raise ValueError("dimension mismatch")
        return sum((a * b for a, b in zip(self.coords, other.coords)), ZERO)

    def __repr__(self):
        return "Vector([%s])" % ", ".join(rat_str(c) for c in self.coords)


class Matrix:
    """Immutable dense rational matrix."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable]):
        self.rows = tuple(
            tuple(x if type(x) is Fraction else Fraction(x) for x in r) for r in rows
        )
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged rows")

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def apply(self, v: Vector) -> Vector:
        if self.ncols != len(v):
            raise ValueError("shape mismatch")
        return Vector(sum((a * b for a, b in zip(r, v)), ZERO) for r in self.rows)

    def is_symmetric(self) -> bool:
        return self.nrows == self.ncols and all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows)
            for j in range(i)
        )

    def is_psd(self) -> bool:
        """Exact test for x^T M x >= 0 over all rational x.

        Symmetric elimination: a negative diagonal pivot refutes, a zero
        diagonal entry forces its whole row to vanish (else an
        indefinite 2x2 block exists), and positive pivots reduce to the
        Schur complement.  No numerics involved.
        """
        if not self.is_symmetric():
            raise ValueError("is_psd requires a symmetric matrix")
        a = [list(r) for r in self.rows]
        idx = list(range(self.nrows))
        while idx:
            # prefer a strictly positive pivot; zero diagonals must have
            # zero rows, which we peel off
            k = None
            for i in idx:
                if a[i][i] > 0:
                    k = i
                    break
            if k is None:
                # all remaining diagonal entries are <= 0
                for i in idx:
                    if a[i][i] < 0:
                        return False
                    if any(a[i][j] != 0 for j in idx):
                        return False
                return True
            d = a[k][k]
            idx.remove(k)
            for i in idx:
                if a[i][k] == 0:
                    continue
                f = a[i][k] / d
                for j in idx:
                    a[i][j] -= f * a[k][j]
        return True

    def __repr__(self):
        body = "; ".join(
            " ".join(rat_str(x) for x in r) for r in self.rows
        )
        return f"Matrix[{body}]"

