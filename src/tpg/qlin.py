"""Exact linear algebra over the rationals.

Vectors and dense matrices with fractions.Fraction entries, reduced
row-echelon form, kernels, eigenspaces and an exact positive
semidefiniteness test.  Python's Fraction already keeps every value in
lowest terms with a positive denominator and arbitrary-precision
integer parts, so it serves directly as the scalar type.  The
constructors keep entries that already are Fractions as they are.
Row reduction runs fraction-free on integer rows and builds Fractions
only for its result, since every Fraction operation pays for a gcd.  That
one elimination (echelon) and the integer kernel basis read from it
(null_basis) are public, for callers whose rows are integers already.

Rationals serialize as "p/q" with the "/q" omitted when q == 1.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

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


def integer_rows(rows) -> list[list[int]]:
    """Each row of Fractions times the lcm of its denominators."""
    out = []
    for row in rows:
        d = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (d // x.denominator) for x in row])
    return out


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
    def zero(cls, n: int) -> "Vector":
        return cls([ZERO] * n)

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

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

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

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, cols: Sequence[Vector]) -> "Matrix":
        n = len(cols[0])
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(n)])

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = list(zip(*other.rows))
        return Matrix(
            [sum((a * b for a, b in zip(r, c)), ZERO) for c in cols]
            for r in self.rows
        )

    def apply(self, v: Vector) -> Vector:
        if self.ncols != len(v):
            raise ValueError("shape mismatch")
        return Vector(sum((a * b for a, b in zip(r, v)), ZERO) for r in self.rows)

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self.rows))

    def is_symmetric(self) -> bool:
        return self.nrows == self.ncols and all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows)
            for j in range(i)
        )

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row-echelon form and the tuple of pivot columns.

        Pivots are chosen as the first nonzero entry scanning columns
        left to right, so the result is deterministic.  Each row is scaled
        to integers by the lcm of its denominators and reduced by echelon;
        each pivot row is divided by its pivot once, at the end.  The
        reduced row-echelon form is unique, so this equals Gauss-Jordan
        over the rationals.
        """
        rows = integer_rows(self.rows)
        pivots = echelon(rows)
        out = [[Fraction(x, row[c]) if x else ZERO for x in row]
               for row, c in zip(rows, pivots)]
        out += [[ZERO] * self.ncols for _ in range(self.nrows - len(pivots))]
        return Matrix(out), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> list[Vector]:
        """Basis of the null space, one vector per free column.

        Basis vectors are ordered by their free column and have a 1 in
        that coordinate, so the basis is canonical for a given matrix.
        """
        return [Vector(Fraction(x, v[fc]) for x in v)
                for fc, v in null_basis(integer_rows(self.rows), self.ncols)]

    def eigenspace(self, lam) -> list[Vector]:
        """Kernel basis of (M - lam*I); empty list when lam is not an eigenvalue."""
        if self.nrows != self.ncols:
            raise ValueError("eigenspace of a non-square matrix")
        lam = Fraction(lam)
        shifted = Matrix(
            [
                [x - lam if i == j else x for j, x in enumerate(row)]
                for i, row in enumerate(self.rows)
            ]
        )
        return shifted.kernel()

    def solve(self, rhs: Vector) -> Vector | None:
        """One exact solution of M x = rhs, or None if inconsistent."""
        aug = Matrix([list(r) + [rhs[i]] for i, r in enumerate(self.rows)])
        R, pivots = aug.rref()
        if self.ncols in pivots:
            return None
        x = [ZERO] * self.ncols
        for r, pc in enumerate(pivots):
            x[pc] = R.rows[r][self.ncols]
        return Vector(x)

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


def span_contains(basis: Sequence[Vector], v: Vector) -> bool:
    """Exact membership of v in the span of basis (empty basis spans 0)."""
    if not basis:
        return v.is_zero()
    M = Matrix.from_columns(list(basis))
    return M.solve(v) is not None
