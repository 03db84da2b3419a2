from fractions import Fraction
from itertools import permutations
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from tpg import qlin
from tpg.qlin import ONE, ZERO, Vector, echelon, null_basis, parse_rat, rat_str

F = Fraction


def zero(n: int) -> Vector:
    return Vector([ZERO] * n)


def is_zero(v: Vector) -> bool:
    return all(c == 0 for c in v.coords)


def integer_rows(rows) -> list[list[int]]:
    """Each row of Fractions times the lcm of its denominators."""
    out = []
    for row in rows:
        d = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (d // x.denominator) for x in row])
    return out


class Matrix(qlin.Matrix):
    """qlin.Matrix with the operations only tests use: products, the reduced
    row-echelon form, kernels, eigenspaces and solutions, all read from
    qlin.echelon and qlin.null_basis."""

    __slots__ = ()

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, cols) -> "Matrix":
        n = len(cols[0])
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(n)])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = list(zip(*other.rows))
        return Matrix(
            [sum((a * b for a, b in zip(r, c)), ZERO) for c in cols]
            for r in self.rows
        )

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self.rows))

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


def span_contains(basis, v: Vector) -> bool:
    """Exact membership of v in the span of basis (empty basis spans 0)."""
    if not basis:
        return is_zero(v)
    M = Matrix.from_columns(list(basis))
    return M.solve(v) is not None


def test_rat_str_roundtrip():
    assert rat_str(F(3, 8)) == "3/8"
    assert rat_str(F(-5, 1)) == "-5"
    assert rat_str(F(0)) == "0"
    assert parse_rat("3/8") == F(3, 8)
    assert parse_rat("-5") == F(-5)


@pytest.mark.parametrize("text", [
    "1/0", "-3/0", "1e999999999", "1e5", "nan", "inf", "-inf", " 1", "1/-2",
    "--1", "1.5", "", None])
def test_parse_rat_accepts_only_integer_ratios(text):
    with pytest.raises(ValueError):
        parse_rat(text)


rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=64
)


@given(rationals)
def test_rat_str_parse_inverse(q):
    assert parse_rat(rat_str(q)) == q


def test_vector_arithmetic():
    u = Vector([1, F(1, 2), 0])
    v = Vector([0, F(1, 2), -1])
    assert u + v == Vector([1, 1, -1])
    assert u - v == Vector([1, 0, 1])
    assert 2 * u == Vector([2, 1, 0])
    assert u.dot(v) == F(1, 4)
    assert (-u).dot(u) == -u.dot(u)
    assert is_zero(zero(3))
    assert Vector.unit(3, 1) == Vector([0, 1, 0])


def test_matrix_product_and_apply():
    A = Matrix([[1, 2], [3, 4]])
    B = Matrix([[0, 1], [1, 0]])
    assert A @ B == Matrix([[2, 1], [4, 3]])
    assert A.apply(Vector([1, 1])) == Vector([3, 7])
    assert A.transpose() == Matrix([[1, 3], [2, 4]])
    assert Matrix.identity(2) @ A == A


def test_rref_pivots():
    M = Matrix([[0, 1, 2], [0, 2, 4], [1, 0, 1]])
    R, pivots = M.rref()
    assert pivots == (0, 1)
    assert R == Matrix([[1, 0, 1], [0, 1, 2], [0, 0, 0]])
    assert M.rank() == 2


def test_kernel_canonical_basis():
    M = Matrix([[1, 0, 1], [0, 1, 2]])
    (k,) = M.kernel()
    assert k == Vector([-1, -2, 1])
    assert is_zero(M.apply(k))
    assert Matrix.identity(3).kernel() == []


def test_solve():
    A = Matrix([[1, 2], [3, 4]])
    x = A.solve(Vector([5, 11]))
    assert A.apply(x) == Vector([5, 11])
    # inconsistent system
    B = Matrix([[1, 1], [1, 1]])
    assert B.solve(Vector([0, 1])) is None


def brute_force_det(M: Matrix) -> Fraction:
    """Leibniz expansion: the signed sum over all permutations of the columns."""
    total = F(0)
    for perm in permutations(range(M.nrows)):
        inversions = sum(1 for i in range(len(perm)) for j in range(i) if perm[j] > perm[i])
        term = F(-1) ** inversions
        for i, j in enumerate(perm):
            term *= M[i, j]
        total += term
    return total


# Adjoint of the first axis in the two-axis algebra with a third axis
# tied to the product: basis (a0, a1, ar), a0*a0 = a0,
# a0*a1 = (a0 + a1 - ar)/8, a0*ar = (a0 + ar - a1)/8.
AD_A0_2A = Matrix(
    [
        [1, F(1, 8), F(1, 8)],
        [0, F(1, 8), -F(1, 8)],
        [0, -F(1, 8), F(1, 8)],
    ]
)

GRAM_2A = Matrix(
    [
        [1, F(1, 8), F(1, 8)],
        [F(1, 8), 1, F(1, 8)],
        [F(1, 8), F(1, 8), 1],
    ]
)


def test_adjoint_eigenspaces_dihedral_2a():
    # eigenvalues of ad(a0) on the 3-dim algebra: 1, 1/4, 0
    one = AD_A0_2A.eigenspace(1)
    quarter = AD_A0_2A.eigenspace(F(1, 4))
    zero = AD_A0_2A.eigenspace(0)
    assert len(one) == 1 and len(quarter) == 1 and len(zero) == 1
    assert span_contains(quarter, Vector([0, 1, -1]))
    assert span_contains(zero, Vector([-F(1, 4), 1, 1]))
    assert AD_A0_2A.eigenspace(F(1, 32)) == []
    assert AD_A0_2A.eigenspace(F(1, 2)) == []


def test_gram_2a_psd():
    assert GRAM_2A.is_psd()
    assert brute_force_det(GRAM_2A) == F(490, 512)


def test_is_psd_counterexamples():
    assert not Matrix([[-1]]).is_psd()
    assert Matrix([[0]]).is_psd()
    # zero diagonal with nonzero off-diagonal is indefinite
    assert not Matrix([[0, 1], [1, 0]]).is_psd()
    assert not Matrix([[1, 2], [2, 1]]).is_psd()
    assert Matrix([[1, 1], [1, 1]]).is_psd()
    assert Matrix([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]).is_psd()
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3, 4]]).is_psd()


def test_span_contains():
    basis = [Vector([1, 0, 1]), Vector([0, 1, 0])]
    assert span_contains(basis, Vector([2, 3, 2]))
    assert not span_contains(basis, Vector([1, 0, 0]))
    assert span_contains([], Vector([0, 0]))
    assert not span_contains([], Vector([1, 0]))


small_vecs = st.lists(rationals, min_size=3, max_size=3)


@given(st.lists(small_vecs, min_size=2, max_size=4))
def test_kernel_vectors_annihilate(rows):
    M = Matrix(rows)
    for v in M.kernel():
        assert is_zero(M.apply(v))
    assert len(M.kernel()) == M.ncols - M.rank()


@given(st.lists(small_vecs, min_size=3, max_size=3))
def test_gram_matrices_are_psd(rows):
    A = Matrix(rows)
    G = A.transpose() @ A
    assert G.is_psd()


@given(st.lists(small_vecs, min_size=3, max_size=3), small_vecs)
def test_psd_definition_spot_check(rows, xs):
    # is_psd agrees with the quadratic form on a sampled witness
    A = Matrix(rows)
    G = A.transpose() @ A
    x = Vector(xs)
    assert x.dot(G.apply(x)) >= 0


@given(st.lists(small_vecs, min_size=3, max_size=3))
def test_rref_idempotent(rows):
    M = Matrix(rows)
    R, pivots = M.rref()
    R2, pivots2 = R.rref()
    assert R == R2 and pivots == pivots2


def gauss_jordan(rows):
    """Reference RREF: Gauss-Jordan on Fractions, normalising each pivot row as it is chosen."""
    rows = [[F(x) for x in r] for r in rows]
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, tuple(pivots)


@st.composite
def rational_matrices(draw):
    """Matrices up to 8 x 9 with zero rows, zero columns and dependent rows."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 9))
    entry = st.one_of(st.just(F(0)), rationals)
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    for j in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        for row in rows:
            row[j] = F(0)
    for i in draw(st.sets(st.integers(0, m - 1), max_size=m)):
        k, l = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        a, b = draw(rationals), draw(rationals)
        rows[i] = [a * x + b * y for x, y in zip(rows[k], rows[l])]
    return rows


@given(rational_matrices())
def test_rref_matches_gauss_jordan(rows):
    R, pivots = Matrix(rows).rref()
    want, want_pivots = gauss_jordan(rows)
    assert pivots == want_pivots
    assert R == Matrix(want)
    assert all(type(x) is Fraction for row in R.rows for x in row)


@given(rational_matrices(), st.data())
def test_kernel_and_solve_match_gauss_jordan(rows, data):
    # all three go through the one integer elimination, echelon; the
    # references read the Fraction Gauss-Jordan form above
    M = Matrix(rows)
    R, pivots = gauss_jordan(rows)
    free = [c for c in range(M.ncols) if c not in pivots]
    want = []
    for fc in free:
        v = [F(0)] * M.ncols
        v[fc] = F(1)
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        want.append(Vector(v))
    assert M.kernel() == want
    rhs = [data.draw(st.one_of(st.just(F(0)), rationals)) for _ in range(M.nrows)]
    A, apivots = gauss_jordan([row + [b] for row, b in zip(rows, rhs)])
    if M.ncols in apivots:
        assert M.solve(Vector(rhs)) is None
    else:
        x = [F(0)] * M.ncols
        for r, pc in enumerate(apivots):
            x[pc] = A[r][M.ncols]
        assert M.solve(Vector(rhs)) == Vector(x)


@given(rational_matrices())
def test_null_basis_is_primitive(rows):
    # each integer vector is the Fraction kernel vector times its free
    # coordinate, which is positive, and its entries have gcd 1
    M = Matrix(rows)
    basis = null_basis(integer_rows(M.rows), M.ncols)
    assert len(basis) == len(M.kernel())
    for (fc, v), k in zip(basis, M.kernel()):
        assert v[fc] > 0 and gcd(*v) == 1
        assert Vector(v) == k * v[fc]


def test_rref_edge_shapes():
    assert Matrix([[0, 0], [0, 0]]).rref() == (Matrix([[0, 0], [0, 0]]), ())
    assert Matrix([[F(-2, 3), 4]]).rref() == (Matrix([[1, -6]]), (0,))
    assert Matrix([[0, F(1, 3)], [0, F(1, 2)], [5, 0]]).rref() == (
        Matrix([[1, 0], [0, 1], [0, 0]]), (0, 1))
