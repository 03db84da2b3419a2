"""Exact models of the nine dihedral (Norton-Sakuma) Majorana algebras.

Each algebra is built over Q from its tabulated structure constants: the
published products and inner products seed a table that is then closed under
the dihedral relabeling symmetries of the axis indices.  Any clash between a
seeded and a derived entry, or any product left undetermined by the closure,
aborts the construction.  The finished table must satisfy associativity of
the form (M1) before it is released to callers.

The axiom checks run on integer copies of the tables: the product table and
the Gram matrix scaled by their common denominators.  Each eigenspace is the
kernel of an integer matrix, reduced fraction-free by qlin.null_basis, so its
eigenvectors come out as integer vectors.  Positive scalings change no zero
test, and they scale both sides of every M1 comparison alike.  M1 compares
two n x n tables of Gram-transformed products.  The fusion and Miyamoto
checks share one pass over the unordered pairs u, v of an axis's eigenbasis
(mu, nu for their eigenvalues).  The adjoint is diagonalizable, so w = u*v
has one coordinate per eigenbasis vector, read off the inverse of the
eigenbasis matrix; the support of w is the set of eigenvalues with a nonzero
coordinate, held as a 4-bit mask, and each check asks whether that support
lies in an allowed set.  tau and sigma are linear and act on eigenvectors by
signs, and the product and form are bilinear, so checking them on eigenbasis
pairs is equivalent to checking them on basis pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul

from .qlin import Matrix, Vector, echelon, null_basis, parse_rat, rat_str

__all__ = [
    "DIHEDRAL_TYPES",
    "EIGENVALUES",
    "FUSION",
    "AxiomError",
    "ConstructionError",
    "DihedralAlgebra",
    "ad_spectrum",
    "axis_checks",
    "bilinear",
    "build",
    "check_fusion",
    "check_inclusion",
    "check_m1",
    "check_miyamoto",
    "from_dict",
    "inner",
    "product",
    "to_dict",
]

DIHEDRAL_TYPES = ("1A", "2A", "2B", "3A", "3C", "4A", "4B", "5A", "6A")

_ONE = Fraction(1)
_ZERO = Fraction(0)
_QUARTER = Fraction(1, 4)
_THIRTY_SECOND = Fraction(1, 32)

# Adjoint eigenvalues admitted by the Majorana axioms, in fusion-table order.
EIGENVALUES = (_ONE, _ZERO, _QUARTER, _THIRTY_SECOND)

# Fusion rules: products of mu- and nu-eigenvectors decompose into the listed
# eigenvalues.  Keys are unordered; see fusion_rule() for symmetric lookup.
FUSION = {
    (_ONE, _ONE): frozenset([_ONE]),
    (_ONE, _ZERO): frozenset(),
    (_ONE, _QUARTER): frozenset([_QUARTER]),
    (_ONE, _THIRTY_SECOND): frozenset([_THIRTY_SECOND]),
    (_ZERO, _ZERO): frozenset([_ZERO]),
    (_ZERO, _QUARTER): frozenset([_QUARTER]),
    (_ZERO, _THIRTY_SECOND): frozenset([_THIRTY_SECOND]),
    (_QUARTER, _QUARTER): frozenset([_ONE, _ZERO]),
    (_QUARTER, _THIRTY_SECOND): frozenset([_THIRTY_SECOND]),
    (_THIRTY_SECOND, _THIRTY_SECOND): frozenset([_ONE, _ZERO, _QUARTER]),
}


# Eigenvalue sets as 4-bit masks, bit k for EIGENVALUES[k].  An unordered
# pair of eigenvalues is the union of their bits, one bit for a pair mu, mu.
_BIT = {lam: 1 << k for k, lam in enumerate(EIGENVALUES)}
_FUSION_MASK = {_BIT[mu] | _BIT[nu]: sum(map(_BIT.get, lams)) for (mu, nu), lams in FUSION.items()}
_TINY_BIT = _BIT[_THIRTY_SECOND]
_QUARTER_BIT = _BIT[_QUARTER]
_VALUE = {bit: lam for lam, bit in _BIT.items()}  # in EIGENVALUES order


def fusion_rule(mu: Fraction, nu: Fraction) -> frozenset:
    try:
        return FUSION[(mu, nu)] if (mu, nu) in FUSION else FUSION[(nu, mu)]
    except KeyError:
        raise ValueError(f"not an admissible eigenvalue pair: ({mu}, {nu})") from None


class ConstructionError(ValueError):
    """The structure constants are inconsistent or do not determine the algebra."""


class AxiomError(ValueError):
    """A Majorana axiom fails on a concrete algebra element."""


# Basis labels in the published order.  Axis labels start with "a_"; the
# remaining labels are the extra basis vectors of the 3A, 4A, 5A, 6A algebras.
_BASES = {
    "1A": ("a_0",),
    "2A": ("a_0", "a_1", "a_rho"),
    "2B": ("a_0", "a_1"),
    "3A": ("a_-1", "a_0", "a_1", "u_rho"),
    "3C": ("a_-1", "a_0", "a_1"),
    "4A": ("a_-1", "a_0", "a_1", "a_2", "v_rho"),
    "4B": ("a_-1", "a_0", "a_1", "a_2", "a_rho2"),
    "5A": ("a_-2", "a_-1", "a_0", "a_1", "a_2", "w_rho"),
    "6A": ("a_-2", "a_-1", "a_0", "a_1", "a_2", "a_3", "a_rho3", "u_rho2"),
}

# Order of the rotation rho, i.e. the modulus of the axis indices.
_TYPE_N = {"1A": 1, "2A": 2, "2B": 2, "3A": 3, "3C": 3, "4A": 4, "4B": 4, "5A": 5, "6A": 6}


def is_axis(label: str) -> bool:
    return label.startswith("a_")


def _axis_label(t: str, i: int) -> str:
    # Reduce mod N into the published representative range for the type.
    n = _TYPE_N[t]
    lo = min(int(lab[2:]) for lab in _BASES[t] if lab[2:].lstrip("-").isdigit())
    return f"a_{(i - lo) % n + lo}"


def _frac(p, q=1) -> Fraction:
    return Fraction(p, q)


def _norm_coeffs(coeffs: dict) -> dict:
    return {lab: Fraction(c) for lab, c in coeffs.items() if c}


class _Table:
    """Product and inner-product entries indexed by unordered label pairs."""

    def __init__(self, t: str):
        self.type = t
        self.products: dict[tuple[str, str], dict] = {}
        self.inners: dict[tuple[str, str], Fraction] = {}

    @staticmethod
    def _key(x: str, y: str) -> tuple[str, str]:
        return (x, y) if x <= y else (y, x)

    def set_product(self, x: str, y: str, coeffs: dict):
        key = self._key(x, y)
        val = _norm_coeffs(coeffs)
        old = self.products.get(key)
        if old is not None and old != val:
            raise ConstructionError(f"{self.type}: conflicting products for {key}: {old} vs {val}")
        self.products[key] = val

    def set_inner(self, x: str, y: str, value):
        key = self._key(x, y)
        val = Fraction(value)
        old = self.inners.get(key)
        if old is not None and old != val:
            raise ConstructionError(f"{self.type}: conflicting inner products for {key}: {old} vs {val}")
        self.inners[key] = val


def _seed_table(t: str) -> _Table:
    tab = _Table(t)
    basis = _BASES[t]

    # Every axis is an idempotent of norm 1; the axes labelled by powers of
    # rho (2A, 4B, 6A) are axes in their own right.
    for lab in basis:
        if is_axis(lab):
            tab.set_product(lab, lab, {lab: 1})
            tab.set_inner(lab, lab, 1)

    f = _frac
    if t == "1A":
        pass
    elif t == "2A":
        tab.set_product("a_0", "a_1", {"a_0": f(1, 8), "a_1": f(1, 8), "a_rho": f(-1, 8)})
        tab.set_product("a_0", "a_rho", {"a_0": f(1, 8), "a_rho": f(1, 8), "a_1": f(-1, 8)})
        tab.set_inner("a_0", "a_1", f(1, 8))
        tab.set_inner("a_0", "a_rho", f(1, 8))
        tab.set_inner("a_1", "a_rho", f(1, 8))
    elif t == "2B":
        tab.set_product("a_0", "a_1", {})
        tab.set_inner("a_0", "a_1", 0)
    elif t == "3A":
        tab.set_product(
            "a_0", "a_1",
            {"a_0": f(1, 16), "a_1": f(1, 16), "a_-1": f(1, 32), "u_rho": f(-135, 2048)},
        )
        tab.set_product(
            "a_0", "u_rho",
            {"a_0": f(2, 9), "a_1": f(-1, 9), "a_-1": f(-1, 9), "u_rho": f(5, 32)},
        )
        tab.set_product("u_rho", "u_rho", {"u_rho": 1})
        tab.set_inner("a_0", "a_1", f(13, 256))
        tab.set_inner("a_0", "u_rho", f(1, 4))
        tab.set_inner("u_rho", "u_rho", f(8, 5))
    elif t == "3C":
        tab.set_product("a_0", "a_1", {"a_0": f(1, 64), "a_1": f(1, 64), "a_-1": f(-1, 64)})
        tab.set_inner("a_0", "a_1", f(1, 64))
    elif t == "4A":
        tab.set_product(
            "a_0", "a_1",
            {"a_0": f(3, 64), "a_1": f(3, 64), "a_2": f(1, 64), "a_-1": f(1, 64), "v_rho": f(-3, 64)},
        )
        tab.set_product(
            "a_0", "v_rho",
            {"a_0": f(5, 16), "a_1": f(-1, 8), "a_2": f(-1, 16), "a_-1": f(-1, 8), "v_rho": f(3, 16)},
        )
        tab.set_product("v_rho", "v_rho", {"v_rho": 1})
        tab.set_product("a_0", "a_2", {})
        tab.set_inner("a_0", "a_1", f(1, 32))
        tab.set_inner("a_0", "a_2", 0)
        tab.set_inner("a_0", "v_rho", f(3, 8))
        tab.set_inner("v_rho", "v_rho", 2)
    elif t == "4B":
        tab.set_product(
            "a_0", "a_1",
            {"a_0": f(1, 64), "a_1": f(1, 64), "a_-1": f(-1, 64), "a_2": f(-1, 64), "a_rho2": f(1, 64)},
        )
        tab.set_product("a_0", "a_2", {"a_0": f(1, 8), "a_2": f(1, 8), "a_rho2": f(-1, 8)})
        tab.set_inner("a_0", "a_1", f(1, 64))
        tab.set_inner("a_0", "a_2", f(1, 8))
        tab.set_inner("a_0", "a_rho2", f(1, 8))
        # Each pair (a_i, a_{i+2}) generates a 2A subalgebra whose third axis
        # is a_rho2; record those products for every index.
        for i in (-1, 0, 1, 2):
            ai, a2 = _axis_label(t, i), _axis_label(t, i + 2)
            tab.set_product(ai, "a_rho2", {ai: f(1, 8), "a_rho2": f(1, 8), a2: f(-1, 8)})
            tab.set_inner(ai, "a_rho2", f(1, 8))
    elif t == "5A":
        tab.set_product(
            "a_0", "a_1",
            {
                "a_0": f(3, 128), "a_1": f(3, 128),
                "a_2": f(-1, 128), "a_-1": f(-1, 128), "a_-2": f(-1, 128),
                "w_rho": 1,
            },
        )
        tab.set_product(
            "a_0", "a_2",
            {
                "a_0": f(3, 128), "a_2": f(3, 128),
                "a_1": f(-1, 128), "a_-1": f(-1, 128), "a_-2": f(-1, 128),
                "w_rho": -1,
            },
        )
        tab.set_product(
            "a_0", "w_rho",
            {
                "a_1": f(7, 4096), "a_-1": f(7, 4096),
                "a_2": f(-7, 4096), "a_-2": f(-7, 4096),
                "w_rho": f(7, 32),
            },
        )
        tab.set_product(
            "w_rho", "w_rho",
            {f"a_{i}": f(175, 524288) for i in (-2, -1, 0, 1, 2)},
        )
        tab.set_inner("a_0", "a_1", f(3, 128))
        tab.set_inner("a_0", "w_rho", 0)
        tab.set_inner("w_rho", "w_rho", f(875, 524288))
    elif t == "6A":
        tab.set_product(
            "a_0", "a_1",
            {
                "a_0": f(1, 64), "a_1": f(1, 64),
                "a_-2": f(-1, 64), "a_-1": f(-1, 64), "a_2": f(-1, 64), "a_3": f(-1, 64),
                "a_rho3": f(1, 64), "u_rho2": f(45, 2048),
            },
        )
        tab.set_product(
            "a_0", "a_2",
            {"a_0": f(1, 16), "a_2": f(1, 16), "a_-2": f(1, 32), "u_rho2": f(-135, 2048)},
        )
        tab.set_product("a_0", "a_3", {"a_0": f(1, 8), "a_3": f(1, 8), "a_rho3": f(-1, 8)})
        tab.set_product("a_rho3", "u_rho2", {})
        tab.set_product("u_rho2", "u_rho2", {"u_rho2": 1})
        tab.set_inner("a_0", "a_1", f(5, 256))
        tab.set_inner("a_0", "a_2", f(13, 256))
        tab.set_inner("a_0", "a_3", f(1, 8))
        tab.set_inner("a_rho3", "u_rho2", 0)
        tab.set_inner("u_rho2", "u_rho2", f(8, 5))
        # Subalgebra entries for every index: (a_i, a_{i+3}) generates a 2A
        # with third axis a_rho3, and (a_i, a_{i+2}) a 3A with extra vector
        # u_rho2.
        for i in (-2, -1, 0, 1, 2, 3):
            ai = _axis_label(t, i)
            a3 = _axis_label(t, i + 3)
            tab.set_product(ai, "a_rho3", {ai: f(1, 8), "a_rho3": f(1, 8), a3: f(-1, 8)})
            tab.set_inner(ai, "a_rho3", f(1, 8))
            ap, am = _axis_label(t, i + 2), _axis_label(t, i - 2)
            tab.set_product(
                ai, "u_rho2",
                {ai: f(2, 9), ap: f(-1, 9), am: f(-1, 9), "u_rho2": f(5, 32)},
            )
            tab.set_inner(ai, "u_rho2", f(1, 4))
    else:
        raise ValueError(f"unknown dihedral type: {t!r}")
    return tab


def _relabelings(t: str) -> list[dict[str, tuple[str, int]]]:
    """Signed basis permutations generating the relabeling symmetries.

    The index maps i -> i+2 (rotation), i -> -i and i -> 1-i (the two kinds of
    reflection) fix every extra vector.  The 5A algebra additionally carries
    the index-doubling map i -> 2i, under which w_rho changes sign: the vector
    attached to rho^2 is the negative of the one attached to rho.
    """
    basis = _BASES[t]

    def mk(index_map, w_sign: int = 1) -> dict[str, tuple[str, int]]:
        out = {}
        for lab in basis:
            if is_axis(lab) and lab[2:].lstrip("-").isdigit():
                out[lab] = (_axis_label(t, index_map(int(lab[2:]))), 1)
            elif lab == "w_rho":
                out[lab] = (lab, w_sign)
            else:
                out[lab] = (lab, 1)
        return out

    maps = [mk(lambda i: i + 2), mk(lambda i: -i), mk(lambda i: 1 - i)]
    if t == "5A":
        maps.append(mk(lambda i: 2 * i, w_sign=-1))
    return maps


def _map_coeffs(m: dict, coeffs: dict) -> dict:
    out: dict[str, Fraction] = {}
    for lab, c in coeffs.items():
        lab2, s = m[lab]
        out[lab2] = out.get(lab2, _ZERO) + s * c
    return _norm_coeffs(out)


def _complete_table(t: str, tab: _Table):
    """Close the seeded table under the relabeling maps, then demand totality."""
    maps = _relabelings(t)
    changed = True
    while changed:
        changed = False
        for m in maps:
            for (x, y), val in list(tab.products.items()):
                x2, sx = m[x]
                y2, sy = m[y]
                key = _Table._key(x2, y2)
                image = _map_coeffs(m, val)
                if sx * sy < 0:
                    image = {lab: -c for lab, c in image.items()}
                if key not in tab.products:
                    changed = True
                tab.set_product(x2, y2, image)
            for (x, y), val in list(tab.inners.items()):
                x2, sx = m[x]
                y2, sy = m[y]
                key = _Table._key(x2, y2)
                if key not in tab.inners:
                    changed = True
                tab.set_inner(x2, y2, sx * sy * val)
    basis = _BASES[t]
    missing = [
        (x, y)
        for i, x in enumerate(basis)
        for y in basis[i:]
        if _Table._key(x, y) not in tab.products or _Table._key(x, y) not in tab.inners
    ]
    if missing:
        raise ConstructionError(f"{t}: entries left undetermined by symmetry closure: {missing}")


@dataclass(frozen=True)
class DihedralAlgebra:
    """A dihedral Majorana algebra with exact rational structure constants."""

    type: str
    basis: tuple[str, ...]
    mult: tuple[tuple[Vector, ...], ...]
    gram: Matrix

    @property
    def dim(self) -> int:
        return len(self.basis)

    def index(self, label: str) -> int:
        try:
            return self.basis.index(label)
        except ValueError:
            raise ValueError(f"no basis vector {label!r} in a {self.type} algebra") from None

    def basis_vector(self, label: str) -> Vector:
        return Vector.unit(self.dim, self.index(label))

    @property
    def axes(self) -> tuple[str, ...]:
        return tuple(lab for lab in self.basis if is_axis(lab))


@lru_cache(maxsize=None)
def build(t: str) -> DihedralAlgebra:
    """Construct the dihedral algebra of the given type from its seed table."""
    if t not in DIHEDRAL_TYPES:
        raise ValueError(f"unknown dihedral type: {t!r}")
    tab = _seed_table(t)
    _complete_table(t, tab)
    basis = _BASES[t]
    n = len(basis)
    pos = {lab: i for i, lab in enumerate(basis)}

    def vec(coeffs: dict) -> Vector:
        coords = [_ZERO] * n
        for lab, c in coeffs.items():
            coords[pos[lab]] = c
        return Vector(coords)

    mult = tuple(
        tuple(vec(tab.products[_Table._key(x, y)]) for y in basis) for x in basis
    )
    gram = Matrix([[tab.inners[_Table._key(x, y)] for y in basis] for x in basis])
    alg = DihedralAlgebra(type=t, basis=basis, mult=mult, gram=gram)
    violations = check_m1(alg)
    if violations:
        raise ConstructionError(f"{t}: completed table fails M1: {violations[0]}")
    return alg


def _accumulate(mult, u, v) -> list:
    """The coordinates of sum_ij u_i v_j mult[i][j], on Fractions or integers alike."""
    acc = [0] * len(mult)
    right = [(j, c) for j, c in enumerate(v) if c]
    for i, ci in enumerate(u):
        if not ci:
            continue
        row = mult[i]
        for j, cj in right:
            c = ci * cj
            for k, x in enumerate(row[j]):
                if x:
                    acc[k] += c * x
    return acc


def bilinear(mult, u: Vector, v: Vector) -> Vector:
    """The product sum_ij u_i v_j mult[i][j] of a table of basis products."""
    return Vector(_accumulate(mult, u, v))


def product(alg: DihedralAlgebra, u: Vector, v: Vector) -> Vector:
    if len(u) != alg.dim or len(v) != alg.dim:
        raise ValueError(f"vectors must have dimension {alg.dim}")
    return bilinear(alg.mult, u, v)


def inner(alg: DihedralAlgebra, u: Vector, v: Vector) -> Fraction:
    if len(u) != alg.dim or len(v) != alg.dim:
        raise ValueError(f"vectors must have dimension {alg.dim}")
    return u.dot(alg.gram.apply(v))


def _eigenbases(alg: DihedralAlgebra, axis: str, mult, dm: int) -> list:
    """(eigenvalue, null_basis of q*dm*ad - p*dm*I) per eigenvalue p/q of ad(axis).

    mult is alg.mult times dm, as _integer_tables gives it.  Eigenvalues
    with no eigenvector are left out.  Raises AxiomError as ad_spectrum does.
    """
    if not is_axis(axis):
        raise ValueError(f"{axis!r} is not an axis label")
    i = alg.index(axis)
    n = alg.dim
    cols = mult[i]  # column j of dm * ad is the integer product axis * e_j
    spectrum = []
    for lam in EIGENVALUES:
        p, q = lam.numerator * dm, lam.denominator
        basis = null_basis(
            [[q * cols[j][r] - (p if j == r else 0) for j in range(n)] for r in range(n)], n)
        if basis:
            spectrum.append((lam, basis))
    if sum(len(basis) for _, basis in spectrum) != n:
        raise AxiomError(
            f"{alg.type}: adjoint of {axis} is not diagonalizable over eigenvalues 1, 0, 1/4, 1/32"
        )
    one = spectrum[0][1] if spectrum[0][0] == _ONE else []
    if len(one) != 1 or any(x for k, x in enumerate(one[0][1]) if k != i):
        raise AxiomError(f"{alg.type}: 1-eigenspace of {axis} is not spanned by the axis")
    return spectrum


def ad_spectrum(alg: DihedralAlgebra, axis: str) -> dict[Fraction, tuple[int, tuple[Vector, ...]]]:
    """Eigenvalue -> (multiplicity, eigenbasis) for the adjoint of an axis.

    Each eigenbasis is the one Matrix.eigenspace gives: ordered by free
    column, with a 1 there.  Raises AxiomError if the adjoint is not
    diagonalizable with spectrum inside {1, 0, 1/4, 1/32}, or if the
    1-eigenspace is not spanned by the axis itself.
    """
    mult, dm, _, _ = _integer_tables(alg)
    return {
        lam: (len(basis), tuple(Vector(Fraction(x, v[fc]) for x in v) for fc, v in basis))
        for lam, basis in _eigenbases(alg, axis, mult, dm)
    }


def _denominator(rows) -> int:
    """The least common denominator of the Fraction entries of rows."""
    return lcm(*(x.denominator for row in rows for x in row))


def _times(row, d: int) -> list[int]:
    """The Fraction entries of row times d, a multiple of their denominators."""
    return [x.numerator * (d // x.denominator) for x in row]


def _integer_tables(alg: DihedralAlgebra):
    """mult and gram scaled to integers by their common denominators dm and dg.

    Returns (mult, dm, gram, dg).  Products and forms computed on these
    tables are the rational ones times a positive constant, so their zero
    tests, and their comparisons with each other, are unchanged.
    """
    dm = _denominator(vec for row in alg.mult for vec in row)
    dg = _denominator(alg.gram.rows)
    mult = [[_times(vec, dm) for vec in row] for row in alg.mult]
    gram = [_times(row, dg) for row in alg.gram.rows]
    return mult, dm, gram, dg


def _apply(rows, v) -> list:
    """The matrix with these rows times the column v."""
    return [sum(map(mul, row, v)) for row in rows]


def axis_checks(alg: DihedralAlgebra, axis: str | None = None) -> tuple[list[str], list[str]]:
    """Fusion and Miyamoto violations for one axis (or all axes, in order).

    One pass per axis over the unordered pairs u, v of its eigenbasis, on
    integer copies of the tables and eigenvectors.  The rows of P^-1, for P
    with the eigenvectors as columns, give the eigen-coordinates of w = u*v;
    its support is the mask of eigenvalues with a nonzero coordinate.  Each
    check is a subset test on that mask; see check_fusion and
    check_miyamoto.
    """
    mult, dm, gram, _ = _integer_tables(alg)
    n = alg.dim
    fusion: list[str] = []
    miyamoto: list[str] = []
    for ax in alg.axes if axis is None else (axis,):
        where = f"{alg.type}/{ax}"
        spectrum = _eigenbases(alg, ax, mult, dm)
        flat = [(_BIT[lam], v) for lam, basis in spectrum for _, v in basis]
        # [P | I] reduces to rows that are multiples of [e_r | row r of P^-1]
        rows = [[v[r] for _, v in flat] + [int(r == j) for j in range(n)] for r in range(n)]
        echelon(rows)
        coordinates = [(bit, row[n:]) for (bit, _), row in zip(flat, rows)]
        fixed = sum(_BIT[lam] for lam, _ in spectrum) & ~_TINY_BIT  # the tau-fixed eigenvalues
        for i, (mu, u) in enumerate(flat):
            for nu, v in flat[i:]:
                w = _accumulate(mult, u, v)
                support = 0
                for bit, row in coordinates:
                    if not support & bit and sum(map(mul, row, w)):
                        support |= bit
                pair = f"({_VALUE[mu]},{_VALUE[nu]})"
                outside = support & ~_FUSION_MASK[mu | nu]
                for bit in _VALUE:
                    if outside & bit:
                        fusion.append(f"{where}: {pair} product has a {_VALUE[bit]}-component")
                # tau(u) tau(v) is -u*v when exactly one of u, v is a 1/32-vector, else u*v.
                odd = (mu == _TINY_BIT) != (nu == _TINY_BIT)
                if support & ~(_TINY_BIT if odd else fixed):
                    miyamoto.append(f"{where}: tau is not multiplicative on a {pair} pair")
                elif not (mu | nu) & _TINY_BIT:
                    # sigma likewise on a tau-fixed pair, with 1/4 in place of 1/32.
                    flip = (mu == _QUARTER_BIT) != (nu == _QUARTER_BIT)
                    if support & ~(_QUARTER_BIT if flip else fixed & ~_QUARTER_BIT):
                        miyamoto.append(f"{where}: sigma is not multiplicative on a {pair} pair")
                if odd and sum(map(mul, u, _apply(gram, v))):
                    miyamoto.append(f"{where}: tau does not preserve the form on a {pair} pair")
    return fusion, miyamoto


def check_fusion(alg: DihedralAlgebra, axis: str | None = None) -> list[str]:
    """Verify the fusion rules for one axis (or all axes); return violations."""
    return axis_checks(alg, axis)[0]


def check_miyamoto(alg: DihedralAlgebra, axis: str | None = None) -> list[str]:
    """Verify the Miyamoto involution and its even companion; return violations.

    The map tau negating the 1/32-eigenspace of an axis must be an algebra
    automorphism preserving the inner product.  On the tau-fixed subspace, the
    map sigma negating the 1/4-eigenspace must preserve the restricted product.
    Both maps act on eigenvectors by signs, so on an eigenbasis pair u, v the
    conditions read: u*v lies in the eigenspaces of the matching sign, and
    (u, v) = 0 when exactly one of u, v is a 1/32-vector.
    """
    return axis_checks(alg, axis)[1]


def check_m1(alg: DihedralAlgebra) -> list[str]:
    """Verify (u*v, w) == (u, v*w) on all basis triples; return violations.

    (a_i a_j, a_k) is (G^T m_ij)[k] and (a_i, a_j a_k) is (G m_jk)[i], for the
    Gram matrix G and the table entries m.  Both tables are built once from
    the integer tables, which scale every entry of both by dm*dg, so they are
    compared as integers; Fractions are built only for a violation's message.
    """
    mult, dm, gram, dg = _integer_tables(alg)
    gram_t = list(zip(*gram))
    left = [[_apply(gram_t, m) for m in row] for row in mult]
    right = [[_apply(gram, m) for m in row] for row in mult]
    scale = dm * dg
    violations = []
    for i, x in enumerate(alg.basis):
        for j, y in enumerate(alg.basis):
            for k, z in enumerate(alg.basis):
                lhs, rhs = left[i][j][k], right[j][k][i]
                if lhs != rhs:
                    violations.append(
                        f"{alg.type}: ({x}*{y}, {z}) = {Fraction(lhs, scale)} "
                        f"but ({x}, {y}*{z}) = {Fraction(rhs, scale)}"
                    )
    return violations


# Subalgebras required of the composite types: target type and label map from
# the subalgebra's basis into the host algebra.
_INCLUSIONS = {
    "4A": (("2B", {"a_0": "a_0", "a_1": "a_2"}),),
    "4B": (("2A", {"a_0": "a_0", "a_1": "a_2", "a_rho": "a_rho2"}),),
    "6A": (
        ("3A", {"a_-1": "a_-2", "a_0": "a_0", "a_1": "a_2", "u_rho": "u_rho2"}),
        ("2A", {"a_0": "a_0", "a_1": "a_3", "a_rho": "a_rho3"}),
    ),
}


def check_inclusion(alg: DihedralAlgebra) -> list[str]:
    """Verify the forced subalgebras of a 4A, 4B or 6A algebra.

    The product and form of two basis vectors are table entries, so each
    subalgebra entry is compared with the host entry it maps to.
    """
    if alg.type not in _INCLUSIONS:
        raise ValueError(f"{alg.type} has no subalgebra requirements")
    violations = []
    for sub_type, label_map in _INCLUSIONS[alg.type]:
        sub = build(sub_type)
        labels = [label_map[x] for x in sub.basis]
        host = [alg.index(lab) for lab in labels]
        for i, x in enumerate(labels):
            for j, y in enumerate(labels[i:], start=i):
                lifted = [_ZERO] * alg.dim
                for k, c in zip(host, sub.mult[i][j]):
                    lifted[k] = c
                if alg.mult[host[i]][host[j]] != Vector(lifted):
                    violations.append(f"{alg.type}: ({x}, {y}) does not match the {sub_type} product")
                if alg.gram[host[i], host[j]] != sub.gram[i, j]:
                    violations.append(f"{alg.type}: ({x}, {y}) does not match the {sub_type} form")
    return violations


def to_dict(alg: DihedralAlgebra) -> dict:
    """JSON-ready description: basis labels, products and Gram entries as strings."""
    return {
        "type": alg.type,
        "basis": list(alg.basis),
        "mult": [[[rat_str(c) for c in vec] for vec in row] for row in alg.mult],
        "gram": [[rat_str(alg.gram[i, j]) for j in range(alg.dim)] for i in range(alg.dim)],
    }


def from_dict(data: dict) -> DihedralAlgebra:
    t = data["type"]
    basis = tuple(data["basis"])
    mult = tuple(
        tuple(Vector([parse_rat(c) for c in vec]) for vec in row) for row in data["mult"]
    )
    gram = Matrix([[parse_rat(c) for c in row] for row in data["gram"]])
    n = len(basis)
    if len(mult) != n or any(len(row) != n for row in mult) or any(
        len(vec) != n for row in mult for vec in row
    ):
        raise ValueError("multiplication table shape does not match the basis")
    if gram.nrows != n or gram.ncols != n:
        raise ValueError("Gram matrix shape does not match the basis")
    return DihedralAlgebra(type=t, basis=basis, mult=mult, gram=gram)
