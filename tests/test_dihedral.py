"""Tests for the dihedral Majorana algebra models."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpg import dihedral
from tpg.dihedral import (
    DIHEDRAL_TYPES,
    AxiomError,
    DihedralAlgebra,
    ad_spectrum,
    build,
    check_fusion,
    check_inclusion,
    check_m1,
    check_miyamoto,
    from_dict,
    inner,
    product,
    to_dict,
)
from tpg.qlin import Matrix, Vector, span_contains

GOLDEN_DIR = Path(__file__).parent / "golden"

EXPECTED_DIMS = {
    "1A": 1, "2A": 3, "2B": 2, "3A": 4, "3C": 3, "4A": 5, "4B": 5, "5A": 6, "6A": 8,
}

ONE = Fraction(1)
ZERO = Fraction(0)
QUARTER = Fraction(1, 4)
TINY = Fraction(1, 32)


def unit(alg: DihedralAlgebra, label: str) -> Vector:
    return alg.basis_vector(label)


def pair_inner(t: str, x: str, y: str) -> Fraction:
    alg = build(t)
    return inner(alg, unit(alg, x), unit(alg, y))


def pair_product(t: str, x: str, y: str) -> Vector:
    alg = build(t)
    return product(alg, unit(alg, x), unit(alg, y))


class TestBuild:
    @pytest.mark.parametrize("t", DIHEDRAL_TYPES)
    def test_dimensions(self, t):
        assert build(t).dim == EXPECTED_DIMS[t]

    def test_basis_order(self):
        assert build("5A").basis == ("a_-2", "a_-1", "a_0", "a_1", "a_2", "w_rho")
        assert build("6A").basis == (
            "a_-2", "a_-1", "a_0", "a_1", "a_2", "a_3", "a_rho3", "u_rho2",
        )

    def test_build_is_cached(self):
        assert build("4A") is build("4A")

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            build("7A")

    @pytest.mark.parametrize("t", DIHEDRAL_TYPES)
    def test_axes_are_idempotent(self, t):
        alg = build(t)
        for ax in alg.axes:
            e = unit(alg, ax)
            assert product(alg, e, e) == e
            assert inner(alg, e, e) == 1

    def test_index_errors(self):
        alg = build("2B")
        with pytest.raises(ValueError):
            alg.index("u_rho")


class TestValues:
    """Structure constants pinned to their published values."""

    def test_extra_vector_norms(self):
        assert pair_inner("3A", "u_rho", "u_rho") == Fraction(8, 5)
        assert pair_inner("4A", "v_rho", "v_rho") == 2
        assert pair_inner("5A", "w_rho", "w_rho") == Fraction(5**3 * 7, 2**19)
        assert pair_inner("6A", "u_rho2", "u_rho2") == Fraction(8, 5)

    def test_axis_inner_products(self):
        assert pair_inner("2A", "a_0", "a_1") == Fraction(1, 8)
        assert pair_inner("2B", "a_0", "a_1") == 0
        assert pair_inner("3A", "a_0", "a_1") == Fraction(13, 256)
        assert pair_inner("3C", "a_0", "a_1") == Fraction(1, 64)
        assert pair_inner("4A", "a_0", "a_1") == Fraction(1, 32)
        assert pair_inner("4B", "a_0", "a_1") == Fraction(1, 64)
        assert pair_inner("5A", "a_0", "a_1") == Fraction(3, 128)
        assert pair_inner("6A", "a_0", "a_1") == Fraction(5, 256)
        assert pair_inner("4A", "a_0", "v_rho") == Fraction(3, 8)
        assert pair_inner("6A", "a_0", "a_2") == Fraction(13, 256)
        assert pair_inner("6A", "a_0", "a_3") == Fraction(1, 8)

    def test_derived_inner_products(self):
        # Not seeded directly; produced by the symmetry closure.
        assert pair_inner("5A", "a_0", "a_2") == Fraction(3, 128)
        assert pair_inner("5A", "a_1", "a_-2") == Fraction(3, 128)
        assert pair_inner("4B", "a_1", "a_-1") == Fraction(1, 8)
        assert pair_inner("6A", "a_1", "a_2") == Fraction(5, 256)

    def test_orthogonal_pairs(self):
        alg = build("4A")
        assert pair_product("4A", "a_0", "a_2").is_zero()
        assert pair_inner("4A", "a_0", "a_2") == 0
        assert pair_product("6A", "a_rho3", "u_rho2").is_zero()
        assert pair_inner("6A", "a_rho3", "u_rho2") == 0
        assert pair_product("2B", "a_0", "a_1").is_zero()

    def test_2a_product(self):
        alg = build("2A")
        expected = (unit(alg, "a_0") + unit(alg, "a_1") - unit(alg, "a_rho")) * Fraction(1, 8)
        assert pair_product("2A", "a_0", "a_1") == expected

    def test_m1_triple_value(self):
        alg = build("2A")
        a0, a1, ar = (unit(alg, lab) for lab in alg.basis)
        lhs = inner(alg, product(alg, a0, a1), ar)
        rhs = inner(alg, a0, product(alg, a1, ar))
        assert lhs == rhs == Fraction(-3, 32)

    def test_5a_w_coefficient_signs(self):
        # a_0 a_1 carries +w_rho, a_0 a_2 carries -w_rho.
        alg = build("5A")
        w = alg.index("w_rho")
        assert pair_product("5A", "a_0", "a_1")[w] == 1
        assert pair_product("5A", "a_0", "a_2")[w] == -1


class TestSpectrum:
    def test_2b_spectrum(self):
        spec = ad_spectrum(build("2B"), "a_0")
        assert {lam: m for lam, (m, _) in spec.items()} == {ONE: 1, ZERO: 1}

    def test_2a_spectrum(self):
        alg = build("2A")
        spec = ad_spectrum(alg, "a_0")
        assert {lam: m for lam, (m, _) in spec.items()} == {ONE: 1, ZERO: 1, QUARTER: 1}
        quarter = spec[QUARTER][1][0]
        assert span_contains([quarter], unit(alg, "a_1") - unit(alg, "a_rho"))

    def test_3a_spectrum(self):
        spec = ad_spectrum(build("3A"), "a_0")
        assert {lam: m for lam, (m, _) in spec.items()} == {
            ONE: 1, ZERO: 1, QUARTER: 1, TINY: 1,
        }

    @pytest.mark.parametrize("t", DIHEDRAL_TYPES)
    def test_all_axes_diagonalizable(self, t):
        alg = build(t)
        for ax in alg.axes:
            spec = ad_spectrum(alg, ax)
            assert sum(m for m, _ in spec.values()) == alg.dim
            assert spec[ONE][0] == 1

    def test_rejects_non_axis(self):
        with pytest.raises(ValueError):
            ad_spectrum(build("3A"), "u_rho")

    def test_matches_matrix_eigenspaces(self):
        # the same eigenvalues, in the same order, with the same Fraction
        # eigenbases as Matrix.eigenspace of the adjoint, on all 33 axes
        axes = 0
        for alg in map(build, DIHEDRAL_TYPES):
            for ax in alg.axes:
                ad = Matrix.from_columns(list(alg.mult[alg.index(ax)]))
                want = {}
                for lam in dihedral.EIGENVALUES:
                    eb = ad.eigenspace(lam)
                    if eb:
                        want[lam] = (len(eb), tuple(eb))
                got = ad_spectrum(alg, ax)
                assert list(got.items()) == list(want.items()), (alg.type, ax)
                assert all(type(x) is Fraction for _, eb in got.values() for u in eb for x in u)
                axes += 1
        assert axes == 33


class TestChecks:
    @pytest.mark.parametrize("t", DIHEDRAL_TYPES)
    def test_fusion(self, t):
        assert check_fusion(build(t)) == []

    @pytest.mark.parametrize("t", DIHEDRAL_TYPES)
    def test_m1(self, t):
        assert check_m1(build(t)) == []

    @pytest.mark.parametrize("t", DIHEDRAL_TYPES)
    def test_miyamoto(self, t):
        assert check_miyamoto(build(t)) == []

    @pytest.mark.parametrize("t", ("4A", "4B", "6A"))
    def test_inclusion(self, t):
        assert check_inclusion(build(t)) == []

    @pytest.mark.parametrize("t", ("1A", "2A", "2B", "3A", "3C", "5A"))
    def test_inclusion_rejects_other_types(self, t):
        with pytest.raises(ValueError):
            check_inclusion(build(t))

    @pytest.mark.parametrize("t", DIHEDRAL_TYPES)
    def test_gram_psd(self, t):
        assert build(t).gram.is_psd()

    def test_fusion_detects_violations(self):
        # Corrupt one structure constant and watch the checks fail.
        alg = build("2A")
        bad_mult = [list(row) for row in alg.mult]
        bad_mult[0][1] = bad_mult[0][1] + unit(alg, "a_rho") * Fraction(1, 7)
        bad_mult[1][0] = bad_mult[0][1]
        bad = DihedralAlgebra(
            type="2A", basis=alg.basis,
            mult=tuple(tuple(row) for row in bad_mult), gram=alg.gram,
        )
        assert check_m1(bad) != []

    def test_fusion_names_the_offending_eigenvalue(self):
        # a_1 * a_rho gains a multiple of the 1/4-eigenvector a_1 - a_rho of
        # ad(a_0); ad(a_0) itself is untouched, so its spectrum still holds.
        alg = build("2A")
        bad = tampered(alg, "a_1", "a_rho", (unit(alg, "a_1") - unit(alg, "a_rho")) * Fraction(1, 8))
        assert check_fusion(bad, "a_0") == [
            "2A/a_0: (0,0) product has a 1/4-component",
            "2A/a_0: (1/4,1/4) product has a 1/4-component",
        ]
        assert check_miyamoto(bad, "a_0") == [
            "2A/a_0: sigma is not multiplicative on a (0,0) pair",
            "2A/a_0: sigma is not multiplicative on a (1/4,1/4) pair",
        ]

    def test_miyamoto_detects_tau_not_multiplicative(self):
        # u_rho^2 gains the 1/32-eigenvector a_1 - a_-1 of ad(a_0), so products
        # of tau-fixed vectors leave the tau-fixed subspace.
        alg = build("3A")
        bad = tampered(alg, "u_rho", "u_rho", (unit(alg, "a_1") - unit(alg, "a_-1")) * Fraction(1, 4))
        assert check_miyamoto(bad, "a_0") == [
            "3A/a_0: tau is not multiplicative on a (0,0) pair",
            "3A/a_0: tau is not multiplicative on a (0,1/4) pair",
            "3A/a_0: tau is not multiplicative on a (1/4,1/4) pair",
        ]
        assert "3A/a_0: (0,0) product has a 1/32-component" in check_fusion(bad, "a_0")

    def test_miyamoto_detects_tau_not_preserving_the_form(self):
        # Only the form changes, so the fusion rules still hold.
        alg = build("3A")
        bad = tampered(alg, "a_1", "u_rho", gram_delta=Fraction(1, 8))
        assert check_fusion(bad, "a_0") == []
        assert check_miyamoto(bad, "a_0") == [
            "3A/a_0: tau does not preserve the form on a (0,1/32) pair",
            "3A/a_0: tau does not preserve the form on a (1/4,1/32) pair",
        ]


def tampered(alg: DihedralAlgebra, x: str, y: str, product_delta: Vector | None = None,
             gram_delta: Fraction = ZERO) -> DihedralAlgebra:
    """alg with the product and form of the basis pair (x, y) shifted symmetrically."""
    i, j = alg.index(x), alg.index(y)
    mult = [list(row) for row in alg.mult]
    if product_delta is not None:
        mult[i][j] = mult[j][i] = mult[i][j] + product_delta
    gram = [list(row) for row in alg.gram.rows]
    gram[i][j] += gram_delta
    if i != j:
        gram[j][i] += gram_delta
    return DihedralAlgebra(
        type=alg.type, basis=alg.basis, mult=tuple(tuple(row) for row in mult), gram=Matrix(gram),
    )


def in_eigenspaces(alg: DihedralAlgebra, a: Vector, w: Vector, lams) -> bool:
    """Reference: w lies in the eigenspaces of ad(a) for lams iff prod (ad(a) - lam) kills it."""
    for lam in lams:
        w = product(alg, a, w) - w * lam
    return w.is_zero()


def reference_axis_checks(alg: DihedralAlgebra) -> tuple[list[str], list[str]]:
    """Fusion and Miyamoto violations through chains of (ad(a) - lam) on Fractions."""
    fusion, miyamoto = [], []
    for axis in alg.axes:
        spectrum = ad_spectrum(alg, axis)
        a = unit(alg, axis)
        where = f"{alg.type}/{axis}"
        fixed = [lam for lam in spectrum if lam != TINY]
        flat = [(lam, u) for lam, (_, eb) in spectrum.items() for u in eb]
        for i, (mu, u) in enumerate(flat):
            for nu, v in flat[i:]:
                w = product(alg, u, v)
                allowed = dihedral.fusion_rule(mu, nu)
                if not in_eigenspaces(alg, a, w, [lam for lam in spectrum if lam in allowed]):
                    for lam in spectrum:
                        if lam not in allowed and not in_eigenspaces(
                                alg, a, w, [k for k in spectrum if k != lam]):
                            fusion.append(f"{where}: ({mu},{nu}) product has a {lam}-component")
                odd = (mu == TINY) != (nu == TINY)
                if not in_eigenspaces(alg, a, w, [TINY] if odd else fixed):
                    miyamoto.append(f"{where}: tau is not multiplicative on a ({mu},{nu}) pair")
                elif TINY not in (mu, nu):
                    flip = (mu == QUARTER) != (nu == QUARTER)
                    lams = [QUARTER] if flip else [lam for lam in fixed if lam != QUARTER]
                    if not in_eigenspaces(alg, a, w, lams):
                        miyamoto.append(f"{where}: sigma is not multiplicative on a ({mu},{nu}) pair")
                if odd and inner(alg, u, v):
                    miyamoto.append(f"{where}: tau does not preserve the form on a ({mu},{nu}) pair")
    return fusion, miyamoto


def reference_m1(alg: DihedralAlgebra) -> list[str]:
    """(a_i a_j, a_k) against (a_i, a_j a_k) on Fractions, triple by triple."""
    g, m, n = alg.gram, alg.mult, alg.dim
    violations = []
    for i, x in enumerate(alg.basis):
        for j, y in enumerate(alg.basis):
            for k, z in enumerate(alg.basis):
                lhs = sum(m[i][j][l] * g[l, k] for l in range(n))
                rhs = sum(g[i, l] * m[j][k][l] for l in range(n))
                if lhs != rhs:
                    violations.append(f"{alg.type}: ({x}*{y}, {z}) = {lhs} but ({x}, {y}*{z}) = {rhs}")
    return violations


def single_entry_tampers(t: str):
    """(description, algebra) for every one-coordinate shift of a product and every form shift."""
    alg = build(t)
    for i, x in enumerate(alg.basis):
        for y in alg.basis[i:]:
            for z in alg.basis:
                yield f"{x}*{y} += {z}/8", tampered(alg, x, y, unit(alg, z) * Fraction(1, 8))
            yield f"({x}, {y}) += 1/8", tampered(alg, x, y, gram_delta=Fraction(1, 8))


def assert_checks_match_reference(alg: DihedralAlgebra, what: str) -> bool:
    """Both sides agree; False when both raise AxiomError from ad_spectrum."""
    assert dihedral.check_m1(alg) == reference_m1(alg), what
    try:
        want = reference_axis_checks(alg)
    except AxiomError:
        with pytest.raises(AxiomError):
            dihedral.axis_checks(alg)
        return False
    assert dihedral.axis_checks(alg) == want, what
    return True


class TestChecksAgainstReference:
    @pytest.mark.parametrize("t", DIHEDRAL_TYPES)
    def test_algebras(self, t):
        assert_checks_match_reference(build(t), t)

    @pytest.mark.parametrize("t", ("3A", "4B"))
    def test_single_entry_tampers(self, t):
        checked = {assert_checks_match_reference(alg, what) for what, alg in single_entry_tampers(t)}
        assert checked == {False, True}

    def test_m1_on_one_sided_tampers(self):
        # Shift only mult[i][j] or only gram[i][j], so neither table is symmetric.
        alg = build("3A")
        for i in range(alg.dim):
            for j in range(alg.dim):
                mult = [list(row) for row in alg.mult]
                mult[i][j] = mult[i][j] + Vector.unit(alg.dim, j) * Fraction(1, 8)
                gram = [list(row) for row in alg.gram.rows]
                gram[i][j] += Fraction(1, 8)
                for bad in (DihedralAlgebra(alg.type, alg.basis, tuple(map(tuple, mult)), alg.gram),
                            DihedralAlgebra(alg.type, alg.basis, alg.mult, Matrix(gram))):
                    assert dihedral.check_m1(bad) == reference_m1(bad), (i, j)


class TestNortonInequality:
    @pytest.mark.parametrize("t", DIHEDRAL_TYPES)
    def test_sampled(self, t):
        alg = build(t)
        rng = random.Random(20260825)
        for _ in range(200):
            u = Vector([Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(alg.dim)])
            v = Vector([Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(alg.dim)])
            uv = product(alg, u, v)
            lhs = inner(alg, product(alg, u, u), product(alg, v, v))
            assert lhs >= inner(alg, uv, uv)


class TestSymmetryConsistency:
    @pytest.mark.parametrize("t", DIHEDRAL_TYPES)
    def test_relabelings_are_automorphisms(self, t):
        alg = build(t)
        for m in dihedral._relabelings(t):
            cols = []
            for lab in alg.basis:
                lab2, sign = m[lab]
                cols.append(unit(alg, lab2) * sign)
            T = Matrix.from_columns(cols)
            for i in range(alg.dim):
                for j in range(i, alg.dim):
                    ei, ej = Vector.unit(alg.dim, i), Vector.unit(alg.dim, j)
                    assert T.apply(product(alg, ei, ej)) == product(alg, T.apply(ei), T.apply(ej))
                    assert inner(alg, T.apply(ei), T.apply(ej)) == inner(alg, ei, ej)


class TestSerialization:
    @pytest.mark.parametrize("t", DIHEDRAL_TYPES)
    def test_round_trip(self, t):
        alg = build(t)
        assert from_dict(to_dict(alg)) == alg

    @pytest.mark.parametrize("t", DIHEDRAL_TYPES)
    def test_matches_golden_file(self, t):
        with open(GOLDEN_DIR / f"dihedral_{t}.json") as fh:
            assert json.load(fh) == to_dict(build(t))

    def test_rejects_bad_shape(self):
        data = to_dict(build("2B"))
        data["mult"][0] = data["mult"][0][:1]
        with pytest.raises(ValueError):
            from_dict(data)


def small_vectors(dim):
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=8)
    return st.lists(coeff, min_size=dim, max_size=dim).map(Vector)


class TestAlgebraProperties:
    @settings(max_examples=50, deadline=None)
    @given(u=small_vectors(6), v=small_vectors(6))
    def test_commutative_5a(self, u, v):
        alg = build("5A")
        assert product(alg, u, v) == product(alg, v, u)

    @settings(max_examples=50, deadline=None)
    @given(u=small_vectors(8), v=small_vectors(8), w=small_vectors(8))
    def test_bilinear_6a(self, u, v, w):
        alg = build("6A")
        lhs = product(alg, u, v + w)
        assert lhs == product(alg, u, v) + product(alg, u, w)
        assert inner(alg, u, v + w) == inner(alg, u, v) + inner(alg, u, w)

    @settings(max_examples=50, deadline=None)
    @given(u=small_vectors(4), v=small_vectors(4))
    def test_m1_on_vectors_3a(self, u, v):
        # Associativity of the form extends bilinearly from the basis triples.
        alg = build("3A")
        for lab in alg.basis:
            e = unit(alg, lab)
            assert inner(alg, product(alg, u, v), e) == inner(alg, u, product(alg, v, e))

    def test_dimension_mismatch(self):
        alg = build("3C")
        with pytest.raises(ValueError):
            product(alg, Vector.zero(2), Vector.zero(3))
        with pytest.raises(ValueError):
            inner(alg, Vector.zero(3), Vector.zero(2))
