"""Tests for T-set closure, pair typing, and the obstruction engines."""

import functools
import gc
import hashlib
import itertools
import json
import re
import time
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpg import classify
from tpg.axial import (
    AMBIGUOUS_3,
    PAIR_INNER,
    AxisSpanModel,
    NotTrianglePointError,
    PairType,
    TConfig,
    UnsupportedConfigurationError,
    audit_model,
    cert_from_dict,
    cert_to_dict,
    find_subgroups_iso,
    klein_identity,
    klein_witnesses,
    obstruct,
    pair_type,
    pair_type_counts,
    t_closure,
    t_equivalent,
    two_d8_reference,
    _canonical_2d8_basis,
    _klein_members,
    _klein_triples,
    _pair_type,
    _position_of,
    verify_certificate,
)
from tpg.fpgrp import evaluate_word, parse_word
from tpg.permgrp import Perm, PermGroup, dihedral_group, generate, isomorphic

from test_permgrp import is_elementary_abelian_2, power, sort_key

# The 2xD8 on six points with designated involutions t1..t10; t11 is the
# central involution left out.
_T_LABELS = {
    1: "(1,2)",
    2: "(3,4)",
    3: "(1,2)(5,6)",
    4: "(3,4)(5,6)",
    5: "(1,3)(2,4)(5,6)",
    6: "(1,4)(2,3)(5,6)",
    7: "(1,3)(2,4)",
    8: "(1,4)(2,3)",
    9: "(1,2)(3,4)",
    10: "(1,2)(3,4)(5,6)",
    11: "(5,6)",
}


def _t(i: int) -> Perm:
    return Perm.parse(_T_LABELS[i], 6)


def derivation_of(cfg, p: Perm):
    """The Derivation of the T-set member p of cfg."""
    return cfg.derivations[cfg.index_of(p)]


def in_tset(cfg: TConfig, p: Perm) -> bool:
    """Whether p is a member of cfg's T-set."""
    return _position_of(cfg.group, cfg.position, p) >= 0


def axis_span_model(
    K: PermGroup, axes, order: list[Perm] | None = None
) -> AxisSpanModel:
    members = K.indices_of(list(axes if order is None else order))
    if order is None:
        members = np.sort(members)
    if (K.element_orders()[members] != 2).any():
        raise ValueError("every axis must be an involution of the subgroup")
    return AxisSpanModel(subgroup=K, members=members)


def klein_search(cfg: TConfig) -> PermGroup | None:
    """First 2^3 subgroup with all seven involutions in the T-set, or None."""
    triples = _klein_triples(cfg, stop_early=True)
    if not triples:
        return None
    return cfg.group.subgroup_from_indices(_klein_members(cfg.group, triples[0]))


def pair_of(model, t: Perm, s: Perm):
    """The PairType of the axes t and s of an axis-span model."""
    return _pair_type(model.pair_types[model.axis_index(t), model.axis_index(s)])


@pytest.fixture(scope="module")
def d8x2():
    K = generate(6, [_t(10), _t(2), _t(8)], name="2xD8")
    assert K.order == 16
    return K


def _forced(name: str) -> PairType:
    return PairType(frozenset({name}))


def _typed(contains, universe, t: Perm, s: Perm) -> PairType:
    """Brute-force pair type of t and s, one Perm product at a time: the
    reference for the vectorised kernel.  contains tells designated
    elements; universe is the set whose order-6 products force 3A."""
    p = t * s
    o = p.order()
    if o == 1:
        return _forced("1A")
    if o == 2:
        return _forced("2A") if contains(p) else _forced("2B")
    if o == 3:
        # Forced 3A when ts is the square of an order-6 product sharing an
        # axis with the pair; otherwise the type cannot be decided here.
        p_inv = p.inverse()
        for x in (t, s):
            for r in universe:
                q = x * r
                if q.order() == 6:
                    q2 = q * q
                    if q2 == p or q2 == p_inv:
                        return _forced("3A")
        return AMBIGUOUS_3
    if o == 4:
        return _forced("4B") if contains(p * p) else _forced("4A")
    if o == 5:
        return _forced("5A")
    if o == 6:
        return _forced("6A")
    raise NotTrianglePointError(f"product of {t} and {s} has order {o} > 6")


@functools.cache
def _reference_types(cfg: TConfig) -> list[list[str]]:
    """_typed of every ordered pair of the T-set, in T-set order."""
    keys = {t.key() for t in cfg.tset}
    return [[str(_typed(lambda p: p.key() in keys, cfg.tset, t, s))
             for s in cfg.tset] for t in cfg.tset]


@pytest.fixture(scope="module")
def s4_config():
    # S4 has no order-6 elements, so its order-3 pairs stay ambiguous
    a, b, c = (Perm.parse(x, 4) for x in ("(1,2)", "(3,4)", "(2,3)"))
    return t_closure(generate(4, [a, b, c]), a, b, c)


@pytest.fixture(scope="module")
def s6_config():
    a = Perm.parse("(1,2)(3,4)(5,6)", 6)
    b = Perm.parse("(5,6)", 6)
    c = Perm.parse("(2,3)(4,5)", 6)
    G = generate(6, [a, b, c], name="S6")
    assert G.order == 720
    return t_closure(G, a, b, c)


@pytest.fixture(scope="module")
def deg9_config():
    a = Perm.parse("(1,2)(4,5)", 9)
    b = Perm.parse("(4,5)(7,8)", 9)
    c = Perm.parse("(1,3)(4,6)(7,9)", 9)
    G = generate(9, [a, b, c])
    assert G.order == 216
    return t_closure(G, a, b, c)


@pytest.fixture(scope="module")
def deg16_config():
    a = Perm.parse("(1,2)(3,4)(5,6)(7,8)(9,10)(11,12)", 16)
    b = Perm.parse("(1,3)(2,4)(5,6)(7,8)(13,14)(15,16)", 16)
    c = Perm.parse("(1,12)(3,14)(4,6)(5,16)(7,11)(9,13)", 16)
    G = generate(16, [a, b, c])
    assert G.order == 1920
    return t_closure(G, a, b, c)


class TestTClosure:
    def test_trivial_klein_config(self):
        a = Perm.parse("(1,2)", 4)
        b = Perm.parse("(3,4)", 4)
        G = generate(4, [a, b])
        cfg = t_closure(G, a, b, a)
        assert {str(t) for t in cfg.tset} == {"(1,2)", "(3,4)", "(1,2)(3,4)"}
        assert all(d.kind == "seed" for d in cfg.derivations)

    def test_closed_under_conjugation(self, s6_config):
        cfg = s6_config
        for t in cfg.tset:
            for g in cfg.seeds:
                assert in_tset(cfg, t.conj(g))

    def test_closed_under_order6_cubes(self, s6_config):
        cfg = s6_config
        for t in cfg.tset:
            for s in cfg.tset:
                p = t * s
                assert p.order() <= 6
                if p.order() == 6:
                    assert in_tset(cfg, p * p * p)

    def test_deterministic_and_idempotent(self, s6_config):
        cfg = s6_config
        again = t_closure(cfg.group, *cfg.seeds)
        assert [t.key() for t in again.tset] == [t.key() for t in cfg.tset]

    def test_cube_elements_present(self, deg9_config):
        cfg = deg9_config
        for cycles in ("(7,9)", "(1,3)", "(4,6)"):
            p = Perm.parse(cycles, 9)
            assert in_tset(cfg, p)
            assert derivation_of(cfg, p).kind in ("cube", "conjugate")

    def test_every_derivation_word_is_pinned(self):
        # the walk order decides each element's word: seeds as a, b, c, ab,
        # cubes in scan order, conjugates depth first popping the last pushed
        names = [n for n in classify.EXCLUDED_TYPE_NAMES
                 if n != "(3^4:2):(3^{1+2}:2^2)"]  # every target but G11's
        assert len(names) == 9
        triples = []
        for name in names:
            cfg = classify.target_config(name)
            triples.append([name, [[int(m), d.kind, str(d.word)]
                                   for m, d in zip(cfg.members, cfg.derivations)]])
        assert hashlib.sha256(json.dumps(triples).encode()).hexdigest() == (
            "a6b31262b66f7b36252749b27848fb74421cf5182807b6ecd4c3ef213a727b4d")

    def test_derivation_words_re_derive_elements(self, deg9_config):
        cfg = deg9_config
        images = cfg.seed_images()
        for t, d in zip(cfg.tset, cfg.derivations):
            assert evaluate_word(d.word, images) == t

    def test_rejects_non_involution_seed(self):
        a = Perm.parse("(1,2,3)", 4)
        b = Perm.parse("(1,2)", 4)
        G = generate(4, [a, b])
        with pytest.raises(ValueError, match="involution"):
            t_closure(G, a, b, b)

    def test_rejects_odd_ab(self):
        a = Perm.parse("(1,2)", 4)
        b = Perm.parse("(2,3)", 4)
        G = generate(4, [a, b])
        with pytest.raises(ValueError, match="ab"):
            t_closure(G, a, b, a)

    def test_rejects_non_generating_seeds(self):
        a = Perm.parse("(1,2)", 6)
        b = Perm.parse("(3,4)", 6)
        G = generate(6, [a, b, Perm.parse("(5,6)", 6)])
        with pytest.raises(ValueError, match="generate"):
            t_closure(G, a, b, a)

    def test_order_above_six_rejected(self):
        a = Perm.parse("(1,2)", 7)
        b = Perm.parse("(3,4)", 7)
        c = Perm.parse("(2,3)(4,5)(6,7)", 7)
        G = generate(7, [a, b, c])
        with pytest.raises(NotTrianglePointError, match=re.escape(
                "product of T-set elements (2,3)(4,5) and (1,2)(3,4)(6,7) "
                "has order 10 > 6")):
            t_closure(G, a, b, c)


class TestPairType:
    def test_same_element_is_1a(self, s6_config):
        t = s6_config.tset[0]
        assert pair_type(s6_config, t, t).forced == "1A"

    def test_order_two_split(self, s6_config):
        # In S6 every involution is in the T-set, so order-2 products are 2A.
        t = Perm.parse("(1,2)", 6)
        s = Perm.parse("(3,4)", 6)
        assert pair_type(s6_config, t, s).forced == "2A"

    def test_order_three_upgrade_to_3a(self, s6_config):
        t = Perm.parse("(1,2)", 6)
        s = Perm.parse("(2,3)", 6)
        assert pair_type(s6_config, t, s).forced == "3A"

    def test_order_three_ambiguous_without_witness(self):
        # S4 has no order-6 elements, so no pair can force 3A.
        a = Perm.parse("(1,2)", 4)
        b = Perm.parse("(3,4)", 4)
        c = Perm.parse("(2,3)", 4)
        G = generate(4, [a, b, c])
        assert G.order == 24
        cfg = t_closure(G, a, b, c)
        got = pair_type(cfg, a, c)
        assert got == AMBIGUOUS_3
        assert got.forced is None
        assert got.options == frozenset({"3A", "3C"})

    def test_order_four_split(self, deg16_config):
        cfg = deg16_config
        pairs = {}
        for t in cfg.tset:
            for s in cfg.tset:
                p = t * s
                if p.order() == 4:
                    kind = pair_type(cfg, t, s).forced
                    assert kind in ("4A", "4B")
                    assert in_tset(cfg, p * p) == (kind == "4B")
                    pairs[kind] = True
                    if len(pairs) == 2:
                        return
        raise AssertionError("expected both 4A and 4B pairs")

    def test_orders_five_and_six(self, s6_config):
        five = pair_type(
            s6_config, Perm.parse("(1,2)(3,4)", 6), Perm.parse("(1,3)(2,5)", 6)
        )
        assert five.forced == "5A"
        six = pair_type(
            s6_config, Perm.parse("(1,2)", 6), Perm.parse("(2,3)(4,5)", 6)
        )
        assert six.forced == "6A"

    def test_requires_tset_membership(self, s6_config):
        outsider = power(Perm.parse("(1,2,3)", 6), 0)  # identity, not in the T-set
        with pytest.raises(ValueError, match="T-set"):
            pair_type(s6_config, outsider, s6_config.tset[0])

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_symmetric_and_conjugation_invariant(self, s6_config, data):
        cfg = s6_config
        t = data.draw(st.sampled_from(cfg.tset))
        s = data.draw(st.sampled_from(cfg.tset))
        g = data.draw(st.sampled_from(cfg.group.elements))
        assert pair_type(cfg, t, s) == pair_type(cfg, s, t)
        assert pair_type(cfg, t.conj(g), s.conj(g)) == pair_type(cfg, t, s)


class TestPairTypeCounts:
    @pytest.mark.parametrize("name", ["s6_config", "deg9_config", "deg16_config"])
    def test_matches_pair_type_on_every_pair(self, request, name):
        cfg = request.getfixturevalue(name)
        ref = _reference_types(cfg)
        want = Counter(ref[i][j] for i in range(len(ref))
                       for j in range(i + 1, len(ref)))
        assert pair_type_counts(cfg) == dict(sorted(want.items()))

    @pytest.mark.parametrize("name", [
        "s6_config", "deg9_config", "deg16_config", "s4_config"])
    def test_kernel_matches_reference_on_every_ordered_pair(self, request, name):
        cfg = request.getfixturevalue(name)
        assert cfg.pair_types.tolist() == _reference_types(cfg)
        if name == "s4_config":
            assert str(AMBIGUOUS_3) in cfg.pair_types

    def test_ambiguous_order_three(self):
        # S4 has no order-6 elements, so no order-3 pair is forced to 3A
        a, b, c = (Perm.parse(x, 4) for x in ("(1,2)", "(3,4)", "(2,3)"))
        cfg = t_closure(generate(4, [a, b, c]), a, b, c)
        assert pair_type_counts(cfg) == {
            "2A": 12, "4B": 12, str(AMBIGUOUS_3): 12}

    def test_order_above_six_rejected(self):
        a = Perm.parse("(1,2)", 7)
        b = Perm.parse("(3,4)", 7)
        c = Perm.parse("(2,3)(4,5)(6,7)", 7)
        G = generate(7, [a, b, c])
        cfg = TConfig(group=G, seeds=(a, b, c),
                      members=G.indices_of(
                          sorted((a, b, c, a * b), key=sort_key)),
                      derivations=())
        with pytest.raises(NotTrianglePointError, match=re.escape(
                "product of T-set elements (2,3)(4,5)(6,7) and (1,2)(3,4) "
                "has order > 6")):
            pair_type_counts(cfg)


class TestTEquivalent:
    def test_relabelled_copy_is_equivalent(self, s6_config):
        # the same configuration acting on points 2..7 of seven
        a, b, c = (Perm([0] + [int(x) + 1 for x in p.img])
                   for p in s6_config.seeds)
        copy = t_closure(generate(7, [a, b, c]), a, b, c)
        assert len(copy.tset) == len(s6_config.tset)
        assert t_equivalent(s6_config, copy)
        assert t_equivalent(copy, s6_config)

    def test_equal_sizes_inequivalent_tsets(self):
        # 2xS4 twice: T meets the derived subgroup A4 in 3 elements, or in none
        G = generate(6, [Perm.parse(s, 6) for s in ("(1,2)", "(1,2,3,4)", "(5,6)")])
        assert G.order == 48
        first = t_closure(G, *(Perm.parse(s, 6) for s in ("(3,4)", "(1,2)", "(2,3)(5,6)")))
        second = t_closure(G, *(Perm.parse(s, 6) for s in ("(3,4)", "(1,2)(5,6)", "(2,3)")))
        assert len(first.tset) == len(second.tset) == 16
        assert not t_equivalent(first, second)
        assert not t_equivalent(second, first)


class TestAxisSpanModel:
    def _reference_model(self):
        K = generate(6, [_t(10), _t(2), _t(8)])
        return axis_span_model(K, [_t(i) for i in range(1, 11)], [_t(i) for i in range(1, 11)])

    def test_pair_typing_by_membership(self):
        model = self._reference_model()
        assert pair_of(model, _t(1), _t(4)).forced == "2A"
        assert pair_of(model, _t(1), _t(3)).forced == "2B"  # product is t11
        assert pair_of(model, _t(1), _t(5)).forced == "4B"
        # every order-4 product in this group squares to t9, so 4B throughout
        assert pair_of(model, _t(1), _t(7)).forced == "4B"

    def test_kernel_matches_reference_on_every_ordered_pair(self):
        model = self._reference_model()
        want = [[str(_typed(model.axes.__contains__, model.axes, t, s))
                 for s in model.axes] for t in model.axes]
        assert model.pair_types.tolist() == want

    def test_4a_when_square_not_designated(self):
        K = generate(6, [_t(2), _t(7)])
        model = axis_span_model(K, [_t(2), _t(7)])
        assert pair_of(model, _t(2), _t(7)).forced == "4A"
        assert model.inner_entry(0, 1) == Fraction(1, 32)
        assert model.product_entry(0, 1) is None
        assert audit_model(model) is None

    def test_inner_entries(self):
        model = self._reference_model()
        assert model.inner_entry(0, 0) == 1
        assert model.inner_entry(0, 3) == Fraction(1, 8)
        assert model.inner_entry(0, 2) == 0
        assert model.inner_entry(0, 4) == Fraction(1, 64)
        assert model.inner_entry(0, 6) == Fraction(1, 64)

    def test_product_entries(self):
        model = self._reference_model()
        # 2A pair t1, t4 multiplies to (t1 + t4 - t10)/8.
        assert model.product_entry(0, 3) == {
            0: Fraction(1, 8),
            3: Fraction(1, 8),
            9: Fraction(-1, 8),
        }
        assert model.product_entry(0, 2) == {}  # 2B pair
        assert model.product_entry(2, 2) == {2: Fraction(1)}

    def test_4b_product_labels(self):
        model = self._reference_model()
        # t1 * t5 has order 4 with square t9: axes t1, t5, t5^t1? follow the
        # dihedral labels a_{-1} = tst, a_2 = sts, a_{rho^2} = (ts)^2.
        t, s = _t(1), _t(5)
        entry = model.product_entry(0, 4)
        e = Fraction(1, 64)
        expected = {
            0: e,
            4: e,
            model.axis_index(t * s * t): -e,
            model.axis_index(s * t * s): -e,
            model.axis_index((t * s) * (t * s)): e,
        }
        assert entry == expected

    def test_audit_reference_values(self):
        model = self._reference_model()
        witness = audit_model(model)
        assert witness is not None
        assert witness.indices == (0, 3, 4)
        assert witness.triple == (_t(1), _t(4), _t(5))
        assert witness.lhs == Fraction(-3, 256)
        assert witness.rhs == Fraction(1, 256)

    def test_all_2a_klein_span_has_no_violation(self):
        K = generate(6, [_t(1), _t(4)])
        model = axis_span_model(K, [_t(1), _t(4), _t(10)])
        assert audit_model(model) is None

    def test_2b_pair_span_has_no_violation(self):
        K = generate(6, [_t(1), _t(3)])
        model = axis_span_model(K, [_t(1), _t(3)])
        assert audit_model(model) is None

    def test_ambiguous_inner_rejected(self):
        a = Perm.parse("(1,2)", 3)
        c = Perm.parse("(2,3)", 3)
        K = generate(3, [a, c])
        model = axis_span_model(K, K.involutions())
        with pytest.raises(UnsupportedConfigurationError):
            model.inner_entry(0, 1)

    def test_rejects_non_involution_axis(self):
        K = generate(3, [Perm.parse("(1,2)", 3), Perm.parse("(2,3)", 3)])
        with pytest.raises(ValueError):
            axis_span_model(K, [Perm.parse("(1,2,3)", 3)])


class TestKleinSearch:
    def test_s6_finds_paper_witness(self, s6_config):
        found = klein_search(s6_config)
        assert found is not None
        assert found.order == 8
        assert is_elementary_abelian_2(found)
        target = generate(
            6,
            [Perm.parse("(1,2)", 6), Perm.parse("(3,4)", 6), Perm.parse("(5,6)", 6)],
        )
        witnesses = klein_witnesses(s6_config)
        assert any(
            W.element_key_set() == target.element_key_set() for W in witnesses
        )
        assert found.element_key_set() in {W.element_key_set() for W in witnesses}

    def test_deg9_finds_paper_witness(self, deg9_config):
        target = generate(
            9,
            [Perm.parse("(1,3)", 9), Perm.parse("(4,6)", 9), Perm.parse("(7,9)", 9)],
        )
        witnesses = klein_witnesses(deg9_config)
        assert any(
            W.element_key_set() == target.element_key_set() for W in witnesses
        )

    def test_deg9_witnesses_match_a_scan_of_t(self, deg9_config):
        # commuting involutions x, y, z with z outside <x, y> span a 2^3
        cfg = deg9_config
        brute = set()
        for x, y, z in itertools.combinations(cfg.tset, 3):
            if x * y != y * x or x * z != z * x or y * z != z * y or z == x * y:
                continue
            invs = (x, y, z, x * y, x * z, y * z, x * y * z)
            if all(in_tset(cfg, t) for t in invs):
                brute.add(frozenset(t.key() for t in invs))
        witnesses = klein_witnesses(cfg)
        assert len(witnesses) == len(brute) > 0
        assert {frozenset(t.key() for t in W.involutions())
                for W in witnesses} == brute

    def test_dihedral_config_has_none(self):
        D = dihedral_group(8)
        invs = D.involutions()
        central = next(t for t in invs if all(t * g == g * t for g in D.elements))
        a = next(t for t in invs if t != central and (t * central).order() == 2)
        b = a * central
        c = next(t for t in invs if t not in (a, b, central) and t.order() == 2)
        G = generate(D.degree, [a, b, c])
        assert G.order == 8
        cfg = t_closure(G, a, b, c)
        assert klein_search(cfg) is None

    def test_deg16_has_none(self, deg16_config):
        assert klein_search(deg16_config) is None

    def test_witnesses_deterministic(self, s6_config):
        first = klein_witnesses(s6_config)
        second = klein_witnesses(s6_config)
        assert [W.element_key_set() for W in first] == [
            W.element_key_set() for W in second
        ]


class TestKleinIdentity:
    def test_report(self):
        report = klein_identity()
        assert report["ok"] is True
        assert report["rhs_coefficient"] == Fraction(-1, 4)
        assert report["eigenvalue"] == Fraction(1, 4)
        assert report["fusion_cell"] == frozenset({Fraction(1), Fraction(0)})
        assert Fraction(1, 4) not in report["fusion_cell"]
        assert any("-(1/4)" in step for step in report["steps"])


class TestFindSubgroups:
    def test_klein_subgroups_of_d8(self):
        D = dihedral_group(8)
        ref = generate(4, [Perm.parse("(1,2)", 4), Perm.parse("(3,4)", 4)])
        found = find_subgroups_iso(D, ref)
        assert len(found) == 2
        assert all(H.order == 4 and is_elementary_abelian_2(H) for H in found)

    def test_2d8_count_in_deg16_group(self, deg16_config):
        G = deg16_config.group
        found = find_subgroups_iso(G, two_d8_reference())
        assert len(found) == 225
        ref = two_d8_reference()
        assert all(isomorphic(H, ref) for H in found[:5])
        # the same subgroups in the same order as the per-prefix search that
        # re-closed every prefix from the identity
        members = json.dumps([G.indices_of(H.elements).tolist() for H in found])
        assert hashlib.sha256(members.encode()).hexdigest() == (
            "8d3b068a575cfd47a237c7e28a0b3494a7f00087a1e8d0812640476480c3fab2")

    def test_conjugation_closed_lists_are_pinned(self):
        # the sorted member lists of klein_witnesses and find_subgroups_iso,
        # both closed under conjugation from their anchored finds
        lists = []
        for name in ("S6", "S3xS3xS3", "2xS3xS3"):
            cfg = classify.target_config(name)
            lists.append([name, [cfg.group.indices_of(W.elements).tolist()
                                 for W in klein_witnesses(cfg)]])
        G = classify.target_config("2^4:S5").group
        lists.append(["2^4:S5", [G.indices_of(H.elements).tolist()
                                 for H in find_subgroups_iso(G, two_d8_reference())]])
        assert [len(found) for _, found in lists] == [30, 27, 9, 225]
        assert hashlib.sha256(json.dumps(lists).encode()).hexdigest() == (
            "bc2f483496bb6b692e26fa0aedb5b8ac73599a2826c8ab56dc584d88c6935b18")

    @pytest.mark.parametrize("ref, count", [
        (generate(4, [Perm.parse("(1,2)", 4), Perm.parse("(3,4)", 4)]), 4),
        (dihedral_group(8), 3),
        (generate(3, [Perm.parse("(1,2)", 3), Perm.parse("(1,2,3)", 3)]), 4),
    ])
    def test_s4_matches_closing_every_pair(self, ref, count):
        from tpg.permgrp import symmetric_group

        S4 = symmetric_group(4)
        found = find_subgroups_iso(S4, ref)
        members = [S4.indices_of(H.elements).tolist() for H in found]
        assert members == sorted(members)
        # every reference here is 2-generated
        brute = set()
        for x, y in itertools.combinations(S4.elements, 2):
            H = generate(4, [x, y])
            if H.order == ref.order and isomorphic(H, ref):
                brute.add(H.element_key_set())
        assert len(brute) == count
        assert {H.element_key_set() for H in found} == brute

    def test_search_frees_its_state_without_the_cyclic_gc(self):
        from tpg.permgrp import symmetric_group

        S4 = symmetric_group(4)
        dead = weakref.ref(S4)
        gc.disable()
        try:
            assert len(find_subgroups_iso(S4, dihedral_group(8))) == 3
            del S4
            assert dead() is None
        finally:
            gc.enable()

    def test_no_quaternion_in_s4(self):
        from tpg.permgrp import quaternion_group, symmetric_group

        assert find_subgroups_iso(symmetric_group(4), quaternion_group()) == ()

    def test_rejects_large_reference(self, s6_config):
        with pytest.raises(ValueError, match="too large"):
            find_subgroups_iso(s6_config.group, s6_config.group)


class TestObstruct:
    def test_canonical_basis_and_fallback_order(self):
        # each central involution of the 2xD8 left out of designated in turn:
        # without the square of an order-4 element there is no canonical
        # basis, and the audit over obstruct's fallback order finds nothing
        K = two_d8_reference()
        E = K.element_images
        table = K.product_indices(E, E)
        orders = K.element_orders()
        invs = np.flatnonzero(orders == 2)
        central = [t for t in invs if (table[t] == table[:, t]).all()]
        four = np.flatnonzero(orders == 4)[0]
        square = table[four, four]
        assert len(central) == 3 and square in central
        for t in central:
            designated = np.zeros(K.order, dtype=bool)
            designated[invs] = True
            designated[t] = False
            basis = _canonical_2d8_basis(K, designated)
            fallback = audit_model(AxisSpanModel(K, np.flatnonzero(designated)))
            if t == square:
                assert basis is None and fallback is None
            else:
                assert len(np.unique(basis)) == 10 and designated[basis].all()
                assert audit_model(AxisSpanModel(K, basis)) is not None
                assert fallback is not None

    def test_klein_certificate(self, deg9_config):
        cert = obstruct(deg9_config)
        assert cert is not None
        assert cert.kind == "klein"
        assert len(cert.members) == 7
        assert verify_certificate(deg9_config, cert)

    def test_m1_certificate(self, deg16_config):
        cert = obstruct(deg16_config)
        assert cert is not None
        assert cert.kind == "m1-audit"
        assert cert.lhs == "-3/256"
        assert cert.rhs == "1/256"
        assert len(cert.members) == 10
        assert verify_certificate(deg16_config, cert)

    def test_certificate_words_rederive_members(self, deg9_config):
        cert = obstruct(deg9_config)
        images = deg9_config.seed_images()
        for cycles, word in cert.members:
            p = Perm.parse(cycles, deg9_config.group.degree)
            assert evaluate_word(parse_word(word), images) == p

    def test_roundtrip_through_json(self, deg9_config, deg16_config):
        for cfg in (deg9_config, deg16_config):
            cert = obstruct(cfg)
            data = json.loads(json.dumps(cert_to_dict(cert)))
            assert cert_from_dict(data) == cert
            assert verify_certificate(cfg, cert_from_dict(data))

    def test_tampered_certificates_rejected(self, deg9_config):
        cert = obstruct(deg9_config)
        wrong_order = replace(cert, group_order=cert.group_order + 1)
        assert not verify_certificate(deg9_config, wrong_order)
        bad_word = replace(
            cert, members=((cert.members[0][0], "abab"),) + cert.members[1:]
        )
        assert not verify_certificate(deg9_config, bad_word)
        short = replace(cert, members=cert.members[:6])
        assert not verify_certificate(deg9_config, short)

    @pytest.fixture(params=["deg9_config", "deg16_config"])
    def cfg_and_cert(self, request):
        cfg = request.getfixturevalue(request.param)
        return cfg, obstruct(cfg)

    @staticmethod
    def _with_word(cert, i, word):
        members = list(cert.members)
        members[i] = (members[i][0], word)
        return replace(cert, members=tuple(members))

    def test_swapped_words_rejected(self, cfg_and_cert):
        cfg, cert = cfg_and_cert
        (p, u), (q, v) = cert.members[:2]
        swapped = replace(cert, members=((p, v), (q, u)) + cert.members[2:])
        assert not verify_certificate(cfg, swapped)

    def test_identity_word_rejected(self, cfg_and_cert):
        cfg, cert = cfg_and_cert
        assert not verify_certificate(cfg, self._with_word(cert, 0, "1"))

    def test_word_of_another_t_element_rejected(self, cfg_and_cert):
        cfg, cert = cfg_and_cert
        deg = cfg.group.degree
        member = Perm.parse(cert.members[0][0], deg)
        named = {Perm.parse(p, deg) for p, _ in cert.members}
        k = next(k for k, t in enumerate(cfg.tset) if t not in named)
        word = str(cfg.derivations[k].word)
        assert evaluate_word(parse_word(word), cfg.seed_images()) == cfg.tset[k]
        assert cfg.tset[k] != member
        assert not verify_certificate(cfg, self._with_word(cert, 0, word))

    def test_long_words_replay_quickly(self, cfg_and_cert):
        # ab is an involution, so (ab)^2 is the identity
        cfg, cert = cfg_and_cert
        word = cert.members[0][1]
        padded = "abab" * 25_000 + word
        wrong = "ab" * 50_000
        assert len(wrong) == 10**5
        for w, verdict in ((padded, True), (wrong, False)):
            start = time.perf_counter()
            assert verify_certificate(cfg, self._with_word(cert, 0, w)) is verdict
            assert time.perf_counter() - start < 1.0

    def test_tampered_audit_values_rejected(self, deg16_config):
        cert = obstruct(deg16_config)
        assert not verify_certificate(deg16_config, replace(cert, lhs="1/256"))
        assert not verify_certificate(deg16_config, replace(cert, rhs="-3/256"))
        outside = (*cert.triple[:2], "(1,2)")  # a permutation that is not an axis
        assert not verify_certificate(deg16_config, replace(cert, triple=outside))

    def test_cert_from_dict_validates_kind(self):
        with pytest.raises(ValueError, match="kind"):
            cert_from_dict({"kind": "bogus"})

    @pytest.mark.parametrize("field, value", [
        ("generators", [1, 2, 3]), ("members", [[1, "a"]]), ("basis", [None]),
        ("triple", "abc"), ("lhs", [None]), ("degree", None),
    ])
    def test_cert_from_dict_rejects_wrong_field_types(self, field, value):
        data = {"kind": "m1-audit", "degree": 16, "group_order": 1920,
                "generators": ["(1,2)"], "members": [["(1,2)", "a"]],
                "basis": ["(1,2)"], "triple": ["(1,2)"] * 3,
                "lhs": "1/256", "rhs": "-3/256"}
        cert_from_dict(data)
        with pytest.raises(TypeError):
            cert_from_dict({**data, field: value})

    def test_unobstructed_config_returns_none(self, s6_config):
        # S6 itself obstructs via klein; a plain klein four-group does not.
        a = Perm.parse("(1,2)", 4)
        b = Perm.parse("(3,4)", 4)
        G = generate(4, [a, b])
        cfg = t_closure(G, a, b, a)
        assert obstruct(cfg) is None


class TestPairInnerTable:
    def test_values(self):
        assert PAIR_INNER["2A"] == Fraction(1, 8)
        assert PAIR_INNER["2B"] == 0
        assert PAIR_INNER["3A"] == Fraction(13, 256)
        assert PAIR_INNER["3C"] == Fraction(1, 64)
        assert PAIR_INNER["4A"] == Fraction(1, 32)
        assert PAIR_INNER["4B"] == Fraction(1, 64)
        assert PAIR_INNER["5A"] == Fraction(3, 128)
        assert PAIR_INNER["6A"] == Fraction(5, 256)
