import gc
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tpg import permgrp
from tpg.classify import normal_subgroups_index_gt
from tpg.fpgrp import evaluate_word, parse_word
from tpg.permgrp import (
    CapacityError,
    Perm,
    PermGroup,
    alternating_group,
    cyclic_group,
    dicyclic_group_12,
    dihedral_group,
    direct_product,
    elementary_abelian_2,
    find_isomorphism,
    generate,
    isomorphic,
    quaternion_group,
    symmetric_group,
    trivial_group,
)


def P(s, degree):
    return Perm.parse(s, degree)


def test_parse_and_print_roundtrip():
    for s in ["()", "(1,2)", "(1,2)(3,4)", "(1,2,3)(4,5)", "(2,7)(3,4)(5,9)"]:
        p = P(s, 9)
        assert str(p) == s
    assert str(Perm.identity(5)) == "()"
    with pytest.raises(ValueError):
        P("(1,1)", 3)
    with pytest.raises(ValueError):
        P("(1,4)", 3)


def composed_cycles(degree, cycles):
    """The quadratic construction: one full image array per cycle."""
    img = np.arange(degree)
    for cyc in cycles:
        step = np.arange(degree)
        for x, y in zip(cyc, cyc[1:] + cyc[:1]):
            step[x - 1] = y - 1
        img = step[img]
    return img


@st.composite
def _cycle_lists(draw):
    degree = draw(st.integers(1, 12))
    cycles = draw(st.lists(
        st.lists(st.integers(1, degree), unique=True, max_size=degree),
        max_size=6))
    return degree, cycles


@settings(max_examples=300, deadline=None)
@given(_cycle_lists())
def test_from_cycles_matches_composition(case):
    degree, cycles = case
    p = Perm.from_cycles(degree, cycles)
    assert p.img.tolist() == composed_cycles(degree, cycles).tolist()
    text = "".join("(" + ",".join(map(str, c)) + ")" for c in cycles if c)
    assert Perm.parse(text, degree) == p


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 400).flatmap(lambda n: st.permutations(range(n))))
def test_parse_inverts_str(img):
    # printed cycles are disjoint, the form parse places by one scatter
    p = Perm(img)
    assert Perm.parse(str(p), len(img)) == p


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2187).flatmap(lambda n: st.tuples(
    st.permutations(range(n)), st.integers(0, n // 2))))
def test_involutions_print_as_their_cycles(case):
    # str prints an involution from its cycle starts alone; the cycle walk
    # it skips is the reference
    order, k = case
    img = np.arange(len(order))
    a = np.array(order[:2 * k:2], dtype=np.intp)
    b = np.array(order[1:2 * k:2], dtype=np.intp)
    img[a], img[b] = b, a
    p = Perm(img)
    walked = "".join("(" + ",".join(map(str, c)) + ")" for c in p.cycles())
    assert str(p) == (walked or "()")
    assert Perm.parse(str(p), len(img)) == p


@pytest.mark.parametrize("text, degree, message", [
    ("(1,99999999999999999999)", 10, "point 99999999999999999999 outside 1..10"),
    ("(99999999999999999999,1)(2,3)", 10, "point 99999999999999999999 outside 1..10"),
    ("(1,2)", 65536, "degree too large for uint16 images"),
    ("()", 65536, "degree too large for uint16 images"),
    ("(1,2)", 10**30, "degree too large for uint16 images"),
    ("(1,2)", -1, "negative degree -1"),
    ("(1,2)()", 5, "invalid literal"),
    ("()(1,2)", 5, "invalid literal"),
    ("(1,2,)", 5, "invalid literal"),
    ("(1,x)", 5, "invalid literal"),
    ("(1,2.5)", 5, "invalid literal"),
    ("(1,2)(3", 5, "malformed permutation"),
    ("(1,6)", 5, "point 6 outside 1..5"),
    ("(0,1)", 5, "point 0 outside 1..5"),
    ("(3,4)(-1,2)", 5, "point -1 outside 1..5"),
    ("(1,2)(3,4,3)", 5, r"repeated point in cycle \(3, 4, 3\)"),
])
def test_parse_rejects_hostile_input(text, degree, message):
    with pytest.raises(ValueError, match=message):
        Perm.parse(text, degree)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2187).flatmap(lambda n: st.permutations(range(n))))
def test_parse_inverts_str_up_to_degree_2187(img):
    p = Perm(img)
    assert Perm.parse(str(p), len(img)) == p


@pytest.mark.parametrize("text, degree, message", [
    ("(1,99999999999999999999)", 5, "point 99999999999999999999 outside 1..5"),
    ("(1,65536)", 10, "point 65536 outside 1..10"),
    ("(1,-1)", 5, "point -1 outside 1..5"),
    ("(1,0)", 5, "point 0 outside 1..5"),
    ("(-0,1)", 5, "point 0 outside 1..5"),
    ("(1,,2)", 5, "invalid literal for int"),
    ("(1,2))((3,4)", 5, "invalid literal for int"),
])
def test_parse_falls_back_to_from_cycles_messages(text, degree, message):
    with pytest.raises(ValueError, match=message):
        Perm.parse(text, degree)


@pytest.mark.parametrize("text, cycles", [
    ("(1)(2,3)", [(2, 3)]),  # a cycle of one point moves nothing
    ("(2,3)(1)", [(2, 3)]),
    ("(1,2)(0)", [(1, 2)]),
    ("(7)(1,2)", [(1, 2)]),
    ("(1,2)(1,2)", []),  # cycles that share points compose
    ("(1,2)(2,3)", [(1, 2), (2, 3)]),
    ("(5,1,3)", [(1, 3, 5)]),
])
def test_parse_irregular_cycles(text, cycles):
    assert Perm.parse(text, 5) == Perm.from_cycles(5, cycles)


def test_from_cycles_rejects_bad_points():
    with pytest.raises(ValueError, match="outside"):
        Perm.from_cycles(3, [(1, 2), (2, 0)])
    with pytest.raises(ValueError, match="outside"):
        Perm.from_cycles(3, [(1, 2), (3, 4)])
    with pytest.raises(ValueError, match="repeated"):
        Perm.from_cycles(3, [(1, 2, 1)])


def test_composition_is_left_to_right():
    p = P("(1,2)", 3)
    q = P("(2,3)", 3)
    # apply p first: 1 -> 2 -> 3
    assert str(p * q) == "(1,3,2)"
    assert str(q * p) == "(1,2,3)"


def test_inverse_and_power():
    g = P("(1,4,2,3)(5,6)", 6)
    assert g.order() == 4
    assert (g * g.inverse()).is_identity()
    assert g**4 == Perm.identity(6)
    assert g**-1 == g.inverse()
    assert g**3 == g.inverse()


def test_conjugation():
    g = P("(1,2)", 4)
    h = P("(1,3)(2,4)", 4)
    assert g.conj(h) == P("(3,4)", 4)


def test_element_order_examples():
    assert Perm.identity(4).order() == 1
    assert P("(1,4,2,3)(5,6)", 6).order() == 4


def test_trivial_group():
    G = generate(1, [])
    assert G.order == 1
    assert G.elements == (Perm.identity(1),)


def test_s3_classes():
    G = generate(3, [P("(1,2)", 3), P("(1,2,3)", 3)])
    assert G.order == 6
    sizes = sorted(len(c) for c in G.conjugacy_classes())
    assert sizes == [1, 2, 3]


def test_elementary_abelian_classes_singletons():
    G = elementary_abelian_2(3)
    assert G.order == 8
    assert all(len(c) == 1 for c in G.conjugacy_classes())
    assert G.is_elementary_abelian_2()
    assert trivial_group().is_elementary_abelian_2()


def test_elements_sorted_lexicographically():
    G = generate(3, [P("(1,2)", 3), P("(1,2,3)", 3)])
    keys = [e.sort_key() for e in G.elements]
    assert keys == sorted(keys)
    imgs = [tuple(int(x) for x in e.img) for e in G.elements]
    assert imgs == sorted(imgs)


def test_capacity_ceiling(monkeypatch):
    monkeypatch.setattr(permgrp, "DEFAULT_CEILING", 3)
    with pytest.raises(CapacityError):
        PermGroup(5, [P("(1,2,3,4,5)", 5)]).order


def test_standard_constructions():
    assert symmetric_group(5).order == 120
    assert symmetric_group(6).order == 720
    assert alternating_group(5).order == 60
    assert alternating_group(4).order == 12
    assert cyclic_group(12).order == 12
    assert dihedral_group(4).order == 4
    assert dihedral_group(8).order == 8
    assert dihedral_group(12).order == 12
    assert elementary_abelian_2(4).order == 16


def test_quaternion_and_dicyclic():
    Q8 = quaternion_group()
    assert Q8.order == 8
    assert Q8.center().order < Q8.order  # not abelian
    assert dict(Q8.order_histogram())[2] == 1
    dic = dicyclic_group_12()
    assert dic.order == 12
    assert dic.center().order < dic.order  # not abelian
    assert dict(dic.order_histogram())[2] == 1


def test_direct_product():
    G = direct_product(cyclic_group(2), dihedral_group(8))
    assert G.order == 16
    assert G.degree == 2 + 4
    assert G.center().order == 4


def test_center_and_derived():
    D8 = dihedral_group(8)
    assert D8.center().order == 2
    S4 = symmetric_group(4)
    assert S4.derived_subgroup().order == 12
    assert S4.center().order == 1
    assert isomorphic(S4.derived_subgroup(), alternating_group(4))


def test_abelian_invariants():
    assert symmetric_group(3).abelian_invariants() == (2,)
    assert cyclic_group(6).abelian_invariants() == (2, 3)
    assert elementary_abelian_2(3).abelian_invariants() == (2, 2, 2)
    assert direct_product(cyclic_group(2), cyclic_group(4)).abelian_invariants() == (2, 4)
    assert symmetric_group(4).abelian_invariants() == (2,)
    assert alternating_group(4).abelian_invariants() == (3,)
    assert quaternion_group().abelian_invariants() == (2, 2)


def test_subgroup_and_lagrange():
    S6 = symmetric_group(6)
    K = S6.subgroup([P("(1,2)", 6), P("(3,4)", 6), P("(5,6)", 6)])
    assert K.order == 8
    assert K.is_elementary_abelian_2()
    with pytest.raises(ValueError):
        alternating_group(4).subgroup([P("(1,2)", 4)])


def test_normal_closure():
    S4 = symmetric_group(4)
    N = S4.normal_closure([P("(1,2)(3,4)", 4)])
    assert N.order == 4
    assert S4.is_normal(N)
    # closure seeded from the identity alone is trivial
    assert S4.normal_closure([Perm.identity(4)]).order == 1
    # simplicity of A5: every non-identity class closes to the whole group
    A5 = alternating_group(5)
    for cls in A5.conjugacy_classes():
        rep = cls[0]
        if not rep.is_identity():
            assert A5.normal_closure([rep]).order == 60
    assert A5.normal_closure([A5.elements[0]], abort_above=59) is None or True
    assert A5.normal_closure([P("(1,2,3)", 5)], abort_above=59) is None


def test_quotient_with_tracked_images():
    a, b = P("(1,2)", 4), P("(3,4)", 4)
    G = PermGroup(4, [a, b], tracked={"a": a, "b": b, "ab": a * b})
    N = G.subgroup([a * b])
    Q = G.quotient(N)
    assert Q.order == 2
    assert Q.tracked["a"] == Q.tracked["b"]
    assert Q.tracked["ab"].is_identity()
    S4 = symmetric_group(4)
    V = S4.normal_closure([P("(1,2)(3,4)", 4)])
    Q2 = S4.quotient(V)
    assert Q2.order == 6
    assert isomorphic(Q2, symmetric_group(3))
    with pytest.raises(ValueError):
        S4.quotient(S4.subgroup([P("(1,2)", 4)]))


def test_quotient_of_self_is_trivial():
    S4 = symmetric_group(4)
    assert S4.quotient(S4).order == 1


def test_isomorphism_search_frees_its_groups_without_the_cyclic_gc():
    # a group left in a reference cycle lives until a full collection
    G, H = dihedral_group(12), direct_product(cyclic_group(2), symmetric_group(3))
    dead = weakref.ref(H)
    gc.disable()
    try:
        assert find_isomorphism(G, H) is not None
        del H
        assert dead() is None
    finally:
        gc.enable()


def test_isomorphic_basics():
    D8 = dihedral_group(8)
    assert isomorphic(D8, D8)
    assert not isomorphic(elementary_abelian_2(3), D8)
    other = generate(8, [P("(1,2,3,4)(5,6,7,8)", 8), P("(1,5)(2,8)(3,7)(4,6)", 8)])
    assert other.order == 8
    assert isomorphic(D8, other)
    assert not isomorphic(D8, quaternion_group())
    assert not isomorphic(cyclic_group(4), elementary_abelian_2(2))
    assert isomorphic(dihedral_group(12), direct_product(cyclic_group(2), symmetric_group(3)))
    assert isomorphic(trivial_group(), trivial_group(3))


def test_fingerprint_fields():
    fp = symmetric_group(4).fingerprint()
    assert fp.order == 24
    assert fp.class_count == 5
    assert fp.center_order == 1
    assert fp.derived_order == 12
    assert fp.abelian_invariants == (2,)
    assert dict(fp.order_histogram) == {1: 1, 2: 9, 3: 8, 4: 6}


def test_involutions():
    assert len(symmetric_group(4).involutions()) == 9
    assert len(quaternion_group().involutions()) == 1


def test_generating_tuple():
    S4 = symmetric_group(4)
    gens = S4.generating_tuple()
    assert PermGroup(4, gens).order == 24
    assert len(gens) <= 3
    assert trivial_group().generating_tuple() == ()


# -- base images and product orders ------------------------------------------


def _separates(G):
    images = G.element_images[:, G.base()]
    return len(np.unique(images, axis=0)) == G.order


def test_base_follows_stabiliser_chain():
    assert list(symmetric_group(5).base()) == [0, 1, 2, 3]
    assert list(cyclic_group(7).base()) == [0]
    assert list(trivial_group().base()) == []
    for G in (symmetric_group(5), dihedral_group(12), quaternion_group(),
              direct_product(symmetric_group(3), cyclic_group(4)), trivial_group()):
        assert _separates(G)


def test_element_orders_match_cycles():
    for G in (symmetric_group(5), dicyclic_group_12(), trivial_group()):
        assert G.element_orders().tolist() == [p.order() for p in G.elements]


def test_product_and_power_indices():
    G = direct_product(symmetric_group(3), dihedral_group(8))
    E, elems = G.element_images, G.elements
    got = G.product_indices(E, E)
    assert got.shape == (G.order, G.order)
    for i, p in enumerate(elems):
        assert [elems[j] for j in got[i]] == [p * q for q in elems]
    assert G.product_orders(E[:3], E).tolist() == [
        [(p * q).order() for q in elems] for p in elems[:3]]
    for e in (1, 2, 3, 5):
        assert [elems[j] for j in G.power_indices(np.arange(G.order), e)] == [
            p**e for p in elems]


def test_row_keys_beyond_int64():
    # base of length 6 on 6000 points: 6000**6 does not fit an int64 key
    gens = [Perm.from_cycles(6000, [(2 * i + 1, 2 * i + 2)]) for i in range(6)]
    G = PermGroup(6000, gens)
    assert len(G.base()) == 6 and _separates(G)
    E, elems = G.element_images, G.elements
    assert [elems[j] for j in G.product_indices(E[:5], E)[4]] == [
        elems[4] * q for q in elems]
    assert G.element_orders().tolist() == [1] + [2] * 63


def test_lookup_rejects_non_member_images():
    G = cyclic_group(5)
    with pytest.raises(ValueError, match="non-member"):
        G.indices_of_base_images(np.array([[7]]))


# -- conjugacy class labels ---------------------------------------------------


def _g6():
    gens = ("(1,2)(3,4)", "(1,3)(2,4)(5,6)(7,8)(9,10)(11,12)",
            "(1,2)(3,5)(4,7)(6,9)(8,11)(10,12)")
    return generate(12, [P(s, 12) for s in gens])


def _g9():
    gens = ("(1,2)(3,4)(5,6)(7,8)", "(1,8)(2,7)(3,4)(5,6)",
            "(2,5)(3,6)(9,10)(11,12)")
    return generate(12, [P(s, 12) for s in gens])


def _g10():
    gens = ("(1,2)(3,4)(5,6)(7,8)(9,10)(11,12)",
            "(1,3)(2,4)(5,8)(6,7)(9,12)(10,11)",
            "(1,7)(2,6)(3,9)(4,11)(5,10)(8,12)")
    return generate(12, [P(s, 12) for s in gens])


@pytest.mark.parametrize("build", [lambda: symmetric_group(4),
                                   lambda: alternating_group(5), _g6])
def test_class_labels_match_brute_force(build):
    # x ~ y iff some g in G has g^-1 x g = y, over every element g
    G = build()
    E = G.element_images
    index = {row.tobytes(): i for i, row in enumerate(E)}
    conjugates = [set() for _ in range(G.order)]
    for g in G.elements:
        for x, row in enumerate(g.img[E[:, g.inverse().img]]):
            conjugates[x].add(index[row.tobytes()])
    labels = G.class_labels()
    for x in range(G.order):
        assert set(np.flatnonzero(labels == labels[x])) == conjugates[x]
    # numbered by least member, matching conjugacy_classes
    assert [G.index_of(c[0]) for c in G.conjugacy_classes()] == [
        int(np.flatnonzero(labels == k)[0]) for k in range(labels.max() + 1)]
    for g in G.generators:
        assert [G.elements[j] for j in G.conjugation_map(g)] == [
            x.conj(g) for x in G.elements]


def test_class_union():
    S4 = symmetric_group(4)
    union = S4.class_union([P("(1,2)", 4), P("(3,4)", 4), P("(1,2,3)", 4)])
    assert [S4.elements[i].order() for i in union].count(2) == 6
    assert len(union) == 6 + 8
    assert list(union) == sorted(union)
    assert len(S4.class_union([])) == 0
    with pytest.raises(KeyError):
        alternating_group(4).class_union([P("(1,2)", 4)])


@pytest.mark.parametrize("build", [lambda: symmetric_group(4),
                                   lambda: alternating_group(5), _g6, _g9,
                                   _g10])
def test_class_closure_matches_normal_closure(build):
    G = build()
    labels = G.class_labels()
    reps = G.class_representatives()
    assert (labels[reps] == np.arange(len(reps))).all()
    for k in range(len(reps)):
        rep = G.elements[reps[k]]
        S = G.class_closure({k})
        N = G.normal_closure([rep])
        assert set(np.flatnonzero(np.isin(labels, list(S)))) == {
            G.index_of(n) for n in N.elements}
        assert G.classes_meeting(N.elements) == S
        # the bound answers None exactly where the element closure aborts
        for bound in {1, max(1, N.order - 1), N.order, G.order // 2}:
            assert (G.class_closure({k}, bound=bound) is None) == (
                G.normal_closure([rep], abort_above=bound) is None)


def test_class_product_is_product_subgroup():
    S4 = symmetric_group(4)
    V = S4.classes_meeting([P("(1,2)(3,4)", 4)]) | {0}
    A4 = S4.class_closure(S4.classes_meeting([P("(1,2,3)", 4)]))
    T = S4.class_closure(S4.classes_meeting([P("(1,2)", 4)]))
    assert S4.class_product(V, V) == V
    assert S4.class_product(V, A4) == A4
    assert S4.class_product(A4, T) == T == set(range(len(S4.conjugacy_classes())))


def test_center_is_the_size_one_classes():
    for G in (_g6(), _g9(), _g10(), dihedral_group(8), symmetric_group(4)):
        E = G.element_images
        central = [i for i in range(G.order)
                   if all((g.img[E[i]] == E[i][g.img]).all()
                          for g in G.generators)]
        assert [G.index_of(z) for z in G.center().elements] == central


def test_is_generated_by():
    G = _g6()
    assert G.is_generated_by(G.generators)
    assert G.is_generated_by(list(G.generators[::-1]) + [G.identity()])
    a, b, c = G.generators
    assert G.is_generated_by([a, b * c, c])
    assert not G.is_generated_by([a, b])


@pytest.mark.parametrize("build", [lambda: symmetric_group(4),
                                   lambda: alternating_group(5), _g6, _g10])
def test_index_closure_matches_fresh_closure(build):
    G = build()
    reps = [G.elements[i] for i in G.class_representatives()[1:7]]
    subsets = ([[x] for x in reps] + [list(p) for p in itertools.permutations(reps, 2)]
               + [reps])
    for gens in subsets:
        fresh = PermGroup(G.degree, gens)
        H = G.subgroup(gens)
        assert np.array_equal(H.element_images, fresh.element_images)
        # greedy: a seed is picked only when those picked before miss it
        kept = []
        for g in gens:
            if g not in PermGroup(G.degree, kept):
                kept.append(g)
        assert H.generators == tuple(kept)
        for bound in (fresh.order - 1, fresh.order, fresh.order + 1):
            within = G.subgroup_from_indices(G.indices_of(gens), bound)
            assert (within is None) == (fresh.order > bound)
        # resuming from the first seed's closure gives the fresh closure; the
        # first seed again and the identity are already inside it
        idx = G.indices_of(gens).tolist()
        first = G.index_closure(idx[:1])
        kept = first[0].copy()
        resumed = G.index_closure(idx[1:] + idx[:1] + [0], start=first)
        whole = G.index_closure(idx + idx[:1] + [0])
        assert np.array_equal(resumed[0], whole[0])
        assert resumed[1] == whole[1]
        assert np.array_equal(first[0], kept) and first[1] == idx[:1]


def test_non_member_sharing_base_images():
    G = generate(4, [P("(1,2)(3,4)", 4)])
    p = P("(1,2)", 4)
    # p has the base images of the generator, element 1
    assert G.indices_of_base_images(p.img[G.base()][None]).tolist() == [1]
    assert p not in G
    with pytest.raises(KeyError):
        G.index_of(p)
    with pytest.raises(ValueError):
        G.subgroup([p])


@pytest.mark.parametrize("degree, gens, words, images", [
    # G2 and its first table row: |N| = 9, quotient order 16
    (10, ("(1,2)(3,4)", "(5,6)(7,8)", "(1,2)(3,9)(4,5)(6,10)"), ("(a * b^c)^2",),
     ("(1,2)(3,5)(4,8)(6,11)(7,12)(9,10)(13,15)(14,16)",
      "(1,3)(2,5)(4,9)(6,12)(7,11)(8,10)(13,16)(14,15)",
      "(1,4)(2,6)(3,7)(5,10)(8,13)(9,14)(11,15)(12,16)")),
    # G9 and its first table row: |N| = 48, quotient order 24
    (12, ("(1,2)(3,4)(5,6)(7,8)", "(1,8)(2,7)(3,4)(5,6)", "(2,5)(3,6)(9,10)(11,12)"),
     ("(ac)^2", "(a * b^c)^2"),
     ("(1,2)(3,5)(4,6)(7,9)(8,10)(11,13)(12,14)(15,17)(16,18)(19,21)(20,22)(23,24)",
      "(1,3)(2,5)(4,8)(6,10)(7,11)(9,13)(12,16)(14,18)(15,19)(17,21)(20,23)(22,24)",
      "(1,4)(2,6)(3,7)(5,9)(8,12)(10,14)(11,15)(13,17)(16,20)(18,22)(19,23)(21,24)")),
])
def test_quotient_images_pinned(degree, gens, words, images):
    # cosets are numbered breadth first from N, so the images are fixed
    a, b, c = (P(s, degree) for s in gens)
    G = PermGroup(degree, [a, b, c], tracked={"a": a, "b": b, "c": c})
    seeds = [evaluate_word(parse_word(w), G.tracked) for w in words]
    Q = G.quotient(G.normal_closure(seeds))
    assert [str(g) for g in Q.generators] == list(images)
    assert {k: str(v) for k, v in Q.tracked.items()} == dict(zip("abc", images))


def _coset_action(G, N):
    """The action of G on the cosets N x, one coset at a time from Perms.

    Cosets are numbered breadth first from N, each coset's generators in
    order.  Returns the quotient's generators, its tracked images as image
    lists, and its elements from a fresh closure of those generators.
    """
    N_rows = N.element_images

    def coset(x):
        return frozenset(row.tobytes() for row in x.img[N_rows])

    reps = [G.identity()]
    number = {coset(reps[0]): 0}
    images = [[] for _ in G.generators]
    i = 0
    while i < len(reps):
        for k, g in enumerate(G.generators):
            y = reps[i] * g
            c = coset(y)
            if c not in number:
                number[c] = len(reps)
                reps.append(y)
            images[k].append(number[c])
        i += 1
    tracked = {name: [number[coset(r * p)] for r in reps]
               for name, p in G.tracked.items()}
    Q = PermGroup(len(reps), [Perm(np.array(t)) for t in images])
    return Q.generators, tracked, Q.element_images


def _assert_quotient_matches_coset_action(G, N, Q):
    gens, tracked, elements = _coset_action(G, N)
    assert Q.generators == gens
    assert {k: p.img.tolist() for k, p in Q.tracked.items()} == tracked
    assert np.array_equal(Q.element_images, elements)


@pytest.mark.parametrize("build, largest", [(_g6, 192), (_g10, 1920)])
def test_quotient_matches_coset_action_on_lattice(build, largest):
    G = build()
    G.tracked = dict(zip("abc", G.generators))
    lattice = normal_subgroups_index_gt(G, 1)
    # G10's largest quotient is by its central 2
    assert max(G.order // N.order for N in lattice) == largest
    for N in lattice:
        _assert_quotient_matches_coset_action(G, N, G.quotient(N))


def test_quotient_by_the_centre_of_g10_stays_small():
    # the quotient's rows are 1920 x 1920 uint16, 7.0 MiB
    G = _g10()
    Z = G.center()
    assert Z.order == 2
    tracemalloc.start()
    try:
        Q = G.quotient(Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert Q.order == 1920
    assert peak <= 12 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def _abelian_invariants_by_quotient(G):
    """Primary invariants of G/G', read off the element orders of the
    regular quotient G/G' (brute force)."""
    Q = G.quotient(G.derived_subgroup())
    orders = Q.element_orders().tolist()
    invariants = []
    for p in (p for p in range(2, Q.order + 1)
              if Q.order % p == 0 and all(p % d for d in range(2, p))):
        # m_k = number of cyclic p-power factors of exponent >= k
        ms, s_prev, k = [], 1, 1
        while True:
            s_k = sum(1 for o in orders if p**k % o == 0)
            m = round(math.log(s_k // s_prev, p)) if s_k > s_prev else 0
            if m == 0:
                break
            ms.append(m)
            s_prev, k = s_k, k + 1
        invariants += [p ** sum(1 for m in ms if m > i) for i in range(ms[0] if ms else 0)]
    return tuple(sorted(invariants))


@pytest.mark.parametrize("build", [_g6, _g10])
def test_abelian_invariants_match_quotient_on_lattice(build):
    G = build()
    for H in [G] + [G.quotient(N) for N in normal_subgroups_index_gt(G, 1)]:
        assert H.abelian_invariants() == _abelian_invariants_by_quotient(H)


# -- property-based checks ----------------------------------------------------

perm_strategy = st.integers(2, 5).flatmap(
    lambda n: st.permutations(list(range(n)))
).map(lambda img: Perm(np.array(img)))


def _group_strategy():
    def build(degree, seed):
        import random

        rng = random.Random(seed)
        gens = []
        for _ in range(2):
            img = list(range(degree))
            rng.shuffle(img)
            gens.append(Perm(np.array(img)))
        return PermGroup(degree, gens)

    return st.tuples(st.integers(3, 5), st.integers(0, 10**6)).map(
        lambda t: build(*t)
    )


@settings(max_examples=25, deadline=None)
@given(_group_strategy())
def test_classes_partition_group(G):
    classes = G.conjugacy_classes()
    total = sum(len(c) for c in classes)
    assert total == G.order
    for c in classes:
        assert G.order % len(c) == 0


@settings(max_examples=25, deadline=None)
@given(_group_strategy(), st.lists(st.integers(0, 10**6), max_size=3),
       st.lists(st.integers(0, 10**6), max_size=3))
def test_lagrange_and_quotient_product(G, picks, tracked):
    N = G.normal_closure([G.elements[i % G.order] for i in picks])
    assert G.order % N.order == 0
    G.tracked = {f"t{i}": G.elements[j % G.order] for i, j in enumerate(tracked)}
    Q = G.quotient(N)
    assert Q.order * N.order == G.order
    _assert_quotient_matches_coset_action(G, N, Q)


@settings(max_examples=25, deadline=None)
@given(_group_strategy(), st.integers(0, 10**6))
def test_normal_closure_conjugation_invariant(G, pick):
    x = G.elements[pick % G.order]
    N = G.normal_closure([x])
    for g in G.generators:
        for n in N.generators:
            assert n.conj(g) in N


@settings(max_examples=25, deadline=None)
@given(_group_strategy(), st.lists(st.integers(0, 10**6), max_size=3))
def test_abelian_invariants_match_quotient(G, picks):
    N = G.normal_closure([G.elements[i % G.order] for i in picks])
    for H in (G, G.quotient(N)):
        assert H.abelian_invariants() == _abelian_invariants_by_quotient(H)


@settings(max_examples=15, deadline=None)
@given(_group_strategy())
def test_isomorphic_reflexive(G):
    assert isomorphic(G, G)


@settings(max_examples=10, deadline=None)
@given(_group_strategy(), _group_strategy())
def test_isomorphic_symmetric(G, H):
    assert isomorphic(G, H) == isomorphic(H, G)
