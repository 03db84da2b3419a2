"""Maximal-group catalog, quotient tables, and the classification driver."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache, cached_property
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .axial import (
    ObstructionCertificate,
    TConfig,
    cert_to_dict,
    obstruct,
    pair_type_counts,
    t_closure,
    t_equivalent,
)
from .fpgrp import (
    DEFAULT_CAPACITY,
    Presentation,
    coset_action,
    evaluate_word,
    parse_word,
    todd_coxeter,
    tp_presentation,
)
from .permgrp import (
    Perm,
    PermGroup,
    alternating_group,
    cyclic_group,
    dicyclic_group_12,
    dihedral_group,
    direct_product,
    elementary_abelian_2,
    isomorphic,
    quaternion_group,
    symmetric_group,
    trivial_group,
)

__all__ = [
    "CatalogEntry",
    "ClassificationError",
    "ClassificationReport",
    "Configuration",
    "QuotientRecord",
    "TypeEntry",
    "EXCLUDED_TYPE_NAMES",
    "GROUP_NAMES",
    "catalog",
    "classify_all",
    "entry",
    "identify",
    "is_triangle_point",
    "lemma_m66_groups",
    "lemma_r4_groups",
    "normal_subgroups_index_gt",
    "obstruction_target",
    "quotient_records",
    "report_to_json",
    "small_tp_groups",
    "variant_groups_72",
    "variant_groups_216",
    "write_outputs",
]


class ClassificationError(RuntimeError):
    """A cross-validation step failed; the named entry cannot be trusted."""


# x = b.(ac)^3 has order 6 in the largest group; its cube spans, with a and
# b, the 2^3 used as the enumeration subgroup (index 2187).
X3_WORD = "bacacacbacacacbacacac"

# name -> (claimed type, (m, n, p), (r1..r5), order, generators)
# G3, G5 and G7 carry no usable generator triple and are built from their
# presentations instead (generators = None).
_CATALOG_DATA: tuple[
    tuple[str, str, tuple[int, int, int], tuple[Optional[int], ...], int,
          Optional[tuple[int, str, str, str]]], ...
] = (
    ("G1", "2wr2^2", (4, 4, 4), (None, None, None, None, None), 64,
     (8, "(1,2)(3,4)", "(1,3)(2,4)(5,6)(7,8)", "(1,5)(2,7)")),
    ("G2", "(S3xS3):2^2", (4, 4, 6), (None, None, None, None, None), 144,
     (10, "(1,2)(3,4)", "(5,6)(7,8)", "(1,2)(3,9)(4,5)(6,10)")),
    ("G3", "2^4:D10", (4, 5, 5), (None, None, None, None, None), 160, None),
    ("G4", "2xS5", (4, 5, 6), (None, None, None, None, None), 240,
     (9, "(1,2)(3,4)", "(1,2)(3,4)(5,6)(7,8)", "(1,9)(2,5)(3,4)(7,8)")),
    ("G5", "L2(11)", (5, 5, 5), (None, None, None, None, None), 660, None),
    ("G6", "(2^4:D12)x2", (4, 6, 6), (4, None, None, None, None), 384,
     (12, "(1,2)(3,4)", "(1,3)(2,4)(5,6)(7,8)(9,10)(11,12)",
      "(1,2)(3,5)(4,7)(6,9)(8,11)(10,12)")),
    ("G7", "2^4:A5", (5, 5, 6), (None, 5, None, None, None), 960, None),
    # the G8 triple as printed realizes orders (6, 6, 5); swapping a for ab
    # (which permutes m, n, p) realizes (5, 6, 6) and satisfies R2^4
    ("G8", "2xS6", (5, 6, 6), (None, 4, None, None, None), 1440,
     (10, "(3,4)(5,6)(7,8)(9,10)", "(1,2)(3,4)(5,6)(9,10)",
      "(1,3)(4,5)(7,8)(9,10)")),
    ("G9", "(2^4:(S3xS3))x2", (6, 6, 6), (4, 6, 6, None, None), 1152,
     (12, "(1,2)(3,4)(5,6)(7,8)", "(1,8)(2,7)(3,4)(5,6)",
      "(2,5)(3,6)(9,10)(11,12)")),
    ("G10", "2^5:S5", (6, 6, 6), (5, 5, 5, 4, None), 3840,
     (12, "(1,2)(3,4)(5,6)(7,8)(9,10)(11,12)",
      "(1,3)(2,4)(5,8)(6,7)(9,12)(10,11)",
      "(1,7)(2,6)(3,9)(4,11)(5,10)(8,12)")),
    ("G11", "(3^4:2):(3^{1+2}:2^2)", (6, 6, 6), (6, 6, 6, None, 3), 17496,
     None),
)

GROUP_NAMES: tuple[str, ...] = tuple(row[0] for row in _CATALOG_DATA)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    claimed: str
    mnp: tuple[int, int, int]
    r: tuple[Optional[int], ...]
    order: int
    source: str  # "table-generators" | "coset-action"
    group: PermGroup = field(compare=False, repr=False)

    @property
    def presentation(self) -> Presentation:
        return tp_presentation(*self.mnp, self.r)

    def images(self) -> dict[str, Perm]:
        return {k: self.group.tracked[k] for k in ("a", "b", "c")}


def _coset_group(
    pres: Presentation,
    extra: Iterable[str] = (),
    subgroup: Iterable[str] = (),
    name: str = "",
    capacity: int = DEFAULT_CAPACITY,
) -> PermGroup:
    for w in extra:
        pres = pres.with_relator(parse_word(w), 1)
    table = todd_coxeter(pres, subgroup=tuple(parse_word(w) for w in subgroup),
                         capacity=capacity)
    G = coset_action(table)
    G.name = name
    return G


def _explicit(deg: int, sa: str, sb: str, sc: str, name: str) -> PermGroup:
    a, b, c = (Perm.parse(s, deg) for s in (sa, sb, sc))
    return PermGroup(deg, [a, b, c], name=name,
                     tracked={"a": a, "b": b, "c": c})


def entry(name: str, capacity: int = DEFAULT_CAPACITY) -> CatalogEntry:
    """One of the eleven maximal groups, cross-validated when first built.

    Each of its enumerations may define at most ``capacity`` cosets, or it
    raises CapacityError.  Built once per (name, capacity), however the call
    spells its arguments.
    """
    return _entry(name, capacity)


@cache
def _entry(name: str, capacity: int) -> CatalogEntry:
    try:
        _, claimed, mnp, r, order, gens = next(
            row for row in _CATALOG_DATA if row[0] == name)
    except StopIteration:
        raise KeyError(name) from None
    pres = tp_presentation(*mnp, r)
    if gens is not None:
        G = _explicit(*gens, name)
        source = "table-generators"
    else:
        subgroup = ("a", "b", X3_WORD) if name == "G11" else ()
        G = _coset_group(pres, subgroup=subgroup, name=name,
                         capacity=capacity)
        source = "coset-action"
    if G.order != order:
        raise ClassificationError(
            f"{name}: generated order {G.order}, catalog says {order}")
    images = {k: G.tracked[k] for k in ("a", "b", "c")}
    for w in pres.relator_words():
        if not evaluate_word(w, images).is_identity():
            raise ClassificationError(f"{name}: relator {w} fails")
    # generation is structural: the group is built as the closure of the
    # tracked triple in both construction routes
    if [p.key() for p in G.generators] != [images[k].key() for k in "abc"]:
        raise ClassificationError(f"{name}: generators drifted from a,b,c")
    count = todd_coxeter(pres, capacity=capacity).coset_count
    if count != order:
        raise ClassificationError(
            f"{name}: enumeration gives {count} cosets, expected {order}")
    return CatalogEntry(name, claimed, mnp, tuple(r), order, source, G)


entry.cache_info = _entry.cache_info


def catalog(capacity: int = DEFAULT_CAPACITY) -> list[CatalogEntry]:
    """The eleven maximal groups, each one cross-validated before return."""
    return [entry(name, capacity) for name in GROUP_NAMES]


# -- normal subgroup lattice ----------------------------------------------------


def normal_subgroups_index_gt(G: PermGroup, bound: int = 12) -> list[PermGroup]:
    """All normal subgroups of index strictly greater than bound.

    A normal subgroup is a union of conjugacy classes, so the lattice is
    built on class sets (Hulpke, "Computing normal subgroups", ISSAC 1998).
    Complete: every normal subgroup is the join of the class closures it
    contains, so closing the atom set under pairwise joins finds them all.
    The join of A and B is the product set AB, of order |A||B|/|A n B|.
    """
    limit = -(-G.order // bound) - 1  # largest order with index > bound
    sizes = np.bincount(G.class_labels())

    def order(S: frozenset[int]) -> int:
        return int(sizes[list(S)].sum())

    found: set[frozenset[int]] = set()
    for cls in range(1, len(sizes)):  # class 0 is the identity
        S = G.class_closure({cls}, bound=limit)
        if S is not None:
            found.add(S)
    frontier = list(found)
    while frontier:
        fresh = []
        for A in frontier:
            for B in list(found):
                if A <= B or B <= A:
                    continue
                if order(A) * order(B) > limit * order(A & B):
                    continue
                J = G.class_product(A, B)
                if J not in found:
                    found.add(J)
                    fresh.append(J)
        frontier = fresh
    labels = G.class_labels()
    out = [G.subgroup_from_indices(np.flatnonzero(np.isin(labels, sorted(S))))
           for S in sorted(found, key=lambda S: (order(S), sorted(S)))]
    for N in out:
        if not G.is_normal(N):
            raise ClassificationError("lattice produced a non-normal subgroup")
    return out


# -- quotient table data ---------------------------------------------------------


@dataclass(frozen=True)
class RowSpec:
    order: int
    claimed: str
    words: tuple[str, ...]
    repaired: bool = False


# Five X cells are corrected; each original is impossible for its row:
#  * G4: the order-2 normal subgroup is the centre of 2xS5, and the central
#    involution of a direct product 2 x H is never a square, so no squared
#    word reaches it; R3 = ab.a^c has order 6 and R3^3 is central.
#  * G7: o(ac) = 5 there, so (ac)^3 has order 5 and cannot lie in the 2^4;
#    (abc)^3 is an involution whose closure is the 2^4.
#  * G9 row 2: o(abc) = 6, so (abc)^2 has order 3 and cannot lie in the 2^5;
#    the cube works.
#  * G11 rows 5 and 15: (a.a^c)^2 closes to the index-12 subgroup, not the
#    listed order-486 one (R1 completes the R1/R2/R3 pattern of rows 3-5);
#    (ab.c^(ac))^2 closes to the same subgroup as row 14, while
#    (a.c^(abc))^2 reaches the one order-81 normal subgroup the other three
#    rows miss.
PARENT_ROWS: dict[str, tuple[RowSpec, ...]] = {
    "G1": (RowSpec(4, "2xD8", ("(ac)^2",)),
           RowSpec(4, "2xD8", ("(bc)^2",)),
           RowSpec(4, "2xD8", ("(abc)^2",)),
           RowSpec(2, "2^4:2", ("(a * b^c)^2",))),
    "G2": (RowSpec(9, "2xD8", ("(a * b^c)^2",)),
           RowSpec(2, "(S3xS3):2", ("(a * b^c)^3",))),
    "G3": (),
    "G4": (RowSpec(2, "S5", ("(ab * a^c)^3",), repaired=True),),
    "G5": (),
    "G6": (RowSpec(16, "S4", ("(bc)^3", "(abc)^3")),
           RowSpec(16, "2^2xS3", ("(ac)^2",)),
           RowSpec(8, "2xS4", ("(ab * b^c)^3", "(a^c * c^b)^2")),
           RowSpec(8, "2xS4", ("(bc)^3",)),
           RowSpec(8, "2xS4", ("(abc)^3",)),
           RowSpec(4, "2^2xS4", ("(a^c * c^b)^2",)),
           RowSpec(2, "2^4:D12", ("(ab * b^c)^3",))),
    "G7": (RowSpec(16, "A5", ("(abc)^3",), repaired=True),),
    "G8": (RowSpec(2, "S6", ("((bc)^3 * b^(ca))^3",)),),
    "G9": (RowSpec(48, "2^2xS3", ("(ac)^2", "(a * b^c)^2")),
           RowSpec(48, "2^2xS3", ("(bc)^2", "(a * b^c)^2")),
           RowSpec(32, "S3xS3", ("(abc)^3", "(a * b^c)^2"), repaired=True),
           RowSpec(16, "2xS3xS3", ("(a * b^c)^2",)),
           RowSpec(2, "2^4:(S3xS3)", ("a * (b * c^(ac))^3",))),
    "G10": (RowSpec(32, "S5", ("((ac)^2(bc)^2)^2",)),
            RowSpec(2, "2^4:S5", ("(c^a * (bc)^3)^3",))),
}

G11_ROWS: tuple[RowSpec, ...] = (
    RowSpec(729, "2^2xS3", ("(ac)^2",)),
    RowSpec(729, "2^2xS3", ("(bc)^2", "(a * b^c)^2")),
    RowSpec(729, "2^2xS3", ("(abc)^2",)),
    RowSpec(486, "S3xS3", ("(ac)^3", "(ab * b^c)^2")),
    RowSpec(486, "S3xS3", ("(bc)^3", "(ab * a^c)^2")),
    RowSpec(486, "S3xS3", ("(abc)^3", "(a * b^c)^2"), repaired=True),
    RowSpec(243, "2xS3xS3", ("(a * b^c)^2",)),
    RowSpec(243, "2xS3xS3", ("(ab * b^c)^2",)),
    RowSpec(243, "2xS3xS3", ("(ab * a^c)^2",)),
    RowSpec(162, "3^{1+2}:2^2", ("(ac)^3",)),
    RowSpec(162, "3^{1+2}:2^2", ("(bc)^3",)),
    RowSpec(162, "3^{1+2}:2^2", ("(abc)^3",)),
    RowSpec(81, "S3xS3xS3", ("(acbcacb)^2",)),
    RowSpec(81, "2x(3^{1+2}:2^2)", ("(a * c^(bc))^2",)),
    RowSpec(81, "2x(3^{1+2}:2^2)", ("(b * c^(ac))^2",)),
    RowSpec(81, "2x(3^{1+2}:2^2)", ("(a * c^(abc))^2",), repaired=True),
    RowSpec(27, "S3:(3^{1+2}:2^2)", ("(ab * a^(cbc))^2", "(a * b^(cabc))^2")),
    RowSpec(27, "S3:(3^{1+2}:2^2)", ("(ab * b^(cac))^2", "(a * b^(cabc))^2")),
    RowSpec(27, "S3:(3^{1+2}:2^2)", ("(ab * b^(cac))^2", "(ab * a^(cbc))^2")),
    RowSpec(9, "(3^2:2):(3^{1+2}:2^2)", ("(a * b^(cabc))^2",)),
    RowSpec(9, "(3^2:2):(3^{1+2}:2^2)", ("(ab * b^(cac))^2",)),
    RowSpec(9, "(3^2:2):(3^{1+2}:2^2)", ("(ab * a^(cbc))^2",)),
    RowSpec(3, "(3^3:2):(3^{1+2}:2^2)", ("c^(acbcacb) * c^(bcacbca)",)),
)


def table_rows(parent: str) -> tuple[RowSpec, ...]:
    return G11_ROWS if parent == "G11" else PARENT_ROWS[parent]


# -- reference catalog and identification ----------------------------------------


# name, order and builder of each named construction identify compares with;
# a builder runs only when identify meets a group of its order
_REFERENCE_BUILDERS: tuple[tuple[str, int, object], ...] = (
    ("1", 1, trivial_group),
    ("2", 2, lambda: cyclic_group(2)),
    ("2^2", 4, lambda: elementary_abelian_2(2)),
    ("D8", 8, lambda: dihedral_group(8)),
    ("2^3", 8, lambda: elementary_abelian_2(3)),
    ("D12", 12, lambda: dihedral_group(12)),
    ("2xD8", 16, lambda: direct_product(cyclic_group(2), dihedral_group(8))),
    ("S4", 24, lambda: symmetric_group(4)),
    ("2^2xS3", 24, lambda: direct_product(elementary_abelian_2(2), symmetric_group(3))),
    ("2^4:2", 32, lambda: _coset_group(
        tp_presentation(4, 4, 4, (2, None, None, None, None)))),
    ("S3xS3", 36, lambda: direct_product(symmetric_group(3), symmetric_group(3))),
    ("2xS4", 48, lambda: direct_product(cyclic_group(2), symmetric_group(4))),
    ("A5", 60, lambda: alternating_group(5)),
    ("(S3xS3):2", 72, lambda: _coset_group(
        tp_presentation(4, 4, 6, (3, None, None, None, None)))),
    ("2xS3xS3", 72, lambda: direct_product(
        cyclic_group(2), symmetric_group(3), symmetric_group(3))),
    ("2^2xS4", 96, lambda: direct_product(elementary_abelian_2(2),
                                          symmetric_group(4))),
    ("3^{1+2}:2^2", 108, lambda: _coset_group(tp_presentation(3, 6, 6))),
    ("S5", 120, lambda: symmetric_group(5)),
    ("2^4:D12", 192, lambda: _coset_group(
        tp_presentation(4, 6, 6, (4, 3, None, None, None)))),
    ("S3xS3xS3", 216, lambda: direct_product(
        symmetric_group(3), symmetric_group(3), symmetric_group(3))),
    ("2x(3^{1+2}:2^2)", 216, lambda: _coset_group(
        _TOWER_BASE, extra=("(a * c^(bc))^2",), subgroup=("a", "b"))),
    ("2^4:(S3xS3)", 576, lambda: _coset_group(
        tp_presentation(6, 6, 6, (4, 6, 6, None, None)),
        extra=("a * (b * c^(ac))^3",))),
    ("S3:(3^{1+2}:2^2)", 648, lambda: obstruction_target("S3:(3^{1+2}:2^2)")),
    ("S6", 720, lambda: symmetric_group(6)),
    ("2^4:S5", 1920, lambda: obstruction_target("2^4:S5")),
    ("(3^2:2):(3^{1+2}:2^2)", 1944, lambda: obstruction_target("(3^2:2):(3^{1+2}:2^2)")),
    ("(3^3:2):(3^{1+2}:2^2)", 5832, lambda: obstruction_target("(3^3:2):(3^{1+2}:2^2)")),
)


@cache
def _references(order: int) -> tuple[tuple[str, PermGroup], ...]:
    """The named groups of one order, order-validated, in match order.

    Builders come first in table order, then the catalog entries of that
    order under their claimed types; only the builders' groups are renamed.
    No two may share a fingerprint: then distinct names are distinct types.
    """
    refs = []
    for name, want, build in _REFERENCE_BUILDERS:
        if want != order:
            continue
        R = build()
        if R.order != order:
            raise ClassificationError(
                f"reference {name}: order {R.order}, expected {order}")
        R.name = name
        refs.append((name, R))
    for name, _, _, _, stated, _ in _CATALOG_DATA:
        if stated == order:
            e = entry(name)
            refs.append((e.claimed, e.group))
    fps = [R.fingerprint() for _, R in refs]
    clash = [name for (name, _), fp in zip(refs, fps) if fps.count(fp) > 1]
    if clash:
        raise ClassificationError(f"references {' and '.join(clash)} of order "
                                  f"{order} share a fingerprint")
    return tuple(refs)


def identify(G: PermGroup) -> str:
    """Match against the reference catalog; placeholders are never a guess."""
    if G.order > 20000:
        raise ValueError("identification supports orders up to 20000")
    fp = G.fingerprint()
    for name, R in _references(G.order):
        if R.fingerprint() == fp and isomorphic(G, R):
            return name
    inv = ".".join(str(d) for d in fp.abelian_invariants) or "0"
    return f"?order{G.order}/cls{fp.class_count}/ab{inv}"


# -- triangle-point verdict -------------------------------------------------------


def is_triangle_point(G: PermGroup, a: Perm, b: Perm, c: Perm) -> bool:
    """a, b, c, ab are involutions generating G with class products of order <= 6."""
    for p in (a, b, c):
        if p.degree != G.degree or p not in G:
            raise ValueError("triple must lie in the group")
    seeds = (a, b, c, a * b)
    if (G.element_orders()[G.indices_of(seeds)] != 2).any():
        return False
    if not G.is_generated_by([a, b, c]):
        return False
    M = G.element_images[G.class_union(seeds)]
    # M is a union of classes and o(t^g s) = o(t s^(g^-1)), so the seeds as
    # left factors meet every product of two elements of M
    left = np.stack([p.img for p in seeds])
    return bool((G.product_orders(left, M) <= 6).all())


def small_tp_groups() -> list[PermGroup]:
    """The triangle-point groups of order at most 12, found exhaustively.

    Each group's tracked a, b, c is the first triangle-point triple found.
    """
    candidates = [
        # complete catalogs of the orders that a group containing 2^2 can have
        cyclic_group(4), elementary_abelian_2(2),
        cyclic_group(8), direct_product(cyclic_group(4), cyclic_group(2)),
        elementary_abelian_2(3), dihedral_group(8), quaternion_group(),
        cyclic_group(12), direct_product(cyclic_group(6), cyclic_group(2)),
        dihedral_group(12), alternating_group(4), dicyclic_group_12(),
    ]
    out = []
    for G in candidates:
        invs = G.involutions()
        triple = next((
            (a, b, c)
            for a in invs for b in invs if (a != b and (a * b).order() == 2)
            for c in invs if is_triangle_point(G, a, b, c)
        ), None)
        if triple is not None:
            G.name = identify(G)
            G.tracked = dict(zip("abc", triple))
            out.append(G)
    return out


# -- quotient records -------------------------------------------------------------


@dataclass(frozen=True)
class QuotientRecord:
    parent: str
    subgroup_order: int
    words: tuple[str, ...]
    claimed: str
    quotient_order: int
    type_name: str
    triangle_point: bool
    repaired: bool
    group: PermGroup = field(compare=False, repr=False)


def _g11_row_quotient(entry: CatalogEntry, row: RowSpec, want: int) -> PermGroup:
    # quotients of G11 come from its presentation plus the row's relators;
    # the smallest subgroup giving a faithful coset action wins
    for sub in (("a", "b", X3_WORD), ("a", "b"), ()):
        Q = _coset_group(entry.presentation, extra=row.words, subgroup=sub)
        if Q.order == want:
            return Q
    raise ClassificationError(
        f"{entry.name}: no faithful coset action for quotient of order {want}")


def _class_set(G: PermGroup, N: PermGroup) -> frozenset[int]:
    """Class numbers of the classes of G that make up its normal subgroup N."""
    idx = G.indices_of_base_images(N.element_images[:, G.base()])
    return frozenset(G.class_labels()[idx].tolist())


def quotient_records(
    entry: CatalogEntry, lattice: Optional[list[PermGroup]] = None
) -> list[QuotientRecord]:
    """One record per table row, cross-validated against the lattice."""
    rows = table_rows(entry.name)
    G = entry.group
    images = entry.images()
    if lattice is None:
        lattice = normal_subgroups_index_gt(G, 12)
    lattice_keys = {_class_set(G, N) for N in lattice}
    recs: list[QuotientRecord] = []
    seen: set[frozenset[int]] = set()
    for i, row in enumerate(rows):
        seeds = [evaluate_word(parse_word(w), images) for w in row.words]
        N = G.normal_closure(seeds)
        if N.order != row.order:
            raise ClassificationError(
                f"{entry.name} row {i}: closure has order {N.order}, "
                f"row says {row.order}")
        key = _class_set(G, N)
        if key not in lattice_keys:
            raise ClassificationError(
                f"{entry.name} row {i}: closure is not a lattice member")
        if key in seen:
            raise ClassificationError(
                f"{entry.name} row {i}: duplicates an earlier row's subgroup")
        seen.add(key)
        want = G.order // N.order
        if entry.name == "G11":
            Q = _g11_row_quotient(entry, row, want)
        else:
            Q = G.quotient(N)
        if Q.order != want:
            raise ClassificationError(f"{entry.name} row {i}: quotient order")
        tp = is_triangle_point(Q, *(Q.tracked[k] for k in "abc"))
        recs.append(QuotientRecord(
            parent=entry.name, subgroup_order=N.order, words=row.words,
            claimed=row.claimed, quotient_order=Q.order,
            type_name=identify(Q), triangle_point=tp,
            repaired=row.repaired, group=Q))
    return recs


# -- the ten excluded types -------------------------------------------------------


# The tower types are quotients of the G11 presentation.
_TOWER_BASE = tp_presentation(6, 6, 6, (6, 6, 6, None, 3))

# Excluded types: name -> (order, builder). Explicit generator triples are used
# where the non-existence arguments supply them; the rest are presentation
# quotients carrying tracked images of a, b, c.
_EXCLUDED_BUILDERS: dict[str, tuple[int, object]] = {
    "2xS3xS3": (72, lambda: _coset_group(
        tp_presentation(6, 6, 6, (2, 6, 6, None, None)), subgroup=("a", "b"))),
    "S6": (720, lambda: _explicit(
        6, "(1,2)(3,4)(5,6)", "(5,6)", "(2,3)(4,5)", "S6")),
    "(2^4:(S3xS3))x2": (1152, lambda: entry("G9").group),
    "2^4:S5": (1920, lambda: _explicit(
        16, "(1,2)(3,4)(5,6)(7,8)(9,10)(11,12)",
        "(1,3)(2,4)(5,6)(7,8)(13,14)(15,16)",
        "(1,12)(3,14)(4,6)(5,16)(7,11)(9,13)", "2^4:S5")),
    "S3xS3xS3": (216, lambda: _explicit(
        9, "(1,2)(4,5)", "(4,5)(7,8)", "(1,3)(4,6)(7,9)", "S3xS3xS3")),
    "2x(3^{1+2}:2^2)": (216, lambda: _explicit(
        11, "(1,4)(2,6)(3,5)(8,9)", "(1,4)(2,8)(6,9)(10,11)",
        "(2,7)(3,4)(5,9)", "2x(3^{1+2}:2^2)")),
    "S3:(3^{1+2}:2^2)": (648, lambda: _coset_group(
        _TOWER_BASE, extra=("(ab * a^(cbc))^2", "(a * b^(cabc))^2"), subgroup=("a", "b"))),
    "(3^2:2):(3^{1+2}:2^2)": (1944, lambda: _coset_group(
        _TOWER_BASE, extra=("(a * b^(cabc))^2",), subgroup=("a", "b"))),
    "(3^3:2):(3^{1+2}:2^2)": (5832, lambda: _coset_group(
        _TOWER_BASE, extra=("c^(acbcacb) * c^(bcacbca)",), subgroup=("a", "b", X3_WORD))),
    "(3^4:2):(3^{1+2}:2^2)": (17496, lambda: entry("G11").group),
}

EXCLUDED_TYPE_NAMES: tuple[str, ...] = tuple(_EXCLUDED_BUILDERS)

_TOWER_NAMES = (
    "S3:(3^{1+2}:2^2)", "(3^2:2):(3^{1+2}:2^2)",
    "(3^3:2):(3^{1+2}:2^2)", "(3^4:2):(3^{1+2}:2^2)",
)


def _tower_preconditions(G: PermGroup) -> None:
    images = {k: G.tracked[k] for k in ("a", "b", "c")}
    for w in ("ac", "bc", "abc", "b * (ac)^3"):
        o = evaluate_word(parse_word(w), images).order()
        if o != 6:
            raise ClassificationError(
                f"{G.name}: o({w}) = {o}, the tower argument needs 6")


@cache
def obstruction_target(name: str) -> PermGroup:
    """The concrete (G, a, b, c) on which the named type is obstructed.

    Built and validated once per process; callers must not change its
    generators or tracked images.
    """
    try:
        order, build = _EXCLUDED_BUILDERS[name]
    except KeyError:
        raise KeyError(f"not an excluded type: {name!r}") from None
    G = build()
    if G.order != order:
        raise ClassificationError(f"{name}: target order {G.order} != {order}")
    if name in _TOWER_NAMES:
        _tower_preconditions(G)
    return G


@cache
def target_config(name: str) -> TConfig:
    """The target's closed T-set, built once per process (TConfig is frozen)."""
    G = obstruction_target(name)
    return t_closure(G, *(G.tracked[k] for k in "abc"))


# -- the report -------------------------------------------------------------------


@dataclass
class Configuration:
    """A type's group together with one closed T-set.

    Majorana representations attach to a group with its T-set, so one
    abstract group embedded with two inequivalent T-sets is two
    configurations.  Sources share a configuration only when a certified
    isomorphism maps one T-set onto the other (axial.t_equivalent).
    """

    name: str
    order: int
    sources: tuple[str, ...]
    tconfig: TConfig = field(compare=False, repr=False)

    @property
    def tset_size(self) -> int:
        return len(self.tconfig.members)

    @cached_property
    def pair_types(self) -> dict[str, int]:
        return pair_type_counts(self.tconfig)

    @cached_property
    def invariants(self) -> tuple[int, int, int]:
        """|T|, |T n G'| and |T n Z(G)|.

        Every T-preserving isomorphism preserves them, so configurations that
        differ here are inequivalent without a search.
        """
        G, in_t = self.tconfig.group, self.tconfig.mask
        meets = (in_t[G.indices_of_base_images(H.element_images[:, G.base()])].sum()
                 for H in (G.derived_subgroup(), G.center()))
        return (len(self.tconfig.members), *(int(n) for n in meets))


@dataclass
class TypeEntry:
    """An isomorphism type: the name identify certifies, with its sources."""

    name: str
    order: int
    sources: tuple[str, ...]
    triangle_point: bool
    excluded: bool
    group: PermGroup = field(compare=False, repr=False)
    configurations: list[Configuration] = field(default_factory=list)

    def file_configuration(self, cfg: TConfig, source: str) -> None:
        """Merge into a known configuration, or record a new one."""
        new = Configuration(self.name, self.order, (source,), cfg)
        for known in self.configurations:
            if (known.invariants == new.invariants
                    and t_equivalent(cfg, known.tconfig)):
                known.sources = known.sources + (source,)
                return
        self.configurations.append(new)


@dataclass
class ClassificationReport:
    entries: list[CatalogEntry]
    quotients: list[QuotientRecord]
    small: list[PermGroup]
    types: list[TypeEntry]
    certificates: dict[str, ObstructionCertificate]
    admissible: list[Configuration]
    reconciliation: dict
    discrepancies: list[str]
    repairs: list[str]


STATED_TOTAL = 37
STATED_EXCLUDED = 10
STATED_ADMISSIBLE = 27


def _count_discrepancy(label: str, type_count: int, config_count: int,
                       stated: int, types: list[TypeEntry]) -> str:
    cause = "; ".join(
        f"{t.name} carries {len(t.configurations)} inequivalent T-sets, "
        + " and ".join("{" + ", ".join(c.sources) + "}"
                       for c in t.configurations)
        for t in types if len(t.configurations) > 1)
    line = (f"{label}: computed {type_count} pairwise non-isomorphic types, "
            f"stated count is {stated}; counted as configurations (group "
            f"with closed T-set) the computed count is {config_count}")
    return f"{line}, because {cause}" if cause else line


def classify_all(capacity: int = DEFAULT_CAPACITY) -> ClassificationReport:
    """Run the whole pipeline and reconcile the counts.

    Each source (small group, catalog entry, quotient) is filed under the
    name identify certifies for it; an excluded type, under its target's.
    Counts are reported twice: by isomorphism type, and by configuration
    (a type's group together with one closed T-set), which is what the
    stated totals count.  ``capacity`` bounds the catalog entries'
    enumerations (see entry).
    """
    entries = catalog(capacity)
    small = small_tp_groups()
    discrepancies: list[str] = []
    repairs: list[str] = []

    quotients: list[QuotientRecord] = []
    for entry in entries:
        lattice = normal_subgroups_index_gt(entry.group, 12)
        recs = quotient_records(entry, lattice)
        if len(recs) != len(lattice):
            extra = sorted(N.order for N in lattice)
            discrepancies.append(
                f"{entry.name}: table rows cover {len(recs)} of "
                f"{len(lattice)} normal subgroups (orders {extra})")
        for rec in recs:
            if rec.repaired:
                repairs.append(
                    f"{rec.parent} row with subgroup order "
                    f"{rec.subgroup_order} ({rec.claimed}): X words "
                    f"{list(rec.words)} replace an impossible cell")
            if rec.type_name != rec.claimed:
                discrepancies.append(
                    f"{rec.parent}: quotient of order {rec.quotient_order} "
                    f"identified as {rec.type_name}, table says {rec.claimed}")
        quotients.extend(recs)

    # sources are filed by certified name, provenance preserved; within a
    # type, by configuration (the group with its closed T-set)
    by_name: dict[str, TypeEntry] = {}
    # the seeds generate G, so they alone determine the configuration; the
    # excluded types start from the configurations obstruct and verify share
    closures: dict[tuple[bytes, ...], TConfig] = {
        tuple(p.key() for p in cfg.seeds): cfg
        for cfg in map(target_config, EXCLUDED_TYPE_NAMES)}

    def closure(G: PermGroup) -> TConfig:
        seeds = tuple(G.tracked[k] for k in "abc")
        key = tuple(p.key() for p in seeds)
        if key not in closures:
            closures[key] = t_closure(G, *seeds)
        return closures[key]

    def add(G: PermGroup, tp: bool, source: str, name: str) -> None:
        if name.startswith("?"):
            raise ClassificationError(
                f"{source}: no reference group matches ({name})")
        t = by_name.setdefault(name, TypeEntry(name, G.order, (), tp, False, G))
        if t.order != G.order:
            raise ClassificationError(
                f"{source}: type {name} named at orders {t.order} and {G.order}")
        t.sources = t.sources + (source,)
        t.triangle_point = t.triangle_point or tp
        if tp:  # the T-closure of a failing triple need not exist
            t.file_configuration(closure(G), source)

    for G in small:
        add(G, True, f"small:{G.name}", G.name)
    for entry in entries:
        tp = is_triangle_point(entry.group, *(entry.images()[k] for k in "abc"))
        add(entry.group, tp, f"catalog:{entry.name}", identify(entry.group))
    for rec in quotients:
        add(rec.group, rec.triangle_point,
            f"{rec.parent}/N{rec.subgroup_order}:{rec.claimed}"
            f"[{', '.join(rec.words)}]",
            rec.type_name)

    certificates: dict[str, ObstructionCertificate] = {}
    for name in EXCLUDED_TYPE_NAMES:
        cfg = target_config(name)
        t = by_name.get(name)
        if identify(cfg.group) != name or t is None:
            raise ClassificationError(
                f"excluded type {name}: its target does not identify as a "
                f"computed type of that name")
        if (len(t.configurations) != 1
                or not t_equivalent(cfg, t.configurations[0].tconfig)):
            raise ClassificationError(
                f"excluded type {name}: the obstructed configuration is not "
                f"the type's only configuration ({len(t.configurations)} found)")
        cert = obstruct(cfg)
        if cert is None:
            raise ClassificationError(
                f"no obstruction found for {name}: the exclusion is unverified")
        certificates[name] = cert
        t.excluded = True

    types = sorted(by_name.values(), key=lambda t: (t.order, t.name))
    tp_types = [t for t in types if t.triangle_point]
    admissible_types = [t for t in tp_types if not t.excluded]
    admissible = [c for t in admissible_types for c in t.configurations]
    non_tp = [t for t in types if not t.triangle_point]
    if non_tp:
        discrepancies.append(
            "types failing the triangle-point verdict: "
            + ", ".join(t.name for t in non_tp))

    computed_total = len(tp_types)
    config_total = sum(len(t.configurations) for t in tp_types)
    reconciliation = {
        "computed_total": computed_total,
        "computed_configurations": config_total,
        "stated_total": STATED_TOTAL,
        "computed_excluded": len(certificates),
        "stated_excluded": STATED_EXCLUDED,
        "computed_admissible": len(admissible_types),
        "computed_admissible_configurations": len(admissible),
        "stated_admissible": STATED_ADMISSIBLE,
        "per_type": [
            {"name": t.name, "order": t.order, "sources": list(t.sources),
             "excluded": t.excluded,
             "configurations": [list(c.sources) for c in t.configurations]}
            for t in types
        ],
    }
    if computed_total != STATED_TOTAL or config_total != STATED_TOTAL:
        discrepancies.append(_count_discrepancy(
            "total-type-count", computed_total, config_total, STATED_TOTAL,
            tp_types))
    if (len(admissible_types) != STATED_ADMISSIBLE
            or len(admissible) != STATED_ADMISSIBLE):
        discrepancies.append(_count_discrepancy(
            "admissible-count", len(admissible_types), len(admissible),
            STATED_ADMISSIBLE, admissible_types))

    return ClassificationReport(
        entries=entries, quotients=quotients, small=small, types=types,
        certificates=certificates, admissible=admissible,
        reconciliation=reconciliation, discrepancies=discrepancies,
        repairs=repairs)


# -- serialization ----------------------------------------------------------------


def report_to_json(report: ClassificationReport) -> dict:
    return {
        "schema": "tpg.classification/1",
        "catalog": [
            {"name": e.name, "type": e.claimed, "mnp": list(e.mnp),
             "r": [x for x in e.r], "order": e.order, "source": e.source,
             "generators": {k: str(v) for k, v in e.images().items()}}
            for e in report.entries
        ],
        "quotients": [
            {"parent": q.parent, "subgroup_order": q.subgroup_order,
             "words": list(q.words), "claimed": q.claimed,
             "quotient_order": q.quotient_order, "type": q.type_name,
             "triangle_point": q.triangle_point, "repaired": q.repaired}
            for q in report.quotients
        ],
        "small": [g.name for g in report.small],
        "types": [
            {"name": t.name, "order": t.order, "sources": list(t.sources),
             "triangle_point": t.triangle_point, "excluded": t.excluded,
             "configurations": len(t.configurations)}
            for t in report.types
        ],
        "excluded": [
            {"name": name, "order": report.certificates[name].group_order,
             "certificate": cert_to_dict(report.certificates[name])}
            for name in EXCLUDED_TYPE_NAMES
        ],
        "admissible": [
            {"name": c.name, "order": c.order, "tset_size": c.tset_size,
             "pair_types": c.pair_types, "sources": list(c.sources)}
            for c in report.admissible
        ],
        "reconciliation": report.reconciliation,
        "discrepancies": report.discrepancies,
        "repairs": report.repairs,
    }


def _tables_markdown(report: ClassificationReport) -> str:
    lines = ["# Computed tables", "", "## Maximal groups", "",
             "| name | type | (m,n,p) | r | order |",
             "| --- | --- | --- | --- | --- |"]
    for e in report.entries:
        r = ",".join("-" if x is None else str(x) for x in e.r)
        lines.append(f"| {e.name} | {e.claimed} | {e.mnp} | ({r}) | {e.order} |")
    lines += ["", "## Normal subgroups of index > 12", "",
              "| parent | |N| | X | quotient |", "| --- | --- | --- | --- |"]
    for q in report.quotients:
        star = " *" if q.repaired else ""
        words = ", ".join(q.words)
        lines.append(f"| {q.parent} | {q.subgroup_order} | {words}{star} "
                     f"| {q.type_name} |")
    lines += ["", "(* = corrected X cell)", "", "## Excluded types", "",
              "| type | order | obstruction |", "| --- | --- | --- |"]
    for name in EXCLUDED_TYPE_NAMES:
        cert = report.certificates[name]
        lines.append(f"| {name} | {cert.group_order} | {cert.kind} |")
    lines += ["", "## Admissible configurations", ""]
    for c in report.admissible:
        lines.append(f"- {c.name} (order {c.order}, |T| = {c.tset_size}): "
                     f"{'; '.join(c.sources)}")
    rec = report.reconciliation
    lines += ["", "## Reconciliation", "",
              f"- computed distinct triangle-point types: "
              f"{rec['computed_total']} (stated: {rec['stated_total']})",
              f"- computed configurations (group with closed T-set): "
              f"{rec['computed_configurations']} "
              f"(stated: {rec['stated_total']})",
              f"- excluded: {rec['computed_excluded']} "
              f"(stated: {rec['stated_excluded']})",
              f"- admissible types: {rec['computed_admissible']} "
              f"(stated: {rec['stated_admissible']})",
              f"- admissible configurations: "
              f"{rec['computed_admissible_configurations']} "
              f"(stated: {rec['stated_admissible']})"]
    for d in report.discrepancies:
        lines.append(f"- discrepancy: {d}")
    return "\n".join(lines) + "\n"


def write_outputs(report: ClassificationReport, outdir: Path) -> list[Path]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    jpath = outdir / "classification.json"
    jpath.write_text(json.dumps(report_to_json(report), indent=2) + "\n")
    mpath = outdir / "tables.md"
    mpath.write_text(_tables_markdown(report))
    return [jpath, mpath]


# -- presentation collapses -------------------------------------------------------


def lemma_r4_groups() -> dict[int, PermGroup]:
    """The (6,6,6) groups with R1^6 R2^6 R3^6 and R4^r4 added, for r4 = 1..5."""
    return {r4: _coset_group(tp_presentation(6, 6, 6, (6, 6, 6, r4, None)))
            for r4 in (1, 2, 3, 4, 5)}


def lemma_m66_groups() -> dict[int, PermGroup]:
    """G^(m,6,6) for m = 1, 2, 3."""
    return {m: _coset_group(tp_presentation(m, 6, 6)) for m in (1, 2, 3)}


def variant_groups_72() -> list[PermGroup]:
    """The three order-72 presentations; permuting a, b, ab links them."""
    return [_coset_group(tp_presentation(6, 6, 6, (r1, r2, r3, None, None)))
            for (r1, r2, r3) in ((2, 6, 6), (6, 2, 6), (6, 6, 2))]


def variant_groups_216() -> list[PermGroup]:
    """The three order-216 presentations with a squared y-word added."""
    base = tp_presentation(6, 6, 6, (6, 6, 6, None, 3))
    return [_coset_group(base, extra=(y,), subgroup=("a", "b"))
            for y in ("(a * c^(bc))^2", "(b * c^(ac))^2", "(ab * c^(ac))^2")]
