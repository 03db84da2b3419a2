"""Maximal-group catalog, quotient tables, and the classification driver."""

from __future__ import annotations

import json
from contextlib import suppress
from dataclasses import dataclass, field
from functools import cache, cached_property
from pathlib import Path
from typing import Optional

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
    "OUTPUT_FILES",
    "GroupSpec",
    "build",
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


@dataclass(frozen=True)
class GroupSpec:
    """A named group as data: its role, name and stated order, and how
    ``build`` makes it, by the first field set: the group of the row of
    role ``shares`` with this row's name (for a catalog row, as its claimed
    type); the closure of explicit ``generators`` a, b, c (degree first);
    the direct product of the ``factors``; or the coset action of the
    presentation (m, n, p, the R1..R5 exponents r, and the ``extra``
    relator words) on the subgroup the ``action`` words span.
    """

    role: str  # catalog, reference, target, or the lemma a row illustrates
    name: str
    order: int
    mnp: tuple[int, ...] = ()
    r: tuple[Optional[int], ...] = ()  # trailing None exponents may be left out
    extra: tuple[str, ...] = ()
    action: tuple[str, ...] = ()
    generators: tuple = ()
    factors: tuple[tuple[str, int], ...] = ()
    claimed: str = ""  # a catalog row's stated type
    shares: str = ""

    def __post_init__(self):
        object.__setattr__(self, "r", self.r + (None,) * (5 - len(self.r)))

    @property
    def presentation(self) -> Presentation:
        pres = tp_presentation(*self.mnp, self.r)
        for w in self.extra:
            pres = pres.with_relator(parse_word(w), 1)
        return pres


# the standard groups a row names as factors ("C", n), ("D", n), ("S", n), ("A", n), ("2^", k)
_FACTORS = {"C": cyclic_group, "D": dihedral_group, "S": symmetric_group,
            "A": alternating_group, "2^": elementary_abelian_2}

_SPECS: tuple[GroupSpec, ...] = (
    # the eleven maximal groups; G3, G5 and G7 carry no usable generator
    # triple and act on the cosets of the trivial subgroup instead
    GroupSpec("catalog", "G1", 64, (4, 4, 4), claimed="2wr2^2", generators=(
        8, "(1,2)(3,4)", "(1,3)(2,4)(5,6)(7,8)", "(1,5)(2,7)")),
    GroupSpec("catalog", "G2", 144, (4, 4, 6), claimed="(S3xS3):2^2", generators=(
        10, "(1,2)(3,4)", "(5,6)(7,8)", "(1,2)(3,9)(4,5)(6,10)")),
    GroupSpec("catalog", "G3", 160, (4, 5, 5), claimed="2^4:D10"),
    GroupSpec("catalog", "G4", 240, (4, 5, 6), claimed="2xS5", generators=(
        9, "(1,2)(3,4)", "(1,2)(3,4)(5,6)(7,8)", "(1,9)(2,5)(3,4)(7,8)")),
    GroupSpec("catalog", "G5", 660, (5, 5, 5), claimed="L2(11)"),
    GroupSpec("catalog", "G6", 384, (4, 6, 6), (4,), claimed="(2^4:D12)x2", generators=(
        12, "(1,2)(3,4)", "(1,3)(2,4)(5,6)(7,8)(9,10)(11,12)", "(1,2)(3,5)(4,7)(6,9)(8,11)(10,12)")),
    GroupSpec("catalog", "G7", 960, (5, 5, 6), (None, 5), claimed="2^4:A5"),
    # the G8 triple as printed realizes orders (6, 6, 5); swapping a for ab
    # (which permutes m, n, p) realizes (5, 6, 6) and satisfies R2^4
    GroupSpec("catalog", "G8", 1440, (5, 6, 6), (None, 4), claimed="2xS6", generators=(
        10, "(3,4)(5,6)(7,8)(9,10)", "(1,2)(3,4)(5,6)(9,10)", "(1,3)(4,5)(7,8)(9,10)")),
    GroupSpec("catalog", "G9", 1152, (6, 6, 6), (4, 6, 6), claimed="(2^4:(S3xS3))x2", generators=(
        12, "(1,2)(3,4)(5,6)(7,8)", "(1,8)(2,7)(3,4)(5,6)", "(2,5)(3,6)(9,10)(11,12)")),
    GroupSpec("catalog", "G10", 3840, (6, 6, 6), (5, 5, 5, 4), claimed="2^5:S5", generators=(
        12, "(1,2)(3,4)(5,6)(7,8)(9,10)(11,12)", "(1,3)(2,4)(5,8)(6,7)(9,12)(10,11)",
        "(1,7)(2,6)(3,9)(4,11)(5,10)(8,12)")),
    GroupSpec("catalog", "G11", 17496, (6, 6, 6), (6, 6, 6, None, 3),
              claimed="(3^4:2):(3^{1+2}:2^2)", action=("a", "b", X3_WORD)),
    # identify's references, in match order within each order
    GroupSpec("reference", "1", 1, factors=(("C", 1),)),
    GroupSpec("reference", "2", 2, factors=(("C", 2),)),
    GroupSpec("reference", "2^2", 4, factors=(("2^", 2),)),
    GroupSpec("reference", "D8", 8, factors=(("D", 8),)),
    GroupSpec("reference", "2^3", 8, factors=(("2^", 3),)),
    GroupSpec("reference", "D12", 12, factors=(("D", 12),)),
    GroupSpec("reference", "2xD8", 16, factors=(("C", 2), ("D", 8))),
    GroupSpec("reference", "S4", 24, factors=(("S", 4),)),
    GroupSpec("reference", "2^2xS3", 24, factors=(("2^", 2), ("S", 3))),
    GroupSpec("reference", "2^4:2", 32, (4, 4, 4), (2,)),
    GroupSpec("reference", "S3xS3", 36, factors=(("S", 3), ("S", 3))),
    GroupSpec("reference", "2xS4", 48, factors=(("C", 2), ("S", 4))),
    GroupSpec("reference", "A5", 60, factors=(("A", 5),)),
    GroupSpec("reference", "(S3xS3):2", 72, (4, 4, 6), (3,)),
    GroupSpec("reference", "2xS3xS3", 72, factors=(("C", 2), ("S", 3), ("S", 3))),
    GroupSpec("reference", "2^2xS4", 96, factors=(("2^", 2), ("S", 4))),
    GroupSpec("reference", "3^{1+2}:2^2", 108, (3, 6, 6)),
    GroupSpec("reference", "S5", 120, factors=(("S", 5),)),
    GroupSpec("reference", "2^4:D12", 192, (4, 6, 6), (4, 3)),
    GroupSpec("reference", "S3xS3xS3", 216, factors=(("S", 3), ("S", 3), ("S", 3))),
    GroupSpec("reference", "2x(3^{1+2}:2^2)", 216, (6, 6, 6), (6, 6, 6, None, 3),
              ("(a * c^(bc))^2",), ("a", "b")),
    GroupSpec("reference", "2^4:(S3xS3)", 576, (6, 6, 6), (4, 6, 6), ("a * (b * c^(ac))^3",)),
    GroupSpec("reference", "S3:(3^{1+2}:2^2)", 648, shares="target"),
    GroupSpec("reference", "S6", 720, factors=(("S", 6),)),
    GroupSpec("reference", "2^4:S5", 1920, shares="target"),
    GroupSpec("reference", "(3^2:2):(3^{1+2}:2^2)", 1944, shares="target"),
    GroupSpec("reference", "(3^3:2):(3^{1+2}:2^2)", 5832, shares="target"),
    # the excluded types' obstruction targets: explicit triples where the
    # non-existence arguments supply them, else presentation quotients
    GroupSpec("target", "2xS3xS3", 72, (6, 6, 6), (2, 6, 6), action=("a", "b")),
    GroupSpec("target", "S6", 720, generators=(6, "(1,2)(3,4)(5,6)", "(5,6)", "(2,3)(4,5)")),
    GroupSpec("target", "(2^4:(S3xS3))x2", 1152, shares="catalog"),
    GroupSpec("target", "2^4:S5", 1920, generators=(
        16, "(1,2)(3,4)(5,6)(7,8)(9,10)(11,12)", "(1,3)(2,4)(5,6)(7,8)(13,14)(15,16)",
        "(1,12)(3,14)(4,6)(5,16)(7,11)(9,13)")),
    GroupSpec("target", "S3xS3xS3", 216, generators=(9, "(1,2)(4,5)", "(4,5)(7,8)", "(1,3)(4,6)(7,9)")),
    GroupSpec("target", "2x(3^{1+2}:2^2)", 216, generators=(
        11, "(1,4)(2,6)(3,5)(8,9)", "(1,4)(2,8)(6,9)(10,11)", "(2,7)(3,4)(5,9)")),
    GroupSpec("target", "S3:(3^{1+2}:2^2)", 648, (6, 6, 6), (6, 6, 6, None, 3),
              ("(ab * a^(cbc))^2", "(a * b^(cabc))^2"), ("a", "b")),
    GroupSpec("target", "(3^2:2):(3^{1+2}:2^2)", 1944, (6, 6, 6), (6, 6, 6, None, 3),
              ("(a * b^(cabc))^2",), ("a", "b")),
    GroupSpec("target", "(3^3:2):(3^{1+2}:2^2)", 5832, (6, 6, 6), (6, 6, 6, None, 3),
              ("c^(acbcacb) * c^(bcacbca)",), ("a", "b", X3_WORD)),
    GroupSpec("target", "(3^4:2):(3^{1+2}:2^2)", 17496, shares="catalog"),
    # the presentation collapses, in the order their lookups return them;
    # y1, y2 and y3 each add one squared y-word
    GroupSpec("lemma-r4", "R4^1", 12, (6, 6, 6), (6, 6, 6, 1)),
    GroupSpec("lemma-r4", "R4^2", 216, (6, 6, 6), (6, 6, 6, 2)),
    GroupSpec("lemma-r4", "R4^3", 108, (6, 6, 6), (6, 6, 6, 3)),
    GroupSpec("lemma-r4", "R4^4", 216, (6, 6, 6), (6, 6, 6, 4)),
    GroupSpec("lemma-r4", "R4^5", 12, (6, 6, 6), (6, 6, 6, 5)),
    GroupSpec("lemma-m66", "G^(1,6,6)", 4, (1, 6, 6)),
    GroupSpec("lemma-m66", "G^(2,6,6)", 24, (2, 6, 6)),
    GroupSpec("lemma-m66", "G^(3,6,6)", 108, (3, 6, 6)),
    GroupSpec("variant-72", "R1^2", 72, (6, 6, 6), (2, 6, 6)),
    GroupSpec("variant-72", "R2^2", 72, (6, 6, 6), (6, 2, 6)),
    GroupSpec("variant-72", "R3^2", 72, (6, 6, 6), (6, 6, 2)),
    GroupSpec("variant-216", "y1", 216, (6, 6, 6), (6, 6, 6, None, 3), ("(a * c^(bc))^2",), ("a", "b")),
    GroupSpec("variant-216", "y2", 216, (6, 6, 6), (6, 6, 6, None, 3), ("(b * c^(ac))^2",), ("a", "b")),
    GroupSpec("variant-216", "y3", 216, (6, 6, 6), (6, 6, 6, None, 3), ("(ab * c^(ac))^2",), ("a", "b")),
)


def _rows(role: str) -> tuple[GroupSpec, ...]:
    return tuple(s for s in _SPECS if s.role == role)


def _row(role: str, name: str) -> GroupSpec:
    return {(s.role, s.name): s for s in _SPECS}[role, name]


GROUP_NAMES: tuple[str, ...] = tuple(s.name for s in _rows("catalog"))
EXCLUDED_TYPE_NAMES: tuple[str, ...] = tuple(s.name for s in _rows("target"))


def build(spec: GroupSpec, capacity: int = DEFAULT_CAPACITY) -> PermGroup:
    """The group of one row, checked against all that the row states.

    Enumerations define at most ``capacity`` cosets (else CapacityError).
    Raises ClassificationError, naming the row, on a wrong order; for a
    catalog row, on a failing relator, drifted generators or an order the
    regular enumeration does not prove; for a target on G11's presentation,
    on a, b, c that fail the tower argument's orders.
    """
    src = spec if not spec.shares else next(
        s for s in _rows(spec.shares) if spec.name in (s.name, s.claimed))
    defined = 0  # the most cosets one of the row's enumerations defined
    if src is not spec:
        G = entry(src.name, capacity).group if src.role == "catalog" else _group(src)
    elif spec.generators:
        degree, *cycles = spec.generators
        images = dict(zip("abc", (Perm.parse(s, degree) for s in cycles)))
        G = PermGroup(degree, images.values(), name=spec.name, tracked=images)
    elif spec.factors:
        G = direct_product(*(_FACTORS[f](n) for f, n in spec.factors), name=spec.name)
    else:
        words = tuple(map(parse_word, spec.action))
        table = todd_coxeter(spec.presentation, words, capacity)
        defined = table.defined
        G = coset_action(table)
        G.name = spec.name
    if G.order != spec.order:
        raise ClassificationError(f"{spec.name}: generated order {G.order}, "
                                  f"{spec.role} says {spec.order}")
    if spec.role == "catalog":
        pres = spec.presentation
        for w in pres.relator_words():
            if not evaluate_word(w, G.tracked).is_identity():
                raise ClassificationError(f"{spec.name}: relator {w} fails")
        # generation is structural: the group is built as the closure of the
        # tracked triple in both construction routes
        if [p.key() for p in G.generators] != [G.tracked[k].key() for k in "abc"]:
            raise ClassificationError(f"{spec.name}: generators drifted from a,b,c")
        regular = todd_coxeter(pres, capacity=capacity)
        if regular.coset_count != spec.order:
            raise ClassificationError(f"{spec.name}: enumeration gives {regular.coset_count} "
                                      f"cosets, expected {spec.order}")
        _cosets_defined[spec.name] = max(defined, regular.defined)
    g11 = _row("catalog", "G11")
    if spec.role == "target" and (src.mnp, src.r) == (g11.mnp, g11.r):
        for w in ("ac", "bc", "abc", "b * (ac)^3"):
            o = evaluate_word(parse_word(w), G.tracked).order()
            if o != 6:
                raise ClassificationError(f"{spec.name}: o({w}) = {o}, the tower argument needs 6")
    return G


# a reference's or target's group, built once per process
_group = cache(build)


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


# catalog name -> the most cosets one enumeration of its build defined, and
# the capacity its one successful build was made at
_cosets_defined: dict[str, int] = {}
_built_at: dict[str, int] = {}


def entry(name: str, capacity: int = DEFAULT_CAPACITY) -> CatalogEntry:
    """One of the eleven maximal groups, cross-validated when first built.

    Each of its enumerations may define at most ``capacity`` cosets, or it
    raises CapacityError.  The capacity bounds the enumerations and changes
    nothing else, so a build whose enumerations defined at most
    ``capacity`` cosets serves the request; only when there is none does
    this build at ``capacity``.
    """
    built = _built_at.get(name)
    if built is None or _cosets_defined[name] > capacity:
        built = capacity
    e = _entry(name, built)
    _built_at.setdefault(name, built)
    return e


@cache
def _entry(name: str, capacity: int) -> CatalogEntry:
    spec = _row("catalog", name)
    source = "table-generators" if spec.generators else "coset-action"
    return CatalogEntry(name, spec.claimed, spec.mnp, spec.r, spec.order,
                        source, build(spec, capacity))


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


@cache
def _references(order: int) -> tuple[tuple[str, PermGroup], ...]:
    """The named groups of one order in match order: the reference rows in
    table order, then the catalog entries under their claimed types.  No
    two may share a fingerprint: then distinct names are distinct types.
    """
    refs = [(s.name, _group(s)) for s in _rows("reference") if s.order == order]
    refs += [(s.claimed, entry(s.name).group) for s in _rows("catalog") if s.order == order]
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
    # G11's presentation plus the row's relators, on the smallest subgroup
    # whose coset action is faithful; build refuses the others by order
    for action in (_row("catalog", entry.name).action, ("a", "b"), ()):
        with suppress(ClassificationError):
            return build(GroupSpec(
                "quotient", f"{entry.name}/N{entry.order // want}", want,
                entry.mnp, entry.r, extra=row.words, action=action))
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
        Q = _g11_row_quotient(entry, row, want) if entry.name == "G11" else G.quotient(N)
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


def obstruction_target(name: str) -> PermGroup:
    """The concrete (G, a, b, c) on which the named type is obstructed.

    Built and validated once per process; callers must not change its
    generators or tracked images.
    """
    return _group(_row("target", name))


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
        G, T = self.tconfig.group, self.tconfig.members
        derived = G.indices_of_base_images(G.derived_subgroup().element_images[:, G.base()])
        central = np.bincount(G.class_labels())[G.class_labels()[T]] == 1  # classes of size 1
        return len(T), int(self.tconfig.mask[derived].sum()), int(central.sum())


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


OUTPUT_FILES = ("classification.json", "tables.md")


def write_outputs(report: ClassificationReport, outdir: Path) -> list[Path]:
    """Write OUTPUT_FILES into outdir, created if need be; their paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    jpath, mpath = (outdir / name for name in OUTPUT_FILES)
    jpath.write_text(json.dumps(report_to_json(report), indent=2) + "\n")
    mpath.write_text(_tables_markdown(report))
    return [jpath, mpath]


# -- presentation collapses -------------------------------------------------------


def lemma_r4_groups() -> dict[int, PermGroup]:
    """The (6,6,6) groups with R1^6 R2^6 R3^6 and R4^r4 added, for r4 = 1..5."""
    return {s.r[3]: build(s) for s in _rows("lemma-r4")}


def lemma_m66_groups() -> dict[int, PermGroup]:
    """G^(m,6,6) for m = 1, 2, 3."""
    return {s.mnp[0]: build(s) for s in _rows("lemma-m66")}


def variant_groups_72() -> list[PermGroup]:
    """The three order-72 presentations; permuting a, b, ab links them."""
    return [build(s) for s in _rows("variant-72")]


def variant_groups_216() -> list[PermGroup]:
    """The three order-216 presentations with a squared y-word added."""
    return [build(s) for s in _rows("variant-216")]
