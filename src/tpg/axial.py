"""T-sets on a concrete group, pair typing, and the two obstruction engines.

A T-set is the closure of the four seed involutions a, b, c, ab under
conjugation and under taking cubes of order-6 products.  Pairs of T-elements
acquire dihedral types from the order of their product and T-membership of
the relevant powers.  Obstructions to a Majorana representation come in two
kinds: an elementary abelian 2^3 subgroup all of whose involutions lie in T
(contradicting the fusion rules), and an exact inner-product audit over the
axis span of a 2xD8 subgroup (contradicting associativity of the form).
Both produce self-verifying certificates.  T and the conjugates of a found
subgroup are orbits, walked by permgrp's depth_first; T is a union of
conjugacy classes, so scans over it anchor at T's class representatives.

From search to certificate the work is on element indices.  A T-set, or
the axes of a span over a subgroup K, is an index array with a position
array over its group; one kernel (_pair_types) types all its ordered pairs
from one product lookup into a cached table.  A candidate subgroup is the
closure mask of its generators, grown by permgrp's tuple search and keyed by
its sorted member indices.  Verification looks up each parsed list in one
batched call and compares index sets.  Perms are built only to print.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

import numpy as np

from .dihedral import FUSION, bilinear
from .fpgrp import Word, parse_word
from .permgrp import (
    Perm,
    PermGroup,
    _prefix_orders,
    _tuple_search,
    cyclic_group,
    depth_first,
    dihedral_group,
    direct_product,
    elementary_abelian_2,
    find_isomorphism,
    isomorphic,
)
from .qlin import Vector, parse_rat, rat_str

__all__ = [
    "PAIR_INNER",
    "AxisSpanModel",
    "Derivation",
    "M1Witness",
    "NotTrianglePointError",
    "ObstructionCertificate",
    "PairType",
    "TConfig",
    "UnsupportedConfigurationError",
    "cert_from_dict",
    "cert_to_dict",
    "find_subgroups_iso",
    "klein_identity",
    "klein_witnesses",
    "obstruct",
    "pair_type",
    "pair_type_counts",
    "t_closure",
    "t_equivalent",
    "two_d8_reference",
    "verify_certificate",
]


class NotTrianglePointError(ValueError):
    """Some product of T-set elements has order exceeding six."""


class UnsupportedConfigurationError(ValueError):
    """The configuration falls outside what the audit machinery supports."""


# Inner products of distinct axes by dihedral pair type.
PAIR_INNER = {
    "1A": Fraction(1),
    "2A": Fraction(1, 8),
    "2B": Fraction(0),
    "3A": Fraction(13, 256),
    "3C": Fraction(1, 64),
    "4A": Fraction(1, 32),
    "4B": Fraction(1, 64),
    "5A": Fraction(3, 128),
    "6A": Fraction(5, 256),
}


@dataclass(frozen=True)
class PairType:
    """Either a forced dihedral type or the ambiguous order-3 pair."""

    options: frozenset

    @property
    def forced(self) -> str | None:
        if len(self.options) == 1:
            return next(iter(self.options))
        return None

    def __str__(self):
        return self.forced or "{" + ",".join(sorted(self.options)) + "}"


AMBIGUOUS_3 = PairType(frozenset({"3A", "3C"}))


def _pair_type(name: str) -> PairType:
    """The PairType of an entry of a _pair_types table."""
    return AMBIGUOUS_3 if name == str(AMBIGUOUS_3) else PairType(frozenset({name}))


@dataclass(frozen=True)
class Derivation:
    """How a T-set element was obtained; the word re-derives it from seeds."""

    kind: str  # "seed" | "conjugate" | "cube"
    word: Word


@dataclass(frozen=True, eq=False)
class TConfig:
    """A group with its seed involutions and the closed T-set, held as sorted
    element indices of the group (T-set order); derivations align with it."""

    group: PermGroup
    seeds: tuple[Perm, Perm, Perm]
    members: np.ndarray
    derivations: tuple[Derivation, ...]

    @cached_property
    def tset(self) -> tuple[Perm, ...]:
        """The T-set elements as Perms, in T-set order."""
        return tuple(map(Perm.trusted, self.group.element_images[self.members]))

    @cached_property
    def position(self) -> np.ndarray:
        """T-set position of every element of the group, -1 outside the T-set."""
        return _positions(self.group.order, self.members)

    @cached_property
    def mask(self) -> np.ndarray:
        """T-set membership of every element of the group."""
        return self.position >= 0

    @cached_property
    def pair_types(self) -> np.ndarray:
        """_pair_types of the T-set, in T-set order."""
        return _pair_types(self.group, self.members, self.mask)

    def index_of(self, p: Perm) -> int:
        i = _position_of(self.group, self.position, p)
        if i < 0:
            raise ValueError(f"{p} is not in the T-set")
        return i

    def seed_images(self) -> dict[str, Perm]:
        return dict(zip("abc", self.seeds))


def _positions(n: int, members: np.ndarray) -> np.ndarray:
    """Position of each of n elements in members, -1 for the others."""
    position = np.full(n, -1, dtype=np.intp)
    position[members] = np.arange(len(members))
    return position


def _position_of(G: PermGroup, position: np.ndarray, p: Perm) -> int:
    """p's entry in position, an array over the elements of G; -1 outside G."""
    i = G._lookup(p.img[None])[0] if p.degree == G.degree else -1
    return int(position[i]) if i >= 0 else -1


def _scan_products(G: PermGroup, idx: np.ndarray) -> list[tuple[int, int, int]]:
    """Check o(ts) <= 6 over pairs of the T-set idx; list order-6 cubes.

    Products are conjugation-invariant and T is a union of conjugacy classes,
    so the left factor t ranges over T's class representatives while the
    right factor s ranges over everything; the orders are looked up by base
    image in G.  Each cube comes back as (cube, t, s), element indices.
    """
    reps = np.flatnonzero(G.class_representatives()[G.class_labels()[idx]] == idx)
    m = G.element_images[idx]
    prods = G.product_indices(m[reps], m)  # [r, s]: T[reps[r]] * T[s]
    orders = G.element_orders()[prods]
    if (orders > 6).any():
        r, s = np.argwhere(orders > 6)[0]
        raise NotTrianglePointError(
            f"product of T-set elements {Perm.trusted(m[reps[r]])} and "
            f"{Perm.trusted(m[s])} has order {orders[r, s]} > 6")
    six = np.argwhere(orders == 6)
    cubes = G.power_indices(prods[six[:, 0], six[:, 1]], 3)
    return list(zip(cubes.tolist(), idx[reps[six[:, 0]]].tolist(),
                    idx[six[:, 1]].tolist()))


def _seed_indices(G: PermGroup, a: Perm, b: Perm, c: Perm) -> np.ndarray:
    """Element indices of a, b, c, ab in G by one lookup, -1 for a seed of
    another degree or outside G; ab's entry holds when a and b are members."""
    same = [p.degree == G.degree for p in (a, b, c, a)]
    rows = np.stack([p.img if ok else G.identity().img for p, ok in zip((a, b, c), same)])
    return np.where(same, G._lookup(np.vstack([rows, rows[1][rows[0]]])), -1)


def t_closure(G: PermGroup, a: Perm, b: Perm, c: Perm) -> TConfig:
    """Close {a, b, c, ab} under conjugation and the order-6 cube rule, walked
    depth first through a, b, c's conjugation maps from the seeds a, b, c, ab,
    then each round's cubes in scan order; a first arrival keeps its word."""
    roots = _seed_indices(G, a, b, c)
    orders = G.element_orders()[roots]
    for k, (name, p) in enumerate((("a", a), ("b", b), ("c", c))):
        if p.degree != G.degree:
            raise ValueError(f"seed {name} has the wrong degree")
        if roots[k] < 0:
            raise ValueError(f"seed {name} does not lie in the group")
        if orders[k] != 2:
            raise ValueError(f"seed {name} must be an involution")
    if orders[3] != 2:
        raise ValueError("ab must be an involution")
    if not G.index_closure(roots[:3])[0].all():
        raise ValueError("seeds must generate the group")

    conj = np.array([G.conjugation_map(g) for g in (a, b, c)])
    tree: dict[int, tuple] = {}
    derivations: dict[int, Derivation] = {}  # by element index of G
    roots = roots.tolist()
    cubes = None  # from the second round on, the (cube, t, s) of each root
    while new := depth_first(roots, lambda t: conj[:, t].tolist(), tree):
        for x in new:  # each word is built from its parent's, or its root's
            parent, k = tree[x]
            if parent is not None:
                kind, word = "conjugate", derivations[parent].word.conj(Word("abc"[k]))
            elif cubes is None:
                kind, word = "seed", Word(("a", "b", "c", "ab")[k])
            else:
                _, t, s = cubes[k]
                kind, word = "cube", (derivations[t].word * derivations[s].word) ** 3
            derivations[x] = Derivation(kind, word.reduced())
        cubes = _scan_products(G, np.array(sorted(derivations)))
        roots = [cube for cube, _, _ in cubes]
    idx = sorted(derivations)  # element order is lexicographic image order
    return TConfig(group=G, seeds=(a, b, c), members=np.array(idx, dtype=np.intp),
                   derivations=tuple(derivations[i] for i in idx))


def _pair_types(G: PermGroup, idx: np.ndarray, designated: np.ndarray) -> np.ndarray:
    """Type name of every ordered pair of the elements idx of G, as an array.

    designated, a mask over G, splits 2A from 2B and 4B from 4A.  All
    products t*s are looked up by base image at once; an order-3 product is
    3A when it is the square or fourth power of an order-6 product through t
    or s, where the other factor ranges over idx, and "{3A,3C}" otherwise.
    """
    n = len(idx)
    m = G.element_images[idx]
    prods = G.product_indices(m, m).ravel()
    orders = G.element_orders()[prods]
    if (orders > 6).any():
        t, s = divmod(int(np.argmax(orders > 6)), n)
        raise NotTrianglePointError(
            f"product of T-set elements {Perm.trusted(m[t])} and "
            f"{Perm.trusted(m[s])} has order > 6")
    row, col = np.divmod(np.arange(n * n), n)
    # per t: (tr)^2 and (tr)^4 over o(tr) = 6, coded as t * |G| + element
    six = np.flatnonzero(orders == 6)
    squares = np.unique(np.concatenate([
        row[six] * G.order + G.power_indices(prods[six], 2),
        row[six] * G.order + G.power_indices(prods[six], 4),
    ]))
    names = np.array([f"{k}A" for k in range(7)], dtype=object)[orders]
    names[(orders == 2) & ~designated[prods]] = "2B"
    four = np.flatnonzero(orders == 4)
    names[four[designated[G.power_indices(prods[four], 2)]]] = "4B"
    three = np.flatnonzero(orders == 3)
    known = (np.isin(row[three] * G.order + prods[three], squares)
             | np.isin(col[three] * G.order + prods[three], squares))
    names[three[~known]] = str(AMBIGUOUS_3)
    return names.reshape(n, n)


def pair_type(cfg: TConfig, t: Perm, s: Perm) -> PairType:
    return _pair_type(cfg.pair_types[cfg.index_of(t), cfg.index_of(s)])


def pair_type_counts(cfg: TConfig) -> dict[str, int]:
    """Number of unordered pairs of distinct T-elements of each pair type,
    read from the upper triangle of the configuration's pair-type table."""
    upper = cfg.pair_types[np.triu_indices(len(cfg.members), 1)]
    kinds, counts = np.unique(upper, return_counts=True)
    return {str(k): int(c) for k, c in zip(kinds, counts)}


def t_equivalent(cfg: TConfig, other: TConfig) -> bool:
    """Whether some isomorphism of the groups maps cfg's T-set onto other's.

    Exact both ways.  An isomorphism certified on the generators a, b, ab, c
    with all four images in the other T-set carries the closure of the
    seeds, built from conjugation and cubes alone, into that T-set; equal
    sizes then make the image the whole T-set.  The search tries every such
    image tuple up to inner automorphisms, which preserve T-sets.
    """
    if (len(cfg.members) != len(other.members)
            or cfg.group.fingerprint() != other.group.fingerprint()):
        return False
    if cfg.seeds == other.seeds:
        return True  # equal seeds close to the same group and T-set
    a, b, c = cfg.seeds
    return find_isomorphism(cfg.group, other.group, gens=(a, b, a * b, c),
                            allowed=other.mask) is not None


@dataclass(frozen=True, eq=False)
class AxisSpanModel:
    """Formal axis span over the designated involutions S of a subgroup K.

    Axes are the elements of K with indices ``members``, in that order; pair
    types are decided by membership in S itself, which agrees with the
    ambient T-set whenever S = K intersect T.  Products are read from K's
    multiplication table: every model built has |K| <= 16.
    """

    subgroup: PermGroup
    members: np.ndarray

    @cached_property
    def axes(self) -> tuple[Perm, ...]:
        return tuple(map(Perm.trusted, self.subgroup.element_images[self.members]))

    @property
    def dim(self) -> int:
        return len(self.members)

    @cached_property
    def position(self) -> np.ndarray:
        """Axis position of every element of K, -1 off the axes."""
        return _positions(self.subgroup.order, self.members)

    @cached_property
    def pair_types(self) -> np.ndarray:
        """_pair_types of the axes, in axis order."""
        return _pair_types(self.subgroup, self.members, self.position >= 0)

    @cached_property
    def table(self) -> np.ndarray:
        """Index of x * y for every pair of elements x, y of K."""
        E = self.subgroup.element_images
        return self.subgroup.product_indices(E, E)

    def axis_index(self, p: Perm) -> int:
        i = _position_of(self.subgroup, self.position, p)
        if i < 0:
            raise ValueError(f"{p} is not an axis of the model")
        return i

    def inner_entry(self, i: int, j: int) -> Fraction:
        kind = self.pair_types[i, j]  # "1A" on the diagonal
        if kind not in PAIR_INNER:
            raise UnsupportedConfigurationError(
                "inner product of an ambiguous order-3 pair is undetermined"
            )
        return PAIR_INNER[kind]

    def product_entry(self, i: int, j: int) -> dict[int, Fraction] | None:
        """Coefficients of a_i * a_j over the axes, or None if inexpressible.

        Only 2A, 2B and 4B pairs have products in the axis span; 4A and
        order-3 pairs do not.
        """
        if i == j:
            return {i: Fraction(1)}
        kind = self.pair_types[i, j]
        if kind == "2B":
            return {}
        if kind not in ("2A", "4B"):
            return None
        T = self.table
        t, s = self.members[i], self.members[j]
        ts = T[t, s]
        if kind == "2A":  # (a_t + a_s - a_ts) / 8
            e, terms = Fraction(1, 8), ((ts, -1),)
        else:  # (a_t + a_s - a_tst - a_sts + a_(ts)^2) / 64
            e, terms = Fraction(1, 64), ((T[ts, t], -1), (T[T[s, t], s], -1),
                                         (T[ts, ts], 1))
        out = {i: e, j: e}
        for x, sign in terms:
            k = int(self.position[x])
            if k < 0:
                raise ValueError("a product of axes is not an axis of the model")
            out[k] = out.get(k, Fraction(0)) + sign * e
        return {k: v for k, v in out.items() if v}


@dataclass(frozen=True)
class M1Witness:
    """A basis triple where the two evaluations of the form disagree."""

    triple: tuple[Perm, Perm, Perm]
    indices: tuple[int, int, int]
    lhs: Fraction
    rhs: Fraction


def _m1_sides(inner, left: dict[int, Fraction], right: dict[int, Fraction],
              i: int, k: int) -> tuple[Fraction, Fraction]:
    """(a_i a_j, a_k) and (a_i, a_j a_k), from left = a_i a_j and right = a_j a_k.

    inner(x, y) is the form on axes x, y.
    """
    lhs = sum((c * inner(m, k) for m, c in left.items()), Fraction(0))
    rhs = sum((c * inner(i, m) for m, c in right.items()), Fraction(0))
    return lhs, rhs


def audit_model(model: AxisSpanModel) -> M1Witness | None:
    """First basis triple (i,j,k) with (a_i a_j, a_k) != (a_i, a_j a_k)."""
    n = model.dim
    products = [[model.product_entry(i, j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            left = products[i][j]
            if i == j or left is None:
                continue
            for k in range(n):
                right = products[j][k]
                if right is None:
                    continue
                lhs, rhs = _m1_sides(model.inner_entry, left, right, i, k)
                if lhs != rhs:
                    return M1Witness(
                        triple=(model.axes[i], model.axes[j], model.axes[k]),
                        indices=(i, j, k),
                        lhs=lhs,
                        rhs=rhs,
                    )
    return None


@cache
def two_d8_reference() -> PermGroup:
    """C2 x D8, built once per process so its cached invariants serve every
    isomorphism test against it."""
    return direct_product(cyclic_group(2), dihedral_group(8), name="2xD8")


def _canonical_2d8_basis(K: PermGroup, designated: np.ndarray) -> np.ndarray | None:
    """Order the ten designated involutions of a 2xD8 by their structural roles.

    K is a 2xD8 and designated, a mask over its elements, holds ten of its
    eleven involutions; the basis comes back as element indices of K, or None
    when the missing involution is not central or is t9.  The roles are fixed
    by t9 = square of an order-4 element, t10 = t9 * missing, and a
    noncentral pair y, z with o(yz) = 4.  Any valid choice of y, z differs by
    an automorphism preserving the designated set, so the audit is
    unaffected.  When designated is K n T, T a union of classes, the missing
    involution is central: K n T is a union of K-classes, and a non-central
    involution shares its K-class with another.
    """
    E = K.element_images
    T = K.product_indices(E, E)
    orders = K.element_orders()
    invs = np.flatnonzero(orders == 2)
    t11 = invs[~designated[invs]][0]
    if (T[t11] != T[:, t11]).any():
        return None
    order4 = np.flatnonzero(orders == 4)[0]
    t9 = T[order4, order4]
    if t9 == t11:
        return None
    t10 = T[t9, t11]
    # t9, t10 and t11 are the three central involutions of the 2xD8
    noncentral = [t for t in invs if t not in (t9, t10, t11)]
    y = noncentral[0]
    z = next((v for v in noncentral if orders[T[y, v]] == 4), None)
    if z is None:
        return None
    t1, zy = T[T[z, y], z], T[T[y, z], y]  # y conjugated by z, and z by y
    basis = np.array([t1, y, T[t10, y], T[t10, t1], T[zy, t11], T[z, t11], zy, z,
                      t9, t10])
    if len(np.unique(basis)) != 10 or t11 in basis or not designated[basis].all():
        return None
    return basis


def _klein_triples(cfg: TConfig, stop_early: bool) -> list[tuple[int, int, int]]:
    """Element indices (x, y, z) generating 2^3 subgroups inside the T-set.

    Anchored at T's class representatives for x (T is a union of classes);
    full coverage of all subgroups is restored afterwards by closing under
    conjugation.  For each x, the candidates are the T-elements y != x that
    commute with x and have xy in T; a pair y < z of candidates qualifies
    when y and z commute, yz and xyz lie in T and z != xy.  The pairs are
    read from one mask over candidate pairs, in row-major order.
    """
    G = cfg.group
    E = G.element_images
    tset, in_t = cfg.members, cfg.mask
    found: list[tuple[int, int, int]] = []
    for x in tset[G.class_representatives()[G.class_labels()[tset]] == tset]:
        xt = G.product_indices(E[x : x + 1], E[tset])[0]
        tx = G.product_indices(E[tset], E[x : x + 1])[:, 0]
        keep = (xt == tx) & (tset != x) & in_t[xt]
        cand, xy = tset[keep], xt[keep]
        yz = G.product_indices(E[cand], E[cand])
        xyz = G.product_indices(E[x : x + 1], E[yz.ravel()]).reshape(yz.shape)
        ok = (np.triu(yz == yz.T, 1) & in_t[yz] & in_t[xyz]
              & (cand[None, :] != xy[:, None]))
        for i, j in np.argwhere(ok):
            found.append((int(x), int(cand[i]), int(cand[j])))
            if stop_early:
                return found
    return found


def _klein_members(G: PermGroup, triple: tuple[int, int, int]) -> np.ndarray:
    """Sorted element indices of the subgroup a klein triple generates."""
    members = np.flatnonzero(G.index_closure(triple)[0])
    if len(members) != 8 or (G.element_orders()[members] > 2).any():
        raise RuntimeError("klein scan produced a non-2^3 subgroup")
    return members


def klein_witnesses(cfg: TConfig) -> tuple[PermGroup, ...]:
    """All 2^3 subgroups with every involution in the T-set."""
    triples = _klein_triples(cfg, stop_early=False)
    return _conjugation_closed(
        cfg.group, [_klein_members(cfg.group, t) for t in triples], cfg.seeds)


def _conjugation_closed(
    G: PermGroup, subgroups: list[np.ndarray], conjugators
) -> tuple[PermGroup, ...]:
    """Close subgroups of G, given as sorted member indices, under
    conjugation by conjugators, walked as tuples by permgrp's depth_first;
    the result is sorted by member indices."""
    conj = np.array([G.conjugation_map(g) for g in conjugators])
    tree: dict[tuple[int, ...], tuple] = {}
    depth_first((tuple(members.tolist()) for members in subgroups),
                lambda members: map(tuple, np.sort(conj[:, members]).tolist()), tree)
    return tuple(G.subgroup_from_indices(members) for members in sorted(tree))


def klein_identity() -> dict:
    """Symbolic form of the 2^3 fusion contradiction in a 7-axis span.

    With every pair of the seven involutions typed 2A, the three differences
    alpha = a(t1) - a(t0 t1), beta = a(t2) - a(t0 t2), gamma = a(t1 t2) -
    a(t0 t1 t2) are 1/4-eigenvectors of multiplication by a(t0), yet
    alpha * beta = -(1/4) gamma: the (1/4, 1/4) fusion cell excludes 1/4.
    """
    K = elementary_abelian_2(3)
    t0, t1, t2 = K.generating_tuple()
    model = AxisSpanModel(K, np.flatnonzero(K.element_orders() == 2))
    dim = model.dim

    def axis(p: Perm) -> Vector:
        return Vector.unit(dim, model.axis_index(p))

    if (model.pair_types != np.where(np.eye(dim, dtype=bool), "1A", "2A")).any():
        raise UnsupportedConfigurationError("expected an all-2A klein span")
    entries = [[model.product_entry(i, j) for j in range(dim)] for i in range(dim)]
    mult = [[Vector([e.get(k, 0) for k in range(dim)]) for e in row] for row in entries]

    alpha = axis(t1) - axis(t0 * t1)
    beta = axis(t2) - axis(t0 * t2)
    gamma = axis(t1 * t2) - axis(t0 * t1 * t2)
    quarter = Fraction(1, 4)
    steps = []
    if bilinear(mult, alpha, beta) != gamma * -quarter:
        raise UnsupportedConfigurationError("product identity failed to expand")
    steps.append("alpha * beta = -(1/4) gamma")
    a0 = axis(t0)
    for name, w in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if bilinear(mult, a0, w) != w * quarter:
            raise UnsupportedConfigurationError(f"{name} is not a 1/4-eigenvector")
        steps.append(f"a(t0) * {name} = (1/4) {name}")
    cell = FUSION[(quarter, quarter)]
    if quarter in cell:
        raise UnsupportedConfigurationError("fusion cell unexpectedly admits 1/4")
    steps.append("(1/4, 1/4) fusion cell is {1, 0}: eigenvalue 1/4 excluded")
    return {
        "ok": True,
        "rhs_coefficient": -quarter,
        "eigenvalue": quarter,
        "fusion_cell": cell,
        "steps": tuple(steps),
    }


def find_subgroups_iso(G: PermGroup, ref: PermGroup) -> tuple[PermGroup, ...]:
    """All subgroups of G isomorphic to ref, by permgrp's tuple search.

    Each contains an image of ref's generating tuple with its element orders
    and prefix closure orders; prefixes are deduped by depth and members.
    The first generator is anchored at conjugacy class representatives; the
    full list is recovered by closing under conjugation.
    """
    if ref.order > 32:
        raise ValueError("reference group too large for subgroup search")
    _, ref_gens = ref.index_closure(range(ref.order))
    orders = ref.element_orders()[ref_gens]
    element_orders = G.element_orders()
    pools = [np.flatnonzero(element_orders == o).tolist() for o in orders]
    # least member of each class, classes ordered by least member
    reps = G.class_representatives()
    pools[0] = reps[element_orders[reps] == orders[0]].tolist()
    found: list[np.ndarray] = []

    def leaf(gens: list[int], mask: np.ndarray) -> None:
        if isomorphic(G.subgroup_from_indices(gens), ref):
            found.append(np.flatnonzero(mask))

    _tuple_search(G, _prefix_orders(ref, ref_gens), lambda k, _: pools[k], leaf,
                  seen=set())
    return _conjugation_closed(G, found, G.generators)


@dataclass(frozen=True)
class ObstructionCertificate:
    """Machine-checkable record of why a configuration has no representation."""

    kind: str  # "klein" | "m1-audit"
    degree: int
    group_order: int
    generators: tuple[str, ...]
    members: tuple[tuple[str, str], ...]  # (cycles, derivation word)
    basis: tuple[str, ...] | None = None
    triple: tuple[str, str, str] | None = None
    lhs: str | None = None
    rhs: str | None = None


def cert_to_dict(cert: ObstructionCertificate) -> dict:
    out = {
        "kind": cert.kind,
        "degree": cert.degree,
        "group_order": cert.group_order,
        "generators": list(cert.generators),
        "members": [[p, w] for p, w in cert.members],
    }
    if cert.kind == "m1-audit":
        out["basis"] = list(cert.basis)
        out["triple"] = list(cert.triple)
        out["lhs"] = cert.lhs
        out["rhs"] = cert.rhs
    return out


def _strings(value, field: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise TypeError(f"{field} must be a list of strings")
    return tuple(value)


def _integer(value, field: str) -> int:
    # JSON numbers also read as floats (Infinity among them) and bools
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{field} must be an integer")
    return value


def cert_from_dict(data: dict) -> ObstructionCertificate:
    """Parse a certificate; malformed fields raise KeyError, TypeError or ValueError."""
    kind = data["kind"]
    if kind not in ("klein", "m1-audit"):
        raise ValueError(f"unknown certificate kind {kind!r}")
    triple = _strings(data["triple"], "triple") if "triple" in data else None
    if triple is not None and len(triple) != 3:
        raise ValueError("triple must have three entries")
    for field in ("lhs", "rhs"):
        if not isinstance(data.get(field, ""), str):
            raise TypeError(f"{field} must be a string")
    return ObstructionCertificate(
        kind=kind,
        degree=_integer(data["degree"], "degree"),
        group_order=_integer(data["group_order"], "group_order"),
        generators=_strings(data["generators"], "generators"),
        members=tuple((p, w) for p, w in (_strings(m, "members entry")
                                          for m in data["members"])),
        basis=_strings(data["basis"], "basis") if "basis" in data else None,
        triple=triple,
        lhs=data.get("lhs"),
        rhs=data.get("rhs"),
    )


def _cycles(G: PermGroup, idx) -> tuple[str, ...]:
    return tuple(str(Perm.trusted(row)) for row in G.element_images[idx])


def _with_words(cfg: TConfig, idx: np.ndarray) -> tuple[tuple[str, str], ...]:
    """(cycles, derivation word) of T-elements, given as element indices."""
    words = (str(cfg.derivations[p].word) for p in cfg.position[idx])
    return tuple(zip(_cycles(cfg.group, idx), words))


def _klein_certificate(cfg: TConfig, members: np.ndarray) -> ObstructionCertificate:
    """The certificate of the 2^3 with sorted element indices members."""
    G = cfg.group
    _, picked = G.index_closure(members)
    return ObstructionCertificate(
        kind="klein",
        degree=G.degree,
        group_order=G.order,
        generators=_cycles(G, picked),
        members=_with_words(cfg, members[G.element_orders()[members] == 2]),
    )


def _m1_certificate(
    cfg: TConfig, K: PermGroup, basis: np.ndarray, witness: M1Witness
) -> ObstructionCertificate:
    """The certificate of an audit of K; basis holds element indices of G."""
    members = _with_words(cfg, basis)
    return ObstructionCertificate(
        kind="m1-audit",
        degree=cfg.group.degree,
        group_order=cfg.group.order,
        generators=tuple(str(g) for g in K.generating_tuple()),
        members=members,
        basis=tuple(p for p, _ in members),
        triple=tuple(str(t) for t in witness.triple),
        lhs=rat_str(witness.lhs),
        rhs=rat_str(witness.rhs),
    )


def obstruct(cfg: TConfig) -> ObstructionCertificate | None:
    """Certificate that no Majorana representation exists, or None.

    Tries the Klein fusion obstruction first; failing that, audits every
    2xD8 subgroup with exactly ten designated involutions for an M1
    violation over its axis span.  A 2xD8 with all eleven involutions
    designated is skipped: a 2^3 inside it would lie inside T, and
    the Klein scan is complete over T (T is a union of conjugacy classes, and
    every 2^3 inside T has a conjugate through the first T-element of a
    class, where the search anchors).
    """
    G = cfg.group
    triples = _klein_triples(cfg, stop_early=True)
    if triples:
        cert = _klein_certificate(cfg, _klein_members(G, triples[0]))
    else:
        cert = None
        for K in find_subgroups_iso(G, two_d8_reference()):
            in_g = G.indices_of_base_images(K.element_images[:, G.base()])
            designated = cfg.mask[in_g]
            if np.count_nonzero(designated) == 10:
                basis = _canonical_2d8_basis(K, designated)
                if basis is None:
                    basis = np.flatnonzero(designated)
                witness = audit_model(AxisSpanModel(K, basis))
                if witness is not None:
                    cert = _m1_certificate(cfg, K, in_g[basis], witness)
                    break
        if cert is None:
            return None
    if not verify_certificate(cfg, cert):
        raise RuntimeError("obstruction certificate failed self-verification")
    return cert


def verify_certificate(cfg: TConfig, cert: ObstructionCertificate) -> bool:
    """Re-check a certificate from scratch against the configuration.

    Each parsed list (generators, members, basis, triple) is looked up in
    the group with one batched call, and the checks compare index sets.
    Each member's word is walked on the base points of the group only:
    the word and the member both lie in the group, so they are equal when
    their base images are.
    """
    G = cfg.group
    deg = G.degree
    if cert.degree != deg or cert.group_order != G.order:
        return False
    # a hostile certificate may name generators outside the group, or
    # members of it that generate a large subgroup: the first are rejected
    # before any closure (NonMemberError is a ValueError), the second once
    # the closure passes 16 elements
    try:
        gen_idx = G.indices_of([Perm.parse(s, deg) for s in cert.generators])
        member_idx = G.indices_of([Perm.parse(s, deg) for s, _ in cert.members])
        words = [parse_word(w) for _, w in cert.members]
    except ValueError:
        return False
    base = G.base().tolist()
    seeds = {ch: p.img.tolist() for ch, p in cfg.seed_images().items()}
    targets = G.element_images[member_idx][:, base].tolist()
    for w, target in zip(words, targets):
        maps = [seeds[ch] for ch in w.letters]
        for x, want in zip(base, target):
            for img in maps:
                x = img[x]
            if x != want:
                return False
    if not cfg.mask[member_idx].all():
        return False
    closed = G.index_closure(gen_idx, abort_above=16)
    if closed is None:
        return False
    k_idx = np.flatnonzero(closed[0])
    invs = k_idx[G.element_orders()[k_idx] == 2]
    member_idx = np.sort(member_idx)
    if cert.kind == "klein":
        return len(k_idx) == 8 and len(invs) == 7 and np.array_equal(member_idx, invs)
    K = G._closed_subgroup(*closed)
    if len(k_idx) != 16 or not isomorphic(K, two_d8_reference()):
        return False
    designated = invs[cfg.mask[invs]]
    if len(designated) != 10 or not np.array_equal(member_idx, designated):
        return False
    try:
        basis_idx = G.indices_of([Perm.parse(s, deg) for s in cert.basis])
        triple_idx = G.indices_of([Perm.parse(s, deg) for s in cert.triple])
        lhs, rhs = parse_rat(cert.lhs), parse_rat(cert.rhs)
    except (TypeError, ValueError):
        return False
    if (not np.array_equal(np.sort(basis_idx), designated)
            or not np.isin(triple_idx, designated).all()):
        return False
    # K's elements are G's rows k_idx, in order
    model = AxisSpanModel(K, np.searchsorted(k_idx, basis_idx))
    i, j, k = model.position[np.searchsorted(k_idx, triple_idx)].tolist()
    left = model.product_entry(i, j)
    right = model.product_entry(j, k)
    if left is None or right is None:
        return False
    return _m1_sides(model.inner_entry, left, right, i, k) == (lhs, rhs) and lhs != rhs
