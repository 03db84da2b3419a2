"""Finite permutation groups with full element enumeration.

Permutations are numpy uint16 image arrays (0-based internally,
1-based in cycle notation).  Composition is left to right: (p*q) means
"apply p, then q", so (p*q).img = q.img[p.img].  A group enumerates all its
elements once, by breadth-first closure of its generators, which is fine at
this scale (orders up to ~20000); the elements are kept as one array of
image rows in lexicographic order, so the identity is row 0.  A quotient
acts regularly on the cosets, so its rows are built directly, one per
coset, without that closure.

Each group keys its elements by their images of a short base, picked
along the stabiliser chain (Sims' base; Seress, Permutation Group
Algorithms, ch. 4): one int64 per element when degree**len(base) fits, a
row key otherwise, in a sorted array searched with np.searchsorted.  This is
the one element lookup: a permutation is found by its base images, and one
compare of its full row rejects a non-member that shares a member's base
images.  Element orders follow powers on the base images only, and product
orders compose only the base images of the two factors and look the
product's order up, so no full image array of a product or a power is ever
built.

A subgroup of an enumerated group is a boolean mask over its elements,
closed from seed element indices by one kernel (index_closure): each
frontier is one gather through the cached right-multiplication maps
x -> x*g of the picked generators, and a closure resumes from an earlier
one by adding only the new frontiers.  Isomorphism and subgroup searches
are one depth-first search over generator tuples (_tuple_search), each
tuple's closure resumed from its prefix's.  A PermGroup is built from a
mask only where one is needed (subgroup_from_indices).

Conjugacy classes are one cached label per element (class_labels): each
generator g gives a conjugation map x -> g^-1 x g on element indices, read
from base images, and the least index of each orbit is propagated along the
maps.  Conjugacy classes, class unions, normal closures, the centre and
class invariants for isomorphism testing are lookups into these labels, and
a normal subgroup, a union of classes, is handled as its set of class
numbers (class_closure, class_product).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

DTYPE = np.uint16
DEFAULT_CEILING = 2**20
_LOOKUP_BATCH = 2**20  # base-image entries composed per product batch
_ROW_BATCH = 2**17  # quotient row entries filled per batch


class CapacityError(RuntimeError):
    """Group or coset enumeration outgrew its configured ceiling."""


class NonMemberError(KeyError, ValueError):
    """A permutation or base image looked up in a group is not a member."""


def _check_degree(degree: int) -> None:
    """Refuse a degree that uint16 images cannot hold, before allocating."""
    if degree > 65535:
        raise ValueError("degree too large for uint16 images")
    if degree < 0:
        raise ValueError(f"negative degree {degree}")


class Perm:
    """A permutation of {1..degree}, stored as a 0-based image array."""

    __slots__ = ("img",)

    def __init__(self, img):
        arr = np.array(img, dtype=DTYPE, copy=True)
        n = len(arr)
        if n > 65535:
            raise ValueError("degree too large for uint16 images")
        if n and (np.bincount(arr, minlength=n) != 1).any():
            raise ValueError("image array is not a bijection")
        arr.setflags(write=False)
        self.img = arr

    @classmethod
    def trusted(cls, arr: np.ndarray) -> "Perm":
        """Wrap an image row already known to be a permutation, unchecked."""
        p = cls.__new__(cls)
        p.img = np.ascontiguousarray(arr, dtype=DTYPE)
        p.img.setflags(write=False)
        return p

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls.trusted(np.arange(degree, dtype=DTYPE))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Sequence[int]]) -> "Perm":
        """Build from 1-based cycles; non-disjoint cycles compose left to right.

        Takes time linear in the degree plus the total cycle length.
        """
        _check_degree(degree)
        img = list(range(degree))
        inv = list(range(degree))
        for cyc in cycles:
            if len(cyc) < 2:
                continue
            if len(set(cyc)) != len(cyc):
                raise ValueError(f"repeated point in cycle {tuple(cyc)}")
            if min(cyc) < 1 or max(cyc) > degree:
                x = next(x for x in cyc if not 1 <= x <= degree)
                raise ValueError(f"point {x} outside 1..{degree}")
            # compose on the right: the point sent to x now goes to x's successor
            pre = [inv[x - 1] for x in cyc]
            for p, y in zip(pre, (*cyc[1:], cyc[0])):
                img[p] = y - 1
                inv[y - 1] = p
        return cls(img)

    @classmethod
    def parse(cls, s: str, degree: int) -> "Perm":
        """Parse cycle notation, e.g. "(1,2)(3,4)"; "()" is the identity.

        All points are read by one numpy conversion, with a 0 before,
        between and after the cycles.  Disjoint cycles, as str() prints
        them, are placed by two scatters: each point to the next one, then
        each last point of a cycle to the first.  Anything else (a point
        that is not a uint16, a 0 or a point above the degree, a repeated
        point) goes through from_cycles, which composes or raises.
        """
        _check_degree(degree)
        text = s.replace(" ", "")
        if text in ("()", ""):
            return cls.identity(degree)
        if not (text.startswith("(") and text.endswith(")")):
            raise ValueError(f"malformed permutation {s!r}")
        body = text[1:-1]
        try:
            pts = np.array(f"0,{body.replace(')(', ',0,')},0".split(","), dtype=DTYPE)
        except OverflowError:
            pts = None
        if pts is not None and pts.max() <= degree:
            count = np.bincount(pts, minlength=degree + 1)
            if count[0] == body.count(")(") + 2 and count[1:].max() == 1:
                cuts = np.flatnonzero(pts == 0)
                # index 0 of img is the 0s' scratch entry
                img = np.arange(degree + 1, dtype=DTYPE)
                img[pts[:-1]] = pts[1:]
                img[pts[cuts[1:] - 1]] = pts[cuts[:-1] + 1]
                return cls.trusted(img[1:] - 1)
        return cls.from_cycles(
            degree, [tuple(map(int, part.split(","))) for part in body.split(")(")])

    @property
    def degree(self) -> int:
        return len(self.img)

    def __mul__(self, other: "Perm") -> "Perm":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Perm.trusted(other.img[self.img])

    def inverse(self) -> "Perm":
        inv = np.empty_like(self.img)
        inv[self.img] = np.arange(self.degree, dtype=DTYPE)
        return Perm.trusted(inv)

    def __pow__(self, n: int) -> "Perm":
        if n < 0:
            return self.inverse() ** (-n)
        result = Perm.identity(self.degree)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conj(self, g: "Perm") -> "Perm":
        """g^-1 * self * g."""
        return Perm.trusted(g.img[self.img[g.inverse().img]])

    def cycles(self) -> list[tuple[int, ...]]:
        """Non-trivial cycles, 1-based, each starting at its least point."""
        img = self.img.tolist()
        seen = bytearray(len(img))
        out = []
        for start, x in enumerate(img):
            if seen[start] or x == start:
                continue
            cyc = [start + 1]
            seen[start] = 1
            while x != start:
                cyc.append(x + 1)
                seen[x] = 1
                x = img[x]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles()), 1)

    def is_identity(self) -> bool:
        return bool((self.img == np.arange(self.degree, dtype=DTYPE)).all())

    def key(self) -> bytes:
        """Bytes key; equal keys iff equal permutations (same degree)."""
        return self.img.tobytes()

    def sort_key(self) -> bytes:
        """Big-endian bytes, so byte order equals lexicographic image order."""
        return self.img.astype(">u2").tobytes()

    def __eq__(self, other):
        return (
            isinstance(other, Perm)
            and self.degree == other.degree
            and bool((self.img == other.img).all())
        )

    def __hash__(self):
        return hash(self.img.tobytes())

    def __str__(self):
        # an involution (every certificate element is one) prints from its
        # cycle starts alone, without a walk over the points
        img = self.img
        starts = np.flatnonzero(img > np.arange(self.degree, dtype=DTYPE))
        ends = img[starts]
        if (img[ends] == starts).all():
            pairs = zip((starts + 1).tolist(), (ends + 1).tolist())
            return "".join(map("(%d,%d)".__mod__, pairs)) or "()"
        return "".join("(" + ",".join(map(str, c)) + ")"
                       for c in self.cycles()) or "()"

    def __repr__(self):
        return f"Perm[{self}]"


class IsoFingerprint(NamedTuple):
    """Cheap isomorphism invariants; equality is necessary, not sufficient."""

    order: int
    order_histogram: tuple[tuple[int, int], ...]
    abelian_invariants: tuple[int, ...]
    center_order: int
    derived_order: int
    class_count: int


class PermGroup:
    """Group generated by permutations of a common degree.

    Elements, conjugacy classes and derived data are computed lazily and
    cached; the element list is sorted lexicographically on image arrays
    so every downstream enumeration is deterministic.
    """

    def __init__(
        self,
        degree: int,
        generators: Iterable[Perm],
        *,
        name: Optional[str] = None,
        tracked: Optional[dict[str, Perm]] = None,
    ):
        gens = []
        seen = set()
        for g in generators:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
            if g.is_identity() or g.key() in seen:
                continue
            seen.add(g.key())
            gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        self.name = name
        self.tracked = dict(tracked) if tracked else {}
        self._E: Optional[np.ndarray] = None
        self._right_maps: dict[int, np.ndarray] = {}
        self._elements: Optional[tuple[Perm, ...]] = None
        self._classes = None
        self._labels: Optional[np.ndarray] = None
        self._class_reps: Optional[np.ndarray] = None
        self._base: Optional[np.ndarray] = None
        self._base_keys: Optional[np.ndarray] = None
        self._base_elements: Optional[np.ndarray] = None
        self._orders: Optional[np.ndarray] = None
        self._derived = None
        self._derived_mask: Optional[np.ndarray] = None
        self._fingerprint = None

    # -- element enumeration ------------------------------------------------

    def _enumerate(self):
        """The first closure of the group from its generators, breadth first
        and keyed by image bytes; the only closure that builds image rows
        (a quotient's rows come from its regular action instead)."""
        if self._E is not None:
            return
        ident = np.arange(self.degree, dtype=DTYPE)
        rows = [ident]
        seen = {ident.tobytes()}
        done = 0
        while done < len(rows):
            chunk = np.stack(rows[done:])
            done = len(rows)
            for g in self.generators:
                for row in g.img[chunk]:
                    key = row.tobytes()
                    if key in seen:
                        continue
                    if len(rows) == DEFAULT_CEILING:
                        raise CapacityError(
                            f"closure exceeded ceiling {DEFAULT_CEILING}")
                    seen.add(key)
                    rows.append(row.copy())
        # release the keys before sorting, which lowers the peak memory of
        # large closures
        E = np.stack(rows)
        del rows, seen
        keys = [row.astype(">u2").tobytes() for row in E]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        del keys
        E = np.ascontiguousarray(E[order])
        E.setflags(write=False)
        self._E = E

    @property
    def order(self) -> int:
        self._enumerate()
        return len(self._E)

    @property
    def elements(self) -> tuple[Perm, ...]:
        self._enumerate()
        if self._elements is None:
            self._elements = tuple(Perm.trusted(row) for row in self._E)
        return self._elements

    @property
    def element_images(self) -> np.ndarray:
        """All elements as one (order, degree) array, sorted."""
        self._enumerate()
        return self._E

    def index_of(self, p: Perm) -> int:
        return int(self.indices_of([p])[0])

    def indices_of(self, perms: Iterable[Perm]) -> np.ndarray:
        """Element indices of perms; NonMemberError if one is not a member."""
        perms = list(perms)
        if any(p.degree != self.degree for p in perms):
            raise NonMemberError("permutation of another degree")
        idx = self._lookup(_image_rows(perms, self.degree))
        if (idx < 0).any():
            raise NonMemberError(f"{perms[int(np.argmin(idx))]} is not a member")
        return idx

    def __contains__(self, p) -> bool:
        return (isinstance(p, Perm) and p.degree == self.degree
                and self._lookup(p.img[None])[0] >= 0)

    def _lookup(self, rows: np.ndarray) -> np.ndarray:
        """Element index of each full image row, -1 for a non-member.

        A row is found by its base images; one compare of the full row then
        rejects a non-member that shares a member's base images.
        """
        idx = self._find(rows[..., self.base()])
        idx[(idx < 0) | (self._E[idx] != rows).any(axis=-1)] = -1
        return idx

    def __repr__(self):
        label = self.name or f"degree {self.degree}"
        if self._E is not None:
            return f"PermGroup({label}, order {self.order})"
        return f"PermGroup({label}, {len(self.generators)} gens)"

    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    # -- structure ----------------------------------------------------------

    def element_orders(self) -> np.ndarray:
        """Orders of all elements, aligned with .elements.

        Powers are followed on the base images only: g**k is the identity
        exactly when it fixes every base point.
        """
        if self._orders is None:
            base = self.base()
            E = self._E
            orders = np.zeros(len(E), dtype=np.int64)
            alive = np.arange(len(E))
            power = E[:, base]
            k = 1
            while alive.size:
                done = (power == base).all(axis=1)
                orders[alive[done]] = k
                alive, power = alive[~done], power[~done]
                power = E[alive[:, None], power]  # g**(k+1) = g**k * g
                k += 1
            self._orders = orders
        return self._orders

    # -- base-image keys and product orders -----------------------------------

    def base(self) -> np.ndarray:
        """Points (0-based) whose images tell all elements apart.

        Picked along the stabiliser chain: each point is the first one moved
        by the elements that fix every earlier base point (Sims' base).
        """
        if self._base is None:
            self._enumerate()
            E = self._E
            ident = np.arange(self.degree, dtype=DTYPE)
            points = []
            rows = E
            while len(rows) > 1:
                point = int(np.argmax((rows != ident).any(axis=0)))
                points.append(point)
                rows = rows[rows[:, point] == point]
            base = np.array(points, dtype=np.intp)
            base.setflags(write=False)
            keys = self._keys(E[:, base])
            sort = np.argsort(keys, kind="stable")
            keys = keys[sort]
            if (keys[1:] == keys[:-1]).any():
                raise RuntimeError("base images do not separate the elements")
            self._base, self._base_keys, self._base_elements = base, keys, sort
        return self._base

    def _keys(self, images: np.ndarray) -> np.ndarray:
        """One sortable key per row of base images.

        A mixed-radix int64 when degree**len(base) fits, otherwise the
        big-endian bytes of the row.
        """
        rows, width = images.shape
        if self.degree**width < 2**63:
            keys = np.zeros(rows, dtype=np.int64)
            for col in range(width):
                keys = keys * self.degree + images[:, col]
            return keys
        raw = np.ascontiguousarray(images, dtype=">u2")
        return raw.view(np.dtype((np.void, 2 * width))).ravel()

    def _find(self, images: np.ndarray) -> np.ndarray:
        """Element indices for rows of base images, shape images.shape[:-1],
        with -1 for rows that match no element."""
        base = self.base()
        keys = self._keys(images.reshape(math.prod(images.shape[:-1]), len(base)))
        pos = np.searchsorted(self._base_keys, keys)
        pos[pos == len(self._base_keys)] = 0
        idx = self._base_elements[pos]
        idx[self._base_keys[pos] != keys] = -1
        return idx.reshape(images.shape[:-1])

    def indices_of_base_images(self, images: np.ndarray) -> np.ndarray:
        """Element indices for rows of base images, shape images.shape[:-1].

        Every row must be the base images of a member of the group; rows
        that match no element raise NonMemberError.
        """
        idx = self._find(images)
        if (idx < 0).any():
            raise NonMemberError("base images of a non-member")
        return idx

    def product_indices(self, L: np.ndarray, R: np.ndarray) -> np.ndarray:
        """Indices of the products L[i] * R[j] of member image rows.

        Only the base images of each product are composed; the result has
        shape (len(L), len(R)).
        """
        base = self.base()
        L = np.asarray(L)
        R = np.asarray(R)
        out = np.empty((len(L), len(R)), dtype=np.intp)
        step = max(1, _LOOKUP_BATCH // max(1, len(R) * len(base)))
        for start in range(0, len(L), step):
            images = R[:, L[start : start + step, base]]  # (len(R), step, |base|)
            out[start : start + step] = self.indices_of_base_images(images).T
        return out

    def product_orders(self, L: np.ndarray, R: np.ndarray) -> np.ndarray:
        """Orders of the products L[i] * R[j], read from element_orders()."""
        return self.element_orders()[self.product_indices(L, R)]

    def power_indices(self, idx: np.ndarray, exponent: int) -> np.ndarray:
        """Indices of the powers elements[idx] ** exponent (exponent >= 1)."""
        if exponent < 1:
            raise ValueError("exponent must be positive")
        base = self.base()
        E = self._E
        rows = np.asarray(idx, dtype=np.intp)[..., None]
        power = E[rows, base]
        for _ in range(exponent - 1):
            power = E[rows, power]
        return self.indices_of_base_images(power)

    def order_histogram(self) -> tuple[tuple[int, int], ...]:
        vals, counts = np.unique(self.element_orders(), return_counts=True)
        return tuple((int(v), int(c)) for v, c in zip(vals, counts))

    def involutions(self) -> tuple[Perm, ...]:
        idx = np.nonzero(self.element_orders() == 2)[0]
        return tuple(Perm.trusted(self._E[i]) for i in idx)

    def conjugation_map(self, g: Perm) -> np.ndarray:
        """Element index of g^-1 x g for every element x, by base image.

        g must lie in the group; the base images of g^-1 x g are
        g.img[x.img[g^-1.img[base]]].
        """
        base = self.base()
        return self.indices_of_base_images(g.img[self._E[:, g.inverse().img[base]]])

    def class_labels(self) -> np.ndarray:
        """Conjugacy class number of every element, aligned with .elements.

        Classes are numbered by their least member, the least index in each
        orbit of the generators' conjugation maps.
        """
        if self._labels is None:
            self._enumerate()
            least = _least_in_orbits(
                len(self._E), [self.conjugation_map(g) for g in self.generators])
            reps, labels = np.unique(least, return_inverse=True)
            labels = labels.reshape(-1)
            labels.setflags(write=False)
            reps.setflags(write=False)
            self._labels, self._class_reps = labels, reps
        return self._labels

    def class_representatives(self) -> np.ndarray:
        """Element index of the least member of each class, by class number."""
        self.class_labels()
        return self._class_reps

    def classes_meeting(self, perms: Iterable[Perm]) -> frozenset[int]:
        """Class numbers of the conjugacy classes that meet perms."""
        return frozenset(self.class_labels()[self.indices_of(perms)].tolist())

    def class_union(self, perms: Iterable[Perm]) -> np.ndarray:
        """Sorted element indices of the conjugacy classes that meet perms."""
        met = list(self.classes_meeting(perms))
        return np.flatnonzero(np.isin(self.class_labels(), met))

    def class_product(self, A: Iterable[int], B: Iterable[int]) -> frozenset[int]:
        """Class numbers of the products x y, x in the classes A, y in B.

        The least member of each class of A is the only left factor needed:
        when B is a union of classes, g^-1 x y g = (g^-1 x g)(g^-1 y g) puts
        every product's class into reps(A) . B.  For normal subgroups A and
        B, given as class sets, this is the product subgroup AB.
        """
        labels = self.class_labels()
        left = self._E[self.class_representatives()[sorted(A)]]
        right = self._E[np.flatnonzero(np.isin(labels, list(B)))]
        return frozenset(labels[self.product_indices(left, right)].ravel().tolist())

    def class_closure(
        self, classes: Iterable[int], bound: Optional[int] = None
    ) -> Optional[frozenset[int]]:
        """Class numbers of the normal closure of a set of classes.

        S grows as S | class_product(S, S) from the classes and the identity
        (class 0) until it stops; a finite set closed under products is a
        subgroup.  Returns None once the summed class sizes pass bound.
        """
        sizes = np.bincount(self.class_labels())
        S = frozenset(classes) | {0}
        while True:
            grown = S | self.class_product(S, S)
            if bound is not None and sizes[list(grown)].sum() > bound:
                return None
            if grown == S:
                return S
            S = grown

    def conjugacy_classes(self) -> tuple[tuple[Perm, ...], ...]:
        """Conjugation orbits, ordered by least member, members sorted."""
        if self._classes is None:
            labels = self.class_labels()
            members = np.argsort(labels, kind="stable")
            bounds = np.cumsum(np.bincount(labels))[:-1]
            self._classes = tuple(
                tuple(Perm.trusted(self._E[i]) for i in cls)
                for cls in np.split(members, bounds)
            )
        return self._classes

    def is_elementary_abelian_2(self) -> bool:
        return all(o <= 2 for o, _ in self.order_histogram())

    def center(self) -> "PermGroup":
        """The union of the conjugacy classes of size 1."""
        labels = self.class_labels()
        return self.subgroup_from_indices(
            np.flatnonzero(np.bincount(labels)[labels] == 1))

    def _right_map(self, i: int) -> np.ndarray:
        """Index of x * g for every element x, where g is element i; cached."""
        m = self._right_maps.get(i)
        if m is None:
            m = self.product_indices(self._E, self._E[i : i + 1])[:, 0]
            self._right_maps[i] = m
        return m

    def index_closure(
        self, seeds: Iterable[int], abort_above: Optional[int] = None,
        start: Optional[tuple[np.ndarray, list[int]]] = None,
    ) -> Optional[tuple[np.ndarray, list[int]]]:
        """The subgroup generated by the elements with indices seeds.

        Returns a boolean mask over the elements and the seeds picked as
        generators, each one not yet in the closure of those picked before
        it, or None once the subgroup has more than abort_above elements.
        The mask grows frontier by frontier from the identity, row 0, or from
        start, an earlier result; for g outside a closed H, all of H*g is new
        and is the first frontier, so a resumed closure pays only for that.
        """
        n = self.order
        mask, picked = ((np.arange(n) == 0, []) if start is None
                        else (start[0].copy(), list(start[1])))
        count = int(np.count_nonzero(mask))
        maps = [self._right_map(i) for i in picked]
        for s in seeds:
            if count == n:
                break  # the closure is the whole group: nothing is left to pick
            s = int(s)
            if mask[s]:
                continue
            picked.append(s)
            maps.append(self._right_map(s))
            frontier = maps[-1][np.flatnonzero(mask)]
            while frontier.size:
                mask[frontier] = True
                count += frontier.size
                if abort_above is not None and count > abort_above:
                    return None
                step = np.concatenate([m[frontier] for m in maps])
                frontier = np.unique(step[~mask[step]])
        return mask, picked

    def subgroup_from_indices(
        self, seeds: Iterable[int], abort_above: Optional[int] = None
    ) -> Optional["PermGroup"]:
        """index_closure of seeds as a group; None once past abort_above."""
        found = self.index_closure(seeds, abort_above)
        return None if found is None else self._closed_subgroup(*found)

    def _closed_subgroup(self, mask: np.ndarray, picked: list[int]) -> "PermGroup":
        """The masked rows as a group, with the picked seeds as generators."""
        H = PermGroup(self.degree, (Perm.trusted(self._E[i]) for i in picked))
        if mask.all():
            H._E = self._E  # the whole group shares its rows
        else:
            H._E = self._E[mask]
            H._E.setflags(write=False)
        return H

    def derived_subgroup(self) -> "PermGroup":
        if self._derived is None:  # its closure mask serves abelian_invariants
            gens = self.generators
            comms = [g.inverse() * h.inverse() * g * h
                     for i, g in enumerate(gens) for h in gens[i + 1 :]]
            self._derived_mask, picked = self.index_closure(self.class_union(comms))
            self._derived = self._closed_subgroup(self._derived_mask, picked)
        return self._derived

    def abelian_invariants(self) -> tuple[int, ...]:
        """Primary invariants (prime powers, sorted) of G/G'.

        gG' is killed by q exactly when g**q lies in G', so G/G' has
        #{g : g**q in G'} / |G'| elements killed by q; no quotient is built.
        """
        D = self.derived_subgroup()
        invariants = []
        for p in _prime_factors(self.order // D.order):
            # m_k = number of cyclic p-power factors of exponent >= k,
            # read off the counts s_k of elements killed by p**k
            ms, s_prev, power = [], 1, np.arange(self.order)
            while True:
                power = self.power_indices(power, p)  # g**(p**k)
                s_k = int(np.count_nonzero(self._derived_mask[power])) // D.order
                m = round(math.log(s_k // s_prev, p)) if s_k > s_prev else 0
                if m == 0:
                    break
                ms.append(m)
                s_prev = s_k
            for i in range(ms[0] if ms else 0):
                invariants.append(p ** sum(1 for m in ms if m > i))
        return tuple(sorted(invariants))

    def fingerprint(self) -> IsoFingerprint:
        if self._fingerprint is None:
            self._fingerprint = IsoFingerprint(
                order=self.order,
                order_histogram=self.order_histogram(),
                abelian_invariants=self.abelian_invariants(),
                center_order=int((np.bincount(self.class_labels()) == 1).sum()),
                derived_order=self.derived_subgroup().order,
                class_count=len(self.class_representatives()),
            )
        return self._fingerprint

    # -- subgroups and quotients ---------------------------------------------

    def subgroup(self, gens: Iterable[Perm]) -> "PermGroup":
        """The subgroup generated by gens, members of the group."""
        return self.subgroup_from_indices(self.indices_of(gens))

    def is_generated_by(self, perms: Iterable[Perm]) -> bool:
        """Whether perms, members of the group, generate all of it."""
        mask, _ = self.index_closure(self.indices_of(perms))
        return bool(mask.all())

    def normal_closure(
        self, X: Iterable[Perm], abort_above: Optional[int] = None
    ) -> Optional["PermGroup"]:
        """Smallest normal subgroup containing X.

        With abort_above set, returns None as soon as the closure is known
        to have more than abort_above elements.
        """
        return self.subgroup_from_indices(self.class_union(X), abort_above)

    def is_normal(self, N: "PermGroup") -> bool:
        if N.degree != self.degree:
            return False
        gens = _image_rows(N.generators, self.degree)
        if (self._lookup(gens) < 0).any():
            return False
        # g^-1 n g has images g.img[n.img[g^-1.img]]
        return all((N._lookup(g.img[gens[:, g.inverse().img]]) >= 0).all()
                   for g in self.generators)

    def quotient(self, N: "PermGroup") -> "PermGroup":
        """Action of the group on the cosets of a normal subgroup N.

        Each element is labelled by the least index in its coset N x, an
        orbit of the left maps x -> n x of N's generators.  Cosets are
        numbered breadth first from N, a level at a time: a level's new
        cosets in order of first occurrence over frontier x generators.
        The action is regular, so the quotient's element with first image j
        is the one taking coset 0 to j; its rows are filled along the
        generators' images, row[g(x)] = g(row[x]), and ordered by first
        image they are already sorted, so the quotient is never closed.

        Generator images are tracked: the quotient's .tracked carries the
        images of this group's tracked permutations.
        """
        if not self.is_normal(N):
            raise ValueError("quotient by a non-normal subgroup")
        left = self.product_indices(_image_rows(N.generators, self.degree), self._E)
        label = _least_in_orbits(self.order, list(left))
        if (np.bincount(label)[label] != N.order).any():
            raise RuntimeError("a coset of N does not have |N| elements")
        gens = _image_rows(self.generators, self.degree)
        number = np.full(self.order, -1, dtype=np.intp)  # coset number by label
        number[0] = 0
        frontier = np.zeros(1, dtype=np.intp)
        reps, steps, tree = [frontier], [], []
        count = 1
        while frontier.size:
            step = label[self.product_indices(self._E[frontier], gens)]
            flat = step.ravel()
            fresh = np.flatnonzero(number[flat] < 0)
            new, first = np.unique(flat[fresh], return_index=True)
            by_first = np.argsort(first)
            new, at = new[by_first], fresh[first[by_first]]
            number[new] = np.arange(count, count + new.size)
            count += new.size
            steps.append(number[step])
            # each new coset is its parent coset moved by one generator
            tree.append((number[new], number[frontier[at // len(gens)]],
                         at % len(gens)))
            reps.append(new)
            frontier = new
        assert count * N.order == self.order, "coset bookkeeping failed"
        images = np.concatenate(steps).T.astype(DTYPE)  # (generator, coset)
        R = self._E[np.concatenate(reps)]
        moved = number[label[self.product_indices(
            R, _image_rows(list(self.tracked.values()), self.degree))]]
        tracked = dict(zip(self.tracked, (Perm(t) for t in moved.T)))
        Q = PermGroup(count, (Perm(t) for t in images), tracked=tracked)
        rows = np.empty((count, count), dtype=DTYPE)
        rows[0] = np.arange(count)
        batch = max(1, _ROW_BATCH // count)
        for child, parent, k in tree:
            for s in range(0, child.size, batch):
                part = slice(s, s + batch)
                rows[child[part]] = images[k[part, None], rows[parent[part]]]
        rows.setflags(write=False)
        Q._E = rows
        return Q

    def element_key_set(self) -> frozenset[bytes]:
        """The image bytes of every element."""
        return frozenset(row.tobytes() for row in self.element_images)

    def generating_tuple(self) -> tuple[Perm, ...]:
        """Greedy lexicographically-least generating tuple."""
        _, picked = self.index_closure(range(self.order))
        return tuple(Perm.trusted(self._E[i]) for i in picked)


def generate(degree: int, gens: Iterable[Perm], **kw) -> PermGroup:
    return PermGroup(degree, gens, **kw)


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- isomorphism testing -----------------------------------------------------


def _class_invariants(G: PermGroup) -> np.ndarray:
    """Element order and class size per element index, as one int64 key."""
    labels = G.class_labels()
    return G.element_orders() * (G.order + 1) + np.bincount(labels)[labels]


def _prefix_orders(G: PermGroup, idx: Sequence[int]) -> list[int]:
    """Orders of the closures of the prefixes idx[:1], idx[:2], ..."""
    return [int(np.count_nonzero(G.index_closure(idx[: k + 1])[0]))
            for k in range(len(idx))]


def _tuple_search(G: PermGroup, orders: Sequence[int], pool: Callable,
                  leaf: Callable, seen: Optional[set] = None):
    """Depth-first search over tuples of element indices of G, grown one
    element at a time as in cyclic extension (Neubueser, Numer. Math. 2,
    1960).  pool(k, prefix) gives the candidates for position k; a prefix of
    length k + 1 survives when its closure, resumed from its prefix's, has
    exactly orders[k] elements, and keeps a candidate that its prefix already
    generates.  leaf(tuple, mask) returns the result, which ends the search,
    or None.  With seen, a set, a closure already reached at the same depth
    is not extended again: sound when pool and leaf depend on a prefix only
    through its closure."""

    def extend(prefix: list[int], closed):
        k = len(prefix)
        if k == len(orders):
            return leaf(prefix, closed[0])
        for h in pool(k, prefix):
            grown = G.index_closure([h], orders[k], closed)
            if grown is None or np.count_nonzero(grown[0]) != orders[k]:
                continue
            if seen is not None:
                state = (k, np.flatnonzero(grown[0]).tobytes())
                if state in seen:
                    continue
                seen.add(state)
            found = extend(prefix + [h], grown)
            if found is not None:
                return found
        return None

    result = extend([], G.index_closure(()))
    del extend  # the closure refers to itself; free it without the cyclic GC
    return result


def _least_in_orbits(n: int, maps: Sequence[np.ndarray]) -> np.ndarray:
    """The least index in the orbit of each of range(n) under the maps.

    Each index starts labelled by itself; the least label is pulled along
    every map, both ways, until nothing changes.
    """
    least = np.arange(n)
    while True:
        before = least
        for m in maps:
            least = np.minimum(least, least[m])
            least[m] = np.minimum(least[m], least)
        least = least[least]
        if (least == before).all():
            return least


def _image_rows(perms: Sequence[Perm], degree: int) -> np.ndarray:
    if not perms:
        return np.empty((0, degree), dtype=DTYPE)
    return np.stack([p.img for p in perms])


def _certify_hom(G: PermGroup, gens: Sequence[int], H: PermGroup,
                 imgs: Sequence[int]) -> bool:
    """Check that gens -> imgs, element indices, extends to an isomorphism
    via mirrored BFS.

    The search runs level by level from the identities, row 0; every edge
    x -> x*g is checked against phi(x) -> phi(x)*h, both read from the
    groups' right-multiplication maps.
    """
    n = G.order
    if H.order != n:
        return False
    phi = np.full(n, -1, dtype=np.intp)
    phi[0] = 0
    frontier = np.zeros(1, dtype=np.intp)
    reached = 1
    while frontier.size:
        fresh = []
        for g, h in zip(gens, imgs):
            y = G._right_map(g)[frontier]
            fy = H._right_map(h)[phi[frontier]]
            new = phi[y] < 0
            phi[y[new]] = fy[new]
            if (phi[y] != fy).any():
                return False
            fresh.append(np.unique(y[new]))
        frontier = np.concatenate([frontier[:0], *fresh])
        reached += frontier.size
    return reached == n and np.unique(phi).size == n


def isomorphic(G: PermGroup, H: PermGroup) -> bool:
    """Exact isomorphism test: fingerprint gate, then certified search."""
    if G is H:
        return True
    if G.order != H.order:
        return False
    if G.fingerprint() != H.fingerprint():
        return False
    if G.order == 1:
        return True
    return find_isomorphism(G, H) is not None


def find_isomorphism(
    G: PermGroup,
    H: PermGroup,
    gens: Optional[Sequence[Perm]] = None,
    allowed: Optional[np.ndarray] = None,
) -> Optional[tuple[Perm, ...]]:
    """Images in H of gens that extend to a certified isomorphism, or None.

    gens must generate G (default: its generating tuple).  The tuple search
    tries images with the orders of the partial subgroups <g_0..g_k>.  With
    allowed, a boolean mask over H's elements, only allowed images are
    tried; the search stays exhaustive as long as the allowed elements form
    a union of conjugacy classes of H.
    """
    if G.order != H.order:
        return None
    if gens is None:
        gens = G.generating_tuple()
    gen_idx = G.indices_of(gens).tolist()
    G_inv, H_inv = _class_invariants(G), _class_invariants(H)
    H_E = H.element_images
    ok = np.ones(H.order, dtype=bool) if allowed is None else allowed
    gen_rows = G.element_images[gen_idx]
    pair_orders = G.product_orders(gen_rows, gen_rows)  # [i, k]: o(g_i g_k)
    later = [np.flatnonzero((H_inv == G_inv[g]) & ok) for g in gen_idx]
    # the first image may be fixed to one representative per class
    # (conjugating an isomorphism by an inner automorphism is free)
    reps = H.class_representatives()

    def pool(k: int, imgs: list[int]) -> list[int]:
        if not k:
            return reps[(H_inv[reps] == G_inv[gen_idx[0]]) & ok[reps]].tolist()
        # o(imgs[i] * h) must equal o(gens[i] * gens[k]) for every i < k
        orders = H.product_orders(H_E[imgs], H_E[later[k]])
        return later[k][(orders == pair_orders[:k, k, None]).all(axis=0)].tolist()

    def leaf(imgs: list[int], _) -> Optional[tuple[Perm, ...]]:
        if not _certify_hom(G, gen_idx, H, imgs):
            return None
        return tuple(Perm.trusted(H_E[i]) for i in imgs)

    return _tuple_search(H, _prefix_orders(G, gen_idx), pool, leaf)


# -- standard constructions ---------------------------------------------------


def trivial_group(degree: int = 1) -> PermGroup:
    return PermGroup(degree, [], name="1")


def cyclic_group(n: int) -> PermGroup:
    if n == 1:
        return trivial_group()
    gen = Perm.from_cycles(n, [tuple(range(1, n + 1))])
    return PermGroup(n, [gen], name=f"C{n}")


def symmetric_group(n: int) -> PermGroup:
    if n <= 1:
        return trivial_group(max(n, 1))
    gens = [Perm.from_cycles(n, [(1, 2)])]
    if n > 2:
        gens.append(Perm.from_cycles(n, [tuple(range(1, n + 1))]))
    return PermGroup(n, gens, name=f"S{n}")


def alternating_group(n: int) -> PermGroup:
    if n <= 2:
        return trivial_group(max(n, 1))
    gens = [Perm.from_cycles(n, [(1, 2, 3)])]
    if n > 3:
        long = tuple(range(1, n + 1)) if n % 2 else tuple(range(2, n + 1))
        gens.append(Perm.from_cycles(n, [long]))
    return PermGroup(n, gens, name=f"A{n}")


def dihedral_group(order: int) -> PermGroup:
    """Dihedral group named by order: dihedral_group(8) has 8 elements."""
    if order % 2 or order < 2:
        raise ValueError("dihedral order must be even and >= 2")
    n = order // 2
    if n == 1:
        return PermGroup(2, [Perm.from_cycles(2, [(1, 2)])], name="C2")
    if n == 2:
        gens = [Perm.from_cycles(4, [(1, 2)]), Perm.from_cycles(4, [(3, 4)])]
        return PermGroup(4, gens, name="D4")
    rot = Perm.from_cycles(n, [tuple(range(1, n + 1))])
    ref = Perm(np.array([n - 1 - i for i in range(n)], dtype=DTYPE))
    return PermGroup(n, [rot, ref], name=f"D{order}")


def elementary_abelian_2(rank: int) -> PermGroup:
    gens = [
        Perm.from_cycles(2 * rank, [(2 * i + 1, 2 * i + 2)]) for i in range(rank)
    ]
    return PermGroup(2 * rank, gens, name=f"2^{rank}")


def quaternion_group() -> PermGroup:
    i = Perm.from_cycles(8, [(1, 3, 2, 4), (5, 8, 6, 7)])
    j = Perm.from_cycles(8, [(1, 5, 2, 6), (3, 7, 4, 8)])
    return PermGroup(8, [i, j], name="Q8")


def dicyclic_group_12() -> PermGroup:
    a = Perm.from_cycles(12, [(1, 2, 3, 4, 5, 6), (7, 12, 11, 10, 9, 8)])
    b = Perm.from_cycles(12, [(1, 7, 4, 10), (2, 8, 5, 11), (3, 9, 6, 12)])
    return PermGroup(12, [a, b], name="Dic3")


def direct_product(*groups: PermGroup, name: Optional[str] = None) -> PermGroup:
    degree = sum(G.degree for G in groups)
    gens = []
    offset = 0
    for G in groups:
        for g in G.generators:
            img = np.arange(degree, dtype=DTYPE)
            img[offset : offset + G.degree] = g.img + offset
            gens.append(Perm(img))
        offset += G.degree
    if name is None:
        name = " x ".join(G.name or "?" for G in groups)
    return PermGroup(degree, gens, name=name)
