"""Words, presentations and coset enumeration."""

import hashlib
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tpg import fpgrp
from tpg.fpgrp import (
    R1,
    R2,
    R3,
    R4,
    R5,
    CosetTable,
    Presentation,
    Word,
    coset_action,
    evaluate_word,
    parse_presentation,
    parse_word,
    todd_coxeter,
    tp_presentation,
    _Enumerator,
    _letter_rows,
    _standardize,
    _verify,
)
from tpg.permgrp import (
    CapacityError,
    Perm,
    cyclic_group,
    dihedral_group,
    direct_product,
    generate,
    isomorphic,
    symmetric_group,
)


def verify_presentation(pres, images, H):
    """True iff the images satisfy every relator and generate H.

    Combined with a coset count of the presentation over the trivial
    subgroup equal to |H|, this certifies that H is the presented group.
    """
    gens = [images[g] for g in "abc"]
    if any(g.degree != H.degree for g in gens):
        return False
    for w in pres.relator_words():
        if not evaluate_word(w, images).is_identity():
            return False
    if any(g not in H for g in gens):
        return False
    return H.is_generated_by(gens)


def perms(degree, *cycle_strs):
    return [Perm.parse(s, degree) for s in cycle_strs]


def images(degree, sa, sb, sc):
    a, b, c = perms(degree, sa, sb, sc)
    return {"a": a, "b": b, "c": c}


# The explicit generator triple for the order-216 group S3 x S3 x S3.
IMAGES_S3CUBED = images(9, "(1,2)(4,5)", "(4,5)(7,8)", "(1,3)(4,6)(7,9)")

# The explicit generator triple for the order-3840 group 2^5:S5.
IMAGES_BIG = images(
    12,
    "(1,2)(3,4)(5,6)(7,8)(9,10)(11,12)",
    "(1,3)(2,4)(5,8)(6,7)(9,12)(10,11)",
    "(1,7)(2,6)(3,9)(4,11)(5,10)(8,12)",
)


class TestWord:
    def test_relator_letter_strings(self):
        assert str(R1) == "acbc"
        assert str(R2) == "abcbc"
        assert str(R3) == "abcac"
        assert str(R4) == "cacbca"
        assert str(R5) == "acacbcbc"

    def test_algebra(self):
        w = Word("ab") * Word("c")
        assert w == Word("abc")
        assert w.inverse() == Word("cba")
        assert Word("ac") ** 3 == Word("acacac")
        assert Word("ac") ** 0 == Word()
        assert Word("ac") ** -1 == Word("ca")
        assert Word("a").conj(Word("ca")) == Word("acaca")
        assert len(Word("abc")) == 3
        assert str(Word()) == "1"

    def test_reduced(self):
        assert Word("abba").reduced() == Word()
        assert Word("aabccb").reduced() == Word()
        assert Word("acbc").reduced() == Word("acbc")
        assert Word("abccba").reduced() == Word()

    def test_validation(self):
        with pytest.raises(ValueError):
            Word("ad")
        with pytest.raises(AttributeError):
            Word("a").letters = ()

    def test_parse_basics(self):
        assert parse_word("abc") == Word("abc")
        assert parse_word("a*b*c") == Word("abc")
        assert parse_word("(ab)^2") == Word("abab")
        assert parse_word("b^(ca)") == Word("acbca")
        assert parse_word("a^-1") == Word("a")
        assert parse_word("(ac)^-2") == Word("caca")
        assert parse_word("1") == Word()
        assert parse_word("a^b^c") == Word("a").conj(Word("b")).conj(Word("c"))

    @pytest.mark.parametrize("text, letters", [
        ("ab^2", "abb"),  # a power binds the letter before it only
        ("b^ca", "cbca"),  # a conjugator is one atom: (b^c)a
        ("b^(ca)", "acbca"),
        ("(ab)^2", "abab"),
        ("a b * c", "abc"),
        ("1", "1"),
        ("ab^-1", "ab"),
        ("(a^b)^c", "cbabc"),
        ("a * b^c", "acbc"),  # R1 .. R5
        ("ab * b^c", "abcbc"),
        ("ab * a^c", "abcac"),
        ("c * b^(ca)", "cacbca"),
        ("c^a * c^(bc)", "acacbcbc"),
    ])
    def test_parse_binding(self, text, letters):
        assert str(parse_word(text)) == letters

    def test_letter_runs_are_bounded(self, monkeypatch):
        monkeypatch.setattr(fpgrp, "MAX_WORD_LENGTH", 5)
        assert parse_word("abcab") == Word("abcab")
        for bad in ("abcabc", "ab(c)abc", "abcb^a"):
            with pytest.raises(ValueError, match="word longer than 5 letters"):
                parse_word(bad)

    def test_parse_errors(self):
        for bad in ("d", "(ab", "ab)", "a^", "2", "a^()b??"):
            with pytest.raises(ValueError):
                parse_word(bad)

    def test_length_bounds(self, monkeypatch):
        # rejected before any long word is built
        monkeypatch.setattr(Word, "__pow__", lambda w, n: pytest.fail(
            f"power {n} was built"))
        for bad in ("a^1001", "1^-99999999999999999999"):
            with pytest.raises(ValueError, match="exponent"):
                parse_word(bad)
        nested = "a" + "^(a" * 25 + ")" * 25  # conjugates double the length
        with pytest.raises(ValueError, match="longer than"):
            parse_word(nested)
        monkeypatch.undo()
        assert len(parse_word("(ab)^1000")) == 2000
        with pytest.raises(ValueError, match="longer than"):
            parse_word("(((ab)^1000)^1000)")
        with pytest.raises(ValueError, match="longer than"):
            parse_word(" ".join(["(ab)^1000"] * 501))
        # nesting past the recursion limit is an error, not a RecursionError
        with pytest.raises(ValueError, match="nested deeper"):
            parse_word("(" * 5000 + "a" + ")" * 5000)
        assert parse_word("(" * 100 + "a" + ")" * 100) == Word("a")

    @given(st.lists(st.sampled_from("abc"), max_size=12))
    def test_parse_print_round_trip(self, letters):
        w = Word(letters)
        assert parse_word(str(w)) == w

    @given(
        st.lists(st.sampled_from("abc"), max_size=8),
        st.lists(st.sampled_from("abc"), max_size=8),
    )
    def test_inverse_antihomomorphism(self, xs, ys):
        u, v = Word(xs), Word(ys)
        assert (u * v).inverse() == v.inverse() * u.inverse()
        assert u.inverse().inverse() == u

    @given(st.lists(st.sampled_from("abc"), max_size=10))
    def test_reduction_preserves_evaluation(self, letters):
        w = Word(letters)
        lhs = evaluate_word(w, IMAGES_S3CUBED)
        assert lhs == evaluate_word(w.reduced(), IMAGES_S3CUBED)
        assert w.reduced().reduced() == w.reduced()

    @given(
        st.lists(st.sampled_from("abc"), max_size=8),
        st.lists(st.sampled_from("abc"), max_size=6),
    )
    def test_conjugation_matches_permutations(self, xs, ys):
        w, y = Word(xs), Word(ys)
        pw = evaluate_word(w, IMAGES_S3CUBED)
        py = evaluate_word(y, IMAGES_S3CUBED)
        assert evaluate_word(w.conj(y), IMAGES_S3CUBED) == pw.conj(py)


class TestPresentation:
    def test_tp_presentation_relators(self):
        p = tp_presentation(4, 4, 4)
        assert p.relators == (
            (Word("a"), 2),
            (Word("b"), 2),
            (Word("c"), 2),
            (Word("ab"), 2),
            (Word("ac"), 4),
            (Word("bc"), 4),
            (Word("abc"), 4),
        )

    def test_added_relations(self):
        p = tp_presentation(6, 6, 6, (6, 6, 6, None, 3))
        assert p.relators[-4:] == ((R1, 6), (R2, 6), (R3, 6), (R5, 3))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            tp_presentation(0, 4, 4)
        with pytest.raises(ValueError):
            tp_presentation(4, 7, 4)
        with pytest.raises(ValueError):
            tp_presentation(4, 4, 4, (1, 2))
        with pytest.raises(ValueError):
            tp_presentation(4, 4, 4, (7, None, None, None, None))

    def test_with_relator_validation(self):
        p = tp_presentation(4, 4, 4)
        with pytest.raises(ValueError):
            p.with_relator(Word(), 2)
        with pytest.raises(ValueError):
            p.with_relator(Word("ac"), 0)

    def test_text_round_trip(self):
        p = tp_presentation(4, 5, 6, (4, None, None, None, 3))
        p = p.with_relator(Word("cacbca"), 1)
        text = "mnp: 4 5 6\nr: 4 - - - 3\nrelator: cacbca\nsubgroup: ab\n"
        assert parse_presentation(text) == (p, (Word("ab"),))

    def test_parse_with_comments(self):
        text = """
        # the (4,4,4) member
        mnp: 4 4 4   # o(ac), o(bc), o(abc)

        relator: acbc  # one extra relator
        subgroup: a
        """
        p, subgroup = parse_presentation(text)
        assert p.relators == tp_presentation(4, 4, 4).relators + (
            (Word("acbc"), 1),)
        assert subgroup == (Word("a"),)

    def test_parse_errors(self):
        for text, message in (
            ("mnp: 6 6\n", "three integers"),
            ("mnp: 6 6 6\nr: 6 6 6\n", "five entries"),
            ("r: 6 6 6 - 3\n", "missing 'mnp:'"),
            ("mnp: 6 6 6\nrel: ab\n", "unrecognized line"),
            ("mnp: 6 6 7\n", "out of range"),
            ("mnp: 6 6 6\nrelator: a^99999999999999999999\n", "exponent"),
            ("mnp: 6 6 6\nmnp: 2 2 2\n", "repeated 'mnp:' line"),
            ("mnp: 6 6 6\nr: 6 6 6 - -\nr: 6 6 6 5 -\n", "repeated 'r:' line"),
            ("mnp: 0x6 6 6\n", "'mnp:' value '0x6' is not an integer"),
            ("mnp: 6 6 6\nr: 6 six 6 - -\n", "'r:' value 'six' is not an integer"),
        ):
            with pytest.raises(ValueError, match=message):
                parse_presentation(text)


class TestEvaluate:
    def test_single_letter(self):
        assert evaluate_word(Word("a"), IMAGES_S3CUBED) == IMAGES_S3CUBED["a"]

    def test_cube_values_in_s3_cubed(self):
        vals = {
            "(ac)^3": "(7,9)",
            "(bc)^3": "(1,3)",
            "(abc)^3": "(4,6)",
        }
        for expr, cyc in vals.items():
            got = evaluate_word(parse_word(expr), IMAGES_S3CUBED)
            assert got == Perm.parse(cyc, 9)
        assert evaluate_word(Word("ac"), IMAGES_S3CUBED).order() == 6

    def test_relator_orders_pin_conjugation_convention(self):
        # the 2^5:S5 triple satisfies added relations (5,5,5,4): any other
        # reading of x^y would change these orders
        assert evaluate_word(R1, IMAGES_BIG).order() == 5
        assert evaluate_word(R2, IMAGES_BIG).order() == 5
        assert evaluate_word(R3, IMAGES_BIG).order() == 5
        assert evaluate_word(R4, IMAGES_BIG).order() == 4

    def test_identity_word(self):
        assert evaluate_word(Word(), IMAGES_BIG).is_identity()

    def test_degree_mismatch(self):
        bad = dict(IMAGES_BIG)
        bad["c"] = Perm.identity(5)
        with pytest.raises(ValueError):
            evaluate_word(Word("abc"), bad)


class TestToddCoxeter:
    def test_m1_collapse(self):
        t = todd_coxeter(tp_presentation(1, 6, 6))
        assert t.coset_count == 4
        G = coset_action(t)
        assert G.order == 4
        assert G.is_elementary_abelian_2()

    def test_m2_collapse(self):
        t = todd_coxeter(tp_presentation(2, 6, 6))
        assert t.coset_count == 24
        G = coset_action(t)
        ref = direct_product(cyclic_group(2), dihedral_group(12))
        assert isomorphic(G, ref)

    def test_m3_collapse(self):
        t = todd_coxeter(tp_presentation(3, 6, 6))
        assert t.coset_count == 108

    @pytest.mark.parametrize("r4,count", [(1, 12), (5, 12), (3, 108), (2, 216), (4, 216)])
    def test_r4_collapses(self, r4, count):
        t = todd_coxeter(tp_presentation(6, 6, 6, (6, 6, 6, r4, None)))
        assert t.coset_count == count
        if count == 12:
            assert isomorphic(coset_action(t), dihedral_group(12))

    def test_r4_3_matches_m3(self):
        a = coset_action(todd_coxeter(tp_presentation(6, 6, 6, (6, 6, 6, 3, None))))
        b = coset_action(todd_coxeter(tp_presentation(3, 6, 6)))
        assert isomorphic(a, b)

    def test_wreath_group_order(self):
        t = todd_coxeter(tp_presentation(4, 4, 4))
        assert t.coset_count == 64
        gens = perms(8, "(1,2)(3,4)", "(1,3)(2,4)(5,6)(7,8)", "(1,5)(2,7)")
        assert generate(8, gens).order == 64

    def test_subgroup_enumeration(self):
        t = todd_coxeter(tp_presentation(1, 6, 6), subgroup=[Word("a")])
        assert t.coset_count == 2
        assert t.subgroup == (Word("a"),)

    def test_capacity_error(self):
        free = Presentation(((Word("a"), 2), (Word("b"), 2), (Word("c"), 2)))
        with pytest.raises(CapacityError):
            todd_coxeter(free, capacity=500)

    def test_square_relators_required(self):
        bad = Presentation(((Word("a"), 2), (Word("b"), 2)))
        with pytest.raises(ValueError):
            todd_coxeter(bad)

    def test_determinism(self):
        p = tp_presentation(2, 6, 6)
        assert todd_coxeter(p).rows == todd_coxeter(p).rows

    def test_table_structure(self):
        t = todd_coxeter(tp_presentation(2, 6, 6))
        n = t.coset_count
        for letter in "abc":
            col = t.column(letter)
            assert sorted(col) == list(range(n))
            assert all(col[col[i]] == i for i in range(n))

    def test_coset_action_on_incomplete_table(self):
        t = CosetTable(rows=((0, 0, 0),), complete=False)
        with pytest.raises(ValueError):
            coset_action(t)

    def test_coset_action_beyond_uint16(self):
        # 65536 cosets: a, b, c all swap 2i and 2i+1, a complete involutory table
        rows = tuple((i ^ 1, i ^ 1, i ^ 1) for i in range(65536))
        t = CosetTable(rows=rows, complete=True)
        with pytest.raises(CapacityError, match="65535"):
            coset_action(t)


G11 = tp_presentation(6, 6, 6, (6, 6, 6, None, 3))


class TestDefinitionOrder:
    """The HLT definitions, their order and the standardization are fixed:
    any change to them moves these tables or the capacity boundary."""

    @pytest.mark.parametrize("pres,subgroup,count,digest", [
        (tp_presentation(6, 6, 6, (5, 5, 5, 4, None)), (), 3840,
         "f15e59db57cb0f358c17c7451fe23c14b743fa8dacc93ef9a8a989c894ea3bce"),
        (G11, ("a", "b", "bacacacbacacacbacacac"), 2187,
         "05205c32e40c02f033d5a366ed44208772dc44d4732f7db053ae6540a8161613"),
        (tp_presentation(6, 6, 6, (6, 6, 6, 4, None)), (), 216,
         "bb3eafd8bb02d875331b22d1190c54501787460f6a18f7a9e0da61826530b246"),
        (G11.with_relator(parse_word("c^(acbcacb) * c^(bcacbca)")), (), 5832,
         "e56ccfb66dbc1d8a0a50d4e8dd4cc407009fe57a14615de23422523ce376a638"),
    ], ids=["G10", "G11-over-2^3", "R4_4", "quotient5832"])
    def test_standardized_rows_are_pinned(self, pres, subgroup, count, digest):
        t = todd_coxeter(pres, subgroup=[parse_word(w) for w in subgroup])
        assert t.coset_count == count
        assert hashlib.sha256(repr(t.rows).encode()).hexdigest() == digest

    def test_g9_capacity_boundary(self):
        # the HLT run on G9 defines 14,735 cosets, 1,152 of them live
        g9 = tp_presentation(6, 6, 6, (4, 6, 6, None, None))
        assert todd_coxeter(g9, capacity=14735).coset_count == 1152
        with pytest.raises(CapacityError):
            todd_coxeter(g9, capacity=14734)

    @pytest.mark.parametrize("pres,subgroup,defined,count", [
        (tp_presentation(6, 6, 6, (5, 5, 5, 4, None)), (), 10289, 3840),
        (G11, ("a", "b", "bacacacbacacacbacacac"), 8415, 2187),
        (G11.with_relator(parse_word("c^(acbcacb) * c^(bcacbca)")), (),
         22192, 5832),
        (tp_presentation(6, 6, 6, (6, 6, 6, 4, None)), (), 26502, 216),
        (G11, (), 65159, 17496),
        (tp_presentation(6, 6, 6, (6, 6, 6, 5, None)), (), 100563, 12),
    ], ids=["G10", "G11-over-2^3", "quotient5832", "R4_4", "G11", "R4_5"])
    def test_capacity_boundary(self, pres, subgroup, defined, count):
        # the HLT run defines exactly `defined` cosets, live plus collapsed
        words = [parse_word(w) for w in subgroup]
        assert todd_coxeter(pres, words, capacity=defined).coset_count == count
        with pytest.raises(CapacityError):
            todd_coxeter(pres, words, capacity=defined - 1)


class ReferenceEnumerator(_Enumerator):
    """The plain HLT sweep: every relator, in sort order, is scanned at every
    live coset to the end of the sweep, and no scan sets a mark.  Its scan
    is the plain one, with one definition per reading and a _rep lookup on
    every entry read, and so is its coincidence pass: a merge function,
    representative lookups through _rep, and a FIFO deque of merged
    cosets."""

    def _plain_scan(self, start, cword):
        rep = self._rep
        f, i = start, 0
        b, j = start, len(cword) - 1
        while True:
            while i <= j and cword[i][f] != -1:
                f = rep(cword[i][f])
                i += 1
            if i > j:
                if f != b:
                    self._coincidence(f, b)
                return
            while j >= i and cword[j][b] != -1:
                b = rep(cword[j][b])
                j -= 1
            if j < i:
                self._coincidence(f, b)
                return
            if j == i:
                cword[i][f] = b
                cword[i][b] = f
                self.mutations += 1
                return
            self._define(f, cword[i])

    def _coincidence(self, k, l):
        parent = self.parent
        rep = self._rep
        queue = deque()

        def merge(u, v):
            u, v = rep(u), rep(v)
            if u == v:
                return
            if u > v:
                u, v = v, u
            parent[v] = u
            self.mutations += 1
            queue.append(v)

        merge(k, l)
        while queue:
            g = queue.popleft()
            for col in self.cols:
                d = col[g]
                if d == -1:
                    continue
                if col[d] == g:
                    col[d] = -1
                u, v = rep(g), rep(d)
                eu, ev = col[u], col[v]
                if eu == -1 and ev == -1:
                    col[u] = v
                    col[v] = u
                    self.mutations += 1
                else:
                    if eu != -1:
                        merge(v, eu)
                    if ev != -1:
                        merge(u, ev)

    def _sweep(self):
        parent = self.parent
        scan = self._plain_scan
        for cword in self._columns(self.subgroup_rows):
            scan(0, cword)
        rel_cols = self._columns(self.relators)
        alpha = 0
        while alpha < self.defined:
            if parent[alpha] == alpha:
                for cword in rel_cols:
                    scan(alpha, cword)
                    if parent[alpha] != alpha:
                        break
                else:
                    for col in self.cols:
                        if col[alpha] == -1:
                            self._define(alpha, col)
            alpha += 1


def enumeration_trace(cls, pres, subgroup, capacity):
    """Standardized rows, defined count and mutation count of one run, or
    the counts at which it ran out of capacity."""
    rel_rows, sub_rows = _letter_rows(pres, subgroup)
    enum = cls(rel_rows, sub_rows, capacity)
    try:
        rows = _standardize(enum.run()).tolist()
    except CapacityError:
        rows = None
    return rows, enum.defined, enum.mutations


def reference_standardize(mat):
    """The BFS, one coset at a time over a list queue, that the numpy level
    steps replaced."""
    cols = mat.tolist()
    n = len(cols[0])
    number = [-1] * n
    number[0] = 0
    order = [0]
    for u in order:  # order grows while it is walked: a BFS queue
        for col in cols:
            v = col[u]
            if number[v] == -1:
                number[v] = len(order)
                order.append(v)
    if len(order) != n:
        raise RuntimeError("coset table is not transitive")
    return np.array(number, dtype=np.int32)[mat[:, order]]


@pytest.mark.parametrize("pres,subgroup", [
    (tp_presentation(3, 3, 3), ()),
    (tp_presentation(1, 6, 6), ()),
    (tp_presentation(4, 5, 6), ()),
    (tp_presentation(6, 6, 6, (5, 5, 5, 4, None)), ()),
    (G11, ("a", "b", "bacacacbacacacbacacac")),
], ids=["1", "4", "240", "G10", "G11-over-2^3"])
def test_standardize_matches_reference(pres, subgroup):
    words = [parse_word(w) for w in subgroup]
    mat = _Enumerator(*_letter_rows(pres, words), 10**6).run()
    n = mat.shape[1]
    rng = np.random.default_rng(n)
    for _ in range(4):
        got = _standardize(mat)
        assert got.dtype == np.int32
        assert np.array_equal(got, reference_standardize(mat))
        # coset i renamed p[i]: the same table, numbered another way
        p = rng.permutation(n)
        renamed = np.empty_like(mat)
        renamed[:, p] = p[mat]
        mat = renamed
    split = np.concatenate([mat, mat + n], axis=1)  # two orbits
    for standardize in (_standardize, reference_standardize):
        with pytest.raises(RuntimeError, match="not transitive"):
            standardize(split)


WORDS = st.lists(st.sampled_from("abc"), min_size=1, max_size=8).map(Word)
# m = 1 puts the relator ac between the squares aa and bb in sort order
MEMBERS = (st.tuples(*[st.integers(1, 6)] * 3)
           | st.tuples(st.just(1), st.integers(1, 6), st.integers(1, 6)))
# 69 distinct relator lines (ab)^2k, all consequences of (ab)^2, so more
# relators than there are mark bits
MANY_RELATORS = "".join(f"relator: (ab)^{2 * k}\n" for k in range(1, 70))


def sweep_input(mnp, r, extra, subgroup, many):
    """The presentation and subgroup words one draw of SWEEP_ARGS names."""
    # extra relators are not reduced: words such as aab stay as drawn
    text = "mnp: %d %d %d\n" % mnp
    if r is not None:
        text += "r: " + " ".join("-" if x is None else str(x) for x in r) + "\n"
    text += "".join(f"relator: {w}\n" for w in extra)
    text += "".join(f"subgroup: {w}\n" for w in subgroup)
    if many:
        text += MANY_RELATORS
    pres, words = parse_presentation(text)
    if many:
        assert len(_letter_rows(pres, words)[0]) > 64
    return pres, words


SWEEP_ARGS = (MEMBERS,
              st.none() | st.tuples(*[st.none() | st.integers(1, 6)] * 5),
              st.lists(WORDS, max_size=2),
              st.lists(WORDS, max_size=2),
              st.booleans())


@settings(max_examples=80, deadline=None)
@example((1, 6, 6), None, [Word("aab")], [], False)
@example((1, 5, 6), None, [], [Word("c")], True)
# complete at 20 live of 22 defined cosets, fails the relator check there,
# and collapses to 1 later in the same sweep
@example((3, 3, 3), None, [], [], False)
# the two cases where a scan fills its gap one definition at a time: the
# next letter reads the new coset's column again (4 times here), and the
# backward end is the forward end on that column (3 times, on 12 cosets)
@example((3, 3, 3), None, [Word("acca")], [], False)
@example((3, 3, 4), None, [], [Word("c")], False)
@given(*SWEEP_ARGS)
def test_skipping_sweep_matches_reference(mnp, r, extra, subgroup, many):
    pres, words = sweep_input(mnp, r, extra, subgroup, many)
    got = enumeration_trace(_Enumerator, pres, words, 2000)
    assert got == enumeration_trace(ReferenceEnumerator, pres, words, 2000)


class LiveEntriesEnumerator(_Enumerator):
    """Checks, after every coincidence pass, the invariant that lets a scan
    read without _rep: every entry of a live coset is -1 or a live coset."""

    coincidences = 0

    def _coincidence(self, k, l):
        super()._coincidence(k, l)
        self.coincidences += 1
        n = self.defined
        live = np.frombuffer(self.parent, dtype=np.int32)[:n] == np.arange(n)
        rows = np.stack([np.frombuffer(col, dtype=np.int32)[:n][live]
                         for col in self.cols])
        # a -1 entry reads live[-1], which the first term overrides
        assert ((rows == -1) | live[rows]).all()


@settings(max_examples=60, deadline=None)
@given(*SWEEP_ARGS)
def test_live_cosets_name_only_live_cosets(mnp, r, extra, subgroup, many):
    try:
        LiveEntriesEnumerator(*_letter_rows(*sweep_input(
            mnp, r, extra, subgroup, many)), 2000).run()
    except CapacityError:
        pass


def test_live_cosets_name_only_live_cosets_in_g11():
    # G11 over <a, b, x^3>, x = b(ac)^3: 8,415 cosets defined for 2,187,
    # with 248 coincidence passes
    words = [parse_word(w) for w in ("a", "b", "bacacacbacacacbacacac")]
    enum = LiveEntriesEnumerator(*_letter_rows(G11, words), 10**6)
    assert enum.run().shape == (3, 2187)
    assert enum.coincidences > 100


@pytest.mark.parametrize("pres,closed", [
    (tp_presentation(6, 6, 6, (5, 5, 5, 4, None)), True),
    (tp_presentation(3, 3, 3), False),
], ids=["G10", "3-3-3"])
def test_sweep_returns_only_a_closed_table(pres, closed):
    # G10's first sweep finds its table complete and closed and returns it;
    # (3, 3, 3)'s is complete only at a point where a relator fails, so the
    # sweep runs to its end, and the check after it finds the collapse
    enum = _Enumerator(*_letter_rows(pres, ()), 10**6)
    mat = enum._sweep()
    if closed:
        assert mat is not None and mat.shape == (3, 3840)
        _verify(mat, enum.relators, enum.subgroup_rows)
        assert enum.defined == 10289
    else:
        assert mat is None
        assert enum._closed_table().shape == (3, 1)


def test_mark_bits_fit_their_array():
    # the squares plus (ab)^2k: every relator's bit fits the marks' type,
    # whichever width its count picks
    squares = [(0, 0), (1, 1), (2, 2)]
    for n in range(1, 70):
        rows = squares + [(0, 1) * (2 * k) for k in range(1, n + 1)]
        enum = _Enumerator(rows, [], 10)
        for _, bit, _ in enum.rel_scans:
            enum.marks[0] |= bit
        assert sum(bit > 0 for _, bit, _ in enum.rel_scans) == min(n + 3, 64)

def letter_rows(words):
    return [tuple("abc".index(ch) for ch in w.letters) for w in words]


def reference_fault(mat, relators, subgroup_rows):
    """The entry-by-entry loops that the vectorised verifier replaced."""
    rows = mat.T.tolist()
    n = len(rows)
    for i, row in enumerate(rows):
        for x in (0, 1, 2):
            j = row[x]
            if not 0 <= j < n or rows[j][x] != i:
                return "symmetry"
    for rel in relators:
        for i in range(n):
            pos = i
            for x in rel:
                pos = rows[pos][x]
            if pos != i:
                return "relator"
    for sub in subgroup_rows:
        pos = 0
        for x in sub:
            pos = rows[pos][x]
        if pos != 0:
            return "subgroup"
    return None


class TestVerifier:
    """The check every enumerated table passes before it is returned."""

    PRES = tp_presentation(4, 5, 6)  # 240 cosets

    @pytest.fixture
    def table(self):
        t = todd_coxeter(self.PRES)
        return np.array(t.rows, dtype=np.int32).T.copy()

    def check(self, mat, subgroup=()):
        """The verifier's verdict, which must match the reference loops."""
        rels = letter_rows(self.PRES.relator_words())
        subs = letter_rows(subgroup)
        fault = reference_fault(mat, rels, subs)
        if fault is None:
            _verify(mat, rels, subs)
        else:
            with pytest.raises(RuntimeError, match=f"failed {fault} verification"):
                _verify(mat, rels, subs)
        return fault

    def test_enumerated_table_passes(self, table):
        assert self.check(table) is None

    @pytest.mark.parametrize("tamper", ["cycle", "out-of-range", "negative"])
    def test_column_not_an_involution(self, table, tamper):
        n = table.shape[1]
        if tamper == "cycle":
            table[0] = (np.arange(n) + 1) % n
        else:
            table[1][5] = n if tamper == "out-of-range" else -1
        assert self.check(table) == "symmetry"

    def test_relator_failing_away_from_coset_0(self, table):
        rels = letter_rows(self.PRES.relator_words())

        def visited_from_0(mat):
            seen = {0}
            for rel in rels:
                pos = 0
                for x in rel:
                    pos = int(mat[x][pos])
                    seen.add(pos)
            return seen

        # re-pair two c-edges that no relator walk from coset 0 touches
        seen = visited_from_0(table)
        c = table[2]
        far = [k for k in range(len(c)) if c[k] != k and k not in seen
               and c[k] not in seen]
        i = far[0]
        j = next(k for k in far if k not in (i, c[i]))
        i2, j2 = int(c[i]), int(c[j])
        c[i], c[j], c[i2], c[j2] = j, i, j2, i2
        # every relator still fixes coset 0
        for rel in rels:
            pos = 0
            for x in rel:
                pos = int(table[x][pos])
            assert pos == 0
        assert self.check(table) == "relator"

    def test_subgroup_word_moves_coset_0(self, table):
        # the regular table satisfies every relator, but a moves coset 0
        assert self.check(table, subgroup=[Word("a")]) == "subgroup"


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.integers(1, 6)] * 3),
       st.none() | st.tuples(*[st.none() | st.integers(1, 6)] * 5))
def test_random_family_members_agree_with_permgrp(mnp, r):
    # without added relations most members are finite (up to 660 here) and
    # (4,6,6), (5,5,6), (5,6,6), (6,6,6) exhaust the capacity
    pres = tp_presentation(*mnp, r)
    try:
        t = todd_coxeter(pres, capacity=3000)
    except CapacityError:
        return
    G = coset_action(t)
    assert G.order == t.coset_count
    for w in pres.relator_words():
        assert evaluate_word(w, G.tracked).is_identity()


class TestPaperGroups:
    def test_trio_of_order_72_presentations_pairwise_isomorphic(self):
        actions = []
        for r in [(2, 6, 6), (6, 2, 6), (6, 6, 2)]:
            t = todd_coxeter(tp_presentation(6, 6, 6, r + (None, None)))
            assert t.coset_count == 72
            actions.append(coset_action(t))
        assert isomorphic(actions[0], actions[1])
        assert isomorphic(actions[1], actions[2])

    def test_s6_presentation(self):
        x = parse_word("(bc)^3 * b^(ca)")
        pres = tp_presentation(6, 6, 5, (4, None, None, None, None)).with_relator(x, 3)
        imgs = images(6, "(1,2)(3,4)(5,6)", "(5,6)", "(2,3)(4,5)")
        assert verify_presentation(pres, imgs, symmetric_group(6))
        assert todd_coxeter(pres).coset_count == 720

    def test_s6_verify_rejects_identity_images(self):
        x = parse_word("(bc)^3 * b^(ca)")
        pres = tp_presentation(6, 6, 5, (4, None, None, None, None)).with_relator(x, 3)
        ident = {g: Perm.identity(6) for g in "abc"}
        assert not verify_presentation(pres, ident, symmetric_group(6))

    def test_order_216_presentation(self):
        y = parse_word("a * c^(bc)")
        pres = tp_presentation(6, 6, 6, (6, 6, 6, None, 3)).with_relator(y, 2)
        imgs = images(11, "(1,4)(2,6)(3,5)(8,9)", "(1,4)(2,8)(6,9)(10,11)", "(2,7)(3,4)(5,9)")
        t = todd_coxeter(pres)
        assert t.coset_count == 216
        H = generate(11, list(imgs.values()))
        assert H.order == 216
        assert verify_presentation(pres, imgs, H)

    def test_verify_rejects_degree_mismatch(self):
        pres = tp_presentation(1, 6, 6)
        imgs = {g: Perm.identity(4) for g in "abc"}
        assert not verify_presentation(pres, imgs, symmetric_group(6))
