"""Words over three involutory generators, presentations, and coset enumeration.

Everything here works with groups presented on generators a, b, c that are
all involutions, so words never need formal inverse symbols: the inverse of
a word is its reversal.  Words do not auto-reduce; cancelling adjacent equal
letters is available explicitly via :meth:`Word.reduced` and is sound because
every presentation carries the square relators.

Coset enumeration is HLT-style with coincidence handling (Holt, Eick and
O'Brien, Handbook of Computational Group Theory, ch. 5).  The table lives in
one ``array('i')`` per generator column plus a union-find parent array and
an unsigned array of relator marks, all grown in fixed chunks of cosets;
scans read each relator as a tuple of those column arrays.  Every entry of
a live coset is undefined or a live coset, so scans read the columns
without union-find lookups, and a scan that stops with a gap of two or
more letters defines the cosets along the gap in one pass.  A scan closes
the relator's cycle through its coset, and it marks the cosets of that
cycle from which the relator reads the same cycle, so the sweep skips
every scan it can prove is a no-op; the definitions, coincidences and
defined-coset count are those of the plain HLT sweep.  The live rows are
compacted into a numpy table, and one vectorised check (columns are
involutions of range(n), every relator fixes every coset, every subgroup
word fixes coset 0) decides whether the table is closed.  The check runs
after each sweep, and once within it: the sweep tracks the first live
coset with an undefined entry, and once no live row has one, it checks
the table.  A table that passes is complete and closed, which is where HLT
ends, so every scan left would be a no-op and the sweep stops there.  The
closed table is renumbered breadth-first from the subgroup coset, one numpy
step per BFS level (a canonical standardization), and checked again, so a
returned table is always complete, closed and deterministic.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .permgrp import CapacityError, Perm, PermGroup

GENERATORS = ("a", "b", "c")
_COL = {"a": 0, "b": 1, "c": 2}

DEFAULT_CAPACITY = 10**6

# The presentation family uses exponents <= 6; the bounds leave ample room
# for longer words and stop hostile input (a^99999999999999999999, or nested
# powers and conjugates) before a word of that length is built.  The nesting
# bound keeps the recursive parser far from Python's recursion limit.
MAX_EXPONENT = 1000
MAX_WORD_LENGTH = 10**6
MAX_NESTING = 100


class Word:
    """Immutable word in the free product of three involutions.

    ``letters`` is a tuple of symbols from ``{"a", "b", "c"}``.  The empty
    word is the identity and prints as ``"1"``.
    """

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[str] = ()):
        letters = tuple(letters)
        for ch in letters:
            if ch not in _COL:
                raise ValueError(f"bad generator symbol {ch!r}")
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(self.letters[::-1])

    def __pow__(self, n: int) -> "Word":
        base = self if n >= 0 else self.inverse()
        return Word(base.letters * abs(n))

    def conj(self, y: "Word") -> "Word":
        """Conjugate of self by y: y^-1 * self * y."""
        return Word(y.letters[::-1] + self.letters + y.letters)

    def reduced(self) -> "Word":
        """Freely reduce by cancelling adjacent equal letters."""
        out: list[str] = []
        for ch in self.letters:
            if out and out[-1] == ch:
                out.pop()
            else:
                out.append(ch)
        return Word(out)

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __str__(self):
        return "".join(self.letters) or "1"

    def __repr__(self):
        return f"Word({str(self)!r})"


_LETTERS = re.compile("[abc]+")
_LETTER_TOKENS = {ch: ("LET", ch) for ch in GENERATORS}


def _tokenize(text: str) -> list[tuple[str, object]]:
    toks: list[tuple[str, object]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace() or ch == "*":
            i += 1
        elif ch in _COL:
            j = _LETTERS.match(text, i).end()
            toks += map(_LETTER_TOKENS.__getitem__, text[i:j])
            i = j
        elif ch in "()^":
            toks.append((ch, ch))
            i += 1
        elif ch.isdigit() or ch == "-":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if text[i:j] in ("", "-"):
                raise ValueError(f"bad integer at {text[i:]!r}")
            toks.append(("INT", int(text[i:j])))
            i = j
        else:
            raise ValueError(f"unexpected character {ch!r} in word {text!r}")
    return toks


def _parse_atom(toks, i):
    kind, val = toks[i] if i < len(toks) else ("END", None)
    if kind == "LET":
        return Word(val), i + 1
    if kind == "INT":
        if val == 1:
            return Word(), i + 1
        raise ValueError(f"unexpected integer {val} as word atom")
    if kind == "(":
        w, i = _parse_seq(toks, i + 1)
        if i >= len(toks) or toks[i][0] != ")":
            raise ValueError("unbalanced parenthesis in word")
        return w, i + 1
    raise ValueError(f"unexpected token {kind} in word")


def _check_length(length: int) -> None:
    if length > MAX_WORD_LENGTH:
        raise ValueError(f"word longer than {MAX_WORD_LENGTH} letters")


def _parse_factor(toks, i):
    w, i = _parse_atom(toks, i)
    while i < len(toks) and toks[i][0] == "^":
        i += 1
        kind, val = toks[i] if i < len(toks) else ("END", None)
        if kind == "INT":
            if abs(val) > MAX_EXPONENT:
                raise ValueError(f"exponent {val} exceeds {MAX_EXPONENT} in size")
            _check_length(len(w) * abs(val))
            w = w**val
            i += 1
        else:
            y, i = _parse_atom(toks, i)
            _check_length(len(w) + 2 * len(y))
            w = w.conj(y)
    return w, i


def _parse_seq(toks, i):
    letters: list[str] = []
    n = len(toks)
    while i < n and toks[i][0] != ")":
        kind, val = toks[i]
        if kind == "LET" and (i + 1 == n or toks[i + 1][0] != "^"):
            # a letter that no ^ follows is a factor of its own
            letters.append(val)
            i += 1
        else:
            w, i = _parse_factor(toks, i)
            letters += w.letters
        _check_length(len(letters))
    return Word(letters), i


def parse_word(text: str) -> Word:
    """Parse a word expression.

    Letters juxtapose or join with ``*``; ``^`` takes an integer power or a
    conjugating subword (``b^(ca)`` is ``ac b ca``); parentheses group; ``1``
    is the empty word.
    """
    toks = _tokenize(text)
    if "(" in text:  # only parentheses nest
        depth = 0
        for kind, _ in toks:
            depth += (kind == "(") - (kind == ")")
            if depth > MAX_NESTING:
                raise ValueError(f"parentheses nested deeper than {MAX_NESTING}")
    w, i = _parse_seq(toks, 0)
    if i != len(toks):
        raise ValueError(f"trailing tokens in word {text!r}")
    return w


# Relator words of the presentation family; an added relation fixes the
# order of one of these elements.
R1 = parse_word("a * b^c")
R2 = parse_word("ab * b^c")
R3 = parse_word("ab * a^c")
R4 = parse_word("c * b^(ca)")
R5 = parse_word("c^a * c^(bc)")
R_WORDS = (R1, R2, R3, R4, R5)


@dataclass(frozen=True)
class Presentation:
    """Presentation on involutory generators a, b, c.

    Relators are (word, exponent) pairs, meaning word**exponent = 1.
    """

    relators: tuple[tuple[Word, int], ...]

    generators = GENERATORS

    def with_relator(self, word: Word, exponent: int = 1) -> "Presentation":
        if not isinstance(word, Word) or len(word) == 0:
            raise ValueError("relator must be a non-empty Word")
        if exponent < 1:
            raise ValueError("relator exponent must be positive")
        return Presentation(self.relators + ((word, exponent),))

    def relator_words(self) -> tuple[Word, ...]:
        return tuple(w**e for w, e in self.relators)


def tp_presentation(
    m: int, n: int, p: int, r: Optional[Sequence[Optional[int]]] = None
) -> Presentation:
    """The family member with o(ac)=m, o(bc)=n, o(abc)=p plus optional
    added relations fixing the orders of R1..R5."""
    for v in (m, n, p):
        if not isinstance(v, int) or not 1 <= v <= 6:
            raise ValueError(f"presentation parameter {v!r} out of range 1..6")
    a, b, c = (Word(g) for g in GENERATORS)
    relators = [
        (a, 2),
        (b, 2),
        (c, 2),
        (a * b, 2),
        (a * c, m),
        (b * c, n),
        (a * b * c, p),
    ]
    if r is not None:
        r = tuple(r)
        if len(r) != 5:
            raise ValueError("added-relation exponents must be a 5-tuple")
        for word, ri in zip(R_WORDS, r):
            if ri is None:
                continue
            if not isinstance(ri, int) or not 1 <= ri <= 6:
                raise ValueError(f"added-relation exponent {ri!r} out of range 1..6")
            relators.append((word, ri))
    return Presentation(tuple(relators))


def _directive_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"'{key}:' value {text!r} is not an integer") from None


def parse_presentation(text: str) -> tuple[Presentation, tuple[Word, ...]]:
    """Parse an enumeration request: a family member plus extra words.

    Lines: ``mnp: M N P``, optional ``r: R1 R2 R3 R4 R5`` ('-' = omitted),
    ``relator: WORD``, ``subgroup: WORD``, '#' comments.  ``mnp:`` and
    ``r:`` may each appear once.  Returns the presentation and the subgroup
    generators.
    """
    mnp = None
    r = (None,) * 5
    once: set[str] = set()  # the directives seen, of those allowed once
    extra: list[str] = []
    subgroup: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        key, rest = key.strip(), rest.strip()
        if key in ("mnp", "r"):
            if key in once:
                raise ValueError(f"repeated '{key}:' line")
            once.add(key)
        if key == "mnp":
            mnp = tuple(_directive_int(key, x) for x in rest.split())
            if len(mnp) != 3:
                raise ValueError("mnp needs three integers")
        elif key == "r":
            parts = rest.split()
            if len(parts) != 5:
                raise ValueError("r needs five entries ('-' = omitted)")
            r = tuple(None if x == "-" else _directive_int(key, x) for x in parts)
        elif key == "relator":
            extra.append(rest)
        elif key == "subgroup":
            subgroup.append(rest)
        else:
            raise ValueError(f"unrecognized line {raw!r}")
    if mnp is None:
        raise ValueError("missing 'mnp:' line")
    pres = tp_presentation(*mnp, r)
    for w in extra:
        pres = pres.with_relator(parse_word(w), 1)
    return pres, tuple(parse_word(w) for w in subgroup)


@dataclass(frozen=True)
class CosetTable:
    """Complete standardized coset table; row i maps coset i under a, b, c.

    Coset 0 is the subgroup coset.  Columns are involutions, so the table is
    symmetric: rows[rows[i][x]][x] == i.
    """

    rows: tuple[tuple[int, int, int], ...]
    complete: bool
    subgroup: tuple[Word, ...] = ()
    # cosets the enumeration defined, live or collapsed: it ends alike at
    # every capacity from this one up, and raises CapacityError below it
    defined: int = field(default=0, compare=False)

    @property
    def coset_count(self) -> int:
        return len(self.rows)

    def column(self, letter: str) -> tuple[int, ...]:
        x = _COL[letter]
        return tuple(row[x] for row in self.rows)


# Storage grows this many cosets at a time: a fixed step, not doubling, so
# the slack past the last defined coset never exceeds one chunk.
_CHUNK = 4096
_UNDEFINED = array("i", [-1]) * _CHUNK


def _closing_positions(row: tuple[int, ...]) -> tuple[bool, ...]:
    """Where a closed cycle of ``row`` is also the cycle ``row`` reads there.

    Entry k (0 <= k <= len(row)) is for the coset reached after k letters.
    It is True when ``row`` read from that coset, forward (the rotation by
    k) or backward (the reversal read from k), is ``row`` itself.
    Generators are involutions, so reading backward along the cycle reads
    the same letters.  Entry 0 is never read; entry len(row) is the start.
    """
    n = len(row)
    return (False,) + tuple(
        row[k:] + row[:k] == row or row[k - 1::-1] + row[:k - 1:-1] == row
        for k in range(1, n)) + (True,)


class _Enumerator:
    """HLT coset enumeration state over involutory columns.

    Storage stays compact for enumerations that define many more cosets than
    survive (R4_5 defines about 10^5 for 12): one ``array('i')`` per column,
    the union-find parent array and one unsigned array of relator marks,
    all grown ``_CHUNK`` cosets at a time; ``defined`` counts the cosets
    defined so far, live or collapsed.  Relators and subgroup words are held
    as tuples of those column arrays, so a scan step is ``cword[i][f]``.

    A scan reads only live cosets, so it never looks up a representative:
    every entry of a live coset is -1 or a live coset.  The columns stay
    partial involutions (an entry is set together with its back pointer);
    processing a dead coset in ``_coincidence`` clears its partner's back
    pointer; every coset that dies is processed before ``_coincidence``
    returns; and a scan returns right after it calls ``_coincidence``.
    A scan that stops with a gap of two or more letters defines the cosets
    along it in one pass: a new coset's only entry is its back pointer, so
    the forward reading would step onto it and stop at the next letter.  It
    falls back to one definition per reading where that pointer is read
    again: by the next letter (as in a square) or by the backward reading.

    A scan of relator r leaves r's cycle through its start coset closed, and
    coincidences map a closed cycle onto a closed cycle, so a later scan of
    r at a live coset of that cycle is a no-op wherever r read from there
    traces the same cycle (``_closing_positions``).  A scan sets bit k of
    the marks of the cosets its forward reading reaches at those positions,
    for the k-th relator, and the sweep skips every marked scan.  A sweep
    also ends early, returning the live table, once every live row is full
    and the table passes the check (``_sweep``).  The HLT definitions,
    coincidences and defined count are exactly those of the sweep that
    scans every relator at every live coset to the end.
    """

    def __init__(self, relators, subgroup_rows, capacity):
        self.relators = relators
        self.subgroup_rows = subgroup_rows
        self.capacity = capacity
        self.cols = (array("i"), array("i"), array("i"))
        self.parent = array("i")
        # marks are the narrowest unsigned type with a bit per relator;
        # relators past the first 64 in sort order get no bit
        bits = min(len(relators), 64)
        self.marks = array(next(t for t in "BHIQ"
                                if 8 * array(t).itemsize >= bits))
        self._grow()
        self.defined = 1  # coset 0, the subgroup coset
        self.mutations = 0
        # (column word, mark bit, closing positions) per scan; a bit of 0
        # marks nothing, so those scans always run
        rel_cols = self._columns(relators)
        self.rel_scans = tuple(
            (cword, 1 << k, _closing_positions(row)) if k < bits
            else (cword, 0, (False,) * (len(row) + 1))
            for k, (cword, row) in enumerate(zip(rel_cols, relators)))
        self.sub_scans = tuple((cword, 0, (False,) * (len(cword) + 1))
                               for cword in self._columns(subgroup_rows))

    def _columns(self, rows) -> tuple[tuple[array, ...], ...]:
        """Each letter row as the tuple of the column arrays it reads."""
        return tuple(tuple(self.cols[x] for x in row) for row in rows)

    def _grow(self):
        m = len(self.parent)
        for col in self.cols:
            col.extend(_UNDEFINED)
        self.parent.extend(range(m, m + _CHUNK))
        self.marks.frombytes(bytes(_CHUNK * self.marks.itemsize))

    def _rep(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def _define(self, f: int, col: array) -> int:
        m = self.defined
        if m >= self.capacity:
            raise CapacityError(
                f"coset table capacity {self.capacity} exhausted; the "
                "presented group may be infinite or the bound too small"
            )
        if not m % _CHUNK:  # every slot up to m is in use
            self._grow()
        self.defined = m + 1
        col[f] = m
        col[m] = f
        self.mutations += 1
        return m

    def _coincidence(self, k: int, l: int):
        # Merge k and l, then every pair their rows force, the larger coset
        # into the smaller.  Union-find lookups halve their paths inline; the
        # queue of merged cosets is a list walked while it grows (FIFO).
        parent = self.parent
        cols = self.cols
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        while parent[l] != l:
            parent[l] = parent[parent[l]]
            l = parent[l]
        if k == l:
            return
        if k > l:
            k, l = l, k
        parent[l] = k
        mutations = self.mutations + 1
        queue = [l]
        for g in queue:
            # u walks to g's root once; a merge below may move that root, so
            # each later column walks on from the root u last reached
            u = g
            for col in cols:
                d = col[g]
                if d == -1:
                    continue
                if col[d] == g:
                    col[d] = -1
                while parent[u] != u:
                    parent[u] = parent[parent[u]]
                    u = parent[u]
                v = d
                while parent[v] != v:
                    parent[v] = parent[parent[v]]
                    v = parent[v]
                eu, ev = col[u], col[v]
                if eu == -1 and ev == -1:
                    col[u] = v
                    col[v] = u
                    mutations += 1
                    continue
                if eu != -1:  # merge v (a root) with eu
                    while parent[eu] != eu:
                        parent[eu] = parent[parent[eu]]
                        eu = parent[eu]
                    if v != eu:
                        if v > eu:
                            v, eu = eu, v
                        parent[eu] = v
                        mutations += 1
                        queue.append(eu)
                if ev != -1:  # merge u with ev; the merge above may have
                    # moved u's root
                    while parent[u] != u:
                        parent[u] = parent[parent[u]]
                        u = parent[u]
                    while parent[ev] != ev:
                        parent[ev] = parent[parent[ev]]
                        ev = parent[ev]
                    if u != ev:
                        if u > ev:
                            u, ev = ev, u
                        parent[ev] = u
                        mutations += 1
                        queue.append(ev)
        self.mutations = mutations

    def _scan_and_fill(self, start: int, cword: tuple[array, ...], bit: int,
                       closing: tuple[bool, ...]):
        # Every entry of a live coset is -1 or a live coset (see the class
        # docstring), so both readings step without a _rep lookup.  Once the
        # scan returns, the cycle it read is closed, so each coset the
        # forward reading reaches at a closing position is marked.
        marks = self.marks
        f = start
        i = 0
        b = start
        j = len(cword) - 1
        while True:
            while i <= j:
                nxt = cword[i][f]
                if nxt == -1:
                    break
                f = nxt
                i += 1
                if closing[i]:
                    marks[f] |= bit
            if i > j:
                if f != b:
                    self._coincidence(f, b)
                return
            while j >= i:
                nxt = cword[j][b]
                if nxt == -1:
                    break
                b = nxt
                j -= 1
            if j < i:
                self._coincidence(f, b)
                return
            col = cword[i]
            if j == i:
                col[f] = b
                col[b] = f
                self.mutations += 1
                return
            if cword[i + 1] is col or (b == f and cword[j] is col):
                # the new coset's back pointer is read again: by the next
                # letter, or by the backward reading from b
                self._define(f, col)
                continue
            # Fill the gap in one pass: a new coset's only entry is its back
            # pointer, so the forward reading would step onto it and stop at
            # the next letter, and the backward reading would stop at once.
            while True:
                f = self._define(f, col)
                i += 1
                if closing[i]:
                    marks[f] |= bit
                col = cword[i]
                if i == j:
                    col[f] = b
                    col[b] = f
                    self.mutations += 1
                    return
                if cword[i + 1] is col:
                    break

    def _sweep(self) -> Optional[np.ndarray]:
        """One HLT pass over the live cosets.

        Returns the live table as soon as it is complete and closed, or None
        if the pass ends without finding it so.  ``full`` is the first live
        coset, at or after ``alpha``, with an undefined entry; it only moves
        forward.  When it reaches ``defined``, every live row may be full,
        and the vectorised check runs, once per pass.  If it passes, every
        scan left would read a full cycle back to its start: no definition,
        coincidence or mutation, so the pass may stop there.
        """
        parent = self.parent
        marks = self.marks
        c0, c1, c2 = self.cols
        scan = self._scan_and_fill
        for cword, bit, closing in self.sub_scans:
            scan(0, cword, bit, closing)
        alpha = full = 0
        checked = False
        while alpha < self.defined:
            if not checked:
                if full < alpha:
                    full = alpha
                while full < self.defined and (
                        parent[full] != full or (c0[full] != -1 and
                                                 c1[full] != -1 and
                                                 c2[full] != -1)):
                    full += 1
                if full == self.defined:
                    checked = True
                    mat = self._closed_table()
                    if mat is not None:
                        return mat
            if parent[alpha] == alpha:
                # marks are only ever set, and only by scans of the marked
                # relator, so alpha's marks read once hold for the relators
                # still ahead
                done = marks[alpha]
                for cword, bit, closing in self.rel_scans:
                    if done & bit:
                        continue
                    scan(alpha, cword, bit, closing)
                    if parent[alpha] != alpha:
                        break
                else:
                    for col in self.cols:
                        if col[alpha] == -1:
                            self._define(alpha, col)
            alpha += 1
        return None

    def _live_table(self) -> Optional[np.ndarray]:
        """Rep-normalized live rows (3 x live, int32), or None if any entry
        is undefined."""
        n = self.defined
        par = np.frombuffer(self.parent, dtype=np.int32)[:n].copy()
        while True:
            nxt = par[par]
            if np.array_equal(nxt, par):
                break
            par = nxt
        live = np.flatnonzero(par == np.arange(len(par), dtype=np.int32))
        mat = np.empty((3, len(live)), dtype=np.int32)
        for x, col in enumerate(self.cols):
            col = np.frombuffer(col, dtype=np.int32)[:n][live]
            if (col == -1).any():
                return None
            mat[x] = np.searchsorted(live, par[col])
        return mat

    def _closed_table(self) -> Optional[np.ndarray]:
        """The live table if it is complete and closed, else None."""
        mat = self._live_table()
        if mat is None or _table_fault(
                mat, self.relators, self.subgroup_rows) is not None:
            return None
        return mat

    def run(self) -> np.ndarray:
        while True:
            before = self.mutations
            mat = self._sweep()
            if mat is None:
                mat = self._closed_table()
            if mat is not None:
                return mat
            if self.mutations == before:
                raise RuntimeError("coset enumeration stalled without closing")


def _table_fault(mat: np.ndarray, relators, subgroup_rows) -> Optional[str]:
    """The first check a coset table fails, or None if it passes them all.

    ``mat`` is 3 x n: row x maps each coset under generator x.  The checks, in
    order: "symmetry" (every column is an involution of range(n)), "relator"
    (every relator fixes every coset) and "subgroup" (every subgroup word
    fixes coset 0).
    """
    n = mat.shape[1]
    idx = np.arange(n)
    if mat.min() < 0 or mat.max() >= n or any(
            not np.array_equal(col[col], idx) for col in mat):
        return "symmetry"
    for row in relators:
        pos = idx
        for x in row:
            pos = mat[x][pos]
        if not np.array_equal(pos, idx):
            return "relator"
    for row in subgroup_rows:
        pos = 0
        for x in row:
            pos = mat[x, pos]
        if pos != 0:
            return "subgroup"
    return None


def _verify(mat: np.ndarray, relators, subgroup_rows) -> None:
    fault = _table_fault(mat, relators, subgroup_rows)
    if fault is not None:
        raise RuntimeError(f"coset table failed {fault} verification")


def _standardize(mat: np.ndarray) -> np.ndarray:
    """Renumber a complete table breadth-first from the subgroup coset 0.

    One BFS level at a time: the level's new cosets are numbered in order of
    first occurrence over (frontier coset, then generators a, b, c), the
    numbering a queue walk coset by coset gives.
    """
    n = mat.shape[1]
    number = np.full(n, -1, dtype=np.int32)
    number[0] = 0
    frontier = np.zeros(1, dtype=np.intp)
    levels = [frontier]
    count = 1
    while len(frontier):
        reached = mat[:, frontier].T.ravel()
        reached = reached[number[reached] == -1]
        _, first = np.unique(reached, return_index=True)
        frontier = reached[np.sort(first)]
        number[frontier] = np.arange(count, count + len(frontier))
        count += len(frontier)
        levels.append(frontier)
    if count != n:
        raise RuntimeError("coset table is not transitive")
    return number[mat[:, np.concatenate(levels)]]


def _letter_rows(pres: Presentation, subgroup: Sequence[Word]):
    """The enumerator's input: the distinct non-empty relators as column
    rows sorted by (length, letters), and the non-empty subgroup words."""
    rel_rows = []
    seen = set()
    for w in pres.relator_words():
        row = tuple(_COL[ch] for ch in w.letters)
        if row and row not in seen:
            seen.add(row)
            rel_rows.append(row)
    rel_rows.sort(key=lambda r: (len(r), r))
    for x in (0, 1, 2):
        if (x, x) not in seen:
            raise ValueError("presentation must include the square of each generator")
    sub_rows = []
    for w in subgroup:
        row = tuple(_COL[ch] for ch in w.letters)
        if row:
            sub_rows.append(row)
    return rel_rows, sub_rows


def todd_coxeter(
    pres: Presentation,
    subgroup: Sequence[Word] = (),
    capacity: int = DEFAULT_CAPACITY,
) -> CosetTable:
    """Enumerate cosets of the subgroup generated by the given words.

    Returns a complete standardized table; over the empty subgroup list the
    coset count is the group order.  Raises CapacityError when more than
    ``capacity`` cosets (live plus collapsed) would be defined.
    """
    rel_rows, sub_rows = _letter_rows(pres, subgroup)
    enumerator = _Enumerator(rel_rows, sub_rows, capacity)
    std = _standardize(enumerator.run())
    _verify(std, rel_rows, sub_rows)
    return CosetTable(rows=tuple(zip(*std.tolist())), complete=True,
                      subgroup=tuple(subgroup), defined=enumerator.defined)


def coset_action(table: CosetTable) -> PermGroup:
    """Permutation group of the generator actions on cosets.

    Tracks the images of a, b, c so downstream word evaluation can follow
    generators through quotients.  Over the trivial subgroup the action is
    regular, so its order equals the coset count.
    """
    if not table.complete:
        raise ValueError("coset action requires a complete table")
    n = table.coset_count
    if n > 65535:
        raise CapacityError(
            f"coset action on {n} cosets exceeds the uint16 limit of 65535 points")
    images = {}
    for letter in GENERATORS:
        img = np.array(table.column(letter), dtype=np.uint16)
        images[letter] = Perm(img)
    gens = [images[g] for g in GENERATORS]
    return PermGroup(n, gens, tracked=images)


def evaluate_word(w: Word, images: Mapping[str, Perm]) -> Perm:
    """Substitute permutations for letters and compose left to right."""
    degrees = {images[g].degree for g in GENERATORS}
    if len(degrees) != 1:
        raise ValueError("generator images must share a degree")
    out = Perm.identity(degrees.pop())
    for ch in w.letters:
        out = out * images[ch]
    return out

