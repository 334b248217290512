"""Graded cell complexes stored as face posets.

A complex is a finite graded poset of cells: every cell has an integer
dimension, a hashable payload naming it, and a list of covers (the faces of
codimension one).  Simplicial complexes are the special case where payloads
are frozensets of vertices; polytopal complexes (products of simplices) are
carried purely at face-poset level, where all the predicates we need --
free cells, collapsing, subdivision -- live.  Homology orients every cell
as a simplex or a product of simplices, so no complex is subdivided for it.

Conventions used throughout the package:

* Cell ids are dense integers assigned by sorting (dim, canon_bytes(payload)),
  so rebuilding the same complex always reproduces the same ids.
  canon_bytes puts a 4-byte big-endian length before each member of a
  tuple, and an int encodes as b"I" and its decimal digits.  So on tuples
  of one length made of non-negative ints, canon_bytes order is numeric
  lexicographic order (fewer digits is a smaller length prefix), and
  order_complex numbers its chains as int tuples, encoding none of them.
* Payloads are built from ints, strings (not starting with "*"), tuples and
  frozensets.  The tags ("*b", p) and ("*c", apex, base) are reserved for
  barycenter and cone payloads introduced by subdivisions.
* Group actions are right actions, given by a presentation of the group:
  its generators, its order and relations between the generators.  x.(gh)
  = (x.g).h, so a word in the generators acts letter by letter from the
  left.  The relations, checked on the cell permutations, prove that the
  generators define an action of the group, and a law that holds for every
  generator (an automorphism, an equivariant map) holds for every element.
* A complex fingerprint is the order-independent 128-bit sum of per-cell
  digests.  Every cell digests one way: its payload's encoding, its
  dimension and the digests of its covers (_digests), so fingerprints agree
  between a subcomplex and the same cells rebuilt standalone.  A complex
  given no digests computes them, and its fingerprint, when one is first
  read, and a subcomplex takes over only the digests its source holds.
"""

import gc
import hashlib
from bisect import bisect_left
from collections import Counter
from functools import cached_property, reduce, wraps
from itertools import accumulate, chain
from math import factorial

from .errors import (
    InputError,
    SizeGuard,
    VerificationError,
)

_MASK128 = (1 << 128) - 1

BARY = "*b"
CONE = "*c"


def canon_bytes(x):
    """Deterministic, injective byte encoding of a payload.

    Supports ints, strings, tuples and frozensets; containers tag and
    length-prefix their members, and frozenset members are sorted by their
    own encodings, so equal payloads encode equally and distinct payloads
    never collide.  Nothing is memoized: True == 1, so a memo keyed by
    payload would answer frozenset({True}) with the encoding of
    frozenset({1}), and the answer would depend on what was encoded before.
    Code that builds large complexes joins its cells' encodings from those
    of the parts instead (_canon_join, _piece).
    """
    if isinstance(x, bool):
        raise InputError("booleans are not valid payload atoms")
    if isinstance(x, int):
        return b"I" + str(x).encode()
    if isinstance(x, str):
        return b"S" + x.encode("utf-8")
    if isinstance(x, tuple):
        return _canon_join(b"T", [canon_bytes(y) for y in x])
    if isinstance(x, frozenset):
        return _canon_join(b"F", sorted(canon_bytes(y) for y in x))
    raise InputError("unsupported payload type: %s" % type(x).__name__)


def _canon_join(tag, parts):
    """The encoding of a tuple (tag b"T") or frozenset (b"F") from its
    members' encodings, in order (sorted for a frozenset)."""
    return tag + b"".join(map(_piece, parts))


def _piece(enc):
    """A member's encoding enc as _canon_join joins it: its length, then
    itself."""
    return len(enc).to_bytes(4, "big") + enc


def fmt_payload(x):
    """Compact human-readable label for a payload (for dumps and DOT only)."""
    if isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    if isinstance(x, tuple):
        if len(x) == 2 and x[0] == BARY:
            return "b<%s>" % fmt_payload(x[1])
        if len(x) == 3 and x[0] == CONE:
            return "c<%s;%s>" % (fmt_payload(x[1]), fmt_payload(x[2]))
        return "(%s)" % ",".join(fmt_payload(y) for y in x)
    if isinstance(x, frozenset):
        return "{%s}" % ",".join(fmt_payload(y)
                                 for y in sorted(x, key=canon_bytes))
    return repr(x)


def _label(K, i):
    return fmt_payload(K.payloads[i])


def _is_id(x):
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _paused_collector(fn):
    """fn, run with the cyclic garbage collector paused, as timeit runs its
    statement.  A build holds millions of long-lived lists and tuples, which
    every full collection would traverse for nothing: hombox makes no
    reference cycles, so reference counting frees all it drops.  The
    collector is re-enabled on every exit, errors included, but only if it
    was on when fn was called, so nested calls and a caller that turned it
    off find it as they left it.  Nothing is collected, frozen or
    re-tuned.  The pause is process-wide: other threads run without the
    collector until fn returns."""
    @wraps(fn)
    def paused(*args, **kwargs):
        was_on = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_on:
                gc.enable()
    return paused


def _digests(encoding, dims, down):
    """The digests of all cells, from canon_bytes of their payloads (cell i
    encodes as encoding(i), called once), computed in order of dimension so
    that the covers' digests come first.

    A cell's digest is the 128-bit blake2b hash of its encoding, its
    dimension in 4 big-endian bytes and its covers' digests in 16 big-endian
    bytes each, in ascending order (bytes of one length sort as the ints
    do).  The covers of a cell lie one dimension down, so only the digest
    bytes of the dimension before are kept; a cover elsewhere (a complex
    that is not graded) has its bytes taken from its int digest.
    """
    out = [None] * len(dims)
    by_dim = {}
    for i, d in enumerate(dims):
        by_dim.setdefault(d, []).append(i)
    blake = hashlib.blake2b
    below = {}
    for d in sorted(by_dim):
        dim = d.to_bytes(4, "big")
        get = below.__getitem__
        cur = {}
        for i in by_dim[d]:
            h = blake(encoding(i), digest_size=16)
            h.update(dim)
            try:
                covers = sorted(map(get, down[i]))
            except KeyError:
                covers = sorted(out[j].to_bytes(16, "big") for j in down[i])
            h.update(b"".join(covers))
            cur[i] = b = h.digest()
            out[i] = int.from_bytes(b, "big")
        below = cur
    return out


def _keyed_cx(cells, faces, payload):
    """The CellComplex of cells (dim, canon_bytes, key, data), given in
    ascending order: the ids from_graded_cells would give.  faces(key,
    data) gives the keys of a cell's covers, and payload(data) its payload,
    built once per cell here."""
    id_of = {c[2]: i for i, c in enumerate(cells)}
    get = id_of.__getitem__
    down = [tuple(sorted(map(get, faces(c[2], c[3])))) for c in cells]
    dims = [c[0] for c in cells]
    digests = _digests(lambda i: cells[i][1], dims, down)
    return CellComplex([payload(c[3]) for c in cells], dims, down, digests)


class CellComplex:
    """A finite graded cell complex, stored as its face poset.

    The cover relation is stored once, in down: down[i] is the tuple of the
    faces of codimension one of cell i.  up (the cofacets of each cell) and
    the up-degrees are derived from down on first use and kept, so a
    complex that no caller asks for cofaces never builds them.

    The constructor is low-level and trusts its arguments; build complexes
    through from_graded_cells / from_simplices / order_complex and friends.
    index, if given, is the payload -> id dict of payloads, which the
    complex then keeps; otherwise it builds its index on first use.
    digests, if given, are its cells' digests; otherwise it computes them
    on first use.
    """

    def __init__(self, payloads, dims, down, digests=None, index=None):
        self.payloads = list(payloads)
        self.dims = list(dims)
        self.down = list(map(tuple, down))
        if index is not None:
            self.index = index
        if digests is not None:
            self.digests = list(digests)
        self._by_dim = None

    @cached_property
    def digests(self):
        """The cells' digests from their payloads, computed on first use."""
        return _digests(lambda i: canon_bytes(self.payloads[i]), self.dims,
                        self.down)

    @cached_property
    def fingerprint(self):
        return sum(self.digests) & _MASK128

    @cached_property
    def index(self):
        """The payload -> id dict, built on first use; InputError if two
        cells share a payload."""
        index = dict(zip(self.payloads, range(len(self.payloads))))
        if len(index) != len(self.payloads):
            seen = set()
            for p in self.payloads:
                if p in seen:
                    raise InputError(
                        "duplicate cell payload: %s" % fmt_payload(p))
                seen.add(p)
        return index

    # -- construction ------------------------------------------------------

    @classmethod
    def from_graded_cells(cls, cells):
        """Build from (payload, dim, iterable-of-cover-payloads) triples.

        Ids are assigned by sorting on (dim, canon_bytes(payload)), and
        canon_bytes is called once per cell.
        """
        cells = sorted(((d, canon_bytes(p), p, faces)
                        for p, d, faces in cells), key=lambda c: c[:2])
        index = {}
        for i, (_, _, p, _) in enumerate(cells):
            if p in index:
                raise InputError("duplicate cell payload: %s" % fmt_payload(p))
            index[p] = i
        down = []
        for _, _, p, faces in cells:
            row = []
            for fp in faces:
                j = index.get(fp)
                if j is None:
                    raise InputError(
                        "missing face %s of cell %s" % (fmt_payload(fp), fmt_payload(p)))
                row.append(j)
            down.append(tuple(sorted(row)))
        dims = [c[0] for c in cells]
        return cls([c[2] for c in cells], dims, down,
                   _digests(lambda i: cells[i][1], dims, down))

    @classmethod
    def from_simplices(cls, simplices):
        """Build a simplicial complex from an iterable of frozensets, closed
        downward: every nonempty face of a listed simplex is a cell."""
        seen = set()
        stack = []
        for s in simplices:
            s = frozenset(s)
            if not s:
                raise InputError("empty simplex")
            if s not in seen:
                seen.add(s)
                stack.append(s)
        while stack:
            s = stack.pop()
            if len(s) >= 2:
                for v in s:
                    f = s - {v}
                    if f not in seen:
                        seen.add(f)
                        stack.append(f)
        cells = []
        for s in seen:
            faces = [s - {v} for v in s] if len(s) >= 2 else []
            cells.append((s, len(s) - 1, faces))
        return cls.from_graded_cells(cells)

    # -- basic queries -----------------------------------------------------

    def __len__(self):
        return len(self.payloads)

    @property
    def max_dim(self):
        return max(self.dims, default=-1)

    def cells_of_dim(self, d):
        if self._by_dim is None:
            by = {}
            for i, di in enumerate(self.dims):
                by.setdefault(di, []).append(i)
            self._by_dim = by
        return self._by_dim.get(d, [])

    def dim_counts(self):
        """Cell counts per dimension, as a list indexed by dimension."""
        out = [0] * (self.max_dim + 1)
        for d in self.dims:
            out[d] += 1
        return out

    def faces(self, i):
        """All cells <= i (including i)."""
        seen = {i}
        stack = [i]
        while stack:
            for j in self.down[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return seen

    @cached_property
    def up(self):
        """The cofacets of each cell, as ascending id tuples."""
        up = [[] for _ in self.payloads]
        for i, dn in enumerate(self.down):
            for j in dn:
                up[j].append(i)
        return list(map(tuple, up))

    @cached_property
    def _up_count(self):
        """The number of cofacets of each cell, counted once from down."""
        count = Counter(chain.from_iterable(self.down))
        return list(map(count.__getitem__, range(len(self.payloads))))

    def up_degrees(self):
        """The number of cofacets of each cell, as a new list that the
        caller may change."""
        return list(self._up_count)

    def cofaces(self, i):
        """All cells >= i (including i)."""
        seen = {i}
        stack = [i]
        while stack:
            for j in self.up[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return seen

    @cached_property
    def _chain_counts(self):
        """(above, counts) for order_complex, which takes them off the
        complex: above[i] lists the strict cofaces of cell i, ascending,
        and counts[L][j] is the number of chains of length L + 1 with
        bottom j.  InputError unless every cover has a lower id than its
        cell."""
        n = len(self.payloads)
        for i in range(n):
            for j in self.down[i]:
                if j >= i:
                    raise InputError(
                        "order_complex needs ids sorted by dimension")
        above = [None] * n
        for i in reversed(range(n)):
            a = set()
            for j in self.up[i]:
                a.add(j)
                a |= above[j]
            above[i] = a
        above = list(map(sorted, above))
        counts = [[1] * n]
        while True:
            prev = counts[-1]
            cnt = [sum(map(prev.__getitem__, a)) for a in above]
            if not any(cnt):
                break
            counts.append(cnt)
        return above, counts

    @property
    def fingerprint_hex(self):
        return "%032x" % self.fingerprint

    # -- derived complexes -------------------------------------------------

    def subcomplex(self, keep):
        """Restrict to the cell ids in `keep`, which must be downward closed
        (InputError otherwise).

        Returns (complex, old2new): old2new is a list over this complex's
        ids, the new id of each kept cell and None for the others.  Relative
        id order is preserved, so a subcomplex of a canonically-sorted
        complex stays canonically sorted.  The subcomplex keeps its cells'
        digests if this complex holds them, and computes them otherwise,
        as it builds its index, on first use.
        """
        keep = sorted(set(keep))
        old2new = [None] * len(self.payloads)
        for n, o in enumerate(keep):
            old2new[o] = n
        new = old2new.__getitem__

        def covers(o):
            row = tuple(map(new, self.down[o]))
            if None in row:
                raise InputError("subcomplex is not downward closed at cell "
                                 "%d" % o)
            return row

        digests = vars(self).get("digests")
        sub = CellComplex(
            map(self.payloads.__getitem__, keep),
            map(self.dims.__getitem__, keep), map(covers, keep),
            digests=digests and map(digests.__getitem__, keep))
        return sub, old2new

    # -- verification ------------------------------------------------------

    def verify(self):
        """Check structural invariants; raise VerificationError on failure."""
        n = len(self.payloads)
        for i in range(n):
            for j in self.down[i]:
                if type(j) is not int or not 0 <= j < n:
                    raise VerificationError(
                        "cover %r of cell %d is not a cell id in 0..%d"
                        % (j, i, n - 1))
        for i in range(n):
            d = self.dims[i]
            if d < 0:
                raise VerificationError("negative dimension at cell %d" % i)
            if d == 0 and self.down[i]:
                raise VerificationError("vertex %d has covers" % i)
            if d > 0 and not self.down[i]:
                raise VerificationError(
                    "cell %d of dim %d has no covers" % (i, d))
            if len(set(self.down[i])) != len(self.down[i]):
                raise VerificationError("duplicate cover at cell %d" % i)
            for j in self.down[i]:
                if self.dims[j] != d - 1:
                    raise VerificationError(
                        "cover of cell %d does not drop dimension by 1" % i)
            p = self.payloads[i]
            if isinstance(p, frozenset):
                if len(p) != d + 1:
                    raise VerificationError(
                        "simplicial cell %d has dim %d but %d vertices"
                        % (i, d, len(p)))
                if d > 0:
                    want = {p - {v} for v in p}
                    got = {self.payloads[j] for j in self.down[i]}
                    if want != got:
                        raise VerificationError(
                            "simplicial covers of cell %d are not the "
                            "remove-one-vertex subsets" % i)
        return True

    # -- export ------------------------------------------------------------

    def to_json_obj(self):
        return {"cells": [
            {"id": i, "dim": self.dims[i], "label": fmt_payload(self.payloads[i]),
             "covers": sorted(self.down[i])}
            for i in range(len(self.payloads))]}

    def to_dot(self):
        """DOT source for the Hasse diagram: a node per cell, an arc per cover."""
        lines = ["digraph hasse {", "  rankdir=BT;"]
        for i in range(len(self.payloads)):
            label = fmt_payload(self.payloads[i]).replace('"', r'\"')
            lines.append('  n%d [label="%s"];' % (i, label))
        for i in range(len(self.payloads)):
            for j in self.down[i]:
                lines.append("  n%d -> n%d;" % (j, i))
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return "<CellComplex %d cells, dims %s, fp %s>" % (
            len(self.payloads), self.dim_counts(), self.fingerprint_hex[:8])


class GroupAction:
    """A right action of a finite group G on a cell complex, by a
    presentation of G.

    Generator k permutes the cell ids by perms[k] and is named labels[k];
    order is |G|.  relations lists pairs (u, v) of words in the generators
    (tuples of their indices, acting from left to right) that act alike;
    with the generators they present G.  order and relations are always
    given, and are checked for form (InputError).  check tests each
    generator as an automorphism and each relation on the cell
    permutations; the caller vouches that the relations present a group of
    that order (symmetric), and transport carries both over unchecked.
    Checked, the action copies the permutation lists in perms; unchecked,
    it takes them over.

    The action keeps a word table, words, None until the first orbit of
    |G| cells that a search finds (_search) gives it: the rows (parent row,
    generator) of that search's tree, row k naming the word w_k = w_parent
    followed by the generator, after the empty word w_0.  On a free orbit
    g -> x.g is a bijection, so the tree spans G's Cayley graph: the words
    are all of G, and for every cell x of a free orbit, x.w_0, x.w_1, ...
    is that orbit in the order a search from x meets it.  orbit (so
    orbits) and collapse's orbit steps and cone pairings read orbits down
    the table (_orbit_list), one list index per cell; transport hands it
    on, as the presentation is the same.  collapse certifies free actions
    only: S_r acts freely on Hom(K_r^r, H) and B_edge(H), as a cell that a
    transposition (i j) fixes would need an edge with a repeated vertex,
    and so on their subdivisions and cone universes; it refuses an orbit
    that is not free."""

    def __init__(self, cx, perms, labels, check=True, *, order, relations):
        self.cx = cx
        self.perms = [list(p) for p in perms] if check else list(perms)
        self.labels = list(labels)
        n = len(self.perms)
        if len(self.labels) != n:
            raise InputError("labels and permutations disagree in length")
        if type(order) is not int or order < 1:
            raise InputError("group order %r is not a positive int" % (order,))
        for rel in relations:
            if not (isinstance(rel, tuple) and len(rel) == 2 and all(
                    isinstance(w, tuple) and all(
                        type(k) is int and 0 <= k < n for k in w)
                    for w in rel)):
                raise InputError("relation %r is not a pair of words in the "
                                 "%d generators" % (rel, n))
        self.order, self.relations = order, relations
        self._set_words(None)
        if check:
            self._check_automorphisms()
            self._check_relations()

    @classmethod
    def from_payload_maps(cls, cx, maps, labels, check=True, *, order,
                          relations):
        """Build the id-level action from payload-level bijections."""
        if len(maps) != len(labels):
            raise InputError("%d payload maps for %d labels"
                             % (len(maps), len(labels)))
        perms = []
        for s, m in zip(labels, maps):
            perm = list(map(cx.index.get, map(m, cx.payloads)))
            if None in perm:
                raise VerificationError(
                    "%r maps %s outside the complex"
                    % (s, fmt_payload(cx.payloads[perm.index(None)])))
            perms.append(perm)
        return cls(cx, perms, labels, check, order=order, relations=relations)

    @classmethod
    def symmetric(cls, cx, maps, labels):
        """The right S_r-action in which maps[i], named labels[i], moves the
        payloads by the adjacent transposition s_i = (i, i+1), i < r - 1.

        Each generator is checked as an automorphism, and the Coxeter
        relations s_i^2 = 1, (s_i s_(i+1))^3 = 1 and (s_i s_j)^2 = 1 for
        |i - j| >= 2 on the cell permutations.  They present S_r (Björner
        and Brenti, Combinatorics of Coxeter Groups, 2005, ch. 1).
        """
        n = len(maps)
        rels = [((i, j) * (1 if j == i else 3 if j == i + 1 else 2), ())
                for i in range(n) for j in range(i, n)]
        return cls.from_payload_maps(cx, maps, labels, order=factorial(n + 1),
                                     relations=rels)

    def transport(self, cx, perms):
        """This action on cx, where generator k acts by perms[k]: its image
        under a map that commutes with it (a lift to chains, a restriction
        to an invariant subcomplex), so the relations still hold.

        The new action takes over perms and its lists, without copying
        them: the caller passes lists it built for it and changes them no
        more."""
        action = GroupAction(cx, perms, self.labels, False, order=self.order,
                             relations=self.relations)
        action._set_words(self.words)
        return action

    def _set_words(self, words):
        """Keep the word table words, or None while it is unknown, and its
        rows on this action's generators."""
        self.words = words
        self._rows = (None if words is None
                      else [(a, self.perms[g]) for a, g in words])

    def _check_automorphisms(self, ids=None):
        """Check that each generator permutes the cells ids (default: all)
        and preserves their dimensions and covers."""
        cx = self.cx
        n = len(cx.payloads)
        ids = list(range(n) if ids is None else ids)
        for s, p in zip(self.labels, self.perms):
            img = list(map(p.__getitem__, ids)) if len(p) == n else [None]
            if None in img or sorted(img) != ids:
                raise VerificationError("generator %r does not permute the "
                                        "cells" % (s,))
            for i in ids:
                if (cx.dims[p[i]] != cx.dims[i]
                        or {p[j] for j in cx.down[i]} != set(cx.down[p[i]])):
                    raise VerificationError(
                        "generator %r does not preserve dimension and covers "
                        "at cell %s" % (s, fmt_payload(cx.payloads[i])))

    def _check_relations(self, ids=None):
        """Check every relation on the cells ids (default: all)."""
        ids = list(range(len(self.cx.payloads)) if ids is None else ids)
        perms = self.perms
        for words in self.relations:
            ends = [reduce(lambda x, k: list(map(perms[k].__getitem__, x)),
                           word, ids) for word in words]
            if ends[0] != ends[1]:
                i = next(i for i, a, b in zip(ids, *ends) if a != b)
                u, v = (" ".join("%r" % (self.labels[k],) for k in w) or "1"
                        for w in words)
                raise VerificationError("relation %s = %s fails at cell %s"
                                        % (u, v, fmt_payload(
                                            self.cx.payloads[i])))

    def orbit(self, i):
        """The orbit of cell i, as a sorted tuple: the cells of
        _orbit_list.  The table's words are |G| distinct elements, so all of
        G (this trusts `order`), and the cells i.w are the orbit of i, free
        or not."""
        return tuple(sorted(set(self._orbit_list(i))))

    def _orbit_list(self, i):
        """The cells i.w for the words w of the table, in its order, one
        list index each: |G| cells, distinct iff the orbit is free.  While
        the table is unknown, the list a search of i's orbit gives
        (_search), which reads the table if the orbit has |G| cells."""
        rows = self._rows
        if rows is None:
            return self._search(i)
        cells = [i]
        for a, p in rows:
            cells.append(p[cells[a]])
        return cells

    def _search(self, i):
        """The orbit of cell i, searched breadth first along the
        generators, as a list in the order the search meets its cells.  The
        first orbit of |G| cells found gives the action its word table."""
        seen = {i}
        todo = [i]
        words = []
        for a, x in enumerate(todo):
            for g, p in enumerate(self.perms):
                y = p[x]
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
                    words.append((a, g))
        if self.words is None and len(todo) == self.order:
            self._set_words(words)
        return todo

    def orbits(self, ids=None):
        """Orbits (as sorted tuples) listed by ascending minimal member."""
        rng = range(len(self.cx.payloads)) if ids is None else sorted(set(ids))
        seen = set()
        out = []
        for i in rng:
            if i not in seen:
                ob = self.orbit(i)
                seen.update(ob)
                out.append(ob)
        return out

    def is_free(self, ids=None):
        """True iff every cell in ids (default: all) has |G| cells in its
        orbit, i.e. a trivial stabilizer."""
        return all(len(ob) == self.order for ob in self.orbits(ids))

    def verify(self):
        """Full recheck of the generators and the relations."""
        self._check_automorphisms()
        self._check_relations()
        return True


def trivial_action(cx):
    return GroupAction(cx, [], [], False, order=1, relations=[])


# ---------------------------------------------------------------------------
# order complex / barycentric subdivision


def order_complex(K, max_cells=None):
    """The simplicial complex of nonempty chains of the face poset of K.

    Cell payloads are tuples of K-ids in increasing order (equivalently,
    increasing dimension).  The result has attribute .base = K.

    No chain is encoded or looked up by payload.  canon_bytes writes an
    int as b"I" and its decimal digits, and a tuple as b"T" and each
    member's encoding after its length in 4 big-endian bytes.  Between two
    chains of one length, the first differing member decides: fewer digits
    is a shorter length prefix and sorts first, and equal digit counts sort
    numerically.  So (dim, canon_bytes) order, the ids from_graded_cells
    would assign, is the order of (len(ch), ch) on int tuples.  A chain's
    digest hashes canon_bytes(ch), joined from one encoding per K-id.

    Every chain of length L >= 2 is its bottom id i followed by its tail
    t, a chain of length L - 1.  For a 2-chain (i, j), the chains (i,) + t
    with t of bottom j fill one block of ids, in the order of their tails,
    so id((i,) + t) = t + shift, one shift per block; the ids are counted
    out before any chain is built.  The covers of (i,) + t, in ascending id
    order, are (i,) + f for the covers f of t, then t itself (for a 2-chain
    (i, j): (i,), then (j,)); the f before the last share t's bottom, and
    the last is t's tail.  So a chain's last cover is its tail and its first
    cover (drop the top item) keeps its two lowest items:
    lift_action_to_order_complex and the matching read the chains by bottom
    and tail from these covers (_chain_blocks).
    """
    n = len(K.payloads)
    total = _order_complex_size(K, max_cells)
    above, counts = K._chain_counts
    del K._chain_counts
    # firsts[L][j]: the id of the first chain of length L + 1 with bottom j
    firsts, start = [], 0
    for cnt in counts:
        first = list(accumulate(cnt, initial=start))
        start = first.pop()
        firsts.append(first)
    # Every id is one shared int object, held by the index and by the
    # covers, rather than a new int per cover.
    ids = list(range(total))
    chains = [(i,) for i in ids[:n]] + [None] * (total - n)
    down = [()] * n + [None] * (total - n)
    # Bottoms in decreasing order, so every tail is built before its chains.
    for i in reversed(ids[:n]):
        shift = None
        for L in range(1, len(counts)):
            if not counts[L][i]:
                break
            cnt, first = counts[L - 1], firsts[L - 1]
            x = firsts[L][i]
            prev, shift = shift, {}
            for j in above[i]:
                s = cnt[j]
                if not s:
                    continue
                t0 = first[j]
                shift[j] = d = x - t0
                x += s
                if L == 1:
                    # the 2-chain (i, j), whose tail is the 1-chain j
                    chains[x - 1] = down[x - 1] = (i, j)
                    continue
                dj = prev[j]
                for t in ids[t0:t0 + s]:
                    ch, dt = chains[t], down[t]
                    chains[t + d] = (i,) + ch
                    down[t + d] = (*[ids[f + dj] for f in dt[:-1]],
                                   ids[dt[-1] + prev[ch[1]]], t)
    del above, firsts
    index = dict(zip(chains, ids))
    part = [len(b).to_bytes(4, "big") + b
            for b in (b"I%d" % i for i in range(n))].__getitem__
    dims = [d for d, cnt in enumerate(counts) for _ in range(sum(cnt))]
    digests = _digests(lambda x: b"T" + b"".join(map(part, chains[x])),
                       dims, down)
    oc = CellComplex(chains, dims, down, digests, index)
    oc.base = K
    return oc


def _order_complex_size(K, max_cells=None):
    """The number of cells of order_complex(K), counted without building
    it; raises SizeGuard if it is over max_cells.  The count stays on K
    (CellComplex._chain_counts) until order_complex(K) takes it, so a size
    guard checked first costs order_complex no second count."""
    total = sum(map(sum, K._chain_counts[1]))
    if max_cells is not None and total > max_cells:
        raise SizeGuard(
            "order complex needs %d cells, over the %d-cell guard"
            % (total, max_cells), needed=total, limit=max_cells)
    return total


def _chain_blocks(sd):
    """sd = order_complex(K) by bottom and tail, read from its covers.

    Returns (layers, ids, head, shift, pair):
      layers  the id range of the chains of each length, shortest first
              (the first is the ids of K, one per one-element chain)
      ids     ids[x] is x as the int object the index holds (order_complex
              enters the chains in id order), so that tables built from
              computed ids share those objects
      head    head[x] is the id of the 2-chain of the two lowest items of
              chain x, for x of length >= 2; a chain's first cover has the
              same two lowest items
      shift   shift[L - 1][e], for the 2-chain e = (i, j) and a chain t of
              length L - 1 with bottom j, is id((i,) + t) - t; a chain's
              last cover is its tail
      pair    pair[(a, b)] is the id of the 2-chain (a, b)
    No chain is looked up in sd.index.
    """
    down, dims = sd.down, sd.dims
    ids = list(sd.index.values())
    ends = [bisect_left(dims, d) for d in range(max(sd.max_dim, 0) + 2)]
    layers = [range(a, b) for a, b in zip(ends, ends[1:])]
    head = [None] * len(layers[0])
    shift = [None]
    pair = {}
    if len(layers) > 1:
        a, b = layers[1].start, layers[1].stop
        pair = dict(zip(down[a:b], ids[a:b]))
        head += ids[a:b]
        for layer in layers[1:]:
            if layer.start != a:
                head += [head[dn[0]] for dn in down[layer.start:layer.stop]]
            sh = [0] * b
            for x in layer:
                sh[head[x]] = x - down[x][-1]
            shift.append(sh)
    return layers, ids, head, shift, pair


def lift_action_to_order_complex(A, sd):
    """Transport a group action on K to its order complex sd = order_complex(K).

    Generator p maps the chain ch to the chain of the images p[j], j in ch,
    through bottoms and tails (_chain_blocks), with no chain looked up by
    payload: (i,) goes to (p[i],), whose id is p[i]; a 2-chain (i, j) to the
    2-chain (p[i], p[j]); and, in id order, (i,) + t to the chain with tail
    p(t) in the block of the 2-chain p((i, t[0])).  If every 2-chain maps to
    a chain, so does every chain, as p then keeps consecutive items
    comparable.  Lifting is a homomorphism, so the lifted generators satisfy
    A's relations.  Raises VerificationError, naming the generator and the
    chain, if an image is not a chain of sd, i.e. A is not an action by
    automorphisms of K, and InputError if A acts on a complex other than K
    (_check_acts_on).
    """
    return _lift(A, sd, _chain_blocks(sd))


def _check_acts_on(A, K, what):
    """InputError unless the action A is on K, what names K: A.cx is K, or
    has its cell count and covers, and each permutation has K's length.
    The fingerprints are read only to name both complexes in the error."""
    n = len(K.payloads)
    if ((A.cx is not K and (len(A.cx.payloads) != n
                            or A.cx.down != K.down))
            or any(len(p) != n for p in A.perms)):
        raise InputError(
            "the action is on a complex of %d cells with fingerprint %s, not "
            "on %s (%d cells, %s)"
            % (len(A.cx.payloads), A.cx.fingerprint_hex[:8], what, n,
               K.fingerprint_hex[:8]))


def _lift(A, sd, blocks):
    """lift_action_to_order_complex(A, sd), given blocks = _chain_blocks(sd),
    so that build_matching reads the blocks once for the lift and the
    classification."""
    K = sd.base
    n = len(K.payloads)
    _check_acts_on(A, K, "the base of the order complex")
    layers, ids, head, shift, pair = blocks
    down = sd.down
    twos = layers[1] if len(layers) > 1 else range(0)
    pairs = down[twos.start:twos.stop]
    perms = []
    for s, p in zip(A.labels, A.perms):
        lift = list(p)
        bad = next((i for i in range(n) if not 0 <= lift[i] < n), None)
        if bad is None:
            img = [pair.get((p[i], p[j])) for i, j in pairs]
            if None in img:
                bad = twos[img.index(None)]
            lift += img
        if bad is not None:
            ch = sd.payloads[bad]
            raise VerificationError(
                "generator %r maps chain %s to %s, which is not a chain of "
                "the order complex" % (s, fmt_payload(ch),
                                       fmt_payload(tuple(map(p.__getitem__,
                                                             ch)))))
        for layer, sh in zip(layers[2:], shift[2:]):
            a, b = layer.start, layer.stop
            lift += [ids[lift[dn[-1]] + sh[lift[e]]]
                     for dn, e in zip(down[a:b], head[a:b])]
        perms.append(lift)
    return A.transport(sd, perms)


# ---------------------------------------------------------------------------
# isomorphism checking


def verify_isomorphism(K1, K2, payload_map, A1=None, A2=None):
    """verify_iso_ids on the id table that payload_map, from the payloads of
    K1 to those of K2, induces; returns it.  Raises VerificationError
    naming a cell whose image is not a cell of K2."""
    get = K2.index.get
    f = [get(payload_map(p)) for p in K1.payloads]
    if None in f:
        p = K1.payloads[f.index(None)]
        raise VerificationError(
            "cell %s maps to %s, which is not a cell of the target"
            % (fmt_payload(p), fmt_payload(payload_map(p))))
    return verify_iso_ids(K1, K2, f, A1, A2)


def verify_iso_ids(K1, K2, f, A1=None, A2=None):
    """Check that the id table f, f[i] the image of K1 cell i, is an
    isomorphism K1 -> K2: a bijection of the cell ids that preserves
    dimensions and covers and, when actions are supplied, commutes with
    each generator, so with every element.  Returns f as a list.

    Raises VerificationError naming the cell by its payload label: a row
    out of range, or else the first cell, in id order, that shares its
    image with an earlier one or whose dimension or covers its image does
    not keep, or a cell and a generator that do not commute; InputError
    for an action on a complex other than K1 or K2."""
    n = len(K1.payloads)
    if len(K2.payloads) != n:
        raise VerificationError("cell counts differ: %d vs %d"
                                % (n, len(K2.payloads)))
    if len(f) != n:
        raise VerificationError("isomorphism table has %d rows, expected %d"
                                % (len(f), n))
    f = list(f)
    i = next((i for i, j in enumerate(f) if not (_is_id(j) and j < n)), None)
    if i is not None:
        raise VerificationError("cell %s maps to %r, which is not a cell id "
                                "below %d" % (_label(K1, i), f[i], n))
    # f has n rows in range(n), so it is a bijection if no image is taken
    # twice; a flag per id keeps the check to n bytes
    taken = bytearray(n)
    for i, j in enumerate(f):
        if taken[j]:
            raise VerificationError("cells %s and %s both map to %s" % (
                _label(K1, f.index(j)), _label(K1, i), _label(K2, j)))
        taken[j] = 1
        if (K1.dims[i] != K2.dims[j]
                or {f[k] for k in K1.down[i]} != set(K2.down[j])):
            raise VerificationError(
                "dimension or covers are not preserved at cell %s, which "
                "maps to %s" % (_label(K1, i), _label(K2, j)))
    if A1 is not None or A2 is not None:
        if (A1 is None or A2 is None or A1.labels != A2.labels
                or A1.order != A2.order):
            raise VerificationError("group actions are not aligned")
        _check_acts_on(A1, K1, "the source of the map")
        _check_acts_on(A2, K2, "the target of the map")
        # commuting with every generator, f commutes with every element
        for s, p1, p2 in zip(A1.labels, A1.perms, A2.perms):
            if list(map(f.__getitem__, p1)) != list(map(p2.__getitem__, f)):
                i = next(i for i in range(n) if f[p1[i]] != p2[f[i]])
                raise VerificationError(
                    "map is not equivariant at cell %s, generator %r"
                    % (_label(K1, i), s))
    return f
