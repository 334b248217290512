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
  order_complex sorts its chains as int tuples, encoding none of them.
* Payloads are built from ints, strings (not starting with "*"), tuples and
  frozensets.  The tags ("*b", p) and ("*c", apex, base) are reserved for
  barycenter and cone payloads introduced by subdivisions.
* Group actions are right actions: act(mult(g, h), x) == act(h, act(g, x)).
* A complex fingerprint is the order-independent 128-bit sum of per-cell
  digests; a cell digest hashes its payload, dimension and the digests of its
  covers, so fingerprints agree between a subcomplex and the same cells
  rebuilt standalone.
"""

import hashlib
from itertools import combinations

from .errors import (
    InputError,
    OrbitCofaceClash,
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
    of the parts instead (_canon_join).
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
    return tag + b"".join(len(p).to_bytes(4, "big") + p for p in parts)


def _canon_members(enc):
    """The members' encodings of a tuple or frozenset encoding, in order."""
    out, k = [], 1
    while k < len(enc):
        end = k + 4 + int.from_bytes(enc[k:k + 4], "big")
        out.append(enc[k + 4:end])
        k = end
    return out


def canon_key(x):
    """Sort key giving a total order on payloads."""
    return canon_bytes(x)


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
        return "{%s}" % ",".join(fmt_payload(y) for y in sorted(x, key=canon_key))
    return repr(x)


def _cell_digest(payload_bytes, dim, cover_digests):
    """The digest of a cell from canon_bytes of its payload, its dimension
    and the digests of its covers."""
    h = hashlib.blake2b(payload_bytes, digest_size=16)
    h.update(dim.to_bytes(4, "big"))
    h.update(b"".join([d.to_bytes(16, "big") for d in sorted(cover_digests)]))
    return int.from_bytes(h.digest(), "big")


def _digests(encodings, dims, down):
    """The digests of all cells, from canon_bytes of their payloads, computed
    in order of dimension so that the covers' digests come first."""
    out = [None] * len(dims)
    get = out.__getitem__
    for i in sorted(range(len(dims)), key=dims.__getitem__):
        out[i] = _cell_digest(encodings[i], dims[i], map(get, down[i]))
    return out


class CellComplex:
    """A finite graded cell complex, stored as its face poset.

    The constructor is low-level and trusts its arguments; build complexes
    through from_graded_cells / from_simplices / order_complex and friends.
    """

    def __init__(self, payloads, dims, down, digests=None):
        self.payloads = list(payloads)
        self.dims = list(dims)
        self.down = list(map(tuple, down))
        n = len(self.payloads)
        up = [[] for _ in range(n)]
        for i, dn in enumerate(self.down):
            for j in dn:
                up[j].append(i)
        self.up = list(map(tuple, up))
        self.index = dict(zip(self.payloads, range(n)))
        if len(self.index) != n:
            seen = set()
            for p in self.payloads:
                if p in seen:
                    raise InputError(
                        "duplicate cell payload: %s" % fmt_payload(p))
                seen.add(p)
        if digests is None:
            digests = _digests(list(map(canon_bytes, self.payloads)),
                               self.dims, self.down)
        self.digests = list(digests)
        self.fingerprint = sum(self.digests) & _MASK128
        self._by_dim = None

    # -- construction ------------------------------------------------------

    @classmethod
    def empty(cls):
        return cls([], [], [])

    @classmethod
    def from_graded_cells(cls, cells, encode=canon_bytes):
        """Build from (payload, dim, iterable-of-cover-payloads) triples.

        Ids are assigned by sorting on (dim, canon_bytes(payload)).  encode
        is called once per cell; a caller may pass a function that joins
        the encoding from its parts' encodings, and must return
        canon_bytes(payload).
        """
        cells = sorted(((d, encode(p), p, faces) for p, d, faces in cells),
                       key=lambda c: c[:2])
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
                   _digests([c[1] for c in cells], dims, down))

    @classmethod
    def from_simplices(cls, simplices, close=True):
        """Build a simplicial complex from an iterable of frozensets.

        With close=True the family is closed downward first; otherwise every
        proper face must already be listed.
        """
        seen = set()
        stack = []
        for s in simplices:
            s = frozenset(s)
            if not s:
                raise InputError("empty simplex")
            if s not in seen:
                seen.add(s)
                stack.append(s)
        if close:
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
    def n_cells(self):
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

    def closed_star(self, i):
        """All faces of all cofaces of i."""
        out = set()
        for c in self.cofaces(i):
            out |= self.faces(c)
        return out

    def maximal_ids(self):
        return [i for i in range(len(self.payloads)) if not self.up[i]]

    @property
    def fingerprint_hex(self):
        return "%032x" % self.fingerprint

    # -- derived complexes -------------------------------------------------

    def subcomplex(self, keep, check=True):
        """Restrict to the cell ids in `keep` (which must be downward closed).

        Returns (complex, old2new dict).  Relative id order is preserved, so
        a subcomplex of a canonically-sorted complex stays canonically sorted.
        """
        keep = sorted(set(keep))
        kset = set(keep)
        old2new = {o: n for n, o in enumerate(keep)}
        if check:
            for o in keep:
                for j in self.down[o]:
                    if j not in kset:
                        raise InputError(
                            "subcomplex is not downward closed at cell %d" % o)
        sub = CellComplex(
            [self.payloads[o] for o in keep],
            [self.dims[o] for o in keep],
            [tuple(old2new[j] for j in self.down[o]) for o in keep],
            digests=[self.digests[o] for o in keep])
        return sub, old2new

    # -- verification ------------------------------------------------------

    def verify(self):
        """Check structural invariants; raise VerificationError on failure."""
        for i in range(len(self.payloads)):
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
    """A right action of a finite group on a cell complex.

    The group is given by its action: element g is the permutation perms[g]
    of cell ids, with perms[0] the identity.  labels[g] is a hashable name
    (for S_r we use the permutation tuple).  The composition table satisfies
    act(mult(g, h), x) == act(h, act(g, x)); it has |G|^2 entries of n-cell
    compositions, so it is filled on the first call of mult, inverse or
    verify.  gens is a generating set of element indices.
    """

    def __init__(self, cx, perms, labels, check=True):
        self.cx = cx
        self.perms = [list(p) for p in perms]
        self.labels = list(labels)
        n = len(cx.payloads)
        if len(self.labels) != len(self.perms):
            raise InputError("labels and permutations disagree in length")
        if check:
            self._check_automorphisms()
        if tuple(self.perms[0]) != tuple(range(n)):
            raise VerificationError("group element 0 does not act as identity")
        self.gens = self._generators()
        self._table = None
        self._inv = None

    def _element_key(self):
        """(key, first): key maps each permutation to the first element
        realizing it, and first[g] is that element for perms[g].

        The action need not be faithful (e.g. on an empty complex), so
        several elements may share a permutation; compositions resolve to
        the first element realizing them, which is sound everywhere the
        table is consumed (only the action of the result is ever used).
        """
        key = {}
        first = [key.setdefault(tuple(p), g) for g, p in enumerate(self.perms)]
        return key, first

    def _compose(self, g, h, key):
        """The element acting as g then h, or VerificationError."""
        k = key.get(tuple(map(self.perms[h].__getitem__, self.perms[g])))
        if k is None:
            raise VerificationError(
                "composition of elements %d,%d leaves the group" % (g, h))
        return k

    def _generators(self):
        """Check that the permutations form a group and return generators.

        Generators are picked greedily from the elements, and the elements
        reached from the identity by right multiplication with them must all
        be in the set.  The reached set is then the subgroup they generate,
        and the set is closed once every element is reached.  Each new
        generator at least doubles the reached subgroup, so there are at most
        log2|G| of them and the check makes at most |G| log2|G| compositions.
        """
        key, first = self._element_key()
        reached = {0}
        elems = [0]
        gens, done = [], []
        for g in range(len(self.perms)):
            if first[g] in reached:
                continue
            gens.append(g)
            done.append(0)
            while any(d < len(elems) for d in done):
                for k, s in enumerate(gens):
                    while done[k] < len(elems):
                        y = self._compose(elems[done[k]], s, key)
                        done[k] += 1
                        if y not in reached:
                            reached.add(y)
                            elems.append(y)
        return gens

    def _tables(self):
        if self._table is None:
            key = self._element_key()[0]
            order = range(len(self.perms))
            self._table = [[self._compose(g, h, key) for h in order]
                           for g in order]
            self._inv = [row.index(0) for row in self._table]
        return self._table, self._inv

    def _check_automorphisms(self):
        cx = self.cx
        rng = range(len(cx.payloads))
        for g, p in enumerate(self.perms):
            if sorted(set(p)) != list(rng):
                raise VerificationError("element %d is not a bijection" % g)
            for i in rng:
                if cx.dims[p[i]] != cx.dims[i]:
                    raise VerificationError(
                        "element %d does not preserve dimension at cell %d" % (g, i))
                if {p[j] for j in cx.down[i]} != set(cx.down[p[i]]):
                    raise VerificationError(
                        "element %d does not preserve covers at cell %d" % (g, i))

    @classmethod
    def from_payload_maps(cls, cx, maps, labels, check=True):
        """Build the id-level action from payload-level bijections."""
        perms = []
        for g, m in enumerate(maps):
            perm = list(map(cx.index.get, map(m, cx.payloads)))
            if None in perm:
                raise VerificationError(
                    "group element %d maps %s outside the complex"
                    % (g, fmt_payload(cx.payloads[perm.index(None)])))
            perms.append(perm)
        return cls(cx, perms, labels, check=check)

    @property
    def order(self):
        return len(self.perms)

    def act(self, g, i):
        return self.perms[g][i]

    def mult(self, g, h):
        return self._tables()[0][g][h]

    def inverse(self, g):
        return self._tables()[1][g]

    def orbit(self, i):
        return tuple(sorted({p[i] for p in self.perms}))

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
        """True iff every cell in ids (default: all) has trivial stabilizer."""
        rng = range(len(self.cx.payloads)) if ids is None else ids
        for i in rng:
            for g in range(1, len(self.perms)):
                if self.perms[g][i] == i:
                    return False
        return True

    def verify(self):
        """Full recheck: identity, automorphisms, closure, right-action law."""
        self._check_automorphisms()
        n = len(self.cx.payloads)
        if tuple(self.perms[0]) != tuple(range(n)):
            raise VerificationError("element 0 is not the identity")
        table = self._tables()[0]
        for g in range(len(self.perms)):
            for h in range(len(self.perms)):
                k = table[g][h]
                for x in range(n):
                    if self.perms[k][x] != self.perms[h][self.perms[g][x]]:
                        raise VerificationError(
                            "right-action law fails at (%d,%d)" % (g, h))
        return True


def trivial_action(cx):
    return GroupAction(cx, [list(range(len(cx.payloads)))], [0], check=False)


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
    would assign, is the order of (len(ch), ch) on int tuples.  Chains are
    generated in tuple order, each bottom id's chains after its own
    one-element chain and grouped by the next id up, and a stable sort by
    length then gives the ids.  A chain's digest hashes canon_bytes(ch),
    joined from one encoding per K-id.
    """
    n = len(K.payloads)
    for i in range(n):
        for j in K.down[i]:
            if j >= i:
                raise InputError("order_complex needs ids sorted by dimension")
    above = [None] * n
    starts = [0] * n
    total = 0
    for i in reversed(range(n)):
        a = set()
        for j in K.up[i]:
            a.add(j)
            a |= above[j]
        above[i] = a
        starts[i] = 1 + sum(starts[j] for j in a)
        total += starts[i]
    if max_cells is not None and total > max_cells:
        raise SizeGuard(
            "order complex needs %d cells, over the %d-cell guard" % (total, max_cells),
            needed=total, limit=max_cells)
    chains_from = [None] * n
    for i in reversed(range(n)):
        chs = [(i,)]
        for j in sorted(above[i]):
            chs.extend((i,) + ch for ch in chains_from[j])
        chains_from[i] = chs
    chains = [ch for chs in chains_from for ch in chs]
    del chains_from, above
    chains.sort(key=len)
    index = dict(zip(chains, range(len(chains)))).__getitem__
    # Dropping a later member gives a smaller chain, so covers ascend.
    down = [tuple([index(ch[:t] + ch[t + 1:])
                   for t in range(len(ch) - 1, -1, -1)])
            if len(ch) > 1 else () for ch in chains]
    part = [len(b).to_bytes(4, "big") + b
            for b in (b"I%d" % i for i in range(n))].__getitem__
    dims = [len(ch) - 1 for ch in chains]
    digests = _digests([b"T" + b"".join(map(part, ch)) for ch in chains],
                       dims, down)
    oc = CellComplex(chains, dims, down, digests)
    oc.base = K
    return oc


def barycentric_subdivision(K, max_cells=None):
    """sd K = order complex of the face poset of K, which is how K is
    stored."""
    return order_complex(K, max_cells=max_cells)


def lift_action_to_order_complex(A, sd):
    """Transport a group action on K to its order complex sd = order_complex(K).

    Element g maps the chain ch to the chain of images p[j], j in ch, where
    p = A.perms[g].  Only the generators A.gens are lifted that way.  A poset
    automorphism maps a chain to a chain whose ids already ascend, because
    every cover has a smaller id (order_complex checks that), so the image
    is looked up in sd.index as it is, without a sort.  Every other element
    is a product of generators: walking the Cayley graph of A from the
    identity, the element h = g.s (A._compose) gets the lift of g followed
    by the lift of s.  Elements that share a permutation share the lift of
    the first element realizing it.  The result equals the itemwise lift.

    Raises VerificationError, naming the element's label and the chain, if
    a generator maps a chain to one that is not a cell of sd, i.e. A is not
    an action by automorphisms of K.
    """
    chains = sd.payloads
    get = sd.index.get
    perms = [None] * A.order
    perms[0] = list(map(get, chains))  # the identity, sharing sd.index's ints
    reached = [0]
    for s in A.gens:
        img = A.perms[s].__getitem__
        perm = [get(tuple(map(img, ch))) for ch in chains]
        if None in perm:
            ch = chains[perm.index(None)]
            raise VerificationError(
                "element %r maps chain %s to %s, which is not a chain of the "
                "order complex" % (A.labels[s], fmt_payload(ch),
                                   fmt_payload(tuple(map(img, ch)))))
        perms[s] = perm
        reached.append(s)
    key, first = A._element_key()
    for g in reached:
        for s in A.gens:
            h = A._compose(g, s, key)
            if perms[h] is None:
                perms[h] = list(map(perms[s].__getitem__, perms[g]))
                reached.append(h)
    return GroupAction(sd, [perms[f] for f in first], A.labels, check=False)


# ---------------------------------------------------------------------------
# stellar subdivision


def orbit_star_data(K, A, sigma, check_clash=True):
    """Shared preprocessing for stellar subdivision at the orbit of sigma.

    Returns (orbit, cofaces-per-member, ring-per-member) where ring(m) is the
    set of cells sharing a coface with m but not above m -- the base of the
    cone replacing the open star of m.  Raises OrbitCofaceClash if two orbit
    members share a coface.
    """
    orbit = A.orbit(sigma)
    cof = {m: K.cofaces(m) for m in orbit}
    if check_clash:
        for a, b in combinations(orbit, 2):
            common = cof[a] & cof[b]
            if common:
                raise OrbitCofaceClash(
                    "cells %d and %d of one orbit share coface %d"
                    % (a, b, min(common)))
    ring = {}
    for m in orbit:
        star = set()
        for c in cof[m]:
            star |= K.faces(c)
        ring[m] = star - cof[m]
    return orbit, cof, ring


def _stellar_cells(K, A, sigma, simplicial, max_cells):
    orbit, cof, ring = orbit_star_data(K, A, sigma)
    removed = set()
    for m in orbit:
        removed |= cof[m]
    survivors = [i for i in range(len(K.payloads)) if i not in removed]
    new_total = len(survivors) + sum(1 + len(ring[m]) for m in orbit)
    if max_cells is not None and new_total > max_cells:
        raise SizeGuard(
            "stellar subdivision needs %d cells, over the %d-cell guard"
            % (new_total, max_cells), needed=new_total, limit=max_cells)
    cells = [(K.payloads[i], K.dims[i], [K.payloads[j] for j in K.down[i]])
             for i in survivors]
    for m in orbit:
        if simplicial:
            sp = K.payloads[m]
            if not isinstance(sp, frozenset):
                raise InputError("simplicial stellar subdivision needs "
                                 "frozenset payloads")
            ax = (BARY, sp)
            cells.append((frozenset([ax]), 0, []))
            for b in ring[m]:
                bp = K.payloads[b]
                np = bp | {ax}
                faces = [bp] + [(bp - {v}) | {ax} for v in bp]
                cells.append((np, len(np) - 1, faces))
        else:
            ax = (BARY, K.payloads[m])
            cells.append((ax, 0, []))
            for b in ring[m]:
                bp = K.payloads[b]
                if K.dims[b] == 0:
                    faces = [bp, ax]
                else:
                    faces = [bp] + [(CONE, ax, K.payloads[j]) for j in K.down[b]]
                cells.append(((CONE, ax, bp), K.dims[b] + 1, faces))
    return cells


def stellar_g_subdivision(K, A, sigma, max_cells=None):
    """Simultaneous stellar subdivision of simplicial K at the orbit of sigma.

    Cells not above any orbit member survive; each open star is replaced by
    the cone from a fresh apex over the star's boundary ring.  Payloads stay
    vertex sets: the apex of a cell with payload s is the vertex ("*b", s).
    """
    return CellComplex.from_graded_cells(
        _stellar_cells(K, A, sigma, simplicial=True, max_cells=max_cells))


def stellar_subdivision_poset(K, A, sigma, max_cells=None):
    """Stellar subdivision at face-poset level, for non-simplicial complexes.

    Same cell structure as stellar_g_subdivision, but cells are named by
    cone payloads ("*c", apex, base) instead of enlarged vertex sets.
    """
    return CellComplex.from_graded_cells(
        _stellar_cells(K, A, sigma, simplicial=False, max_cells=max_cells))


# ---------------------------------------------------------------------------
# freeness


def free_facet(K, i):
    """The unique facet strictly above i, if i is a proper face of exactly
    one facet of K; None otherwise (a facet itself is never free)."""
    cof = K.cofaces(i)
    maximal = [c for c in cof if not K.up[c]]
    if len(maximal) == 1 and maximal[0] != i:
        return maximal[0]
    return None


# ---------------------------------------------------------------------------
# isomorphism checking


def verify_isomorphism(K1, K2, payload_map, A1=None, A2=None):
    """Check that payload_map induces an isomorphism K1 -> K2 (and that it is
    equivariant when actions are supplied).  Returns the id-level map.

    Raises VerificationError with a counterexample cell on any failure.
    """
    n1, n2 = len(K1.payloads), len(K2.payloads)
    if n1 != n2:
        raise VerificationError(
            "cell counts differ: %d vs %d" % (n1, n2))
    f = [None] * n1
    seen = set()
    for i in range(n1):
        q = payload_map(K1.payloads[i])
        j = K2.index.get(q)
        if j is None:
            raise VerificationError(
                "image of cell %d (%s) is not a cell of the target"
                % (i, fmt_payload(K1.payloads[i])))
        if j in seen:
            raise VerificationError("payload map is not injective at cell %d" % i)
        seen.add(j)
        f[i] = j
    return _check_iso(K1, K2, f, A1, A2)


def _check_iso(K1, K2, f, A1, A2):
    """The checks shared by verify_isomorphism and collapse.verify_iso_ids:
    the id bijection f (a list indexed by K1 ids) preserves dimensions and
    covers, and commutes with the actions when they are supplied.  Returns
    f; raises VerificationError with the offending cell."""
    n = len(f)
    for i in range(n):
        if K1.dims[i] != K2.dims[f[i]]:
            raise VerificationError("dimension mismatch at cell %d" % i)
    for i in range(n):
        if {f[j] for j in K1.down[i]} != set(K2.down[f[i]]):
            raise VerificationError("covers are not preserved at cell %d" % i)
    if A1 is not None or A2 is not None:
        if A1 is None or A2 is None or A1.labels != A2.labels:
            raise VerificationError("group actions are not aligned")
        for g in range(A1.order):
            p1, p2 = A1.perms[g], A2.perms[g]
            for i in range(n):
                if f[p1[i]] != p2[f[i]]:
                    raise VerificationError(
                        "map is not equivariant at cell %d, element %d" % (i, g))
    return f
