"""The multihomomorphism poset and the Hom complex Hom(K_r^r, H).

A multihomomorphism assigns to each of the r coordinates a nonempty vertex
set of H such that every selection of one vertex per coordinate is an edge.
Since edges are nondegenerate, the parts are automatically pairwise disjoint.
Multihoms ordered by componentwise inclusion form the face poset of the
polytopal Hom complex, whose cell for f is the product of simplices on the
parts of f; dim f = sum(|f(j)| - 1).

A multihom payload is a tuple of r frozensets.  The right S_r-action is
(f sigma)(j) = f(sigma(j)).

Multihoms are enumerated on integer ids (_multihom_masks): vertex v is
bit v of a part mask, in canon_bytes order, and a DFS over the
coordinates intersects blocks of one int mask of the ordered edges (on a
sparse graph with a large r, of one mask per leading coordinates).  The
Hom complex keys a cell by its part masks side by side, so a cover clears
one bit; its encoding is joined from one piece per part, and its payload
is built once, at the end.  The box complex (boxcx) is built from the same
masks.
"""

from collections import namedtuple

from .cellcx import GroupAction, _keyed_cx, _piece, canon_bytes
from .errors import InvalidParams, SizeGuard

HomComplex = namedtuple("HomComplex", "cx action graph")

# A multihom search keeps its tail masks within this many bits per ordered
# edge of the graph (see _multihom_masks).
_BITS_PER_EDGE = 64


def _members(mask):
    """The indices of the set bits of mask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _memo(fn):
    """fn, computed once per argument: a memo for one build, dropped with
    it."""
    memo = {}

    def get(x):
        y = memo.get(x)
        if y is None:
            y = memo[x] = fn(x)
        return y
    return get


def _multihom_masks(H, max_cells):
    """Every multihom of H as a tuple of r vertex masks, in no fixed order.
    Bit v of a mask stands for H.vertices[v], so ascending ids are the
    canon_bytes order of the vertices.

    The ordered edges form one int mask: (v_0, ..., v_{r-1}) is the bit
    v_0 n^(r-1) + ... + v_{r-1}, for n vertices.  A DFS over the coordinates
    picks the parts in turn.  At coordinate j the mask holds the tails, of
    length r - j, that every choice from the parts picked so far extends to
    an edge; a vertex's tails are one block of n^(r-1-j) bits, and the tails
    a part has in common are the & of its vertices' blocks.  A part is kept
    only while some tail is common, so every branch ends in a multihom.
    The last part is any nonempty subset of the vertices left, and
    SizeGuard is raised as soon as the count would pass max_cells.

    One mask has n^r bits, too many for a sparse graph with a large r (three
    disjoint 7-edges would need 224 MB).  So only the last k coordinates of
    a tail index a mask, for the largest k whose masks take at most
    _BITS_PER_EDGE bits per ordered edge (k = r on dense graphs), and the
    first ones are a dict key: common tails are then the & of the masks
    under each key.

    parts and keyed_parts call themselves through the closure cells of
    their names, a reference cycle of each function and its cell.  Their
    names are deleted on the way out, errors included, so the cycles end
    with the call and reference counting frees them: the pipeline runs with
    the cyclic collector paused (cellcx._paused_collector).  _choose, which
    needs no closure, recurses at module level.
    """
    n, r = len(H.vertices), H.r
    vid = {v: i for i, v in enumerate(H.vertices)}
    ordered = [tuple(map(vid.__getitem__, t)) for t in H.ordered_edges()]
    k = r
    while k > 1 and (len({t[:r - k] for t in ordered}) * n ** k
                     > _BITS_PER_EDGE * len(ordered)):
        k -= 1
    heads = {}
    for t in ordered:
        x = 0
        for v in t[r - k:]:
            x = x * n + v
        heads.setdefault(t[:r - k], []).append(x)
    edges = {}
    for head, xs in heads.items():
        bits = bytearray((n ** k + 7) // 8)
        for x in xs:
            bits[x >> 3] |= 1 << (x & 7)
        edges[head] = int.from_bytes(bits, "little")
    out = []

    def parts(j, mask, prefix):
        # The tails of length r - j <= k, as one mask.
        if j == r - 1:
            if (max_cells is not None
                    and len(out) + (1 << mask.bit_count()) - 1 > max_cells):
                raise SizeGuard("more than %d multihomomorphisms" % max_cells,
                                limit=max_cells)
            s = mask
            while s:
                out.append(prefix + (s,))
                s = (s - 1) & mask
            return
        block = n ** (r - 1 - j)
        low = (1 << block) - 1
        _choose([(1 << v, t) for v in range(n)
                 if (t := mask >> (v * block) & low)], int.__and__,
                lambda part, t: parts(j + 1, t, prefix + (part,)))

    def keyed_parts(j, tails, prefix):
        # The tails of length r - j > k, as masks under their first
        # r - j - k coordinates.
        by_vertex = {}
        for head, m in tails.items():
            by_vertex.setdefault(head[0], {})[head[1:]] = m
        if r - j - 1 == k:
            def descend(part, t):
                parts(j + 1, t[()], prefix + (part,))
        else:
            def descend(part, t):
                keyed_parts(j + 1, t, prefix + (part,))
        _choose([(1 << v, t) for v, t in sorted(by_vertex.items())], _meet,
                descend)

    try:
        if k == r:
            parts(0, edges.get((), 0), ())
        else:
            keyed_parts(0, edges, ())
    finally:
        del parts, keyed_parts
    return out


def _choose(cands, meet, descend, start=0, part=0, common=None):
    """descend(part, common tails) for every nonempty set of the
    candidates (bit, tails) from cands[start:], in order, whose tails meet,
    each set joined to part, whose tails are common (None for no tails
    yet)."""
    for i in range(start, len(cands)):
        bit, t = cands[i]
        if common is not None:
            t = meet(common, t)
        if t:
            descend(part | bit, t)
            _choose(cands, meet, descend, i + 1, part | bit, t)


def _meet(a, b):
    """The & of two keyed tail masks, key by key, dropping empty ones."""
    return {h: x for h, m in a.items() if (x := m & b.get(h, 0))}


def _hom_cells(H, max_cells):
    """The multihoms of H as (dim, canon_bytes, key, part masks) cells,
    sorted by (dim, canon_bytes): the cell order of hom_complex.  The key
    puts part j's mask at bit j * n, for n vertices, so a cover's key
    clears one bit of it.  An encoding is joined from one piece per part,
    and a part's piece from one piece per vertex, once per mask."""
    n = len(H.vertices)
    vpiece = [_piece(canon_bytes(v)) for v in H.vertices]
    ppiece = _memo(lambda m: _piece(
        b"F" + b"".join(map(vpiece.__getitem__, _members(m)))))
    cells = []
    for f in _multihom_masks(H, max_cells):
        key = dim = 0
        for j, m in enumerate(f):
            key |= m << (j * n)
            dim += m.bit_count() - 1
        cells.append((dim, b"T" + b"".join(map(ppiece, f)), key, f))
    cells.sort()
    return cells


def _part_sets(H):
    """mask -> the frozenset of the vertices in it, one set per mask."""
    verts = H.vertices
    return _memo(lambda m: frozenset(map(verts.__getitem__, _members(m))))


def s_r_generators(r):
    """The adjacent transpositions s_i = (i, i+1), i < r - 1, as image
    tuples: the Coxeter generators of S_r."""
    return [tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, r))
            for i in range(r - 1)]


def coordinate_map(sigma, r):
    """The right action x -> x sigma, (x sigma)(j) = x(sigma(j)), on
    r-tuples.  sigma is checked once here, not on every tuple."""
    if sorted(sigma) != list(range(r)):
        raise InvalidParams("not a permutation of 0..%d: %r" % (r - 1, sigma))
    return lambda x: tuple(map(x.__getitem__, sigma))


def hom_complex(H, max_cells=None):
    """Hom(K_r^r, H) as a graded cell complex with its right S_r-action.

    Cells are multihoms; covers shrink one part by one vertex.  Returns a
    HomComplex(cx, action, graph) bundle.
    """
    cx = _hom_cx(H, max_cells)
    labels = s_r_generators(H.r)
    maps = [coordinate_map(s, H.r) for s in labels]
    return HomComplex(cx, GroupAction.symmetric(cx, maps, labels), H)


def _hom_cx(H, max_cells):
    """The complex of hom_complex(H, max_cells), without its action.  A
    cover clears one bit of one part with at least two."""
    n = len(H.vertices)
    part = _part_sets(H)
    members = _memo(_members)

    def faces(key, f):
        out = []
        for j, m in enumerate(f):
            if m & (m - 1):
                out.extend(key ^ 1 << (j * n + v) for v in members(m))
        return out

    return _keyed_cx(_hom_cells(H, max_cells), faces,
                     lambda f: tuple(map(part, f)))
