"""The edge box complex B_edge(H).

Vertices are ordered edges of H (r-tuples).  A nonempty set F of ordered
edges is a simplex iff its coordinatewise projections p(F) are pairwise
disjoint and every transversal of them is an edge — equivalently, iff F is
contained in the product i(f) of some multihomomorphism f.  Each simplex is
therefore a *spanning* subset (full projections) of i(p(F)), so the whole
complex is enumerated by listing, per multihom f, the subsets of i(f) that
project onto every part of f.

map_p and map_i realize the poset maps p (projection) and i (product);
p(i(f)) = f and F <= i(p(F)) always, so i∘p is a closure operator on
simplices.  The right S_r-action permutes tuple coordinates.

The complex is built on integer ids, from the multihoms as vertex masks
(homcx).  The ordered edges are numbered in canon_bytes order; a simplex is
the int mask of its edge ids, a facet clears one bit of it, and its
encoding is joined from one piece per id in ascending order.  Per multihom
f, a DFS lists the spanning subsets of i(f) on int masks of the
(coordinate, vertex) pairs each edge provides, taking a branch only while
it can still cover f, so the work follows the output.  Payloads are built
once per cell, at the end.
"""

from collections import Counter, namedtuple
from itertools import product
from math import comb

from .cellcx import GroupAction, _keyed_cx, _piece, canon_bytes
from .errors import SizeGuard
from .homcx import (_members, _memo, _multihom_masks, coordinate_map,
                    s_r_generators)
from .rgraph import contains_complete_sub

BoxComplex = namedtuple("BoxComplex", "cx action graph")


def map_p(F):
    """Coordinatewise projection of a set of ordered edges (a multihom when
    F is a simplex)."""
    r = len(next(iter(F)))
    return tuple(frozenset(t[j] for t in F) for j in range(r))


def map_i(f):
    """The full product of a multihom's parts, as a set of ordered edges."""
    return frozenset(product(*f))


def ip_fixed(F):
    """Whether the simplex F is a product, i.e. fixed by i∘p."""
    return map_i(map_p(F)) == F


def count_spanning(sizes, cap=None):
    """Number of subsets of an a_1 x ... x a_r grid projecting onto every
    coordinate, by inclusion-exclusion over sub-grids.

    With cap set, returns cap+1 as soon as the count provably exceeds cap
    (supersets of a fixed cover of the grid already do), keeping the
    arithmetic small on oversized inputs.
    """
    bits = 1
    for a in sizes:
        bits *= a
    if cap is not None and bits - sum(sizes) > cap.bit_length():
        return cap + 1
    total = 0
    for bs in product(*[range(1, a + 1) for a in sizes]):
        coef = 1
        cells = 1
        for a, b in zip(sizes, bs):
            coef *= comb(a, b) * (-1) ** (a - b)
            cells *= b
        total += coef * ((1 << cells) - 1)
    return total


def _spanning(els, need, provides, out):
    """Append to out, as ascending tuples, every subset of the edge ids els
    (ascending) whose provides masks cover need.

    A DFS decides each edge in turn and carries the requirements still
    missing.  suffix[k] is what els[k:] provide together, so a branch is
    taken only while it can still cover need, and every branch ends in at
    least one subset.  Once nothing is missing, the edges left are each
    freely in or out.  The DFS keeps its branches on a stack, the edge in
    on top so that it is taken first: a recursive nested function would
    reach itself through its closure cell, a reference cycle that only the
    cyclic collector frees, and the pipeline runs with it paused
    (cellcx._paused_collector).
    """
    m = len(els)
    suffix = [0] * (m + 1)
    for k in range(m - 1, -1, -1):
        suffix[k] = suffix[k + 1] | provides[els[k]]

    stack = [(0, (), need)]
    while stack:
        k, chosen, missing = stack.pop()
        if not missing:
            found = [chosen]
            for e in els[k:]:
                found += [s + (e,) for s in found]
            out.extend(found)
            continue
        e = els[k]
        if not missing & ~suffix[k + 1]:
            stack.append((k + 1, chosen, missing))
        stack.append((k + 1, chosen + (e,), missing & ~provides[e]))


def box_edge(H, max_cells=None):
    """B_edge(H) as a simplicial complex with its right S_r-action.

    Returns a BoxComplex(cx, action, graph) bundle.  Raises SizeGuard before
    listing a simplex if the total simplex count exceeds max_cells; the
    count is by inclusion-exclusion (count_spanning), once per part-size
    signature of the multihoms.
    """
    cx = _box_cx(H, max_cells)
    labels = s_r_generators(H.r)
    edges = H.ordered_edges()
    maps = []
    for s in labels:
        move = coordinate_map(s, H.r)
        vm = {t: move(t) for t in edges}
        maps.append(lambda F, vm=vm: frozenset(map(vm.__getitem__, F)))
    return BoxComplex(cx, GroupAction.symmetric(cx, maps, labels), H)


def _box_cx(H, max_cells):
    """The complex of box_edge(H, max_cells), without its action.

    A simplex is listed as the ascending tuple of its edge ids, and keyed
    by their mask.  Coordinate j taking vertex id v is requirement bit
    j * n + v, for n vertices: an edge provides r bits, and multihom f needs
    the bits of its Hom key.  The complex's closure list holds the id of
    i(p(F)) for each simplex F: F is listed under f = p(F), whose i(f) is
    the mask of all the edges listed.
    """
    homs = _multihom_masks(H, max_cells)
    if max_cells is not None:
        total = 0
        for sizes, k in Counter(
                tuple(sorted(m.bit_count() for m in f)) for f in homs).items():
            total += k * count_spanning(sizes, cap=max_cells)
            if total > max_cells:
                raise SizeGuard(
                    "box complex needs more than %d simplices" % max_cells,
                    limit=max_cells)
    n = len(H.vertices)
    vid = {v: i for i, v in enumerate(H.vertices)}
    edges = sorted((canon_bytes(t), t) for t in H.ordered_edges())
    epiece = [_piece(e) for e, _ in edges]
    edges = [t for _, t in edges]
    eid = {tuple(map(vid.__getitem__, t)): i for i, t in enumerate(edges)}
    provides = [sum(1 << (j * n + vid[v]) for j, v in enumerate(t))
                for t in edges]
    members = _memo(_members)
    simplices, closure = [], []
    for f in homs:
        els = sorted(map(eid.__getitem__, product(*map(members, f))))
        _spanning(els, sum(m << (j * n) for j, m in enumerate(f)), provides,
                  simplices)
        # i(f), all of els, is the closure of each simplex listed under f
        closure += [sum(1 << e for e in els)] * (len(simplices) - len(closure))
    cells = []
    for S, c in zip(simplices, closure):
        g = 0
        for e in S:
            g |= 1 << e
        cells.append((len(S) - 1, b"F" + b"".join(map(epiece.__getitem__, S)),
                      g, (S, c)))
    cells.sort()

    def faces(g, data):
        S = data[0]
        return [g ^ 1 << e for e in S] if len(S) >= 2 else []

    cx = _keyed_cx(cells, faces,
                   lambda data: frozenset(map(edges.__getitem__, data[0])))
    id_of = {c[2]: i for i, c in enumerate(cells)}
    cx.closure = [id_of[c[3][1]] for c in cells]
    return cx


def ip_tables(box):
    """Per box cell: (is i∘p-fixed, id of the cell i(p(F))), as two lists,
    read from the closure list of box_edge's complex (_box_cx)."""
    closure = box.cx.closure
    return [c == i for i, c in enumerate(closure)], list(closure)


def i_image_ids(hom, box):
    """Box cell id of i(f) for each hom cell f, in hom id order."""
    return [box.cx.index[map_i(f)] for f in hom.cx.payloads]


def iso_criterion(H, max_cells=None):
    """(every simplex of B_edge(H) is a product,
        H has no complete r-partite subgraph with part sizes 1,...,1,2,2).

    The two booleans agree for every H; when true, i and p are inverse
    simplicial isomorphisms between B_edge(H) and Hom(K_r^r, H) (the latter
    is then simplicial).
    """
    cx = _box_cx(H, max_cells)
    all_fixed = all(ip_fixed(F) for F in cx.payloads)
    pattern = [1] * (H.r - 2) + [2, 2]
    return all_fixed, not contains_complete_sub(H, pattern)
