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
"""

from collections import namedtuple
from itertools import product
from math import comb

from .cellcx import CellComplex, GroupAction, _canon_join, canon_bytes
from .errors import SizeGuard
from .homcx import coordinate_map, enumerate_multihoms, s_r_generators
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


def _spanning_subsets(f, key):
    """All subsets of i(f) with full projections, by DFS with a
    cover-feasibility prune.  key is canon_bytes on ordered edges."""
    prod = sorted(map_i(f), key=key)
    n = len(prod)
    r = len(f)
    # suffix[k] counts, for each (coordinate, vertex), how many of
    # prod[k:] still provide it.
    suffix = [dict() for _ in range(n + 1)]
    for k in range(n - 1, -1, -1):
        cnt = dict(suffix[k + 1])
        for j in range(r):
            key = (j, prod[k][j])
            cnt[key] = cnt.get(key, 0) + 1
        suffix[k] = cnt
    out = []

    def dfs(k, chosen, missing):
        if not missing:
            # Everything is covered; each remaining cell is freely in or out.
            base = tuple(chosen)
            rest = prod[k:]
            for mask in range(1 << len(rest)):
                extra = tuple(rest[i] for i in range(len(rest))
                              if mask >> i & 1)
                out.append(frozenset(base + extra))
            return
        if k == n:
            return
        for key in missing:
            if suffix[k].get(key, 0) == 0:
                return
        t = prod[k]
        covered = {(j, t[j]) for j in range(r)} & missing
        chosen.append(t)
        dfs(k + 1, chosen, missing - covered)
        chosen.pop()
        dfs(k + 1, chosen, missing)

    missing0 = {(j, v) for j in range(r) for v in f[j]}
    dfs(0, [], missing0)
    return out


def box_edge(H, max_cells=None):
    """B_edge(H) as a simplicial complex with its right S_r-action.

    Returns a BoxComplex(cx, action, graph) bundle.  Raises SizeGuard before
    enumeration if the total simplex count (computed by inclusion-exclusion
    per multihom) exceeds max_cells.
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
    """The complex of box_edge(H, max_cells), without its action."""
    homs = enumerate_multihoms(H, max_cells=max_cells)
    if max_cells is not None:
        total = 0
        for f in homs:
            total += count_spanning([len(p) for p in f], cap=max_cells)
            if total > max_cells:
                raise SizeGuard(
                    "box complex needs more than %d simplices" % max_cells,
                    limit=max_cells)
    # A simplex's encoding is joined from those of its ordered edges.
    edge_enc = {t: canon_bytes(t) for t in H.ordered_edges()}.__getitem__
    cells = []
    for f in homs:
        for S in _spanning_subsets(f, edge_enc):
            faces = [S - {t} for t in S] if len(S) >= 2 else []
            cells.append((S, len(S) - 1, faces))
    return CellComplex.from_graded_cells(
        cells, encode=lambda S: _canon_join(b"F", sorted(map(edge_enc, S))))


def ip_tables(box):
    """Per box cell: (is i∘p-fixed, id of the cell i(p(F))).

    i(p(F)) is itself always a simplex (the full product over p(F)), so the
    id lookup never fails.
    """
    cx = box.cx
    fixed = []
    ipim = []
    for F in cx.payloads:
        P = map_i(map_p(F))
        fixed.append(P == F)
        ipim.append(cx.index[P])
    return fixed, ipim


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
