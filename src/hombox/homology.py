"""Cellular homology: Betti numbers and torsion over Z, Betti numbers over Z/2.

Boundary matrices are assembled from the face poset, with every cell
oriented as a product of simplices (Munkres, Elements of Algebraic
Topology, 1984, on the cellular chains of a product).  A frozenset payload
is one simplex, its vertices ordered by canon_bytes; an int-tuple chain of
an order complex is one simplex, in stored order; a Hom cell, a tuple of
frozensets, is the product of its parts.  The face that drops the vertex
in position t of factor k enters with sign (-1)^(t + the dimensions of the
factors before k), the sign of the product boundary
d(a x b) = da x b + (-1)^dim(a) a x db.  So the polytopal Hom complex is
taken as it is, with no subdivision.

Homology is computed in three phases.  First the whole chain complex is
reduced by pairs that cost no fill (Kaczynski, Mrozek and Slusarek,
"Homology computation by reduction of chain complexes", Comput. Math.
Appl. 1998; Mrozek and Batko, "Coreduction homology algorithm", Discrete
Comput. Geom. 2009): a pair (tau, sigma) of incidence +-1 goes when sigma is
the only remaining face of tau, or tau the only remaining coface of sigma.
Either way deleting both cells changes no other entry, and is a chain
homotopy equivalence over any ring.  A closed complex has no such pair, so
one vertex per connected component is taken out first, and given back to
b_0: H(K) = H(seeds) + H(K, seeds).  What is left is the original boundary
restricted to the cells that remain, ranked over Z/2 by bitmask elimination,
or over Z by the two phases of a Smith normal form: a sparse elimination that
only ever pivots on +-1 entries (chosen by a lazy minimum-fill heap),
followed by an exact dense Smith normal form of whatever small block
remains.  Since unit pivots are invertible row/column operations, the
invariant factors are the units' 1s followed by the dense block's factors.
"""

import heapq
from collections import deque, namedtuple

from .cellcx import _paused_collector, canon_bytes
from .errors import InputError


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def oriented_boundary(K):
    """Per-cell signed boundary: a dict {face_id: +-1} for every cell of
    positive dimension, empty dict for vertices.

    Orients frozenset (simplex), int-tuple (chain) and tuple-of-frozensets
    (product of simplices) payloads; any other shape raises InputError."""
    out = []
    enc = {}  # canon_bytes of each vertex, once; keyed by == like K.index

    def vertex_key(v):
        e = enc.get(v)
        if e is None:
            e = enc[v] = canon_bytes(v)
        return e

    for i, p in enumerate(K.payloads):
        if K.dims[i] == 0:
            out.append({})
            continue
        col = {}
        if isinstance(p, frozenset):
            for t, v in enumerate(sorted(p, key=vertex_key)):
                col[K.index[p - {v}]] = (-1) ** t
        elif isinstance(p, tuple) and p and all(map(_is_int, p)):
            for t in range(len(p)):
                col[K.index[p[:t] + p[t + 1:]]] = (-1) ** t
        elif isinstance(p, tuple) and p and all(
                isinstance(q, frozenset) for q in p):
            before = 0  # dimensions of the factors before k
            for k, part in enumerate(p):
                if len(part) > 1:
                    for t, v in enumerate(sorted(part, key=vertex_key)):
                        face = p[:k] + (part - {v},) + p[k + 1:]
                        col[K.index[face]] = (-1) ** (t + before)
                before += len(part) - 1
        else:
            raise InputError("cannot orient cells with payload %r" % (p,))
        out.append(col)
    return out


# ---------------------------------------------------------------------------
# ranks and Smith normal form


def _rank_gf2(masks):
    """Rank over Z/2 of a set of columns given as int bitmasks."""
    pivots = {}
    rank = 0
    for m in masks:
        while m:
            b = m & -m
            p = pivots.get(b)
            if p is None:
                pivots[b] = m
                rank += 1
                break
            m ^= p
    return rank


def _dense_snf(M):
    """Invariant factors (positive, divisibility chain) of a small dense
    integer matrix, by the classical reduction."""
    M = [row[:] for row in M]
    factors = []
    top = 0
    nr = len(M)
    nc = len(M[0]) if M else 0
    while True:
        best = None
        for i in range(top, nr):
            for j in range(top, nc):
                v = M[i][j]
                if v and (best is None or abs(v) < abs(M[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        M[top], M[bi] = M[bi], M[top]
        for row in M:
            row[top], row[bj] = row[bj], row[top]
        while True:
            piv = M[top][top]
            dirty = False
            for i in range(top + 1, nr):
                q = M[i][top] // piv
                if q:
                    for j in range(top, nc):
                        M[i][j] -= q * M[top][j]
                if M[i][top]:
                    M[top], M[i] = M[i], M[top]
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(top + 1, nc):
                q = M[top][j] // piv
                if q:
                    for i in range(top, nr):
                        M[i][j] -= q * M[i][top]
                if M[top][j]:
                    for i in range(top, nr):
                        M[i][top], M[i][j] = M[i][j], M[i][top]
                    dirty = True
                    break
            if dirty:
                continue
            bad = None
            for i in range(top + 1, nr):
                for j in range(top + 1, nc):
                    if M[i][j] % piv:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            for j in range(top, nc):
                M[top][j] += M[bad][j]
        factors.append(abs(M[top][top]))
        top += 1
        if top >= nr or top >= nc:
            break
    return factors


def _snf_invariants(columns):
    """Invariant factors of the sparse integer matrix given as
    {col_id: {row_id: value}}."""
    cols = {c: dict(col) for c, col in columns.items() if col}
    rows = {}
    for c, col in cols.items():
        for r, v in col.items():
            rows.setdefault(r, {})[c] = v

    heap = []

    def push(r, c):
        v = rows.get(r, {}).get(c)
        if v in (1, -1):
            f = (len(rows[r]) - 1) * (len(cols[c]) - 1)
            heapq.heappush(heap, (f, r, c))

    for r, row in rows.items():
        for c in row:
            push(r, c)

    def drop(r, c):
        del rows[r][c]
        del cols[c][r]
        if not rows[r]:
            del rows[r]
        if not cols[c]:
            del cols[c]

    units = 0
    while heap:
        f, r, c = heapq.heappop(heap)
        row = rows.get(r)
        if row is None or c not in cols or c not in row:
            continue
        v = row[c]
        if v not in (1, -1):
            continue
        cur = (len(row) - 1) * (len(cols[c]) - 1)
        if cur > f:
            heapq.heappush(heap, (cur, r, c))
            continue
        # Pivot on (r, c): clear the column with row operations, then the
        # pivot row comes out by column operations that touch nothing else.
        units += 1
        for r2 in list(cols[c]):
            if r2 == r:
                continue
            k = rows[r2][c] * v
            row2 = rows[r2]
            for c2, w in row.items():
                if c2 == c:
                    continue
                nv = row2.get(c2, 0) - k * w
                if nv:
                    row2[c2] = nv
                    cols[c2][r2] = nv
                    push(r2, c2)
                elif c2 in row2:
                    drop(r2, c2)
            drop(r2, c)
        for c2 in list(row):
            drop(r, c2)

    if not rows:
        return [1] * units
    rest_rows = sorted(rows)
    rest_cols = sorted({c for row in rows.values() for c in row})
    ri = {r: i for i, r in enumerate(rest_rows)}
    ci = {c: j for j, c in enumerate(rest_cols)}
    M = [[0] * len(rest_cols) for _ in rest_rows]
    for r, row in rows.items():
        for c, v in row.items():
            M[ri[r]][ci[c]] = v
    return [1] * units + _dense_snf(M)


# ---------------------------------------------------------------------------
# Betti numbers and torsion


def _reduce(K, bnd):
    """Reduce the chain complex of K by zero-fill pairs.  Returns (alive,
    seeds): which cells are left, and how many vertices were taken out as
    seeds, one per connected component.

    The pass is driven by a first-in first-out work list, so it spreads out
    from the seeds breadth first, as a coreduction does; on the box and Hom
    complexes of K_5^3, K_6^4 and K_7^5 it leaves only b_2 cells.  Every
    entry of bnd is +-1, so each pair found qualifies, and the reduced
    boundary is bnd restricted to the cells left."""
    n = len(bnd)
    up = [[] for _ in range(n)]
    for i, col in enumerate(bnd):
        for f in col:
            up[f].append(i)
    faces_left = list(map(len, bnd))
    cofaces_left = list(map(len, up))
    alive = [True] * n
    todo = deque()

    def remove(x):
        alive[x] = False
        for f in bnd[x]:
            if alive[f]:
                cofaces_left[f] -= 1
                if cofaces_left[f] == 1:
                    todo.append(f)
        for c in up[x]:
            if alive[c]:
                faces_left[c] -= 1
                if faces_left[c] == 1:
                    todo.append(c)

    reached = [False] * n
    seeds = 0
    for v in K.cells_of_dim(0):
        if reached[v]:
            continue
        seeds += 1
        reached[v] = True
        stack = [v]
        while stack:
            for e in up[stack.pop()]:
                for w in bnd[e]:
                    if not reached[w]:
                        reached[w] = True
                        stack.append(w)
        remove(v)

    todo.extend(range(n))
    while todo:
        x = todo.popleft()
        if not alive[x]:
            continue
        if faces_left[x] == 1:
            y = next(f for f in bnd[x] if alive[f])
        elif cofaces_left[x] == 1:
            y = next(c for c in up[x] if alive[c])
        else:
            continue
        remove(x)
        remove(y)
    return alive, seeds


def betti(K, coeff="z"):
    """(Betti numbers, torsion) of K.

    Over the integers ("z"), torsion[d] lists the invariant factors > 1 of
    the boundary in dimension d+1, i.e. the torsion coefficients of H_d.
    Over Z/2 ("z2"), Betti numbers are Z/2-dimensions and torsion rows are
    empty.  The chain complex is first reduced by zero-fill pairs and one
    seed vertex per component (see the module docstring); the cells left
    are ranked over the chosen ring.  Cells are oriented by
    oriented_boundary, so K needs payloads of the shapes it accepts."""
    if coeff not in ("z", "z2"):
        raise InputError("coeff must be 'z' or 'z2', not %r" % (coeff,))
    if len(K.payloads) == 0:
        return [], []
    D = K.max_dim
    bnd = oriented_boundary(K)
    alive, seeds = _reduce(K, bnd)
    ids_of = [[i for i in K.cells_of_dim(d) if alive[i]]
              for d in range(D + 1)]
    ranks = [0] * (D + 2)
    invs = [[] for _ in range(D + 2)]
    for d in range(1, D + 1):
        cols = {i: {r: s for r, s in bnd[i].items() if alive[r]}
                for i in ids_of[d]}
        if coeff == "z2":
            pos = {r: k for k, r in enumerate(ids_of[d - 1])}
            masks = []
            for col in cols.values():
                m = 0
                for rr in col:
                    m |= 1 << pos[rr]
                masks.append(m)
            ranks[d] = _rank_gf2(masks)
        else:
            invs[d] = _snf_invariants(cols)
            ranks[d] = len(invs[d])
    bettis = [len(ids_of[d]) - ranks[d] - ranks[d + 1] for d in range(D + 1)]
    bettis[0] += seeds
    torsion = [[f for f in invs[d + 1] if f != 1] for d in range(D + 1)]
    return bettis, torsion


def homology_report(K, coeff="z"):
    """JSON-ready {"betti": [...], "torsion": [[...], ...]} for K."""
    b, t = betti(K, coeff)
    return {"betti": list(b), "torsion": [list(row) for row in t]}


HomologyAgreement = namedtuple(
    "HomologyAgreement", "agree box_report hom_report")


def _pad(report, upto):
    b = list(report["betti"]) + [0] * (upto - len(report["betti"]))
    t = list(report["torsion"]) + [[] for _ in range(upto - len(report["torsion"]))]
    return {"betti": b, "torsion": t}


@_paused_collector
def homology_agreement(H, coeff="z", max_cells=None, complexes=None):
    """Compare integral (or Z/2) homology of B_edge(H) and Hom(K_r^r, H).

    The two must agree (they are homotopy equivalent complexes); returns
    HomologyAgreement(agree, box_report, hom_report) with reports padded to a
    common length.  Both complexes are used as they are: the box complex is
    simplicial and the Hom complex has product cells, so nothing is
    subdivided, and max_cells guards only the builds of box and Hom.
    Homology reads no group action, so none is built.  Pass complexes=(hom,
    box), bundles built for H, as replay_main_theorem returns them, to
    reuse them."""
    if complexes is not None:
        hom_cx, box_cx = (c.cx for c in complexes)
    else:
        from .boxcx import _box_cx
        from .homcx import _hom_cx

        box_cx, hom_cx = _box_cx(H, max_cells), _hom_cx(H, max_cells)
    rb = homology_report(box_cx, coeff)
    rh = homology_report(hom_cx, coeff)
    upto = max(len(rb["betti"]), len(rh["betti"]))
    rb, rh = _pad(rb, upto), _pad(rh, upto)
    return HomologyAgreement(rb == rh, rb, rh)
