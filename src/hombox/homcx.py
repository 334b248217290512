"""The multihomomorphism poset and the Hom complex Hom(K_r^r, H).

A multihomomorphism assigns to each of the r coordinates a nonempty vertex
set of H such that every selection of one vertex per coordinate is an edge.
Since edges are nondegenerate, the parts are automatically pairwise disjoint.
Multihoms ordered by componentwise inclusion form the face poset of the
polytopal Hom complex, whose cell for f is the product of simplices on the
parts of f; dim f = sum(|f(j)| - 1).

A multihom payload is a tuple of r frozensets.  The right S_r-action is
(f sigma)(j) = f(sigma(j)).
"""

from collections import namedtuple
from itertools import permutations

from .cellcx import (CellComplex, GroupAction, _canon_join, canon_bytes,
                     canon_key)
from .errors import InvalidParams, SizeGuard

HomComplex = namedtuple("HomComplex", "cx action graph")


def _boxes(tuples, depth, r):
    """All (S_0,...,S_{r-1-depth}) with S_0 x ... x S_{r-1-depth} contained in
    tuples, via DFS over the first coordinate with link-intersection pruning."""
    if depth == r:
        yield ()
        return
    cands = sorted({t[0] for t in tuples}, key=canon_key)
    links = {v: frozenset(t[1:] for t in tuples if t[0] == v) for v in cands}

    def extend(start, chosen, inter):
        for k in range(start, len(cands)):
            v = cands[k]
            inter2 = (inter & links[v]) if chosen else links[v]
            if not inter2:
                continue
            chosen2 = chosen + [v]
            for rest in _boxes(inter2, depth + 1, r):
                yield (frozenset(chosen2),) + rest
            yield from extend(k + 1, chosen2, inter2)

    yield from extend(0, [], None)


def enumerate_multihoms(H, max_cells=None):
    """All multihomomorphisms of H, sorted by (dim, canonical parts).

    The poset order is componentwise inclusion (see hom_leq); the list is the
    element set of the multihom poset.
    """
    out = []
    for f in _boxes(frozenset(H.ordered_edges()), 0, H.r):
        out.append(f)
        if max_cells is not None and len(out) > max_cells:
            raise SizeGuard("more than %d multihomomorphisms" % max_cells,
                            limit=max_cells)
    enc = _multihom_encoder(H)
    out.sort(key=lambda f: (hom_dim(f), enc(f)))
    return out


def _multihom_encoder(H):
    """canon_bytes on the multihoms of H, joined from the encodings of its
    vertices."""
    venc = {v: canon_bytes(v) for v in H.vertices}.__getitem__
    return lambda f: _canon_join(
        b"T", [_canon_join(b"F", sorted(map(venc, p))) for p in f])


def hom_dim(f):
    return sum(len(p) - 1 for p in f)


def hom_leq(f, g):
    """Componentwise inclusion: f <= g in the multihom poset."""
    return all(a <= b for a, b in zip(f, g))


def s_r_labels(r):
    """The elements of S_r as image tuples, identity first (lex order)."""
    return [tuple(p) for p in permutations(range(r))]


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


def action_on_multihoms(f, sigma):
    """The right action (f sigma)(j) = f(sigma(j))."""
    return coordinate_map(sigma, len(f))(f)


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
    """The complex of hom_complex(H, max_cells), without its action."""
    homs = enumerate_multihoms(H, max_cells=max_cells)
    cells = []
    for f in homs:
        faces = []
        for j, part in enumerate(f):
            if len(part) >= 2:
                for v in part:
                    faces.append(f[:j] + (part - {v},) + f[j + 1:])
        cells.append((f, hom_dim(f), faces))
    return CellComplex.from_graded_cells(cells, encode=_multihom_encoder(H))
