"""r-graphs: simple nondegenerate r-uniform hypergraphs.

Every edge is a set of exactly r distinct vertices; no vertex or edge twice.
Vertices are opaque tokens (strings or ints; strings must not start with
"*", which is reserved for synthetic payloads downstream).  All constructors
canonicalize: vertices and edges are stored sorted, so iteration order -- and
therefore every cell id assigned downstream -- is reproducible.

JSON form (bit-exact): {"r": r, "vertices": [...], "edges": [[... x r] ...]}.
"""

import json
from itertools import combinations, permutations, product

from .errors import (
    DegenerateEdge,
    DuplicateEdge,
    EdgeWrongArity,
    InputError,
    InvalidParams,
    SizeGuard,
    UnknownVertex,
)
from .cellcx import canon_bytes


def _check_vertex_token(v):
    if isinstance(v, bool) or not isinstance(v, (str, int)):
        raise InputError("vertex tokens must be strings or ints, got %r" % (v,))
    if isinstance(v, str) and v.startswith("*"):
        raise InputError("vertex names starting with '*' are reserved: %r" % v)


def _collection(x, what):
    """x as a list; InputError unless it is a list, tuple or set."""
    if not isinstance(x, (list, tuple, set, frozenset)):
        raise InputError("%s must be a list, got %r" % (what, x))
    return list(x)


class RGraph:
    """Immutable r-uniform hypergraph in canonical form."""

    def __init__(self, r, vertices, edges):
        if type(r) is not int or r < 1:
            raise InvalidParams("r must be a positive integer, got %r" % (r,))
        self.r = r
        vertices = _collection(vertices, "vertices")
        for v in vertices:
            _check_vertex_token(v)
        self.vertices = tuple(sorted(set(vertices), key=canon_bytes))
        if len(self.vertices) != len(vertices):
            v = next(v for k, v in enumerate(vertices) if v in vertices[:k])
            raise InputError("vertex %r appears twice" % (v,))
        vset = set(self.vertices)
        canon = []
        seen = set()
        for e in _collection(edges, "edges"):
            e = _collection(e, "an edge")
            for v in e:
                _check_vertex_token(v)
            if len(e) != r:
                raise EdgeWrongArity("edge %r has %d vertices, expected %d"
                                     % (e, len(e), r))
            fe = frozenset(e)
            if len(fe) != r:
                raise DegenerateEdge("edge %r repeats a vertex" % (e,))
            for v in fe:
                if v not in vset:
                    raise UnknownVertex("edge %r uses unknown vertex %r" % (e, v))
            if fe in seen:
                raise DuplicateEdge("edge %r appears twice" % (e,))
            seen.add(fe)
            canon.append(fe)
        canon.sort(key=lambda fe: canon_bytes(
            tuple(sorted(fe, key=canon_bytes))))
        self.edges = tuple(canon)
        self._eset = seen

    def is_edge(self, vs):
        return frozenset(vs) in self._eset

    def ordered_edges(self):
        """All r-tuples whose underlying set is an edge, in deterministic order."""
        out = []
        for e in self.edges:
            base = tuple(sorted(e, key=canon_bytes))
            out.extend(permutations(base))
        return out

    def to_json_obj(self):
        return {
            "r": self.r,
            "vertices": list(self.vertices),
            "edges": [sorted(e, key=canon_bytes) for e in self.edges],
        }

    def to_json_str(self):
        return json.dumps(self.to_json_obj(), sort_keys=True,
                          separators=(",", ":")) + "\n"

    def __repr__(self):
        return "<RGraph r=%d, %d vertices, %d edges>" % (
            self.r, len(self.vertices), len(self.edges))


def new_rgraph(r, vertices, edges):
    """Validated r-graph in canonical form."""
    return RGraph(r, vertices, edges)


def load_rgraph(obj):
    """Parse the JSON input format (a dict, a JSON string, or a file path).
    A file that cannot be read, or text that is not JSON (nested too deeply
    for the parser included), is an InputError."""
    if isinstance(obj, str):
        try:
            if obj.lstrip()[:1] in ("{", "["):
                obj = json.loads(obj)
            else:
                with open(obj, encoding="utf-8") as fh:
                    obj = json.load(fh)
        except (OSError, ValueError, RecursionError) as e:
            raise InputError("cannot read r-graph JSON: %s" % (e,)) from None
    if not isinstance(obj, dict):
        raise InputError("r-graph JSON must be an object")
    missing = {"r", "vertices", "edges"} - set(obj)
    if missing:
        raise InputError("r-graph JSON lacks keys: %s" % sorted(missing))
    return RGraph(obj["r"], obj["vertices"], obj["edges"])


def complete_rgraph(m, r):
    """K_m^r: all r-subsets of an m-element vertex set (vertices v0..v{m-1})."""
    if type(m) is not int or type(r) is not int or r < 1 or m < r:
        raise InvalidParams("complete_rgraph needs m >= r >= 1, got m=%r r=%r"
                            % (m, r))
    verts = ["v%d" % i for i in range(m)]
    return RGraph(r, verts, [list(c) for c in combinations(verts, r)])


def complete_multipartite(part_sizes):
    """K^r_{m_0,...,m_{r-1}}: edges are all transversals of disjoint parts.

    Part i gets vertices like "a0", "b0", "b1", ... (one letter per part).
    """
    sizes = list(part_sizes)
    r = len(sizes)
    if r < 1:
        raise InvalidParams("need at least one part")
    if r > 26:
        raise InvalidParams("at most 26 parts supported")
    if any(type(s) is not int or s < 1 for s in sizes):
        raise InvalidParams("part sizes must be positive integers: %r" % (sizes,))
    parts = [["%c%d" % (97 + i, k) for k in range(s)] for i, s in enumerate(sizes)]
    verts = [v for p in parts for v in p]
    edges = [list(t) for t in product(*parts)]
    return RGraph(r, verts, edges)


def kneser_rgraph(n, k, r):
    """KG^r(n, k): the vertices are the k-subsets of {0, ..., n-1}, and the
    edges are the sets of r pairwise disjoint ones.

    The subset {a_1 < ... < a_k} is named by its members in ascending
    order, each zero-padded to the number of digits of n - 1, with nothing
    between them: "03" for {0, 3} when n <= 10, "0003" when n <= 100.  Needs
    k >= 1, r >= 1 and n >= r k, so that there is an edge.
    """
    if (any(type(x) is not int for x in (n, k, r)) or k < 1 or r < 1
            or n < r * k):
        raise InvalidParams("kneser_rgraph needs k >= 1, r >= 1 and n >= r k,"
                            " got n=%r k=%r r=%r" % (n, k, r))
    subsets = list(combinations(range(n), k))
    width = len(str(n - 1))
    name = {s: "".join("%0*d" % (width, a) for a in s) for s in subsets}
    edges = [[name[s] for s in e] for e in combinations(subsets, r)
             if len(set().union(*e)) == r * k]
    return RGraph(r, list(name.values()), edges)


def contains_complete_sub(H, sizes, cap=10 ** 6):
    """True iff H contains pairwise-disjoint vertex sets of the given sizes
    all of whose transversals are edges (a complete r-partite sub-r-graph).

    Backtracking assigns the largest part first; more than `cap` candidate
    part assignments raise SizeGuard.
    """
    sizes = list(sizes)
    if any(type(s) is not int or s < 1 for s in sizes):
        raise InvalidParams("part sizes must be positive integers: %r" % (sizes,))
    if len(sizes) != H.r:
        return False
    if sum(sizes) > len(H.vertices):
        return False
    sizes_desc = sorted(sizes, reverse=True)
    verts = list(H.vertices)
    budget = [cap]
    # every sub-selection of a valid transversal sits inside an edge, so the
    # set of all edge subsets supports exact pruning at every level (at the
    # last level a subset of size r inside an edge *is* that edge).
    edge_subsets = set()
    for e in H.edges:
        es = sorted(e, key=canon_bytes)
        for k in range(len(es) + 1):
            edge_subsets.update(frozenset(c) for c in combinations(es, k))

    def feasible(chosen):
        return all(frozenset(sel) in edge_subsets for sel in product(*chosen))

    def extend(chosen, used):
        budget[0] -= 1
        if budget[0] < 0:
            raise SizeGuard("contains_complete_sub exceeded %d candidate "
                            "assignments" % cap, limit=cap)
        if len(chosen) == len(sizes):
            return True
        size = sizes_desc[len(chosen)]
        free = [v for v in verts if v not in used]
        for combo in combinations(free, size):
            nxt = chosen + [combo]
            if feasible(nxt):
                if extend(nxt, used | set(combo)):
                    return True
        return False

    return extend([], set())
