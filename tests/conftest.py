"""Shared fixtures: the standard graph corpus, session-cached matchings,
and a hypothesis strategy for small random r-graphs."""

from itertools import combinations

import pytest
from hypothesis import strategies as st

import hombox as hb

CORPUS_NAMES = [
    "K_2^2", "K_3^2", "K_4^2", "K_3^3", "K_4^3", "K_5^3",
    "K3_112", "K3_122",
]


def make_graph(name):
    if name.startswith("K3_"):
        sizes = [int(c) for c in name.split("_")[1]]
        return hb.complete_multipartite(sizes)
    body = name[2:]
    n, r = body.split("^")
    return hb.complete_rgraph(int(n), int(r))


@pytest.fixture(scope="session")
def corpus():
    return {name: make_graph(name) for name in CORPUS_NAMES}


@pytest.fixture(scope="session")
def matchings(corpus):
    """Verified matchings for every corpus graph, built once per session."""
    return {name: hb.build_matching(H) for name, H in corpus.items()}


@pytest.fixture(scope="session")
def solid_triangle():
    return hb.CellComplex.from_simplices([frozenset("abc")])


@pytest.fixture(scope="session")
def hollow_triangle():
    return hb.CellComplex.from_simplices(
        [frozenset("ab"), frozenset("bc"), frozenset("ca")])


def elements(A):
    """Every element of A's group as a permutation of the cells (a tuple),
    generated from A's generators by a breadth-first search."""
    found = [tuple(range(len(A.cx.payloads)))]
    seen = set(found)
    for q in found:
        for p in A.perms:
            qp = tuple(map(p.__getitem__, q))
            if qp not in seen:
                seen.add(qp)
                found.append(qp)
    return seen


def itemwise_action(cx, maps):
    """The permutations of cx's cell ids by the payload maps, one by one."""
    return {tuple(cx.index[m(x)] for x in cx.payloads) for m in maps}


def z3_action(hollow):
    rot = {"a": "b", "b": "c", "c": "a"}
    rot2 = {v: rot[rot[v]] for v in rot}
    return hb.GroupAction.from_payload_maps(
        hollow,
        [lambda p: p,
         lambda p: frozenset(rot[v] for v in p),
         lambda p: frozenset(rot2[v] for v in p)],
        ["e", "r", "rr"])


@st.composite
def small_rgraphs(draw):
    """r-graphs with r in {2, 3} on at most 5 vertices, with some edges."""
    r = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(r, 5))
    verts = ["v%d" % i for i in range(n)]
    possible = list(combinations(verts, r))
    keep = draw(st.lists(st.booleans(), min_size=len(possible),
                         max_size=len(possible)).filter(any))
    return hb.new_rgraph(r, verts,
                         [list(e) for e, k in zip(possible, keep) if k])
