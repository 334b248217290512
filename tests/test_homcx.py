"""Multihomomorphisms and the Hom complex, checked against brute force;
and the Hom and box complexes, built on integer ids, checked against their
definitions."""

import tracemalloc
from itertools import chain, combinations, product

import pytest
from hypothesis import given, settings

import hombox as hb
from hombox import InvalidParams, SizeGuard
from hombox.boxcx import _box_cx
from hombox.homcx import _hom_cx, _multihom_masks, coordinate_map

from conftest import (CORPUS_NAMES, elements, itemwise_action, s_r_labels,
                      small_rgraphs)


def _nonempty_subsets(verts):
    return [frozenset(c) for k in range(1, len(verts) + 1)
            for c in combinations(verts, k)]


def oracle_multihoms(H):
    """All r-tuples of pairwise-disjoint nonempty vertex sets whose
    transversals are all edges, by unpruned enumeration."""
    subs = _nonempty_subsets(H.vertices)
    out = []

    def rec(parts):
        if len(parts) == H.r:
            if all(H.is_edge(sel) for sel in product(*parts)):
                out.append(tuple(parts))
            return
        used = set(chain.from_iterable(parts))
        for s in subs:
            if not (s & used):
                rec(parts + [s])

    rec([])
    return out


def hom_dim(f):
    """The dimension of the Hom cell f, a product of simplices."""
    return sum(len(p) - 1 for p in f)


def action_on_multihoms(f, sigma):
    """The right action (f sigma)(j) = f(sigma(j)), by the library's map."""
    return coordinate_map(sigma, len(f))(f)


@pytest.mark.parametrize("name, count", [
    ("K3_122", 54), ("K_3^3", 6), ("K_4^2", 50), ("K_5^3", 390),
    ("K_3^2", 12), ("K_4^3", 60), ("K3_112", 18), ("K_2^2", 2),
])
def test_multihom_counts(corpus, name, count):
    assert len(hb.hom_complex(corpus[name]).cx) == count


@pytest.mark.parametrize("name", ["K_2^2", "K_3^2", "K_3^3", "K3_112"])
def test_multihoms_match_oracle(corpus, name):
    H = corpus[name]
    got = set(hb.hom_complex(H).cx.payloads)
    want = set(oracle_multihoms(H))
    assert got == want


def test_multihom_validity(corpus):
    H = corpus["K3_122"]
    for f in hb.hom_complex(H).cx.payloads:
        assert len(f) == 3
        assert all(part for part in f)
        for a, b in combinations(range(3), 2):
            assert not f[a] & f[b]
        assert all(H.is_edge(sel) for sel in product(*f))


def test_hom_dim_and_leq():
    f = (frozenset(["a0"]), frozenset(["b0", "b1"]), frozenset(["c0"]))
    g = (frozenset(["a0"]), frozenset(["b0"]), frozenset(["c0"]))
    # g <= f componentwise, so g is a face of f in the Hom complex
    cx = hb.hom_complex(hb.complete_multipartite([1, 2, 1])).cx
    assert cx.dims[cx.index[f]] == hom_dim(f) == 1
    assert cx.dims[cx.index[g]] == hom_dim(g) == 0
    assert cx.index[g] in cx.faces(cx.index[f])
    assert cx.index[f] not in cx.faces(cx.index[g])


def test_enumerate_guard(corpus):
    with pytest.raises(SizeGuard):
        hb.hom_complex(corpus["K_5^3"], max_cells=100)


def test_hom_complex_structure(corpus):
    hom = hb.hom_complex(corpus["K3_122"])
    cx = hom.cx
    assert len(cx) == 54
    assert cx.dim_counts() == [24, 24, 6]
    cx.verify()
    # covers remove one vertex from one part of size >= 2
    for i, f in enumerate(cx.payloads):
        want = set()
        for j, part in enumerate(f):
            if len(part) >= 2:
                for v in part:
                    want.add(f[:j] + (part - {v},) + f[j + 1:])
        assert {cx.payloads[j] for j in cx.down[i]} == want
    # six maximal cells, all of dimension 2
    tops = [i for i, d in enumerate(cx.up_degrees()) if not d]
    assert len(tops) == 6 and all(cx.dims[t] == 2 for t in tops)


def test_action_on_multihoms():
    f = (frozenset(["x"]), frozenset(["y"]), frozenset(["z", "w"]))
    g = action_on_multihoms(f, (1, 2, 0))
    assert g == (f[1], f[2], f[0])
    with pytest.raises(InvalidParams):
        action_on_multihoms(f, (0, 0, 1))
    with pytest.raises(InvalidParams):
        action_on_multihoms(f, (0, 1))


def test_hom_action_is_right_action_and_free(corpus):
    hom = hb.hom_complex(corpus["K3_122"])
    A = hom.action
    assert A.order == 6 and len(elements(A)) == 6
    A.verify()
    assert A.is_free()
    perm = {s: [hom.cx.index[action_on_multihoms(f, s)]
                for f in hom.cx.payloads] for s in s_r_labels(3)}
    # right-action law: sigma then tau acts as sigma tau, j -> sigma(tau(j))
    for g in perm:
        for h in perm:
            gh = tuple(g[h[j]] for j in range(3))
            for x in range(len(hom.cx)):
                assert perm[gh][x] == perm[h][perm[g][x]]


def test_hom_action_matches_payload_level(corpus):
    hom = hb.hom_complex(corpus["K_4^3"])
    A = hom.action
    for p, lab in zip(A.perms, A.labels):
        for i, f in enumerate(hom.cx.payloads):
            assert hom.cx.payloads[p[i]] == action_on_multihoms(f, lab)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_hom_action_equals_per_cell_definition(name, corpus):
    # the definition: (f sigma)(j) = f(sigma(j)), applied cell by cell, for
    # every element; the generators generate exactly these permutations
    hom = hb.hom_complex(corpus[name])
    maps = [lambda f, s=s: tuple(f[s[j]] for j in range(len(f)))
            for s in s_r_labels(corpus[name].r)]
    assert elements(hom.action) == itemwise_action(hom.cx, maps)
    assert hom.action.labels == hb.s_r_generators(corpus[name].r)


def test_hom_complex_of_complete_graph_r2(corpus):
    # Hom(K_2, K_3) is the hexagon
    hom = hb.hom_complex(corpus["K_3^2"])
    assert hom.cx.dim_counts() == [6, 6]
    assert all(len(hom.cx.down[i]) == 2
               for i in hom.cx.cells_of_dim(1))


# -- the Hom and box complexes against their definitions -------------------


def grown_multihoms(H):
    """Every multihom of H, grown from the ordered edges by adding one vertex
    to one part while every transversal stays an edge.  Taking a vertex out
    of a part of two or more leaves a multihom, so every multihom is reached
    this way; unlike oracle_multihoms, this takes no vertex subset that is
    not a part."""
    found = {tuple(frozenset([v]) for v in t) for t in H.ordered_edges()}
    stack = list(found)
    while stack:
        f = stack.pop()
        used = frozenset().union(*f)
        for j, part in enumerate(f):
            for w in H.vertices:
                g = f[:j] + (part | {w},) + f[j + 1:]
                if (w not in used and g not in found
                        and all(H.is_edge(sel) for sel in product(*g))):
                    found.add(g)
                    stack.append(g)
    return found


def definition_complexes(homs):
    """(Hom, box) built from the multihoms homs by from_graded_cells with
    the default canon_bytes: a Hom cell f covers f with one vertex taken out
    of one part, and the box simplices over f are the subsets S of i(f)
    with p(S) = f, found by itertools."""
    hom, box = [], []
    for f in homs:
        hom.append((f, hom_dim(f),
                    [f[:j] + (part - {v},) + f[j + 1:]
                     for j, part in enumerate(f) if len(part) >= 2
                     for v in part]))
        cube = list(product(*f))
        for k in range(1, len(cube) + 1):
            for S in map(frozenset, combinations(cube, k)):
                if hb.map_p(S) == f:
                    box.append((S, k - 1, [S - {t} for t in S] if k >= 2
                                else []))
    return (hb.CellComplex.from_graded_cells(hom),
            hb.CellComplex.from_graded_cells(box))


def assert_same_cells(got, want):
    assert got.payloads == want.payloads
    assert got.dims == want.dims
    assert got.down == want.down
    assert got.digests == want.digests
    assert got.fingerprint == want.fingerprint
    assert got.index == want.index


def assert_kernel_matches_definition(H, homs):
    hom, box = definition_complexes(homs)
    assert_same_cells(_hom_cx(H, None), hom)
    assert_same_cells(_box_cx(H, None), box)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_kernel_matches_definition_on_corpus(corpus, name):
    H = corpus[name]
    homs = oracle_multihoms(H)
    assert grown_multihoms(H) == set(homs)
    assert_kernel_matches_definition(H, homs)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(small_rgraphs())
def test_kernel_matches_definition_on_random_rgraphs(H):
    homs = oracle_multihoms(H)
    assert grown_multihoms(H) == set(homs)
    assert_kernel_matches_definition(H, homs)


@pytest.mark.parametrize("n, k, r", [(5, 2, 2), (7, 2, 3)])
def test_kernel_matches_definition_on_kneser(n, k, r):
    # KG^3(7, 2) has 21 vertices, too many for oracle_multihoms
    H = hb.kneser_rgraph(n, k, r)
    assert_kernel_matches_definition(H, grown_multihoms(H))


SPARSE = {
    "two 4-edges": (4, "abcdefgh", ["abcd", "efgh"]),
    "loose 3-cycle and 4 lone vertices": (3, "abcdefghijkl",
                                          ["abc", "cde", "efg", "gha"]),
    "5-sunflower": (5, "abcdefghijklm", ["abcde", "afghi", "ajklm",
                                         "bfjcd"]),
}


@pytest.mark.parametrize("name", SPARSE)
def test_kernel_matches_definition_on_sparse_rgraphs(name):
    r, verts, edges = SPARSE[name]
    H = hb.new_rgraph(r, list(verts), [list(e) for e in edges])
    # one tail mask would take more than 64 bits per ordered edge, so the
    # search keys the tails by their first coordinates
    assert len(H.vertices) ** r > 64 * len(H.ordered_edges())
    assert_kernel_matches_definition(H, grown_multihoms(H))


def test_multihom_search_memory_on_a_sparse_rgraph():
    # six disjoint 6-edges: one mask of all ordered edges would have 36^6
    # bits, 272 MB
    verts = ["v%02d" % i for i in range(36)]
    H = hb.new_rgraph(6, verts, [verts[i:i + 6] for i in range(0, 36, 6)])
    tracemalloc.start()
    try:
        homs = _multihom_masks(H, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(homs) == 6 * 720
    assert peak < 2 * 10 ** 7


def test_kernel_fingerprints_of_k64():
    H = hb.complete_rgraph(6, 4)
    hom, box = _hom_cx(H, None), _box_cx(H, None)
    assert (len(hom), len(box)) == (3360, 9840)
    assert "%032x" % hom.fingerprint == "a6947fd822594a23b23c8e070849d75b"
    assert "%032x" % box.fingerprint == "68f0ae11c5a6b23427519f29b48193f9"


@pytest.mark.parametrize("build", [_hom_cx, _box_cx], ids=["hom", "box"])
def test_multihom_guard_raises_before_listing(build):
    # K_14^2 has about 4.8M multihoms; listing them would take about a GB
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuard, match="^more than 1000 "
                           "multihomomorphisms$"):
            build(hb.complete_rgraph(14, 2), 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 7
