"""Multihomomorphisms and the Hom complex, checked against brute force."""

from itertools import chain, combinations, permutations, product

import pytest

import hombox as hb
from hombox import InvalidParams, SizeGuard

from conftest import CORPUS_NAMES, elements, itemwise_action


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


@pytest.mark.parametrize("name, count", [
    ("K3_122", 54), ("K_3^3", 6), ("K_4^2", 50), ("K_5^3", 390),
    ("K_3^2", 12), ("K_4^3", 60), ("K3_112", 18), ("K_2^2", 2),
])
def test_multihom_counts(corpus, name, count):
    assert len(hb.enumerate_multihoms(corpus[name])) == count


@pytest.mark.parametrize("name", ["K_2^2", "K_3^2", "K_3^3", "K3_112"])
def test_multihoms_match_oracle(corpus, name):
    H = corpus[name]
    got = set(hb.enumerate_multihoms(H))
    want = set(oracle_multihoms(H))
    assert got == want


def test_multihom_validity(corpus):
    H = corpus["K3_122"]
    for f in hb.enumerate_multihoms(H):
        assert len(f) == 3
        assert all(part for part in f)
        for a, b in combinations(range(3), 2):
            assert not f[a] & f[b]
        assert all(H.is_edge(sel) for sel in product(*f))


def test_hom_dim_and_leq():
    f = (frozenset(["a0"]), frozenset(["b0", "b1"]), frozenset(["c0"]))
    g = (frozenset(["a0"]), frozenset(["b0"]), frozenset(["c0"]))
    assert hb.hom_dim(f) == 1 and hb.hom_dim(g) == 0
    assert hb.hom_leq(g, f) and not hb.hom_leq(f, g)
    assert hb.hom_leq(f, f)


def test_enumerate_guard(corpus):
    with pytest.raises(SizeGuard):
        hb.enumerate_multihoms(corpus["K_5^3"], max_cells=100)


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
    tops = cx.maximal_ids()
    assert len(tops) == 6 and all(cx.dims[t] == 2 for t in tops)


def test_s_r_labels():
    labs = hb.s_r_labels(3)
    assert labs[0] == (0, 1, 2)
    assert len(labs) == 6 and len(set(labs)) == 6
    assert set(labs) == set(permutations(range(3)))


def test_action_on_multihoms():
    f = (frozenset(["x"]), frozenset(["y"]), frozenset(["z", "w"]))
    g = hb.action_on_multihoms(f, (1, 2, 0))
    assert hb.hom_dim(g) == hb.hom_dim(f)
    assert set(g) == set(f)
    with pytest.raises(InvalidParams):
        hb.action_on_multihoms(f, (0, 0, 1))
    with pytest.raises(InvalidParams):
        hb.action_on_multihoms(f, (0, 1))


def test_hom_action_is_right_action_and_free(corpus):
    hom = hb.hom_complex(corpus["K3_122"])
    A = hom.action
    assert A.order == 6 and len(elements(A)) == 6
    A.verify()
    assert A.is_free()
    perm = {s: [hom.cx.index[hb.action_on_multihoms(f, s)]
                for f in hom.cx.payloads] for s in hb.s_r_labels(3)}
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
            assert hom.cx.payloads[p[i]] == hb.action_on_multihoms(f, lab)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_hom_action_equals_per_cell_definition(name, corpus):
    # the definition: (f sigma)(j) = f(sigma(j)), applied cell by cell, for
    # every element; the generators generate exactly these permutations
    hom = hb.hom_complex(corpus[name])
    maps = [lambda f, s=s: tuple(f[s[j]] for j in range(len(f)))
            for s in hb.s_r_labels(corpus[name].r)]
    assert elements(hom.action) == itemwise_action(hom.cx, maps)
    assert hom.action.labels == hb.s_r_generators(corpus[name].r)


def test_hom_complex_of_complete_graph_r2(corpus):
    # Hom(K_2, K_3) is the hexagon
    hom = hb.hom_complex(corpus["K_3^2"])
    assert hom.cx.dim_counts() == [6, 6]
    assert all(len(hom.cx.down[i]) == 2
               for i in hom.cx.cells_of_dim(1))
