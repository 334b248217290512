"""Box complex: spanning-subset enumeration, the projection/product maps,
and the isomorphism criterion."""

from itertools import combinations, product

import pytest

import hombox as hb
from hombox import SizeGuard

from conftest import CORPUS_NAMES, elements, itemwise_action, s_r_labels


def oracle_count_spanning(sizes):
    """Brute force: subsets of the product spanning every coordinate value."""
    ranges = [range(s) for s in sizes]
    tuples = list(product(*ranges))
    n = 0
    for k in range(1, len(tuples) + 1):
        for sub in combinations(tuples, k):
            cols = [set(t[j] for t in sub) for j in range(len(sizes))]
            if all(len(cols[j]) == sizes[j] for j in range(len(sizes))):
                n += 1
    return n


@pytest.mark.parametrize("sizes, want", [
    ([1], 1), ([2], 1), ([1, 1], 1), ([2, 2], 7), ([1, 2, 3], 25),
    ([2, 2, 2], 193), ([1, 1, 1, 1], 1), ([3, 2], 25),
])
def test_count_spanning_small(sizes, want):
    assert hb.count_spanning(sizes) == want
    assert oracle_count_spanning(sizes) == want


def test_count_spanning_cap():
    # the cap shortcut returns cap+1 for astronomically many subsets
    got = hb.count_spanning([4, 4, 4], cap=1000)
    assert got == 1001
    assert hb.count_spanning([2, 2], cap=6) == 7   # exact when close


def test_map_p_and_i():
    f = (frozenset(["a"]), frozenset(["b", "c"]))
    F = hb.map_i(f)
    assert F == frozenset([("a", "b"), ("a", "c")])
    assert hb.map_p(F) == f
    assert hb.ip_fixed(F)
    # p of a sub-box forgets which transversals are present
    G = frozenset([("a", "b")])
    assert hb.map_p(G) == (frozenset(["a"]), frozenset(["b"]))
    broken = frozenset([("a", "b"), ("d", "c")])
    assert hb.map_p(broken) == (frozenset(["a", "d"]), frozenset(["b", "c"]))
    assert not hb.ip_fixed(broken)
    assert broken < hb.map_i(hb.map_p(broken))


@pytest.mark.parametrize("name, total, counts", [
    ("K3_122", 90, [24, 36, 24, 6]),
    ("K_4^3", 60, [24, 36]),
    ("K_5^3", 930, [60, 360, 420, 90]),
    ("K_3^2", 12, [6, 6]),
    ("K3_112", 18, [12, 6]),
])
def test_box_cell_counts(corpus, name, total, counts):
    cx = hb.box_edge(corpus[name]).cx
    assert len(cx) == total
    assert cx.dim_counts() == counts
    cx.verify()


def test_box_cells_are_spanning_subsets(corpus):
    H = corpus["K3_122"]
    box = hb.box_edge(H)
    homs = set(hb.hom_complex(H).cx.payloads)
    for S in box.cx.payloads:
        f = hb.map_p(S)
        assert f in homs, "p(S) must be a multihom"
        assert S <= hb.map_i(f)
    # simplices are closed downward within each product: every nonempty
    # subset of a cell is a cell
    tops = [box.cx.payloads[i]
            for i, d in enumerate(box.cx.up_degrees()) if not d]
    for S in tops:
        items = sorted(S)
        for k in range(1, len(items) + 1):
            for sub in combinations(items, k):
                assert frozenset(sub) in box.cx.index
    # and counts agree with count_spanning per multihom
    total = sum(hb.count_spanning([len(p) for p in f]) for f in homs)
    assert total == len(box.cx)


def _coordinate_maps(box):
    """Per element sigma of S_r, its payload map on box simplices."""
    return {s: lambda F, s=s: frozenset(tuple(t[j] for j in s) for t in F)
            for s in s_r_labels(box.graph.r)}


def test_box_action_free_and_right(corpus):
    box = hb.box_edge(corpus["K3_122"])
    A = box.action
    assert A.order == 6 and len(elements(A)) == 6
    A.verify()
    assert A.is_free()
    n = len(box.cx)
    perm = {s: [box.cx.index[m(F)] for F in box.cx.payloads]
            for s, m in _coordinate_maps(box).items()}
    # right-action law: sigma then tau acts as sigma tau, j -> sigma(tau(j))
    for g in perm:
        for h in perm:
            gh = tuple(g[h[j]] for j in range(3))
            for x in range(0, n, 7):
                assert perm[gh][x] == perm[h][perm[g][x]]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_box_action_equals_per_cell_definition(name, corpus):
    # the definition: sigma permutes the coordinates of every ordered edge
    # of every element; the generators generate exactly these permutations
    box = hb.box_edge(corpus[name])
    maps = _coordinate_maps(box)
    assert elements(box.action) == itemwise_action(box.cx, maps.values())
    # generator k is the coordinate map of its own label
    assert box.action.labels == hb.s_r_generators(corpus[name].r)
    assert box.action.perms == [[box.cx.index[maps[s](F)]
                                 for F in box.cx.payloads]
                                for s in box.action.labels]


def test_box_guard(corpus):
    with pytest.raises(SizeGuard):
        hb.box_edge(corpus["K_5^3"], max_cells=929)
    assert len(hb.box_edge(corpus["K_5^3"], max_cells=930).cx) == 930


def test_ip_tables_and_image(corpus):
    H = corpus["K3_122"]
    box = hb.box_edge(H)
    hom = hb.hom_complex(H)
    fixed, ipim = hb.ip_tables(box)
    for i, S in enumerate(box.cx.payloads):
        assert fixed[i] == (S == hb.map_i(hb.map_p(S)))
        assert box.cx.payloads[ipim[i]] == hb.map_i(hb.map_p(S))
    iids = hb.i_image_ids(hom, box)
    assert len(iids) == len(hom.cx)
    for h, b in enumerate(iids):
        assert box.cx.payloads[b] == hb.map_i(hom.cx.payloads[h])


@pytest.mark.parametrize("name", CORPUS_NAMES + ["KG^2(5,2)", "KG^3(7,2)"])
def test_ip_tables_equal_the_payload_definition(corpus, name):
    # the closure ids _box_cx records while listing are i(p(F)), looked up
    # by payload, and the products are the cells they fix
    H = (corpus[name] if name in corpus
         else hb.kneser_rgraph(int(name[5]), int(name[7]), int(name[3])))
    box = hb.box_edge(H)
    cx = box.cx
    fixed, ipim = hb.ip_tables(box)
    assert ipim == [cx.index[hb.map_i(hb.map_p(F))] for F in cx.payloads]
    assert fixed == list(map(hb.ip_fixed, cx.payloads))


def test_iso_criterion_agreement_on_corpus(corpus):
    for name, H in corpus.items():
        a, b = hb.iso_criterion(H)
        assert a == b, name


@pytest.mark.parametrize("n, r", [(2, 2), (3, 2), (4, 2), (3, 3), (4, 3),
                                  (5, 3), (4, 4), (5, 4), (6, 4)])
def test_iso_criterion_complete_graphs(n, r):
    a, b = hb.iso_criterion(hb.complete_rgraph(n, r))
    assert a == b == (n <= r + 1)


def test_iso_criterion_r1():
    H = hb.new_rgraph(1, ["a", "b"], [["a"], ["b"]])
    a, b = hb.iso_criterion(H)
    assert a == b == True  # noqa: E712  (the pair is the deliverable)
