"""r-graph constructors, canonical form, JSON round trips, and the two
complete-subgraph searches (checked against brute-force oracles)."""

import json
from itertools import combinations, product

import pytest

import hombox as hb
from hombox import (DegenerateEdge, DuplicateEdge, EdgeWrongArity,
                    InputError, InvalidParams, SizeGuard, UnknownVertex)


def test_canonical_form():
    # a vertex listed twice is refused (test_constructor_rejects), so the
    # input lists each vertex once, out of order
    H = hb.new_rgraph(2, ["b", "a", "c"], [["c", "b"], ["a", "b"]])
    assert H.vertices == ("a", "b", "c")
    assert [sorted(e) for e in H.edges] == [["a", "b"], ["b", "c"]]
    # identical content in another input order gives identical objects
    H2 = hb.new_rgraph(2, ["c", "b", "a"], [["b", "a"], ["b", "c"]])
    assert H2.vertices == H.vertices and H2.edges == H.edges


def test_int_and_str_tokens_mix():
    H = hb.new_rgraph(2, [2, 1, "x"], [[1, "x"], [1, 2]])
    assert H.vertices == (1, 2, "x")   # ints sort before strings
    assert H.is_edge({"x", 1}) and H.is_edge({1, 2})
    assert not H.is_edge({2, "x"})


@pytest.mark.parametrize("bad, err", [
    (dict(r=2, vertices=["a"], edges=[["a"]]), EdgeWrongArity),
    (dict(r=2, vertices=["a", "b"], edges=[["a", "a"]]), DegenerateEdge),
    (dict(r=2, vertices=["a", "b"], edges=[["a", "z"]]), UnknownVertex),
    (dict(r=2, vertices=["a", "b"], edges=[["a", "b"], ["b", "a"]]),
     DuplicateEdge),
    (dict(r=0, vertices=[], edges=[]), InvalidParams),
    (dict(r=-1, vertices=[], edges=[]), InvalidParams),
    (dict(r=2, vertices=["*a", "b"], edges=[]), InputError),
    (dict(r=2, vertices=[True, "b"], edges=[]), InputError),
    (dict(r=2, vertices=[1.5, "b"], edges=[]), InputError),
    (dict(r=True, vertices=["a"], edges=[["a"]]), InvalidParams),
    (dict(r=2, vertices=5, edges=[]), InputError),
    (dict(r=2, vertices="ab", edges=[]), InputError),
    (dict(r=2, vertices=["a", "b"], edges=7), InputError),
    (dict(r=2, vertices=["a", "b"], edges=[5]), InputError),
    (dict(r=2, vertices=["a", "b"], edges=[[["a"], "b"]]), InputError),
    (dict(r=2, vertices=["a", "a", "b"], edges=[["a", "b"]]), InputError),
])
def test_constructor_rejects(bad, err):
    with pytest.raises(err):
        hb.new_rgraph(bad["r"], bad["vertices"], bad["edges"])


def test_r_equal_one_is_allowed():
    H = hb.new_rgraph(1, ["a", "b"], [["a"]])
    assert H.r == 1 and len(H.edges) == 1


def test_json_round_trip(tmp_path):
    H = hb.complete_multipartite([1, 2, 2])
    s = H.to_json_str()
    assert s.endswith("\n")
    H2 = hb.load_rgraph(s)
    assert H2.vertices == H.vertices and H2.edges == H.edges
    # through a file
    p = tmp_path / "g.json"
    p.write_text(s)
    H3 = hb.load_rgraph(str(p))
    assert H3.to_json_str() == s
    # dict form
    H4 = hb.load_rgraph(json.loads(s))
    assert H4.edges == H.edges


@pytest.mark.parametrize("obj", [
    "[1,2]",                                   # not an object
    '{"r": 2, "vertices": []}',                # missing edges
    '{"vertices": [], "edges": []}',           # missing r
    '{"r": 2, "vertices": 5, "edges": []}',    # vertices not a list
    '{"r": 2, "vertices": ["a"], "edges": 7}',  # edges not a list
    '{"r": 2, "vertices": ["a"], "edges": [5]}',  # an edge not a list
    '{"r": 2, "vertices": ["a", "b"], "edges": [[["a"], "b"]]}',  # unhashable
    '{"r": true, "vertices": ["a"], "edges": [["a"]]}',  # boolean r
])
def test_load_rgraph_rejects(obj):
    with pytest.raises(InputError):
        hb.load_rgraph(obj)


def test_load_rgraph_rejects_deep_nesting(tmp_path):
    # past the JSON parser's recursion limit, as a string and as a file
    deep = "[" * 200000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    for obj in (deep, str(path)):
        with pytest.raises(InputError, match="recursion depth"):
            hb.load_rgraph(obj)


def test_load_rgraph_rejects_unreadable_files(tmp_path):
    # a missing file, a file that is not UTF-8 and a file that is not JSON
    bad = tmp_path / "bad.json"
    with pytest.raises(InputError, match="cannot read r-graph JSON"):
        hb.load_rgraph(str(bad))
    bad.write_bytes(b"\xff\xfe{}")
    with pytest.raises(InputError, match="cannot read r-graph JSON"):
        hb.load_rgraph(str(bad))
    bad.write_text("{,}")
    with pytest.raises(InputError, match="cannot read r-graph JSON"):
        hb.load_rgraph(str(bad))
    with pytest.raises(InputError, match="cannot read r-graph JSON"):
        hb.load_rgraph("{,}")


def test_ordered_edges():
    H = hb.complete_rgraph(4, 3)
    oe = H.ordered_edges()
    assert len(oe) == 6 * len(H.edges)
    assert len(set(oe)) == len(oe)
    assert all(H.is_edge(t) for t in oe)


def test_complete_rgraph():
    H = hb.complete_rgraph(5, 3)
    assert len(H.vertices) == 5 and len(H.edges) == 10
    assert H.vertices == tuple("v%d" % i for i in range(5))
    with pytest.raises(InvalidParams):
        hb.complete_rgraph(2, 3)


def test_complete_multipartite():
    H = hb.complete_multipartite([1, 2, 2])
    assert H.vertices == ("a0", "b0", "b1", "c0", "c1")
    assert len(H.edges) == 4
    assert all(H.is_edge(("a0", b, c)) for b in ("b0", "b1")
               for c in ("c0", "c1"))
    with pytest.raises(InvalidParams):
        hb.complete_multipartite([])
    with pytest.raises(InvalidParams):
        hb.complete_multipartite([1, 0])


def test_kneser_rgraph():
    # KG^2(5, 2) is the Petersen graph: 10 vertices, 15 edges, 3-regular
    H = hb.kneser_rgraph(5, 2, 2)
    assert H.r == 2
    assert H.vertices == ("01", "02", "03", "04", "12", "13", "14", "23",
                          "24", "34")
    assert len(H.edges) == 15
    assert all(sum(v in e for e in H.edges) == 3 for v in H.vertices)
    assert H.is_edge(("01", "23")) and not H.is_edge(("01", "12"))
    # the edges are the r-sets of pairwise disjoint k-subsets
    for n, k, r in [(6, 2, 3), (7, 2, 3), (7, 3, 2), (8, 2, 4), (4, 1, 2),
                    (3, 1, 1), (12, 2, 2)]:
        H = hb.kneser_rgraph(n, k, r)
        subsets = list(combinations(range(n), k))
        width = len(str(n - 1))
        name = {s: "".join("%0*d" % (width, a) for a in s) for s in subsets}
        assert set(H.vertices) == set(name.values())
        assert len(H.vertices) == len(subsets)
        want = {frozenset(name[s] for s in e)
                for e in combinations(subsets, r)
                if len(set().union(*e)) == r * k}
        assert set(H.edges) == want
    assert hb.kneser_rgraph(12, 2, 2).vertices[:2] == ("0001", "0002")


@pytest.mark.parametrize("n, k, r", [
    (3, 2, 2), (5, 0, 2), (5, 2, 0), (-1, 1, 1), (5, 2.0, 2), ("5", 2, 2),
    (5, 2, None),
])
def test_kneser_rgraph_rejects(n, k, r):
    with pytest.raises(InvalidParams):
        hb.kneser_rgraph(n, k, r)


@pytest.mark.parametrize("build", [
    lambda: hb.complete_rgraph(True, 1),
    lambda: hb.complete_rgraph(3, True),
    lambda: hb.complete_multipartite([True, 2]),
    lambda: hb.complete_multipartite([2, False]),
    lambda: hb.contains_complete_sub(hb.complete_rgraph(3, 2), [True, 1]),
    lambda: hb.kneser_rgraph(True, 1, 1),
    lambda: hb.kneser_rgraph(2, True, 1),
    lambda: hb.kneser_rgraph(2, 1, True),
], ids=["rgraph-m", "rgraph-r", "multipartite", "multipartite-false",
        "contains", "kneser-n", "kneser-k", "kneser-r"])
def test_bool_sizes_are_invalid(build):
    # True == 1 in Python, but a bool is not a size
    with pytest.raises(InvalidParams):
        build()


def oracle_contains(H, sizes):
    """Brute force: try every assignment of pairwise-disjoint parts."""
    if len(sizes) != H.r or sum(sizes) > len(H.vertices):
        return False

    def rec(chosen, rest):
        if not rest:
            return all(H.is_edge(sel) and len(set(sel)) == H.r
                       for sel in product(*chosen))
        used = set().union(*chosen) if chosen else set()
        for combo in combinations([v for v in H.vertices if v not in used],
                                  rest[0]):
            if rec(chosen + [combo], rest[1:]):
                return True
        return False

    return rec([], list(sizes))


def test_contains_complete_sub_against_oracle_r2():
    verts = ["a", "b", "c", "d"]
    all_edges = list(combinations(verts, 2))
    for picks in range(2 ** len(all_edges)):
        edges = [list(e) for k, e in enumerate(all_edges) if picks >> k & 1]
        H = hb.new_rgraph(2, verts, edges)
        for sizes in ([1, 1], [1, 2], [2, 2], [1, 3]):
            assert hb.contains_complete_sub(H, sizes) == \
                oracle_contains(H, sizes), (edges, sizes)


def test_contains_complete_sub_against_oracle_r3():
    verts = ["v%d" % i for i in range(5)]
    all_edges = list(combinations(verts, 3))
    # a deterministic spread of edge subsets, not all 2^10
    for picks in range(0, 2 ** len(all_edges), 7):
        edges = [list(e) for k, e in enumerate(all_edges) if picks >> k & 1]
        H = hb.new_rgraph(3, verts, edges)
        for sizes in ([1, 1, 1], [1, 2, 2], [1, 1, 3]):
            assert hb.contains_complete_sub(H, sizes) == \
                oracle_contains(H, sizes), (picks, sizes)


def test_contains_complete_sub_shapes():
    H = hb.complete_rgraph(5, 3)
    assert hb.contains_complete_sub(H, [1, 2, 2])
    assert not hb.contains_complete_sub(H, [2, 2, 2])    # needs 6 vertices
    assert not hb.contains_complete_sub(H, [1, 2])       # wrong length
    with pytest.raises(InvalidParams):
        hb.contains_complete_sub(H, [1, 2, 0])
    with pytest.raises(SizeGuard):
        hb.contains_complete_sub(H, [1, 2, 2], cap=2)
