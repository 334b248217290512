"""Cell complexes: construction, face poset navigation, subdivision,
group actions, fingerprints, and isomorphism checking."""

import hashlib
import math
import re
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hombox as hb
from hombox import (InputError, OrbitCofaceClash, SizeGuard,
                    VerificationError)
from hombox import cellcx, morse
from hombox.cellcx import canon_bytes, fmt_payload

from conftest import (CORPUS_NAMES, elements, itemwise_action, make_graph,
                      s_r_labels, stellar_stage, z3_action)
from stellar_reference import stellar_subdivision


def test_canon_key_total_order():
    toks = [3, 1, "b", "a", 2, "aa"]
    assert sorted(toks, key=canon_bytes) == [1, 2, 3, "a", "aa", "b"]
    assert canon_bytes(1) != canon_bytes("1")
    assert canon_bytes((1, 2)) != canon_bytes((1, (2,)))
    assert canon_bytes(frozenset([1, 2])) == canon_bytes(frozenset([2, 1]))
    with pytest.raises(InputError):
        canon_bytes(True)
    with pytest.raises(InputError):
        canon_bytes(1.5)


@pytest.mark.parametrize("ints_first", [True, False])
def test_canon_bytes_does_not_depend_on_history(ints_first):
    # True == 1 and hash(True) == hash(1), so a memo keyed by payload would
    # answer frozenset({True}) with the bytes of frozenset({1})
    if ints_first:
        assert canon_bytes(frozenset({1})) == b"F\x00\x00\x00\x02I1"
    with pytest.raises(InputError):
        canon_bytes(frozenset({True}))
    with pytest.raises(InputError):
        canon_bytes((1, frozenset({True})))
    assert canon_bytes(frozenset({1})) == b"F\x00\x00\x00\x02I1"


def test_from_simplices_closure(solid_triangle):
    K = solid_triangle
    assert len(K) == 7
    assert K.dim_counts() == [3, 3, 1]
    assert K.verify() is True
    top = K.index[frozenset("abc")]
    assert sorted((K.payloads[j] for j in K.down[top]), key=fmt_payload) == \
        sorted([frozenset("ab"), frozenset("ac"), frozenset("bc")],
               key=fmt_payload)


def test_from_graded_cells_rejects():
    with pytest.raises(InputError):
        hb.CellComplex.from_graded_cells([("a", 0, []), ("a", 0, [])])
    with pytest.raises(InputError):
        hb.CellComplex.from_graded_cells([("ab", 1, ["a", "b"])])


def test_faces_cofaces_star(solid_triangle):
    K = solid_triangle
    va = K.index[frozenset("a")]
    eab = K.index[frozenset("ab")]
    top = K.index[frozenset("abc")]
    # faces and cofaces are reflexive
    assert K.faces(top) == set(range(7))
    assert K.faces(eab) == {va, K.index[frozenset("b")], eab}
    assert K.cofaces(va) == {va, eab, K.index[frozenset("ac")], top}
    assert [i for i, u in enumerate(K.up) if not u] == [top]


def test_subcomplex_and_fingerprint(solid_triangle):
    K = solid_triangle
    keep = sorted(K.faces(K.index[frozenset("ab")]) | {K.index[frozenset("ab")]})
    sub, old2new = K.subcomplex(keep)
    assert len(sub) == 3
    # old2new maps ids through a list, None for the cells left out
    assert [old2new[o] for o in keep] == [0, 1, 2]
    assert len(old2new) == len(K) and old2new.count(None) == len(K) - 3
    rebuilt = hb.CellComplex.from_simplices([frozenset("ab")])
    assert sub.fingerprint_hex == rebuilt.fingerprint_hex
    assert sub.fingerprint_hex != K.fingerprint_hex
    # non-closed subsets are rejected, naming the least cell that lacks a
    # cover
    ab, abc = K.index[frozenset("ab")], K.index[frozenset("abc")]
    for bad in ([ab], [abc, ab]):
        with pytest.raises(InputError, match="^subcomplex is not downward "
                           "closed at cell %d$" % ab):
            K.subcomplex(bad)


def test_fingerprint_input_order_invariance():
    a = hb.CellComplex.from_simplices([frozenset("ab"), frozenset("bc")])
    b = hb.CellComplex.from_simplices([frozenset("bc"), frozenset("ab")])
    assert a.fingerprint_hex == b.fingerprint_hex


def test_order_complex_counts(solid_triangle):
    sd = hb.order_complex(solid_triangle)
    assert len(sd) == 25
    assert sd.dim_counts() == [7, 12, 6]
    d3 = hb.CellComplex.from_simplices([frozenset("abcd")])
    sd3 = hb.order_complex(d3)
    assert len(sd3) == 149
    assert sd3.dim_counts()[3] == math.factorial(4)
    # top-cell count of sd of a k-simplex is (k+1)!
    assert sd.dim_counts()[2] == math.factorial(3)


def test_order_complex_payloads_are_chains(solid_triangle):
    sd = hb.order_complex(solid_triangle)
    for ch in sd.payloads:
        assert list(ch) == sorted(ch)
        for a, b in zip(ch, ch[1:]):
            assert a in solid_triangle.faces(b)
    assert sd.base is solid_triangle


def test_order_complex_guard(solid_triangle):
    with pytest.raises(SizeGuard):
        hb.order_complex(solid_triangle, max_cells=24)
    assert len(hb.order_complex(solid_triangle, max_cells=25)) == 25


def test_order_complex_size_is_counted_once(monkeypatch):
    # the size guard, checked before the order complex is built, counts its
    # cells; order_complex then takes that count off the complex, and a
    # later order complex of it counts afresh
    calls = []
    count = hb.CellComplex._chain_counts.func

    def counting(K):
        calls.append(len(K))
        return count(K)

    counted = cached_property(counting)
    counted.__set_name__(hb.CellComplex, "_chain_counts")
    monkeypatch.setattr(hb.CellComplex, "_chain_counts", counted)
    K = hb.CellComplex.from_simplices([frozenset("abc")])
    with pytest.raises(SizeGuard, match="^order complex needs 25 cells, "
                       "over the 24-cell guard$"):
        cellcx._order_complex_size(K, 24)
    assert cellcx._order_complex_size(K, 25) == 25
    assert K._chain_counts[1] == [[1] * 7, [3] * 3 + [1] * 3 + [0],
                                  [2] * 3 + [0] * 4]
    assert len(hb.order_complex(K, max_cells=25)) == 25
    assert calls == [7] and "_chain_counts" not in vars(K)
    assert len(hb.order_complex(K)) == 25
    assert calls == [7, 7]


def test_order_complex_rejects_unsorted_ids():
    # cell 0 covers cell 1: ids are not sorted by dimension
    K = hb.CellComplex(["e", "v"], [1, 0], [(1,), ()])
    with pytest.raises(InputError, match="sorted by dimension"):
        hb.order_complex(K)


def _reference_order_complex(K):
    """The definition: every chain of the face poset with its
    remove-one-item faces, numbered by from_graded_cells."""
    cells = []

    def grow(ch):
        faces = [ch[:t] + ch[t + 1:] for t in range(len(ch))]
        cells.append((ch, len(ch) - 1, faces if len(ch) > 1 else []))
        for j in K.faces(ch[0]) - {ch[0]}:
            grow((j,) + ch)

    for i in range(len(K)):
        grow((i,))
    return hb.CellComplex.from_graded_cells(cells)


def _assert_same_complex(a, b):
    assert a.payloads == b.payloads
    assert a.dims == b.dims
    assert a.down == b.down
    assert a.digests == b.digests
    assert a.fingerprint == b.fingerprint


@st.composite
def face_posets(draw):
    """Graded posets of 10 to 320 cells in dimensions 0-3, each cell above
    dimension 0 covering one to three cells one dimension down."""
    sizes = draw(st.lists(st.integers(1, 80), min_size=1, max_size=4)
                 .filter(lambda s: sum(s) >= 10))
    cells, below = [], []
    for d, size in enumerate(sizes):
        names = ["%d.%d" % (d, k) for k in range(size)]
        for name in names:
            faces = draw(st.lists(st.sampled_from(below), min_size=1,
                                  max_size=3, unique=True)) if below else []
            cells.append((name, d, faces))
        below = names
    return hb.CellComplex.from_graded_cells(cells)


simplicial_complexes = st.lists(
    st.frozensets(st.integers(0, 7), min_size=1, max_size=4),
    min_size=1, max_size=12).map(hb.CellComplex.from_simplices).filter(
        lambda K: len(K) >= 10)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.one_of(face_posets(), simplicial_complexes))
def test_order_complex_equals_reference(K):
    _assert_same_complex(hb.order_complex(K), _reference_order_complex(K))


def _eager_up(K):
    """The cofacets of each cell, built from down as the constructor once
    did for every complex."""
    up = [[] for _ in range(len(K))]
    for i, dn in enumerate(K.down):
        for j in dn:
            up[j].append(i)
    return [tuple(u) for u in up]


def _assert_derived_covers(K):
    """K's derived up and up-degrees equal the eager construction, and the
    degrees build no up."""
    up = _eager_up(K)
    assert "up" not in vars(K)
    assert K.up_degrees() == [len(u) for u in up]
    assert "up" not in vars(K)
    assert K.up == up
    assert K.up_degrees() == [len(u) for u in K.up]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_order_complex_of_corpus_equals_reference(name, corpus):
    H = corpus[name]
    hom = hb.hom_complex(H)
    for cx in (hb.box_edge(H).cx, hom.cx):
        sd = hb.order_complex(cx)
        _assert_same_complex(sd, _reference_order_complex(cx))
        # the per-id encodings order_complex joins into a chain's digest
        enc = [len(b).to_bytes(4, "big") + b
               for b in (b"I%d" % i for i in range(len(cx)))]
        for ch in sd.payloads:
            assert b"T" + b"".join(enc[i] for i in ch) == canon_bytes(ch)
        # the order complex keeps the index it numbered the chains by
        assert sd.index == {ch: i for i, ch in enumerate(sd.payloads)}
        _assert_derived_covers(sd)
        # order_complex has read the cofaces of its base
        assert cx.up == _eager_up(cx)
        assert cx.up_degrees() == [len(u) for u in cx.up]
    top = hom.cx.cells_of_dim(hom.cx.max_dim)[0]
    stage = stellar_stage(hom.cx, hom.action, top)
    _assert_derived_covers(stage.universe)
    _assert_derived_covers(stage.final)
    _assert_derived_covers(hb.CellComplex([], [], []))


@pytest.mark.parametrize("bad", [-1, 3])
def test_verify_rejects_cover_ids_out_of_range(bad):
    # -1 would read as the last cell; 3 is past it
    K = hb.CellComplex(["a", "ab", "b"], [0, 1, 0], [(), (bad,), ()],
                       digests=[1, 2, 3])
    with pytest.raises(VerificationError,
                       match=r"cover %d of cell 1 is not a cell id" % bad):
        K.verify()
    ok = hb.CellComplex(["a", "ab", "b"], [0, 1, 0], [(), (0, 2), ()])
    assert ok.verify() is True


def test_order_complex_encodes_no_chain(corpus, monkeypatch):
    K = hb.box_edge(corpus["K3_122"]).cx
    want = hb.order_complex(K)

    def forbidden(*args):
        raise AssertionError("order_complex encoded a payload")

    monkeypatch.setattr(cellcx, "canon_bytes", forbidden)
    monkeypatch.setattr(hb.CellComplex, "from_graded_cells", forbidden)
    _assert_same_complex(hb.order_complex(K), want)


class _NoLookup(dict):
    """An index that fails any lookup of a chain by payload."""

    def __getitem__(self, key):
        raise AssertionError("chain %r looked up in sd.index" % (key,))

    get = __contains__ = __getitem__


def test_lift_and_classification_look_up_no_chain(corpus, monkeypatch):
    H = corpus["K3_122"]
    want = hb.build_matching(H)
    real = morse.order_complex

    def guarded(K, max_cells=None):
        sd = real(K, max_cells=max_cells)
        sd.index = _NoLookup(sd.index)
        return sd

    monkeypatch.setattr(morse, "order_complex", guarded)
    M = hb.build_matching(H)
    assert type(M.sd.index) is _NoLookup
    with pytest.raises(AssertionError, match="looked up"):
        M.sd.index.get(M.sd.payloads[0])
    assert M.action.perms == want.action.perms
    assert M.tags == want.tags and M.mu == want.mu


def test_order_complex_and_lift_of_empty_complex():
    E = hb.CellComplex([], [], [])
    sd = hb.order_complex(E)
    assert (sd.payloads, sd.down, sd.index, sd.fingerprint) == ([], [], {}, 0)
    assert sd.base is E
    lift = hb.lift_action_to_order_complex
    assert lift(hb.trivial_action(E), sd).perms == []
    A = hb.GroupAction(E, [[]], ["e"], check=False, order=1, relations=[])
    assert lift(A, sd).perms == [[]]


def test_digest_of_a_cover_two_dimensions_down():
    # digests keep only the previous dimension's bytes; a cover further
    # down still enters as its 16-byte digest
    K = hb.CellComplex(["v", "c"], [0, 2], [(), (0,)])
    h = hashlib.blake2b(canon_bytes("c"), digest_size=16)
    h.update((2).to_bytes(4, "big") + K.digests[0].to_bytes(16, "big"))
    assert K.digests[1] == int.from_bytes(h.digest(), "big")


def _z3_perms(hollow):
    """The identity, the rotation r and r^2 of the hollow triangle abc."""
    rot = {"a": "b", "b": "c", "c": "a"}
    r = [hollow.index[frozenset(rot[v] for v in p)] for p in hollow.payloads]
    return list(range(len(hollow))), r, [r[x] for x in r]


def test_group_action_basics(hollow_triangle):
    A = z3_action(hollow_triangle)
    assert A.order == 3
    assert A.verify()
    va = hollow_triangle.index[frozenset("a")]
    assert A.orbit(va) == tuple(sorted(
        hollow_triangle.index[frozenset(v)] for v in "abc"))
    assert len(A.orbits()) == 2
    assert A.is_free()
    e, r, rr = _z3_perms(hollow_triangle)
    assert A.perms == [r] and A.labels == ["r"]
    assert elements(A) == {tuple(e), tuple(r), tuple(rr)}
    # the relation presenting Z_3 on its generator: r r r = 1
    assert A.relations == [((0, 0, 0), ())]


def test_group_action_rejects_non_automorphism(hollow_triangle):
    swap = {"a": "b", "b": "a", "c": "c"}
    with pytest.raises(VerificationError):
        # the map is a bijection on vertices but c-edges land wrong: the
        # resulting permutation is fine, so force a broken one directly
        n = len(hollow_triangle)
        perm = list(range(n))
        perm[0], perm[n - 1] = perm[n - 1], perm[0]  # vertex <-> edge
        hb.GroupAction(hollow_triangle, [perm], [1], order=2,
                       relations=[((0, 0), ())])
    # payload map leaving the complex
    with pytest.raises(VerificationError):
        hb.GroupAction.symmetric(
            hollow_triangle,
            [lambda p: frozenset(swap[v] for v in p) | {"z"}], [(1, 0)])


def test_lift_action_to_order_complex(hollow_triangle):
    A = z3_action(hollow_triangle)
    sd = hb.order_complex(hollow_triangle)
    sdA = hb.lift_action_to_order_complex(A, sd)
    assert sdA.order == 3
    sdA.verify()
    assert sdA.is_free()
    assert len(sdA.orbits()) == len(sd) // 3


def _itemwise_lift(perms, sd):
    """The definition: p maps a chain to the sorted chain of its images."""
    return [tuple(sd.index[tuple(sorted(p[j] for j in ch))]
                  for ch in sd.payloads) for p in perms]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_lift_equals_itemwise_definition(name, corpus):
    H = corpus[name]
    for bundle in (hb.box_edge(H), hb.hom_complex(H)):
        sd = hb.order_complex(bundle.cx)
        sdA = hb.lift_action_to_order_complex(bundle.action, sd)
        assert list(map(tuple, sdA.perms)) == _itemwise_lift(
            bundle.action.perms, sd)
        assert elements(sdA) == set(_itemwise_lift(elements(bundle.action),
                                                   sd))
        assert sdA.labels == bundle.action.labels
        assert sdA.order == bundle.action.order


def test_lift_of_non_faithful_and_trivial_actions(hollow_triangle,
                                                  solid_triangle):
    # Z_6 = <r | r^6> acting through Z_3: r has order 3 on the cells, so
    # elements g and g+3 share a permutation
    rot = _z3_perms(hollow_triangle)
    A = hb.GroupAction(hollow_triangle, [rot[1]], [1], order=6,
                       relations=[((0,) * 6, ())])
    assert A.order == 6 and A.labels == [1]
    sd = hb.order_complex(hollow_triangle)
    sdA = hb.lift_action_to_order_complex(A, sd)
    assert elements(sdA) == set(_itemwise_lift(rot, sd))
    assert len(elements(sdA)) == 3
    assert sdA.order == 6 and not sdA.is_free()
    sdA.verify()
    T = hb.trivial_action(solid_triangle)
    sd = hb.order_complex(solid_triangle)
    TL = hb.lift_action_to_order_complex(T, sd)
    assert TL.perms == [] and elements(TL) == {tuple(range(len(sd)))}


def _vertex_maps(*swaps):
    """Payload maps of simplices, one per vertex permutation in swaps."""
    return [lambda p, m=m: frozenset(m.get(v, v) for v in p) for m in swaps]


def _relation(*labels):
    return re.escape("relation %s = 1 fails" % " ".join(map(repr, labels)))


def test_symmetric_rejects_non_automorphism(hollow_triangle):
    # a bijection of the cells that swaps the vertex a with the edge ab
    a, ab = frozenset("a"), frozenset("ab")
    swap = {a: ab, ab: a}
    with pytest.raises(VerificationError,
                       match=re.escape("generator (1, 0) does not preserve")):
        hb.GroupAction.symmetric(hollow_triangle,
                                 [lambda p: swap.get(p, p)], [(1, 0)])


def test_symmetric_rejects_each_broken_coxeter_relation(hollow_triangle):
    # automorphisms that break exactly one relation each
    s = hb.s_r_generators(4)
    # r = 2: a rotation of order 3 as s_0, so s_0^2 != 1
    with pytest.raises(VerificationError, match=_relation((1, 0), (1, 0))):
        hb.GroupAction.symmetric(
            hollow_triangle, _vertex_maps({"a": "b", "b": "c", "c": "a"}),
            [(1, 0)])
    # r = 3 on a square abcd: two reflections whose product turns it by a
    # quarter, so (s_0 s_1)^3 != 1
    square = hb.CellComplex.from_simplices(map(frozenset, ["ab", "bc", "cd",
                                                          "da"]))
    gens = hb.s_r_generators(3)
    with pytest.raises(VerificationError, match=_relation(*gens * 3)):
        hb.GroupAction.symmetric(
            square, _vertex_maps({"a": "b", "b": "a", "c": "d", "d": "c"},
                                 {"b": "d", "d": "b"}), gens)
    # r = 4: the transpositions (ab), (bc), (ac) satisfy the braid relations
    # of s_0 s_1 and s_1 s_2, but s_0 and s_2 do not commute
    with pytest.raises(VerificationError, match=_relation(*[s[0], s[2]] * 2)):
        hb.GroupAction.symmetric(
            hollow_triangle, _vertex_maps({"a": "b", "b": "a"},
                                          {"b": "c", "c": "b"},
                                          {"a": "c", "c": "a"}), s)


def test_checked_action_with_given_relations_checks_them(hollow_triangle):
    # generators and relations handed to the constructor directly: with
    # check on, a relation that fails on the cells is rejected
    rot = hb.GroupAction.from_payload_maps(
        hollow_triangle, _vertex_maps({"a": "b", "b": "c", "c": "a"}), ["r"],
        check=False, order=2, relations=[((0, 0), ())])
    with pytest.raises(VerificationError, match=_relation("r", "r")):
        hb.GroupAction(hollow_triangle, rot.perms, ["r"], order=2,
                       relations=[((0, 0), ())])
    hb.GroupAction(hollow_triangle, rot.perms, ["r"], order=3,
                   relations=[((0, 0, 0), ())])


@pytest.mark.parametrize("check", [True, False])
def test_malformed_presentation_is_an_input_error(hollow_triangle, check):
    r = _z3_perms(hollow_triangle)[1]
    for order, relations, message in [
            (3, [((0, 1), ())], r"relation \(\(0, 1\), \(\)\) is not a pair"),
            (3, [((0, 0, 0),)], r"relation \(\(0, 0, 0\),\) is not a pair"),
            (3, [((0, 0, 0), (), ())], "is not a pair of words"),
            (3, [((-1,), ())], "is not a pair of words in the 1 generators"),
            (3, [(("r",), ())], "is not a pair of words"),
            (3, [((0.0,), ())], "is not a pair of words"),
            (3, [([0, 0, 0], ())], "is not a pair of words"),
            (3, [[(0, 0, 0), ()]], "is not a pair of words"),
            (0, [], "group order 0 is not a positive int"),
            (-3, [], "group order -3 is not a positive int"),
            (3.0, [], "group order 3.0 is not a positive int"),
            (True, [], "group order True is not a positive int"),
            (None, [], "group order None is not a positive int")]:
        with pytest.raises(InputError, match=message):
            hb.GroupAction(hollow_triangle, [r], ["r"], check, order=order,
                           relations=relations)


def test_payload_maps_and_labels_must_agree_in_length(hollow_triangle):
    rot = _vertex_maps({"a": "b", "b": "c", "c": "a"})[0]
    for maps, labels in (([rot, rot], ["r"]), ([rot], ["r", "s"])):
        with pytest.raises(InputError,
                           match="%d payload maps for %d labels"
                           % (len(maps), len(labels))):
            hb.GroupAction.from_payload_maps(
                hollow_triangle, maps, labels, order=3,
                relations=[((0, 0, 0), ())])


@pytest.mark.parametrize("name", CORPUS_NAMES + ["K_4^4"])
def test_generator_form_equals_itemwise_action(name):
    # box, Hom and sd box: the generators generate exactly the permutations
    # of the r! elements applied one by one, with the same orbits and
    # freeness
    H = make_graph(name)
    labels = s_r_labels(H.r)
    box, hom = hb.box_edge(H), hb.hom_complex(H)
    sd = hb.order_complex(box.cx)
    box_all = itemwise_action(box.cx, [
        lambda F, s=s: frozenset(tuple(t[j] for j in s) for t in F)
        for s in labels])
    cases = [
        (box.action, box_all),
        (hom.action, itemwise_action(
            hom.cx, [lambda f, s=s: tuple(f[j] for j in s) for s in labels])),
        (hb.lift_action_to_order_complex(box.action, sd),
         set(_itemwise_lift(box_all, sd)))]
    for A, want in cases:
        assert A.order == math.factorial(H.r)
        assert len(A.perms) == H.r - 1
        assert elements(A) == want
        n = len(A.cx)
        orbit = [tuple(sorted({p[i] for p in want})) for i in range(n)]
        assert [A.orbit(i) for i in range(n)] == orbit
        assert A.orbits() == sorted(set(orbit))
        fixed = {i for p in want if p != tuple(range(n))
                 for i in range(n) if p[i] == i}
        assert A.is_free() == (not fixed)
        assert A.is_free(range(0, n, 2)) == fixed.isdisjoint(range(0, n, 2))


def test_word_table_orbits_equal_searched_orbits(corpus):
    # the sd box action of K_4^3 is free: the first search reads the word
    # table, a spanning tree of S_3's Cayley graph, and every cell's orbit
    # down it is the search's, in the order the search meets it
    box = hb.box_edge(corpus["K_4^3"])
    A = hb.lift_action_to_order_complex(box.action,
                                        hb.order_complex(box.cx))
    assert A.words is None
    first = A._orbit_list(0)
    assert len(A.words) == A.order - 1 == 5
    assert A._orbit_list(0) == first
    for i in range(len(A.cx)):
        assert A._orbit_list(i) == A._search(i)
        assert A.orbit(i) == tuple(sorted(A._search(i)))
    # transport, so a lift or a restriction, hands the table on
    assert A.transport(A.cx, A.perms).words is A.words


def test_word_table_gives_orbits_that_are_not_free():
    # the flip swaps x and y and fixes xy: the orbit {x, y} gives the
    # table, and down it xy meets itself, so its orbit is {xy}
    seg = hb.CellComplex.from_simplices([frozenset("xy")])
    A = hb.GroupAction.symmetric(
        seg, [lambda p: frozenset({"x": "y", "y": "x"}[v] for v in p)],
        [(1, 0)])
    x, y, xy = (seg.index[frozenset(s)] for s in ("x", "y", "xy"))
    assert A.orbit(xy) == (xy,) and A.words is None
    assert A.orbit(x) == (x, y) and A.words == [(0, 0)]
    assert A._orbit_list(xy) == [xy, xy]
    assert A.orbit(xy) == (xy,)
    assert A.orbits() == [(x, y), (xy,)] and not A.is_free()


def test_lift_rejects_non_automorphism():
    seg = hb.CellComplex.from_simplices([frozenset("xy")])
    x, xy = seg.index[frozenset("x")], seg.index[frozenset("xy")]
    # swaps the vertex x with the edge xy: a closed set of permutations,
    # but not an action by automorphisms
    bad = list(range(3))
    bad[x], bad[xy] = xy, x
    A = hb.GroupAction(seg, [bad], ["bad"], check=False, order=2,
                       relations=[((0, 0), ())])
    sd = hb.order_complex(seg)
    with pytest.raises(VerificationError, match="'bad' maps chain"):
        hb.lift_action_to_order_complex(A, sd)


def test_lift_rejects_action_on_another_complex(solid_triangle):
    sd = hb.order_complex(solid_triangle)
    # a segment: fewer cells than the triangle
    seg = hb.CellComplex.from_simplices([frozenset("xy")])
    # a path a-b-c-d: as many cells as the triangle, another complex
    path = hb.CellComplex.from_simplices(map(frozenset, ["ab", "bc", "cd"]))
    assert len(path) == len(solid_triangle)
    for K, swap in ((seg, {"x": "y", "y": "x"}),
                    (path, {"a": "d", "d": "a", "b": "c", "c": "b"})):
        A = hb.GroupAction.symmetric(K, _vertex_maps(swap), [(1, 0)])
        with pytest.raises(InputError, match="not on the base of the order"):
            hb.lift_action_to_order_complex(A, sd)


@st.composite
def symmetric_complexes(draw):
    """A simplicial complex on the vertices 0-7 and a vertex permutation
    that maps it to itself, with the order of that permutation."""
    perm = draw(st.permutations(range(8)))
    simplices = draw(st.lists(
        st.frozensets(st.integers(0, 7), min_size=1, max_size=4),
        min_size=1, max_size=6))
    closed = set()
    for s in simplices:
        while s not in closed:
            closed.add(s)
            s = frozenset(perm[v] for v in s)
    order, power = 1, list(perm)
    while power != list(range(8)):
        power = [perm[v] for v in power]
        order += 1
    return hb.CellComplex.from_simplices(closed), perm, order


@settings(max_examples=40, derandomize=True, deadline=None)
@given(symmetric_complexes())
def test_lift_of_vertex_permutation_equals_itemwise(case):
    K, perm, order = case
    A = hb.GroupAction.from_payload_maps(
        K, [lambda s: frozenset(perm[v] for v in s)], ["pi"], order=order,
        relations=[((0,) * order, ())])
    sd = hb.order_complex(K)
    sdA = hb.lift_action_to_order_complex(A, sd)
    assert list(map(tuple, sdA.perms)) == _itemwise_lift(A.perms, sd)
    assert (sdA.labels, sdA.order) == (["pi"], order)
    sdA.verify()


def test_trivial_action(solid_triangle):
    A = hb.trivial_action(solid_triangle)
    assert A.order == 1
    assert [o for o in A.orbits()] == [(i,) for i in range(7)]


def test_stellar_subdivision_of_segment_is_path():
    # the reference (tests/stellar_reference.py) and the stage alike
    seg = hb.CellComplex.from_simplices([frozenset("xy")])
    A = hb.trivial_action(seg)
    xy = seg.index[frozenset("xy")]
    for out in (stellar_subdivision(seg, A, xy),
                stellar_stage(seg, A, xy).final):
        assert len(out) == 5
        assert out.dim_counts() == [3, 2]
        out.verify()


def test_stellar_subdivision_hollow_triangle_orbit(hollow_triangle):
    A = z3_action(hollow_triangle)
    e = hollow_triangle.index[frozenset("ab")]
    for out in (stellar_subdivision(hollow_triangle, A, e),
                stellar_stage(hollow_triangle, A, e).final):
        assert out.dim_counts() == [6, 6]      # a 6-cycle
        out.verify()
        # each old edge is gone, replaced by two edges through a new vertex
        assert frozenset("ab") not in out.index


def test_stellar_orbit_coface_clash(solid_triangle):
    # vertices a and b share the coface ab, so subdividing at a Z2-orbit
    # {a, b} must be refused, by the stage (its _orbit_star) and by the
    # reference
    A = hb.GroupAction.symmetric(
        solid_triangle, _vertex_maps({"a": "b", "b": "a"}), [(1, 0)])
    va = solid_triangle.index[frozenset("a")]
    vb = solid_triangle.index[frozenset("b")]
    ab = solid_triangle.index[frozenset("ab")]
    with pytest.raises(OrbitCofaceClash, match="^cells %d and %d of one "
                       "orbit share coface %d$" % (va, vb, ab)):
        stellar_stage(solid_triangle, A, va)
    with pytest.raises(OrbitCofaceClash):
        stellar_subdivision(solid_triangle, A, va)


def test_stellar_subdivision_poset_square():
    # a single square cell, which is not a simplex: the reference's
    # stellar subdivision at the square is the 4-triangle fan.  The stage
    # has no anchor rule for these payloads; it stars the product square in
    # test_collapse
    cells = [
        ("p", 0, []), ("q", 0, []), ("s", 0, []), ("t", 0, []),
        (("e", "pq"), 1, ["p", "q"]), (("e", "qs"), 1, ["q", "s"]),
        (("e", "st"), 1, ["s", "t"]), (("e", "tp"), 1, ["t", "p"]),
        (("sq",), 2, [("e", "pq"), ("e", "qs"), ("e", "st"), ("e", "tp")]),
    ]
    K = hb.CellComplex.from_graded_cells(cells)
    A = hb.trivial_action(K)
    sq = K.index[("sq",)]
    out = stellar_subdivision(K, A, sq)
    # 8 old boundary cells + apex + 4 cone edges + 4 cone triangles
    assert len(out) == 17
    assert out.dim_counts() == [5, 8, 4]
    out.verify()


def test_verify_isomorphism(hollow_triangle):
    ren = {"a": "p", "b": "q", "c": "s"}
    K2 = hb.CellComplex.from_simplices(
        [frozenset("pq"), frozenset("qs"), frozenset("sp")])
    f = hb.verify_isomorphism(
        hollow_triangle, K2, lambda p: frozenset(ren[v] for v in p))
    assert sorted(f) == list(range(6))
    with pytest.raises(VerificationError,
                       match=r"^cells \{a,b\} and \{a,c\} both map to "
                             r"\{p,q\}$"):
        hb.verify_isomorphism(
            hollow_triangle, K2,
            lambda p: frozenset("pq") if len(p) == 2 else
            frozenset(ren[v] for v in p))
    with pytest.raises(VerificationError,
                       match=r"^cell \{a,b\} maps to \{p,r\}, which is "
                             r"not a cell of the target$"):
        hb.verify_isomorphism(
            hollow_triangle, K2,
            lambda p: frozenset("pr") if p == frozenset("ab") else
            frozenset(ren[v] for v in p))
    # equivariance: rotation on both sides commutes with renaming
    A1, A2 = z3_action(hollow_triangle), z3_action(K2, "pqs")
    hb.verify_isomorphism(hollow_triangle, K2,
                          lambda p: frozenset(ren[v] for v in p), A1, A2)


def test_to_json_obj_and_dot(solid_triangle):
    obj = solid_triangle.to_json_obj()
    assert sorted(obj) == ["cells"]
    assert len(obj["cells"]) == 7
    c0 = obj["cells"][0]
    assert sorted(c0) == ["covers", "dim", "id", "label"]
    dot = solid_triangle.to_dot()
    assert dot.startswith("digraph") and "rankdir=BT" in dot
    assert dot.count("->") == 9     # 3 vertex->edge x2 + 3 edge->triangle
