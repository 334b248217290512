"""The chain matching: the payload-level toggle rule, the matchings on the
corpus, on graphs where the former rule failed, and on random r-graphs,
and the collapse that proves a matching (Matching.verify)."""

import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

import hombox as hb
from hombox import (InputError, MatchingInvalid, NotFree, Stuck,
                    VerificationError, morse)
from hombox.cellcx import _label, canon_bytes

from conftest import CORPUS_NAMES, elements, small_rgraphs

FIX = frozenset([("a", "b")])                      # a product vertex


def classify_chain(chain):
    """The matching rule applied item by item, the oracle that
    build_matching's rule through tails is compared with: classify a chain
    of box simplices given as payloads (an ascending tuple of frozensets of
    ordered edges) by toggling c(x) at its topmost non-product x.  Returns
    (tag, partner) with tag one of "critical", "sigma", "upper"; partner is
    the chain matched with it, or None for a critical chain."""
    items = tuple(chain)
    for k in range(len(items) - 1, -1, -1):
        x = items[k]
        c = hb.map_i(hb.map_p(x))
        if c == x:
            continue
        if k + 1 < len(items) and items[k + 1] == c:
            return "upper", items[:k + 1] + items[k + 2:]
        return "sigma", items[:k + 1] + (c,) + items[k + 1:]
    return "critical", None


def mu(chain):
    """The partner of a Sigma chain of box simplex payloads; ValueError for
    a critical or upper chain."""
    tag, partner = classify_chain(chain)
    if tag != "sigma":
        raise ValueError("chain is %s, not in Sigma" % tag)
    return partner


def F(*tuples):
    return frozenset(tuples)


def test_classify_all_fixed_is_critical():
    f = (frozenset(["a"]), frozenset(["b", "c"]))
    chain = (frozenset([("a", "b")]), hb.map_i(f))
    tag, partner = classify_chain(chain)
    assert tag == "critical" and partner is None


def test_classify_singleton_broken_is_sigma():
    Fb = F(("a", "b"), ("c", "d"))                 # p = ({a,c},{b,d})
    tag, partner = classify_chain((Fb,))
    assert tag == "sigma"
    P = hb.map_i(hb.map_p(Fb))
    assert partner == (Fb, P)
    assert len(P) == 4


def test_classify_broken_with_its_image_is_upper():
    Fb = F(("a", "b"), ("c", "d"))
    P = hb.map_i(hb.map_p(Fb))
    tag, partner = classify_chain((Fb, P))
    assert tag == "upper" and partner == (Fb,)
    # and mu() refuses it
    with pytest.raises(ValueError, match="is upper, not in Sigma"):
        mu((Fb, P))
    with pytest.raises(ValueError, match="is critical, not in Sigma"):
        mu((hb.map_i((frozenset("a"), frozenset("b"))),))


def test_classify_toggles_closure_of_topmost_non_product():
    # both items are non-products; the rule acts at the top one, F1, and
    # its closure goes directly above it
    F0 = F((0, 1, 2), (0, 3, 4))
    F1 = F0 | F((5, 1, 2), (0, 1, 4))
    c1 = hb.map_i(hb.map_p(F1))
    assert hb.map_i(hb.map_p(F0)) != F0 and c1 != F1
    tag, partner = classify_chain((F0, F1))
    assert tag == "sigma" and partner == (F0, F1, c1)
    # products above the topmost non-product contain its closure, so the
    # toggle lands directly above it, below those products
    top = hb.map_i((frozenset({0, 5, 9}), frozenset({1, 3}),
                    frozenset({2, 4})))
    assert c1 < top
    assert classify_chain((F0, F1, top)) == ("sigma", (F0, F1, c1, top))
    assert classify_chain((F0, F1, c1, top)) == ("upper", (F0, F1, top))


def test_classify_toggle_is_an_involution():
    # (F0, F1) is the chain of B_edge(K_6^3) that no chain was matched
    # with under the former least-broken-index rule; under the toggle its
    # partner is matched back with it
    F0 = F((1, 2, 3), (1, 4, 5))
    F1 = F0 | F((6, 2, 3))
    for chain in ((F0,), (F1,), (F0, F1)):
        tag, partner = classify_chain(chain)
        assert tag == "sigma" and len(partner) == len(chain) + 1
        assert classify_chain(partner) == ("upper", chain)
        assert mu(chain) == partner


GOLDEN = {
    # name: (sd cells, sigma, upper, critical)
    "K_2^2": (2, 0, 0, 2),
    "K_3^2": (24, 0, 0, 24),
    "K_3^3": (6, 0, 0, 6),
    "K_4^3": (132, 0, 0, 132),
    "K3_112": (30, 0, 0, 30),
    "K3_122": (894, 348, 348, 198),
    "K_5^3": (13350, 5220, 5220, 2910),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_matching_golden_counts(matchings, name):
    M = matchings[name]
    sd_n, sig, up, crit = GOLDEN[name]
    assert len(M.sd) == sd_n
    assert len(M.sigma()) == sig
    assert (len(M.upper), len(M.critical)) == (up, crit)
    assert len(M.d_cells()) == sig + up


def test_matching_verify_and_acyclic(matchings):
    M = matchings["K3_122"]
    run = M.verify()
    assert run.cells_moved == len(M.sigma()) + len(M.upper)
    # mu targets cover their sources and raise dimension by one
    for x, y in M.mu.items():
        assert x in M.sd.down[y]
        assert M.sd.dims[y] == M.sd.dims[x] + 1


def pillow():
    """Two vertices u and v, two edges e1 and e2 between them, and two
    2-cells t1 and t2, each with covers e1 and e2.  The payload of the cell
    named n is (n,), a one-item chain; returns the complex and the id of
    each name."""
    names = ("u", "v", "e1", "e2", "t1", "t2")
    cx = hb.CellComplex.from_graded_cells([
        (("u",), 0, []), (("v",), 0, []),
        (("e1",), 1, [("u",), ("v",)]), (("e2",), 1, [("u",), ("v",)]),
        (("t1",), 2, [("e1",), ("e2",)]), (("t2",), 2, [("e1",), ("e2",)])])
    return cx, {n: cx.index[(n,)] for n in names}


def one_item_matching(cx, mu_map):
    """The matching mu_map on cx, a complex of one-item chains as pillow
    builds, under the trivial action: its sources in Sigma, its targets
    upper, every other cell critical.  The item of a chain is its own box
    cell, of the chain's dimension."""
    tags = [morse.CRITICAL] * len(cx)
    for x, y in mu_map.items():
        tags[x], tags[y] = morse.SIGMA, morse.UPPER
    box = SimpleNamespace(cx=SimpleNamespace(
        dims={p[0]: d for p, d in zip(cx.payloads, cx.dims)}))
    return morse.Matching(None, None, box, cx, hb.trivial_action(cx), tags,
                          mu_map)


def test_collapse_on_a_pillow():
    # e1 -> e2 (a facet of t1 = mu(e1)) and e2 -> e1 (a facet of t2): the
    # cycle leaves no pair to collapse first.  Without t2, e1 is free in t1
    # and the pair collapses onto u, v and e2
    cx, c = pillow()
    M = one_item_matching(cx, {c["e1"]: c["t1"], c["e2"]: c["t2"]})
    with pytest.raises(NotFree):
        hb.matching_to_collapse(cx, M.action, M)
    disk, _ = cx.subcomplex(sorted(set(range(len(cx))) - {c["t2"]}))
    e1, t1 = disk.index[("e1",)], disk.index[("t1",)]
    M = one_item_matching(disk, {e1: t1})
    run = hb.matching_to_collapse(disk, M.action, M)
    assert run.cells_moved == 2


def test_collapse_refuses_a_foreign_complex_or_action(matchings):
    # the collapse proves M on its own sd and action, whose ids its tags
    # and mu name: another complex or action is refused before any step,
    # an equal rebuild of M's own included
    M = matchings["K3_122"]
    for K in (matchings["K3_112"].sd, hb.order_complex(M.box.cx)):
        with pytest.raises(InputError,
                           match=r"^K is not the matching's complex M\.sd$"):
            hb.matching_to_collapse(K, M.action, M)
    lifted = hb.lift_action_to_order_complex(M.box.action, M.sd)
    for A in (hb.trivial_action(M.sd), lifted):
        with pytest.raises(InputError,
                           match=r"^A is not the matching's action "
                                 r"M\.action$"):
            hb.matching_to_collapse(M.sd, A, M)


def test_verify_rejects_a_cyclic_matching():
    # mu covers, is injective and partitions D = {e1, e2, t1, t2}, and the
    # trivial action keeps it, but the cycle e1 -> e2 -> e1 leaves e1 in two
    # cofacets when the collapse takes it
    cx, c = pillow()
    M = one_item_matching(cx, {c["e1"]: c["t1"], c["e2"]: c["t2"]})
    with pytest.raises(NotFree, match=re.escape(
            "cell (e1) has 2 alive cofacets, so it is not free")):
        M.verify()


def test_matching_equivariance_explicit(matchings):
    M = matchings["K3_122"]
    for p in elements(M.action):
        for x in M.sigma():
            assert M.mu[p[x]] == p[M.mu[x]]
        for x in range(len(M.sd)):
            assert M.tags[p[x]] == M.tags[x]


def test_critical_cells_are_chains_of_products(matchings):
    M = matchings["K3_122"]
    iP = set(hb.i_image_ids(M.hom, M.box))
    for i, items in enumerate(M.sd.payloads):
        assert (M.tags[i] == "critical") == all(x in iP for x in items)


def test_corrupted_matching_detected(matchings):
    M = matchings["K3_122"]
    bad = hb.Matching(M.graph, M.hom, M.box, M.sd, M.action,
                      list(M.tags), dict(M.mu))
    x = M.sigma()[0]
    bad.mu[x] = M.mu[M.sigma()[1]]
    with pytest.raises(Stuck, match="^" + re.escape(
            "cell %s appears in two matched pairs"
            % _label(M.sd, M.mu[M.sigma()[1]]))):
        bad.verify()


def test_verify_checks_equivariance_under_every_element(matchings):
    # mu swapped between the members x.w and y.w of two Sigma orbits, for
    # each element w but the identity: the orbit of x, the least Sigma
    # chain, is checked first and fails at x.w
    M = matchings["K3_122"]
    sig = M.sigma()
    xs = M.action._orbit_list(sig[0])
    ys = M.action._orbit_list(min(set(sig) - set(xs)))
    for w in range(1, M.action.order):
        mu = dict(M.mu)
        mu[xs[w]], mu[ys[w]] = mu[ys[w]], mu[xs[w]]
        bad = hb.Matching(M.graph, M.hom, M.box, M.sd, M.action, M.tags, mu)
        with pytest.raises(Stuck, match="^" + re.escape(
                "matching is not equivariant at cell %s: " % _label(
                    M.sd, xs[w]))):
            bad.verify()
    # the least Sigma chain and the least critical one trade tags, so the
    # critical cells are no longer a union of orbits: the collapse ends
    # elsewhere, and names the first cell where
    tags = list(M.tags)
    a, b = sig[0], M.critical[0]
    tags[a], tags[b] = tags[b], tags[a]
    bad = hb.Matching(M.graph, M.hom, M.box, M.sd, M.action, tags, M.mu)
    with pytest.raises(VerificationError, match="^" + re.escape(
            "collapse endpoint differs from the critical subcomplex at cell "
            "%s" % _label(M.sd, min(a, b)))):
        bad.verify()


@pytest.mark.parametrize("sizes", [[2, 3], [1, 2, 3]])
def test_matching_on_former_failures(sizes):
    # the least-broken-index rule did not partition D on these graphs
    M = hb.build_matching(hb.complete_multipartite(sizes))
    assert len(M.critical) == len(hb.order_complex(M.hom.cx))
    assert len(M.sigma()) == len(M.upper) > 0


@settings(max_examples=30, derandomize=True, deadline=None)
@given(small_rgraphs())
def test_matching_verifies_on_random_rgraphs(H):
    try:
        hb.box_edge(H, max_cells=20000)
    except hb.SizeGuard:
        return
    M = hb.build_matching(H)
    for x, y in M.mu.items():
        assert x in M.sd.down[y]
        assert M.sd.dims[y] == M.sd.dims[x] + 1
    _assert_classified_as_payload_rule(M)


def _assert_classified_as_payload_rule(M):
    """M's tags and mu, built through tails, are classify_chain on the box
    simplex payloads of every chain."""
    pay = M.box.cx.payloads
    chains = [tuple(map(pay.__getitem__, ch)) for ch in M.sd.payloads]
    for x, chain in enumerate(chains):
        tag, partner = classify_chain(chain)
        assert M.tags[x] == tag
        if tag == "sigma":
            assert chains[M.mu[x]] == partner
    assert sorted(M.mu) == M.sigma()


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_classification_equals_payload_rule(matchings, name):
    _assert_classified_as_payload_rule(matchings[name])


def test_build_matching_checks_the_critical_tags(corpus, matchings,
                                                 monkeypatch):
    # a Sigma chain tagged critical: the critical chains are no longer the
    # chains of products, and build_matching names the chain
    classify = morse._classify
    tampered = []

    def tamper(*args):
        tags, mu_map = classify(*args)
        tampered.append(tags.index(morse.SIGMA))
        tags[tampered[0]] = morse.CRITICAL
        return tags, mu_map

    monkeypatch.setattr(morse, "_classify", tamper)
    with pytest.raises(MatchingInvalid) as info:
        hb.build_matching(corpus["K3_122"])
    M = matchings["K3_122"]
    named = [sorted(M.box.cx.payloads[x], key=canon_bytes)
             for x in M.sd.payloads[tampered[0]]]
    assert str(info.value) == (
        "critical cells differ from chains of products at %r" % (named,))


@pytest.mark.parametrize("case", ["closure below", "non-product fixed"])
def test_missing_toggle_partner_names_the_chain(corpus, monkeypatch, case):
    # closure tables that are not closures
    box = hb.box_edge(corpus["K3_122"])
    fixed, closure = morse.ip_tables(box)
    cx = box.cx
    bad = list(closure)
    if case == "closure below":
        # a cell of smaller id is never above the non-product i, so the
        # partner (i, c(i)) of the chain (i,) is none
        i = next(i for i, c in enumerate(closure) if c != i and i > 0)
        bad[i] = 0
        chain = (i,)
    else:
        # the non-product j taken for a product: the chain (i, j), i the
        # least non-product below j, gets the partner (i, c(i), j), and
        # c(i) lies above j
        j = next(j for j, c in enumerate(closure) if c != j and any(
            closure[i] != i for i in cx.faces(j) - {j}))
        i = min(i for i in cx.faces(j) - {j} if closure[i] != i)
        bad[j] = j
        chain = (i, j)
    monkeypatch.setattr(morse, "ip_tables", lambda box: (fixed, bad))
    named = [sorted(cx.payloads[x], key=canon_bytes) for x in chain]
    with pytest.raises(MatchingInvalid, match=re.escape(
            "toggle partner of chain %r is not a chain" % (named,))):
        hb.build_matching(corpus["K3_122"])
