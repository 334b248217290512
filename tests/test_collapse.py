"""Collapsing: elementary G-collapses, the collapse order, stellar and full
subdivision deformations, certificates, replay, and tamper detection."""

import hashlib
import json
import re
import weakref
from collections import namedtuple
from pathlib import Path

import pytest

import hombox as hb
from hombox import cellcx, collapse, morse
from hombox import (InputError, NotFree, OrbitNotIndependentlyFree, Stuck,
                    VerificationError, WrongCodimension)
from hombox.cellcx import BARY, CONE, fmt_payload
from hombox.cli import canonical_json, main

from conftest import STRUCTURED_TAMPERS, replays, stellar_stage, z3_action
from stellar_reference import stellar_subdivision

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def fixture(name, version):
    """The theorem certificate of the given version, 1 to 5, that the CLI
    wrote for a corpus graph before the next version (for 5, before steps
    were sorted by their order key), as JSON text."""
    return (FIXTURES / ("theorem_v%d_%s.json"
                        % (version, name.replace("^", "_")))).read_text()


def seg_with_flip():
    seg = hb.CellComplex.from_simplices([frozenset("xy")])
    flip = {"x": "y", "y": "x"}
    A = hb.GroupAction.symmetric(
        seg, [lambda p: frozenset(flip[v] for v in p)], [(1, 0)])
    return seg, A


# An sd-deformation with its unfold onto sd K: the table iso of the
# end complex onto sd, with sd_action A lifted to sd.
Unfolded = namedtuple("Unfolded",
                      "certificate final final_action sd sd_action iso")


def sd_deformation(K, A):
    """sd_deformation, then its unfold onto the barycentric subdivision of
    K, built here."""
    d = hb.sd_deformation(K, A)
    sd_action = hb.lift_action_to_order_complex(
        A, hb.order_complex(K))
    iso = hb.unfold_subdivision(d.final, d.final_action, sd_action)
    return Unfolded(*d, sd_action.cx, sd_action, iso)


def assert_same_cells(K1, K2):
    """K1 and K2 have the same cells: the same payloads, and for each the
    same dimension and the same covers, compared by payload."""
    assert len(K1) == len(K2) and set(K1.index) == set(K2.index)
    for i, p in enumerate(K1.payloads):
        j = K2.index[p]
        assert K1.dims[i] == K2.dims[j], fmt_payload(p)
        assert ({K1.payloads[k] for k in K1.down[i]}
                == {K2.payloads[k] for k in K2.down[j]}), fmt_payload(p)


def product_square():
    """A square as a product of two segments: cells are pairs of faces."""
    def P(*sets):
        return tuple(frozenset(s) for s in sets)

    cells = [
        (P("a", "x"), 0, []), (P("a", "y"), 0, []),
        (P("b", "x"), 0, []), (P("b", "y"), 0, []),
        (P("ab", "x"), 1, [P("a", "x"), P("b", "x")]),
        (P("ab", "y"), 1, [P("a", "y"), P("b", "y")]),
        (P("a", "xy"), 1, [P("a", "x"), P("a", "y")]),
        (P("b", "xy"), 1, [P("b", "x"), P("b", "y")]),
        (P("ab", "xy"), 2,
         [P("ab", "x"), P("ab", "y"), P("a", "xy"), P("b", "xy")]),
    ]
    return hb.CellComplex.from_graded_cells(cells), P("ab", "xy")


# -- elementary collapses: one orbit step on a collapse state --------------


def test_elementary_collapse_edge(solid_triangle):
    K = solid_triangle
    A = hb.trivial_action(K)
    eab, top = K.index[frozenset("ab")], K.index[frozenset("abc")]
    st = hb.CollapseState(K)
    assert hb.apply_orbit_step(st, A, "c", eab, top) == {eab: top}
    sub, _ = K.subcomplex(st.alive_ids())
    assert len(sub) == st.n_alive == 5
    assert frozenset("ab") not in sub.index
    assert frozenset("abc") not in sub.index
    assert sub.verify()
    assert st.fingerprint == sub.fingerprint


def test_elementary_collapse_not_free(hollow_triangle):
    # the vertex a lies in the two edges ab and ac
    K = hollow_triangle
    with pytest.raises(NotFree):
        hb.apply_orbit_step(hb.CollapseState(K), hb.trivial_action(K), "c",
                            K.index[frozenset("a")], K.index[frozenset("ab")])


def test_elementary_collapse_wrong_codimension(solid_triangle):
    # the triangle is the one facet above the vertex a, two dimensions up
    K = solid_triangle
    with pytest.raises(WrongCodimension):
        hb.apply_orbit_step(hb.CollapseState(K), hb.trivial_action(K), "c",
                            K.index[frozenset("a")], K.index[frozenset("abc")])


def test_elementary_collapse_orbit_share_coface():
    seg, A = seg_with_flip()
    x, y = seg.index[frozenset("x")], seg.index[frozenset("y")]
    with pytest.raises(OrbitNotIndependentlyFree):
        hb.apply_orbit_step(hb.CollapseState(seg), A, "c", min(x, y),
                            seg.index[frozenset("xy")])


def test_equivariant_elementary_collapse():
    two = hb.CellComplex.from_simplices([frozenset("abc"), frozenset("pqr")])
    swap = dict(zip("abcpqr", "pqrabc"))

    def act(p):
        return frozenset(swap[v] for v in p)

    A = hb.GroupAction.symmetric(two, [act], [(1, 0)])
    ids = {s: two.index[frozenset(s)] for s in ("ab", "pq", "abc", "pqr")}
    assert A.orbit(ids["ab"]) == (ids["ab"], ids["pq"])
    st = hb.CollapseState(two)
    orbit = hb.apply_orbit_step(st, A, "c", ids["ab"], ids["abc"])
    assert orbit == {ids["ab"]: ids["abc"], ids["pq"]: ids["pqr"]}
    sub, _ = two.subcomplex(st.alive_ids())
    assert len(sub) == 10
    # the swap still acts on what is left, and freely
    B = hb.GroupAction.symmetric(sub, [act], [(1, 0)])
    assert B.verify()
    assert B.is_free()


# -- collapse state and orbit steps ----------------------------------------


def test_collapse_state_fingerprint(solid_triangle):
    st = hb.CollapseState(solid_triangle)
    assert st.fingerprint == solid_triangle.fingerprint
    eab = solid_triangle.index[frozenset("ab")]
    top = solid_triangle.index[frozenset("abc")]
    st.set_alive([top, eab], False)
    sub, _ = solid_triangle.subcomplex(st.alive_ids())
    assert st.fingerprint == sub.fingerprint
    st.set_alive([eab, top], True)
    assert st.fingerprint == solid_triangle.fingerprint
    assert st.n_alive == 7


def test_apply_orbit_step_collapse_and_expand(solid_triangle):
    A = hb.trivial_action(solid_triangle)
    eab = solid_triangle.index[frozenset("ab")]
    top = solid_triangle.index[frozenset("abc")]
    st = hb.CollapseState(solid_triangle)
    assert hb.apply_orbit_step(st, A, "c", eab, top) == {eab: top}
    assert st.n_alive == 5
    assert hb.apply_orbit_step(st, A, "e", eab, top) == {eab: top}
    assert st.fingerprint == solid_triangle.fingerprint


def test_apply_orbit_step_rejections(solid_triangle):
    A = hb.trivial_action(solid_triangle)
    K = solid_triangle
    eab, eac = K.index[frozenset("ab")], K.index[frozenset("ac")]
    top = K.index[frozenset("abc")]
    va = K.index[frozenset("a")]
    st = hb.CollapseState(K)

    with pytest.raises(WrongCodimension):
        hb.apply_orbit_step(st, A, "c", va, top)            # codim 2
    with pytest.raises(WrongCodimension):
        hb.apply_orbit_step(st, A, "c", eab, eac)           # codim 0
    with pytest.raises(VerificationError, match="not a cover"):
        hb.apply_orbit_step(st, A, "c", va, K.index[frozenset("bc")])
    with pytest.raises(InputError):
        hb.apply_orbit_step(st, A, "sideways", eab, top)
    # a cell with two alive cofacets is not free
    with pytest.raises(NotFree):
        hb.apply_orbit_step(st, A, "c", va, eab)
    # dead cells cannot be collapsed
    st2 = hb.CollapseState(K, alive=[va])
    with pytest.raises(NotFree):
        hb.apply_orbit_step(st2, A, "c", eab, top)
    # the flip swaps x and y and fixes xy: y is not the least cell of its
    # orbit, and x and y share their facet
    seg, flip = seg_with_flip()
    x, y = seg.index[frozenset("x")], seg.index[frozenset("y")]
    xy = seg.index[frozenset("xy")]
    with pytest.raises(VerificationError, match="not the orbit represent"):
        hb.apply_orbit_step(hb.CollapseState(seg), flip, "c", max(x, y), xy)
    with pytest.raises(OrbitNotIndependentlyFree):
        hb.apply_orbit_step(hb.CollapseState(seg), flip, "c", min(x, y), xy)


def _explicit_action(K, name, moves):
    """The unchecked action of Z_2 = <name | name^2> on K, where name
    permutes the vertex names by moves (a bijection of the cells)."""
    return hb.GroupAction.from_payload_maps(
        K, [lambda p: frozenset(moves.get(v, v) for v in p)], [name],
        check=False, order=2, relations=[((0, 0), ())])


def _replay_one_step(K, A, sigma, facet, removed):
    """Replay, from all of K, a collapse certificate of one step at sigma
    with its facet, whose run's end fingerprint claims that the cells
    `removed` are gone; cells are given as vertex names."""
    def ids(cells):
        return {K.index[frozenset(c)] for c in cells}
    [s], [f] = ids([sigma]), ids([facet])
    end = "%032x" % K.subcomplex(set(range(len(K))) - ids(removed))[0] \
        .fingerprint
    cert = hb.DeformationCertificate.from_json_obj(
        {"endpoints": ["%032x" % K.fingerprint, end],
         "runs": [[None, end, ["c", s, f]]]})
    return hb.replay_collapse_certificate(K, A, cert)


def test_step_closed_under_generators_but_two_orbits():
    # the flip swaps ab with cd and pq with rs: {a, c, p, r} is closed under
    # it, with facets carried along, but it is two orbits, and a step at a
    # moves only the orbit {a, c}
    K = hb.CellComplex.from_simplices(map(frozenset, ["ab", "cd", "pq",
                                                     "rs"]))
    A = _explicit_action(K, "flip", {"a": "c", "c": "a", "b": "d", "d": "b",
                                     "p": "r", "r": "p", "q": "s", "s": "q"})
    state = _replay_one_step(K, A, "a", "ab", ["a", "c", "ab", "cd"])
    assert state.n_alive == len(K) - 4
    with pytest.raises(VerificationError,
                       match=r"^run 0: the state after step 0 is not the "
                             r"run's end fingerprint$"):
        _replay_one_step(K, A, "a", "ab",
                         ["a", "c", "p", "r", "ab", "cd", "pq", "rs"])


def test_step_facets_misaligned_by_a_stabilizer():
    # the flip fixes m but swaps its cofacets am and bm: the orbit {m} is
    # not free, so no step moves it
    K = hb.CellComplex.from_simplices(map(frozenset, ["am", "bm"]))
    A = _explicit_action(K, "flip", {"a": "b", "b": "a"})
    with pytest.raises(OrbitNotIndependentlyFree,
                       match=r"^the orbit of cell \{m\} is not free$"):
        hb.apply_orbit_step(hb.CollapseState(K), A, "c",
                            K.index[frozenset("m")], K.index[frozenset("am")])


def test_step_refused_on_an_orbit_with_a_stabilizer():
    # Z_6 = <g | g^6> acts through Z_3, rotating the edges ab, cd and ef:
    # the orbit {a, c, e} has 3 cells, not 6, and every element carries
    # the facets along, yet the step is refused, built or replayed
    K = hb.CellComplex.from_simplices(map(frozenset, ["ab", "cd", "ef"]))
    rot = {"a": "c", "c": "e", "e": "a", "b": "d", "d": "f", "f": "b"}
    A = hb.GroupAction.from_payload_maps(
        K, [lambda p: frozenset(rot[v] for v in p)], ["g"], order=6,
        relations=[((0,) * 6, ())])
    a = K.index[frozenset("a")]
    state = hb.CollapseState(K)
    with pytest.raises(OrbitNotIndependentlyFree,
                       match=r"^the orbit of cell \{a\} is not free$"):
        hb.apply_orbit_step(state, A, "c", a, K.index[frozenset("ab")])
    assert state.n_alive == len(K)
    with pytest.raises(OrbitNotIndependentlyFree,
                       match=r"^step 0 \(collapse at cell %d \{a\}\): the "
                             r"orbit of cell \{a\} is not free$" % a):
        _replay_one_step(K, A, "a", "ab", ["a", "c", "e", "ab", "cd", "ef"])


def test_cone_cell_image_that_is_not_a_cone_cell():
    # the swap of y and z is a bijection of the cells of xy + z but not an
    # automorphism: at the orbit {x} it maps the cone over y, in the star
    # of x, to a cone over z, which the stage does not build
    K = hb.CellComplex.from_simplices(map(frozenset, ["xy", "z"]))
    y, z = K.index[frozenset("y")], K.index[frozenset("z")]
    swap = list(range(len(K)))
    swap[y], swap[z] = z, y
    A = hb.GroupAction(K, [swap], ["swap"], check=False, order=2,
                       relations=[((0, 0), ())])
    with pytest.raises(VerificationError,
                       match="generator 'swap' does not permute the cells"):
        stellar_stage(K, A, K.index[frozenset("x")])


def test_cone_cells_checked_against_the_relations(hollow_triangle):
    # the rotation of order 3 claimed as a generator with the relation
    # r r = 1: the relation check on the stage's new cells catches it
    A = z3_action(hollow_triangle)
    bad = hb.GroupAction(hollow_triangle, A.perms, ["r"], False, order=2,
                         relations=[((0, 0), ())])
    with pytest.raises(VerificationError,
                       match="relation 'r' 'r' = 1 fails at cell"):
        stellar_stage(
            hollow_triangle, bad, hollow_triangle.index[frozenset("ab")])


def test_stellar_stage_stuck_when_a_stabilizer_moves_the_anchor():
    # the flip fixes the edge xy and swaps its vertices, so it would move
    # the anchor x of the orbit {xy}: that orbit is not free, and leg A
    # refuses it
    seg, A = seg_with_flip()
    with pytest.raises(Stuck,
                       match=r"^the orbit of cell \{x,y\} is not free$"):
        stellar_stage(seg, A, seg.index[frozenset("xy")])


def test_stellar_stage_checks_its_expansions_fill_the_universe(
        solid_triangle, monkeypatch):
    # leg A with its top pair dropped expands every cone cell but two, and
    # the build refuses to go on to leg B
    leg_a_pairs = collapse._leg_a_pairs

    def short(L, *args):
        mu, key = leg_a_pairs(L, *args)
        del mu[max(mu, key=lambda x: (L.dims[x], x))]
        return mu, key

    monkeypatch.setattr(collapse, "_leg_a_pairs", short)
    A = hb.trivial_action(solid_triangle)
    with pytest.raises(Stuck,
                       match="^cone expansion did not fill the universe$"):
        stellar_stage(
            solid_triangle, A, solid_triangle.index[frozenset("abc")])


def test_apply_orbit_step_codimension():
    # a cover relation jumping two dimensions is caught by the step checker
    K = hb.CellComplex.from_graded_cells([("v", 0, []), ("c", 2, ["v"])])
    A = hb.trivial_action(K)
    st = hb.CollapseState(K)
    with pytest.raises(WrongCodimension):
        hb.apply_orbit_step(st, A, "c", 0, 1)


def test_step_equivariance_enforced():
    # orbit of x is {x, y}: a step at x moves y too, and under the flip
    # both would take the facet xy
    seg, A = seg_with_flip()
    with pytest.raises(OrbitNotIndependentlyFree):
        _replay_one_step(seg, A, "x", "xy", ["x", "xy"])
    # the same with a free flip: the step at x moves y and its facet yb
    # too, so a run end that says only x and xa are gone does not match
    two = hb.CellComplex.from_simplices([frozenset("xa"), frozenset("yb")])
    A2 = _explicit_action(two, "flip", {"x": "y", "y": "x", "a": "b",
                                        "b": "a"})
    _replay_one_step(two, A2, "x", "xa", ["x", "y", "xa", "yb"])
    with pytest.raises(VerificationError, match="not the run's end finger"):
        _replay_one_step(two, A2, "x", "xa", ["x", "xa"])


def test_steps_on_orbits_that_are_not_free_with_the_word_table_known():
    # with the table read from a free orbit, a step at a fixed cell is
    # refused as one whose orbit is not free, and a free orbit whose
    # members share their facet still fails
    seg, A = seg_with_flip()
    x, y = seg.index[frozenset("x")], seg.index[frozenset("y")]
    assert A.orbit(x) == (x, y) and A.words is not None
    with pytest.raises(OrbitNotIndependentlyFree,
                       match="^facets of one orbit coincide$"):
        hb.apply_orbit_step(hb.CollapseState(seg), A, "c", x,
                            seg.index[frozenset("xy")])
    K = hb.CellComplex.from_simplices(map(frozenset, ["am", "bm"]))
    A = _explicit_action(K, "flip", {"a": "b", "b": "a"})
    A.orbit(K.index[frozenset("a")])
    assert A.words is not None
    with pytest.raises(OrbitNotIndependentlyFree,
                       match=r"^the orbit of cell \{m\} is not free$"):
        hb.apply_orbit_step(hb.CollapseState(K), A, "c",
                            K.index[frozenset("m")], K.index[frozenset("am")])


def test_free_orbit_step_names_the_member_a_search_meets_first(matchings):
    # the first collapse step of K3_122's matching, with the facets of the
    # orbit's fourth and sixth members, in search order, dead: the step
    # fails at the fourth, as a search from sigma meets it first
    M = matchings["K3_122"]
    run = hb.matching_to_collapse(M.sd, M.action, M)
    _, sigma, facet = run.certificate.runs[0][2][0]
    A = M.action
    members = A._search(sigma)
    assert len(members) == A.order == 6
    dead = {M.mu[members[3]], M.mu[members[5]]}
    state = hb.CollapseState(
        M.sd, alive=[i for i in range(len(M.sd)) if i not in dead])
    with pytest.raises(NotFree, match="^collapse step touches dead cell %s$"
                       % re.escape(fmt_payload(M.sd.payloads[members[3]]))):
        hb.apply_orbit_step(state, A, "c", sigma, facet)


def test_settle_forgets_the_cells_that_died(matchings):
    # a store after two stellar stages of K3_122's box: settling forgets
    # exactly the cells that are dead, and no live cell keeps an up link to
    # one of them
    box = matchings["K3_122"].box
    store = collapse._CellStore(box.cx, box.action)
    for ob in collapse._schedule(box.cx, box.action)[:2]:
        collapse._stellar_stage(store, ob[0], None)
    assert store.removed
    dead = [i for i, a in enumerate(store.alive) if not a]
    store.settle()
    assert store.dead == dead and store.removed == []
    gone = set(dead)
    for i, p in enumerate(store.payloads):
        assert (p is None) == (i in gone)
        if i in gone:
            assert store.down[i] == store.up[i] == ()
        else:
            assert store.index[p] == i and gone.isdisjoint(store.up[i])
    assert len(store.index) == store.n_alive


def test_store_orbits_down_the_word_table(matchings):
    # after some stages, every cell of the store has the orbit a search
    # gives, in the search's order, down a table of |G| - 1 rows
    box = matchings["K_4^3"].box
    store = collapse._CellStore(box.cx, box.action)
    for ob in collapse._schedule(box.cx, box.action)[:5]:
        collapse._stellar_stage(store, ob[0], None)
    assert len(store.words) == store.order - 1
    for i in range(len(store.payloads)):
        assert store._orbit_list(i) == store._search(i)


def test_replayed_steps_never_search_free_orbits(certificates, corpus,
                                                 monkeypatch):
    # every orbit of the K_4^3 and K3_122 certificates is free, so an
    # action (or cell store) searches an orbit only until that search has
    # given it its word table, and every step reads its two orbit lists
    # down the table
    for name in ("K_4^3", "K3_122"):
        cert = certificates[name]
        searched_with_table, table_reads, steps = [], [], []

        def search(self, i, original=hb.GroupAction._search):
            if self.words is not None:
                searched_with_table.append(i)
            return original(self, i)

        def orbit_list(self, i, original=hb.GroupAction._orbit_list):
            if self.words is not None:
                table_reads.append(i)
            return original(self, i)

        def step(*args, original=collapse.apply_orbit_step):
            steps.append(args[3])
            return original(*args)

        for cls in (hb.GroupAction, collapse._CellStore):
            monkeypatch.setattr(cls, "_search", search)
            monkeypatch.setattr(cls, "_orbit_list", orbit_list)
        monkeypatch.setattr(collapse, "apply_orbit_step", step)
        replays(corpus[name], cert)
        monkeypatch.undo()
        assert searched_with_table == [], name
        assert len(steps) == sum(len(s["certificate"]) for s in cert.stages
                                 if s["kind"] == "deformation"), name
        assert len(table_reads) >= 2 * len(steps) > 0, name


# -- certificates -----------------------------------------------------------


def test_certificate_json_round_trip_and_reverse(matchings):
    M = matchings["K3_122"]
    run = hb.matching_to_collapse(M.sd, M.action, M)
    cert = run.certificate
    obj = cert.to_json_obj()
    s = json.dumps(obj, sort_keys=True)
    back = hb.DeformationCertificate.from_json_obj(json.loads(s))
    assert back == cert
    assert cert.reversed().reversed() == cert
    assert cert.reversed().endpoints == cert.endpoints[::-1]
    with pytest.raises(InputError):
        hb.DeformationCertificate.from_json_obj({"endpoints": ["zz"]})


def test_matching_to_collapse_bookkeeping(matchings):
    M = matchings["K3_122"]
    run = hb.matching_to_collapse(M.sd, M.action, M)
    cert = run.certificate
    assert len(cert) == 58
    assert run.cells_moved == 696 == 2 * len(M.sigma())
    assert cert.endpoints[0] == M.sd.fingerprint
    # endpoint complex is exactly the critical subcomplex
    crit = hb.verify_critical_isomorphism(M).critical
    assert cert.endpoints[1] == crit.fingerprint
    assert crit.payloads == [M.sd.payloads[i] for i in M.critical]
    # the action is free, so every step moves a whole 6-element orbit
    [(universe, end, steps)] = cert.runs
    assert universe is None and end == cert.endpoints[1]
    assert all(len(M.action.orbit(s[1])) == 6 for s in steps)


def test_collapse_refuses_an_off_representative_swap(matchings):
    # the partners of two members of one Sigma orbit, neither its least,
    # trade places: the steps read mu only at least members, so they stay
    # as they were, and the equivariance check refuses the matching
    M = matchings["K3_122"]
    xs = M.action._orbit_list(M.sigma()[0])
    a, b = xs[1], xs[2]
    mu = dict(M.mu)
    mu[a], mu[b] = mu[b], mu[a]
    bad = hb.Matching(M.graph, M.hom, M.box, M.sd, M.action, M.tags, mu)
    refusal = "^" + re.escape("matching is not equivariant at cell %s: it "
                              "is matched with %s, the action gives %s"
                              % tuple(map(fmt_payload, map(
                                  M.sd.payloads.__getitem__,
                                  (a, M.mu[b], M.mu[a])))))
    with pytest.raises(Stuck, match=refusal):
        hb.matching_to_collapse(M.sd, M.action, bad)


def test_replay_collapse_certificate_and_tampering(matchings):
    M = matchings["K3_122"]
    run = hb.matching_to_collapse(M.sd, M.action, M)
    cert = run.certificate
    state = hb.replay_collapse_certificate(M.sd, M.action, cert)
    assert state.alive_ids() == sorted(M.critical)

    def rejected(obj):
        bad = hb.DeformationCertificate.from_json_obj(obj)
        with pytest.raises(VerificationError):
            hb.replay_collapse_certificate(M.sd, M.action, bad)

    # the collapse of the version 4 fixture has these steps, reversed, in
    # another order: its rows are the version 5 rows with the fingerprint
    # after each step, and the last of those is the end of the version 5 run
    old = json.loads(fixture("K3_122", 4))["stages"][3]["certificate"]
    new = cert.reversed().to_json_obj()
    assert new["endpoints"] == old["endpoints"]
    [[universe, end, *rows]], [[_, *old_rows]] = new["runs"], old["runs"]
    assert universe is None
    assert sorted(rows) == sorted(row[:3] for row in old_rows)
    assert end == old_rows[-1][3] == new["endpoints"][1]

    # tamper: swap steps 0 and 24, which do not commute: the facet of step
    # 24 is a face of the facet of step 0, so it is not maximal before it
    obj = cert.to_json_obj()
    steps = obj["runs"][0][2:]
    assert steps[24][2] in M.sd.down[steps[0][2]]
    steps[0], steps[24] = steps[24], steps[0]
    obj["runs"][0][2:] = steps
    with pytest.raises(NotFree, match=r"^step 0 \(collapse at cell %d .*\): "
                       r"facet .* is not maximal in the alive set$"
                       % steps[0][1]):
        hb.replay_collapse_certificate(
            M.sd, M.action, hb.DeformationCertificate.from_json_obj(obj))
    # steps 3 and 4 commute: swapped, they are another valid collapse of
    # the same cells, which replays to the same end
    obj = cert.to_json_obj()
    steps = obj["runs"][0][2:]
    steps[3], steps[4] = steps[4], steps[3]
    obj["runs"][0][2:] = steps
    swapped = hb.DeformationCertificate.from_json_obj(obj)
    assert hb.replay_collapse_certificate(M.sd, M.action, swapped) \
        .alive_ids() == sorted(M.critical)

    # tamper: sigma becomes another member of its orbit
    obj = cert.to_json_obj()
    sigma = obj["runs"][0][2][1]
    obj["runs"][0][2][1] = M.action.orbit(sigma)[-1]
    rejected(obj)

    # tamper: the run's end fingerprint
    obj = cert.to_json_obj()
    obj["runs"][0][1] = "0" * 32
    rejected(obj)

    # tamper: wrong endpoint fingerprint
    obj = cert.to_json_obj()
    obj["endpoints"][1] = "0" * 32
    rejected(obj)

    # tamper: a stellar universe named in a collapse
    obj = cert.to_json_obj()
    obj["runs"][0][0] = "0" * 32
    rejected(obj)


def test_collapse_state_refuses_ids_outside_the_universe(matchings):
    # an alive set with an id that is no cell of the universe is an input
    # error naming the first such id: one past the end, -1, and True, which
    # is not cell 1
    M = matchings["K_4^3"]
    cert = hb.matching_to_collapse(M.sd, M.action, M).certificate.reversed()
    critical = sorted(M.critical)
    hb.replay_collapse_certificate(M.sd, M.action, cert, start_alive=critical)
    n = len(M.sd)
    for bad in (10 ** 9, n, -1, True):
        message = r"^cell id %r is outside the %d-cell universe$" % (bad, n)
        with pytest.raises(InputError, match=message):
            hb.replay_collapse_certificate(M.sd, M.action, cert,
                                           start_alive=critical + [bad, -2])
        with pytest.raises(InputError, match=message):
            hb.CollapseState(M.sd, alive=[bad])


def test_collapse_states_do_not_share_degrees(matchings):
    # Each state starts from a copy of the universe's up-degrees and
    # changes it; a state that changed the shared count would make the
    # next replay or collapse of the same complex fail or differ.
    M = matchings["K3_122"]
    first = hb.matching_to_collapse(M.sd, M.action, M)
    for _ in range(2):
        state = hb.replay_collapse_certificate(M.sd, M.action,
                                               first.certificate)
        assert state.fingerprint == first.certificate.endpoints[1]
        assert state.alive_ids() == sorted(M.critical)
    again = hb.matching_to_collapse(M.sd, M.action, M)
    assert again.certificate == first.certificate
    assert again.certificate.endpoints == first.certificate.endpoints
    want = M.sd.up_degrees()
    state = hb.CollapseState(M.sd)
    state.updeg[M.critical[0]] += 1
    assert hb.CollapseState(M.sd).updeg == want
    assert M.sd.up_degrees() == want


def test_matching_path_builds_no_cofaces_of_sd(corpus):
    # Nothing on the matching path asks sd B_edge(H) for cofaces, so its
    # up tuples stay unbuilt; the states count cofacets from down.
    M = hb.build_matching(corpus["K3_122"])
    hb.verify_critical_isomorphism(M)
    run = hb.matching_to_collapse(M.sd, M.action, M)
    hb.replay_collapse_certificate(M.sd, M.action, run.certificate)
    assert "up" not in vars(M.sd)


def _shared(perms, others):
    """The lists in perms that are also in others, by identity."""
    theirs = {id(p) for p in others}
    return [p for p in perms if id(p) in theirs]


def test_transported_actions_share_no_lists(matchings, monkeypatch):
    # A transported action takes over the lists its caller built, so they
    # must be new: the cell store extends its own lists at every stage.
    M = matchings["K3_122"]
    A = M.box.action
    sd = hb.order_complex(M.box.cx)
    lifted = hb.lift_action_to_order_complex(A, sd)
    assert _shared(lifted.perms, A.perms) == []
    critical_action = hb.verify_critical_isomorphism(M).critical_action
    assert _shared(critical_action.perms, M.action.perms) == []
    stores = []

    class RecordingStore(collapse._CellStore):
        def __init__(self, K, A):
            super().__init__(K, A)
            stores.append(self)

    monkeypatch.setattr(collapse, "_CellStore", RecordingStore)
    d = hb.sd_deformation(M.box.cx, A)
    stage = stellar_stage(
        M.hom.cx, M.hom.action, M.hom.cx.cells_of_dim(M.hom.cx.max_dim)[0])
    box_store, hom_store = stores
    assert _shared(d.final_action.perms,
                   A.perms + lifted.perms + box_store.perms) == []
    assert _shared(stage.universe_action.perms + stage.final_action.perms,
                   M.hom.action.perms + hom_store.perms) == []
    # transport and unchecked construction take their lists over; checked
    # construction copies them
    mine = [list(p) for p in A.perms]
    assert A.transport(M.box.cx, mine).perms[0] is mine[0]
    unchecked = hb.GroupAction(M.box.cx, mine, A.labels, False,
                               order=A.order, relations=A.relations)
    assert unchecked.perms[0] is mine[0]
    checked = hb.GroupAction(M.box.cx, mine, A.labels, order=A.order,
                             relations=A.relations)
    assert _shared(checked.perms, mine) == []


def test_critical_isomorphism(matchings):
    M = matchings["K3_122"]
    iso = hb.verify_critical_isomorphism(M)
    assert len(iso.map) == 198
    # the map preserves covers (spot-check; the full check ran inside)
    for i in range(0, len(iso.map), 13):
        want = {iso.map[j] for j in iso.sd_hom.down[i]}
        assert want == set(iso.critical.down[iso.map[i]])


def test_critical_subcomplex_built_once(corpus, monkeypatch):
    # the stage-3 check builds the critical subcomplex and its action, and
    # the collapse, before or after it, ends at its fingerprint without
    # building it
    subcomplexes = []
    subcomplex = hb.CellComplex.subcomplex

    def counting(self, *args, **kwargs):
        subcomplexes.append(len(self))
        return subcomplex(self, *args, **kwargs)

    monkeypatch.setattr(hb.CellComplex, "subcomplex", counting)
    for first_check in (True, False):
        M = hb.build_matching(corpus["K3_122"])
        del subcomplexes[:]
        if first_check:
            iso = hb.verify_critical_isomorphism(M)
        run = hb.matching_to_collapse(M.sd, M.action, M)
        if not first_check:
            iso = hb.verify_critical_isomorphism(M)
        assert subcomplexes == [len(M.sd)]
        assert run.certificate.endpoints[1] == iso.critical.fingerprint
        assert iso.critical.payloads == [M.sd.payloads[i]
                                         for i in M.critical]
        assert iso.critical_action.cx is iso.critical


def _matching_key(M, fixed, sigma):
    """The order key of a collapse step of the matching M at chain sigma:
    chain length descending, then the box dimension of the chain's topmost
    non-product descending; fixed[i] tells if box cell i is a product."""
    chain = M.sd.payloads[sigma]
    x = [i for i in chain if not fixed[i]][-1]
    return -len(chain), -M.box.cx.dims[x]


def _innermost(p):
    while type(p) is tuple and len(p) == 3 and p[0] == CONE:
        p = p[2]
    return p


def _stellar_key(K, direction, sigma, facet):
    """The order key of a step of a stellar run on the cells K: leg A's
    expansions by cone-cell dimension, toggled coordinate descending, then
    leg B's collapses by open-star dimension descending.  The toggled
    coordinate is where the innermost bases of the cone cells differ, or 0
    unless both are products."""
    if direction == "c":
        return 1, -K.dims[sigma], 0
    bases = [_innermost(K.payloads[x]) for x in (sigma, facet)]
    j = 0
    if all(type(b) is tuple and all(isinstance(q, frozenset) for q in b)
           for b in bases):
        j = next(k for k, (p, q) in enumerate(zip(*bases)) if p != q)
    return 0, K.dims[facet], -j


def test_every_run_follows_its_order_key(matchings, monkeypatch):
    # the matching collapse by chain length and the dimension of its
    # topmost non-product, and each stellar run, recorded as replay applies
    # it, by cone-cell dimension and toggled coordinate, then by open-star
    # dimension; the keys are recomputed from the payloads here
    keys = []
    apply_steps = collapse._apply_steps

    def recording(state, action, steps, first, to_state, *args):
        keys.append([_stellar_key(state, d, to_state(s), to_state(f))
                     for d, s, f in steps])
        return apply_steps(state, action, steps, first, to_state, *args)

    for name, M in sorted(matchings.items()):
        fixed = hb.ip_tables(M.box)[0]
        for _, _, steps in hb.matching_to_collapse(
                M.sd, M.action, M).certificate.runs:
            run = [_matching_key(M, fixed, s) for _, s, _ in steps]
            assert run == sorted(run), name
        with monkeypatch.context() as m:
            m.setattr(collapse, "_apply_steps", recording)
            for bundle in (M.hom, M.box):
                d = hb.sd_deformation(bundle.cx, bundle.action)
                hb.replay_sd_deformation(bundle.cx, bundle.action,
                                         d.certificate)
    assert len(keys) > 100
    assert all(run == sorted(run) for run in keys)
    # some run expands cone cells of one dimension toggling two coordinates
    assert any(len({(k[1], k[2]) for k in run if k[0] == 0})
               > len({k[1] for k in run if k[0] == 0}) for run in keys)


def test_steps_out_of_key_order_fail_the_step_checks(matchings):
    # the order is checked, not trusted: the matching collapse, and leg B
    # of a stellar run, applied in reversed key order fail at their first
    # step, named with its cell
    M = matchings["K3_122"]
    cert = hb.matching_to_collapse(M.sd, M.action, M).certificate
    [(universe, end, steps)] = cert.runs
    back = hb.DeformationCertificate(cert.endpoints,
                                     [(universe, end, steps[::-1])])
    sigma = steps[-1][1]
    label = re.escape(fmt_payload(M.sd.payloads[sigma]))
    with pytest.raises(NotFree, match=r"^step 0 \(collapse at cell %d %s\): "
                       % (sigma, label)):
        hb.replay_collapse_certificate(M.sd, M.action, back)

    K, A = M.hom.cx, M.hom.action
    cert = hb.sd_deformation(K, A).certificate
    first = 0
    for j, (universe, end, steps) in enumerate(cert.runs):
        k = [d for d, _, _ in steps].index("c")
        if len(steps) - k > 1:
            break
        first += len(steps)
    runs = list(cert.runs)
    runs[j] = (universe, end, steps[:k] + steps[k:][::-1])
    with pytest.raises(NotFree, match=r"^step %d \(collapse at cell %d \S+\): "
                       % (first + k, steps[-1][1])):
        hb.replay_sd_deformation(
            K, A, hb.DeformationCertificate(cert.endpoints, runs))


# -- stellar deformation -----------------------------------------------------


def test_stellar_deformation_matches_direct_subdivision(hollow_triangle):
    A = z3_action(hollow_triangle)
    e = hollow_triangle.index[frozenset("ab")]
    st = stellar_stage(hollow_triangle, A, e)
    assert_same_cells(st.final, stellar_subdivision(hollow_triangle, A, e))
    # the run replays from a fresh store of K to the same end
    store = collapse._CellStore(hollow_triangle, A)
    collapse._stellar_stage(store, e, None, (st.run, 0, 0))
    assert store.fingerprint == st.final.fingerprint
    # expansions first (into the cone universe), then collapses
    universe, end, steps = st.run
    assert end == st.final.fingerprint
    dirs = [s[0] for s in steps]
    k = dirs.index("c")
    assert all(d == "e" for d in dirs[:k])
    assert all(d == "c" for d in dirs[k:])
    assert universe == st.universe.fingerprint


def test_stellar_deformation_product_square():
    K, sq_pay = product_square()
    A = hb.trivial_action(K)
    sq = K.index[sq_pay]
    st = stellar_stage(K, A, sq)
    assert_same_cells(st.final, stellar_subdivision(K, A, sq))
    assert st.final.dim_counts() == [5, 8, 4]


def test_sd_deformation_trivial_and_replay(solid_triangle):
    A = hb.trivial_action(solid_triangle)
    d = sd_deformation(solid_triangle, A)
    sd = hb.order_complex(solid_triangle)
    assert len(d.final) == 25
    assert len(d.certificate) == 23
    assert d.sd.fingerprint_hex == sd.fingerprint_hex
    assert len(d.iso) == 25
    final, action = hb.replay_sd_deformation(
        solid_triangle, A, d.certificate)
    assert final.fingerprint_hex == d.final.fingerprint_hex
    assert action.verify()


def test_sd_deformation_equivariant(hollow_triangle):
    A = z3_action(hollow_triangle)
    d = sd_deformation(hollow_triangle, A)
    assert d.final_action.order == 3
    assert len(d.final) == 12
    # iso maps the deformation endpoint onto sd equivariantly; verified
    # inside, but run the explicit table check end to end again
    hb.verify_iso_ids(d.final, d.sd, d.iso, d.final_action, d.sd_action)


def test_sd_deformation_checks_the_subdivision_it_is_given(
        solid_triangle, hollow_triangle):
    # the end complex is checked against the caller's subdivision, so a
    # subdivision of another complex is refused
    A = hb.trivial_action(solid_triangle)
    other = hb.order_complex(hollow_triangle)
    d = hb.sd_deformation(solid_triangle, A)
    with pytest.raises(VerificationError):
        hb.unfold_subdivision(d.final, d.final_action,
                              hb.trivial_action(other))


def _part_digest(tag, *parts):
    return int.from_bytes(hashlib.blake2b(
        tag + b"".join(d.to_bytes(16, "big") for d in parts),
        digest_size=16).digest(), "big")


def _digests_from_parts(K, cx):
    """The digests of the cells of cx, a complex built by stellar stages on
    K, recomputed from their payloads: a cell of K keeps its digest, an
    apex (BARY, q) digests b"A" and the digest of q, and a cone cell
    (CONE, apex, base) b"C", its apex's digest and its base's."""
    digest_of = {}

    def digest(p):
        if p in K.index:
            return K.digests[K.index[p]]
        if p not in digest_of:
            digest_of[p] = (
                _part_digest(b"A", K.digests[K.index[p[1]]]) if p[0] == BARY
                else _part_digest(b"C", digest(p[1]), digest(p[2])))
        return digest_of[p]
    return [digest(p) for p in cx.payloads]


@pytest.mark.parametrize("side", ["hom", "box"])
def test_stellar_cell_digests_from_parts(side, matchings):
    # the digest of every cell a stage appends follows the rule: from its
    # parts, not from its payload's encoding.  Hom cells are products and
    # box cells vertex sets; the cells a stage appends are cones on both,
    # so a stage at a maximal cell ends at the cells of the reference
    # subdivision (tests/stellar_reference.py)
    for name, M in sorted(matchings.items()):
        bundle = getattr(M, side)
        K, A = bundle.cx, bundle.action
        if K.max_dim > 0:
            top = K.up_degrees().index(0)
            st = stellar_stage(K, A, top)
            assert st.universe.digests == _digests_from_parts(
                K, st.universe), name
            assert_same_cells(st.final, stellar_subdivision(K, A, top))
        d = sd_deformation(K, A)
        assert d.final.digests == _digests_from_parts(K, d.final), name


@pytest.mark.parametrize("side", ["hom", "box"])
def test_stellar_universe_digests_are_distinct(side, matchings, monkeypatch):
    # no two cells of any stage's universe share a digest, and the universe
    # fingerprint is the sum of its cells' digests
    universes = []
    cone_universe = collapse._cone_universe

    def recording(store, *args):
        U, apex_id, cone_id = cone_universe(store, *args)
        digests = [d for d, a in zip(store.digests, store.alive) if a]
        digests += [store.digests[i] for i in U.new]
        assert len(digests) == len(U)
        assert len(set(digests)) == len(digests)
        assert sum(digests) % 2 ** 128 == U.fingerprint
        universes.append(U)
        return U, apex_id, cone_id

    monkeypatch.setattr(collapse, "_cone_universe", recording)
    for name, M in sorted(matchings.items()):
        bundle = getattr(M, side)
        before = len(universes)
        d = sd_deformation(bundle.cx, bundle.action)
        assert len(universes) - before == len(d.certificate.runs), name
    assert len(universes) > 0


def test_sd_deformation_stuck_on_reflection(hollow_triangle):
    # under the full S_3 action the stabilizer of an edge flips its
    # endpoints: no equivariant anchor exists and the deformation refuses
    A = hb.GroupAction.symmetric(
        hollow_triangle,
        [lambda p, m=m: frozenset(m.get(v, v) for v in p)
         for m in ({"a": "b", "b": "a"}, {"b": "c", "c": "b"})],
        hb.s_r_generators(3))
    with pytest.raises(Stuck):
        sd_deformation(hollow_triangle, A)


def hom_deformation(name, version):
    """The JSON form of the Hom deformation (stage 1) of a fixture."""
    return json.loads(fixture(name, version))["stages"][0]["certificate"]


def v5_runs(runs):
    """Runs [universe, step, ...] of versions 2 to 4, whose steps are rows
    [direction, sigma, facet, after], in the version 5 layout: [universe,
    end, step, ...], the end being the last step's after."""
    return [[run[0], run[-1][3]] + [row[:3] for row in run[1:]]
            for run in runs]


def same_runs(runs, others):
    """Whether two lists of version 5 runs hold the same universes, ends
    and sets of steps, in any order within a run."""
    return (len(runs) == len(others)
            and all(a[:2] == b[:2] and sorted(a[2:]) == sorted(b[2:])
                    for a, b in zip(runs, others)))


def test_replay_sd_deformation_tamper(solid_triangle, matchings):
    # the triangle's deformation, and the Hom deformation of K_4^3
    A = hb.trivial_action(solid_triangle)
    d = sd_deformation(solid_triangle, A)
    M = matchings["K_4^3"]
    hom = M.hom
    hom_def = hb.sd_deformation(hom.cx, hom.action)
    for K, A, clean in ((solid_triangle, A, d.certificate.to_json_obj()),
                        (hom.cx, hom.action,
                         hom_def.certificate.to_json_obj())):
        obj = json.loads(json.dumps(clean))
        obj["runs"][0][1] = "f" * 32
        bad = hb.DeformationCertificate.from_json_obj(obj)
        with pytest.raises(VerificationError):
            hb.replay_sd_deformation(K, A, bad)
        obj = json.loads(json.dumps(clean))
        obj["endpoints"] = ["f" * 32, obj["endpoints"][1]]
        bad = hb.DeformationCertificate.from_json_obj(obj)
        with pytest.raises(VerificationError):
            hb.replay_sd_deformation(K, A, bad)
        # the universe of the first run
        obj = json.loads(json.dumps(clean))
        obj["runs"][0][0] = "0" * 32
        bad = hb.DeformationCertificate.from_json_obj(obj)
        with pytest.raises(VerificationError):
            hb.replay_sd_deformation(K, A, bad)
    # the version 3 fixture's Hom deformation has the same steps, but its
    # universes digest the stellar cells' payload encodings
    old = hom_deformation("K_4^3", 3)
    old["runs"] = v5_runs(old["runs"])
    old = hb.DeformationCertificate.from_json_obj(old)
    assert ([steps for _, _, steps in old.runs]
            == [steps for _, _, steps in hom_def.certificate.runs])
    rep = collapse._schedule(hom.cx, hom.action)[0][0]
    with pytest.raises(VerificationError,
                       match=r"^run 0 \(schedule cell %d %s\): universe "
                       r"fingerprint mismatch$"
                       % (rep, re.escape(fmt_payload(hom.cx.payloads[rep])))):
        hb.replay_sd_deformation(hom.cx, hom.action, old)


# -- iso tables and the main theorem ----------------------------------------


def test_verify_iso_ids_rejects(hollow_triangle):
    # each failure names the cell by its payload label
    K2 = hb.CellComplex.from_simplices(
        [frozenset("pq"), frozenset("qs"), frozenset("sp")])
    ren = {"a": "p", "b": "q", "c": "s"}
    f = [K2.index[frozenset(ren[v] for v in p)]
         for p in hollow_triangle.payloads]
    assert hb.verify_iso_ids(hollow_triangle, K2, f)

    def refused(table, message, *actions):
        with pytest.raises(VerificationError, match="^%s$" % re.escape(
                message)):
            hb.verify_iso_ids(hollow_triangle, K2, table, *actions)

    def swapped(i, j):
        bad = list(f)
        bad[i], bad[j] = bad[j], bad[i]
        return bad

    bad = list(f)
    bad[0] = bad[1]
    refused(bad, "cells {a} and {b} both map to {q}")
    refused(f[:-1], "isomorphism table has 5 rows, expected 6")
    bad = list(f)
    bad[0] = len(f)
    refused(bad, "cell {a} maps to 6, which is not a cell id below 6")
    # rows [i, f(i)] are not a map
    refused([[i, j] for i, j in enumerate(f)],
            "cell {a} maps to [0, 0], which is not a cell id below 6")
    # a vertex swapped with an edge, and two vertices swapped
    refused(swapped(0, 3), "dimension or covers are not preserved at cell "
            "{a}, which maps to {p,q}")
    refused(swapped(0, 1), "dimension or covers are not preserved at cell "
            "{a,c}, which maps to {p,s}")
    # a target whose last cell has the covers of an edge but dimension 2
    odd = hb.CellComplex(K2.payloads, K2.dims[:-1] + [2], K2.down)
    with pytest.raises(VerificationError, match="^%s$" % re.escape(
            "dimension or covers are not preserved at cell {b,c}, which "
            "maps to {q,s}")):
        hb.verify_iso_ids(hollow_triangle, odd, f)
    # the rotation a -> b -> c against p -> s -> q
    A1 = z3_action(hollow_triangle)
    refused(f, "map is not equivariant at cell {a}, generator 'r'", A1,
            z3_action(K2, "psq"))
    refused(f, "group actions are not aligned", A1)


def test_isomorphism_checkers_refuse_actions_on_other_complexes():
    # C acts on the 5-cell path K, B on the 7-cell triangle L, both by one
    # generator "t" of order 2.  Neither front certifies an identity of K
    # against B, in either order, nor against an action on K whose
    # permutation is too short
    K = hb.CellComplex.from_simplices([frozenset("ab"), frozenset("bc")])
    L = hb.CellComplex.from_simplices([frozenset("abc")])
    C = _explicit_action(K, "t", {"a": "c", "c": "a"})
    B = _explicit_action(L, "t", {"a": "b", "b": "a"})
    short = hb.GroupAction(K, [[0, 1, 2, 3]], ["t"], False, order=2,
                           relations=[((0, 0), ())])
    f = list(range(len(K)))
    assert hb.verify_iso_ids(K, K, f, C, C) == f
    assert hb.verify_isomorphism(K, K, lambda p: p, C, C) == f
    for A1, A2, side, A in ((C, B, "target", B), (B, C, "source", B),
                            (C, short, "target", short)):
        message = ("the action is on a complex of %d cells with fingerprint "
                   "%s, not on the %s of the map (5 cells, %s)"
                   % (len(A.cx), A.cx.fingerprint_hex[:8], side,
                      K.fingerprint_hex[:8]))
        with pytest.raises(InputError, match="^%s$" % re.escape(message)):
            hb.verify_iso_ids(K, K, f, A1, A2)
        with pytest.raises(InputError, match="^%s$" % re.escape(message)):
            hb.verify_isomorphism(K, K, lambda p: p, A1, A2)


def test_main_theorem_certificate_round_trip(corpus, certificates):
    H = corpus["K3_112"]
    cert = certificates["K3_112"]
    names = [s.get("name") for s in cert.stages]
    assert names == ["subdivide-hom", "unfold-hom-subdivision",
                     "products-into-sd-box", "expand-to-sd-box",
                     "fold-box-subdivision", "desubdivide-box"]
    obj = json.loads(json.dumps(cert.to_json_obj()))
    # an isomorphism stage stores no map, only its two fingerprints
    assert [sorted(s) for s in obj["stages"][1::3]] \
        == [["from", "kind", "name", "to"]] * 2
    back = hb.MainTheoremCertificate.from_json_obj(obj)
    assert back == cert
    replays(H, back)


def test_main_theorem_tamper_detection(corpus, certificates):
    for name in ("K3_112", "K3_122"):
        H = corpus[name]
        clean = json.dumps(certificates[name].to_json_obj())

        # each fingerprint of each isomorphism stage, with the stage named
        for k in (1, 2, 4):
            for end in ("from", "to"):
                obj = json.loads(clean)
                stage = obj["stages"][k]
                stage[end] = "%032x" % (int(stage[end], 16) ^ 1)
                with pytest.raises(VerificationError, match="^%s: endpoints "
                                   "do not match$" % stage["name"]):
                    hb.replay_main_theorem(H, obj)

        obj = json.loads(clean)
        obj["endpoints"][0] = "1" * 32
        with pytest.raises(VerificationError):
            hb.replay_main_theorem(
                H, hb.MainTheoremCertificate.from_json_obj(obj))

        obj = json.loads(clean)
        obj["stages"][0]["name"] = "warp"
        with pytest.raises(VerificationError):
            hb.replay_main_theorem(
                H, hb.MainTheoremCertificate.from_json_obj(obj))

        # the end of the last run of stage 6, which its replay from the
        # end starts from
        obj = json.loads(clean)
        obj["stages"][5]["certificate"]["runs"][-1][1] = "0" * 32
        with pytest.raises(VerificationError):
            hb.replay_main_theorem(
                H, hb.MainTheoremCertificate.from_json_obj(obj))


@pytest.mark.parametrize("tamper", sorted(STRUCTURED_TAMPERS))
def test_structured_tamper_is_refused_naming_its_stage(corpus, certificates,
                                                        tamper):
    # K3_122: each stage that is edited has runs and steps to spare, and a
    # replay refuses the edit with the stage's name first
    edit, stage = STRUCTURED_TAMPERS[tamper]
    obj = certificates["K3_122"].to_json_obj()
    edit(obj)
    with pytest.raises(VerificationError, match="^%s: " % re.escape(stage)):
        hb.replay_main_theorem(corpus["K3_122"], obj)


def _zero_fingerprints(monkeypatch):
    """Cut every fingerprint to 0 bits, so that each complex, state and
    universe has fingerprint 0: a fingerprint then stands for no set of
    cells, and only the checks that compare cells themselves can refuse."""
    for module in (cellcx, collapse):
        monkeypatch.setattr(module, "_MASK128", 0)


def _drop_last_expansions(stage, k):
    """The JSON form of a stage-4 certificate, one run of expansions, with
    its last k steps dropped: what is left is a valid expansion that stops
    short of sd B_edge(H)."""
    [run] = stage["runs"]
    assert len(run) > 2 + k and all(step[0] == "e" for step in run[2:])
    return dict(stage, runs=[run[:-k]])


def test_stage_4_must_reach_every_cell_of_sd_box(corpus, monkeypatch):
    # a stage 4 that leaves cells of sd B_edge(H) unexpanded is refused
    # even where its fingerprints match, as they do here for any set of
    # cells: the replay counts the live cells at the stage's end
    _zero_fingerprints(monkeypatch)
    H = corpus["K3_122"]
    clean = hb.main_theorem_certificate(H).to_json_obj()
    replays(H, clean)
    sd_cells = len(hb.order_complex(hb.box_edge(H).cx))
    for k in (1, 3):
        obj = json.loads(json.dumps(clean))
        obj["stages"][3]["certificate"] = _drop_last_expansions(
            obj["stages"][3]["certificate"], k)
        with pytest.raises(VerificationError, match="^%s$" % re.escape(
                "expand-to-sd-box: the expansion reaches %d of the %d cells "
                "of sd B_edge(H)" % (sd_cells - 12 * k, sd_cells))):
            hb.replay_main_theorem(H, obj)


def test_verify_certificate_must_reach_every_cell_of_sd_box(
        corpus, monkeypatch, tmp_path, capsys):
    # `hombox verify --certificate` replays stage 4 through the same check
    _zero_fingerprints(monkeypatch)
    graph = tmp_path / "graph.json"
    graph.write_text(corpus["K3_122"].to_json_str())
    path = tmp_path / "stage4.json"
    argv = ["verify", "--input", str(graph), "--certificate", str(path)]
    assert main(argv) == 0
    assert main(argv) == 0
    capsys.readouterr()
    path.write_text(canonical_json(
        _drop_last_expansions(json.loads(path.read_text()), 1)))
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "verification failed: expand-to-sd-box: the expansion reaches 882 "
        "of the 894 cells of sd B_edge(H)\n")


def _record(monkeypatch, module, name, before=None, after=None):
    """Wrap module.name: before(*args) runs before each call and
    after(result, *args) after it."""
    original = getattr(module, name)

    def wrapped(*args, **kwargs):
        if before is not None:
            before(*args)
        result = original(*args, **kwargs)
        if after is not None:
            after(result, *args)
        return result

    monkeypatch.setattr(module, name, wrapped)


@pytest.mark.parametrize("name", ["K_4^3", "K3_122"])
def test_build_runs_the_box_stages_first(corpus, name, monkeypatch):
    # the box stellar stages run before any order complex is built, and
    # their end complex E_box is gone when stage 3 starts
    H = corpus[name]
    box = hb.box_edge(H).cx.fingerprint
    events, e_box = [], []

    def deformed(d, K, *args):
        side = "box" if K.fingerprint == box else "hom"
        events.append("%s stages" % side)
        if side == "box":
            e_box.append(weakref.ref(d.final))

    def stage_3(*args):
        events.append("stage 3")
        assert len(e_box) == 1 and e_box[0]() is None, \
            "the box stages have not run, or E_box is alive, at stage 3"

    _record(monkeypatch, collapse, "sd_deformation", after=deformed)
    # the build calls order_complex by the name it imports
    for module in (collapse, morse):
        _record(monkeypatch, module, "order_complex",
                before=lambda *args: events.append("order complex"))
    _record(monkeypatch, collapse, "verify_critical_isomorphism",
            before=stage_3)
    hb.main_theorem_certificate(H)
    assert events == ["box stages", "order complex", "stage 3",
                      "order complex", "hom stages"]


@pytest.mark.parametrize("name", ["K_4^3", "K3_122"])
def test_replay_runs_stage_6_first(corpus, name, monkeypatch):
    # stage 6 replays before stages 3 and 4, which build sd B_edge(H), and
    # its end complex is gone when stage 1 starts
    H = corpus[name]
    cert = hb.main_theorem_certificate(H).to_json_obj()
    box = hb.box_edge(H).cx.fingerprint
    events, e_box = [], []

    def replayed(end, K, *args):
        side = "box" if K.fingerprint == box else "hom"
        events.append("%s stages" % side)
        if side == "box":
            e_box.append(weakref.ref(end[0]))

    def replay(K, *args, **kwargs):
        if K.fingerprint != box:
            assert len(e_box) == 1 and e_box[0]() is None, \
                "stage 6 has not run, or E_box is alive, at stage 1"

    _record(monkeypatch, collapse, "replay_sd_deformation", before=replay,
            after=replayed)
    _record(monkeypatch, collapse, "replay_critical_expansion",
            before=lambda *args: events.append("stages 3 and 4"))
    replays(H, cert)
    assert events == ["box stages", "stages 3 and 4", "hom stages"]


def test_isomorphism_stages_regenerate_their_maps(matchings, certificates,
                                                  monkeypatch):
    # replay checks each isomorphism it regenerates: a table that is no
    # isomorphism fails with the stage named.  Each table here sends every
    # cell to one cell of the target
    M = matchings["K3_122"]
    obj = certificates["K3_122"].to_json_obj()
    check = collapse.verify_iso_ids
    # the stage is chosen by K's payload type: Hom cells are products
    # (tuples), box cells vertex sets (frozensets).  An end complex lists
    # the vertices of K first, in K's order
    for stage, K, kind in (("unfold-hom-subdivision", M.hom.cx, tuple),
                           ("fold-box-subdivision", M.box.cx, frozenset)):
        monkeypatch.setattr(
            collapse, "verify_iso_ids",
            lambda K1, K2, f, *a, kind=kind: check(
                K1, K2, [0] * len(f) if isinstance(K1.payloads[0], kind)
                else f, *a))
        with pytest.raises(VerificationError, match="^%s$" % re.escape(
                "%s: cells %s and %s both map to (0)"
                % (stage, fmt_payload(K.payloads[0]),
                   fmt_payload(K.payloads[1])))):
            hb.replay_main_theorem(M.graph, obj)
    monkeypatch.undo()
    product = hb.i_image_ids(M.hom, M.box)[0]
    monkeypatch.setattr(collapse, "i_image_ids",
                        lambda hom, box: [product] * len(hom.cx))
    # the first chain of two items maps to a chain that repeats an item
    sdh = hb.order_complex(M.hom.cx)
    two = next(ch for ch in sdh.payloads if len(ch) == 2)
    with pytest.raises(VerificationError, match="^%s$" % re.escape(
            "products-into-sd-box: cell %s maps to %s, which is not a cell "
            "of the target" % (fmt_payload(two),
                               fmt_payload((product, product))))):
        hb.replay_main_theorem(M.graph, obj)


# sha256 of the canonical JSON of the theorem certificates of versions 1
# to 4, the fixtures.  The version 1 values were recorded when each
# stellar stage rebuilt its complexes from scratch, the others as the
# builder of each version wrote them.  No version before 5 replays.
CERT_V1_SHA256 = {
    "K_4^2": "352e87faec2699581fb8038aa9c11b9069f280fc05e617c7a7068685261ad3f5",
    "K_4^3": "5111d0f96caca58332e4d0c069a251a6bfad41ec52dfde3f34eb10fdd043870a",
    "K3_122": "ab699838870e9c2020059134884eec4ad6ab1487c930425dc29d6fd6146bb3c6",
}
CERT_V2_SHA256 = {
    "K_4^2": "c107bd564e337bf8055dfa9b6616dff760007ec6f64ec04e2b7587ac5ddb8d6c",
    "K_4^3": "b09312bd78ce4aeef74324b452a069dd3dc77848f9e265c75e47b3b325ab9356",
    "K3_122": "c987c42901b8466eebb7e9b44318104940000ea547e15b9a765c368b22cdb1d3",
}
CERT_V3_SHA256 = {
    "K_4^2": "ab8fc2a6469b7eee33271c34cc407c8543a6c3b6f98a665c29eb8651077584d2",
    "K_4^3": "3e76d2ffc655de0a0de6b0041ee1750f4cbbf79d956186afff6f5b62e843f417",
    "K3_122": "2e5716a45bbb06c68748ff321679e5674d2fc48b911439a0c7fa74f3f82ccd8e",
}
CERT_V4_SHA256 = {
    "K_4^2": "8ae77174285aee69eace5cadf0df2216610a9d814b8a1ea03f6854dbb9c78049",
    "K_4^3": "f87a92fbd252352a552575871e2ef3c1bcec2c2f263a4840138bcb02481aad05",
    "K3_122": "f162ae8375fc269ff0d4a4e518daa68c933a0e9794152d6757f706dce62ac976",
}
# sha256 and bytes of the canonical JSON of the version 5 theorem
# certificates of the corpus.  The hashes of K_4^2, K_5^3 and K3_122 changed
# when each matching came to be collapsed in the order of its key, which
# reorders steps within a run; the bytes did not.
CERT_V5_SHA256 = {
    "K_2^2": "e0c7e5ed40134150ebc6db9332c253c4ee0563d75f91cb129524dc58be430812",
    "K_3^2": "5a9aedd4d54c5c06507c10fc8db204a10ba3c46e8016b2308090b2ea9873acff",
    "K_4^2": "bca54802f9fb247fd06ced497a9c671d7ddf791d0129017f2ad1119ce886095d",
    "K_3^3": "ec45c3a6209be5ff952a45a8e51eff5c4b5ee19c42fbe9deb054bee0efbc499f",
    "K_4^3": "252396e74bdc8b60808ad5bb2b04bd05dc955e082a55369fba65fd488aed87f0",
    "K_5^3": "98b1782411d052a2e6ccd590a80b12d2a29db1e82e68b23dd82240667386a137",
    "K3_112": "8bea6f08050535da8d46393628855ef2758556d3213c069c8d006a49b097fdd6",
    "K3_122": "6778eea54fd492bb0bb2f772d8acdeedd4edae5d3b473e9b5750e711c58cea27",
}
CERT_V5_BYTES = {
    "K_2^2": 989, "K_3^2": 1629, "K_4^2": 16743, "K_3^3": 989,
    "K_4^3": 2311, "K_5^3": 76949, "K3_112": 1203, "K3_122": 5553,
}


def _refused(matchings, name, version, sha256):
    """The fixture of the given version keeps its bytes, and replay refuses
    it by its version, asking for a rebuild."""
    M = matchings[name]
    text = fixture(name, version)
    assert hashlib.sha256(text.encode()).hexdigest() == sha256
    message = ("^main theorem certificate of format version %d, which this "
               "hombox no longer replays: rebuild it with `hombox theorem`$"
               % version)
    with pytest.raises(InputError, match=message):
        hb.MainTheoremCertificate.from_json_obj(json.loads(text))
    with pytest.raises(InputError, match=message):
        hb.replay_main_theorem(M.graph, json.loads(text))


@pytest.mark.parametrize("name", sorted(CERT_V1_SHA256))
def test_main_theorem_certificate_bytes_pinned(matchings, name):
    _refused(matchings, name, 1, CERT_V1_SHA256[name])


@pytest.mark.parametrize("name", sorted(CERT_V2_SHA256))
def test_main_theorem_certificate_v2_bytes_pinned(matchings, name):
    _refused(matchings, name, 2, CERT_V2_SHA256[name])


@pytest.mark.parametrize("name", sorted(CERT_V3_SHA256))
def test_main_theorem_certificate_v3_bytes_pinned(matchings, name):
    _refused(matchings, name, 3, CERT_V3_SHA256[name])


@pytest.mark.parametrize("name", sorted(CERT_V4_SHA256))
def test_main_theorem_certificate_v4_bytes_pinned(matchings, name):
    _refused(matchings, name, 4, CERT_V4_SHA256[name])


@pytest.mark.parametrize("name", sorted(CERT_V4_SHA256))
def test_main_theorem_certificate_v5_bytes_pinned(corpus, certificates,
                                                  name):
    text = canonical_json(certificates[name].to_json_obj())
    assert hashlib.sha256(text.encode()).hexdigest() == CERT_V5_SHA256[name]
    replays(corpus[name], json.loads(text))
    # against version 4, only the fingerprints after each step went, and
    # the order of the steps within a run: the endpoints, the isomorphism
    # stages, each run's steps, universe and end are the same, and a run's
    # end is the fingerprint after its last step of version 4
    new, old = json.loads(text), json.loads(fixture(name, 4))
    assert new["endpoints"] == old["endpoints"]
    for k in (1, 2, 4):
        assert new["stages"][k] == old["stages"][k]
    for k in (0, 3, 5):
        runs = [s["stages"][k]["certificate"] for s in (new, old)]
        assert runs[0]["endpoints"] == runs[1]["endpoints"]
        assert same_runs(runs[0]["runs"], v5_runs(runs[1]["runs"]))


@pytest.mark.parametrize("name", sorted(CERT_V5_BYTES))
def test_main_theorem_certificate_v5_size(certificates, name):
    # the byte count of each corpus certificate, and no per-step data: a
    # deformation run holds two fingerprints, its universe (None for the
    # collapse) and its end, and then steps [direction, sigma, facet]
    obj = certificates[name].to_json_obj()
    text = canonical_json(obj)
    assert len(text) == CERT_V5_BYTES[name]
    assert hashlib.sha256(text.encode()).hexdigest() == CERT_V5_SHA256[name]
    for stage in obj["stages"]:
        if stage["kind"] != "deformation":
            continue
        for universe, end, *steps in stage["certificate"]["runs"]:
            assert universe is None or re.fullmatch("[0-9a-f]{32}", universe)
            assert re.fullmatch("[0-9a-f]{32}", end)
            assert (universe is None) == (stage["name"] == "expand-to-sd-box")
            assert steps and all(
                len(step) == 3 and step[0] in ("c", "e")
                and all(type(i) is int for i in step[1:]) for step in steps)


# sha256 of the version 5 fixture of K3_122, written before the steps of a
# run were sorted by their order key.
CERT_V5_UNSORTED_SHA256 = (
    "87445de5b78107e2aa5f9cb4e1fd2c2d130f67eb39164c29b6146e0971c394ab")


def test_version_5_certificate_in_an_earlier_step_order_replays(
        corpus, certificates):
    # a run is checked at its end only, so the fixture, whose runs hold the
    # steps of today's runs in another order, still replays
    text = fixture("K3_122", 5)
    assert hashlib.sha256(text.encode()).hexdigest() == CERT_V5_UNSORTED_SHA256
    replays(corpus["K3_122"], json.loads(text))
    old = json.loads(text)
    new = certificates["K3_122"].to_json_obj()
    assert old != new and old["endpoints"] == new["endpoints"]
    for a, b in zip(old["stages"], new["stages"]):
        if a["kind"] == "deformation":
            a, b = a["certificate"], b["certificate"]
            assert a["endpoints"] == b["endpoints"]
            assert same_runs(a["runs"], b["runs"])
        else:
            assert a == b


def test_replay_error_names_stage_and_step(certificates):
    # K3_112 and K3_122.  Stage 6 is replayed from its end, so the end of
    # its run k is the end of run n - 2 - k of the replay, which the error
    # names with its schedule cell and its last step, counted from the end;
    # its last run is run 0 of the replay, named with its schedule cell too
    for cert in (certificates["K3_112"], certificates["K3_122"]):
        clean = cert.to_json_obj()
        box = cert.box
        runs = clean["stages"][5]["certificate"]["runs"]
        schedule = collapse._schedule(box.cx, box.action)
        n = len(runs)
        for k in range(n):
            obj = json.loads(json.dumps(clean))
            obj["stages"][5]["certificate"]["runs"][k][1] = "f" * 32
            if k == n - 1:
                rep = schedule[0][0]
                pattern = (r"run 0 \(schedule cell %d %s\): the stage's last "
                           r"run does not end at its end fingerprint"
                           % (rep, re.escape(fmt_payload(
                               box.cx.payloads[rep]))))
            else:
                j = n - 2 - k
                rep = schedule[j][0]
                last = sum(len(run) - 2 for run in runs[k + 1:]) - 1
                pattern = (r"run %d \(schedule cell %d %s\): the state "
                           r"after step %d is not the run's end fingerprint"
                           % (j, rep, re.escape(fmt_payload(
                               box.cx.payloads[rep])), last))
            with pytest.raises(VerificationError, match="^desubdivide-box, "
                               "replayed reversed: %s$" % pattern):
                hb.replay_main_theorem(box.graph, obj)


def _another_last_step(K, A, j):
    """A collapse step other than the last step of stage j of the
    sd-deformation of K, valid in the state before that step, in the ids of
    the stage's universe; None if there is none."""
    store = collapse._CellStore(K, A)
    for ob in collapse._schedule(K, A)[:j + 1]:
        U, (_, _, steps) = collapse._stellar_stage(store, ob[0], None)
    last = [U.store_id(k) for k in steps[-1][1:]]
    hb.apply_orbit_step(store, store, "e", *last)
    for x in range(len(store.payloads)):
        if not store.alive[x] or store.updeg[x] != 1:
            continue
        [f] = [y for y in store.up[x] if store.alive[y]]
        if [x, f] == last:
            continue
        try:
            hb.apply_orbit_step(store, store, "c", x, f)
        except VerificationError:
            continue
        return ["c", U.local_id(x), U.local_id(f)]
    return None


def test_another_valid_step_fails_at_its_run_end(certificates):
    # the last step of a run of stage 1 swapped for another valid orbit
    # step: every step replays, and the run's end names the stage, the run
    # and its schedule cell
    cert = certificates["K3_122"]
    K, A = cert.hom.cx, cert.hom.action
    obj = cert.to_json_obj()
    runs = obj["stages"][0]["certificate"]["runs"]
    j, step = next((j, step) for j in range(len(runs))
                   for step in [_another_last_step(K, A, j)] if step)
    assert step != runs[j][-1]
    runs[j][-1] = step
    rep = collapse._schedule(K, A)[j][0]
    last = sum(len(run) - 2 for run in runs[:j + 1]) - 1
    pattern = (r"^subdivide-hom: run %d \(schedule cell %d %s\): the state "
               r"after step %d is not the run's end fingerprint$"
               % (j, rep, re.escape(fmt_payload(K.payloads[rep])), last))
    with pytest.raises(VerificationError, match=pattern):
        hb.replay_main_theorem(cert.hom.graph, obj)


def test_replay_rejects_cell_ids_outside_the_universe(solid_triangle,
                                                      matchings):
    # the triangle's deformation, and the Hom deformation (stage 1) of
    # K_4^3
    A = hb.trivial_action(solid_triangle)
    d = sd_deformation(solid_triangle, A)
    M = matchings["K_4^3"]
    hom = M.hom
    hom_def = hb.sd_deformation(hom.cx, hom.action)
    for K, A, clean in ((solid_triangle, A, d.certificate.to_json_obj()),
                        (hom.cx, hom.action,
                         hom_def.certificate.to_json_obj())):
        obj = json.loads(json.dumps(clean))
        obj["runs"][0][2][1] = 10 ** 6
        bad = hb.DeformationCertificate.from_json_obj(obj)
        with pytest.raises(InputError, match="outside the .*universe"):
            hb.replay_sd_deformation(K, A, bad)
        for value in (-1, True):
            obj = json.loads(json.dumps(clean))
            obj["runs"][0][2][2] = value
            with pytest.raises(InputError, match="facet"):
                hb.DeformationCertificate.from_json_obj(obj)


def _segment_certificate(path):
    """The segment xy with the trivial action, a certificate of the given
    path built on it and that path's replay: the collapse of x into xy, or
    the sd-deformation."""
    seg = hb.CellComplex.from_simplices([frozenset("xy")])
    A = hb.trivial_action(seg)
    if path == "collapse":
        end = seg.subcomplex([seg.index[frozenset("y")]])[0].fingerprint
        cert = hb.DeformationCertificate(
            (seg.fingerprint, end),
            [(None, end, [("c", seg.index[frozenset("x")],
                           seg.index[frozenset("xy")])])])
        return cert, lambda c: hb.replay_collapse_certificate(seg, A, c)
    cert = sd_deformation(seg, A).certificate
    return cert, lambda c: hb.replay_sd_deformation(seg, A, c)


@pytest.mark.parametrize("path", ["collapse", "subdivision"])
@pytest.mark.parametrize("field, value, message", [
    (0, "x", "unknown step direction 'x'"),
    (1, "a", r"cell id 'a' is outside the \d+-cell universe"),
    (2, True, r"cell id True is outside the \d+-cell universe"),
], ids=["direction", "str-sigma", "bool-facet"])
def test_replay_of_a_certificate_built_in_code(path, field, value, message):
    # a certificate built in code skips the parser's checks, so replay
    # itself refuses a step with another direction or a cell id that is
    # not a non-negative int, naming the step, as an InputError
    cert, replay = _segment_certificate(path)
    replay(cert)
    (universe, end, steps), = cert.runs
    step = list(steps[0])
    step[field] = value
    bad = hb.DeformationCertificate(
        cert.endpoints, [(universe, end, [tuple(step)] + steps[1:])])
    with pytest.raises(InputError, match=r"^step 0 \(.*\): %s$" % message):
        replay(bad)


def test_universe_store_ids_skip_the_dead(solid_triangle):
    # a stage's universe names its cells by their rank among the live store
    # cells, then the appended ones after them; once cells have died,
    # store_id inverts local_id on all of them
    A = hb.trivial_action(solid_triangle)
    store = collapse._CellStore(solid_triangle, A)
    deaths = []
    for ob in collapse._schedule(solid_triangle, A):
        U, _ = collapse._stellar_stage(store, ob[0], None)
        dead = set(U.dead)
        deaths.append(len(dead))
        cells = [s for s in range(U.new.start) if s not in dead] + list(U.new)
        assert len(cells) == len(U)
        assert [U.local_id(s) for s in cells] == list(range(len(U)))
        assert [U.store_id(U.local_id(s)) for s in cells] == cells
        for k in (len(U), -1, True):
            with pytest.raises(InputError, match="cell id %r is outside the "
                               "%d-cell universe" % (k, len(U))):
                U.store_id(k)
    assert deaths[0] == 0 and max(deaths) > 1


def test_certificate_versions(certificates):
    # version 5 parses; versions 1 to 4 (1 has no version field) are input
    # errors that name the version and ask for a rebuild, and any other
    # version is unknown
    obj = certificates["K_4^3"].to_json_obj()
    assert obj["version"] == 5
    assert hb.MainTheoremCertificate.from_json_obj(obj).to_json_obj() == obj
    for version in (0, 6, True, "5", None, [5], 5.0):
        with pytest.raises(InputError, match="unknown version"):
            hb.MainTheoremCertificate.from_json_obj(dict(obj, version=version))
    old = dict(obj)
    del old["version"]
    for bad, version in ((old, 1), (dict(obj, version=2), 2),
                         (dict(obj, version=3), 3), (dict(obj, version=4), 4)):
        with pytest.raises(InputError, match="format version %d, which .* "
                           "rebuild it with `hombox theorem`" % version):
            hb.MainTheoremCertificate.from_json_obj(bad)
    # a stage with a field its kind does not have, as a version 3
    # isomorphism stage with its map, is malformed
    for k, field in ((4, "map"), (3, "from")):
        bad = json.loads(json.dumps(obj))
        bad["stages"][k][field] = []
        with pytest.raises(InputError, match="stage %d .* has the fields"
                           % (k + 1)):
            hb.MainTheoremCertificate.from_json_obj(bad)


# -- the vertex orbits, which no stage stars ---------------------------------


def _corpus_complexes(matchings):
    """(name, K, A, sd action) for the box and Hom complexes of the corpus;
    the box's sd action is the matching's."""
    for name, M in sorted(matchings.items()):
        yield "box " + name, M.box.cx, M.box.action, M.action
        sd = hb.order_complex(M.hom.cx)
        yield ("hom " + name, M.hom.cx, M.hom.action,
               hb.lift_action_to_order_complex(M.hom.action, sd))


def _renamed(E, S, orbit):
    """The id map E -> S of a stellar subdivision S of E at a vertex orbit
    that renames each member m to its apex: a cell above m becomes the cone
    from the apex over its one facet that is not above m."""
    above = {c: m for m in orbit for c in E.cofaces(m)}
    f = []
    for i, p in enumerate(E.payloads):
        m = above.get(i)
        if m is not None:
            apex = (BARY, E.payloads[m])
            if i == m:
                p = apex
            else:
                [b] = [j for j in E.down[i] if above.get(j) != m]
                p = (CONE, apex, E.payloads[b])
        f.append(S.index[p])
    return f


def test_starring_a_vertex_orbit_renames_it(matchings):
    # the lemma the schedule rests on: where versions 1 and 2 starred a
    # vertex orbit of K, the complex E after the stages of positive
    # dimension, the stellar subdivision is E with each member renamed to
    # its apex, G-isomorphically.  The box, whose cells are simplices, is
    # such a complex itself; a Hom complex is not, as starring a square at
    # a corner cuts it in two triangles
    for label, K, A, sd_action in _corpus_complexes(matchings):
        d = hb.sd_deformation(K, A)
        hb.unfold_subdivision(d.final, d.final_action, sd_action)
        positive = [ob for ob in A.orbits() if K.dims[ob[0]] > 0]
        assert len(d.certificate.runs) == len(positive), label
        assert all(u is not None and steps
                   for u, _, steps in d.certificate.runs), label
        vertex = next(i for i in range(len(K)) if K.dims[i] == 0)
        pairs = [(d.final, d.final_action)]
        if label.startswith("box"):
            pairs.append((K, A))
        for E, EA in pairs:
            m = E.index[K.payloads[vertex]]
            st = stellar_stage(E, EA, m)
            assert_same_cells(st.final, stellar_subdivision(E, EA, m))
            f = _renamed(E, st.final, EA.orbit(m))
            hb.verify_iso_ids(E, st.final, f, EA, st.final_action)


def test_version_3_rejects_vertex_runs(corpus, certificates):
    # the schedule of version 3 on stars no vertex orbit: a vertex run
    # appended to a deformation, and the runs of a version 2 deformation,
    # which starred the vertex orbits too, are refused naming both counts;
    # the version 2 runs are rewritten in the version 5 layout
    obj = certificates["K_4^3"].to_json_obj()
    v2 = json.loads(fixture("K_4^3", 2))["stages"][0]["certificate"]
    v2["runs"] = v5_runs(v2["runs"])
    n4 = len(obj["stages"][0]["certificate"]["runs"])
    n2 = len(v2["runs"])
    assert n2 > n4
    bad = json.loads(json.dumps(obj))
    bad["stages"][0]["certificate"]["runs"].append(v2["runs"][-1])
    old = json.loads(json.dumps(obj))
    old["stages"][0]["certificate"] = v2
    for bad, runs in ((bad, n4 + 1), (old, n2)):
        with pytest.raises(VerificationError,
                           match=r"^subdivide-hom: certificate has %d stages "
                                 r"but the schedule needs %d$" % (runs, n4)):
            hb.replay_main_theorem(corpus["K_4^3"], bad)


def test_unfold_refuses_the_end_of_one_stellar_stage(solid_triangle):
    # unfold_subdivision maps the end of a whole sd-deformation onto sd K,
    # and refuses the end of one stellar stage, naming its first cone over
    # a cell of K that no stage starred, on vertex sets and products alike,
    # and a cone whose image is not a chain of K
    for K, top in ((solid_triangle, frozenset("abc")), product_square()):
        A = hb.trivial_action(K)
        d = sd_deformation(K, A)
        assert hb.unfold_subdivision(d.final, d.final_action,
                                     d.sd_action) == d.iso
        E = stellar_stage(K, A, K.index[top]).final
        cone = next(p for p in E.payloads if type(p) is tuple
                    and p[0] == CONE and K.dims[K.index[p[2]]] > 0)
        with pytest.raises(VerificationError, match="^%s$" % re.escape(
                "cell %s is not fully subdivided: it is a cone over %s, a "
                "cell of K" % (fmt_payload(cone), fmt_payload(cone[2])))):
            hb.unfold_subdivision(E, hb.trivial_action(E), d.sd_action)
        # a cone over a vertex, with its member set to that vertex's
        E = d.final
        i = next(i for i, dn in enumerate(E.down) if dn and not E.down[dn[0]])
        v = E.members[i] = E.members[E.down[i][0]]
        with pytest.raises(VerificationError, match="^%s$" % re.escape(
                "cell %s maps to (%d,%d), which is not a chain of K"
                % (fmt_payload(E.payloads[i]), v, v))):
            hb.unfold_subdivision(E, d.final_action, d.sd_action)


def _flattened(K, E, sd):
    """The id table of E, the end complex of an sd-deformation of K, onto sd
    K, read from the payloads: the reference for unfold_subdivision.  A cell
    of E is a vertex of K, an apex (BARY, q) of a cell q of K, or a cone
    (CONE, apex, base) over such a cell, so its chain is the sorted K-ids of
    the apexes' cells down its nested bases and of the innermost base."""
    def k_id(x):
        if type(x) is tuple and x[0] == BARY:
            return K.index[x[1]]
        assert K.dims[K.index[x]] == 0, fmt_payload(x)
        return K.index[x]

    table = []
    for p in E.payloads:
        ids = []
        while type(p) is tuple and p[0] == CONE:
            ids.append(k_id(p[1]))
            p = p[2]
        table.append(sd.index[tuple(sorted(ids + [k_id(p)]))])
    return table


def test_unfold_equals_the_flattened_cone_payloads(matchings):
    for label, K, A, sd_action in _corpus_complexes(matchings):
        d = hb.sd_deformation(K, A)
        iso = hb.unfold_subdivision(d.final, d.final_action, sd_action)
        assert iso == _flattened(K, d.final, sd_action.cx), label


def test_end_complex_builds_its_index_only_when_read(matchings):
    # the copy of the end complex out of the cell store builds no payload
    # index, and the unfold onto sd K reads none; the index is built on
    # first read, as every complex builds its own
    for label, K, A, sd_action in _corpus_complexes(matchings):
        d = hb.sd_deformation(K, A)
        hb.unfold_subdivision(d.final, d.final_action, sd_action)
        assert "index" not in vars(d.final), label
        assert d.final.index == {p: i for i, p in
                                 enumerate(d.final.payloads)}, label


def test_store_order_lists_every_cell_after_its_faces(matchings):
    # unfold_subdivision reads a cone's image from its base's row, an
    # earlier one: in the store a cell's covers have lower ids, through
    # every stage, so the end complex lists each cell after its faces
    for label, K, A, _ in _corpus_complexes(matchings):
        store = collapse._CellStore(K, A)
        for ob in collapse._schedule(K, A):
            collapse._stellar_stage(store, ob[0], None)
        E = store.complex(store.alive_ids())[0]
        for cx in (store, E):
            assert all(j < i for i, down in enumerate(cx.down)
                       for j in down), label
