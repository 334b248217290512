"""Collapsing: elementary G-collapses, the greedy engine, stellar and full
subdivision deformations, certificates, replay, and tamper detection."""

import hashlib
import itertools
import json
import re
from pathlib import Path

import pytest

import hombox as hb
from hombox import collapse
from hombox import (InputError, NotFree, OrbitNotIndependentlyFree, Stuck,
                    VerificationError, WrongCodimension)
from hombox.cellcx import BARY, CONE, fmt_payload
from hombox.cli import canonical_json

from conftest import elements, z3_action

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def fixture(name, version):
    """The theorem certificate of the given version, 1 or 2, that the CLI
    wrote for a corpus graph before the next version, as JSON text."""
    return (FIXTURES / ("theorem_v%d_%s.json"
                        % (version, name.replace("^", "_")))).read_text()


def seg_with_flip():
    seg = hb.CellComplex.from_simplices([frozenset("xy")])
    flip = {"x": "y", "y": "x"}
    A = hb.GroupAction.from_payload_maps(
        seg, [lambda p: p, lambda p: frozenset(flip[v] for v in p)], [0, 1])
    return seg, A


def sd_deformation(K, A):
    """sd_deformation onto the barycentric subdivision of K, built here."""
    sd = hb.barycentric_subdivision(K)
    return hb.sd_deformation(K, A, hb.lift_action_to_order_complex(A, sd))


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


# -- elementary collapses ---------------------------------------------------


def test_elementary_collapse_edge(solid_triangle):
    A = hb.trivial_action(solid_triangle)
    eab = solid_triangle.index[frozenset("ab")]
    g = hb.elementary_g_collapse(solid_triangle, A, eab)
    assert len(g.cx) == 5
    assert g.orbit == [eab]
    assert frozenset("ab") not in g.cx.index
    assert frozenset("abc") not in g.cx.index
    assert g.cx.verify()
    assert g.action.verify()


def test_elementary_collapse_not_free(hollow_triangle):
    A = hb.trivial_action(hollow_triangle)
    with pytest.raises(NotFree):
        hb.elementary_g_collapse(
            hollow_triangle, A, hollow_triangle.index[frozenset("ab")])


def test_elementary_collapse_wrong_codimension(solid_triangle):
    A = hb.trivial_action(solid_triangle)
    with pytest.raises(WrongCodimension):
        hb.elementary_g_collapse(
            solid_triangle, A, solid_triangle.index[frozenset("a")])


def test_elementary_collapse_orbit_share_coface():
    seg, A = seg_with_flip()
    with pytest.raises(OrbitNotIndependentlyFree):
        hb.elementary_g_collapse(seg, A, seg.index[frozenset("x")])


def test_equivariant_elementary_collapse():
    two = hb.CellComplex.from_simplices([frozenset("abc"), frozenset("pqr")])
    swap = dict(zip("abcpqr", "pqrabc"))
    A = hb.GroupAction.from_payload_maps(
        two, [lambda p: p, lambda p: frozenset(swap[v] for v in p)], [0, 1])
    eab = two.index[frozenset("ab")]
    g = hb.elementary_g_collapse(two, A, eab)
    assert len(g.cx) == 10
    assert g.orbit == sorted([eab, two.index[frozenset("pq")]])
    assert set(g.facets) == {two.index[frozenset("abc")],
                             two.index[frozenset("pqr")]}
    assert g.action.verify()
    assert g.action.is_free()


# -- collapse state and orbit steps ----------------------------------------


def test_collapse_state_fingerprint(solid_triangle):
    st = hb.CollapseState(solid_triangle)
    assert st.fingerprint == solid_triangle.fingerprint
    eab = solid_triangle.index[frozenset("ab")]
    top = solid_triangle.index[frozenset("abc")]
    st.remove(top)
    st.remove(eab)
    sub, _ = solid_triangle.subcomplex(st.alive_ids())
    assert st.fingerprint == sub.fingerprint
    st.add(eab)
    st.add(top)
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
    """The two-element action on K whose non-identity element, named name,
    permutes the vertex names by moves (a bijection of the cells)."""
    return hb.GroupAction.from_payload_maps(
        K, [lambda p: p, lambda p: frozenset(moves.get(v, v) for v in p)],
        ["e", name], check=False)


def _replay_v1_step(K, A, orbit, facets):
    """Replay, from all of K, a version 1 collapse certificate of one step
    that lists the orbit and facets given as vertex names."""
    ids = [K.index[frozenset(c)] for c in orbit]
    fp = "%032x" % K.fingerprint
    step = {"direction": "collapse", "sigma": ids[0], "orbit": ids,
            "facets": [K.index[frozenset(f)] for f in facets]}
    cert = hb.DeformationCertificate.from_json_obj(
        {"endpoints": [fp, fp], "stages": [[fp, fp, step]]}, version=1)
    hb.replay_collapse_certificate(K, A, cert)


def test_step_closed_under_generators_but_two_orbits():
    # the flip swaps ab with cd and pq with rs: {a, c, p, r} is closed under
    # it, with facets carried along, but it is two orbits
    K = hb.CellComplex.from_simplices(map(frozenset, ["ab", "cd", "pq",
                                                     "rs"]))
    A = _explicit_action(K, "flip", {"a": "c", "c": "a", "b": "d", "d": "b",
                                     "p": "r", "r": "p", "q": "s", "s": "q"})
    with pytest.raises(VerificationError,
                       match=r"not a single group orbit.* reach cell \{p\} "
                             r"from cell \{a\}"):
        _replay_v1_step(K, A, "acpr", ["ab", "cd", "pq", "rs"])


def test_step_facets_misaligned_by_a_stabilizer():
    # the flip fixes m but swaps its cofacets am and bm: no facet choice
    # for the orbit {m} commutes with it
    K = hb.CellComplex.from_simplices(map(frozenset, ["am", "bm"]))
    A = _explicit_action(K, "flip", {"a": "b", "b": "a"})
    with pytest.raises(VerificationError,
                       match="not equivariant under generator 'flip'"):
        hb.apply_orbit_step(hb.CollapseState(K), A, "c",
                            K.index[frozenset("m")], K.index[frozenset("am")])


def test_cone_cell_image_that_is_not_a_cone_cell():
    # the swap of y and z is a bijection of the cells of xy + z but not an
    # automorphism: at the orbit {x} it maps the cone over y, in the star
    # of x, to a cone over z, which the stage does not build
    K = hb.CellComplex.from_simplices(map(frozenset, ["xy", "z"]))
    y, z = K.index[frozenset("y")], K.index[frozenset("z")]
    swap = list(range(len(K)))
    swap[y], swap[z] = z, y
    A = hb.GroupAction(K, [list(range(len(K))), swap], ["e", "swap"],
                       check=False)
    with pytest.raises(VerificationError,
                       match="generator 'swap' does not permute the cells"):
        hb.stellar_deformation_certificate(K, A, K.index[frozenset("x")])


def test_cone_cells_checked_against_the_relations(hollow_triangle):
    # the rotation of order 3 claimed as a generator with the relation
    # r r = 1: the relation check on the stage's new cells catches it
    A = z3_action(hollow_triangle)
    bad = hb.GroupAction(hollow_triangle, A.perms, ["r"], False, 2,
                         [((0, 0), ())])
    with pytest.raises(VerificationError,
                       match="relation 'r' 'r' = 1 fails at cell"):
        hb.stellar_deformation_certificate(
            hollow_triangle, bad, hollow_triangle.index[frozenset("ab")])


def test_stellar_stage_stuck_when_a_stabilizer_moves_the_anchor():
    # the flip fixes the edge xy and swaps its vertices, so it moves the
    # anchor x of the orbit {xy}: carrying the anchor along the generators
    # meets xy again with the anchor y
    seg, A = seg_with_flip()
    with pytest.raises(Stuck,
                       match=r"stabilizer of cell \{x,y\} moves its anchor"):
        hb.stellar_deformation_certificate(seg, A, seg.index[frozenset("xy")])


def test_apply_orbit_step_codimension():
    # a cover relation jumping two dimensions is caught by the step checker
    K = hb.CellComplex.from_graded_cells([("v", 0, []), ("c", 2, ["v"])])
    A = hb.trivial_action(K)
    st = hb.CollapseState(K)
    with pytest.raises(WrongCodimension):
        hb.apply_orbit_step(st, A, "c", 0, 1)


def test_step_equivariance_enforced():
    # orbit of x is {x, y}: a version 1 step listing only x is not
    # action-closed
    seg, A = seg_with_flip()
    with pytest.raises(VerificationError):
        _replay_v1_step(seg, A, "x", ["xy"])
    # the same with a free flip: the listed orbit lacks y
    two = hb.CellComplex.from_simplices([frozenset("xa"), frozenset("yb")])
    A2 = _explicit_action(two, "flip", {"x": "y", "y": "x", "a": "b",
                                        "b": "a"})
    with pytest.raises(VerificationError,
                       match=r"not closed under the generators.* \{y\}"):
        _replay_v1_step(two, A2, "x", ["xa"])


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
    assert cert.endpoints[1] == run.final.fingerprint
    # endpoint complex is exactly the critical subcomplex
    crit, crit_action, _ = hb.critical_complex(M)
    assert run.final.fingerprint_hex == crit.fingerprint_hex
    # the action is free, so every step moves a whole 6-element orbit
    [(universe, steps)] = cert.runs
    assert universe is None
    assert all(len(M.action.orbit(s[1])) == 6 for s in steps)


def test_replay_collapse_certificate_and_tampering(matchings):
    M = matchings["K3_122"]
    run = hb.matching_to_collapse(M.sd, M.action, M)
    cert = run.certificate
    state = hb.replay_collapse_certificate(M.sd, M.action, cert)
    assert state.alive_ids() == sorted(M.critical)

    def rejected(obj, version):
        bad = hb.DeformationCertificate.from_json_obj(obj, version)
        if version == 1:  # stage 4 of the theorem is the collapse reversed
            bad = bad.reversed()
        with pytest.raises(VerificationError):
            hb.replay_collapse_certificate(M.sd, M.action, bad)

    # the collapse of each fixture replays, and is this one
    v1 = json.loads(fixture("K3_122", 1))["stages"][3]["certificate"]
    for version in (1, 2):
        obj = json.loads(fixture("K3_122", version))["stages"][3]
        old = hb.DeformationCertificate.from_json_obj(
            obj["certificate"], version).reversed()
        assert old.endpoints == cert.endpoints
        assert hb.replay_collapse_certificate(
            M.sd, M.action, old).alive_ids() == sorted(M.critical)
    # versions 2 and 3 write a collapse in the same rows
    assert (hb.DeformationCertificate.from_json_obj(
        json.loads(fixture("K3_122", 2))["stages"][3]["certificate"], 2)
        .reversed().runs == cert.runs)

    # tamper: swap two stages (fingerprint chain breaks)
    obj = json.loads(json.dumps(v1))
    obj["stages"][3], obj["stages"][4] = obj["stages"][4], obj["stages"][3]
    rejected(obj, 1)
    for version in (2, 3):
        obj = cert.to_json_obj()
        steps = obj["runs"][0]
        steps[4], steps[5] = steps[5], steps[4]
        rejected(obj, version)

    # tamper: drop one orbit member (equivariance check fires); versions 2
    # and 3 list no orbit, so there sigma becomes another member of its
    # orbit
    obj = json.loads(json.dumps(v1))
    step = obj["stages"][0][2]
    step["orbit"] = step["orbit"][:-1]
    step["facets"] = step["facets"][:-1]
    rejected(obj, 1)
    for version in (2, 3):
        obj = cert.to_json_obj()
        sigma = obj["runs"][0][1][1]
        obj["runs"][0][1][1] = M.action.orbit(sigma)[-1]
        rejected(obj, version)

    # tamper: wrong endpoint fingerprint
    for obj, version in ((json.loads(json.dumps(v1)), 1),
                         (cert.to_json_obj(), 2), (cert.to_json_obj(), 3)):
        end = 0 if version == 1 else 1  # version 1 holds the reversal
        obj["endpoints"][end] = "0" * 32
        rejected(obj, version)

    # tamper: a stellar universe named in a collapse
    for version in (2, 3):
        obj = cert.to_json_obj()
        obj["runs"][0][0] = "0" * 32
        rejected(obj, version)


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
    sd = hb.barycentric_subdivision(M.box.cx)
    lifted = hb.lift_action_to_order_complex(A, sd)
    assert _shared(lifted.perms, A.perms) == []
    run = hb.matching_to_collapse(M.sd, M.action, M)
    assert _shared(run.final_action.perms, M.action.perms) == []
    stores = []

    class RecordingStore(collapse._CellStore):
        def __init__(self, K, A):
            super().__init__(K, A)
            stores.append(self)

    monkeypatch.setattr(collapse, "_CellStore", RecordingStore)
    d = hb.sd_deformation(M.box.cx, A, lifted)
    stage = hb.stellar_deformation_certificate(
        M.hom.cx, M.hom.action, M.hom.cx.cells_of_dim(M.hom.cx.max_dim)[0])
    box_store, hom_store = stores
    assert _shared(d.final_action.perms,
                   A.perms + lifted.perms + box_store.perms) == []
    assert _shared(stage.universe_action.perms + stage.final_action.perms,
                   M.hom.action.perms + hom_store.perms) == []
    # transport takes its lists over; construction from every element, or
    # checked construction, copies them
    n = len(M.box.cx)
    mine = [list(p) for p in A.perms]
    assert A.transport(M.box.cx, mine).perms[0] is mine[0]
    checked = hb.GroupAction(M.box.cx, mine, A.labels, True, A.order,
                             A.relations)
    assert _shared(checked.perms, mine) == []
    every = [list(range(n))] + [list(q) for q in elements(A)
                                if q != tuple(range(n))]
    built = hb.GroupAction(M.box.cx, every, range(len(every)))
    assert built.order == 6 and _shared(built.perms, every) == []


def test_critical_isomorphism(matchings):
    M = matchings["K3_122"]
    iso = hb.verify_critical_isomorphism(M)
    assert len(iso.map) == 198
    # the map preserves covers (spot-check; the full check ran inside)
    for i in range(0, len(iso.map), 13):
        want = {iso.map[j] for j in iso.sd_hom.down[i]}
        assert want == set(iso.critical.down[iso.map[i]])


# -- stellar deformation -----------------------------------------------------


def test_stellar_deformation_matches_direct_subdivision(hollow_triangle):
    A = z3_action(hollow_triangle)
    e = hollow_triangle.index[frozenset("ab")]
    st = hb.stellar_deformation_certificate(hollow_triangle, A, e)
    direct = hb.stellar_g_subdivision(hollow_triangle, A, e)
    assert st.final.fingerprint_hex == direct.fingerprint_hex
    assert st.certificate.endpoints == (
        hollow_triangle.fingerprint, st.final.fingerprint)
    # expansions first (into the cone universe), then collapses
    [(universe, steps)] = st.certificate.runs
    dirs = [s[0] for s in steps]
    k = dirs.index("c")
    assert all(d == "e" for d in dirs[:k])
    assert all(d == "c" for d in dirs[k:])
    assert universe == st.universe.fingerprint


def test_stellar_deformation_product_square():
    K, sq_pay = product_square()
    A = hb.trivial_action(K)
    sq = K.index[sq_pay]
    st = hb.stellar_deformation_certificate(K, A, sq)
    direct = hb.stellar_subdivision_poset(K, A, sq)
    assert st.final.fingerprint_hex == direct.fingerprint_hex
    assert st.final.dim_counts() == [5, 8, 4]


def test_sd_deformation_trivial_and_replay(solid_triangle):
    A = hb.trivial_action(solid_triangle)
    d = sd_deformation(solid_triangle, A)
    sd = hb.barycentric_subdivision(solid_triangle)
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
    other = hb.barycentric_subdivision(hollow_triangle)
    with pytest.raises(VerificationError):
        hb.sd_deformation(solid_triangle, A, hb.trivial_action(other))


def _recomputed(cx):
    """cx rebuilt with every digest computed from canon_bytes."""
    return hb.CellComplex(cx.payloads, cx.dims, cx.down)


@pytest.mark.parametrize("side", ["hom", "box"])
def test_stellar_cells_encode_as_canon_bytes(side, matchings):
    # the cone cells' encodings are joined from their parts' encodings;
    # Hom cells are tuples (cone payloads), box cells frozensets (simplicial)
    bundle = getattr(matchings["K3_122"], side)
    K, A = bundle.cx, bundle.action
    st = hb.stellar_deformation_certificate(K, A, K.maximal_ids()[0])
    assert st.universe.digests == _recomputed(st.universe).digests
    d = sd_deformation(K, A)
    assert d.final.digests == _recomputed(d.final).digests


def test_sd_deformation_stuck_on_reflection(hollow_triangle):
    # under the full S_3 action the stabilizer of an edge flips its
    # endpoints: no equivariant anchor exists and the deformation refuses
    names = "abc"
    perms = []
    for p in itertools.permutations(range(3)):
        m = {names[i]: names[p[i]] for i in range(3)}
        perms.append(lambda pay, m=m: frozenset(m[v] for v in pay))
    A = hb.GroupAction.from_payload_maps(
        hollow_triangle, perms, list(itertools.permutations(range(3))))
    with pytest.raises(Stuck):
        sd_deformation(hollow_triangle, A)


def hom_deformation(name, version):
    """The JSON form of the Hom deformation (stage 1) of a fixture."""
    return json.loads(fixture(name, version))["stages"][0]["certificate"]


def test_replay_sd_deformation_tamper(solid_triangle, matchings):
    # version 3: the triangle's deformation; versions 1 and 2: the Hom
    # deformation (stage 1) of the K_4^3 fixtures
    A = hb.trivial_action(solid_triangle)
    d = sd_deformation(solid_triangle, A)
    hom = matchings["K_4^3"].hom
    for version in (1, 2):
        assert hb.replay_sd_deformation(
            hom.cx, hom.action, hb.DeformationCertificate.from_json_obj(
                hom_deformation("K_4^3", version), version))[0] is not None
    for K, A, version, clean in ((solid_triangle, A, 3,
                                  d.certificate.to_json_obj()),
                                 (hom.cx, hom.action, 2,
                                  hom_deformation("K_4^3", 2)),
                                 (hom.cx, hom.action, 1,
                                  hom_deformation("K_4^3", 1))):
        obj = json.loads(json.dumps(clean))
        if version == 1:
            obj["stages"][0][0] = "f" * 32
        else:
            obj["runs"][0][1][3] = "f" * 32
        bad = hb.DeformationCertificate.from_json_obj(obj, version)
        with pytest.raises(VerificationError):
            hb.replay_sd_deformation(K, A, bad)
        obj = json.loads(json.dumps(clean))
        obj["endpoints"] = ["f" * 32, obj["endpoints"][1]]
        bad = hb.DeformationCertificate.from_json_obj(obj, version)
        with pytest.raises(VerificationError):
            hb.replay_sd_deformation(K, A, bad)
        # the universe of the first run (of the first step, in version 1)
        obj = json.loads(json.dumps(clean))
        if version == 1:
            obj["stages"][0][2]["universe"] = "0" * 32
        else:
            obj["runs"][0][0] = "0" * 32
        bad = hb.DeformationCertificate.from_json_obj(obj, version)
        with pytest.raises(VerificationError):
            hb.replay_sd_deformation(K, A, bad)


# -- iso tables and the main theorem ----------------------------------------


def test_verify_iso_ids_rejects(hollow_triangle):
    K2 = hb.CellComplex.from_simplices(
        [frozenset("pq"), frozenset("qs"), frozenset("sp")])
    ren = {"a": "p", "b": "q", "c": "s"}
    f = [K2.index[frozenset(ren[v] for v in p)]
         for p in hollow_triangle.payloads]
    assert hb.verify_iso_ids(hollow_triangle, K2, f)
    bad = list(f)
    bad[0] = bad[1]
    with pytest.raises(VerificationError):
        hb.verify_iso_ids(hollow_triangle, K2, bad)
    with pytest.raises(VerificationError):
        hb.verify_iso_ids(hollow_triangle, K2, f[:-1])
    bad = list(f)
    bad[0] = len(f)
    with pytest.raises(VerificationError):
        hb.verify_iso_ids(hollow_triangle, K2, bad)
    # the [i, f(i)] rows of a version 1 table are not a map
    with pytest.raises(VerificationError, match="bijection of cell ids"):
        hb.verify_iso_ids(hollow_triangle, K2, [[i, j] for i, j in
                                                enumerate(f)])


def test_main_theorem_certificate_round_trip(matchings):
    M = matchings["K3_112"]
    H = M.graph
    cert = hb.main_theorem_certificate(H, matching=M)
    names = [s.get("name") for s in cert.stages]
    assert names == ["subdivide-hom", "unfold-hom-subdivision",
                     "products-into-sd-box", "expand-to-sd-box",
                     "fold-box-subdivision", "desubdivide-box"]
    obj = json.loads(json.dumps(cert.to_json_obj()))
    back = hb.MainTheoremCertificate.from_json_obj(obj)
    assert back == cert
    # the version decides the schedule, so it takes part in equality
    assert back != hb.MainTheoremCertificate(back.endpoints, back.stages, 2)
    assert hb.replay_main_theorem(H, back, matching=M) is True


def test_main_theorem_tamper_detection(matchings):
    # version 3: K3_112 built here; versions 1 and 2: the K3_122 fixtures
    M = matchings["K3_112"]
    cert = hb.main_theorem_certificate(M.graph, matching=M)
    M1 = matchings["K3_122"]
    for M, clean, version in ((M, json.dumps(cert.to_json_obj()), 3),
                              (M1, fixture("K3_122", 2), 2),
                              (M1, fixture("K3_122", 1), 1)):
        H = M.graph

        obj = json.loads(clean)
        pairs = obj["stages"][2]["map"]
        if version == 1:
            pairs[0][1] = pairs[1][1]
        else:
            pairs[0] = pairs[1]
        with pytest.raises(VerificationError):
            hb.replay_main_theorem(
                H, hb.MainTheoremCertificate.from_json_obj(obj), matching=M)

        obj = json.loads(clean)
        obj["endpoints"][0] = "1" * 32
        with pytest.raises(VerificationError):
            hb.replay_main_theorem(
                H, hb.MainTheoremCertificate.from_json_obj(obj), matching=M)

        obj = json.loads(clean)
        obj["stages"][0]["name"] = "warp"
        with pytest.raises(VerificationError):
            hb.replay_main_theorem(
                H, hb.MainTheoremCertificate.from_json_obj(obj), matching=M)

        # the end of the last step of stage 6, which its replay from the
        # end starts from
        obj = json.loads(clean)
        box_def = obj["stages"][5]["certificate"]
        if version == 1:
            box_def["stages"][-1][1] = "0" * 32
        else:
            box_def["runs"][-1][-1][3] = "0" * 32
        with pytest.raises(VerificationError):
            hb.replay_main_theorem(
                H, hb.MainTheoremCertificate.from_json_obj(obj), matching=M)


# sha256 of the canonical JSON of the version 1 theorem certificates, the
# fixtures.  The values were recorded when each stellar stage rebuilt its
# complexes from scratch; the cell store reproduced every byte of them.
CERT_V1_SHA256 = {
    "K_4^2": "352e87faec2699581fb8038aa9c11b9069f280fc05e617c7a7068685261ad3f5",
    "K_4^3": "5111d0f96caca58332e4d0c069a251a6bfad41ec52dfde3f34eb10fdd043870a",
    "K3_122": "ab699838870e9c2020059134884eec4ad6ab1487c930425dc29d6fd6146bb3c6",
}
# sha256 of the canonical JSON of the version 2 theorem certificates, the
# fixtures, as the builder of version 2 wrote them.
CERT_V2_SHA256 = {
    "K_4^2": "c107bd564e337bf8055dfa9b6616dff760007ec6f64ec04e2b7587ac5ddb8d6c",
    "K_4^3": "b09312bd78ce4aeef74324b452a069dd3dc77848f9e265c75e47b3b325ab9356",
    "K3_122": "c987c42901b8466eebb7e9b44318104940000ea547e15b9a765c368b22cdb1d3",
}
# sha256 of the canonical JSON of the version 3 theorem certificates.
CERT_V3_SHA256 = {
    "K_4^2": "ab8fc2a6469b7eee33271c34cc407c8543a6c3b6f98a665c29eb8651077584d2",
    "K_4^3": "3e76d2ffc655de0a0de6b0041ee1750f4cbbf79d956186afff6f5b62e843f417",
    "K3_122": "2e5716a45bbb06c68748ff321679e5674d2fc48b911439a0c7fa74f3f82ccd8e",
}


@pytest.mark.parametrize("name", sorted(CERT_V1_SHA256))
def test_main_theorem_certificate_bytes_pinned(matchings, name):
    # the version 1 fixtures keep their bytes and replay
    M = matchings[name]
    text = fixture(name, 1)
    assert hashlib.sha256(text.encode()).hexdigest() == CERT_V1_SHA256[name]
    assert hb.replay_main_theorem(M.graph, json.loads(text), matching=M)


@pytest.mark.parametrize("name", sorted(CERT_V2_SHA256))
def test_main_theorem_certificate_v2_bytes_pinned(matchings, name):
    # the version 2 fixtures keep their bytes and replay, and the version 1
    # fixture, parsed and written again, is its version 2 fixture
    M = matchings[name]
    text = fixture(name, 2)
    assert hashlib.sha256(text.encode()).hexdigest() == CERT_V2_SHA256[name]
    cert = hb.MainTheoremCertificate.from_json_obj(json.loads(text))
    assert cert.version == 2
    assert hb.replay_main_theorem(M.graph, cert, matching=M)
    assert canonical_json(cert.to_json_obj()) == text
    old = hb.MainTheoremCertificate.from_json_obj(json.loads(fixture(name, 1)))
    assert canonical_json(old.to_json_obj()) == text


@pytest.mark.parametrize("name", sorted(CERT_V3_SHA256))
def test_main_theorem_certificate_v3_bytes_pinned(matchings, name):
    M = matchings[name]
    cert = hb.main_theorem_certificate(M.graph, matching=M)
    text = canonical_json(cert.to_json_obj())
    assert json.loads(text)["version"] == 3
    assert hashlib.sha256(text.encode()).hexdigest() == CERT_V3_SHA256[name]
    assert hb.replay_main_theorem(M.graph, json.loads(text), matching=M)
    # the stages that star nothing are those of version 2
    old = json.loads(fixture(name, 2))["stages"]
    for k in (2, 3):
        assert json.loads(text)["stages"][k] == old[k]


def test_replay_error_names_stage_and_step(matchings):
    # version 3: K3_112 built here; versions 1 and 2: the K3_122 fixtures
    pattern = (r"^desubdivide-box.*: step \d+ \((collapse|expand) at cell"
               r" \d+ .+\): fingerprint drift")
    M = matchings["K3_112"]
    built = json.dumps(
        hb.main_theorem_certificate(M.graph, matching=M).to_json_obj())
    M1 = matchings["K3_122"]
    for M, clean in ((M, built), (M1, fixture("K3_122", 2))):
        obj = json.loads(clean)
        runs = obj["stages"][5]["certificate"]["runs"]
        run = runs[len(runs) // 2]
        run[len(run) // 2][3] = "f" * 32
        bad = hb.MainTheoremCertificate.from_json_obj(obj)
        with pytest.raises(VerificationError, match=pattern):
            hb.replay_main_theorem(M.graph, bad, matching=M)

    obj = json.loads(fixture("K3_122", 1))
    steps = obj["stages"][5]["certificate"]["stages"]
    steps[len(steps) // 2][0] = "f" * 32
    bad = hb.MainTheoremCertificate.from_json_obj(obj)
    with pytest.raises(VerificationError, match=pattern):
        hb.replay_main_theorem(M1.graph, bad, matching=M1)


def test_replay_rejects_cell_ids_outside_the_universe(solid_triangle,
                                                      matchings):
    # version 3: the triangle's deformation; version 2: the Hom deformation
    # (stage 1) of the K_4^3 fixture, and version 1 that of its version 1
    # fixture
    A = hb.trivial_action(solid_triangle)
    d = sd_deformation(solid_triangle, A)
    hom = matchings["K_4^3"].hom
    for K, A, version, clean in ((solid_triangle, A, 3,
                                  d.certificate.to_json_obj()),
                                 (hom.cx, hom.action, 2,
                                  hom_deformation("K_4^3", 2))):
        obj = json.loads(json.dumps(clean))
        obj["runs"][0][1][1] = 10 ** 6
        bad = hb.DeformationCertificate.from_json_obj(obj, version)
        with pytest.raises(InputError, match="outside the .*universe"):
            hb.replay_sd_deformation(K, A, bad)
        for value in (-1, True):
            obj = json.loads(json.dumps(clean))
            obj["runs"][0][1][2] = value
            with pytest.raises(InputError, match="facet"):
                hb.DeformationCertificate.from_json_obj(obj, version)

    clean = hom_deformation("K_4^3", 1)
    obj = json.loads(json.dumps(clean))
    step = obj["stages"][0][2]
    step["sigma"] = step["orbit"][0] = 10 ** 6
    bad = hb.DeformationCertificate.from_json_obj(obj, version=1)
    with pytest.raises(InputError, match="outside the .*universe"):
        hb.replay_sd_deformation(hom.cx, hom.action, bad)
    for value in (-1, True):
        obj = json.loads(json.dumps(clean))
        obj["stages"][0][2]["facets"] = [value]
        with pytest.raises(InputError, match="facets"):
            hb.DeformationCertificate.from_json_obj(obj, version=1)


def test_certificate_versions(matchings):
    # versions 1, 2 and 3 parse; a certificate of another version, or none,
    # is an input error; a version 2 or 3 deformation does not parse as
    # version 1, nor the reverse
    M = matchings["K_4^3"]
    obj = hb.main_theorem_certificate(M.graph, matching=M).to_json_obj()
    assert obj["version"] == 3
    assert hb.MainTheoremCertificate.from_json_obj(obj).version == 3
    for version in (0, 4, True, "2", None, [2]):
        with pytest.raises(InputError, match="unknown version"):
            hb.MainTheoremCertificate.from_json_obj(dict(obj, version=version))
    with pytest.raises(InputError, match="stages is not a list"):
        hb.MainTheoremCertificate.from_json_obj(dict(obj, version=1))
    old = json.loads(fixture("K_4^3", 1))
    for version in (2, 3):
        with pytest.raises(InputError, match="runs is not a list"):
            hb.MainTheoremCertificate.from_json_obj(dict(old, version=version))
    # a certificate parsed from version 1 or 2 is written as version 2
    for version in (1, 2):
        cert = hb.MainTheoremCertificate.from_json_obj(
            json.loads(fixture("K_4^3", version)))
        assert cert.version == 2
        assert cert.to_json_obj()["version"] == 2


# -- the vertex orbits, which no version 3 stage stars ------------------------


def _corpus_complexes(matchings):
    """(name, K, A, sd action) for the box and Hom complexes of the corpus;
    the box's sd action is the matching's."""
    for name, M in sorted(matchings.items()):
        yield "box " + name, M.box.cx, M.box.action, M.action
        sd = hb.barycentric_subdivision(M.hom.cx)
        yield ("hom " + name, M.hom.cx, M.hom.action,
               hb.lift_action_to_order_complex(M.hom.action, sd))


def _renamed(E, S, orbit, simplicial):
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
                p = frozenset([apex]) if simplicial else apex
            else:
                [b] = [j for j in E.down[i] if above.get(j) != m]
                p = (E.payloads[b] | {apex} if simplicial
                     else (CONE, apex, E.payloads[b]))
        f.append(S.index[p])
    return f


def test_starring_a_vertex_orbit_renames_it(matchings):
    # the lemma version 3 rests on: where the version 2 schedule starred a
    # vertex orbit of K, the complex E after the stages of positive
    # dimension, the stellar subdivision is E with each member renamed to
    # its apex, G-isomorphically.  A simplicial K (the box) is such a
    # complex itself; a Hom complex is not, as starring a square at a
    # corner cuts it in two triangles
    for label, K, A, sd_action in _corpus_complexes(matchings):
        simplicial = label.startswith("box")
        d = hb.sd_deformation(K, A, sd_action)
        positive = [ob for ob in A.orbits() if K.dims[ob[0]] > 0]
        assert len(d.certificate.runs) == len(positive), label
        assert all(u is not None and steps
                   for u, steps in d.certificate.runs), label
        vertex = next(i for i in range(len(K)) if K.dims[i] == 0)
        stellar = (hb.stellar_g_subdivision if simplicial
                   else hb.stellar_subdivision_poset)
        pairs = [(d.final, d.final_action)]
        if simplicial:
            pairs.append((K, A))
        for E, EA in pairs:
            m = E.index[K.payloads[vertex]]
            st = hb.stellar_deformation_certificate(E, EA, m)
            assert (st.final.fingerprint
                    == stellar(E, EA, m).fingerprint), label
            f = _renamed(E, st.final, EA.orbit(m), simplicial)
            hb.verify_iso_ids(E, st.final, f, EA, st.final_action)


def test_version_3_rejects_vertex_runs(matchings):
    # a vertex run appended to a version 3 deformation, and a version 2
    # certificate relabelled as version 3, are refused naming both counts
    M = matchings["K_4^3"]
    obj = hb.main_theorem_certificate(M.graph, matching=M).to_json_obj()
    v2 = json.loads(fixture("K_4^3", 2))
    n3 = len(obj["stages"][0]["certificate"]["runs"])
    n2 = len(v2["stages"][0]["certificate"]["runs"])
    assert n2 > n3
    obj["stages"][0]["certificate"]["runs"].append(
        v2["stages"][0]["certificate"]["runs"][-1])
    cases = [(obj, n3 + 1), (dict(v2, version=3), n2)]
    for bad, runs in cases:
        with pytest.raises(VerificationError,
                           match=r"^subdivide-hom: certificate has %d stages "
                                 r"but the schedule needs %d$" % (runs, n3)):
            hb.replay_main_theorem(M.graph, bad, matching=M)


def _crafted(E, old, new):
    """E with the payload old replaced by new."""
    return hb.CellComplex([new if p == old else p for p in E.payloads],
                          E.dims, E.down)


def test_flatten_map_names_a_cell_outside_k(solid_triangle):
    # the end complex's payload map raises a VerificationError that names
    # the cell, for a bare vertex that is not one of K and an apex of a
    # cell that K lacks, simplicial and polytopal alike: each case replaces
    # the payload old of the end complex by new, whose part q is at fault
    from hombox.collapse import _flatten_map

    def P(*sets):
        return tuple(frozenset(s) for s in sets)

    F = frozenset
    K, _ = product_square()
    for K, simplicial, cases in (
            (solid_triangle, True, [
                (F("a"), F("z"), F("z"), "vertex"),
                (F([(BARY, F("ab"))]), F([(BARY, F("az"))]), F("az"),
                 "cell")]),
            (K, False, [
                (P("a", "x"), P("c", "x"), P("c", "x"), "vertex"),
                (P("a", "x"), P("ab", "x"), P("ab", "x"), "vertex"),
                ((BARY, P("ab", "x")), (BARY, P("bc", "x")), P("bc", "x"),
                 "cell")])):
        d = sd_deformation(K, hb.trivial_action(K))
        flat = _flatten_map(K, simplicial)
        assert hb.verify_isomorphism(d.final, d.sd, flat) == d.iso
        for old, new, q, kind in cases:
            E = _crafted(d.final, old, new)
            with pytest.raises(VerificationError, match="^%s$" % re.escape(
                    "cell %s is not fully subdivided: %s is not a %s of K"
                    % (fmt_payload(new), fmt_payload(q), kind))):
                hb.verify_isomorphism(E, d.sd, flat)
