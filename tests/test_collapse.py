"""Collapsing: elementary G-collapses, the greedy engine, stellar and full
subdivision deformations, certificates, replay, and tamper detection."""

import hashlib
import itertools
import json

import pytest

import hombox as hb
from hombox import (InputError, NotFree, OrbitNotIndependentlyFree, Stuck,
                    VerificationError, WrongCodimension)
from hombox.cli import canonical_json

from conftest import z3_action


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
    step = {"direction": "collapse", "sigma": eab,
            "orbit": [eab], "facets": [top]}
    assert sorted(hb.apply_orbit_step(st, A, step)) == sorted([eab, top])
    assert st.n_alive == 5
    back = {"direction": "expand", "sigma": eab,
            "orbit": [eab], "facets": [top]}
    hb.apply_orbit_step(st, A, back)
    assert st.fingerprint == solid_triangle.fingerprint


def test_apply_orbit_step_rejections(solid_triangle):
    A = hb.trivial_action(solid_triangle)
    K = solid_triangle
    eab, eac = K.index[frozenset("ab")], K.index[frozenset("ac")]
    top = K.index[frozenset("abc")]
    va = K.index[frozenset("a")]
    st = hb.CollapseState(K)

    def step(**kw):
        base = {"direction": "collapse", "sigma": eab,
                "orbit": [eab], "facets": [top]}
        base.update(kw)
        return base

    with pytest.raises(WrongCodimension):
        hb.apply_orbit_step(st, A, step(sigma=va, orbit=[va]))  # codim 2
    with pytest.raises(VerificationError):
        hb.apply_orbit_step(st, A, step(sigma=eac))         # not orbit[0]
    with pytest.raises(WrongCodimension):
        hb.apply_orbit_step(st, A, step(facets=[eac]))      # codim 0
    with pytest.raises(InputError):
        hb.apply_orbit_step(st, A, step(direction="sideways"))
    with pytest.raises(OrbitNotIndependentlyFree):
        hb.apply_orbit_step(st, A, step(
            sigma=eab, orbit=[eab, eac], facets=[top, top]))
    # a cell with two alive cofacets is not free
    with pytest.raises(NotFree):
        hb.apply_orbit_step(st, A, step(sigma=va, orbit=[va], facets=[eab]))
    # dead cells cannot be collapsed
    st2 = hb.CollapseState(K, alive=[va])
    with pytest.raises(NotFree):
        hb.apply_orbit_step(st2, A, step())


def _explicit_action(K, name, moves):
    """The two-element action on K whose non-identity element, named name,
    permutes the vertex names by moves (a bijection of the cells)."""
    return hb.GroupAction.from_payload_maps(
        K, [lambda p: p, lambda p: frozenset(moves.get(v, v) for v in p)],
        ["e", name], check=False)


def _step(K, orbit, facets):
    ids = [K.index[frozenset(c)] for c in orbit]
    return {"direction": "collapse", "sigma": ids[0], "orbit": ids,
            "facets": [K.index[frozenset(f)] for f in facets]}


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
        hb.apply_orbit_step(hb.CollapseState(K), A,
                            _step(K, "acpr", ["ab", "cd", "pq", "rs"]))


def test_step_facets_misaligned_by_a_stabilizer():
    # the flip fixes m but swaps its cofacets am and bm: no facet choice
    # for the orbit {m} commutes with it
    K = hb.CellComplex.from_simplices(map(frozenset, ["am", "bm"]))
    A = _explicit_action(K, "flip", {"a": "b", "b": "a"})
    with pytest.raises(VerificationError,
                       match="not equivariant under generator 'flip'"):
        hb.apply_orbit_step(hb.CollapseState(K), A, _step(K, "m", ["am"]))


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
        hb.apply_orbit_step(st, A, {
            "direction": "collapse", "sigma": 0, "orbit": [0], "facets": [1]})


def test_step_equivariance_enforced():
    seg, A = seg_with_flip()
    vx = seg.index[frozenset("x")]
    e = seg.index[frozenset("xy")]
    st = hb.CollapseState(seg)
    # orbit of x is {x, y}: a step listing only x is not action-closed
    with pytest.raises(VerificationError):
        hb.apply_orbit_step(st, A, {
            "direction": "collapse", "sigma": vx,
            "orbit": [vx], "facets": [e]})


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
    assert len(cert.stages) == 58
    assert cert.total_cells_moved() == 696 == 2 * len(M.sigma())
    assert cert.endpoints[0] == M.sd.fingerprint
    assert cert.endpoints[1] == run.final.fingerprint
    # endpoint complex is exactly the critical subcomplex
    crit, crit_action, _ = hb.critical_complex(M)
    assert run.final.fingerprint_hex == crit.fingerprint_hex
    # the action is free, so every step moves a whole 6-element orbit
    assert all(len(s["orbit"]) == 6 for _, _, s in cert.stages)


def test_replay_collapse_certificate_and_tampering(matchings):
    M = matchings["K3_122"]
    run = hb.matching_to_collapse(M.sd, M.action, M)
    cert = run.certificate
    state = hb.replay_collapse_certificate(M.sd, M.action, cert)
    assert state.alive_ids() == sorted(M.critical)

    # tamper: swap two stages (fingerprint chain breaks)
    obj = cert.to_json_obj()
    obj["stages"][3], obj["stages"][4] = obj["stages"][4], obj["stages"][3]
    bad = hb.DeformationCertificate.from_json_obj(obj)
    with pytest.raises(VerificationError):
        hb.replay_collapse_certificate(M.sd, M.action, bad)

    # tamper: drop one orbit member (equivariance check fires)
    obj = cert.to_json_obj()
    step = dict(obj["stages"][0][2])
    step["orbit"] = step["orbit"][:-1]
    step["facets"] = step["facets"][:-1]
    obj["stages"][0] = [obj["stages"][0][0], obj["stages"][0][1], step]
    bad = hb.DeformationCertificate.from_json_obj(obj)
    with pytest.raises(VerificationError):
        hb.replay_collapse_certificate(M.sd, M.action, bad)

    # tamper: wrong endpoint fingerprint
    obj = cert.to_json_obj()
    obj["endpoints"] = [obj["endpoints"][0], "0" * 32]
    bad = hb.DeformationCertificate.from_json_obj(obj)
    with pytest.raises(VerificationError):
        hb.replay_collapse_certificate(M.sd, M.action, bad)


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
    dirs = [s["direction"] for _, _, s in st.certificate.stages]
    k = dirs.index("collapse")
    assert all(d == "expand" for d in dirs[:k])
    assert all(d == "collapse" for d in dirs[k:])
    assert all(s.get("universe") == st.universe.fingerprint_hex
               for _, _, s in st.certificate.stages)


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
    assert len(d.certificate.stages) == 59
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
    hb.verify_iso_ids(d.final, d.sd, [[i, j] for i, j in enumerate(d.iso)],
                      d.final_action, d.sd_action)


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


def test_replay_sd_deformation_tamper(solid_triangle):
    A = hb.trivial_action(solid_triangle)
    d = sd_deformation(solid_triangle, A)
    obj = d.certificate.to_json_obj()
    obj["stages"][0][0] = "f" * 32
    bad = hb.DeformationCertificate.from_json_obj(obj)
    with pytest.raises(VerificationError):
        hb.replay_sd_deformation(solid_triangle, A, bad)
    obj = d.certificate.to_json_obj()
    obj["endpoints"] = ["f" * 32, obj["endpoints"][1]]
    bad = hb.DeformationCertificate.from_json_obj(obj)
    with pytest.raises(VerificationError):
        hb.replay_sd_deformation(solid_triangle, A, bad)


# -- iso tables and the main theorem ----------------------------------------


def test_verify_iso_ids_rejects(hollow_triangle):
    K2 = hb.CellComplex.from_simplices(
        [frozenset("pq"), frozenset("qs"), frozenset("sp")])
    ren = {"a": "p", "b": "q", "c": "s"}
    pairs = [[i, K2.index[frozenset(ren[v] for v in p)]]
             for i, p in enumerate(hollow_triangle.payloads)]
    assert hb.verify_iso_ids(hollow_triangle, K2, pairs)
    bad = [list(x) for x in pairs]
    bad[0][1] = bad[1][1]
    with pytest.raises(VerificationError):
        hb.verify_iso_ids(hollow_triangle, K2, bad)
    with pytest.raises(VerificationError):
        hb.verify_iso_ids(hollow_triangle, K2, pairs[:-1])


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
    assert hb.replay_main_theorem(H, back, matching=M) is True


def test_main_theorem_tamper_detection(matchings):
    M = matchings["K3_112"]
    H = M.graph
    cert = hb.main_theorem_certificate(H, matching=M)
    clean = json.dumps(cert.to_json_obj())

    obj = json.loads(clean)
    obj["stages"][2]["map"][0][1] = obj["stages"][2]["map"][1][1]
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


# sha256 of the canonical JSON of the theorem certificate.  The values were
# recorded when each stellar stage rebuilt its complexes from scratch; the
# cell store must reproduce every certificate byte for byte.
CERT_SHA256 = {
    "K_4^2": "352e87faec2699581fb8038aa9c11b9069f280fc05e617c7a7068685261ad3f5",
    "K_4^3": "5111d0f96caca58332e4d0c069a251a6bfad41ec52dfde3f34eb10fdd043870a",
    "K3_122": "ab699838870e9c2020059134884eec4ad6ab1487c930425dc29d6fd6146bb3c6",
}


@pytest.mark.parametrize("name", sorted(CERT_SHA256))
def test_main_theorem_certificate_bytes_pinned(matchings, name):
    M = matchings[name]
    cert = hb.main_theorem_certificate(M.graph, matching=M)
    text = canonical_json(cert.to_json_obj())
    assert hashlib.sha256(text.encode()).hexdigest() == CERT_SHA256[name]


def test_replay_error_names_stage_and_step(matchings):
    M = matchings["K3_112"]
    H = M.graph
    obj = json.loads(json.dumps(
        hb.main_theorem_certificate(H, matching=M).to_json_obj()))
    steps = obj["stages"][5]["certificate"]["stages"]
    steps[len(steps) // 2][0] = "f" * 32
    bad = hb.MainTheoremCertificate.from_json_obj(obj)
    pattern = (r"^desubdivide-box.*: step \d+ \((collapse|expand) at cell"
               r" \d+ .+\): fingerprint drift")
    with pytest.raises(VerificationError, match=pattern):
        hb.replay_main_theorem(H, bad, matching=M)


def test_replay_rejects_cell_ids_outside_the_universe(solid_triangle):
    A = hb.trivial_action(solid_triangle)
    d = sd_deformation(solid_triangle, A)
    obj = d.certificate.to_json_obj()
    step = obj["stages"][0][2]
    step["sigma"] = step["orbit"][0] = 10 ** 6
    bad = hb.DeformationCertificate.from_json_obj(obj)
    with pytest.raises(InputError, match="outside the .*universe"):
        hb.replay_sd_deformation(solid_triangle, A, bad)
    for value in (-1, True):
        obj = d.certificate.to_json_obj()
        obj["stages"][0][2]["facets"] = [value]
        with pytest.raises(InputError, match="facets"):
            hb.DeformationCertificate.from_json_obj(obj)
