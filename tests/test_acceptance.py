"""Acceptance suite: the eight end-to-end criteria, with their runtime
bounds, on the standard corpus of small complete and complete-multipartite
r-graphs."""

import re
import time

import pytest

import hombox as hb
from hombox import (NotFree, OrbitNotIndependentlyFree, Stuck,
                    VerificationError, WrongCodimension)
from hombox.cellcx import _label
from hombox.morse import Matching

from conftest import CORPUS_NAMES, elements, replays, z3_action


def timed(fn):
    t0 = time.monotonic()
    out = fn()
    return out, time.monotonic() - t0


# -- 1: the projection-regeneration counterexample ---------------------------


def test_ac1_counterexample_reproduction(matchings):
    def body():
        H = hb.complete_multipartite([1, 2, 2])
        box = hb.box_edge(H)
        F = frozenset([("a0", "b0", "c0"), ("a0", "b1", "c1")])
        assert F in box.cx.index
        P = hb.map_p(F)
        assert P == (frozenset(["a0"]), frozenset(["b0", "b1"]),
                     frozenset(["c0", "c1"]))
        iP = hb.map_i(P)
        assert len(F) == 2 and len(iP) == 4
        assert F < iP and iP != F
        assert not hb.ip_fixed(F)
        assert iP in box.cx.index

        # the chains of products form a proper S_3-subcomplex of the
        # subdivided box complex
        M = matchings["K3_122"]
        crit = set(M.critical)
        assert 0 < len(crit) < len(M.sd)
        sub, _ = M.sd.subcomplex(sorted(crit))   # downward closed
        assert len(sub) == 198
        for p in elements(M.action):
            assert all(p[c] in crit for c in crit)
        return None

    _, dt = timed(body)
    assert dt < 1.0


# -- 2: the identity case -----------------------------------------------------


def test_ac2_identity_case():
    def body():
        for n in (1, 2, 3):
            H = hb.complete_multipartite([1, 1, n])
            box = hb.box_edge(H)
            hom = hb.hom_complex(H)
            fixed, ipim = hb.ip_tables(box)
            assert all(fixed)
            assert ipim == list(range(len(box.cx)))
            f = hb.verify_isomorphism(hom.cx, box.cx, hb.map_i,
                                      hom.action, box.action)
            assert sorted(f) == list(range(len(box.cx)))
        return None

    _, dt = timed(body)
    assert dt < 1.0


# -- 3: the isomorphism criterion ---------------------------------------------


def test_ac3_isomorphism_criterion():
    def body():
        graphs = [hb.complete_rgraph(n, 2) for n in (2, 3, 4)]
        graphs += [hb.complete_rgraph(n, 3) for n in (3, 4, 5)]
        graphs += [hb.complete_multipartite([1, 1, 2]),
                   hb.complete_multipartite([1, 2, 2])]
        for H in graphs:
            a, b = hb.iso_criterion(H)
            assert a == b
        for r in (2, 3):
            for n in range(r, r + 4):
                a, b = hb.iso_criterion(hb.complete_rgraph(n, r))
                assert a == b == (n <= r + 1)
        return None

    _, dt = timed(body)
    assert dt < 10.0


# -- 4: matching validity on the corpus ---------------------------------------


def test_ac4_matching_validity(corpus):
    worst = 0.0
    for name in CORPUS_NAMES:
        M, dt = timed(lambda H=corpus[name]: hb.build_matching(H))
        worst = max(worst, dt)
        # the collapse proves the matching: it removes D in cover pairs
        run = M.verify()
        assert run.cells_moved == len(M.sigma()) + len(M.upper)
        # pin the gross shape too
        assert sorted(M.sigma() + M.upper + M.critical) == list(
            range(len(M.sd)))
        assert all(x in M.sd.down[M.mu[x]] for x in M.sigma())
    assert worst < 60.0


# -- 5: collapse execution ----------------------------------------------------


def test_ac5_collapse_execution(matchings):
    worst = 0.0
    for name in CORPUS_NAMES:
        M = matchings[name]

        def body(M=M):
            run = hb.matching_to_collapse(M.sd, M.action, M)
            iso = hb.verify_critical_isomorphism(M)
            return run, iso

        (run, iso), dt = timed(body)
        worst = max(worst, dt)
        assert run.cells_moved == len(M.sigma()) + len(M.upper)
        assert run.certificate.endpoints[1] == iso.critical.fingerprint
        assert len(iso.critical) == len(iso.map) == len(M.critical)
    assert worst < 120.0


# -- 6: subdivision deformation -----------------------------------------------


def test_ac6_subdivision_deformation(matchings):
    def cases():
        solid = hb.CellComplex.from_simplices([frozenset("abc")])
        yield solid, hb.trivial_action(solid)
        hollow = hb.CellComplex.from_simplices(
            [frozenset("ab"), frozenset("bc"), frozenset("ca")])
        yield hollow, z3_action(hollow)
        box = matchings["K3_122"].box
        yield box.cx, box.action

    def body():
        for K, A in cases():
            d = hb.sd_deformation(K, A)
            sd = hb.order_complex(K)
            sd_action = hb.lift_action_to_order_complex(A, sd)
            iso = hb.unfold_subdivision(d.final, d.final_action, sd_action)
            assert len(d.final) == len(sd)
            hb.verify_iso_ids(d.final, sd, iso, d.final_action, sd_action)
        return None

    _, dt = timed(body)
    assert dt < 30.0


# -- 7: the main theorem pipeline ----------------------------------------------


def test_ac7_main_theorem_pipeline(corpus):
    def body():
        for name in CORPUS_NAMES:
            H = corpus[name]
            replays(H, hb.main_theorem_certificate(H))
            agree = hb.homology_agreement(H)
            assert agree.agree
            if name == "K3_122":
                assert agree.box_report["betti"] == [6, 0, 0, 0]
                assert agree.hom_report["betti"] == [6, 0, 0, 0]
        # circle sanity for r = 2
        agree = hb.homology_agreement(hb.complete_rgraph(3, 2))
        assert agree.agree
        assert agree.hom_report["betti"] == [1, 1]
        return None

    _, dt = timed(body)
    assert dt < 300.0


# -- 8: negative controls -------------------------------------------------------


def swap_mu_across_orbits(M):
    x1, x2 = M.sigma()[0], M.sigma()[-1]
    mu = dict(M.mu)
    mu[x1], mu[x2] = mu[x2], mu[x1]
    return mu


def swap_mu_on_orbit_pair(M):
    x = M.sigma()[0]
    # the image of x under (0, 2, 1), the first element after the identity
    gx = M.action.perms[M.action.labels.index((0, 2, 1))][x]
    mu = dict(M.mu)
    mu[x], mu[gx] = mu[gx], mu[x]
    return mu


def drop_mu_pair(M):
    mu = dict(M.mu)
    del mu[M.sigma()[0]]
    return mu


def non_cover_duplicate_mu(M):
    # also a duplicate target; on this corpus every upper chain has exactly
    # one Sigma face, so injectivity cannot break while covering holds
    x1, x2 = M.sigma()[0], M.sigma()[-1]
    assert x1 not in M.sd.down[M.mu[x2]]
    mu = dict(M.mu)
    mu[x1] = mu[x2]
    return mu


def second_member(M):
    # the orbit of the least Sigma chain is checked first, from its least
    # member, the first cell of its word table
    return M.action._orbit_list(M.sigma()[0])[1]


# Each mutation, the cell its refusal names, and the refusal.
MATCHING_MUTATIONS = [
    (swap_mu_across_orbits, second_member,
     "matching is not equivariant at cell %s: "),
    (swap_mu_on_orbit_pair, second_member,
     "matching is not equivariant at cell %s: "),
    (drop_mu_pair, lambda M: M.sigma()[0],
     "matched set is not closed under the action at cell %s"),
    (non_cover_duplicate_mu, lambda M: M.mu[M.sigma()[-1]],
     "cell %s appears in two matched pairs"),
]


def test_ac8_negative_controls(matchings):
    def body():
        M = matchings["K3_122"]
        for mutate, cell, refusal in MATCHING_MUTATIONS:
            bad = Matching(M.graph, M.hom, M.box, M.sd, M.action,
                           M.tags, mutate(M))
            with pytest.raises(Stuck, match="^" + re.escape(
                    refusal % _label(M.sd, cell(M)))):
                bad.verify()

        # a dropped pair also derails the collapse engine itself
        bad = Matching(M.graph, M.hom, M.box, M.sd, M.action,
                       M.tags, drop_mu_pair(M))
        with pytest.raises((Stuck, VerificationError)):
            hb.matching_to_collapse(bad.sd, bad.action, bad)

        # illegal collapse steps
        def step(K, A, sigma, facet):
            return hb.apply_orbit_step(hb.CollapseState(K), A, "c",
                                       K.index[frozenset(sigma)],
                                       K.index[frozenset(facet)])

        hollow = hb.CellComplex.from_simplices(
            [frozenset("ab"), frozenset("bc"), frozenset("ca")])
        with pytest.raises(NotFree):
            step(hollow, hb.trivial_action(hollow), "a", "ab")
        solid = hb.CellComplex.from_simplices([frozenset("abc")])
        with pytest.raises(WrongCodimension):
            step(solid, hb.trivial_action(solid), "a", "abc")
        seg = hb.CellComplex.from_simplices([frozenset("xy")])
        flip = {"x": "y", "y": "x"}
        A2 = hb.GroupAction.symmetric(
            seg, [lambda p: frozenset(flip[v] for v in p)], [(1, 0)])
        with pytest.raises(OrbitNotIndependentlyFree):
            step(seg, A2, "x", "xy")

        # tampered replayable certificate
        run = hb.matching_to_collapse(M.sd, M.action, M)
        obj = run.certificate.to_json_obj()
        obj["runs"][0][1] = "f" * 32
        bad_cert = hb.DeformationCertificate.from_json_obj(obj)
        with pytest.raises(VerificationError):
            hb.replay_collapse_certificate(M.sd, M.action, bad_cert)
        return None

    _, dt = timed(body)
    assert dt < 10.0
