"""The cyclic garbage collector: the pipeline's entry points pause it and
restore it on every exit, and the pipeline leaves no reference cycles for
it to free."""

import copy
import gc
import json
from collections import Counter

import pytest

import hombox as hb
from hombox import collapse, homology, morse


@pytest.fixture(autouse=True)
def collector_restored():
    """Each test leaves the collector and its debug flags as it found
    them, whatever it asserts."""
    was_on, flags = gc.isenabled(), gc.get_debug()
    yield
    gc.set_debug(flags)
    if was_on:
        gc.enable()
    else:
        gc.disable()


def cyclic_garbage(run):
    """The objects run() leaves in reference cycles, counted by type: run
    with the collector off, after a full collection, and found by the next
    one."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        kinds = Counter(type(x).__name__ for x in gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(0)
    return kinds


def matching_path(H):
    M = hb.build_matching(H)
    hb.verify_critical_isomorphism(M)
    run = hb.matching_to_collapse(M.sd, M.action, M)
    hb.replay_collapse_certificate(M.sd, M.action, run.certificate)


def theorem_path(H):
    cert = hb.main_theorem_certificate(H)
    hb.replay_main_theorem(H, json.loads(json.dumps(cert.to_json_obj())))


def homology_path(H):
    hb.homology_agreement(H)


@pytest.mark.parametrize("path", [matching_path, theorem_path, homology_path],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("name", ["K_4^3", "K3_122"])
def test_pipeline_makes_no_cyclic_garbage(corpus, name, path):
    kinds = cyclic_garbage(lambda: path(corpus[name]))
    assert not kinds, "%s left objects in reference cycles: %s" % (
        path.__name__, dict(kinds.most_common()))


def _flip(fingerprint):
    return "%032x" % (int(fingerprint, 16) ^ 1)


@pytest.fixture(scope="module")
def k3_122(corpus, matchings, certificates):
    """K3_122's matching, collapse run and theorem certificate (JSON)."""
    H, M = corpus["K3_122"], matchings["K3_122"]
    run = hb.matching_to_collapse(M.sd, M.action, M)
    cert = certificates["K3_122"].to_json_obj()
    return H, M, run, cert


def _tampered_matching(M):
    """M with its first critical cell left out of its critical list."""
    bad = copy.copy(M)
    bad.critical = M.critical[1:]
    return bad


def _tampered_collapse(run):
    obj = run.certificate.to_json_obj()
    obj["endpoints"][0] = _flip(obj["endpoints"][0])
    return hb.DeformationCertificate.from_json_obj(obj)


def _stage_4(cert, tamper=False):
    """Stage 4 of the theorem certificate cert (JSON), as `hombox verify
    --certificate` replays it, its start fingerprint flipped if tamper."""
    obj = json.loads(json.dumps(cert["stages"][3]["certificate"]))
    if tamper:
        obj["endpoints"][0] = _flip(obj["endpoints"][0])
    return hb.DeformationCertificate.from_json_obj(obj)


def _tampered_theorem(cert):
    obj = json.loads(json.dumps(cert))
    obj["stages"][2]["from"] = _flip(obj["stages"][2]["from"])
    return obj


# Each entry point: a function it calls inside, by module and name; a call
# that returns; and a call that raises, with the HomboxError it raises, on
# (H, M, run, cert) of K3_122.
ENTRY_POINTS = {
    "build_matching": (
        (morse, "_classify"),
        lambda H, M, run, cert: hb.build_matching(H),
        lambda H, M, run, cert: hb.build_matching(H, max_cells=1),
        hb.SizeGuard),
    "verify_critical_isomorphism": (
        (collapse, "verify_isomorphism"),
        lambda H, M, run, cert: hb.verify_critical_isomorphism(M),
        lambda H, M, run, cert: hb.verify_critical_isomorphism(
            M, max_cells=1),
        hb.SizeGuard),
    "matching_to_collapse": (
        (collapse, "_apply_steps"),
        lambda H, M, run, cert: hb.matching_to_collapse(M.sd, M.action, M),
        lambda H, M, run, cert: hb.matching_to_collapse(
            M.sd, M.action, _tampered_matching(M)),
        hb.VerificationError),
    "replay_collapse_certificate": (
        (collapse, "_apply_steps"),
        lambda H, M, run, cert: hb.replay_collapse_certificate(
            M.sd, M.action, run.certificate),
        lambda H, M, run, cert: hb.replay_collapse_certificate(
            M.sd, M.action, _tampered_collapse(run)),
        hb.VerificationError),
    "main_theorem_certificate": (
        (collapse, "sd_deformation"),
        lambda H, M, run, cert: hb.main_theorem_certificate(H),
        lambda H, M, run, cert: hb.main_theorem_certificate(H, max_cells=1),
        hb.SizeGuard),
    "replay_main_theorem": (
        (collapse, "replay_sd_deformation"),
        lambda H, M, run, cert: hb.replay_main_theorem(H, cert),
        lambda H, M, run, cert: hb.replay_main_theorem(
            H, _tampered_theorem(cert)),
        hb.VerificationError),
    "replay_critical_expansion": (
        (collapse, "replay_collapse_certificate"),
        lambda H, M, run, cert: collapse.replay_critical_expansion(
            M.hom, M.box, _stage_4(cert)),
        lambda H, M, run, cert: collapse.replay_critical_expansion(
            M.hom, M.box, _stage_4(cert, tamper=True)),
        hb.VerificationError),
    "homology_agreement": (
        (homology, "homology_report"),
        lambda H, M, run, cert: hb.homology_agreement(H),
        lambda H, M, run, cert: hb.homology_agreement(H, max_cells=1),
        hb.SizeGuard),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_pauses_the_collector(k3_122, name, monkeypatch):
    (module, inner), ok, fail, error = ENTRY_POINTS[name]
    seen = []
    original = getattr(module, inner)

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return original(*args, **kwargs)

    monkeypatch.setattr(module, inner, spy)
    gc.enable()
    ok(*k3_122)
    assert seen and not any(seen), "the collector ran inside %s" % name
    assert gc.isenabled()
    with pytest.raises(error):
        fail(*k3_122)
    assert gc.isenabled()


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_keeps_a_callers_paused_collector(k3_122, name):
    _, ok, fail, error = ENTRY_POINTS[name]
    gc.disable()
    ok(*k3_122)
    assert not gc.isenabled()
    with pytest.raises(error):
        fail(*k3_122)
    assert not gc.isenabled()
