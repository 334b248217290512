"""Command-line interface: subcommands, exit codes, canonical JSON output,
and certificate check-or-write flows."""

import hashlib
import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import hombox as hb
from hombox.cli import main

from conftest import STRUCTURED_TAMPERS, replays

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"


@pytest.fixture()
def k3_112(tmp_path):
    path = tmp_path / "k3_112.json"
    path.write_text(hb.complete_multipartite([1, 1, 2]).to_json_str())
    return str(path)


@pytest.fixture()
def k3_122(tmp_path):
    path = tmp_path / "k3_122.json"
    path.write_text(hb.complete_multipartite([1, 2, 2]).to_json_str())
    return str(path)


@pytest.fixture()
def k32(tmp_path):
    path = tmp_path / "k32.json"
    path.write_text(hb.complete_rgraph(3, 2).to_json_str())
    return str(path)


@pytest.fixture()
def edgeless(tmp_path):
    path = tmp_path / "edgeless.json"
    path.write_text(json.dumps(
        {"r": 2, "vertices": ["a", "b", "c"], "edges": []}))
    return str(path)


# -- build -------------------------------------------------------------------


def test_build_box(k3_112, capsys):
    assert main(["build", "--input", k3_112]) == 0
    out = capsys.readouterr().out
    assert "box: 18 cells" in out
    assert "  dim 0: 12" in out
    assert "  dim 1: 6" in out


@pytest.mark.parametrize("kind,cells", [
    ("box", 12), ("hom", 12), ("sd-box", 24), ("sd-hom", 24)])
def test_build_kinds(k32, kind, cells, capsys):
    assert main(["build", "--input", k32, "--complex", kind]) == 0
    assert "%s: %d cells" % (kind, cells) in capsys.readouterr().out


def test_build_out_is_canonical_and_stable(k3_112, tmp_path, capsys):
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["build", "--input", k3_112, "--out", out1]) == 0
    assert main(["build", "--input", k3_112, "--out", out2]) == 0
    capsys.readouterr()
    b1 = open(out1, "rb").read()
    assert b1 == open(out2, "rb").read()
    assert b1.endswith(b"\n")
    obj = json.loads(b1)
    assert len(obj["cells"]) == 18
    assert {"id", "dim", "label", "covers"} <= set(obj["cells"][0])


@pytest.mark.parametrize("kind, sha", [
    ("box", "0cd0b2315e4a9c60e82549e372e474e8bda0e2fcbd5fb45ae414b3a32d0ee9a9"),
    ("hom", "86c6ddec1f03c9f1a5f04d57a5008c2f1c67bd78a4fd2378f64bc86474dccb81"),
    ("sd-box",
     "8961043cbc119e3aab5a3dd4f6072ebed2ce9ca9d58fdc7352da7b0706ff52ef"),
    ("sd-hom",
     "3a7569d94d9bd81f59a70c21f794be99ac3d777ac339849948d65e3ad354cde2"),
])
def test_build_out_bytes_pinned_and_no_action_built(k3_122, kind, sha,
                                                    tmp_path, monkeypatch,
                                                    capsys):
    # a dump reads only the complex, so no S_r-action is built for it
    built = []
    init = hb.GroupAction.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(hb.GroupAction, "__init__", counting_init)
    out = str(tmp_path / "out.json")
    assert main(["build", "--input", k3_122, "--complex", kind,
                 "--out", out]) == 0
    capsys.readouterr()
    assert built == []
    assert hashlib.sha256(open(out, "rb").read()).hexdigest() == sha


def test_build_dot(k32, tmp_path, capsys):
    dot = str(tmp_path / "hasse.dot")
    assert main(["build", "--input", k32, "--dot", dot]) == 0
    capsys.readouterr()
    text = open(dot).read()
    assert text.startswith("digraph")
    assert "rankdir=BT" in text


def test_failed_write_leaves_target_unchanged(k32, tmp_path, monkeypatch,
                                             capsys):
    out = tmp_path / "out.json"
    out.write_text("old\n")
    before = sorted(tmp_path.iterdir())

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("hombox.cli.os.replace", fail)
    assert main(["build", "--input", k32, "--out", str(out)]) == 4
    assert "cannot write" in capsys.readouterr().err
    assert out.read_text() == "old\n"
    assert sorted(tmp_path.iterdir()) == before


def test_write_follows_a_symlink(k32, tmp_path, capsys):
    # the link stays a link, and the file it points to, in another
    # directory, gets the report; no temporary file is left in either
    links, data = tmp_path / "links", tmp_path / "data"
    links.mkdir()
    data.mkdir()
    real, link = data / "real.json", links / "link.json"
    plain = tmp_path / "plain.json"
    real.write_text("old\n")
    link.symlink_to(real)
    assert main(["verify", "--input", k32, "--out", str(link)]) == 0
    assert main(["verify", "--input", k32, "--out", str(plain)]) == 0
    capsys.readouterr()
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_bytes() == plain.read_bytes()
    assert list(links.iterdir()) == [link]
    assert list(data.iterdir()) == [real]


def test_write_into_a_named_pipe(k32, tmp_path, capsys):
    # a target that is not a regular file is written in place; the reading
    # end is opened first, without blocking, and the report fits the pipe
    fifo, plain = tmp_path / "fifo", tmp_path / "plain.json"
    os.mkfifo(fifo)
    fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(["verify", "--input", k32, "--out", str(fifo)]) == 0
        got = os.read(fd, 1 << 16)
    finally:
        os.close(fd)
    assert main(["verify", "--input", k32, "--out", str(plain)]) == 0
    capsys.readouterr()
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert got == plain.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fifo", "k32.json", "plain.json"]


def test_build_edgeless_graph(edgeless, capsys):
    assert main(["build", "--input", edgeless]) == 0
    assert "box: 0 cells" in capsys.readouterr().out


# -- verify ------------------------------------------------------------------


def test_verify_isomorphic_case(k3_112, tmp_path, capsys):
    rep = str(tmp_path / "report.json")
    assert main(["verify", "--input", k3_112, "--out", rep]) == 0
    assert "D empty; complexes isomorphic" in capsys.readouterr().out
    assert json.loads(open(rep).read()) == {
        "cells": 30, "d_cells": 0, "sigma": 0, "critical": 30,
        "isomorphic_onto_critical": True}


def test_verify_collapsing_case(k3_122, tmp_path, capsys):
    rep = str(tmp_path / "report.json")
    assert main(["verify", "--input", k3_122, "--out", rep]) == 0
    out = capsys.readouterr().out
    assert "sigma 348" in out
    assert "critical 198" in out
    assert json.loads(open(rep).read()) == {
        "cells": 894, "d_cells": 696, "sigma": 348, "critical": 198,
        "isomorphic_onto_critical": True}


def test_verify_runs_the_collapse_once(corpus, tmp_path, monkeypatch):
    # with no certificate to write, verify still proves the matching by its
    # collapse, and runs it once
    from hombox import cli, morse

    calls = []

    def counted(*args):
        calls.append(args)
        return hb.matching_to_collapse(*args)

    for owner in (cli, morse):
        monkeypatch.setattr(owner, "matching_to_collapse", counted)
    for name, H in corpus.items():
        path = tmp_path / "graph.json"
        path.write_text(H.to_json_str())
        calls.clear()
        assert main(["verify", "--input", str(path)]) == 0, name
        assert len(calls) == 1, name


def test_verify_certificate_write_then_check(k3_112, tmp_path, capsys):
    cert = str(tmp_path / "matching.json")
    assert main(["verify", "--input", k3_112, "--certificate", cert]) == 0
    assert "written" in capsys.readouterr().out
    first = open(cert).read()
    assert main(["verify", "--input", k3_112, "--certificate", cert]) == 0
    assert "verified" in capsys.readouterr().out
    assert open(cert).read() == first


def test_verify_certificate_mismatch(k3_122, tmp_path, capsys):
    # a run's steps in reverse order: each step is still well formed, but
    # the first one expands a cell whose faces are not there yet
    cert = str(tmp_path / "matching.json")
    assert main(["verify", "--input", k3_122, "--certificate", cert]) == 0
    obj = json.loads(open(cert).read())
    run = obj["runs"][0]
    run[:] = run[::-1]
    with open(cert, "w") as fh:
        json.dump(obj, fh)
    capsys.readouterr()
    assert main(["verify", "--input", k3_122, "--certificate", cert]) == 2
    assert capsys.readouterr().err.startswith(
        "verification failed: expand-to-sd-box: step 0 (expand at cell ")


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def test_verify_certificate_is_stage_4(corpus, matchings, certificates,
                                       tmp_path, capsys):
    # on every corpus graph, verify writes stage 4 of the theorem
    # certificate, byte for byte, and its replay reports what the write
    # did, which is the report the matching's own counts give
    for name, H in corpus.items():
        M = matchings[name]
        graph = tmp_path / ("%s.json" % name)
        graph.write_text(H.to_json_str())
        cert, reports = tmp_path / ("%s.cert.json" % name), []
        for k in range(2):
            rep = tmp_path / ("%s.report%d.json" % (name, k))
            assert main(["verify", "--input", str(graph), "--certificate",
                         str(cert), "--out", str(rep)]) == 0
            reports.append(rep.read_text())
        stage = certificates[name].stages[3]
        assert stage["name"] == "expand-to-sd-box"
        assert cert.read_text() == _canonical(
            stage["certificate"].to_json_obj()), name
        assert reports[0] == reports[1] == _canonical({
            "cells": len(M.sd), "d_cells": len(M.d_cells()),
            "sigma": len(M.sigma()), "critical": len(M.critical),
            "isomorphic_onto_critical": True}), name
        out = capsys.readouterr().out.splitlines()
        assert out == [out[0], "matching certificate written to %s" % cert,
                       out[0], "matching certificate %s verified" % cert]
        if name == "K_5^3":
            assert cert.stat().st_size == 14403


def test_verify_replay_builds_no_matching(k3_122, tmp_path, monkeypatch,
                                         capsys):
    # as a theorem replay does, a verify replay takes the critical cells as
    # the chains of products: no chain is classified and no matching checked
    from hombox import cli, morse

    cert = str(tmp_path / "matching.json")
    assert main(["verify", "--input", k3_122, "--certificate", cert]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("a replay built or checked a matching")

    for owner in (morse, cli):
        monkeypatch.setattr(owner, "build_matching", refuse)
    monkeypatch.setattr(morse, "_classify", refuse)
    monkeypatch.setattr(morse.Matching, "verify", refuse)
    with pytest.raises(AssertionError):
        main(["verify", "--input", k3_122, "--certificate",
              str(tmp_path / "other.json")])
    assert main(["verify", "--input", k3_122, "--certificate", cert]) == 0
    assert "verified" in capsys.readouterr().out


def test_verify_certificate_of_another_graph(k3_112, k3_122, tmp_path,
                                             capsys):
    cert = str(tmp_path / "matching.json")
    assert main(["verify", "--input", k3_122, "--certificate", cert]) == 0
    capsys.readouterr()
    assert main(["verify", "--input", k3_112, "--certificate", cert]) == 2
    assert capsys.readouterr().err == (
        "verification failed: expand-to-sd-box: endpoints do not match\n")


def _flip(fingerprint):
    return "%032x" % (int(fingerprint, 16) ^ 1)


def _verify_endpoint(obj):
    obj["endpoints"][0] = _flip(obj["endpoints"][0])


def _verify_end_endpoint(obj):
    obj["endpoints"][1] = _flip(obj["endpoints"][1])


def _verify_direction(obj):
    obj["runs"][0][0][0] = "c"


def _verify_unknown_direction(obj):
    obj["runs"][0][0][0] = "x"


def _verify_sigma(obj):
    obj["runs"][0][0][1] += 1


def _verify_sigma_outside(obj):
    obj["runs"][0][0][1] = 10 ** 6


def _verify_extra_field(obj):
    obj["extra"] = 1


def _verify_no_endpoints(obj):
    del obj["endpoints"]


@pytest.mark.parametrize("tamper, code", [
    (_verify_endpoint, 2), (_verify_end_endpoint, 2), (_verify_direction, 2),
    (_verify_unknown_direction, 4), (_verify_sigma, 2),
    (_verify_sigma_outside, 4), (_verify_extra_field, 4),
    (_verify_no_endpoints, 4)])
def test_verify_tampered_certificate(k3_122, tamper, code, tmp_path, capsys):
    # one changed field is refused with an exit code and a message, never a
    # traceback
    cert = tmp_path / "matching.json"
    assert main(["verify", "--input", k3_122, "--certificate", str(cert)]) \
        == 0
    obj = json.loads(cert.read_text())
    tamper(obj)
    cert.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["verify", "--input", k3_122, "--certificate", str(cert)]) \
        == code
    err = capsys.readouterr().err
    assert err.startswith({2: "verification failed: ",
                           4: "input error: "}[code])
    assert "Traceback" not in err


def test_verify_refuses_chain_listing(k3_122, tmp_path, capsys):
    # the form verify wrote before, every Sigma chain with its partner and
    # every critical chain, is no longer checked
    cert = tmp_path / "matching.json"
    cert.write_text(json.dumps({
        "sigma": [{"chain": [0], "mu": [0, 1]}], "critical": [[1]]}))
    assert main(["verify", "--input", k3_122, "--certificate", str(cert)]) \
        == 4
    assert capsys.readouterr().err == (
        "input error: %s is a chain listing, which is no longer checked: "
        "write it again with `hombox verify --certificate`\n" % cert)


def test_verify_refuses_version_5_matching_certificate(k3_122, tmp_path,
                                                       capsys):
    # stage 4 as verify wrote it in format 5, each run starting with its
    # universe (None) and its end fingerprint, is refused with a request to
    # write it again; the form it is written in now replays
    cert = tmp_path / "matching.json"
    args = ["verify", "--input", k3_122, "--certificate", str(cert)]
    assert main(args) == 0
    obj = json.loads(cert.read_text())
    cert.write_text(json.dumps(dict(obj, runs=[
        [None, obj["endpoints"][1], *run] for run in obj["runs"]])))
    capsys.readouterr()
    assert main(args) == 4
    assert capsys.readouterr().err == (
        "input error: %s is a matching certificate of format version 5, "
        "which is no longer replayed: write it again with `hombox verify "
        "--certificate`\n" % cert)
    cert.write_text(json.dumps(obj))
    assert main(args) == 0


# -- theorem -----------------------------------------------------------------


def test_theorem_build_write_replay(k3_112, tmp_path, capsys):
    cert = str(tmp_path / "theorem.json")
    rep = str(tmp_path / "report.json")
    assert main(["theorem", "--input", k3_112, "--certificate", cert,
                 "--out", rep]) == 0
    out = capsys.readouterr().out
    assert "theorem certificate built: 6 stages" in out
    assert "homology agrees" in out
    report = json.loads(open(rep).read())
    assert report["agree"] is True
    assert report["betti"] == [6, 0]
    assert report["torsion"] == [[], []]
    assert len(report["endpoints"]) == 2

    # second run replays the stored certificate and writes the same report
    rep2 = str(tmp_path / "report2.json")
    assert main(["theorem", "--input", k3_112, "--certificate", cert,
                 "--out", rep2]) == 0
    assert "replayed: 6 stages ok" in capsys.readouterr().out
    assert open(rep).read() == open(rep2).read()


def test_theorem_build_then_replay_former_matching_failure(tmp_path, capsys):
    # K^2_{2,3}: the least-broken-index matching did not partition D here
    graph = tmp_path / "k2_23.json"
    graph.write_text(hb.complete_multipartite([2, 3]).to_json_str())
    cert = str(tmp_path / "theorem.json")
    args = ["theorem", "--input", str(graph), "--certificate", cert]
    assert main(args) == 0
    assert "theorem certificate built: 6 stages" in capsys.readouterr().out
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "replayed: 6 stages ok" in out
    assert "homology agrees" in out


# The report `hombox theorem --out` writes for the Kneser r-graph
# KG^r(n, k) (rgraph.kneser_rgraph), built and replayed alike.
KNESER_REPORTS = {
    (5, 2, 2): '{"agree":true,"betti":[1,11,0],"endpoints":['
               '"945fd1bb5737dec75b24784957b1e71b",'
               '"45daa2916cf57216b612dd52d85bb0e3"],"torsion":[[],[],[]]}\n',
    (6, 2, 3): '{"agree":true,"betti":[90],"endpoints":['
               '"212ca3dceed79cda0ed6112f90220806",'
               '"4da096739eff9fccad44b144c5c96d38"],"torsion":[[]]}\n',
    (8, 2, 4): '{"agree":true,"betti":[2520],"endpoints":['
               '"d88124c988eed5714bb4b206168e54be",'
               '"c26755d7bb40dc8c163b9c9f5abc0e53"],"torsion":[[]]}\n',
    (7, 3, 2): '{"agree":true,"betti":[1,71,0,0],"endpoints":['
               '"a755b3756da89fc4f794a46874cbe0d7",'
               '"e071273f3e9c900739affdb9cade146d"],'
               '"torsion":[[],[],[],[]]}\n',
    (7, 2, 3): '{"agree":true,"betti":[1,631,0],"endpoints":['
               '"1da3e7cd7467326db88b887ebd0a0423",'
               '"1a6e37ac222af1bfb96780da9cf5b56c"],"torsion":[[],[],[]]}\n',
}


@pytest.mark.parametrize("n, k, r", sorted(KNESER_REPORTS))
def test_theorem_reports_of_kneser_graphs(n, k, r, tmp_path, capsys):
    graph = tmp_path / "kneser.json"
    graph.write_text(hb.kneser_rgraph(n, k, r).to_json_str())
    cert = str(tmp_path / "theorem.json")
    reports = []
    for run, said in enumerate(["built: 6 stages", "replayed: 6 stages ok"]):
        rep = tmp_path / ("report%d.json" % run)
        assert main(["theorem", "--input", str(graph), "--certificate", cert,
                     "--out", str(rep)]) == 0
        assert said in capsys.readouterr().out
        reports.append(rep.read_text())
    assert reports == [KNESER_REPORTS[n, k, r]] * 2
    if r == 2:
        # Hom(K_2, KG(n, k)) is (n - 2k - 1)-connected (Lovasz 1978), so
        # its reduced Betti numbers vanish in degrees 0 to n - 2k - 1
        betti = json.loads(reports[0])["betti"]
        assert [betti[0] - 1] + betti[1:n - 2 * k] == [0] * (n - 2 * k)


def test_theorem_z2(k32, capsys):
    assert main(["theorem", "--input", k32, "--coeff", "z2"]) == 0
    assert "betti [1, 1]" in capsys.readouterr().out


@pytest.fixture(scope="module")
def k3_122_theorem(tmp_path_factory):
    """K3_122 and its theorem certificates by version: the one the CLI
    writes (6) and the fixtures (1 to 5), which it no longer replays.
    Every deformation stage of each has steps."""
    d = tmp_path_factory.mktemp("k3_122")
    graph, cert = str(d / "k3_122.json"), str(d / "theorem.json")
    with open(graph, "w") as fh:
        fh.write(hb.complete_multipartite([1, 2, 2]).to_json_str())
    assert main(["theorem", "--input", graph, "--certificate", cert]) == 0
    certs = {v: json.loads((FIXTURES / ("theorem_v%d_K3_122.json" % v))
                           .read_text()) for v in (1, 2, 3, 4, 5)}
    with open(cert) as fh:
        certs[6] = json.load(fh)
    return graph, certs


def _replay_tampered(k3_122_theorem, version, tamper, tmp_path, capsys):
    """Exit code and standard error of a replay of K3_122's certificate of
    the given version after tamper(obj) edits it."""
    graph, clean = k3_122_theorem
    obj = json.loads(json.dumps(clean[version]))
    tamper(obj)
    cert = str(tmp_path / "theorem.json")
    with open(cert, "w") as fh:
        json.dump(obj, fh)
    capsys.readouterr()
    rc = main(["theorem", "--input", graph, "--certificate", cert])
    return rc, capsys.readouterr().err


def _flip_stage_4_start(obj):
    # stage 4's start fingerprint, one bit changed
    stage = obj["stages"][3]["certificate"]
    stage["endpoints"][0] = "%032x" % (int(stage["endpoints"][0], 16) ^ 1)


def test_theorem_tampered_certificate(k3_112, k3_122_theorem, tmp_path,
                                      capsys):
    cert = str(tmp_path / "theorem.json")
    assert main(["theorem", "--input", k3_112, "--certificate", cert]) == 0
    capsys.readouterr()
    obj = json.loads(open(cert).read())
    _flip_stage_4_start(obj)
    with open(cert, "w") as fh:
        json.dump(obj, fh)
    assert main(["theorem", "--input", k3_112, "--certificate", cert]) == 2
    assert "verification failed: expand-to-sd-box: endpoints do not " \
        "match" in capsys.readouterr().err
    rc, err = _replay_tampered(k3_122_theorem, 6, _flip_stage_4_start,
                               tmp_path, capsys)
    assert rc == 2
    assert "verification failed: expand-to-sd-box" in err


@pytest.mark.parametrize("tamper", sorted(STRUCTURED_TAMPERS))
def test_theorem_refuses_structured_tampers(k3_122_theorem, tamper, tmp_path,
                                            capsys):
    edit, stage = STRUCTURED_TAMPERS[tamper]
    rc, err = _replay_tampered(k3_122_theorem, 6, edit, tmp_path, capsys)
    assert rc == 2
    assert err.startswith("verification failed: %s: " % stage), err


def test_theorem_refuses_old_versions(k3_122_theorem, tmp_path, capsys):
    # the certificates of versions 1 to 5 are input errors that name the
    # version and ask for a rebuild
    for version in (1, 2, 3, 4, 5):
        rc, err = _replay_tampered(k3_122_theorem, version, lambda obj: None,
                                   tmp_path, capsys)
        assert rc == 4
        assert err == (
            "input error: main theorem certificate of format version %d, "
            "which this hombox no longer replays: rebuild it with `hombox "
            "theorem`\n" % version)


# A tampered version 1 certificate, whose steps are [before, after, {...}],
# is refused by its version before any other field is read.  The tampers of
# version 6 below cover the fields themselves.


def _first_step(obj, stage):
    return obj["stages"][stage]["certificate"]["stages"][0][2]


def _drop_direction(obj):
    del _first_step(obj, 0)["direction"]


def test_theorem_malformed_certificate(k3_122_theorem, tmp_path, capsys):
    rc, err = _replay_tampered(k3_122_theorem, 1, _drop_direction, tmp_path,
                               capsys)
    assert rc == 4
    assert "input error: main theorem certificate of format version 1" in err


# Tampers of a version 6 certificate, whose runs are lists of steps, rows
# [direction, sigma, facet].


def _first_row(obj, stage):
    return obj["stages"][stage]["certificate"]["runs"][0][0]


def _drop_direction_v2(obj):
    del _first_row(obj, 0)[0]


def _stage_not_an_object(obj):
    obj["stages"][1] = ["unfold-hom-subdivision"]


def _drop_certificate(obj):
    del obj["stages"][3]["certificate"]


def _bool_id_v2(obj):
    _first_row(obj, 0)[1] = True


def _negative_id_v2(obj):
    _first_row(obj, 5)[2] = -1


def _id_outside_stellar_universe_v2(obj):
    _first_row(obj, 0)[1] = 10 ** 6


def _id_outside_collapse_universe_v2(obj):
    _first_row(obj, 3)[2] = 10 ** 6


def _bool_in_iso_map_v2(obj):
    # version 6 isomorphism stages have no map
    obj["stages"][4]["map"] = [True]


def _unknown_version(obj):
    obj["version"] = 7


def _run_with_a_universe(obj):
    # a run of version 5 started with its universe's fingerprint
    obj["stages"][0]["certificate"]["runs"][0].insert(0, "0" * 32)


def _endpoints_in_stage_1(obj):
    obj["stages"][0]["certificate"]["endpoints"] = \
        obj["stages"][3]["certificate"]["endpoints"]


def _no_endpoints_in_stage_4(obj):
    del obj["stages"][3]["certificate"]["endpoints"]


def _iso_stage_with_its_ends(obj):
    # a version 5 isomorphism stage named its complexes by fingerprint
    obj["stages"][1]["from"] = obj["endpoints"][0]


def _unknown_field(obj):
    obj["junk"] = 1


def _unknown_deformation_field(obj):
    obj["stages"][0]["certificate"]["extra"] = 1


@pytest.mark.parametrize("tamper", [
    _drop_direction_v2, _stage_not_an_object, _drop_certificate,
    _bool_id_v2, _negative_id_v2, _id_outside_stellar_universe_v2,
    _id_outside_collapse_universe_v2, _bool_in_iso_map_v2, _unknown_version,
    _run_with_a_universe, _endpoints_in_stage_1, _no_endpoints_in_stage_4,
    _iso_stage_with_its_ends, _unknown_field, _unknown_deformation_field])
def test_theorem_malformed_certificate_v2(k3_122_theorem, tamper, tmp_path,
                                          capsys):
    rc, err = _replay_tampered(k3_122_theorem, 6, tamper, tmp_path, capsys)
    assert rc == 4
    assert "input error" in err


def _first_step_of_run_0(obj):
    del obj["stages"][5]["certificate"]["runs"][0][0]


def test_theorem_tampered_stage_names_stage_and_step(k3_122_theorem, tmp_path,
                                                     capsys):
    # stage 6 is replayed from its end, so its first run's first step is
    # the last step of the replay's last run: without it, that run ends
    # short of the stellar subdivision
    rc, err = _replay_tampered(k3_122_theorem, 6, _first_step_of_run_0,
                               tmp_path, capsys)
    assert rc == 2
    assert re.match(r"verification failed: desubdivide-box, replayed "
                    r"reversed: run \d+ \(schedule cell \d+ .+\): the state "
                    r"after step \d+ is not the stellar subdivision at the "
                    r"run's orbit\n$", err)


class _ClosedStdout:
    """A standard output whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    flush = write


def test_theorem_with_closed_stdout(k3_122, tmp_path, monkeypatch):
    # as in `hombox theorem ... | grep -q built`: the command still writes
    # the certificate and the report, and exits with its own code
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    cert, rep = tmp_path / "theorem.json", tmp_path / "report.json"
    assert main(["theorem", "--input", k3_122, "--certificate", str(cert),
                 "--out", str(rep)]) == 0
    assert json.loads(rep.read_text())["agree"] is True
    replays(hb.complete_multipartite([1, 2, 2]), json.loads(cert.read_text()))


def test_theorem_into_a_closed_pipe(k3_112, tmp_path):
    # a real pipe whose reader is gone before the first line: no traceback,
    # exit 0, and the certificate is written
    cert = tmp_path / "theorem.json"
    proc = subprocess.Popen(
        [sys.executable, "-m", "hombox", "theorem", "--input", k3_112,
         "--certificate", str(cert)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""
    assert json.loads(cert.read_text())["version"] == 6


def test_theorem_unreadable_certificate(k3_112, tmp_path, capsys):
    cert = str(tmp_path / "theorem.json")
    with open(cert, "w") as fh:
        fh.write("{not json")
    assert main(["theorem", "--input", k3_112, "--certificate", cert]) == 4
    assert "input error" in capsys.readouterr().err


def test_theorem_edgeless_graph(edgeless, capsys):
    assert main(["theorem", "--input", edgeless]) == 0
    assert "homology agrees" in capsys.readouterr().out


def test_theorem_with_no_stellar_stage(tmp_path, capsys):
    # box and Hom of K_3^3 are 0-dimensional, so both sd-deformations have
    # no run; a run added to either of them is refused
    graph = tmp_path / "k33.json"
    graph.write_text(hb.complete_rgraph(3, 3).to_json_str())
    cert = tmp_path / "theorem.json"
    args = ["theorem", "--input", str(graph), "--certificate", str(cert)]
    assert main(args) == 0
    clean = json.loads(cert.read_text())
    assert [clean["stages"][k]["certificate"]["runs"] for k in (0, 5)] \
        == [[], []]
    assert main(args) == 0
    assert "replayed: 6 stages ok" in capsys.readouterr().out
    for k in (0, 5):
        obj = json.loads(json.dumps(clean))
        obj["stages"][k]["certificate"]["runs"].append([["e", 0, 1]])
        cert.write_text(json.dumps(obj))
        assert main(args) == 2
        assert re.search("certificate has 1 stages but the schedule needs 0",
                         capsys.readouterr().err)


# -- exit codes ---------------------------------------------------------------


def test_size_guard_exit_code(k32, capsys):
    assert main(["build", "--input", k32, "--max-cells", "5"]) == 3
    assert "size guard" in capsys.readouterr().err


@pytest.mark.parametrize("n, max_cells", [
    (4, 60), (4, 100), (4, 131), (5, 930), (5, 5000), (5, 13349)])
def test_theorem_size_guard_before_any_stellar_stage(n, max_cells, tmp_path,
                                                     monkeypatch, capsys):
    # with a guard from |B_edge| up to |sd B_edge| - 1 (60 and 132 cells on
    # K_4^3, 930 and 13,350 on K_5^3), build and replay refuse with the
    # order complex's guard, counted before any stellar stage runs: a stage
    # on an input over the guard fails the test
    from hombox import collapse

    sd_cells = {4: 132, 5: 13350}[n]
    graph = tmp_path / "graph.json"
    graph.write_text(hb.complete_rgraph(n, 3).to_json_str())
    cert = str(tmp_path / "theorem.json")
    argv = ["theorem", "--input", str(graph), "--certificate", cert]
    assert main(argv) == 0
    capsys.readouterr()

    def refuse(*args, **kwargs):
        raise AssertionError("a stellar stage ran over the size guard")

    monkeypatch.setattr(collapse, "_stellar_stage", refuse)
    guard = ("size guard: order complex needs %d cells, over the %d-cell "
             "guard\n" % (sd_cells, max_cells))
    # a replay of the certificate written above, then a build
    for replay in (True, False):
        assert os.path.exists(cert) == replay
        assert main(argv + ["--max-cells", str(max_cells)]) == 3
        assert capsys.readouterr() == ("", guard)
        if replay:
            os.unlink(cert)


def test_missing_input_exit_code(tmp_path, capsys):
    assert main(["build", "--input", str(tmp_path / "nope.json")]) == 4
    assert "input error" in capsys.readouterr().err


def test_bad_graph_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"r": 2, "vertices": ["a"], "edges": [["a", "a"]]}))
    assert main(["build", "--input", str(path)]) == 4
    capsys.readouterr()


def test_repeated_vertex_exit_code(tmp_path, capsys):
    # a vertex listed twice is refused, as an edge given twice is, not
    # merged into one
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"r": 2, "vertices": ["a", "a", "b"], "edges": [["a", "b"]]}))
    assert main(["build", "--input", str(path)]) == 4
    assert ("input error: vertex 'a' appears twice"
            in capsys.readouterr().err)


@pytest.mark.parametrize("graph", [
    {"r": 2, "vertices": 5, "edges": []},
    {"r": 2, "vertices": ["a", "b"], "edges": 7},
    {"r": 2, "vertices": ["a", "b"], "edges": [5]},
    {"r": 2, "vertices": ["a", "b"], "edges": [[["a"], "b"]]},
    {"r": True, "vertices": ["a"], "edges": [["a"]]},
])
def test_malformed_graph_exit_code(graph, tmp_path, capsys):
    # a malformed r-graph is an input error, never a traceback
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(graph))
    assert main(["build", "--input", str(path)]) == 4
    assert "input error" in capsys.readouterr().err


def _count_order_complex_calls(monkeypatch):
    """Wrap cellcx.order_complex in every hombox module that holds it;
    returns the list the wrapper appends one entry to per call."""
    from hombox import cellcx

    calls = []
    original = cellcx.order_complex

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "hombox" or name.startswith("hombox.")) and \
                getattr(module, "order_complex", None) is original:
            monkeypatch.setattr(module, "order_complex", counting)
    return calls


def test_theorem_subdivides_each_complex_once(k3_122, tmp_path, monkeypatch,
                                              capsys):
    # sd B_edge in the matching and sd Hom in the stage-3 check; the two
    # sd-deformations and the homology check subdivide nothing more
    from hombox import homology

    assert not hasattr(homology, "order_complex")
    calls = _count_order_complex_calls(monkeypatch)
    cert = str(tmp_path / "theorem.json")
    assert main(["theorem", "--input", k3_122, "--certificate", cert]) == 0
    assert len(calls) == 2
    del calls[:]
    assert main(["theorem", "--input", k3_122, "--certificate", cert]) == 0
    assert "replayed" in capsys.readouterr().out
    assert len(calls) == 2
    del calls[:]
    assert hb.homology_agreement(hb.complete_multipartite([1, 2, 2])).agree
    assert calls == []


def test_theorem_replay_builds_no_matching(k3_122, tmp_path, monkeypatch,
                                           capsys):
    # replay takes the critical cells as the chains of products: it
    # classifies no chain, builds no mu and runs no matching check
    from hombox import morse

    cert = str(tmp_path / "theorem.json")
    assert main(["theorem", "--input", k3_122, "--certificate", cert]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("a replay built or checked a matching")

    monkeypatch.setattr(morse, "build_matching", refuse)
    monkeypatch.setattr(morse, "_classify", refuse)
    monkeypatch.setattr(morse.Matching, "verify", refuse)
    assert main(["theorem", "--input", k3_122, "--certificate", cert]) == 0
    assert "replayed: 6 stages ok" in capsys.readouterr().out


def test_theorem_certificate_of_another_graph(k3_112, k3_122, tmp_path,
                                              monkeypatch, capsys):
    # the endpoints are checked before anything is subdivided
    cert = str(tmp_path / "theorem.json")
    assert main(["theorem", "--input", k3_112, "--certificate", cert]) == 0
    capsys.readouterr()
    calls = _count_order_complex_calls(monkeypatch)
    assert main(["theorem", "--input", k3_122, "--certificate", cert]) == 2
    assert capsys.readouterr().err == (
        "verification failed: certificate endpoints do not match Hom and "
        "box complexes\n")
    assert calls == []


def test_bad_flag_exit_code(k32, capsys):
    assert main(["build", "--input", k32, "--complex", "warp"]) == 4
    assert main(["frobnicate"]) == 4
    assert main([]) == 4
    assert main(["build", "--input", k32, "--max-cells", "0"]) == 4
    capsys.readouterr()


def test_theorem_actions_hold_only_generators(k3_122, tmp_path, monkeypatch,
                                              capsys):
    # every S_3-action of a build and of a replay, and every stellar cell
    # store, carries r - 1 = 2 permutations: the adjacent transpositions
    from hombox import collapse

    held = []
    for cls in (hb.GroupAction, collapse._CellStore):
        def wrapped(self, cx, *args, init=cls.__init__, **kwargs):
            init(self, cx, *args, **kwargs)
            held.append(len(self.perms))
        monkeypatch.setattr(cls, "__init__", wrapped)
    cert = str(tmp_path / "theorem.json")
    assert main(["theorem", "--input", k3_122, "--certificate", cert]) == 0
    assert len(held) >= 8 and set(held) == {2}
    del held[:]
    assert main(["theorem", "--input", k3_122, "--certificate", cert]) == 0
    assert "replayed" in capsys.readouterr().out
    assert len(held) >= 8 and set(held) == {2}


@pytest.mark.parametrize("command, flag, content, message", [
    ("verify", "--certificate", b"\xff\xfe{}",
     "cannot read matching certificate"),
    ("theorem", "--certificate", b"[" * 200000,
     "cannot read theorem certificate .*recursion"),
    ("build", "--input", b"[" * 200000, "cannot read r-graph JSON.*recursion"),
], ids=["verify", "theorem", "build"])
def test_unreadable_input_exit_code(command, flag, content, message, k3_122,
                                    tmp_path, capsys):
    # a file that is not UTF-8, or JSON nested past the parser's recursion
    # limit, is an input error (exit 4), not a traceback
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    argv = [command, "--input", k3_122, flag, str(bad)]
    if flag == "--input":
        argv = [command, "--input", str(bad)]
    assert main(argv) == 4
    assert re.search(message, capsys.readouterr().err)
