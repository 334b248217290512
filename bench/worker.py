"""One fresh worker process of the hombox benchmark.

    python3 bench/worker.py '<json spec>'

The spec names a phase ("setup", "theorem_build", "theorem_replay",
"matching" or "random") and its files.  The worker imports hombox from the
checkout's `src/`, sets up its input, runs the phase once, checks every
output against its golden value, and prints one JSON result as the last line
of standard output.  A golden mismatch exits with code 1 and no result.

Every phase runs in its own process because `hombox.cellcx._canon_memo` is
process-wide: a warm process is faster, and results must not depend on
process history.

Workers of an untraced run report their times (setup_s, build_s, replay_s)
in reference-host seconds, from the host-speed samples of `hostspeed.py`,
and their wall times beside them.  The workers of a traced run take no
samples, so that no probe lands inside a span and the untraced job is
timed as the traced one is; their times are wall times.
"""

import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads as wl  # noqa: E402

# Probes a setup worker runs after setting up, after one unrecorded probe
# that pays for first use of the memory; the setup itself is too short to
# hold one.
SETUP_PROBES = 5


class GoldenMismatch(Exception):
    pass


class Clock:
    """Times sections of a phase: reference-host seconds when a sampler
    runs, wall seconds otherwise."""

    def __init__(self, sampler=None):
        self.sampler = sampler

    def seconds(self, sections, ref=hostspeed.REF_PROBE_S):
        if self.sampler is None:
            return sum(b - a for a, b in sections)
        return self.sampler.ref_seconds(sections, ref)


def check(ok, what):
    if not ok:
        raise GoldenMismatch(what)


def import_hombox():
    sys.path.insert(0, str(CHECKOUT / "src"))
    import hombox
    where = Path(hombox.__file__).resolve().parent
    if where != CHECKOUT / "src" / "hombox":
        raise ImportError("hombox imported from %s, not from this checkout"
                          % where)
    return hombox


def load_input(hb, spec):
    """The workload's input r-graph(s): part of setup_s."""
    name = spec["workload"]
    if name == "theorem_K5_3":
        return hb.load_rgraph(spec["input"])
    if name == "matching_K6_4":
        return hb.complete_rgraph(6, 4)
    return [hb.new_rgraph(r, verts, edges)
            for r, verts, edges in wl.random_small_inputs(spec["seed"])]


def canonical_size(obj):
    """Bytes of obj in the CLI's canonical JSON form (without the newline)."""
    return len(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def stage_bytes(cert_path):
    """Canonical JSON size of each stage of a written theorem certificate."""
    with open(cert_path) as fh:
        stages = json.load(fh)["stages"]
    return {"collapse.stage_bytes." + s["name"]: canonical_size(s)
            for s in stages}


def run_theorem(spec, tracer, clock):
    from hombox import cli
    argv = ["theorem", "--input", spec["input"], "--certificate", spec["cert"],
            "--out", spec["out"]]
    start = perf_counter()
    rc = cli.main(argv)
    end = perf_counter()
    job_s = end - start
    phase_s = clock.seconds([(start, end)])
    if tracer:
        tracer.enabled = False
    check(rc == 0, "hombox theorem exited %r" % rc)
    with open(spec["out"]) as fh:
        check(fh.read() == wl.THEOREM_REPORT, "theorem report bytes differ")
    res = {"job_s": job_s, "sd_cells": wl.THEOREM_SD_CELLS,
           "cells_built": wl.THEOREM_SD_CELLS,
           "attempted": 1, "failed": 0, "ok": 1}
    if spec["phase"] == "theorem_build":
        res["build_s"], res["build_wall_s"] = phase_s, job_s
        res["cert_bytes"] = Path(spec["cert"]).stat().st_size
        if tracer:
            res["extra"] = stage_bytes(spec["cert"])
    else:
        res["replay_s"], res["replay_wall_s"] = phase_s, job_s
    return res


def run_matching(hb, H, tracer, clock):
    g = wl.MATCHING_GOLDEN
    t0 = perf_counter()
    M = hb.build_matching(H, max_cells=wl.MAX_CELLS)
    hb.verify_critical_isomorphism(M, max_cells=wl.MAX_CELLS)
    run = hb.matching_to_collapse(M.sd, M.action, M)
    t1 = perf_counter()
    state = hb.replay_collapse_certificate(M.sd, M.action, run.certificate)
    t2 = perf_counter()
    agree = hb.homology_agreement(H, coeff="z", max_cells=wl.MAX_CELLS)
    t3 = perf_counter()
    if tracer:
        tracer.enabled = False
    check(len(M.hom.cx) == g["hom_cells"], "Hom cell count")
    check(len(M.box.cx) == g["box_cells"], "box cell count")
    check(len(M.sd) == g["chains"], "chain count")
    check(len(M.d_cells()) == g["d_cells"], "D count")
    check(len(M.critical) == g["critical"], "critical count")
    crit = M.sd.subcomplex(M.critical)[0]
    check(crit.fingerprint_hex == g["critical_fingerprint"],
          "critical subcomplex fingerprint")
    check(run.certificate.endpoints[1] == crit.fingerprint,
          "collapse endpoint is not the critical subcomplex")
    check(state.fingerprint == crit.fingerprint, "replay endpoint")
    check(agree.agree and agree.box_report["betti"] == g["betti"]
          and agree.box_report["torsion"] == g["torsion"], "homology")
    # One replay takes a fraction of a second, too short to time once on a
    # shared host; replay_s is the mean of the job's replay and more,
    # untraced replays after it.
    replays = [(t1, t2)]
    for _ in range(wl.MATCHING_REPLAYS - 1):
        t = perf_counter()
        again = hb.replay_collapse_certificate(M.sd, M.action,
                                               run.certificate)
        replays.append((t, perf_counter()))
        check(again.fingerprint == crit.fingerprint, "replay endpoint")
    build = [(t0, t1), (t2, t3)]
    return {"job_s": t3 - t0, "build_s": clock.seconds(build),
            "build_wall_s": (t1 - t0) + (t3 - t2),
            "replay_s": clock.seconds(replays) / len(replays),
            "replay_wall_s": statistics.median(b - a for a, b in replays),
            "sd_cells": len(M.sd),
            "cells_built": len(M.sd),
            "cert_bytes": canonical_size(run.certificate.to_json_obj()),
            "attempted": 1, "failed": 0, "ok": 1}


def run_random(hb, graphs, tracer, clock):
    """Sweep the graphs through the matching path.  A HomboxError fails that
    graph only and is recorded by class name."""
    rows = []
    builds, replays = [], []
    for H in graphs:
        if tracer:
            tracer.enabled = True
        t0 = perf_counter()
        try:
            M = hb.build_matching(H, max_cells=wl.MAX_CELLS)
            hb.verify_critical_isomorphism(M, max_cells=wl.MAX_CELLS)
            run = hb.matching_to_collapse(M.sd, M.action, M)
            t1 = perf_counter()
            state = hb.replay_collapse_certificate(M.sd, M.action,
                                                   run.certificate)
            t2 = perf_counter()
        except hb.HomboxError as e:
            t1 = t2 = perf_counter()
            outcome, error = type(e).__name__, e
        else:
            outcome, error = "ok", None
            builds.append((t0, t1))
            replays.append((t1, t2))
        if tracer:
            tracer.enabled = False
        row = {"r": H.r, "n": len(H.vertices), "edges": len(H.edges),
               "outcome": outcome, "build_s": t1 - t0, "replay_s": t2 - t1,
               "wall_s": t2 - t0, "cert_bytes": 0}
        if error is None:
            row["sd_cells"] = len(M.sd)
            check(row["sd_cells"] == wl.chain_count(M.box.cx),
                  "sd box cell count")
            check(len(M.critical) == wl.chain_count(M.hom.cx),
                  "critical count differs from |sd Hom|")
            crit = M.sd.subcomplex(M.critical)[0]
            check(run.certificate.endpoints[1] == crit.fingerprint
                  and state.fingerprint == crit.fingerprint,
                  "collapse endpoint is not the critical subcomplex")
            row["cert_bytes"] = canonical_size(run.certificate.to_json_obj())
        elif isinstance(error, hb.SizeGuard):
            row["sd_cells"] = None
        else:
            row["sd_cells"] = wl.chain_count(
                hb.box_edge(H, max_cells=wl.MAX_CELLS).cx)
        rows.append(row)
    certified = [row for row in rows if row["outcome"] == "ok"]
    res = {k: sum(row[k] for row in certified)
           for k in ("sd_cells", "cert_bytes")}
    res.update({"build_s": clock.seconds(builds),
                "replay_s": clock.seconds(replays),
                "build_wall_s": sum(row["build_s"] for row in certified),
                "replay_wall_s": sum(row["replay_s"] for row in certified),
                "job_s": sum(row["wall_s"] for row in rows),
                "cells_built": sum(row["sd_cells"] or 0 for row in rows),
                "attempted": len(rows), "failed": len(rows) - len(certified),
                "ok": len(certified), "rows": rows})
    return res


def main():
    spec = json.loads(sys.argv[1])
    t0 = perf_counter()
    hb = import_hombox()
    import_s = perf_counter() - t0
    tracer = None
    if spec.get("trace"):
        import tracing
        tracer = tracing.Tracer(run_id="%s-%s" % (spec["workload"],
                                                spec["phase"]))
        tracing.install(tracer)
    t1 = perf_counter()
    data = load_input(hb, spec)
    t2 = perf_counter()
    load_s = t2 - t1
    sampler = hostspeed.Sampler() if spec["sample"] else None
    clock = Clock(sampler)
    res = {"setup_wall_s": import_s + load_s, "load_s": load_s}
    phase = spec["phase"]
    if phase == "setup":
        if sampler:
            hostspeed.time_probe()
            sampler.add(SETUP_PROBES)
        res["setup_s"] = clock.seconds([(t0, t2)],
                                       hostspeed.REF_SETUP_PROBE_S)
    if sampler and phase != "setup":
        sampler.start()
    try:
        if phase.startswith("theorem_"):
            res.update(run_theorem(spec, tracer, clock))
        elif phase == "matching":
            res.update(run_matching(hb, data, tracer, clock))
        elif phase == "random":
            res.update(run_random(hb, data, tracer, clock))
    finally:
        if sampler and phase != "setup":
            sampler.stop()
    if tracer:
        layers, counts = tracing.layer_metrics(tracer, load_s + res["job_s"])
        res["layers"] = layers
        res["counts"] = dict(counts, **res.pop("extra", {}))
        tracer.write_spans(spec["spans"])
    res["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(res))


if __name__ == "__main__":
    try:
        main()
    except GoldenMismatch as e:
        print("golden check failed: %s" % e, file=sys.stderr)
        sys.exit(1)
