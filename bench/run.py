"""The hombox benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every phase runs in a fresh worker process
(bench/worker.py) that imports hombox from the checkout's `src/` and checks
its outputs against golden values; this process only starts workers, one at
a time, and aggregates what they print.

With --trace 0 the run repeats the workload's job while another job still
fits in S seconds (at least once) and prints the end-to-end metrics: the
median over jobs, and for setup_s the median over setup-only workers run
before and after the jobs.  Times are in reference-host seconds, which the
workers derive from the host speed they sample while they work
(hostspeed.py); the wall times are printed on the lines before the result.
With --trace 1 it runs the job once untraced and once traced, with no
sampling, and prints the per-layer metrics of the traced job together with
the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Any golden mismatch or worker error exits
non-zero without printing it.  `--workload all` runs every workload in turn,
each printing its own result line, and exits non-zero if any of them fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

# Workers that only set up, half before and half after the jobs, so setup_s
# is a median of many fresh processes spread over the run.
SETUP_SAMPLES = 40
# A run must end within 180 s; leave room to stop the last worker.
DEADLINE_S = 170

# Run-to-run spread (IQR/median) of a job's wall time on the shared 2-vCPU
# host the benchmark was sized on (trajectory.json).  A traced-minus-untraced
# difference smaller than this share of the job cannot be told from drift.
HOST_SPREAD = 0.15

END_TO_END = {
    "setup_s": "s", "build_s": "s", "replay_s": "s", "cert_bytes": "bytes",
    "peak_rss_mb": "MB",
}
PHASES = {
    "theorem_K5_3": ["theorem_build", "theorem_replay"],
    "matching_K6_4": ["matching"],
    "random_small": ["random"],
}


class WorkerFailed(Exception):
    pass


class Runner:
    """Starts workers one at a time inside one run's work directory."""

    def __init__(self, workload, seed, work, sample):
        self.workload = workload
        self.seed = seed
        self.work = work
        # Whether workers sample the host's speed; off in a traced run, so
        # its untraced and traced jobs differ only by the tracing.
        self.sample = sample
        self.start = perf_counter()
        self.results = []
        # Bytecode caches go to the run's own directory, written by the first
        # (unmeasured) worker, so setup_s is the cached import an installed
        # package gives, whatever the environment says about bytecode.
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        PYTHONPYCACHEPREFIX=str(work / "pycache"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def worker(self, phase, trace=False, tag=""):
        spec = {"workload": self.workload, "seed": self.seed, "phase": phase,
                "trace": trace, "sample": self.sample,
                "input": str(self.work / "input.json"),
                "cert": str(self.work / "cert.json"),
                "out": str(self.work / "report.json"),
                "spans": str(self.work / ("spans-%s%s.jsonl" % (phase, tag)))}
        left = DEADLINE_S - (perf_counter() - self.start)
        if left <= 0:
            raise WorkerFailed("run deadline passed before phase %s" % phase)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                cwd=CHECKOUT, env=self.env, capture_output=True, text=True,
                timeout=left)
        except subprocess.TimeoutExpired:
            raise WorkerFailed("phase %s passed the run deadline" % phase)
        if proc.returncode != 0:
            raise WorkerFailed("phase %s exited %d:\n%s"
                               % (phase, proc.returncode, proc.stderr[-2000:]))
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        self.results.append(res)
        return res

    def job(self, trace=False, tag=""):
        """One job of the workload: its phases, each in a fresh worker."""
        if self.workload == "theorem_K5_3":
            for name in ("cert.json", "report.json"):
                (self.work / name).unlink(missing_ok=True)
        return [self.worker(p, trace, tag) for p in PHASES[self.workload]]


def job_totals(phases):
    """Seconds and bytes of one job, summed over its phases, with its sd
    cells: `sd_cells` of the certified graphs and `cells_built` of every
    graph whose subdivided box complex was built."""
    tot = {k: sum(res.get(k, 0) for res in phases)
           for k in ("build_s", "replay_s", "build_wall_s", "replay_wall_s",
                     "cert_bytes", "job_s")}
    tot["sd_cells"] = phases[0]["sd_cells"]
    tot["cells_built"] = phases[0]["cells_built"]
    tot["ok"] = min(res["ok"] for res in phases)
    return tot


def job_metrics(phases):
    """End-to-end values of one job (all but setup_s and peak_rss_mb).
    Build and replay are kept apart, so a change that moves work from one
    into the other (say, by recording more in the certificate) shows."""
    t = job_totals(phases)
    return {k: t[k] for k in ("build_s", "replay_s", "cert_bytes")}


def timed_run(runner, seconds):
    jobs = []
    begin = perf_counter()
    while True:
        t = perf_counter()
        jobs.append(runner.job())
        took = perf_counter() - t
        if perf_counter() - begin + took > seconds:
            return jobs


def traced_run(runner):
    untraced = runner.job()
    traced = runner.job(trace=True, tag="-traced")
    layers, counts = {}, {}
    for res in traced:
        for k, v in res["layers"].items():
            layers[k] = layers.get(k, 0) + v
        for k, v in res["counts"].items():
            if k == "cellcx.canon_memo_entries":
                counts[k] = max(counts.get(k, 0), v)
            else:
                counts[k] = counts.get(k, 0) + v

    def wall(phases):
        return sum(r["load_s"] + r["job_s"] for r in phases)

    layers["trace.overhead_s"] = wall(traced) - wall(untraced)
    layers["trace.untraced_s"] = wall(untraced)
    for name in tracing.STAGE_NAMES:
        counts.setdefault("collapse.stage_bytes." + name, 0)
    cells = counts["collapse.universe_cells"]
    counts["collapse.universe_yield"] = (
        counts["collapse.sd_final_cells"] / cells if cells else 0.0)
    attempted = sum(r["attempted"] for r in traced)
    failed = sum(r["failed"] for r in traced)
    counts["fail_frac"] = failed / attempted
    return [untraced, traced], layers, counts


def per_layer_units():
    units = {name: "s" for name in tracing.TIME_LAYERS}
    units.update({"trace.layers_s": "s", "trace.other_s": "s",
                  "trace.wrapper_s": "s", "trace.overhead_s": "s",
                  "trace.untraced_s": "s"})
    units.update({name: "count" for name in tracing.COUNTS})
    units.update({"collapse.stage_bytes." + n: "bytes"
                  for n in tracing.STAGE_NAMES})
    units.update({"collapse.universe_yield": "ratio", "fail_frac": "ratio"})
    return units


def summarize(workload, jobs, rows, metrics, traced):
    """Human-readable lines before the result line."""
    print("workload %s: %s, each phase in a fresh worker"
          % (workload, "one untraced and one traced job" if traced
             else "%d job(s)" % len(jobs)))
    for name, m in metrics.items():
        print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    if traced:
        diff = metrics["trace.overhead_s"]["value"]
        noise = HOST_SPREAD * metrics["trace.untraced_s"]["value"]
        # Tracing cannot make a job faster, so a difference below the
        # host's spread, negative ones included, is drift.
        print("  tracing overhead: traced minus untraced %.3f s, %s; "
              "time inside the wrappers %.3f s"
              % (diff, "resolved" if diff >= noise else
                 "unresolved (the host's run-to-run spread is about %.1f s)"
                 % noise, metrics["trace.wrapper_s"]["value"]))
    for i, phases in enumerate(jobs):
        t = job_totals(phases)
        print("  job %d: build_s %.3f s (wall %.3f s), replay_s %.3f s "
              "(wall %.3f s), wall_s %.3f s, cert_bytes %d bytes, ok_per_s "
              "%.4f graphs/s; %d certified graph(s) of %d sd cells, %d sd "
              "cells built"
              % (i, t["build_s"], t["build_wall_s"], t["replay_s"],
                 t["replay_wall_s"], t["job_s"], t["cert_bytes"],
                 t["ok"] / t["job_s"], t["ok"], t["sd_cells"],
                 t["cells_built"]))
    if rows:
        outcomes = {}
        for row in rows:
            outcomes[row["outcome"]] = outcomes.get(row["outcome"], 0) + 1
        times = sorted(row["wall_s"] for row in rows)
        print("  outcomes %s; per-graph wall median %.4f s, p90 %.4f s "
              "(%d graphs)" % (json.dumps(outcomes, sort_keys=True),
                               times[len(times) // 2],
                               times[int(len(times) * 0.9)], len(times)))


def write_lines(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def run_workload(workload, seed, seconds, trace):
    """One run of one workload; prints its result line and returns 0, or
    returns 1 without a result line when a worker fails."""
    out = HERE / "out"
    tag = "%s-seed%d" % (workload, seed)
    work = out / ("%s-%d" % (tag, os.getpid()))
    work.mkdir(parents=True)
    runner = Runner(workload, seed, work, sample=not trace)
    try:
        (work / "input.json").write_text(
            json.dumps(wl.complete_rgraph_json(5, 3)))
        runner.worker("setup")  # writes the bytecode caches; not measured
        if trace:
            jobs, layers, counts = traced_run(runner)
            values = dict(layers, **counts)
            units = per_layer_units()
            with open(out / ("spans-%s.jsonl" % tag), "w") as fh:
                for f in sorted(work.glob("spans-*-traced.jsonl")):
                    fh.write(f.read_text())
            counted = jobs[1]
        else:
            half = SETUP_SAMPLES // 2
            setups = [runner.worker("setup")["setup_s"] for _ in range(half)]
            jobs = timed_run(runner, seconds)
            setups += [runner.worker("setup")["setup_s"]
                       for _ in range(SETUP_SAMPLES - half)]
            per_job = [job_metrics(phases) for phases in jobs]
            values = {k: statistics.median(j[k] for j in per_job)
                      for k in per_job[0]}
            values["setup_s"] = statistics.median(setups)
            values["peak_rss_mb"] = max(r["rss_mb"] for r in runner.results)
            units = END_TO_END
            counted = [res for phases in jobs for res in phases]
    except WorkerFailed as e:
        print("benchmark failed: %s" % e, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rows = [row for res in counted for row in res.get("rows", ())]
    if rows:
        write_lines(out / ("graphs-%s.jsonl" % tag), rows)
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    summarize(workload, jobs, rows, metrics, trace)
    attempted = sum(r["attempted"] for r in counted)
    failed = sum(r["failed"] for r in counted)
    print("  ops attempted %d, failed %d (fail_frac %.4f)"
          % (attempted, failed, failed / attempted))
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=wl.WORKLOADS + ("all",),
                   help="one workload, or all of them one after another")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(name, args.seed, args.seconds, args.trace)
               for name in names)


if __name__ == "__main__":
    sys.exit(main())
