"""The benchmark's own jobs still run against the library: the
`theorem_K5_3` build and replay workers of bench/worker.py exit 0 with
their golden report, and every `hb.<name>` the worker reads resolves on
hombox, with the keyword arguments it passes.  The workers run in
subprocesses, as bench/run.py starts them."""

import ast
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import hombox as hb

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "bench" / "worker.py"


def _workloads():
    """bench/workloads.py, loaded from its file (it imports no hombox)."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _worker(tmp_path, phase):
    """One worker process of phase, untraced and taking no host-speed
    samples; its result line."""
    spec = {"workload": "theorem_K5_3", "seed": 0, "phase": phase,
            "trace": False, "sample": False,
            "input": str(tmp_path / "input.json"),
            "cert": str(tmp_path / "cert.json"),
            "out": str(tmp_path / "report.json"),
            "spans": str(tmp_path / ("spans-%s.jsonl" % phase))}
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(tmp_path / "pycache"))
    done = subprocess.run([sys.executable, str(WORKER), json.dumps(spec)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_theorem_workers_build_and_replay(tmp_path):
    (tmp_path / "input.json").write_text(
        json.dumps(_workloads().complete_rgraph_json(5, 3)))
    build = _worker(tmp_path, "theorem_build")
    assert build["cert_bytes"] == 76949
    assert (build["ok"], build["failed"]) == (1, 0)
    replay = _worker(tmp_path, "theorem_replay")
    assert (replay["ok"], replay["failed"]) == (1, 0)
    assert replay["replay_s"] > 0


def _reads_hb(node):
    """Whether node is an expression hb.<name>."""
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "hb")


def test_worker_reads_only_names_hombox_has():
    # the matching_K6_4 and random jobs take seconds to run; a name they
    # read that hombox lost, or a keyword its function lost, shows here
    read, calls = set(), []
    for node in ast.walk(ast.parse(WORKER.read_text())):
        if _reads_hb(node):
            read.add(node.attr)
        if isinstance(node, ast.Call) and _reads_hb(node.func):
            calls.append((node.func.attr, [k.arg for k in node.keywords]))
    assert {"build_matching", "matching_to_collapse", "load_rgraph",
            "homology_agreement", "SizeGuard"} <= read
    assert sorted(name for name in read if not hasattr(hb, name)) == []
    for name, keywords in calls:
        params = inspect.signature(getattr(hb, name)).parameters
        assert [k for k in keywords if k not in params] == [], name
