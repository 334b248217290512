"""The benchmark's layer tracer (bench/tracing.py) still installs against the
library: every name it wraps exists with the arguments it reads, and a traced
`hombox theorem` build and replay run through.  The tracer rebinds library
names, so it runs in a subprocess and leaks into no other test."""

import json
import os
import subprocess
import sys
from pathlib import Path

import hombox as hb

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import tracing
from hombox import cli
tracer = tracing.Tracer(run_id="guard")
tracing.install(tracer)
start = time.perf_counter()
codes = [cli.main(["theorem", "--input", sys.argv[2], "--certificate",
                   sys.argv[3]]) for _ in range(2)]
layers, counts = tracing.layer_metrics(tracer, time.perf_counter() - start)
print(json.dumps({"codes": codes, "layers": layers, "counts": counts}))
"""


def test_tracer_installs_and_traces_theorem_build_and_replay(tmp_path):
    graph = tmp_path / "K_4^3.json"
    graph.write_text(hb.complete_rgraph(4, 3).to_json_str())
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench"), str(graph),
         str(tmp_path / "theorem.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["codes"] == [0, 0]
    layers, counts = out["layers"], out["counts"]
    for layer in ("cellcx.order_complex_s", "cellcx.lift_action_s",
                  "cellcx.group_action_s", "morse.classify_s",
                  "collapse.sd_box_s", "collapse.assembly_s",
                  "collapse.replay_main_s", "collapse.iso_check_s",
                  "homology.betti_s", "cli.json_s"):
        assert layers[layer] > 0, layer
    assert counts["morse.chains"] > 0 and counts["cellcx.group_actions"] > 0
    assert counts["collapse.stellar_stages"] > 0
