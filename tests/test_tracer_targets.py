"""The benchmark's layer tracer (``perfbench/tracer.py``) wraps the program's
functions by name, and a traced run drops the per-layer metrics of every
name it cannot find.  This test installs the tracer in a child process and
pins which names it finds, so that a rename fails here rather than silently
thinning the traced result."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import json
import tracer
tr = tracer.Tracer()
tracer.install(tr)
print(json.dumps({"installed": tr.installed, "missing": tr.missing}))
"""

# the same install, then the per-layer metrics of an empty trace: a metric
# whose wrapper is missing is left out of them
LAYER_METRICS = INSTALL + """
import run
metrics = run.layer_metrics({"spans": [], "counters": {}, "installed": tr.installed},
                            10 ** 7)
print(json.dumps(sorted(metrics)))
"""

# scalar query names that the program no longer has; the tracer lists them
# as missing and needs none of them for a metric
DEAD_QUERIES = ["summatory.query.mu_log_sum", "summatory.query.h_smoothed",
                "summatory.query.h_mertens"]


def _child(script: str):
    """The last stdout line of ``script``, run with src and perfbench on the
    path, as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    out = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_tracer_finds_every_live_target():
    result = _child(INSTALL)
    assert result["missing"] == DEAD_QUERIES
    assert len(result["installed"]) == 27
    for label in ("sieve.build_segment", "sieve.mobius", "sieve.lambda",
                  "summatory.build", "summatory.window", "hprofile.stream"):
        assert label in result["installed"], label


def test_traced_run_gives_every_layer_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert _child(LAYER_METRICS) == sorted(m["name"] for m in declared)


# a traced small report through the benchmark's own job runner, then the
# per-layer metrics of its trace, as ``run.py --trace 1`` computes them
TRACED_REPORT = """
import json, subprocess, sys
import run
trace, out = sys.argv[1], sys.argv[2]
subprocess.run([sys.executable, "perfbench/child.py", "report", "--trace", trace, "--",
                "report", "--n-max", "20000", "--conv-cap", "2000", "--out", out],
               check=True, capture_output=True)
payload = json.load(open(trace))
metrics = run.layer_metrics(payload, 20000)
print(json.dumps({"missing": payload["missing"],
                  "metrics": {k: v for k, (v, _) in metrics.items()}}))
"""


def test_traced_report_gives_strict_json(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    out = subprocess.run(
        [sys.executable, "-c", TRACED_REPORT, str(tmp_path / "trace.json"),
         str(tmp_path / "report.json")],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=300)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    json.dumps(metrics, allow_nan=False)
    assert all(math.isfinite(v) for v in metrics.values())
    assert result["missing"] == DEAD_QUERIES
    # both profile walks ride in the store build, not in stream_cumulative
    assert metrics["hprofile.stream_passes"] == 0
    # the Selberg table's 2 and Tatuzawa-Iseki's 2 for all its points
    assert metrics["dirichlet.convolve_prefix_calls"] == 4
