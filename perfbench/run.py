"""mertenslab benchmark: one workload per call, each job in a fresh child.

    python3 perfbench/run.py --workload report|queries|sweep-1e8 \\
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from its
``src`` directory.  Jobs run one at a time, single-threaded, with
``MLAB_CACHE`` removed, in a closed loop: the next job starts when the last
has exited, until ``--seconds`` have passed (at least one job, and at
least six on ``queries``).  Outputs are checked after the last job has exited
against values from ``reference.py``, computed only then: outside every
timed phase, and outside the children's peak RSS, which counts the
resident set the parent has when it spawns them.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs exactly
one traced job and prints the per-layer metrics.  The last line of stdout
is one JSON object: correct, attempted, failed and metrics.  Details of
failed operations go to stderr.  See README.md for what each number means.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGEST_FILE = WORK / "report.sha256"

N_MAX = 10 ** 7              # report and queries: the report's default n_max
SWEEP_N_MAX = 10 ** 8
CALLS_PER_JOB = 1000         # queries per child
SETUP_PROBES = 3             # `mertenslab sieve` children per report run
QUERY_JOBS_PER_RUN = 6       # about 40 s of calls; three or four left spreads near 0.2
TERMWISE_PER_JOB = 4         # big_f calls per job also checked term by term
RUN_BUDGET_S = 165.0         # a run must end within 180 s
QUERY_KINDS = ("mertens", "big_f", "big_f_integral")

CHECK_NAMES = ("mertens-values", "tatuzawa-iseki", "f-sum-collapse",
               "floor-weighted", "lambda2-forms", "dual-route", "h-bound",
               "residual-stats")
SERIES_KINDS = ("selberg_sum", "lambda_theta_sum", "f_dilated_sum",
                "log_square_sum", "lambda_over_n", "f_self_bound",
                "h_mean_gap", "mertens_h_mean_gap")


def f_budget(f: float, x: float) -> float:
    """Agreement budget for F, the one the program's dual-route check uses."""
    return 1e-8 * (1.0 + abs(f) + math.log(x))


def p90(values) -> float:
    """Nearest-rank 90th percentile.  The 99th was tried: on a shared host
    its per-call value swung by half between runs, with the median by 15%."""
    ordered = sorted(values)
    return ordered[max(math.ceil(0.9 * len(ordered)) - 1, 0)]


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------

@dataclasses.dataclass
class Child:
    rc: int
    wall_s: float
    rss_mb: float
    log: str


class Runner:
    """Spawns children one at a time and keeps the run inside its budget."""

    def __init__(self, work: Path, budget_s: float = RUN_BUDGET_S):
        self.work = work
        self.budget_s = budget_s
        self.started = time.monotonic()
        self.env = {k: v for k, v in os.environ.items() if k != "MLAB_CACHE"}
        self.env["PYTHONPATH"] = str(SRC)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
            self.env[var] = "1"
        self.n_children = 0
        self.last_wall_s = 0.0

    def left_s(self) -> float:
        return self.budget_s - (time.monotonic() - self.started)

    def spawn(self, argv: list[str]) -> Child:
        """Run argv to its end; wall time is spawn to exit, memory from rusage."""
        self.n_children += 1
        log_path = self.work / f"child{self.n_children}.log"
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(self.left_s(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - t0
        self.last_wall_s = wall
        proc.returncode = os.waitstatus_to_exitcode(status)
        tail = log_path.read_text(errors="replace")[-1500:]
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, tail)

    def another(self, seconds: float, started: float, last_wall: float,
                done: int = 1, at_least: int = 1) -> bool:
        """True while the run has fewer than `at_least` jobs or has measured
        less than `seconds`, and there is room for one more job."""
        wanted = done < at_least or time.perf_counter() - started < seconds
        return wanted and self.left_s() > 1.5 * last_wall


class Tally:
    """Operations attempted and failed; a wrong value counts as a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = False

    def record(self, ok: bool, what: str, wrong_value: bool = True) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong |= wrong_value
            print(f"failed: {what}", file=sys.stderr)


def _load_json(path: Path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

def check_report(path: Path, ref: reference.DenseReference, tally: Tally,
                 child: Child) -> None:
    # exit 1 means a named check failed: a wrong value, not a crash
    payload = _load_json(path) if child.rc in (0, 1) else None
    if payload is None:
        tally.record(False, f"report exited {child.rc}: {child.log}", wrong_value=False)
        return
    problems = [c.get("name") for c in payload.get("checks", [])
                if c.get("status") != "pass"]
    if child.rc != 0:
        problems.append(f"exit code {child.rc}")
    rows = next((c.get("values", []) for c in payload.get("checks", [])
                 if c.get("name") == "mertens-values"), [])
    if not rows:
        problems.append("mertens-values has no rows")
    problems += [f"M({r['x']}) = {r['M']}" for r in rows
                 if r["M"] != ref.mertens(r["x"])]
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    if DIGEST_FILE.exists():
        if DIGEST_FILE.read_text().strip() != digest:
            problems.append(f"report.json digest {digest} differs from earlier runs")
    else:
        DIGEST_FILE.write_text(digest + "\n")
    tally.record(not problems, f"report: {problems}")


def run_report(args, runner: Runner, tally: Tally):
    trace_file = runner.work / "trace.json"
    cli = [sys.executable, "-m", "mertenslab.cli"]
    started = time.perf_counter()
    probes = []
    for i in range(0 if args.trace else SETUP_PROBES):
        out = runner.work / f"sieve{i}.json"
        probes.append((runner.spawn(cli + ["sieve", "--out", str(out)]), out))
    reports = []
    while True:
        out = runner.work / f"report{len(reports)}.json"
        if args.trace:
            argv = [sys.executable, str(HERE / "child.py"), "report",
                    "--trace", str(trace_file), "--", "report", "--out", str(out)]
        else:
            argv = cli + ["report", "--out", str(out)]
        reports.append((runner.spawn(argv), out))
        if args.trace or not runner.another(args.seconds, started, reports[-1][0].wall_s):
            break

    ref = reference.DenseReference(N_MAX)
    psi_ref = ref.psi(N_MAX)
    for child, out in probes:
        got = _load_json(out) if child.rc == 0 else None
        ok = (got is not None and got.get("n_max") == N_MAX
              and got.get("mertens_at_n_max") == ref.mertens(N_MAX)
              and abs(got.get("psi_at_n_max", 0.0) - psi_ref) <= 1e-9 * psi_ref)
        tally.record(ok, f"sieve: {got} rc={child.rc} {child.log if child.rc else ''}",
                     wrong_value=child.rc == 0)
    for child, out in reports:
        check_report(out, ref, tally, child)

    metrics = {}
    if probes:
        walls = [c.wall_s for c, _ in reports]
        report_s = statistics.median(walls)
        setup_s = statistics.median(c.wall_s for c, _ in probes)
        metrics = {
            "report_s": (report_s, "s"),
            "setup_s": (setup_s, "s"),
            "sweep_s": (report_s - setup_s, "s"),
            "queries_per_s": (len(walls) / sum(walls), "1/s"),
            "query_p50_ms": (1e3 * report_s, "ms"),
            "query_p90_ms": (1e3 * p90(walls), "ms"),
            "peak_rss_mb": (statistics.median(c.rss_mb for c, _ in reports), "MB"),
        }
    return metrics, trace_file, N_MAX


def run_queries(args, runner: Runner, tally: Tally):
    trace_file = runner.work / "trace.json"
    jobs = []
    started = time.perf_counter()
    while True:
        j = len(jobs)
        rng = np.random.default_rng([args.seed, j])
        xs = rng.uniform(2.0, float(N_MAX), CALLS_PER_JOB)
        kinds = rng.integers(0, len(QUERY_KINDS), CALLS_PER_JOB).astype(np.int8)
        inputs = runner.work / f"queries{j}.npz"
        np.savez(inputs, xs=xs, kinds=kinds, n_max=N_MAX)
        out = runner.work / f"queries{j}.json"
        argv = [sys.executable, str(HERE / "child.py"), "queries",
                "--inputs", str(inputs), "--out", str(out)]
        if args.trace:
            argv += ["--trace", str(trace_file)]
        child = runner.spawn(argv)
        jobs.append((child, xs, kinds, _load_json(out) if child.rc == 0 else None))
        if args.trace or not runner.another(args.seconds, started, child.wall_s,
                                            len(jobs), QUERY_JOBS_PER_RUN):
            break

    ref = reference.DenseReference(N_MAX)
    done = []
    for j, (child, xs, kinds, got) in enumerate(jobs):
        if got is None:
            for _ in xs:
                tally.record(False, f"queries job {j} exited {child.rc}: {child.log}",
                             wrong_value=False)
            continue
        done.append((child, got))
        errors = {i: msg for i, msg in got["errors"]}
        big_f_calls = np.flatnonzero(kinds == QUERY_KINDS.index("big_f"))
        sample = set(np.random.default_rng([args.seed, j, 1]).choice(
            big_f_calls, size=min(TERMWISE_PER_JOB, len(big_f_calls)),
            replace=False).tolist())
        for i, (x, kind, value) in enumerate(zip(xs.tolist(), kinds.tolist(),
                                                 got["values"])):
            name = QUERY_KINDS[kind]
            if i in errors or value is None:
                tally.record(False, f"{name}({x!r}) raised {errors.get(i)}",
                             wrong_value=False)
                continue
            if name == "mertens":
                ok = value == ref.mertens(x)
            else:
                f_ref = ref.big_f(x)
                ok = abs(value - f_ref) <= f_budget(f_ref, x)
                if ok and i in sample:
                    f_terms = ref.big_f_termwise(x)
                    ok = abs(value - f_terms) <= f_budget(f_terms, x)
            tally.record(ok, f"{name}({x!r}) = {value!r}")

    metrics = {}
    if done and not args.trace:
        lat_ms = [1e3 * t for _, got in done for t in got["latencies_s"]]
        phases = [got["phase_s"] for _, got in done]
        metrics = {
            "report_s": (statistics.median(c.wall_s for c, _ in done), "s"),
            "setup_s": (statistics.median(got["setup_s"] for _, got in done), "s"),
            "sweep_s": (statistics.median(phases), "s"),
            "queries_per_s": (len(lat_ms) / sum(phases), "1/s"),
            "query_p50_ms": (statistics.median(lat_ms), "ms"),
            "query_p90_ms": (p90(lat_ms), "ms"),
            "peak_rss_mb": (statistics.median(c.rss_mb for c, _ in done), "MB"),
        }
    return metrics, trace_file, N_MAX


def run_sweep(args, runner: Runner, tally: Tally):
    trace_file = runner.work / "trace.json"
    jobs = []
    started = time.perf_counter()
    while True:
        out = runner.work / f"sweep{len(jobs)}.json"
        argv = [sys.executable, str(HERE / "child.py"), "sweep",
                "--n-max", str(SWEEP_N_MAX), "--out", str(out)]
        if args.trace:
            argv += ["--trace", str(trace_file)]
        child = runner.spawn(argv)
        jobs.append((child, _load_json(out) if child.rc == 0 else None))
        if args.trace or not runner.another(args.seconds, started, child.wall_s):
            break

    ref = reference.DenseReference(N_MAX)
    top = int(round(math.log10(SWEEP_N_MAX)))
    m_ref = {k: ref.mertens(10 ** k) for k in range(1, top)}
    m_ref[top] = reference.mertens_recursive(10 ** top, ref.m)
    done = []
    for child, got in jobs:
        if got is None:
            for _ in range(1 + len(m_ref)):
                tally.record(False, f"sweep exited {child.rc}: {child.log}",
                             wrong_value=False)
            continue
        done.append((child, got))
        errors = {str(k): msg for k, msg in got["errors"]}
        for k, expect in sorted(m_ref.items()):
            value = got["mertens"].get(str(k))
            tally.record(value == expect, f"mertens(10**{k}) = {value} "
                         f"{errors.get(str(k), '')}", wrong_value=str(k) not in errors)
        sups = {int(k): v for k, v in (got["tail_sups"] or {}).items()}
        ks = list(range(2, top + 1))
        ok = (sorted(sups) == ks
              and all(sups[a] >= sups[b] for a, b in zip(ks, ks[1:]))
              and all(sups[k] >= abs(m_ref[k]) / 10 ** k * (1 - 1e-12) for k in ks)
              and math.isclose(sups[top], abs(m_ref[top]) / 10 ** top, rel_tol=1e-12))
        tally.record(ok, f"mertens_tail_sups = {sups} {errors.get('tail', '')}",
                     wrong_value="tail" not in errors)

    metrics = {}
    if done and not args.trace:
        phases = [got["phase_s"] for _, got in done]
        metrics = {
            "report_s": (statistics.median(c.wall_s for c, _ in done), "s"),
            "setup_s": (statistics.median(got["setup_s"] for _, got in done), "s"),
            "sweep_s": (statistics.median(phases), "s"),
            "queries_per_s": (len(phases) / sum(phases), "1/s"),
            "query_p50_ms": (1e3 * statistics.median(phases), "ms"),
            "query_p90_ms": (1e3 * p90(phases), "ms"),
            "peak_rss_mb": (statistics.median(c.rss_mb for c, _ in done), "MB"),
        }
    return metrics, trace_file, SWEEP_N_MAX


WORKLOADS = {"report": run_report, "queries": run_queries, "sweep-1e8": run_sweep}


# ----------------------------------------------------------------------
# per-layer metrics from a trace
# ----------------------------------------------------------------------

def layer_metrics(trace: dict, n_max: int) -> dict:
    """Per-layer metrics; a metric whose wrapper could not be installed is
    left out and named on stderr."""
    incl, self_t, calls = {}, {}, {}
    for name, _parent, n, inc, slf in trace["spans"]:
        calls[name] = calls.get(name, 0) + n
        incl[name] = incl.get(name, 0.0) + inc
        self_t[name] = self_t.get(name, 0.0) + slf
    count = trace["counters"].get
    installed = set(trace["installed"])
    ints = count("sieve.ints", 0)
    replays = count("summatory.window_replays", 0)
    queries = count("summatory.queries", 0)
    build_s = incl.get("sieve.build_segment", 0.0)

    rows = [  # name, unit, value, wrapper it needs
        ("sieve.ints_per_n_max", "ratio", ints / n_max, "sieve.build_segment"),
    ]
    for caller in ("summatory_build", "summatory_window", "hprofile_stream", "dirichlet"):
        rows.append((f"sieve.ints_per_n_max.{caller}", "ratio",
                     count(f"sieve.ints.{caller}", 0) / n_max, "sieve.build_segment"))
    rows += [
        ("sieve.build_segment_s", "s", self_t.get("sieve.build_segment", 0.0), "sieve.build_segment"),
        ("sieve.mobius_s", "s", self_t.get("sieve.mobius", 0.0), "sieve.mobius"),
        ("sieve.lambda_s", "s", self_t.get("sieve.lambda", 0.0), "sieve.lambda"),
        ("sieve.kernel_ints_per_s", "1/s", ints / build_s if build_s else 0.0,
         "sieve.build_segment"),
        ("summatory.build_s", "s", self_t.get("summatory.build", 0.0), "summatory.build"),
        ("summatory.window_replays", "count", replays, "summatory.window"),
        ("summatory.replays_per_query", "ratio", replays / queries if queries else 0.0,
         "summatory.window"),
        ("summatory.window_replay_ms", "ms",
         1e3 * self_t.get("summatory.window", 0.0) / replays if replays else 0.0,
         "summatory.window"),
        ("hprofile.stream_passes", "count", calls.get("hprofile.stream", 0), "hprofile.stream"),
        ("hprofile.stream_s", "s", self_t.get("hprofile.stream", 0.0), "hprofile.stream"),
        ("hprofile.build_profile_s", "s", incl.get("hprofile.build_profile", 0.0),
         "hprofile.build_profile"),
        ("hprofile.estimate_constants_s", "s", incl.get("hprofile.estimate_constants", 0.0),
         "hprofile.estimate_constants"),
        ("dirichlet.build_arith_table_s", "s", incl.get("dirichlet.build_arith_table", 0.0),
         "dirichlet.build_arith_table"),
        ("dirichlet.convolve_prefix_calls", "count", calls.get("dirichlet.convolve_prefix", 0),
         "dirichlet.convolve_prefix"),
        ("dirichlet.convolve_prefix_s", "s", self_t.get("dirichlet.convolve_prefix", 0.0),
         "dirichlet.convolve_prefix"),
        ("identities.tatuzawa_iseki_s", "s", self_t.get("identities.tatuzawa_iseki", 0.0),
         "identities.tatuzawa_iseki"),
        ("identities.f_sum_identity_s", "s", self_t.get("identities.f_sum_identity", 0.0),
         "identities.f_sum_identity"),
        ("identities.floor_weighted_s", "s", self_t.get("identities.floor_weighted", 0.0),
         "identities.floor_weighted"),
    ]
    for kind in SERIES_KINDS:
        rows.append((f"identities.remainder.{kind}_s", "s",
                     incl.get(f"identities.remainder.{kind}", 0.0), "identities.remainder"))
    rows.append(("identities.mertens_tail_sups_s", "s",
                 incl.get("identities.mertens_tail_sups", 0.0), "identities.mertens_tail_sups"))
    for check in CHECK_NAMES:
        rows.append((f"cli.check.{check}_s", "s", incl.get(f"cli.check.{check}", 0.0),
                     f"cli.check.{check}"))
    rows += [
        ("reporting.json_bytes", "bytes", count("reporting.json_bytes", 0), "reporting.write"),
        ("reporting.write_s", "s", self_t.get("reporting.write", 0.0), "reporting.write"),
    ]
    metrics = {}
    for name, unit, value, needs in rows:
        if needs in installed:
            metrics[name] = (value, unit)
        else:
            print(f"missing metric {name}: nothing to wrap for {needs}", file=sys.stderr)
    unattributed = count("sieve.ints.other", 0)
    if unattributed:
        print(f"note: {unattributed} integers sieved outside the four callers",
              file=sys.stderr)
    return metrics


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "mertenslab" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'mertenslab'} is missing", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        runner = Runner(work)
        tally = Tally()
        metrics, trace_file, n_max = WORKLOADS[args.workload](args, runner, tally)
        if args.trace:
            trace = _load_json(trace_file)
            if trace is None:
                print("the traced job wrote no trace", file=sys.stderr)
                return 1
            metrics = layer_metrics(trace, n_max)
            print(f"traced job: {runner.last_wall_s:.3f} s from spawn to exit",
                  file=sys.stderr)
        elif not metrics:
            print("no job completed, so there is nothing to report", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
