import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mertenslab import cli, hprofile, sieve, summatory
from mertenslab.errors import CapabilityError


def run(argv):
    return cli.main(argv)


BASE = ["--n-max", "20000", "--conv-cap", "5000"]


class TestCommands:
    def test_mertens_points_csv(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        status = run(["mertens", "--points", "1,10", "--format", "csv",
                      "--out", str(out)] + BASE)
        assert status == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,M"
        assert lines[1] == "1,1"
        assert lines[2] == "10,-1"

    def test_verify_single_check_passes(self, tmp_path):
        out = tmp_path / "v.json"
        status = run(["verify", "--which", "tatuzawa-iseki", "--f", "one",
                      "--points", "4", "--out", str(out)] + BASE)
        assert status == 0
        payload = json.loads(out.read_text())
        check = payload["checks"][0]
        assert check["status"] == "pass"
        assert abs(check["worst"]["residual"]) < 1e-12

    def test_empty_grid_usage_error(self, tmp_path):
        out = tmp_path / "x.csv"
        status = run(["mertens", "--points", "", "--out", str(out)] + BASE)
        assert status == 2
        assert not out.exists()

    def test_conflicting_grid_flags_rejected(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(
                ["mertens", "--points", "1,2", "--grid", "10:1.5"])

    def test_capability_exit(self):
        status = run(["remainders", "--which", "h_mean_gap",
                      "--points", "10000"] + BASE)
        assert status == 3

    @pytest.mark.parametrize("argv", [
        ["remainders", "--which", kind, "--points", "nan"]
        for kind in ("f_self_bound", "h_mean_gap", "mertens_h_mean_gap",
                     "log_square_sum", "f_dilated_sum")
    ] + [["verify", "--which", "f-sum-collapse", "--points", "nan"],
         ["mertens", "--points", "10,inf"]])
    def test_non_finite_points_usage_error(self, argv):
        assert run(argv + BASE) == 2

    def test_oversized_n_max_capability_exit(self, monkeypatch):
        # the memory check runs before the store allocates anything; should
        # it ever be skipped, the first step of the build stops the test
        def no_build(*args, **kwargs):
            raise AssertionError("the store began to build")

        monkeypatch.setattr(sieve, "base_primes", no_build)
        assert run(["sieve", "--n-max", str(10 ** 12)]) == 3
        with pytest.raises(CapabilityError) as err:
            summatory.PrefixSums(10 ** 12)
        assert err.value.max_usable < 10 ** 12

    def test_unknown_check_usage_error(self):
        status = run(["verify", "--which", "bogus"] + BASE)
        assert status == 2

    def test_iterate_json(self, tmp_path):
        out = tmp_path / "it.json"
        status = run(["iterate", "--lam", "0.5", "--steps", "50",
                      "--out", str(out)] + BASE)
        assert status == 0
        payload = json.loads(out.read_text())
        assert payload["limit"] == 2.0
        assert abs(payload["final_lambda_n"] - 2.0) <= 1e-12

    def test_iterate_bad_lambda(self):
        assert run(["iterate", "--lam", "1.5"] + BASE) == 2

    def test_table_rows(self, tmp_path):
        out = tmp_path / "t.csv"
        status = run(["table", "--points", "1,4,12", "--out", str(out),
                      "--n-max", "2000", "--conv-cap", "2000"])
        assert status == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,mu,lambda,lambda2,lambda2_minus,theta"
        assert len(lines) == 4

    def test_h_profile_artifacts(self, tmp_path):
        status = run(["h-profile", "--kind", "mertens", "--out",
                      str(tmp_path)] + BASE)
        assert status == 0
        assert (tmp_path / "profile_mertens.csv").exists()
        assert (tmp_path / "zeros_mertens.csv").exists()
        constants = json.loads((tmp_path / "constants_mertens.json").read_text())
        assert "alpha_hat" in constants
        assert constants["provenance"]["zeros_are_step_boundaries"] is True

    def test_intervals_artifacts(self, tmp_path):
        status = run(["intervals", "--kind", "mertens", "--out",
                      str(tmp_path)] + BASE)
        assert status == 0
        lines = (tmp_path / "intervals_mertens.csv").read_text().splitlines()
        assert lines[0] == "a,b,integral_abs,xi,h_at_xi,deriv_bound,damped_bound"
        assert len(lines) > 1

    def test_remainders_all_kinds(self, tmp_path):
        out = tmp_path / "r.json"
        status = run(["remainders", "--out", str(out), "--grid", "100:2.0"] + BASE)
        assert status == 0
        payload = json.loads(out.read_text())
        assert sorted(payload["series"]) == sorted(
            ["selberg_sum", "lambda_theta_sum", "f_dilated_sum",
             "log_square_sum", "lambda_over_n", "f_self_bound",
             "h_mean_gap", "mertens_h_mean_gap"])


class TestDeterminism:
    def test_report_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["report", "--n-max", "5000", "--conv-cap", "2000",
                "--grid", "100:2.0"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_report_contains_all_series_kinds(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["report", "--n-max", "5000", "--conv-cap", "2000",
                    "--grid", "100:2.0", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["remainders"]) == 8
        assert sorted(payload["config"]) == [
            "conv_cap", "grid", "n_max", "segment_size", "tail_fraction",
            "tol_abs", "tol_rel"]
        for kind in ("smoothed", "mertens"):
            assert sorted(payload["profiles"][kind]["constants"]) == [
                "alpha_hat", "deriv_sup_hat", "epsilon", "h_param", "iota_hat",
                "kappa", "lambda_est", "mean_abs_hat", "mean_abs_tail_hat",
                "provenance", "signed_span_hat"]
        names = [c["name"] for c in payload["checks"]]
        assert "mertens-values" in names
        assert "mertens-tail-ratio" in names
        statuses = {c["status"] for c in payload["checks"]}
        assert statuses <= {"pass", "fail", "not-applicable"}

    def test_report_sieves_n_max_once(self, tmp_path, monkeypatch):
        # work ratchet: integers sieved <= K * n_max with K = 1.0; a change
        # that cuts the work lowers K, none raises it
        sieved = []
        build_segment = sieve.build_segment

        def counted(lo, hi, *args, **kwargs):
            sieved.append(hi - lo)
            return build_segment(lo, hi, *args, **kwargs)

        monkeypatch.setattr(sieve, "build_segment", counted)
        assert run(["report", "--n-max", "5000", "--conv-cap", "5000",
                    "--grid", "100:2.0", "--out", str(tmp_path / "r.json")]) == 0
        assert sum(sieved) == 5000

    def test_report_stream_passes(self, tmp_path, monkeypatch):
        # work ratchet: profile stream passes per report, 2 today (one walk
        # per profile kind; the profiles, the three stream-based remainder
        # kinds and the tail sups read the walks); a change that cuts passes
        # lowers the count, none raises it
        passes = []
        stream_cumulative = hprofile.stream_cumulative

        def counted(*args, **kwargs):
            passes.append(1)
            return stream_cumulative(*args, **kwargs)

        monkeypatch.setattr(hprofile, "stream_cumulative", counted)
        assert run(["report", "--n-max", "5000", "--conv-cap", "5000",
                    "--grid", "100:2.0", "--out", str(tmp_path / "r.json")]) == 0
        assert len(passes) == 2

    def test_timings_sidecar_optional(self, tmp_path):
        out = tmp_path / "o.json"
        side = tmp_path / "t.json"
        assert run(["sieve", "--out", str(out), "--timings", str(side)] + BASE) == 0
        assert side.exists()
        assert "build-prefix-sums" in json.loads(side.read_text())


def test_report_timings_label_tail_sups_and_total(tmp_path):
    side = tmp_path / "t.json"
    assert run(["report", "--n-max", "5000", "--conv-cap", "5000",
                "--grid", "100:2.0", "--out", str(tmp_path / "r.json"),
                "--timings", str(side)]) == 0
    labels = json.loads(side.read_text())
    assert "check-mertens-tail-ratio" in labels
    assert labels["total"] >= max(v for k, v in labels.items() if k != "total")


def test_timings_label_import(tmp_path):
    side = tmp_path / "t.json"
    assert run(["sieve", "--out", str(tmp_path / "o.json"),
                "--timings", str(side)] + BASE) == 0
    labels = json.loads(side.read_text())
    assert labels["import"] == cli.IMPORT_S >= 0.0


def test_report_never_imports_scipy(tmp_path):
    # ratchet: scipy serves only build_synthetic_profile, which no command
    # calls, so a fresh process that runs the report must not load it
    code = (
        "import sys\n"
        "from mertenslab import cli\n"
        f"status = cli.main(['report', '--n-max', '10000', '--out', {str(tmp_path)!r}])\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert status == 0, status\n"
        "assert not loaded, loaded[:5]\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert (tmp_path / "report.json").exists()


def test_pinned_mertens_above_1e7_match_recursion():
    # M(10^8) and M(10^9) come from the sieve; the benchmark's recursion
    # sum_{d<=x} M(x/d) = 1 over a dense table to 10^7 is the second route
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    m_small = reference.DenseReference(10 ** 7).m
    for k in (8, 9):
        assert math.isqrt(10 ** k) < len(m_small)
        got = reference.mertens_recursive(10 ** k, m_small)
        assert got == cli.MERTENS_POWERS_OF_TEN[k], k


def test_grid_with_count(tmp_path):
    out = tmp_path / "g.csv"
    status = run(["mertens", "--grid", "1:10:3", "--format", "csv",
                  "--out", str(out), "--n-max", "1000", "--conv-cap", "1000"])
    assert status == 0
    lines = out.read_text().strip().splitlines()
    assert lines[1:] == ["1,1", "10,-1", "100,1"]


def test_failing_check_exits_one(tmp_path):
    out = tmp_path / "v.json"
    status = run(["verify", "--which", "tatuzawa-iseki", "--f", "one",
                  "--points", "1000", "--tol-rel", "1e-30",
                  "--out", str(out)] + BASE)
    assert status == 1
    payload = json.loads(out.read_text())
    assert payload["checks"][0]["status"] == "fail"
    assert "tolerance" in payload["checks"][0]


def test_explicit_conv_cap_above_n_max_rejected():
    assert run(["mertens", "--points", "10", "--n-max", "1000",
                "--conv-cap", "2000"]) == 2
    # the untouched default clamps to a smaller n_max instead of erroring
    assert run(["mertens", "--points", "10", "--n-max", "1000"]) == 0
