import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mertenslab import cli, dirichlet, hprofile, identities, sieve, summatory
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

    @pytest.mark.parametrize("argv, bound", [
        (["verify", "--n-max", "50"], "n_max must be >= 100"),
        (["report", "--n-max", "99"], "n_max must be >= 100"),
        (["remainders", "--n-max", "50"], "n_max must be >= 100"),
        (["verify", "--n-max", "5000", "--conv-cap", "1"], "conv_cap >= 2"),
        (["report", "--n-max", "5000", "--conv-cap", "1"], "conv_cap >= 2"),
        (["remainders", "--which", "selberg_sum", "--grid", "100:10:5", "--n-max", "1000"],
         "selberg_sum: x = 1e+06 beyond cap 1000"),
        (["verify", "--which", "tatuzawa-iseki", "--points", "1.5", "--n-max", "1000"],
         "tatuzawa-iseki needs x >= 2"),
        (["verify", "--which", "floor-weighted", "--points", "1.5", "--n-max", "1000"],
         "floor-weighted needs x >= 2"),
        (["verify", "--which", "floor-weighted", "--points", "4,2000", "--n-max", "1000"],
         "floor-weighted: x = 2000 beyond cap 1000"),
        (["verify", "--which", "f-sum-collapse", "--points", "1.5,4", "--n-max", "1000"],
         "f-sum-collapse needs x >= 2"),
        (["verify", "--which", "f-sum-collapse", "--points", "2000", "--n-max", "1000"],
         "f-sum-collapse: x = 2000 beyond cap 1000"),
        (["remainders", "--which", "h_mean_gap", "--points", "0,5", "--n-max", "1000"],
         "h_mean_gap needs x > 0"),
        (["report", "--n-max", "200000", "--conv-cap", "20000", "--samples-per-decade", "5"],
         "samples_per_decade must be >= 10"),
        (["report", "--n-max", "5000", "--steps", "0"], "steps must be >= 1"),
        (["table", "--n-max", "1000", "--conv-cap", "100", "--points", "1,2.7"],
         "table rows must be integers >= 1, got 2.7"),
        (["table", "--n-max", "1000", "--conv-cap", "100", "--points", "4,0"],
         "table rows must be integers >= 1, got 0"),
        (["table", "--n-max", "1000", "--conv-cap", "100", "--points", "4,200"],
         "table: row 200 beyond conv_cap 100"),
        (["table", "--n-max", "200000", "--conv-cap", "200000", "--points", "5"],
         "table cap 200000 needs more than physical memory"),
        (["verify", "--which", "lambda2-forms", "--n-max", "200000", "--conv-cap", "200000"],
         "table cap 200000 needs more than physical memory"),
        (["verify", "--which", "residual-stats", "--n-max", "200000", "--conv-cap", "200000"],
         "table cap 200000 needs more than physical memory"),
        (["report", "--n-max", "200000", "--conv-cap", "200000"],
         "table cap 200000 needs more than physical memory"),
        (["h-profile", "--n-max", "5000"], "--out {out} is a file"),
        (["intervals", "--n-max", "5000", "--kind", "mertens"], "--out {out} is a file"),
    ])
    def test_bounds_refused_before_the_store(self, argv, bound, tmp_path,
                                             monkeypatch, capsys):
        # a grid that starts above n_max, a point outside its check's or
        # remainder kind's domain, a conv_cap below residual-stats' x >= 2,
        # too few profile samples a decade, no iteration steps, a table row
        # that is not an integer in [1, conv_cap], a table cap beyond memory
        # (here made about 1e5 integers), or an --out file where a profile
        # command writes a directory is named before any work: a point or a
        # cap beyond a bound is a capability error (exit 3), any other bound
        # a usage error (exit 2); no point is dropped in silence
        def no_build(*args, **kwargs):
            raise AssertionError("the store began to build")

        monkeypatch.setattr(sieve, "base_primes", no_build)
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        monkeypatch.setattr(dirichlet, "TABLE_BYTES_PER_INT", memory // 10 ** 5)
        capability = "beyond" in bound or "memory" in bound
        status = cli.EXIT_CAPABILITY if capability else cli.EXIT_USAGE
        out = tmp_path / "o.json"
        kept = "is a file" in bound
        if kept:
            out.write_text("kept")
        assert run(argv + ["--out", str(out)]) == status
        assert bound.format(out=out) in capsys.readouterr().err
        assert out.read_text() == "kept" if kept else not out.exists()

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
        assert names == list(cli.CHECK_NAMES) + ["remainder-growth"]
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
        # work ratchet: profile stream passes outside the store build, 0
        # today for report, remainders, verify, h-profile and intervals
        # (each command plans the profile points it reads, and the build
        # walks their kinds and answers them; the profiles, the three
        # stream-based remainder kinds and the tail sups read those walks);
        # no change raises it
        passes = []
        stream_cumulative = hprofile.stream_cumulative

        def counted(*args, **kwargs):
            passes.append(1)
            return stream_cumulative(*args, **kwargs)

        monkeypatch.setattr(hprofile, "stream_cumulative", counted)
        for command in (["report"], ["remainders"], ["verify"],
                        ["h-profile", "--kind", "mertens"], ["intervals"]):
            out = tmp_path / command[0]
            out.mkdir()
            assert run(command + ["--n-max", "5000", "--conv-cap", "5000",
                                  "--grid", "100:2.0", "--out", str(out)]) == 0
            assert len(passes) == 0, command

    @pytest.mark.parametrize("command", ["report", "remainders"])
    def test_planned_answers_match_the_library_route(self, command, tmp_path, monkeypatch):
        # the profile points a command reads are answered in its store's
        # build; every remainder series and profile it reads has the bits
        # that the library route gives on a plain store
        series_seen, profiles_seen = {}, {}
        remainder_series, build_profile = identities.remainder_series, hprofile.build_profile

        def series(store, kind, xs):
            series_seen[kind] = (xs, remainder_series(store, kind, xs))
            return series_seen[kind][1]

        def profile(store, kind, samples_per_decade):
            profiles_seen[kind] = build_profile(store, kind, samples_per_decade)
            return profiles_seen[kind]

        with monkeypatch.context() as m:
            m.setattr(identities, "remainder_series", series)
            m.setattr(hprofile, "build_profile", profile)
            m.setattr(hprofile, "stream_cumulative", None)
            assert run([command, "--n-max", "5000", "--conv-cap", "5000", "--grid", "100:2.0",
                        "--out", str(tmp_path / "r.json")]) == 0
        plain = summatory.PrefixSums(5000)
        assert sorted(series_seen) == sorted(identities.SERIES_KINDS)
        for kind, (xs, got) in series_seen.items():
            want = remainder_series(plain, kind, xs)
            assert got.raw.tolist() == want.raw.tolist(), kind
            assert got.normalized.tolist() == want.normalized.tolist(), kind
        assert sorted(profiles_seen) == ([] if command == "remainders" else ["mertens", "smoothed"])
        for kind, got in profiles_seen.items():
            want = build_profile(plain, kind)
            for name in ("y_samples", "h_values", "cumulative_abs_integral",
                         "cumulative_signed_integral", "zeros", "zeros_abs"):
                assert getattr(got, name).tolist() == getattr(want, name).tolist(), name

    # integers visited by PrefixSums.window_terms per report, over n_max:
    # 64.32 at the defaults of the run below (66.30 while the profiles'
    # derivative grids were replayed after the build, 71.30 while the
    # profile points were replayed from the walk's block seams, 72.12 while
    # the profile walks made their own pass after the build); this ceiling
    # may be lowered, never raised
    WINDOW_TERMS_PER_N_MAX = 64.4

    def test_report_window_terms_visits(self, tmp_path, monkeypatch):
        # work ratchet: the build, the walks that ride in it and every
        # replay take their terms from window_terms, so a second pass over
        # [1, n_max] that came back would add n_max to this count
        visited = []
        window_terms = summatory.PrefixSums.window_terms

        def counted(self, k, kinds, hi=None):
            top = min((k + 1) * self.stride, self.n_max) + 1 if hi is None else hi
            visited.append(top - (k * self.stride + 1))
            return window_terms(self, k, kinds, hi)

        monkeypatch.setattr(summatory.PrefixSums, "window_terms", counted)
        assert run(["report", "--n-max", "5000", "--conv-cap", "5000",
                    "--out", str(tmp_path / "r.json")]) == 0
        assert sum(visited) <= self.WINDOW_TERMS_PER_N_MAX * 5000

    def test_report_profile_closed_forms(self, tmp_path, monkeypatch):
        # work ratchet: the walks evaluate P and Q only where they take an
        # integral, at the planned points and the zeros (P and Q for the
        # smoothed kind, Q for mertens), never over every step
        plans, elements = [], []
        walk = hprofile.Walk

        def planned(plan):
            plans.append(plan)
            return walk(plan)

        monkeypatch.setattr(hprofile, "Walk", planned)
        for name in ("_p_anti", "_q_anti"):
            def counted(u, log_u, anti=getattr(hprofile, name)):
                elements.append(np.size(u))
                return anti(u, log_u)

            monkeypatch.setattr(hprofile, name, counted)
        out = tmp_path / "r.json"
        assert run(["report", "--n-max", "5000", "--conv-cap", "5000", "--out", str(out)]) == 0
        points = sum(len(np.unique(ys)) for plan in plans for ys in plan.values())
        zeros = sum(prof["n_zeros"] for prof in json.loads(out.read_text())["profiles"].values())
        assert len(plans) == 1 and zeros > 0
        assert sum(elements) <= 2 * (points + zeros)

    @pytest.mark.parametrize("argv", [
        ["report", "--conv-cap", "5000"],
        ["h-profile", "--kind", "smoothed"], ["h-profile", "--kind", "mertens"],
        ["intervals", "--kind", "smoothed"], ["intervals", "--kind", "mertens"],
    ])
    def test_planned_profiles_replay_no_window(self, argv, tmp_path, monkeypatch):
        # work ratchet: a command plans every point its profiles read, the
        # samples and the derivative grid, so build_profile reads the
        # build's walk and replays no window
        building, replayed = [], []
        build_profile, window = hprofile.build_profile, summatory.PrefixSums._window

        def traced_build(*args, **kwargs):
            building.append(True)
            try:
                return build_profile(*args, **kwargs)
            finally:
                building.pop()

        def traced_window(self, k, kinds, top):
            if building:
                replayed.append((k, kinds, top))
            return window(self, k, kinds, top)

        monkeypatch.setattr(hprofile, "build_profile", traced_build)
        monkeypatch.setattr(summatory.PrefixSums, "_window", traced_window)
        assert run(argv + ["--n-max", "5000", "--out", str(tmp_path / "out")]) == 0
        assert replayed == []

    def test_report_convolve_prefix_calls(self, tmp_path, monkeypatch):
        # work ratchet: divisor-pair convolutions per report, 4 today (the
        # Selberg table's 2 and Tatuzawa-Iseki's 2 for all its points); a
        # change that cuts calls lowers the count, none raises it
        calls = []
        convolve_prefix = dirichlet.convolve_prefix

        def counted(*args, **kwargs):
            calls.append(args[2])
            return convolve_prefix(*args, **kwargs)

        monkeypatch.setattr(dirichlet, "convolve_prefix", counted)
        assert run(["report", "--n-max", "5000", "--conv-cap", "5000",
                    "--grid", "100:2.0", "--out", str(tmp_path / "r.json")]) == 0
        assert len(calls) == 4

    # prime-power terms summed per report, over len(store.pp): 8.28 at
    # the defaults of the run below (13.62 while floor-weighted took one
    # psi pass per point); this ceiling may be lowered, never raised
    PP_TERMS_PER_PP = 9

    def test_report_prime_power_terms(self, tmp_path, monkeypatch):
        # work ratchet: every prime-power sum goes through _pp_running, so
        # a per-point pass that came back would multiply this count
        summed = []
        pp_running = summatory.PrefixSums._pp_running

        def counted(self, terms, ns):
            def counted_terms(c0, c1):
                summed.append(c1 - c0)
                return terms(c0, c1)
            return pp_running(self, counted_terms, ns)

        monkeypatch.setattr(summatory.PrefixSums, "_pp_running", counted)
        assert run(["report", "--n-max", "5000", "--conv-cap", "5000",
                    "--out", str(tmp_path / "r.json")]) == 0
        assert sum(summed) <= self.PP_TERMS_PER_PP * len(summatory.PrefixSums(5000).pp)

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
    # the tail sups are the mertens profile's decade sups, timed in its build
    assert "build-profile-mertens" in labels
    assert "check-mertens-tail-ratio" not in labels
    assert labels["total"] >= max(v for k, v in labels.items() if k != "total")
    # the walks ride in the store build, and their time shows inside it
    assert 0.0 < labels["build-prefix-sums/walks"] <= labels["build-prefix-sums"]
    assert "build-prefix-sums" not in (tmp_path / "r.json").read_text()


def test_timings_label_import(tmp_path):
    side = tmp_path / "t.json"
    assert run(["sieve", "--out", str(tmp_path / "o.json"),
                "--timings", str(side)] + BASE) == 0
    labels = json.loads(side.read_text())
    assert labels["import"] == cli.IMPORT_S >= 0.0


def test_report_never_imports_scipy(tmp_path):
    # ratchet: scipy is a test-only dependency (the synthetic profiles of
    # tests/oracles.py), so a fresh process that runs the report must not
    # load it
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


def test_runtime_dependencies_are_numpy_only():
    # ratchet: scipy sits in the test extra, and the package needs numpy only
    tomllib = pytest.importorskip("tomllib")
    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(path.read_text())["project"]
    assert project["dependencies"] == ["numpy>=1.24"]


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


def test_grid_count_holds_for_remainder_kinds(tmp_path):
    # the count of --grid start:ratio:count gives that many samples, not the
    # geometric grid up to n_max
    out = tmp_path / "r.csv"
    assert run(["remainders", "--which", "selberg_sum", "--grid", "100:2:3",
                "--n-max", "100000", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["selberg_sum", "100"], ["selberg_sum", "200"], ["selberg_sum", "400"]]


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
    # an explicit 10**6 is checked like any other value
    assert run(["sieve", "--n-max", "1000", "--conv-cap", "1000000"]) == 2
    # the untouched default clamps to a smaller n_max instead of erroring
    assert run(["mertens", "--points", "10", "--n-max", "1000"]) == 0
