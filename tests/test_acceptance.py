"""Acceptance suite: every criterion at its stated scale and tolerance.

Runs against the full default configuration (sieve cap 1e7, convolution cap
1e6).  Each test prints one PASS/FAIL line; run with ``pytest -v -s`` to see
them.  Expect a few minutes of wall time.
"""

import math
import time

import numpy as np
import pytest

from mertenslab import cli, dirichlet, hprofile, identities, sieve, summatory

import oracles

N_MAX = 10 ** 7
CONV_CAP = 10 ** 6

LOG2, LOG3 = math.log(2), math.log(3)


def report_line(tag, ok, detail=""):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{tag}: {detail}"


@pytest.fixture(scope="module")
def store():
    return summatory.PrefixSums(N_MAX)


@pytest.fixture(scope="module")
def table(store):
    return dirichlet.build_arith_table(store, CONV_CAP)


@pytest.fixture(scope="module")
def profile_smoothed(store):
    prof = hprofile.build_profile(store, "smoothed")
    hprofile.estimate_constants(prof)
    return prof


@pytest.fixture(scope="module")
def profile_mertens(store):
    prof = hprofile.build_profile(store, "mertens")
    hprofile.estimate_constants(prof)
    return prof


def test_01_exact_identity_suite(store):
    """Weighted-identity residuals for F in {smoothed, 1, log} at 200 points."""
    t0 = time.perf_counter()
    xs = np.geomspace(2.0, 1e5, 200)
    fs = {"one": identities.f_one, "log": identities.f_log,
          "smoothed": identities.f_smoothed(store)}
    worst = 0.0
    ok = True
    for x in xs:
        for r in identities.tatuzawa_iseki_residual(store, float(x), list(fs.values())):
            ratio = abs(r) / (1e-9 * x * math.log(x) ** 2)
            worst = max(worst, ratio)
            ok &= ratio <= 1.0
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report_line("01 exact-identity", ok,
                f"worst residual at {worst:.2e} of budget, {elapsed:.1f}s")


def test_02_selberg_weight_dual_form(table):
    budget = 1e-9 * math.log(10 ** 6) ** 2
    ok = table.form_discrepancy <= budget
    a4 = abs(table.lambda2[4] - 3 * LOG2 ** 2) / (3 * LOG2 ** 2)
    a12 = abs(table.lambda2[12] - 2 * LOG2 * LOG3) / (2 * LOG2 * LOG3)
    ok &= a4 <= 1e-12 and a12 <= 1e-12
    report_line("02 selberg-dual-form", ok,
                f"max gap {table.form_discrepancy:.2e} (budget {budget:.2e}), "
                f"anchors rel {max(a4, a12):.2e}")


def test_03_dual_route_random(store):
    rng = np.random.default_rng(20260808)
    xs = np.sort(rng.uniform(1.0, float(N_MAX), 10 ** 4))
    ns = np.floor(xs).astype(np.int64)
    m, a = store._cum_many(("m", "a"), ns)
    m = m.astype(np.float64)
    f_sum = m * np.log(xs) - a
    f_int, = store._cum_many(("fint",), np.maximum(ns - 1, 0))
    frac = xs / ns
    f_int = f_int + np.where(frac > 1.0, m * np.log(np.maximum(frac, 1.0)), 0.0)
    gap = np.abs(f_sum - f_int)
    budget = 1e-8 * (1.0 + np.abs(f_sum) + np.log(xs))
    ok = bool(np.all(gap <= budget))
    report_line("03 dual-route", ok,
                f"max gap {gap.max():.2e} over 10^4 random x <= 1e7")


def test_04_dilated_sum_collapse(store):
    xs = np.concatenate(([2.0, 4.0, 10.0], identities.geometric_grid(100, 1e6)))
    worst_s = worst_f = 0.0
    ok = True
    for x in xs:
        _, resid = identities.check_f_sum_identity(store, float(x))
        fw = identities.floor_weighted_mu_sum(store, float(x))
        worst_s = max(worst_s, abs(resid) / (1e-9 * x))
        worst_f = max(worst_f, abs(fw.residual) / (1e-9 * x))
        ok &= abs(resid) <= 1e-9 * x and abs(fw.residual) <= 1e-9 * x
    report_line("04 dilated-sum", ok,
                f"worst collapse {worst_s:.2e}, floor variant {worst_f:.2e} "
                f"of budget over {len(xs)} points")


def test_05_mertens_reference_values(store):
    expected = {1: -1, 2: 1, 3: 2, 4: -23, 5: -48, 6: 212, 7: 1037}
    got = {k: store.mertens(10 ** k) for k in expected}
    ok = got == expected
    # independent trial-division oracle to 1e5
    running = 0
    checkpoints = {}
    for n in range(1, 10 ** 5 + 1):
        running += oracles.mobius_trial(n)
        if n in (10, 100, 1000, 10 ** 4, 10 ** 5):
            checkpoints[n] = running
    ok &= all(checkpoints[10 ** k] == expected[k] for k in range(1, 6))
    # second, structurally different sieve to 1e7
    m_dense = oracles.mertens_dense(N_MAX)
    ok &= all(int(m_dense[10 ** k]) == expected[k] for k in range(1, 8))
    report_line("05 mertens-values", ok, f"{got}")


def test_06_remainder_growth(store):
    grid = identities.geometric_grid(1e2, float(N_MAX), 1.25)
    ok = True
    details = []
    for kind in ("selberg_sum", "lambda_theta_sum", "log_square_sum"):
        series = identities.remainder_series(store, kind, grid)
        sups = identities.decade_sup_profile(series, (4, 7))
        ks = sorted(sups)
        growth = [sups[b] / sups[a] for a, b in zip(ks, ks[1:])]
        ok &= all(g <= 1.10 for g in growth)
        details.append(f"{kind} growth {['%.3f' % g for g in growth]}")
    report_line("06 remainder-growth", ok, "; ".join(details))


def test_07_h_bounded_by_one(profile_smoothed):
    sup = float(np.abs(profile_smoothed.h_values).max())
    ok = sup <= 1.0 + 1e-9
    report_line("07 h-bound", ok, f"sup |H| = {sup:.6f} over "
                f"{len(profile_smoothed.h_values)} samples")


def test_08_mean_gap_and_self_bound_finite(store):
    x_cap = math.log(N_MAX) ** 2
    xs_h = identities.geometric_grid(1.0, x_cap, 1.25)
    s7 = identities.remainder_series(store, "h_mean_gap", xs_h)
    s24 = identities.remainder_series(store, "mertens_h_mean_gap", xs_h)
    s18 = identities.remainder_series(
        store, "f_self_bound", identities.geometric_grid(1e2, float(N_MAX), 1.25))
    ok = (np.all(np.isfinite(s7.normalized))
          and np.all(np.isfinite(s24.normalized))
          and np.all(np.isfinite(s18.normalized)))
    report_line("08 mean-gap/self-bound", ok,
                f"sup sqrt(x)-normalized gap {s7.sup_normalized:.4f}, "
                f"step-profile gap {s24.sup_normalized:.4f}, "
                f"self-bound constant {s18.sup_normalized:.4f}")


def test_09_synthetic_zero_machinery():
    a, b, c = 1.0, 3.5, 0.8
    arch = lambda x: c * (x - a) * (b - x) if a <= x <= b else 0.0
    xs = np.linspace(0.5, 4.0, 351)
    prof = hprofile.build_synthetic_profile(
        arch, xs, dh_func=lambda x: c * (a + b - 2 * x) if a <= x <= b else 0.0)
    za = min(prof.zeros, key=lambda z: abs(z - a))
    zb = min(prof.zeros, key=lambda z: abs(z - b))
    ok = abs(za - a) <= 1e-10 * a and abs(zb - b) <= 1e-10 * b
    ivs = hprofile.interval_stats(prof, m_hat=c * (b - a))
    arch_iv = max(ivs, key=lambda iv: iv.integral_abs)
    want = c * (b - a) ** 3 / 6.0
    ok &= abs(arch_iv.integral_abs - want) <= 1e-9 * want
    ratio = arch_iv.integral_abs / arch_iv.deriv_bound
    ok &= abs(ratio - 1.0 / 3.0) <= 1e-9
    report_line("09 synthetic-machinery", ok,
                f"zero error {max(abs(za - a), abs(zb - b)):.2e}, "
                f"integral rel {abs(arch_iv.integral_abs - want) / want:.2e}, "
                f"bound ratio {ratio:.12f}")


def test_10_derivative_formula(store):
    rng = np.random.default_rng(11)
    ys = np.exp(rng.uniform(math.log(5.0), math.log(1e5), 400))
    ys = ys[np.abs(ys - np.round(ys)) > 0.05][:100]
    assert len(ys) == 100
    step = 1e-6
    worst = 0.0
    for y in ys:
        x = math.log(y) ** 2
        closed = hprofile.h_derivative(store, float(y))
        h = lambda xx: store.h_smoothed(math.exp(math.sqrt(xx)))
        fd = (h(x + step / 2) - h(x - step / 2)) / step
        worst = max(worst, abs(closed - fd))
    ok = worst <= 1e-4
    report_line("10 derivative", ok,
                f"max |closed - central difference| = {worst:.2e} at 100 points")


def test_11_iteration():
    it = hprofile.lambda_iteration(0.5, 50)
    ok = abs(it.lambdas[-1] - 2.0) <= 1e-12
    for lam in (0.1, 0.5, 0.9):
        run = hprofile.lambda_iteration(lam, 60)
        limit = run.limit
        diffs = np.diff(run.lambdas)
        saturated = np.abs(run.lambdas[:-1] - limit) <= 8 * np.finfo(float).eps * limit
        ok &= bool(np.all((diffs > 0) | saturated))
        gap0 = abs(1.0 - limit)
        for k in range(61):
            ok &= abs(run.lambdas[k] - limit) <= lam ** k * gap0 * (1 + 1e-9) + 1e-13
    report_line("11 iteration", ok,
                f"gap to 2.0 at n=50: {abs(it.lambdas[-1] - 2.0):.2e}")


def test_12_tail_ratio_trend(store):
    sups = identities.mertens_tail_sups(store, 2, 7)
    ks = sorted(sups)
    ok = ks == list(range(2, 8))
    non_increasing = all(sups[a] >= sups[b] for a, b in zip(ks, ks[1:]))
    detail = {k: float(f"{v:.6g}") for k, v in sups.items()}
    report_line("12 tail-ratio", ok and non_increasing,
                f"sups {detail} non-increasing={non_increasing}")


def test_13_performance(tmp_path):
    primes = sieve.base_primes(math.isqrt(N_MAX))
    t0 = time.perf_counter()
    for seg in sieve.iter_segments(N_MAX, primes=primes):
        pass
    sieve_dt = time.perf_counter() - t0
    throughput = N_MAX / sieve_dt
    ok = throughput >= 1e7

    t1 = time.perf_counter()
    status = cli.main(["report", "--out", str(tmp_path / "report.json")])
    suite_dt = time.perf_counter() - t1
    ok &= status == 0
    ok &= suite_dt < 300.0
    report_line("13 performance", ok,
                f"sieve {throughput / 1e6:.1f}M ints/s/core, "
                f"full default suite {suite_dt:.0f}s (status {status})")
