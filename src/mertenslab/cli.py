"""Command-line front door.

Commands orchestrate the library modules and emit deterministic CSV/JSON
artifacts.  Exit-status contract (stable, for CI):

    0  all executed assertions passed
    1  an assertion failed (the failing check is named in the report)
    2  invalid configuration or usage
    3  a capability cap was exceeded (message names the usable maximum)

Wall-clock timings go to stderr (and an optional sidecar via --timings):
one label per build, check and remainder kind, "import" for this module's
own imports and "total" for the import and the command.  The report files
themselves are byte-identical run to run.
"""

from __future__ import annotations

import time

# the imports below, numpy and the package modules, make the "import" label
_IMPORT_T0 = time.perf_counter()

import argparse
import contextlib
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__, dirichlet, hprofile, identities, sieve, summatory
from .errors import CapabilityError, CrossCheckError, RangeError
from .reporting import csv_cell, to_json, write_csv_atomic, write_json_atomic

IMPORT_S = time.perf_counter() - _IMPORT_T0

# Reference values of M at powers of ten.  The test suite re-derives those
# up to 10^7 with two independent sieve implementations, and 10^8 and 10^9
# with the benchmark's recursion sum_{d<=x} M(x/d) = 1; the sieve gives the
# same two values.
MERTENS_POWERS_OF_TEN = {1: -1, 2: 1, 3: 2, 4: -23, 5: -48, 6: 212, 7: 1037,
                         8: 1928, 9: -222}

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAPABILITY = 3

# dual-route compares the two F routes at this many seeded uniform x
DUAL_ROUTE_POINTS = 10 ** 4
DUAL_ROUTE_SEED = 20260808


@dataclass
class RunConfig:
    n_max: int = 10 ** 7
    conv_cap: int = 10 ** 6
    grid: tuple = (1e2, 1.25, None)      # start, ratio, count (None: up to cap)
    points: list | None = None
    which: str | None = None
    f_kind: str = "all"
    profile_kind: str = "smoothed"
    tail_fraction: float = 0.5
    tol_rel: float = 1e-9
    tol_abs: float = 1e-9
    out: str | None = None
    fmt: str = "json"
    lam: float = 0.5
    steps: int = 50
    alpha: float = 1.0
    samples_per_decade: int = 32
    timings: str | None = None

    def validate(self) -> None:
        if self.n_max < 1:
            raise RangeError("n_max must be >= 1")
        if not 1 <= self.conv_cap <= self.n_max:
            raise RangeError("conv_cap must satisfy 1 <= conv_cap <= n_max")
        if not 0.0 < self.tail_fraction < 1.0:
            raise RangeError("tail_fraction must lie in (0, 1)")
        if self.points is not None and len(self.points) == 0:
            raise RangeError("empty sample grid")
        if self.points is not None and not np.all(np.isfinite(self.points)):
            raise RangeError("sample points must be finite")
        if self.fmt not in ("csv", "json"):
            raise RangeError(f"unknown format {self.fmt!r}")
        if self.steps < 1:
            raise RangeError("steps must be >= 1")


class Timings:
    def __init__(self):
        self.entries = []

    @contextlib.contextmanager
    def measure(self, label, before: float = 0.0):
        """Time a block; ``before`` seconds spent ahead of it count too."""
        t0 = time.perf_counter() - before
        try:
            yield
        finally:
            self.entries.append((label, time.perf_counter() - t0))

    def emit(self, path: str | None) -> None:
        for label, dt in self.entries:
            print(f"[time] {label}: {dt:.3f}s", file=sys.stderr)
        if path:
            write_json_atomic(path, {label: dt for label, dt in self.entries})


@dataclass
class Context:
    """Lazily built shared state for the command handlers."""

    config: RunConfig
    timings: Timings = field(default_factory=Timings)
    _store: summatory.PrefixSums | None = None
    _table: dirichlet.ArithTable | None = None
    _table_error: CrossCheckError | None = None
    _profiles: dict = field(default_factory=dict)
    # profile kind -> the points the command reads, answered in the build
    walk_plan: dict = field(default_factory=dict)

    @property
    def store(self) -> summatory.PrefixSums:
        if self._store is None:
            walk = hprofile.Walk(self.walk_plan) if self.walk_plan else None
            with self.timings.measure("build-prefix-sums"):
                self._store = summatory.PrefixSums(self.config.n_max, walk=walk)
            if walk is not None:
                self.timings.entries.append(("build-prefix-sums/walks", walk.seconds))
        return self._store

    @property
    def table(self) -> dirichlet.ArithTable:
        # a failed cross-check is kept and raised again, never rebuilt
        if self._table_error is not None:
            raise self._table_error
        if self._table is None:
            store = self.store
            with self.timings.measure("build-arith-table"):
                try:
                    self._table = dirichlet.build_arith_table(
                        store, self.config.conv_cap, tol_rel=self.config.tol_rel)
                except CrossCheckError as exc:
                    self._table_error = exc
                    raise
        return self._table

    def plan(self, kind: str, ys=None) -> None:
        """Have the store's build answer the points ys of the profile kind,
        by default every point its profile reads."""
        if ys is None:
            ys = np.concatenate(hprofile.profile_ys(self.config.n_max,
                                                    self.config.samples_per_decade))
        self.walk_plan[kind] = np.concatenate((self.walk_plan.get(kind, []), ys))

    def profile(self, kind: str) -> hprofile.HProfile:
        if kind not in self._profiles:
            with self.timings.measure(f"build-profile-{kind}"):
                prof = hprofile.build_profile(
                    self.store, kind,
                    samples_per_decade=self.config.samples_per_decade)
                if len(prof.x_samples):
                    hprofile.estimate_constants(prof, self.config.tail_fraction)
            self._profiles[kind] = prof
        return self._profiles[kind]


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------

def check_mertens_values(ctx: Context, xs) -> dict:
    expected = {10 ** k: m for k, m in MERTENS_POWERS_OF_TEN.items()}
    rows = [{"x": x, "M": ctx.store.mertens(x), "expected": expected[x]} for x in xs]
    ok = all(row["M"] == row["expected"] for row in rows)
    return {"name": "mertens-values", "status": "pass" if ok else "fail",
            "values": rows}


def _residual_scan(residuals, tols, **at) -> tuple[bool, dict]:
    """(every |residual| within its tolerance, the worst point): the first
    of largest |residual|, with its entry in each list of ``at``; with no
    points, residual 0.0 at x None."""
    size = np.abs(residuals)
    if not len(size):
        return True, {"residual": 0.0, "x": None}
    i = int(np.argmax(size))
    worst = {"residual": float(residuals[i])}
    worst.update((key, values[i]) for key, values in at.items())
    return bool(np.all(size <= tols)), worst


def check_tatuzawa_iseki(ctx: Context, xs) -> dict:
    cfg = ctx.config
    fs = {"one": identities.f_one, "log": identities.f_log,
          "smoothed": identities.f_smoothed(ctx.store)}
    if cfg.f_kind != "all":
        fs = {cfg.f_kind: fs[cfg.f_kind]}
    # one call serves every x and f; the scan keeps f outer, x inner
    residuals = identities.tatuzawa_iseki_residual(ctx.store, xs, list(fs.values()))
    ok, worst = _residual_scan(
        residuals.T.ravel(), cfg.tol_rel * np.tile(xs * np.log(xs) ** 2, len(fs)),
        x=xs.tolist() * len(fs), f=[fname for fname in fs for _ in xs])
    return {"name": "tatuzawa-iseki", "status": "pass" if ok else "fail",
            "n_points": int(len(xs)), "functions": sorted(fs),
            "worst": worst, "tolerance": "tol_rel * x * log(x)^2"}


def _identity_check(ctx: Context, name: str, xs: np.ndarray, residuals) -> dict:
    """Scan the residuals at the points xs against tol_rel * x."""
    ok, worst = _residual_scan(residuals, ctx.config.tol_rel * xs, x=xs.tolist())
    return {"name": name, "status": "pass" if ok else "fail",
            "n_points": int(len(xs)), "worst": worst, "tolerance": "tol_rel * x"}


def check_f_sum_collapse(ctx: Context, xs) -> dict:
    return _identity_check(ctx, "f-sum-collapse", xs,
                           identities.check_f_sum_identity(ctx.store, xs)[1])


def check_floor_weighted(ctx: Context, xs) -> dict:
    return _identity_check(ctx, "floor-weighted", xs,
                           identities.floor_weighted_mu_sum(ctx.store, xs)[1])


def _table_failure(name: str, exc: CrossCheckError) -> dict:
    """The result of a check that cannot run because the table build's
    cross-check failed."""
    return {"name": name, "status": "fail", "error": str(exc),
            "worst_n": exc.worst_n, "discrepancy": exc.discrepancy}


def check_lambda2_forms(ctx: Context, _=None) -> dict:
    cfg = ctx.config
    try:
        table = ctx.table
    except CrossCheckError as exc:
        return _table_failure("lambda2-forms", exc)
    anchors_ok = True
    anchors = []
    expected = {4: 3 * math.log(2) ** 2, 12: 2 * math.log(2) * math.log(3)}
    for n, expect in expected.items():
        if n <= table.n_max:
            got = float(table.lambda2[n])
            rel = abs(got - expect) / expect
            anchors.append({"n": n, "value": got, "expected": expect,
                            "rel_error": rel})
            anchors_ok &= rel <= 1e-12
    budget = cfg.tol_rel * math.log(table.n_max) ** 2
    forms_ok = table.form_discrepancy <= budget
    return {"name": "lambda2-forms",
            "status": "pass" if (forms_ok and anchors_ok) else "fail",
            "max_form_discrepancy": table.form_discrepancy,
            "worst_n": table.form_discrepancy_n, "budget": budget,
            "anchors": anchors, "cap": table.n_max}


def check_dual_route(ctx: Context, _=None) -> dict:
    # the seeded points are drawn here, not in grid_for: numpy.random,
    # loaded before the store and the table, adds 6.4 MB to the report's peak
    rng = np.random.default_rng(DUAL_ROUTE_SEED)
    xs = np.sort(rng.uniform(1.0, float(ctx.config.n_max), DUAL_ROUTE_POINTS))
    f_sum, f_int = ctx.store.big_f_routes(xs)
    gap = np.abs(f_sum - f_int)
    budget = 1e-8 * (1.0 + np.abs(f_sum) + np.log(xs))
    ok = bool(np.all(gap <= budget))
    worst = int(np.argmax(gap / budget))
    return {"name": "dual-route", "status": "pass" if ok else "fail",
            "n_points": int(len(xs)), "seed": DUAL_ROUTE_SEED,
            "max_gap": float(gap.max()),
            "worst": {"x": float(xs[worst]), "gap": float(gap[worst]),
                      "budget": float(budget[worst])},
            "tolerance": "1e-8 * (1 + |F| + log x)"}


def check_h_bound(ctx: Context, _=None) -> dict:
    cfg = ctx.config
    prof = ctx.profile("smoothed")
    if len(prof.h_values) == 0:
        return {"name": "h-bound", "status": "not-applicable", "n_samples": 0}
    sup = float(np.abs(prof.h_values).max())
    ok = sup <= 1.0 + cfg.tol_abs
    return {"name": "h-bound", "status": "pass" if ok else "fail",
            "sup_abs_h": sup, "n_samples": int(len(prof.h_values)),
            "tolerance": "1 + tol_abs"}


def check_residual_stats(ctx: Context, xs) -> dict:
    x = float(xs[0])
    try:
        table = ctx.table
    except CrossCheckError as exc:
        return _table_failure("residual-stats", exc)
    stats = dirichlet.pointwise_residuals(table, x)
    ok = abs(stats.r14_avg) <= 4.0
    return {"name": "residual-stats", "status": "pass" if ok else "fail",
            "x": x, "r13_norm_max": stats.r13_norm_max,
            "r13_norm_mean": stats.r13_norm_mean,
            "r14_abs_max": stats.r14_abs_max,
            "r13_avg": stats.r13_avg, "r14_avg": stats.r14_avg,
            "tolerance": "|avg r14| <= 4"}


CHECKS = {
    "mertens-values": check_mertens_values,
    "tatuzawa-iseki": check_tatuzawa_iseki,
    "f-sum-collapse": check_f_sum_collapse,
    "floor-weighted": check_floor_weighted,
    "lambda2-forms": check_lambda2_forms,
    "dual-route": check_dual_route,
    "h-bound": check_h_bound,
    "residual-stats": check_residual_stats,
}
CHECK_NAMES = tuple(CHECKS)


# ----------------------------------------------------------------------
# the grid table: every check's and remainder kind's points, before the store
# ----------------------------------------------------------------------

def grid_for(cfg: RunConfig, name: str):
    """The points of the check or remainder kind ``name``, or of the
    ``mertens`` command, from the configuration alone; lambda2-forms,
    dual-route and h-bound take none from it (None).

    --points serves every name that samples a grid.  Without it, the
    identity checks (f-sum-collapse, floor-weighted) take 2, 4, 10 and the
    geometric grid from 100 to min(1e6, n_max); the remainder kinds and
    ``mertens`` take the --grid start and ratio, up to n_max (1e6 for
    f_dilated_sum and ``mertens``), or --grid's count of points; the
    mean-gap kinds start at 1 and stop at log(n_max)^2.  Every point must
    lie in its name's domain: x >= 1 for ``mertens`` and log_square_sum,
    x > 0 for the mean-gap kinds, x >= 2 for the rest (a usage error
    below), and x at most n_max, or log(n_max)^2 for the mean-gap kinds
    (a capability error above).  lambda2-forms and residual-stats refuse
    a conv_cap whose table would not fit in memory (a capability error).
    A command takes every grid it needs before the store is built, so each
    error raised here comes before any work.
    """
    n_max = float(cfg.n_max)
    if name in ("lambda2-forms", "residual-stats"):
        dirichlet.check_table_cap(cfg.conv_cap)
    if name == "mertens-values":
        return [10 ** k for k in sorted(MERTENS_POWERS_OF_TEN) if 10 ** k <= cfg.n_max]
    if name == "residual-stats":
        if cfg.conv_cap < 2:
            raise RangeError(f"residual-stats needs conv_cap >= 2, got {cfg.conv_cap}")
        return np.array([float(min(cfg.conv_cap, 10 ** 6))])
    if name in ("lambda2-forms", "dual-route", "h-bound"):
        return None
    mean_gap = name in ("h_mean_gap", "mertens_h_mean_gap")
    if cfg.points is not None:
        xs = np.unique(np.asarray(cfg.points, dtype=np.float64))
    elif name == "tatuzawa-iseki":
        xs = np.geomspace(2.0, min(1e5, n_max), 200)
    elif name in ("f-sum-collapse", "floor-weighted"):
        if cfg.n_max < 100:
            raise RangeError(f"n_max must be >= 100 without --points, got {cfg.n_max}")
        xs = np.concatenate(([2.0, 4.0, 10.0],
                             identities.geometric_grid(100.0, min(1e6, n_max))))
    else:
        start, ratio, count = cfg.grid
        if mean_gap:
            start, stop = 1.0, math.log(cfg.n_max) ** 2
        elif cfg.n_max < start:
            raise RangeError(f"n_max must be >= {start:g} without --points, got {cfg.n_max}")
        else:
            stop = min(1e6, n_max) if name in ("mertens", "f_dilated_sum") else n_max
        if count is None:
            xs = identities.geometric_grid(start, stop, ratio)
        else:
            xs = np.unique(start * np.power(float(ratio), np.arange(int(count))))
    if not len(xs):
        raise RangeError("empty sample grid")
    lo = 0.0 if mean_gap else 1.0 if name in ("mertens", "log_square_sum") else 2.0
    if not (xs.min() > lo if mean_gap else xs.min() >= lo):
        raise RangeError(f"{name} needs x {'>' if mean_gap else '>='} {lo:g}, "
                         f"got {xs.min():g}")
    cap = math.log(cfg.n_max) ** 2 if mean_gap else cfg.n_max
    if xs.max() > cap:
        raise CapabilityError(f"{name}: x = {xs.max():g} beyond cap {cap:g}", max_usable=cap)
    return xs


def evaluate(ctx: Context, names) -> dict:
    """name -> the result of each check and remainder kind of ``names``, in
    that order.  Every grid is taken first, so a usage error in any comes
    before the store is built, and the profile points they read are
    planned for the build."""
    grids = {name: grid_for(ctx.config, name) for name in names}
    for name, xs in grids.items():
        if name == "h-bound":
            ctx.plan("smoothed")
        elif points := identities.profile_points(name, xs):
            ctx.plan(*points)
    out = {}
    for name, xs in grids.items():
        if name in CHECKS:
            with ctx.timings.measure(f"check-{name}"):
                out[name] = CHECKS[name](ctx, xs)
        else:
            with ctx.timings.measure(f"remainder-{name}"):
                out[name] = identities.remainder_series(ctx.store, name, xs)
    return out


# ----------------------------------------------------------------------
# remainder and profile payloads
# ----------------------------------------------------------------------

def remainder_growth_report(series_map: dict, n_max: int) -> dict:
    """Per-decade sup growth for the three decade-bounded sum kinds."""
    top = int(math.log10(n_max))
    rows = {}
    ok = True
    for kind in ("selberg_sum", "lambda_theta_sum", "log_square_sum"):
        if kind not in series_map:
            continue
        sups = identities.decade_sup_profile(series_map[kind], (4, top))
        ratios = {}
        ks = sorted(sups)
        for a, b in zip(ks, ks[1:]):
            if sups[a] > 0:
                ratios[b] = sups[b] / sups[a]
                ok &= ratios[b] <= 1.10
        rows[kind] = {"decade_sups": {str(k): v for k, v in sups.items()},
                      "growth_ratios": {str(k): v for k, v in ratios.items()}}
    return {"name": "remainder-growth", "status": "pass" if ok else "fail",
            "kinds": rows, "tolerance": "sup growth <= 10% per decade"}


def constants_payload(prof: hprofile.HProfile) -> dict:
    c = prof.constants
    if c is None:
        return {}
    return {
        "alpha_hat": c.alpha_hat,
        "mean_abs_hat": c.mean_abs_hat, "mean_abs_tail_hat": c.mean_abs_tail_hat,
        "deriv_sup_hat": c.deriv_sup_hat, "signed_span_hat": c.signed_span_hat,
        "iota_hat": c.iota_hat, "kappa": c.kappa, "epsilon": c.epsilon,
        "h_param": c.h_param, "lambda_est": c.lambda_est,
        "provenance": {"window_lo": c.window_lo, "window_hi": c.window_hi,
                       "n_window_samples": c.n_window_samples,
                       "n_zeros": int(len(prof.zeros)),
                       "n_intervals": int(len(prof.intervals or [])),
                       "finite_zero_branch": prof.finite_zero_branch(),
                       "zeros_are_step_boundaries": prof.zeros_are_step_boundaries},
    }


def profile_rows(prof: hprofile.HProfile) -> list[dict]:
    return [{"x": float(x), "y": float(y), "h": float(h),
             "cum_abs": float(ca), "cum_signed": float(cs)}
            for x, y, h, ca, cs in zip(prof.x_samples, prof.y_samples,
                                       prof.h_values,
                                       prof.cumulative_abs_integral,
                                       prof.cumulative_signed_integral)]


def zeros_rows(prof: hprofile.HProfile) -> list[dict]:
    rows = []
    zs = prof.zeros
    if len(zs) >= 2:
        for i in range(len(zs) - 1):
            rows.append({"index": i, "x": float(zs[i]), "a_or_b": "a"})
            rows.append({"index": i, "x": float(zs[i + 1]), "a_or_b": "b"})
    elif len(zs) == 1:
        rows.append({"index": 0, "x": float(zs[0]), "a_or_b": "a"})
    return rows


def interval_rows(prof: hprofile.HProfile) -> list[dict]:
    return [{"a": iv.a, "b": iv.b, "integral_abs": iv.integral_abs,
             "xi": iv.xi, "h_at_xi": iv.h_at_xi,
             "deriv_bound": iv.deriv_bound, "damped_bound": iv.damped_bound}
            for iv in (prof.intervals or [])]


def iteration_payload(it: hprofile.IterationResult) -> dict:
    return {
        "lambda": it.lam, "alpha": it.alpha, "n_steps": len(it.lambdas) - 1,
        "limit": it.limit,
        "final_lambda_n": float(it.lambdas[-1]),
        "final_bound_recurrence": float(it.bounds_recurrence[-1]),
        "final_bound_contracting": float(it.bounds_contracting[-1]),
        "recurrence_limit_bound": it.alpha * (1.0 - it.lam),
    }


# ----------------------------------------------------------------------
# command handlers
# ----------------------------------------------------------------------

def _emit(cfg: RunConfig, payload, default_name: str) -> None:
    if cfg.out is None:
        print(to_json(payload) if not isinstance(payload, str) else payload)
        return
    path = cfg.out
    if os.path.isdir(path):
        path = os.path.join(path, default_name)
    write_json_atomic(path, payload)


def _emit_csv(cfg: RunConfig, header: list[str], rows, default_name: str) -> None:
    if cfg.out is None:
        print(",".join(header))
        for row in rows:
            print(",".join(csv_cell(row[h]) for h in header))
        return
    path = cfg.out
    if os.path.isdir(path):
        path = os.path.join(path, default_name)
    write_csv_atomic(path, header, rows)


def cmd_sieve(ctx: Context) -> int:
    cfg = ctx.config
    store = ctx.store
    payload = {
        "n_max": store.n_max, "segment_size": sieve.DEFAULT_SEGMENT_SIZE,
        "checkpoint_stride": store.stride,
        "n_base_primes": int(len(store.primes)),
        "n_prime_powers": int(len(store.pp)),
        "mertens_at_n_max": store.mertens_at_n_max,
        "psi_at_n_max": store.psi(store.n_max),
    }
    _emit(cfg, payload, "sieve.json")
    return EXIT_PASS


def cmd_table(ctx: Context) -> int:
    cfg = ctx.config
    dirichlet.check_table_cap(cfg.conv_cap)
    ns = range(1, cfg.conv_cap + 1)
    if cfg.points is not None:
        # every row is named before the store and the table are built
        ns = [int(n) for n in cfg.points]
        for x, n in zip(cfg.points, ns):
            if x != n or n < 1:
                raise RangeError(f"table rows must be integers >= 1, got {x:g}")
        if max(ns) > cfg.conv_cap:
            raise CapabilityError(f"table: row {max(ns)} beyond conv_cap {cfg.conv_cap}",
                                  max_usable=cfg.conv_cap)
    rows = dirichlet.table_rows(ctx.table, ns)
    _emit_csv(cfg, ["n", "mu", "lambda", "lambda2", "lambda2_minus", "theta"],
              rows, "table.csv")
    return EXIT_PASS


def cmd_mertens(ctx: Context) -> int:
    cfg = ctx.config
    xs = grid_for(cfg, "mertens")
    rows = [{"x": float(x), "M": ctx.store.mertens(x)} for x in xs]
    if cfg.fmt == "csv":
        _emit_csv(cfg, ["x", "M"], rows, "mertens.csv")
    else:
        _emit(cfg, {"values": rows}, "mertens.json")
    return EXIT_PASS


def cmd_verify(ctx: Context) -> int:
    cfg = ctx.config
    names = CHECK_NAMES if cfg.which in (None, "all") else (cfg.which,)
    for name in names:
        if name not in CHECKS:
            raise RangeError(f"unknown check {name!r}; choose from {CHECK_NAMES}")
    results = list(evaluate(ctx, names).values())
    payload = {"tool": {"name": "mertenslab", "version": __version__},
               "checks": results}
    _emit(cfg, payload, "verify.json")
    return EXIT_PASS if all(r["status"] != "fail" for r in results) else EXIT_FAIL


def cmd_remainders(ctx: Context) -> int:
    cfg = ctx.config
    kinds = identities.SERIES_KINDS if cfg.which in (None, "all") else (cfg.which,)
    for kind in kinds:
        if kind not in identities.SERIES_KINDS:
            raise RangeError(f"unknown remainder kind {kind!r}")
    series_map = evaluate(ctx, kinds)
    rows = []
    for kind in kinds:
        s = series_map[kind]
        for x, raw, norm in zip(s.xs, s.raw, s.normalized):
            rows.append({"kind": kind, "x": float(x), "raw": float(raw),
                         "normalized": float(norm)})
    if cfg.fmt == "csv":
        _emit_csv(cfg, ["kind", "x", "raw", "normalized"], rows, "remainders.csv")
    else:
        _emit(cfg, {"series": {k: series_map[k].summary() for k in kinds},
                    "samples": rows}, "remainders.json")
    return EXIT_PASS


def _out_dir(cfg: RunConfig, command: str) -> str:
    """The directory a profile command writes into; an --out that names a
    file is a usage error, raised before the store is built."""
    out_dir = cfg.out or "."
    if os.path.exists(out_dir) and not os.path.isdir(out_dir):
        raise RangeError(f"{command} writes into a directory; --out {out_dir} is a file")
    return out_dir


def cmd_h_profile(ctx: Context) -> int:
    cfg = ctx.config
    out_dir = _out_dir(cfg, "h-profile")
    ctx.plan(cfg.profile_kind)
    prof = ctx.profile(cfg.profile_kind)
    os.makedirs(out_dir, exist_ok=True)
    write_csv_atomic(os.path.join(out_dir, f"profile_{cfg.profile_kind}.csv"),
                     ["x", "y", "h", "cum_abs", "cum_signed"], profile_rows(prof))
    write_csv_atomic(os.path.join(out_dir, f"zeros_{cfg.profile_kind}.csv"),
                     ["index", "x", "a_or_b"], zeros_rows(prof))
    write_json_atomic(os.path.join(out_dir, f"constants_{cfg.profile_kind}.json"),
                      constants_payload(prof))
    return EXIT_PASS


def cmd_intervals(ctx: Context) -> int:
    cfg = ctx.config
    out_dir = _out_dir(cfg, "intervals")
    ctx.plan(cfg.profile_kind)
    prof = ctx.profile(cfg.profile_kind)
    os.makedirs(out_dir, exist_ok=True)
    write_csv_atomic(os.path.join(out_dir, f"intervals_{cfg.profile_kind}.csv"),
                     ["a", "b", "integral_abs", "xi", "h_at_xi",
                      "deriv_bound", "damped_bound"], interval_rows(prof))
    write_json_atomic(os.path.join(out_dir, f"constants_{cfg.profile_kind}.json"),
                      constants_payload(prof))
    return EXIT_PASS


def cmd_iterate(ctx: Context) -> int:
    cfg = ctx.config
    it = hprofile.lambda_iteration(cfg.lam, cfg.steps, cfg.alpha)
    if cfg.fmt == "csv":
        rows = [{"k": k, "lambda_k": float(it.lambdas[k]),
                 "bound_recurrence": float(it.bounds_recurrence[k]),
                 "bound_contracting": float(it.bounds_contracting[k])}
                for k in range(len(it.lambdas))]
        _emit_csv(cfg, ["k", "lambda_k", "bound_recurrence", "bound_contracting"],
                  rows, "iterate.csv")
    else:
        _emit(cfg, iteration_payload(it), "iterate.json")
    return EXIT_PASS


def cmd_report(ctx: Context) -> int:
    cfg = ctx.config
    ctx.plan("smoothed")
    ctx.plan("mertens")
    results = evaluate(ctx, CHECK_NAMES + identities.SERIES_KINDS)
    checks = [results[name] for name in CHECK_NAMES]
    series_map = {kind: results[kind] for kind in identities.SERIES_KINDS}
    checks.append(remainder_growth_report(series_map, cfg.n_max))

    prof_s = ctx.profile("smoothed")
    prof_m = ctx.profile("mertens")
    alpha_hat = prof_s.constants.alpha_hat if prof_s.constants else 1.0

    iterations = {}
    for lam in (0.1, 0.5, 0.9):
        iterations[str(lam)] = iteration_payload(
            hprofile.lambda_iteration(lam, cfg.steps))
    iterations["alpha_hat"] = iteration_payload(
        hprofile.lambda_iteration(0.5, cfg.steps, alpha_hat))

    payload = {
        "tool": {"name": "mertenslab", "version": __version__},
        "config": {
            "n_max": cfg.n_max, "conv_cap": cfg.conv_cap,
            "segment_size": sieve.DEFAULT_SEGMENT_SIZE,
            "grid": {"start": cfg.grid[0], "ratio": cfg.grid[1]},
            "tail_fraction": cfg.tail_fraction,
            "tol_rel": cfg.tol_rel, "tol_abs": cfg.tol_abs,
        },
        "checks": checks,
        "remainders": {k: s.summary() for k, s in series_map.items()},
        "profiles": {
            "smoothed": {"constants": constants_payload(prof_s),
                         "n_samples": int(len(prof_s.x_samples)),
                         "n_zeros": int(len(prof_s.zeros))},
            "mertens": {"constants": constants_payload(prof_m),
                        "n_samples": int(len(prof_m.x_samples)),
                        "n_zeros": int(len(prof_m.zeros)),
                        "decade_sups": {str(k): v for k, v in
                                        (prof_m.decade_sups or {}).items()}},
        },
        "iterations": iterations,
    }
    _emit(cfg, payload, "report.json")
    failed = [c["name"] for c in checks if c["status"] == "fail"]
    if failed:
        print(f"FAILED checks: {', '.join(failed)}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_PASS


COMMANDS = {
    "sieve": cmd_sieve,
    "table": cmd_table,
    "mertens": cmd_mertens,
    "verify": cmd_verify,
    "remainders": cmd_remainders,
    "h-profile": cmd_h_profile,
    "intervals": cmd_intervals,
    "iterate": cmd_iterate,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mertenslab",
        description="Verification workbench for Mertens-function arithmetic")
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("--n-max", type=int, default=10 ** 7)
    p.add_argument("--conv-cap", type=int, default=None,
                   help="dense table cap (default: min(10**6, n_max))")
    grid = p.add_mutually_exclusive_group()
    grid.add_argument("--grid", type=str, default=None,
                      help="geometric grid start:ratio[:count]")
    grid.add_argument("--points", type=str, default=None,
                      help="explicit comma-separated sample points")
    p.add_argument("--which", type=str, default=None,
                   help="check name (verify) or remainder kind (remainders)")
    p.add_argument("--f", dest="f_kind", choices=["one", "log", "smoothed", "all"],
                   default="all", help="argument function for tatuzawa-iseki")
    p.add_argument("--kind", dest="profile_kind",
                   choices=["smoothed", "mertens"], default="smoothed")
    p.add_argument("--tail-fraction", type=float, default=0.5)
    p.add_argument("--tol-rel", type=float, default=1e-9)
    p.add_argument("--tol-abs", type=float, default=1e-9)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", dest="fmt", choices=["csv", "json"],
                   default="json")
    p.add_argument("--lam", type=float, default=0.5,
                   help="damping constant for the iterate command")
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--samples-per-decade", type=int, default=32)
    p.add_argument("--timings", type=str, default=None,
                   help="optional sidecar path for wall-clock timings")
    return p


def config_from_args(args) -> RunConfig:
    grid = (1e2, 1.25, None)
    if args.grid:
        parts = args.grid.split(":")
        if len(parts) not in (2, 3):
            raise RangeError("--grid expects start:ratio[:count]")
        grid = (float(parts[0]), float(parts[1]),
                int(parts[2]) if len(parts) == 3 else None)
    points = None
    if args.points is not None:
        raw = [s for s in args.points.split(",") if s.strip()]
        points = [float(s) for s in raw]
    conv_cap = args.conv_cap
    if conv_cap is None:
        conv_cap = min(10 ** 6, args.n_max)
    cfg = RunConfig(
        n_max=args.n_max, conv_cap=conv_cap, grid=grid, points=points,
        which=args.which, f_kind=args.f_kind, profile_kind=args.profile_kind,
        tail_fraction=args.tail_fraction, tol_rel=args.tol_rel,
        tol_abs=args.tol_abs, out=args.out, fmt=args.fmt,
        lam=args.lam, steps=args.steps, alpha=args.alpha,
        samples_per_decade=args.samples_per_decade, timings=args.timings)
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
    except (RangeError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    ctx = Context(config=cfg)
    ctx.timings.entries.append(("import", IMPORT_S))
    try:
        with ctx.timings.measure("total", before=IMPORT_S):
            status = COMMANDS[args.command](ctx)
    except CapabilityError as exc:
        print(f"capability exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except RangeError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        ctx.timings.emit(cfg.timings)
    return status


if __name__ == "__main__":
    sys.exit(main())
