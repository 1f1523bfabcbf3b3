"""Exact-identity checks and normalized remainder tracking.

Exact identities (true for every argument; only rounding survives):

  * Tatuzawa-Iseki: F(x) log x + sum_{n<=x} F(x/n) Lambda(n)
                      = sum_{d<=x} mu(d) G(x/d),  G(y) = log y sum_{m<=y} F(y/m)
  * dilated-sum collapse:   sum_{n<=x} F(x/n) = log x        (F = smoothed sum)
  * floor-weighted variant: sum_{n<=x} mu(n) floor(x/n) log(x/n) = log x + psi(x)

The two right-hand closed forms differ (log x vs log x + psi x): the module
computes both sums independently and never equates them.

The Tatuzawa-Iseki residual takes a sequence of F and enumerates the
divisor pairs of x once for all of them.  The dilated sum is summed once
per (store, x) and kept, so a check and a remainder series over the same
points share it.

Asymptotic claims are materialized as :class:`RemainderSeries`: sampled
values of (computed sum - main term), with the claim's own normalizer, so
boundedness of the normalized column is the finite-range surrogate for the
big-O statement.  Nothing here asserts a limit.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from . import hprofile
from .accum import NeumaierSum
from .errors import CapabilityError, RangeError
from .summatory import PrefixSums, log_square_sums

#: remainder-series kinds -> (main-term description, normalizer description)
SERIES_KINDS = (
    "selberg_sum",          # sum L2(n) - 2x log x,        normalized by x
    "lambda_theta_sum",     # sum (Lambda+Theta) - 2x,     normalized by x/log x
    "f_dilated_sum",        # sum F(x/n),                  normalized by log x
    "log_square_sum",       # sum log^2(x/n) - 2x,         normalized by (log x)^2
    "lambda_over_n",        # sum Lambda(n)/n - log x,     normalized by 1
    "f_self_bound",         # |F(x)|log^2 x - 2 int,       normalized by x log x
    "h_mean_gap",           # |H(x)| - mean_0^x |H|,       normalized by 1/sqrt(x)
    "mertens_h_mean_gap",   # same for the step profile,   normalized by 1
)

_CHUNK = 1 << 20
_FLAT_CHUNK = 1 << 21


@dataclass(frozen=True)
class RemainderSeries:
    """Sampled normalized residuals for one asymptotic claim."""

    kind: str
    xs: np.ndarray
    raw: np.ndarray
    normalized: np.ndarray
    normalization: str
    sup_normalized: float
    argmax_x: float
    caps: dict

    def summary(self) -> dict:
        return {
            "kind": self.kind,
            "sup_normalized": self.sup_normalized,
            "argmax_x": self.argmax_x,
            "n_samples": int(len(self.xs)),
            "caps": dict(self.caps),
        }


def _finalize_series(kind, xs, raw, normalized, normalization, caps) -> RemainderSeries:
    idx = int(np.argmax(np.abs(normalized))) if len(normalized) else 0
    return RemainderSeries(
        kind=kind, xs=xs, raw=raw, normalized=normalized,
        normalization=normalization,
        sup_normalized=float(np.abs(normalized[idx])) if len(normalized) else 0.0,
        argmax_x=float(xs[idx]) if len(xs) else float("nan"),
        caps=caps)


# ----------------------------------------------------------------------
# function arguments for the Tatuzawa-Iseki check
# ----------------------------------------------------------------------

def f_one(ys: np.ndarray) -> np.ndarray:
    return np.ones_like(np.asarray(ys, dtype=np.float64))


def f_log(ys: np.ndarray) -> np.ndarray:
    return np.log(np.asarray(ys, dtype=np.float64))


def f_smoothed(store: PrefixSums):
    """The smoothed Mertens sum as a vectorized argument function."""
    return store.big_f_many


def tatuzawa_iseki_residual(store: PrefixSums, x: float, fs, *,
                            flat_chunk: int = _FLAT_CHUNK) -> list[float]:
    """Residuals of the exact weighted identity at x, one per F in ``fs``.

    Both sides are summed outright: the left side over the prime powers
    carrying Lambda, the right side over all divisor pairs (d, m) with
    d m <= x, enumerated flat in chunks.  Each F is evaluated once per
    k = d m <= x, x arguments rather than one per pair (about x log x); the
    pairs only gather from those arrays and from the per-d weights
    mu(d) (log x - log d).  The pairs of a chunk are enumerated once and
    applied to every F in turn, so each residual is the one a call with
    that F alone would give.  The result is pure rounding noise for any F;
    tolerances scale with x (log x)^2.
    """
    if not 2.0 <= x <= store.n_max:
        raise RangeError(f"identity check needs 2 <= x <= {store.n_max}, got {x}")
    xf = int(math.floor(x))
    log_x = math.log(x)

    i = int(np.searchsorted(store.pp, xf, side="right"))
    pp = store.pp[:i]
    ks = np.arange(1, xf + 1, dtype=np.int64)
    lhs, f_at_k = [], []
    for f in fs:
        f_at_x = float(np.asarray(f(np.array([x])))[0])
        acc = NeumaierSum(f_at_x * log_x)
        if i:
            acc.add(float(np.sum(store.pp_lam[:i] * np.asarray(f(x / pp)))))
        lhs.append(acc)
        # F is evaluated in flat_chunk slices, so its temporaries stay bounded
        f_at_k.append(np.concatenate([np.asarray(f(x / ks[j:j + flat_chunk]))
                                      for j in range(0, xf, flat_chunk)]))
    w_at_d = (store.mobius_range(1, xf + 1).astype(np.float64)
              * (log_x - np.log(ks.astype(np.float64))))
    # cum[d - 1] = pairs with first factor <= d; a d-block [d0, d1) takes the
    # most d whose pairs fit in flat_chunk, and at least one d
    cum = np.cumsum(xf // ks)
    rhs = [NeumaierSum() for _ in f_at_k]
    d0 = 1
    while d0 <= xf:
        base = int(cum[d0 - 2]) if d0 > 1 else 0
        d1 = max(int(np.searchsorted(cum, base + flat_chunk, "right")) + 1, d0 + 1)
        pairs = int(cum[d1 - 2]) - base
        ds = np.arange(d0, d1, dtype=np.int64)
        counts = xf // ds
        starts = np.cumsum(counts) - counts
        flat_d = np.repeat(ds, counts)
        flat_m = np.arange(1, pairs + 1, dtype=np.int64) - np.repeat(starts, counts)
        weights = np.repeat(w_at_d[d0 - 1:d1 - 1], counts)
        idx = flat_d * flat_m - 1
        for acc, vals in zip(rhs, f_at_k):
            acc.add(float(np.sum(weights * vals[idx])))
        d0 = d1
    return [left.value - right.value for left, right in zip(lhs, rhs)]


# ----------------------------------------------------------------------
# the two readings of the dilated-sum identity
# ----------------------------------------------------------------------

_F_SUMS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def check_f_sum_identity(store: PrefixSums, x: float) -> tuple[float, float]:
    """(sum_{n<=x} F(x/n), that sum minus log x).

    The sum collapses to log x exactly by Moebius inversion; the residual is
    rounding only.  Each x is summed once per store and then kept for as
    long as the store lives: the f-sum-collapse check and the
    ``f_dilated_sum`` remainder kind ask for the same points.
    """
    if x < 1.0:
        raise RangeError(f"need x >= 1, got {x}")
    if x > store.n_max:
        raise CapabilityError(f"x = {x} beyond cap {store.n_max}",
                              max_usable=store.n_max)
    sums = _F_SUMS.setdefault(store, {})
    key = float(x)
    if key in sums:
        return sums[key]
    xf = int(math.floor(x))
    acc = NeumaierSum()
    for lo in range(1, xf + 1, _CHUNK):
        hi = min(lo + _CHUNK, xf + 1)
        # float n give the same x / n as int64 n, and they are freed before
        # the lookup, so they add nothing to its peak memory
        ys = x / np.arange(lo, hi, dtype=np.float64)
        acc.add(float(np.sum(store.big_f_many(ys))))
    total = acc.value
    sums[key] = (total, total - math.log(x))
    return sums[key]


@dataclass(frozen=True)
class FloorWeightedSum:
    """sum mu(n) floor(x/n) log(x/n) against its closed form log x + psi(x)."""

    value: float
    log_x: float
    psi_x: float
    residual: float


def floor_weighted_mu_sum(store: PrefixSums, x: float) -> FloorWeightedSum:
    """Evaluate the floor-weighted reading of the dilated-sum identity."""
    if not 2.0 <= x <= store.n_max:
        raise RangeError(f"need 2 <= x <= {store.n_max}, got {x}")
    xf = int(math.floor(x))
    log_x = math.log(x)
    acc = NeumaierSum()
    for lo in range(1, xf + 1, _CHUNK):
        hi = min(lo + _CHUNK, xf + 1)
        ns = np.arange(lo, hi, dtype=np.int64)
        mu = store.mobius_range(lo, hi).astype(np.float64)
        terms = mu * (xf // ns) * (log_x - np.log(ns.astype(np.float64)))
        acc.add(float(np.sum(terms)))
    value = acc.value
    psi_x = store.psi(x)
    return FloorWeightedSum(value=value, log_x=log_x, psi_x=psi_x,
                            residual=value - (log_x + psi_x))


# ----------------------------------------------------------------------
# smoothed self-bound check
# ----------------------------------------------------------------------

def f_self_bound_constant(store: PrefixSums, x: float) -> float:
    """c(x) = (|F(x)| log^2 x - 2 int_1^x |F(x/t)| log(x/t) dt) / (x log x).

    The t-integral equals x * int_1^x |F(u)| log(u)/u^2 du, evaluated in
    closed form per unit step (splitting at the zeros of F inside a step).
    """
    series = remainder_series(store, "f_self_bound", [x])
    return float(series.normalized[0])


# ----------------------------------------------------------------------
# remainder series over sample grids
# ----------------------------------------------------------------------

def geometric_grid(start: float, stop: float, ratio: float = 1.25) -> np.ndarray:
    """Geometric sample grid covering [start, stop], endpoint included."""
    if not (start > 0 and stop >= start and ratio > 1.0):
        raise RangeError("grid needs 0 < start <= stop and ratio > 1")
    pts = [start]
    while pts[-1] * ratio < stop:
        pts.append(pts[-1] * ratio)
    if pts[-1] < stop:
        pts.append(stop)
    return np.array(pts)


def remainder_series(store: PrefixSums, kind: str, xs) -> RemainderSeries:
    """Sampled (raw, normalized) residuals for one asymptotic claim.

    ``xs`` is in the claim's own domain: the summation variable for the sum
    kinds, the smoothed x-domain for the mean-gap kinds.
    """
    if kind not in SERIES_KINDS:
        raise RangeError(f"unknown remainder kind {kind!r}")
    xs = np.unique(np.asarray(xs, dtype=np.float64))
    if len(xs) == 0:
        raise RangeError("empty sample grid")
    caps = {"n_max": store.n_max, "table_cap": store.table_cap}

    if kind in ("h_mean_gap", "mertens_h_mean_gap"):
        x_cap = math.log(store.n_max) ** 2
        if not xs.min() > 0:
            raise RangeError("mean-gap samples need x > 0")
        if xs.max() > x_cap:
            raise CapabilityError(
                f"x = {xs.max():g} needs exp(sqrt(x)) > n_max; max usable x is "
                f"{x_cap:.6g}", max_usable=x_cap)
        pk = "smoothed" if kind == "h_mean_gap" else "mertens"
        ys = np.exp(np.sqrt(xs))
        res = hprofile.cumulative_at(store, ys, kind=pk)
        xg = np.maximum(xs, hprofile.X_MIN_GUARD)
        raw = np.abs(res.f_at) / ys - res.cum_abs / xg
        normalized = raw * np.sqrt(xg) if kind == "h_mean_gap" else raw.copy()
        label = "sqrt(x)" if kind == "h_mean_gap" else "1"
        return _finalize_series(kind, xs, raw, normalized, label, caps)

    if not xs.min() >= 2.0 and kind != "log_square_sum":
        raise RangeError(f"{kind} samples need x >= 2")
    if xs.max() > store.n_max:
        raise CapabilityError(f"x = {xs.max():g} beyond cap {store.n_max}",
                              max_usable=store.n_max)

    log_xs = np.log(xs)
    if kind == "selberg_sum":
        raw = np.array([store.lambda2_sum(x) for x in xs]) - 2.0 * xs * log_xs
        normalized = raw / xs
        label = "x"
    elif kind == "lambda_theta_sum":
        raw = np.array([store.psi(x) + store.theta_sum(x) for x in xs]) - 2.0 * xs
        normalized = raw * log_xs / xs
        label = "x/log x"
    elif kind == "f_dilated_sum":
        raw = np.array([check_f_sum_identity(store, x)[0] for x in xs])
        normalized = np.where(log_xs > 0, raw / np.where(log_xs > 0, log_xs, 1.0), 0.0)
        label = "log x"
    elif kind == "log_square_sum":
        raw = log_square_sums(xs) - 2.0 * xs
        norm_div = np.where(log_xs > 0, log_xs ** 2, 1.0)
        normalized = raw / norm_div
        label = "(log x)^2"
    elif kind == "lambda_over_n":
        raw = np.array([store.lambda_over_n_sum(x)[1] for x in xs])
        normalized = raw.copy()
        label = "1"
    else:  # f_self_bound
        res = hprofile.cumulative_at(store, xs, kind="smoothed")
        raw = np.abs(res.f_at) * log_xs ** 2 - xs * res.cum_abs
        normalized = raw / (xs * log_xs)
        label = "x log x"
    return _finalize_series(kind, xs, raw, normalized, label, caps)


def decade_sup_profile(series: RemainderSeries,
                       decades: tuple[int, int]) -> dict[int, float]:
    """sup |normalized| per decade [10^k, 10^(k+1)] of the sample grid."""
    out = {}
    for k in range(decades[0], decades[1]):
        lo, hi = 10.0 ** k, 10.0 ** (k + 1)
        sel = (series.xs >= lo) & (series.xs <= hi)
        if sel.any():
            out[k] = float(np.abs(series.normalized[sel]).max())
    return out


def mertens_tail_sups(store: PrefixSums, k_lo: int = 2,
                      k_hi: int | None = None) -> dict[int, float]:
    """sup_{y >= 10^k} |M(y)|/y for each decade threshold k.

    The supremum over real y reduces to integer step starts |M(n)|/n; the
    store's mertens walk collects per-decade maxima and suffix maxima
    finish the job.
    """
    if k_hi is None:
        k_hi = int(math.log10(store.n_max))
    decade_sup = hprofile.profile_walk(store, "mertens").decade_sup
    sups = {}
    running = 0.0
    for k in sorted(decade_sup, reverse=True):
        running = max(running, decade_sup[k])
        sups[k] = running
    return {k: sups[k] for k in range(k_lo, k_hi + 1) if k in sups}
