"""Exact-identity checks and normalized remainder tracking.

Exact identities (true for every argument; only rounding survives):

  * Tatuzawa-Iseki: F(x) log x + sum_{n<=x} F(x/n) Lambda(n)
                      = sum_{d<=x} mu(d) G(x/d),  G(y) = log y sum_{m<=y} F(y/m)
  * dilated-sum collapse:   sum_{n<=x} F(x/n) = log x        (F = smoothed sum)
  * floor-weighted variant: sum_{n<=x} mu(n) floor(x/n) log(x/n) = log x + psi(x)

The two right-hand closed forms differ (log x vs log x + psi x): the module
computes both sums independently and never equates them.

The Tatuzawa-Iseki residual takes all its points and a sequence of F, and
builds its right side's weights for every point from two
:func:`dirichlet.convolve_prefix` calls.
Both readings of the dilated sum take all their points at once and return
one value and one residual per point, each x summed in its own order.  The
collapse keeps each x's sum per store, so a check and a remainder series
over the same points share it; the floor-weighted reading reads psi at
every point from one pass.

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

from . import dirichlet, hprofile
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


def tatuzawa_iseki_residual(store: PrefixSums, xs, fs) -> np.ndarray:
    """Residuals of the exact weighted identity, one row per x of ``xs``
    and one column per F in ``fs``.

    Both sides are summed outright: the left side over the prime powers
    carrying Lambda, the right side over the divisor pairs (d, m), d m <= x,
    grouped by k = d m first.  It is sum_{k<=x} c_x(k) F(x/k) with
    c_x = w_x * 1 and w_x(d) = mu(d) log(x/d), so c_x = log x E - L with
    E = mu * 1 and L = (mu log) * 1.  E and L are taken once, up to
    floor(max xs), by two :func:`dirichlet.convolve_prefix` calls, and each
    x reads their prefix, so a point's residual does not depend on the
    others.  Each F is evaluated once per k, in slices.  The result is pure
    rounding noise for any F; tolerances scale with x (log x)^2.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if len(xs) and not (2.0 <= xs.min() and xs.max() <= store.n_max):
        raise RangeError(f"identity check needs 2 <= x <= {store.n_max}, "
                         f"got [{xs.min()}, {xs.max()}]")
    out = np.empty((len(xs), len(fs)))
    if not len(xs):
        return out
    top = int(math.floor(xs.max()))
    ones = np.broadcast_to(1.0, (top + 1,))
    mu = np.zeros(top + 1)
    mu[1:] = store.mobius_range(1, top + 1)
    e_k = dirichlet.convolve_prefix(mu, ones, top)
    mu[1:] *= np.log(np.arange(1.0, top + 1.0))
    l_k = dirichlet.convolve_prefix(mu, ones, top)
    del mu

    for r, x in enumerate(xs.tolist()):
        xf = int(math.floor(x))
        log_x = math.log(x)
        c = log_x * e_k[:xf + 1]
        c -= l_k[:xf + 1]
        # x >= 2, so the prime power 2 is always among them
        i = int(np.searchsorted(store.pp, xf, side="right"))
        pp = store.pp[:i]
        for j, f in enumerate(fs):
            f_at_x = float(np.asarray(f(np.array([x])))[0])
            lhs = NeumaierSum(f_at_x * log_x)
            lhs.add(float(np.sum(store.pp_lam[:i] * np.asarray(f(x / pp)))))
            out[r, j] = lhs.value - _quotient_sum(f, x, c)
    return out


def _quotient_sum(f, x: float, c: np.ndarray | None = None) -> float:
    """sum_{k<=x} c(k) F(x/k), with F evaluated in slices of _CHUNK
    arguments so that its temporaries stay bounded; without c, every
    weight is one."""
    xf = int(math.floor(x))
    acc = NeumaierSum()
    for lo in range(1, xf + 1, _CHUNK):
        hi = min(lo + _CHUNK, xf + 1)
        # float k give the same x / k as int64 k, and they are freed before
        # F runs, so they add nothing to its peak memory
        ys = x / np.arange(lo, hi, dtype=np.float64)
        vals = np.asarray(f(ys))
        if c is not None:
            vals = vals * c[lo:hi]
        acc.add(float(np.sum(vals)))
    return acc.value


# ----------------------------------------------------------------------
# the two readings of the dilated-sum identity
# ----------------------------------------------------------------------

_F_SUMS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def check_f_sum_identity(store: PrefixSums, xs) -> tuple[np.ndarray, np.ndarray]:
    """(sum_{n<=x} F(x/n), that sum minus log x) at every x of ``xs``.

    The sum collapses to log x exactly by Moebius inversion; the residual is
    rounding only.  Each x is summed on its own, once per store, and then
    kept for as long as the store lives: the f-sum-collapse check and the
    ``f_dilated_sum`` remainder kind ask for the same points.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if not np.all(xs >= 1.0):
        raise RangeError(f"need x >= 1, got {xs.min()}")
    if np.any(xs > store.n_max):
        raise CapabilityError(f"x = {xs.max()} beyond cap {store.n_max}",
                              max_usable=store.n_max)
    sums = _F_SUMS.setdefault(store, {})
    for x in xs.tolist():
        if x not in sums:
            total = _quotient_sum(store.big_f_many, x)
            sums[x] = (total, total - math.log(x))
    pairs = np.array([sums[x] for x in xs.tolist()]).reshape(len(xs), 2)
    return pairs[:, 0], pairs[:, 1]


def floor_weighted_mu_sum(store: PrefixSums, xs) -> tuple[np.ndarray, np.ndarray]:
    """(sum_{n<=x} mu(n) floor(x/n) log(x/n), that sum minus its closed form
    log x + psi(x)) at every x of ``xs``, 2 <= x <= n_max.

    Each x takes its dense terms in chunks of its own; one ``psi_many``
    pass serves every x.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if not np.all((xs >= 2.0) & (xs <= store.n_max)):
        raise RangeError(f"need 2 <= x <= {store.n_max}, got [{xs.min()}, {xs.max()}]")
    values = np.empty(len(xs))
    residuals = np.empty(len(xs))
    for i, (x, psi_x) in enumerate(zip(xs.tolist(), store.psi_many(xs).tolist())):
        xf = int(math.floor(x))
        log_x = math.log(x)
        acc = NeumaierSum()
        for lo in range(1, xf + 1, _CHUNK):
            hi = min(lo + _CHUNK, xf + 1)
            ns = np.arange(lo, hi, dtype=np.int64)
            # mu(n) floor(x/n) (log x - log n), in place, so that fewer
            # chunk-sized temporaries live at once
            log_xn = np.log(ns.astype(np.float64))
            np.subtract(log_x, log_xn, out=log_xn)
            terms = store.mobius_range(lo, hi).astype(np.float64)
            terms *= xf // ns
            terms *= log_xn
            acc.add(float(np.sum(terms)))
        values[i] = acc.value
        residuals[i] = acc.value - (log_x + psi_x)
    return values, residuals


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


def profile_points(kind: str, xs) -> tuple[str, np.ndarray] | None:
    """(profile kind, the points y it is read at) of the remainder kind
    ``kind`` on the grid ``xs``: y = x for f_self_bound, y = exp(sqrt(x))
    for the mean-gap kinds; None for the kinds that read no profile."""
    xs = np.asarray(xs, dtype=np.float64)
    if kind == "f_self_bound":
        return "smoothed", xs
    if kind in ("h_mean_gap", "mertens_h_mean_gap"):
        return ("smoothed" if kind == "h_mean_gap" else "mertens"), np.exp(np.sqrt(xs))
    return None


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
    caps = {"n_max": store.n_max}

    if kind in ("h_mean_gap", "mertens_h_mean_gap"):
        x_cap = math.log(store.n_max) ** 2
        if not xs.min() > 0:
            raise RangeError("mean-gap samples need x > 0")
        if xs.max() > x_cap:
            raise CapabilityError(
                f"x = {xs.max():g} needs exp(sqrt(x)) > n_max; max usable x is "
                f"{x_cap:.6g}", max_usable=x_cap)
        pk, ys = profile_points(kind, xs)
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
        raw = store.lambda2_sums(xs) - 2.0 * xs * log_xs
        normalized = raw / xs
        label = "x"
    elif kind == "lambda_theta_sum":
        raw = store.psi_many(xs) + store.theta_sums(xs) - 2.0 * xs
        normalized = raw * log_xs / xs
        label = "x/log x"
    elif kind == "f_dilated_sum":
        raw = check_f_sum_identity(store, xs)[0]
        normalized = np.where(log_xs > 0, raw / np.where(log_xs > 0, log_xs, 1.0), 0.0)
        label = "log x"
    elif kind == "log_square_sum":
        raw = log_square_sums(xs) - 2.0 * xs
        norm_div = np.where(log_xs > 0, log_xs ** 2, 1.0)
        normalized = raw / norm_div
        label = "(log x)^2"
    elif kind == "lambda_over_n":
        raw = store.lambda_over_n_sums(xs) - log_xs
        normalized = raw.copy()
        label = "1"
    else:  # f_self_bound
        # c(x) = (|F(x)| log^2 x - 2 int_1^x |F(x/t)| log(x/t) dt) / (x log x);
        # the t-integral is x int_1^x |F(u)| log(u)/u^2 du = x cum_abs / 2
        pk, ys = profile_points(kind, xs)
        res = hprofile.cumulative_at(store, ys, kind=pk)
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
    decade_sup = hprofile.profile_walk(store, ("mertens",))["mertens"].decade_sup
    sups = {}
    running = 0.0
    for k in sorted(decade_sup, reverse=True):
        running = max(running, decade_sup[k])
        sups[k] = running
    return {k: sups[k] for k in range(k_lo, k_hi + 1) if k in sups}
