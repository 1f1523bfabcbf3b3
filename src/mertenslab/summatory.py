"""Checkpointed prefix sums of the sieved functions.

The store keeps three running sums checkpointed every ``stride`` integers
(the Mertens function M as exact int64, A(x) = sum mu(n) log n, and the
piecewise-exact integral I(x) = sum M(n) log((n+1)/n)), plus a sparse table
of prime powers carrying the von Mangoldt values, from which psi and its
relatives are answered directly.  The build pass is the only sieve pass: it
keeps mu as one int8 array (1 byte per integer) and the prime powers, and
the checkpoints are then derived from the stored mu one stride window at a
time.  Values between checkpoints are recovered by replaying one window of
that mu from the nearest checkpoint with the same per-window terms, so
arbitrary real-argument queries remain cheap; recently used windows are
kept in an LRU cache.  Batched lookups group their arguments by window and
read every running sum asked for (M, A, the integral) from one visit per
window.

Key evaluators built on top of the store:

    big_f(x)          F(x) = sum_{n<=x} mu(n) log(x/n) = M(|x|) log x - A(|x|)
    big_f_integral(x) the same F(x) as integral_1^x M(y)/y dy, evaluated in
                      closed form over the unit steps of M
    h_smoothed(y)     F(y)/y       (normalized smoothed Mertens function)
    h_mertens(y)      M(y)/y
"""

from __future__ import annotations

import math
import os
from collections import OrderedDict

import numpy as np

from . import sieve
from .accum import NeumaierSum, chunked_cumsum
from .errors import CapabilityError, RangeError

DEFAULT_STRIDE = 1 << 16
WINDOW_CACHE = 32               # replayed windows kept by the LRU
# Peak bytes of a store per integer: ru_maxrss around PrefixSums(1e7) rose
# 56.5 MiB and around PrefixSums(1e8) 430.9 MiB (numpy 2.4, x86-64), so the
# slope is (430.9 - 56.5) MiB / 9e7 = 4.36 bytes per integer, rounded up.
STORE_BYTES_PER_INT = 5


class PrefixSums:
    """Checkpointed running sums over [1, n_max] with exact window replay."""

    def __init__(self, n_max: int, stride: int = DEFAULT_STRIDE):
        if n_max < 1:
            raise RangeError(f"n_max must be >= 1, got {n_max}")
        if n_max > sieve.INT_LIMIT:
            raise RangeError(f"n_max {n_max} exceeds the 64-bit limit")
        if stride < 1:
            raise RangeError(f"stride must be >= 1, got {stride}")
        usable = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // STORE_BYTES_PER_INT
        if n_max > usable:
            raise CapabilityError(f"n_max {n_max} needs more than physical memory; "
                                  f"max usable n_max is {usable}", max_usable=usable)
        self.n_max = int(n_max)
        self.stride = int(stride)
        self.primes = sieve.base_primes(math.isqrt(self.n_max))
        self._windows: OrderedDict[int, dict] = OrderedDict()
        self.table_cap = 0
        self._s_lambda2 = None
        self._s_theta = None
        self._build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build(self) -> None:
        self.mu = np.empty(self.n_max, dtype=np.int8)
        pp, pp_lam = [], []
        for seg in sieve.iter_segments(self.n_max, primes=self.primes):
            self.mu[seg.lo - 1:seg.hi - 1] = seg.mu
            pp.append(seg.pp)
            pp_lam.append(seg.pp_lam)
        self.pp = np.concatenate(pp)
        self.pp_lam = np.concatenate(pp_lam)
        del pp, pp_lam
        self.pp_log = np.log(self.pp.astype(np.float64))
        self.pp_cum_lam = chunked_cumsum(self.pp_lam)
        self.pp_cum_lam_over = chunked_cumsum(self.pp_lam / self.pp)
        self.pp_cum_lamlog = chunked_cumsum(self.pp_lam * self.pp_log)

        # checkpoint k holds the running sums at n = k * stride; each stride
        # window's terms are summed once and carried in compensated sums
        n_cp = self.n_max // self.stride
        self.cp_m = np.zeros(n_cp + 1, dtype=np.int64)
        self.cp_a = np.zeros(n_cp + 1, dtype=np.float64)
        self.cp_fint = np.zeros(n_cp + 1, dtype=np.float64)
        acc_a = NeumaierSum()
        acc_f = NeumaierSum()
        for k in range(n_cp):
            m_cum, a_terms, f_terms = self._window_terms(k)
            acc_a.add(float(np.sum(a_terms)))
            acc_f.add(float(np.sum(f_terms)))
            self.cp_m[k + 1] = m_cum[-1]
            self.cp_a[k + 1] = acc_a.value
            self.cp_fint[k + 1] = acc_f.value
        self.mertens_at_n_max = int(self.cp_m[n_cp]) + int(
            np.sum(self.mu[n_cp * self.stride:], dtype=np.int64))

    def attach_table(self, table) -> None:
        """Adopt dense Selberg-weight prefix sums from an arithmetic table."""
        self.table_cap = table.n_max
        self._s_lambda2 = chunked_cumsum(table.lambda2[1:])
        self._s_theta = chunked_cumsum(table.theta[1:])

    # ------------------------------------------------------------------
    # window replay
    # ------------------------------------------------------------------

    def _window_terms(self, k: int):
        """Per-integer terms of window k, the n in (k stride, (k+1) stride]
        up to n_max: M(n), mu(n) log n and M(n) log((n+1)/n), as fresh
        arrays built in place (the replay is the scalar-query hot path)."""
        lo = k * self.stride + 1
        hi = min((k + 1) * self.stride, self.n_max) + 1
        mu = self.mu[lo - 1:hi - 1]
        n = np.arange(lo, hi, dtype=np.float64)
        m_cum = np.cumsum(mu, dtype=np.int64)
        m_cum += self.cp_m[k]
        f_terms = np.divide(1.0, n)
        np.log1p(f_terms, out=f_terms)
        f_terms *= m_cum
        a_terms = np.log(n, out=n)
        a_terms *= mu
        return m_cum, a_terms, f_terms

    def _window(self, k: int) -> dict:
        win = self._windows.get(k)
        if win is not None:
            self._windows.move_to_end(k)
            return win
        m_cum, a_cum, f_cum = self._window_terms(k)
        np.cumsum(a_cum, out=a_cum)
        a_cum += self.cp_a[k]
        np.cumsum(f_cum, out=f_cum)
        f_cum += self.cp_fint[k]
        win = {"m": m_cum, "a": a_cum, "fint": f_cum}
        self._windows[k] = win
        if len(self._windows) > WINDOW_CACHE:
            self._windows.popitem(last=False)
        return win

    def _floor_checked(self, x, lo: float = 1.0) -> int:
        xv = float(x)
        if not (lo <= xv):
            raise RangeError(f"argument {xv} below admissible minimum {lo}")
        if xv > self.n_max:
            raise CapabilityError(
                f"argument {xv} beyond table cap {self.n_max}", max_usable=self.n_max)
        return int(math.floor(xv))

    def _cum_lookup(self, kind: str, n: int):
        """Value of the running sum at integer n (0 for n = 0)."""
        if n == 0:
            return 0 if kind == "m" else 0.0
        k, r = divmod(n, self.stride)
        if r == 0:
            if kind == "m":
                return int(self.cp_m[k])
            return float(self.cp_a[k] if kind == "a" else self.cp_fint[k])
        win = self._window(k)
        return win[kind][r - 1]

    # ------------------------------------------------------------------
    # point queries
    # ------------------------------------------------------------------

    def mertens(self, x) -> int:
        """M(floor(x)) as an exact integer, 1 <= x <= n_max."""
        return int(self._cum_lookup("m", self._floor_checked(x)))

    def psi(self, x) -> float:
        """Chebyshev psi(x) = sum of von Mangoldt values up to x."""
        n = self._floor_checked(x)
        idx = int(np.searchsorted(self.pp, n, side="right"))
        return float(self.pp_cum_lam[idx - 1]) if idx else 0.0

    def big_f(self, x) -> float:
        """Smoothed Mertens sum F(x) = M(|x|) log x - A(|x|), x >= 1."""
        n = self._floor_checked(x)
        return self._cum_lookup("m", n) * math.log(x) - self._cum_lookup("a", n)

    def big_f_integral(self, x) -> float:
        """F(x) via the piecewise-exact integral of M(y)/y over [1, x]."""
        n = self._floor_checked(x)
        val = float(self._cum_lookup("fint", n - 1)) if n > 1 else 0.0
        frac = float(x) / n
        if frac > 1.0:
            val += self._cum_lookup("m", n) * math.log(frac)
        return val

    def h_smoothed(self, y) -> float:
        """F(y)/y, the smoothed sum normalized at y = exp(sqrt(x))."""
        return self.big_f(y) / float(y)

    def h_mertens(self, y) -> float:
        """M(y)/y, the raw Mertens ratio at y = exp(sqrt(x))."""
        return self.mertens(y) / float(y)

    # ------------------------------------------------------------------
    # batched queries: one visit per window answers every kind asked for
    # ------------------------------------------------------------------

    def _cum_many(self, kinds: tuple[str, ...], ns) -> list[np.ndarray]:
        """Running sums at integers ns, one array per kind in ``kinds``.

        Checkpoint entries are read from cp_m / cp_a / cp_fint; the others
        are grouped by window, and each window is visited once for all the
        kinds asked for, in ascending window order.
        """
        ns = np.asarray(ns, dtype=np.int64)
        if len(ns) and (ns.min() < 0 or ns.max() > self.n_max):
            bad = ns.min() if ns.min() < 0 else ns.max()
            raise CapabilityError(f"index {bad} outside [0, {self.n_max}]",
                                  max_usable=self.n_max)
        ks, rs = np.divmod(ns, self.stride)
        cps = {"m": self.cp_m, "a": self.cp_a, "fint": self.cp_fint}
        outs = [cps[kind][ks] for kind in kinds]
        off = np.flatnonzero(rs)
        order = off[np.argsort(ks[off], kind="stable")]
        groups = np.split(order, np.flatnonzero(np.diff(ks[order])) + 1) if len(order) else []
        for sel in groups:
            win = self._window(int(ks[sel[0]]))
            r = rs[sel] - 1
            for out, kind in zip(outs, kinds):
                out[sel] = win[kind][r]
        return outs

    def _floor_many(self, xs: np.ndarray) -> np.ndarray:
        """floor(xs) as int64; every x must lie in [1, n_max], as for mertens."""
        if len(xs):
            self._floor_checked(xs.min())
            self._floor_checked(xs.max())
        return np.floor(xs).astype(np.int64)

    def mertens_many(self, xs) -> np.ndarray:
        """Vectorized M(floor(x)) for an array of arguments in [1, n_max]."""
        ns = self._floor_many(np.asarray(xs, dtype=np.float64))
        return self._cum_many(("m",), ns)[0]

    def big_f_many(self, ys) -> np.ndarray:
        """Vectorized F(y) for an array of real arguments in [1, n_max]."""
        ys = np.asarray(ys, dtype=np.float64)
        m, a = self._cum_many(("m", "a"), self._floor_many(ys))
        return m.astype(np.float64) * np.log(ys) - a

    def psi_many(self, xs) -> np.ndarray:
        """Vectorized psi(x); every x must lie in [1, n_max], as for psi."""
        xs = np.asarray(xs, dtype=np.float64)
        ns = self._floor_many(xs)
        idx = np.searchsorted(self.pp, ns, side="right")
        out = np.zeros(len(ns))
        nz = idx > 0
        out[nz] = self.pp_cum_lam[idx[nz] - 1]
        return out

    def mobius_range(self, lo: int, hi: int) -> np.ndarray:
        """Dense mu values for n in [lo, hi), copied from the stored mu."""
        if lo < 1 or hi <= lo or hi - 1 > self.n_max:
            raise RangeError(f"invalid range [{lo}, {hi}) for mobius_range")
        return self.mu[lo - 1:hi - 1].copy()

    # ------------------------------------------------------------------
    # Selberg-weight prefix sums (dense below the attached table cap,
    # prime-power hyperbola enumeration above it)
    # ------------------------------------------------------------------

    def lambda2_sum(self, x) -> float:
        """Sum of the Selberg weight (Lambda*Lambda + Lambda log) up to x."""
        n = self._floor_checked(x)
        if self._s_lambda2 is not None and n <= self.table_cap:
            return float(self._s_lambda2[n - 1])
        return self._lambda_conv_sum(n) + self._lamlog_sum(n)

    def theta_sum(self, x) -> float:
        """Sum of (Lambda*Lambda)(n)/log n up to x."""
        n = self._floor_checked(x)
        if self._s_theta is not None and n <= self.table_cap:
            return float(self._s_theta[n - 1])
        return self._theta_sum_sparse(n)

    def _pp_upto(self, n: int) -> int:
        return int(np.searchsorted(self.pp, n, side="right"))

    def _lamlog_sum(self, n: int) -> float:
        i = self._pp_upto(n)
        return float(self.pp_cum_lamlog[i - 1]) if i else 0.0

    def _lambda_conv_sum(self, n: int) -> float:
        """sum_{ab<=n} Lambda(a) Lambda(b) by the symmetric hyperbola split."""
        if n < 4:
            return 0.0
        r = math.isqrt(n)
        i = self._pp_upto(r)
        if i == 0:
            return 0.0
        a = self.pp[:i]
        psi_at = self.psi_many(n // a)
        cross = 2.0 * float(np.sum(self.pp_lam[:i] * psi_at))
        corner = float(self.pp_cum_lam[i - 1]) ** 2
        return cross - corner

    def _theta_sum_sparse(self, n: int) -> float:
        """sum_{ab<=n} Lambda(a) Lambda(b) / log(ab) over prime-power pairs."""
        if n < 4:
            return 0.0
        r = math.isqrt(n)
        i = self._pp_upto(r)
        if i == 0:
            return 0.0
        total = NeumaierSum()
        for j in range(i):
            la, lga = float(self.pp_lam[j]), float(self.pp_log[j])
            hi = self._pp_upto(n // int(self.pp[j]))
            total.add(2.0 * la * float(np.sum(
                self.pp_lam[:hi] / (lga + self.pp_log[:hi]))))
        lam_s, log_s = self.pp_lam[:i], self.pp_log[:i]
        corner = float(np.sum(
            (lam_s[:, None] * lam_s[None, :]) / (log_s[:, None] + log_s[None, :])))
        return total.value - corner

    # ------------------------------------------------------------------
    # remainder-style sums
    # ------------------------------------------------------------------

    def lambda_over_n_sum(self, x) -> tuple[float, float]:
        """(sum_{n<=x} Lambda(n)/n, its gap to log x); 2 <= x <= n_max."""
        n = self._floor_checked(x, lo=2.0)
        i = self._pp_upto(n)
        val = float(self.pp_cum_lam_over[i - 1]) if i else 0.0
        return val, val - math.log(float(x))


def log_square_sums(xs) -> np.ndarray:
    """sum_{n<=x} log(x/n)^2 at every x of ``xs`` (each finite and >= 1).

    One ascending pass over the sorted points carries the non-negative
    shifted sums T1(N) = sum_{n<=N} log(N/n) and T2(N) = sum log^2(N/n).
    From N to N' > N, with d = log(N'/N): every old term gains d, so
    T1 += N d + sum_{N<n<=N'} log(N'/n) and T2 += 2 d T1 + N d^2 +
    sum_{N<n<=N'} log^2(N'/n).  At x with N = floor(x) and e = log(x/N) the
    sum is T2 + 2 e T1 + N e^2.  Every term is non-negative, so nothing
    cancels (the expansion in log x, sum log n and sum log^2 n does).
    """
    xs = np.asarray(xs, dtype=np.float64)
    if not np.all((xs >= 1.0) & (xs < math.inf)):
        raise RangeError("log_square_sums needs finite x >= 1")
    out = np.empty(len(xs))
    t1, t2 = NeumaierSum(), NeumaierSum()
    n_cur = 1
    chunk = 1 << 20
    for i in np.argsort(xs, kind="stable"):
        xv = float(xs[i])
        n_new = int(math.floor(xv))
        if n_new > n_cur:
            d = math.log1p((n_new - n_cur) / n_cur)
            t1_old = t1.value
            t1.add(n_cur * d)
            t2.add(2.0 * d * t1_old)
            t2.add(n_cur * d * d)
            for lo in range(n_cur + 1, n_new + 1, chunk):
                t = np.arange(lo, min(lo + chunk, n_new + 1), dtype=np.float64)
                np.divide(float(n_new), t, out=t)
                np.log(t, out=t)
                t1.add(float(np.sum(t)))
                np.square(t, out=t)
                t2.add(float(np.sum(t)))
            n_cur = n_new
        e = math.log(xv / n_cur)
        out[i] = t2.value + 2.0 * e * t1.value + n_cur * e * e
    return out
