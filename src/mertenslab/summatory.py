"""Checkpointed prefix sums of the sieved functions.

The store keeps three running sums checkpointed every ``stride`` integers
(the Mertens function M as exact int64, A(x) = sum mu(n) log n, and the
piecewise-exact integral I(x) = sum M(n) log((n+1)/n)), plus two arrays
over the prime powers: ``pp`` and their von Mangoldt values ``pp_lam``.
Every prime-power sum (psi, sum Lambda log n, sum Lambda(n)/n, and the
Lambda*Lambda and theta forms of the Selberg weight) is one running sum,
taken in ascending chunks and sampled at every point asked for
(``_pp_running``); the two hyperbola forms share one loop over the rows
a <= sqrt(x).  The build pass is the only sieve pass: it keeps mu as one
int8 array (1 byte per integer) and the prime powers, then derives the
checkpoints from the stored mu in blocks of ``BLOCK`` stride windows, each
stride window summed on its own.  A profile walk (``hprofile.Walk``) can
ride in that loop: each block's terms, once its checkpoints are set, also
go to the walk, which answers its points: one pass serves both.  M(n) is a
checkpoint plus an exact int64 sum of mu, so a scalar M lookup replays
nothing.  A and the integral are recovered by replaying a window's prefix
from its checkpoint, only for the sums asked for and only up to the
largest offset asked for, and nothing replayed is kept.  Every running
sum, in a replay or in a walk's block, is summed left to right from its
stride window's own checkpoint (``_running``), so a prefix has the bits of
a full-window replay.  Batched lookups look up each run of equal adjacent
arguments once, group the runs by window and read every running sum asked
for from one visit per window.  A window's per-integer terms (M, log n,
mu(n) log n and M(n) log((n+1)/n)) are built in one place,
``window_terms``, for the build, the walks and the replays alike.

Key evaluators built on top of the store:

    big_f(x)          F(x) = sum_{n<=x} mu(n) log(x/n) = M(|x|) log x - A(|x|)
    big_f_integral(x) the same F(x) as integral_1^x M(y)/y dy, evaluated in
                      closed form over the unit steps of M

The normalized profiles of :mod:`hprofile` are ``big_f(y)/y`` and
``mertens(y)/y``.
"""

from __future__ import annotations

import math
import os

import numpy as np

from . import sieve
from .accum import NeumaierSum
from .errors import CapabilityError, RangeError

DEFAULT_STRIDE = 1 << 12       # checkpoint spacing: a replay's longest span
BLOCK = 16                      # stride windows per build or walk block
_PP_CHUNK = 1 << 16             # prime powers per step of a running sum
# Peak bytes of a store per integer: ru_maxrss around PrefixSums(1e7) rose
# 36.7 MiB, around PrefixSums(1e8) 247.0 MiB and around PrefixSums(1e9)
# 2141.3 MiB (numpy 2.4, x86-64), so the slopes are 2.45 and 2.21 bytes per
# integer; the larger, rounded up.
STORE_BYTES_PER_INT = 3


def max_usable(bytes_per_int: int) -> int:
    """How many integers fit in physical memory at bytes_per_int each."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // bytes_per_int


class PrefixSums:
    """Checkpointed running sums over [1, n_max] with exact window replay."""

    def __init__(self, n_max: int, stride: int = DEFAULT_STRIDE, walk=None):
        """``walk`` (an ``hprofile.Walk``), if given, rides in the build."""
        if n_max < 1:
            raise RangeError(f"n_max must be >= 1, got {n_max}")
        if n_max > sieve.INT_LIMIT:
            raise RangeError(f"n_max {n_max} exceeds the 64-bit limit")
        if stride < 1:
            raise RangeError(f"stride must be >= 1, got {stride}")
        usable = max_usable(STORE_BYTES_PER_INT)
        if n_max > usable:
            raise CapabilityError(f"n_max {n_max} needs more than physical memory; "
                                  f"max usable n_max is {usable}", max_usable=usable)
        self.n_max = int(n_max)
        self.stride = int(stride)
        self.primes = sieve.base_primes(math.isqrt(self.n_max))
        self._build(walk)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build(self, walk) -> None:
        self.mu = np.empty(self.n_max, dtype=np.int8)
        # pp and pp_lam are filled in place.  Their size bounds the primes by
        # pi(x) < 1.25506 x / ln x for x > 1 (Rosser and Schoenfeld) and adds
        # the p^k with k >= 2 of the base primes; pages never written cost
        # no memory.
        powers, _ = sieve.prime_powers(self.primes, 1, self.n_max + 1)
        x = max(self.n_max, 2)
        cap = int(1.25506 * x / math.log(x)) + 1 + len(powers) - len(self.primes)
        pp = np.empty(cap, dtype=np.int64)
        pp_lam = np.empty(cap, dtype=np.float64)
        end = 0
        for seg in sieve.iter_segments(self.n_max, primes=self.primes):
            self.mu[seg.lo - 1:seg.hi - 1] = seg.mu
            pp[end:end + len(seg.pp)] = seg.pp
            pp_lam[end:end + len(seg.pp)] = seg.pp_lam
            end += len(seg.pp)
        self.pp = pp[:end]
        self.pp_lam = pp_lam[:end]

        # checkpoint k holds the running sums at n = k * stride; the build
        # sums each full stride window of a block once and carries the sums
        # in compensated sums; a walk steps through every block, the tail
        # window's too, once the block's checkpoints are set
        n_cp = self.n_max // self.stride
        self.cp_m = np.zeros(n_cp + 1, dtype=np.int64)
        self.cp_a = np.zeros(n_cp + 1, dtype=np.float64)
        self.cp_fint = np.zeros(n_cp + 1, dtype=np.float64)
        acc_a = NeumaierSum()
        acc_f = NeumaierSum()
        for k, terms in self._blocks(("m", "a", "fint") + (walk.terms if walk else ())):
            w = min(BLOCK, n_cp - k)
            self.cp_m[k + 1:k + w + 1] = terms["m"][self.stride - 1::self.stride]
            sums_a = terms["a"][:w * self.stride].reshape(w, self.stride).sum(axis=1)
            sums_f = terms["fint"][:w * self.stride].reshape(w, self.stride).sum(axis=1)
            for j in range(w):
                acc_a.add(float(sums_a[j]))
                acc_f.add(float(sums_f[j]))
                self.cp_a[k + j + 1] = acc_a.value
                self.cp_fint[k + j + 1] = acc_f.value
            if walk is not None:
                walk.step(self, k, terms)
        self.mertens_at_n_max = int(terms["m"][-1])
        if walk is not None:
            walk.finish(self)

    # ------------------------------------------------------------------
    # window replay
    # ------------------------------------------------------------------

    def window_terms(self, k: int, kinds: tuple[str, ...], hi: int | None = None) -> dict:
        """Per-integer terms from window k on, one fresh array per kind asked
        for: "m" M(n) as int64 from checkpoint k, "log" log u at the step
        ends u = lo, ..., hi (with those ends as floats under "u"),
        "a" mu(n) log n and "fint" M(n) log((n+1)/n), over the n in [lo, hi)
        with lo = k stride + 1 and hi at most n_max + 1; by default hi is
        window k's end, min((k+1) stride, n_max) + 1.  The build and the
        profile walks ask for a block of up to BLOCK windows (``_blocks``),
        a replay for a prefix of one window.

        "fint" also builds "m", and "log" and "a" share one ``np.log``.  The
        build sums these terms into the checkpoints, and ``_window`` and the
        profile walks take their running sums with ``_running``, so every
        route has the same bits.
        """
        lo = k * self.stride + 1
        if hi is None:
            hi = min((k + 1) * self.stride, self.n_max) + 1
        mu = self.mu[lo - 1:hi - 1]
        out = {}
        if "m" in kinds or "fint" in kinds:
            out["m"] = m_cum = np.cumsum(mu, dtype=np.int64)
            m_cum += self.cp_m[k]
        if {"log", "a", "fint"} & set(kinds):
            u = np.arange(lo, hi + 1, dtype=np.float64)
        if "fint" in kinds:
            out["fint"] = f_terms = np.divide(1.0, u[:-1])
            np.log1p(f_terms, out=f_terms)
            f_terms *= m_cum
        if "log" in kinds:      # the walks keep the step ends and their logs
            out["u"] = u
            out["log"] = log_u = np.log(u)
            if "a" in kinds:
                out["a"] = mu * log_u[:-1]
        elif "a" in kinds:      # the build and the replays take the logs in place
            out["a"] = a_terms = np.log(u, out=u)[:-1]
            a_terms *= mu
        return out

    def _blocks(self, kinds: tuple[str, ...]):
        """(k, the ``window_terms`` of ``kinds``) for every block of BLOCK
        stride windows over [1, n_max], in ascending order: block k holds
        the n in (k stride, min((k + BLOCK) stride, n_max)]."""
        for k in range(0, (self.n_max - 1) // self.stride + 1, BLOCK):
            yield k, self.window_terms(k, kinds, min((k + BLOCK) * self.stride, self.n_max) + 1)

    def _running(self, k: int, kind: str, run: np.ndarray) -> np.ndarray:
        """Turn the "a" or "fint" terms ``run`` that start at window k into
        running sums, in place: each stride window is summed left to right
        from its own checkpoint."""
        cp = self.cp_a if kind == "a" else self.cp_fint
        for j in range(0, len(run), self.stride):
            win = run[j:j + self.stride]
            np.cumsum(win, out=win)
            win += cp[k + j // self.stride]
        return run

    def _window(self, k: int, kinds: tuple[str, ...], top: int) -> dict:
        """Running sums of window k at offsets 1..top, the n in (k stride,
        k stride + top], one array per kind in ``kinds``.

        A replay builds only the kinds asked for, from checkpoint k over the
        window's prefix, and keeps nothing: ``cumsum`` adds left to right,
        so every value has the bits of a full-window replay.
        """
        terms = self.window_terms(k, kinds, k * self.stride + 1 + top)
        return {kind: terms[kind] if kind == "m" else self._running(k, kind, terms[kind])
                for kind in kinds}

    def _floor_checked(self, x) -> int:
        # exact for integers: float() rounds them above 2^53 and overflows
        xv = int(x) if isinstance(x, (int, np.integer)) else float(x)
        if 1 <= xv <= self.n_max:
            return int(math.floor(xv))
        shown = xv if not isinstance(xv, int) or xv.bit_length() <= 64 else \
            f"of {xv.bit_length()} bits"    # str() refuses 4 300 digits
        if not (1 <= xv):
            raise RangeError(f"argument {shown} below admissible minimum 1.0")
        raise CapabilityError(
            f"argument {shown} beyond table cap {self.n_max}", max_usable=self.n_max)

    def _cum_lookup(self, kind: str, n: int):
        """Value of the running sum at integer n (0 for n = 0).  M is the
        checkpoint plus an exact int64 sum of mu over the window's prefix,
        so it replays nothing."""
        k, r = divmod(n, self.stride)
        if kind == "m":
            return self.cp_m[k] + np.sum(self.mu[k * self.stride:n], dtype=np.int64)
        if r == 0:
            return float(self.cp_a[k] if kind == "a" else self.cp_fint[k])
        return self._window(k, (kind,), r)[kind][r - 1]

    # ------------------------------------------------------------------
    # point queries
    # ------------------------------------------------------------------

    def mertens(self, x) -> int:
        """M(floor(x)) as an exact integer, 1 <= x <= n_max."""
        return int(self._cum_lookup("m", self._floor_checked(x)))

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

    # ------------------------------------------------------------------
    # batched queries: one visit per window answers every kind asked for
    # ------------------------------------------------------------------

    def _cum_many(self, kinds: tuple[str, ...], ns) -> list[np.ndarray]:
        """Running sums at integers ns, one array per kind in ``kinds``."""
        outs, counts = self._cum_runs(kinds, ns)
        return [np.repeat(out, counts) for out in outs]

    def _cum_runs(self, kinds: tuple[str, ...], ns) -> tuple[list[np.ndarray], np.ndarray]:
        """Running sums at the head of each run of equal adjacent integers
        in ns, one array per kind in ``kinds``, and the run lengths.

        The floors x // n of a dilated sum fall into about 2 sqrt(x) runs,
        so each is looked up once.  Checkpoint entries are read from cp_m /
        cp_a / cp_fint; the others are grouped by window, and each window is
        visited once for all the kinds asked for, in ascending window order.
        """
        ns = np.asarray(ns, dtype=np.int64)
        if len(ns) and (ns.min() < 0 or ns.max() > self.n_max):
            bad = ns.min() if ns.min() < 0 else ns.max()
            raise CapabilityError(f"index {bad} outside [0, {self.n_max}]",
                                  max_usable=self.n_max)
        starts = np.flatnonzero(ns[1:] != ns[:-1]) + 1
        heads = ns[np.concatenate(([0], starts))] if len(ns) else ns
        counts = np.diff(starts, prepend=0, append=len(ns)) if len(ns) else ns
        ks, rs = np.divmod(heads, self.stride)
        cps = {"m": self.cp_m, "a": self.cp_a, "fint": self.cp_fint}
        outs = [cps[kind][ks] for kind in kinds]
        off = np.flatnonzero(rs)
        order = off[np.argsort(ks[off], kind="stable")]
        groups = np.split(order, np.flatnonzero(np.diff(ks[order])) + 1) if len(order) else []
        for sel in groups:
            r = rs[sel] - 1
            win = self._window(int(ks[sel[0]]), kinds, int(r.max()) + 1)
            for out, kind in zip(outs, kinds):
                out[sel] = win[kind][r]
        return outs, counts

    def _floor_many(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """(xs as float64, floor(xs) as int64); every x must lie in
        [1, n_max], as for mertens.  An integer too large for a float is
        beyond the cap."""
        try:
            xs = np.asarray(xs, dtype=np.float64)
        except OverflowError:
            raise CapabilityError(f"argument beyond table cap {self.n_max}",
                                  max_usable=self.n_max) from None
        if len(xs):
            self._floor_checked(xs.min())
            self._floor_checked(xs.max())
        return xs, xs.astype(np.int64)      # every x >= 1: truncation is floor

    def mertens_many(self, xs) -> np.ndarray:
        """Vectorized M(floor(x)) for an array of arguments in [1, n_max]."""
        return self._cum_many(("m",), self._floor_many(xs)[1])[0]

    def big_f_many(self, ys) -> np.ndarray:
        """Vectorized F(y) for an array of real arguments in [1, n_max]."""
        ys, ns = self._floor_many(ys)
        (m, a), counts = self._cum_runs(("m", "a"), ns)
        del ns
        # M log y - A, with each run's M and A repeated as floats
        f = np.log(ys)
        f *= np.repeat(m.astype(np.float64), counts)
        f -= np.repeat(a, counts)
        return f

    def big_f_routes(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """F at every x of ``xs`` in [1, n_max] by both routes: (M log x - A,
        the integral of M(y)/y), as ``big_f`` and ``big_f_integral`` give
        them.  M and A at floor(x) and the integral at floor(x) - 1 come
        from one visit per window."""
        xs, ns = self._floor_many(xs)
        n = len(ns)
        m, a, fint = self._cum_many(("m", "a", "fint"), np.concatenate((ns, ns - 1)))
        m = m[:n].astype(np.float64)
        frac = xs / ns
        f_int = fint[n:] + np.where(frac > 1.0, m * np.log(np.maximum(frac, 1.0)), 0.0)
        return m * np.log(xs) - a[:n], f_int

    def mobius_range(self, lo: int, hi: int) -> np.ndarray:
        """Dense mu values for n in [lo, hi), copied from the stored mu."""
        if lo < 1 or hi <= lo or hi - 1 > self.n_max:
            raise RangeError(f"invalid range [{lo}, {hi}) for mobius_range")
        return self.mu[lo - 1:hi - 1].copy()

    # ------------------------------------------------------------------
    # prime-power sums.  Each is a running sum over pp, taken by
    # _pp_running in ascending chunks and sampled at every point asked for;
    # a scalar query is its batched form at one point.  log p^k is np.log
    # of pp, which at a prime has the bits of pp_lam.
    # ------------------------------------------------------------------

    def psi(self, x) -> float:
        """Chebyshev psi(x): ``psi_many`` at x alone."""
        return float(self.psi_many([self._floor_checked(x)])[0])

    def psi_many(self, xs) -> np.ndarray:
        """psi(x), the sum of Lambda(n) up to x, at every x of ``xs``; every
        x must lie in [1, n_max], as for psi."""
        return self._pp_running(self._lam, self._floor_many(xs)[1])

    def lambda2_sums(self, xs) -> np.ndarray:
        """Sum of the Selberg weight (Lambda*Lambda + Lambda log) up to every
        x of ``xs``.  Every hyperbola row of Lambda*Lambda sums psi, so one
        running sum serves every (row, point)."""
        def psi_rows(points):
            at = self._pp_running(self._lam, np.concatenate(points))
            return np.split(at, np.cumsum([len(p) for p in points])[:-1])

        ns = self._floor_many(xs)[1]
        return self._hyperbola(ns, psi_rows) + self._pp_running(self._lam_log, ns)

    def theta_sums(self, xs) -> np.ndarray:
        """Sum of (Lambda*Lambda)(n)/log n up to every x of ``xs``.  Row a
        takes its own running sum of Lambda(b) / (log a + log b), b up to
        max xs / a."""
        ns = self._floor_many(xs)[1]
        # b runs up to n/2 at a = 2, the widest row
        log_pp = self._pp_log(0, self._pp_upto(int(ns.max(initial=0)) // 2))

        def theta_rows(points):
            for j, p in enumerate(points):
                lga = float(log_pp[j])
                yield self._pp_running(
                    lambda c0, c1: self.pp_lam[c0:c1] / (lga + log_pp[c0:c1]), p)
        return self._hyperbola(ns, theta_rows)

    def lambda_over_n_sums(self, xs) -> np.ndarray:
        """sum_{n<=x} Lambda(n)/n at every x of ``xs``."""
        return self._pp_running(self._lam_over_n, self._floor_many(xs)[1])

    def _pp_upto(self, n: int) -> int:
        return int(np.searchsorted(self.pp, n, side="right"))

    def _pp_log(self, c0: int, c1: int) -> np.ndarray:
        """log p^k for the prime powers pp[c0:c1], as a fresh float64 array."""
        t = self.pp[c0:c1].astype(np.float64)
        return np.log(t, out=t)

    # the terms of the running sums over pp[c0:c1], each a fresh array
    def _lam(self, c0: int, c1: int) -> np.ndarray:
        return self.pp_lam[c0:c1].copy()

    def _lam_log(self, c0: int, c1: int) -> np.ndarray:
        t = self._pp_log(c0, c1)
        t *= self.pp_lam[c0:c1]
        return t

    def _lam_over_n(self, c0: int, c1: int) -> np.ndarray:
        return self.pp_lam[c0:c1] / self.pp[c0:c1]

    def _pp_running(self, terms, ns) -> np.ndarray:
        """The running sum of ``terms`` over the prime powers up to every
        integer n of ``ns``; terms(c0, c1) gives the terms of pp[c0:c1] as a
        fresh array.  The sum runs up to the largest count of prime powers
        asked for, in chunks of ``_PP_CHUNK``, and each chunk's first term
        takes the carry, so the chunks add left to right as one ``cumsum``
        would, whatever the chunk size and the other points."""
        counts = np.searchsorted(self.pp, ns, side="right")
        out = np.zeros(len(counts))
        order = np.argsort(counts)
        ascending = counts[order]
        carry = 0.0
        top = int(ascending[-1]) if len(counts) else 0
        for c0 in range(0, top, _PP_CHUNK):
            c1 = min(c0 + _PP_CHUNK, top)
            run = terms(c0, c1)
            run[0] += carry
            np.cumsum(run, out=run)
            carry = float(run[-1])
            lo, hi = np.searchsorted(ascending, (c0 + 1, c1 + 1))
            sel = order[lo:hi]
            out[sel] = run[counts[sel] - c0 - 1]
        return out

    def _hyperbola(self, ns: np.ndarray, row_sums) -> np.ndarray:
        """sum_{ab<=n} Lambda(a) Lambda(b) w(a, b) over prime-power pairs, at
        every integer n of ``ns``, by the symmetric hyperbola split.

        With R_a the running sum of Lambda(b) w(a, b) over the prime powers
        b, the sum at n is that over the rows a <= sqrt(n) of Lambda(a)
        (2 R_a(n/a) - R_a(sqrt n)): the rows counted twice, less the corner
        a, b <= sqrt(n) counted twice.  ``row_sums`` maps, for each row, the
        integers n/a and then the largest prime powers <= sqrt(n) at the
        points that have the row, to R_a at them, row by row.  Each point
        adds its rows in ascending a in its own compensated sum, so its value
        does not depend on the others.
        """
        total = np.zeros(len(ns))
        if not len(ns) or ns.max() < 4:
            return total
        rows = self._pp_upto(math.isqrt(int(ns.max())))
        n_rows = np.searchsorted(self.pp[:rows] * self.pp[:rows], ns, side="right")
        lives = [np.flatnonzero(n_rows > j) for j in range(rows)]
        points = [np.concatenate((ns[live] // self.pp[j], self.pp[n_rows[live] - 1]))
                  for j, live in enumerate(lives)]
        comp = np.zeros(len(ns))
        for j, (live, at) in enumerate(zip(lives, row_sums(points))):
            v = float(self.pp_lam[j]) * (2.0 * at[:len(live)] - at[len(live):])
            # NeumaierSum.add, one entry per point
            s = total[live]
            t = s + v
            comp[live] += np.where(np.abs(s) >= np.abs(v), (s - t) + v, (v - t) + s)
            total[live] = t
        return total + comp


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
