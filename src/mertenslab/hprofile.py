"""Profiles of the normalized smoothed sum H and its zero-interval statistics.

Two arithmetic profiles share one parametrization, y = exp(sqrt(x)):

    smoothed:  H(x) = F(y)/y   with F(y) = sum_{n<=y} mu(n) log(y/n)
    mertens:   H(x) = M(y)/y

Cumulative integrals over the x-domain are evaluated exactly.  Substituting
y = exp(sqrt(x)) gives dx = 2 log(u)/u du, and on each unit step [n, n+1)
the integrand's arithmetic part is M(n) log u - A(n) (or the constant M(n)),
so every step contributes a closed form built from

    Q(u) = -(log u + 1)/u             (antiderivative of log u / u^2)
    P(u) = -(log^2 u + 2 log u + 2)/u (antiderivative of log^2 u / u^2)

Absolute-value integrals split a step only where the linear-in-log factor
changes sign; that root is also a zero of the continuous F, which is how
zero crossings are located and then refined by bisection.

Each kind is walked once per store (:func:`profile_walk`): one pass over the
store's stride windows, taking M(n) and A(n) from its checkpoints and mu as
the window replay does, so its F(y) is the store's.  At every window seam
the walk checkpoints its state: the Neumaier carries of both integrals and,
for mertens, the open zero run and the decade sups so far.  It records the
crossings or zero runs, with the integral of |H| up to each, over the whole
range.  A query set (:func:`cumulative_at`) then replays only the windows
that hold its points, each from its seam and by the walk's own per-window
code, so every value equals that of a single pass up to the largest point.
The two kinds are separate walks: a caller that needs only the mertens
profile does not pay for the smoothed terms.

For the mertens profile H is a step function: M moves by at most one per
step, so every sign change passes through an exact-zero run; the run's
first and last step boundaries are recorded as zeros (left endpoints, in
x-coordinates) and flagged as step boundaries.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .accum import NeumaierSum
from .errors import CapabilityError, RangeError
from .summatory import PrefixSums

X_MIN_GUARD = 1e-6          # left cutoff: 1/(2 sqrt(x)) is singular at 0
ZERO_XTOL_REL = 1e-12       # x-domain relative tolerance for refined zeros
Y_GRID_START = 2.0


def _q_anti(u, log_u):
    return -(log_u + 1.0) / u


def _p_anti(u, log_u):
    return -(log_u * (log_u + 2.0) + 2.0) / u


def _piece_smoothed(m, a, u0, u1):
    """Signed integral of 2 (m log u - a) log u / u^2 over [u0, u1]."""
    l0, l1 = math.log(u0), math.log(u1)
    return 2.0 * (m * (_p_anti(u1, l1) - _p_anti(u0, l0))
                  - a * (_q_anti(u1, l1) - _q_anti(u0, l0)))


def _piece_mertens(m, u0, u1):
    """Signed integral of 2 m log u / u^2 over [u0, u1]."""
    return 2.0 * m * (_q_anti(u1, math.log(u1)) - _q_anti(u0, math.log(u0)))


@dataclass
class StreamResult:
    """Exact cumulative integrals and zero events up to each query point."""

    cum_abs: np.ndarray
    cum_signed: np.ndarray
    f_at: np.ndarray            # F(y) (smoothed) or M(floor(y)) (mertens)
    zeros_y: np.ndarray
    zeros_cum_abs: np.ndarray
    zero_flags: list
    decade_sup: dict            # mertens only: decade -> sup |M(n)|/n


def _refine_crossing(m, a, n, tol_rel=ZERO_XTOL_REL):
    """Bisect m log u - a on [n, n+1] down to an x-domain width tol."""
    lo, hi = float(n), float(n + 1)
    f_lo = m * math.log(lo) - a
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        x_mid = math.log(mid) ** 2
        du_tol = tol_rel * max(x_mid, X_MIN_GUARD) * mid / max(2.0 * math.log(mid), 0.2)
        if hi - lo <= max(du_tol, 4.0 * math.ulp(mid)):
            return mid
        f_mid = m * math.log(mid) - a
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) == (f_mid < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class _Window:
    """The unit steps [n, n + 1) of window k, n = k stride + 1 .. hi - 1.

    These are the stream's operations, in the stream's order.  The walk and
    the replay of a query window both build their steps here, from the same
    carried values, so their sums agree bit for bit.
    """

    def __init__(self, store: PrefixSums, k: int, hi: int, smoothed: bool,
                 start_abs: float, start_sig: float):
        lo = k * store.stride + 1
        self.lo, self.hi = lo, hi
        self.smoothed = smoothed
        self.start_abs, self.start_sig = start_abs, start_sig
        self._pre = None
        mu = store.mu[lo - 1:hi - 1]
        self.m_cum = np.cumsum(mu, dtype=np.int64)
        self.m_cum += store.cp_m[k]
        # step i is [n, n + 1) with n = lo + i; u_all holds both ends
        self.u_all = u_all = np.arange(lo, hi + 1, dtype=np.float64)
        log_all = np.log(u_all)
        log_n, log_n1 = log_all[:-1], log_all[1:]
        q_all = _q_anti(u_all, log_all)
        q_step = q_all[1:] - q_all[:-1]
        self.mf = mf = self.m_cum.astype(np.float64)

        if smoothed:
            self.a_cum = a_cum = mu * log_n
            np.cumsum(a_cum, out=a_cum)
            a_cum += store.cp_a[k]
            p_all = _p_anti(u_all, log_all)
            self.d_sig = 2.0 * (mf * (p_all[1:] - p_all[:-1]) - a_cum * q_step)
            g_start = mf * log_n - a_cum
            g_end = mf * log_n1 - a_cum
            cross = g_start * g_end < 0.0
        else:
            self.a_cum = None
            self.d_sig = 2.0 * mf * q_step
        self.d_abs = np.abs(self.d_sig)

        # crossings of the continuous smoothed sum (rare); fix the step's
        # absolute increment before prefix sums are taken
        self.cross_fix = {}
        if smoothed:
            for i in np.flatnonzero(cross):
                m_i = float(mf[i])
                a_i = float(a_cum[i])
                step_n = lo + int(i)
                u_star = _refine_crossing(m_i, a_i, step_n)
                left = abs(_piece_smoothed(m_i, a_i, step_n, u_star))
                right = abs(_piece_smoothed(m_i, a_i, u_star, step_n + 1))
                self.d_abs[i] = left + right
                self.cross_fix[i] = (u_star, left)

    def pre(self) -> tuple[np.ndarray, np.ndarray]:
        """Exclusive local prefix: the cumulative values just before each
        step, built on first use (the walk needs them only for events)."""
        if self._pre is None:
            size = self.hi - self.lo
            pre_abs = np.empty(size)
            pre_sig = np.empty(size)
            pre_abs[0] = self.start_abs
            pre_sig[0] = self.start_sig
            if size > 1:
                np.cumsum(self.d_abs[:-1], out=pre_abs[1:])
                pre_abs[1:] += self.start_abs
                np.cumsum(self.d_sig[:-1], out=pre_sig[1:])
                pre_sig[1:] += self.start_sig
            self._pre = pre_abs, pre_sig
        return self._pre

    def at(self, yq: float) -> tuple[float, float, float, float]:
        """(cum_abs, cum_signed, M, A) at a query point yq in this window."""
        pre_abs, pre_sig = self.pre()
        i = int(yq) - self.lo
        m_i = float(self.mf[i])
        a_i = float(self.a_cum[i]) if self.smoothed else 0.0
        step_n = self.lo + i
        if yq > step_n:
            if self.smoothed:
                part_sig = _piece_smoothed(m_i, a_i, step_n, yq)
                if i in self.cross_fix and self.cross_fix[i][0] < yq:
                    u_star, left_abs = self.cross_fix[i]
                    part_abs = left_abs + abs(_piece_smoothed(m_i, a_i, u_star, yq))
                else:
                    part_abs = abs(part_sig)
            else:
                part_sig = _piece_mertens(m_i, step_n, yq)
                part_abs = abs(part_sig)
        else:
            part_sig = part_abs = 0.0
        return (float(pre_abs[i]) + part_abs, float(pre_sig[i]) + part_sig,
                m_i, a_i)


@dataclass
class _Seam:
    """The walk's state where window k starts."""

    acc_abs: NeumaierSum        # the carry of the |H| integral
    acc_sig: NeumaierSum        # the carry of the signed integral
    run_open: bool              # an M == 0 run reaches the seam
    run_start_n: int
    last_zero_n: int
    n_zeros: int                # zeros emitted before window k
    decade_sup: dict            # mertens: decade sups over the n before the seam


@dataclass
class ProfileWalk:
    """One walk of a profile kind over all of [1, n_max].

    ``seams[k]`` is the walk's state where window k starts; the zeros, their
    flags and the decade sups are those of the whole range.
    """

    seams: list
    zeros_y: list
    zeros_cum_abs: list
    zero_flags: list
    decade_sup: dict


class _Walker:
    """Carries the stream across windows and records its zero events.

    A fresh walker starts at n = 1; given a finished ``walk``, it resumes
    from that walk's seam before window k.
    """

    def __init__(self, store: PrefixSums, kind: str,
                 walk: ProfileWalk | None = None, k: int = 0):
        self.store = store
        self.smoothed = kind == "smoothed"
        if walk is None:
            walk = ProfileWalk([_Seam(NeumaierSum(), NeumaierSum(), False, 0, 0, 0, {})],
                               [], [], [], {})
        seam = walk.seams[k]
        self.acc_abs = NeumaierSum(seam.acc_abs.total, seam.acc_abs.comp)
        self.acc_sig = NeumaierSum(seam.acc_sig.total, seam.acc_sig.comp)
        self.run_open = seam.run_open
        self.run_start_n = seam.run_start_n
        self.last_zero_n = seam.last_zero_n
        self.decade_sup = dict(seam.decade_sup)
        self.zeros_y = walk.zeros_y[:seam.n_zeros]
        self.zeros_cum = walk.zeros_cum_abs[:seam.n_zeros]
        self.zero_flags = walk.zero_flags[:seam.n_zeros]

    def seam(self) -> _Seam:
        return _Seam(NeumaierSum(self.acc_abs.total, self.acc_abs.comp),
                     NeumaierSum(self.acc_sig.total, self.acc_sig.comp),
                     self.run_open, self.run_start_n, self.last_zero_n,
                     len(self.zeros_y), dict(self.decade_sup))

    def _emit_step_zero(self, n_pos: int, cum_value: float) -> None:
        self.zeros_y.append(float(n_pos))
        self.zeros_cum.append(cum_value)
        self.zero_flags.append("step")

    def step(self, k: int, hi: int) -> _Window:
        """Walk window k up to n = hi - 1: its zeros, sups and sums."""
        win = _Window(self.store, k, hi, self.smoothed,
                      self.acc_abs.value, self.acc_sig.value)
        lo = win.lo
        if self.smoothed:
            if win.cross_fix:
                pre_abs = win.pre()[0]
                for i in sorted(win.cross_fix):
                    self.zeros_y.append(win.cross_fix[i][0])
                    self.zeros_cum.append(float(pre_abs[i]) + win.cross_fix[i][1])
                    self.zero_flags.append("crossing")
        else:
            # maximal runs of M == 0: zeros at the run's first and last step
            z = win.m_cum == 0
            if self.run_open and not z[0]:
                if self.last_zero_n > self.run_start_n:
                    self._emit_step_zero(self.last_zero_n, self.acc_abs.value)
                self.run_open = False
            if z.any():
                pre_abs = win.pre()[0]
                idx = np.flatnonzero(z)
                gaps = np.flatnonzero(np.diff(idx) > 1)
                starts = idx[np.concatenate(([0], gaps + 1))]
                ends = idx[np.concatenate((gaps, [len(idx) - 1]))]
                for s_i, e_i in zip(starts, ends):
                    n_s, n_e = lo + int(s_i), lo + int(e_i)
                    continued = self.run_open and s_i == 0
                    if not continued:
                        self._emit_step_zero(n_s, float(pre_abs[s_i]))
                        self.run_start_n = n_s
                    if e_i == len(z) - 1:
                        self.run_open = True
                        self.last_zero_n = n_e
                    else:
                        self.run_open = False
                        if n_e > self.run_start_n:
                            self._emit_step_zero(n_e, float(pre_abs[e_i]))
            ratios = np.abs(win.mf) / win.u_all[:-1]
            for dec in range(len(str(lo)) - 1, len(str(hi - 1))):
                a_edge = max(lo, 10 ** dec)
                b_edge = min(hi - 1, 10 ** (dec + 1) - 1)
                sup = float(ratios[a_edge - lo:b_edge - lo + 1].max())
                self.decade_sup[dec] = max(self.decade_sup.get(dec, 0.0), sup)

        self.acc_abs.add(float(np.sum(win.d_abs)))
        self.acc_sig.add(float(np.sum(win.d_sig)))
        return win

    def finish(self) -> None:
        """Close a zero run that reaches the end of the walk."""
        if self.run_open and self.last_zero_n > self.run_start_n:
            self._emit_step_zero(self.last_zero_n, self.acc_abs.value)


def stream_cumulative(store: PrefixSums, kind: str = "smoothed") -> ProfileWalk:
    """Walk the store's stride windows once over [1, n_max] for one kind.

    Window k holds the n in (k stride, (k+1) stride]; M and A start from the
    checkpoints ``store.cp_m[k]`` and ``store.cp_a[k]`` and take the same
    cumulative sums as the window replay.  The walk records its state at
    every seam, the crossings (smoothed) or zero-run boundaries (mertens)
    with the integral of |H| up to each, and, for mertens, the per-decade
    sups of |M(n)|/n.  Use :func:`profile_walk`, which walks once per store.
    """
    if kind not in ("smoothed", "mertens"):
        raise RangeError(f"unknown profile kind {kind!r}")
    walker = _Walker(store, kind)
    seams = []
    for k in range((store.n_max - 1) // store.stride + 1):
        seams.append(walker.seam())
        walker.step(k, min((k + 1) * store.stride, store.n_max) + 1)
    walker.finish()
    return ProfileWalk(seams=seams, zeros_y=walker.zeros_y,
                       zeros_cum_abs=walker.zeros_cum,
                       zero_flags=walker.zero_flags,
                       decade_sup=walker.decade_sup)


_WALKS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def profile_walk(store: PrefixSums, kind: str = "smoothed") -> ProfileWalk:
    """The store's walk of ``kind``, walked on first use and then kept for
    as long as the store lives."""
    walks = _WALKS.setdefault(store, {})
    if kind not in walks:
        walks[kind] = stream_cumulative(store, kind)
    return walks[kind]


def cumulative_at(store: PrefixSums, ys, kind: str = "smoothed") -> StreamResult:
    """Exact cumulative integrals of the profile at the query points ``ys``.

    ``ys`` must be >= 1 with floor(y) <= ``store.n_max``; results come back
    in the caller's order.  ``cum_abs[i]`` is the x-domain integral of |H|
    from 0 up to x = (log ys[i])^2, and ``cum_signed`` likewise without the
    absolute value.  The zeros, flags and decade sups are those of
    [1, floor(max ys)].  Each window holding a query is replayed from the
    walk's seam up to its largest floor(y), and the top window with the
    walk's zero events, so every value is the one a single pass up to
    max ys gives; off the stride grid ``f_at`` equals
    ``store.big_f_many(ys)`` bitwise.
    """
    if kind not in ("smoothed", "mertens"):
        raise RangeError(f"unknown profile kind {kind!r}")
    ys = np.asarray(ys, dtype=np.float64)
    if not ys.min(initial=1.0) >= 1.0:
        raise RangeError("query points must satisfy y >= 1")
    y_top = float(ys.max(initial=0.0))
    if y_top >= store.n_max + 1:
        raise CapabilityError(f"query point {y_top} beyond store cap {store.n_max}",
                              max_usable=store.n_max)
    cum_abs_q, cum_sig_q, m_q, a_q = np.zeros((4, len(ys)))
    top = _Walker(store, kind)          # no query points: no zeros, no sups
    if len(ys):
        walk = profile_walk(store, kind)
        order = np.argsort(ys, kind="stable")
        ys_sorted = ys[order]
        ns = np.floor(ys_sorted).astype(np.int64)
        ks = (ns - 1) // store.stride
        k_top = int(ks[-1])
        top = _Walker(store, kind, walk, k_top)
        for grp in np.split(np.arange(len(ys)), np.flatnonzero(np.diff(ks)) + 1):
            k = int(ks[grp[0]])
            if k == k_top:
                win = top.step(k, int(ns[-1]) + 1)
            else:
                seam = walk.seams[k]
                win = _Window(store, k, int(ns[grp[-1]]) + 1, kind == "smoothed",
                              seam.acc_abs.value, seam.acc_sig.value)
            for j in grp:
                q = order[j]
                cum_abs_q[q], cum_sig_q[q], m_q[q], a_q[q] = win.at(float(ys_sorted[j]))
    top.finish()

    return StreamResult(
        cum_abs=cum_abs_q, cum_signed=cum_sig_q,
        f_at=m_q * np.log(ys) - a_q if kind == "smoothed" else m_q,
        zeros_y=np.array(top.zeros_y, dtype=np.float64),
        zeros_cum_abs=np.array(top.zeros_cum, dtype=np.float64),
        zero_flags=top.zero_flags, decade_sup=top.decade_sup)


# ----------------------------------------------------------------------
# profile objects
# ----------------------------------------------------------------------

@dataclass
class ZeroInterval:
    """Statistics of one interval [a, b] between successive zeros of H.

    ``h_at_xi`` is the mean value integral_abs / (b - a) by construction;
    ``xi`` locates a point where |H| attains it (nan for step profiles).
    ``deriv_bound`` is the endpoint-derivative bound m (b-a)^2 / 2 and
    ``damped_bound`` is alpha (b-a) (1 - kappa |H(xi)|) when the profile
    constants are available (nan otherwise).
    """

    a: float
    b: float
    integral_abs: float
    xi: float
    h_at_xi: float
    deriv_bound: float
    damped_bound: float


@dataclass
class ConstantEstimates:
    """Finite-range estimates of the proof constants (labels say so).

    All values are measured on the computed range; the sup-style quantities
    are estimates of limsups and cannot be certified from finite data.
    """

    alpha_hat: float            # sup |H| over the tail window
    mean_abs_hat: float         # (1/x_max) * integral_0^{x_max} |H|
    mean_abs_tail_hat: float    # same average restricted to the tail window
    deriv_sup_hat: float        # sup |H'| over a dense grid
    signed_span_hat: float      # sup over pairs of |integral_{x1}^{x2} H|
    iota_hat: float             # min over intervals of |H(xi)|
    kappa: float                # (2h - m) alpha / (2 M h^2); nan when M = 0
    epsilon: float              # alpha / h
    h_param: float              # max of the two feasibility constraints
    lambda_est: float           # kappa * iota (nan when not applicable)
    window_lo: float
    window_hi: float
    n_window_samples: int


@dataclass
class HProfile:
    """Sampled profile of H with exact cumulative integrals and zeros."""

    kind: str                   # smoothed | mertens | synthetic
    y_max: float
    x_samples: np.ndarray
    y_samples: np.ndarray
    h_values: np.ndarray
    cumulative_abs_integral: np.ndarray
    cumulative_signed_integral: np.ndarray
    zeros: np.ndarray           # x-domain positions
    zero_flags: list
    cum_abs_at_zeros: np.ndarray
    zeros_are_step_boundaries: bool
    h_continuous: Callable = field(repr=False, default=None)
    h_derivative_fn: Callable = field(repr=False, default=None)
    store: PrefixSums = field(repr=False, default=None)
    decade_sups: dict = None
    intervals: list = None
    constants: ConstantEstimates = None

    @property
    def x_max(self) -> float:
        return float(self.x_samples[-1]) if len(self.x_samples) else 0.0

    def finite_zero_branch(self) -> bool:
        """True when fewer than two zeros exist in range (no interval data)."""
        return len(self.zeros) < 2


def build_profile(store: PrefixSums, kind: str = "smoothed",
                  y_max: int | None = None,
                  samples_per_decade: int = 32) -> HProfile:
    """Sample H on a geometric y-grid and attach exact cumulative integrals.

    ``y_max`` defaults to the store cap.  A ``y_max`` below the grid start
    (2.0) yields an empty profile, which downstream consumers must treat as
    the finite-zeros branch rather than an error.
    """
    if kind not in ("smoothed", "mertens"):
        raise RangeError(f"unknown profile kind {kind!r}")
    if samples_per_decade < 10:
        raise RangeError("samples_per_decade must be >= 10")
    if y_max is None:
        y_max = store.n_max
    if y_max > store.n_max:
        raise CapabilityError(f"y_max {y_max} beyond store cap {store.n_max}",
                              max_usable=store.n_max)

    if y_max < Y_GRID_START:
        empty = np.zeros(0)
        return HProfile(kind=kind, y_max=float(y_max), x_samples=empty,
                        y_samples=empty, h_values=empty,
                        cumulative_abs_integral=empty,
                        cumulative_signed_integral=empty,
                        zeros=empty, zero_flags=[], cum_abs_at_zeros=empty,
                        zeros_are_step_boundaries=(kind == "mertens"),
                        h_continuous=_make_h_eval(store, kind), store=store)

    n_pts = max(int(math.ceil(samples_per_decade * math.log10(y_max / Y_GRID_START))), 1) + 1
    ys = np.geomspace(Y_GRID_START, float(y_max), n_pts)
    ys[-1] = float(y_max)
    ys = np.unique(ys)

    res = cumulative_at(store, ys, kind=kind)
    xs = np.log(ys) ** 2
    h_vals = res.f_at / ys

    zeros_x = np.log(res.zeros_y) ** 2 if len(res.zeros_y) else np.zeros(0)
    return HProfile(
        kind=kind, y_max=float(y_max), x_samples=xs, y_samples=ys,
        h_values=h_vals,
        cumulative_abs_integral=res.cum_abs,
        cumulative_signed_integral=res.cum_signed,
        zeros=zeros_x, zero_flags=res.zero_flags,
        cum_abs_at_zeros=res.zeros_cum_abs,
        zeros_are_step_boundaries=(kind == "mertens"),
        h_continuous=_make_h_eval(store, kind),
        store=store,
        decade_sups=res.decade_sup or None)


def _make_h_eval(store: PrefixSums, kind: str) -> Callable:
    if kind == "smoothed":
        def h_eval(x):
            y = math.exp(math.sqrt(max(x, 0.0)))
            return store.big_f(y) / y
    else:
        def h_eval(x):
            y = math.exp(math.sqrt(max(x, 0.0)))
            return store.mertens(y) / y
    return h_eval


def build_synthetic_profile(h_func: Callable, x_grid,
                            dh_func: Callable | None = None) -> HProfile:
    """Wrap a continuous test function as a profile.

    Zeros are bracketed on the sample grid and refined with Brent's method;
    cumulative integrals come from adaptive quadrature on the sign-constant
    subintervals, so closed-form test cases reproduce to near machine
    precision.  This is the package's only use of scipy, so scipy is
    imported here and no command path loads it.
    """
    from scipy.integrate import quad
    from scipy.optimize import brentq

    xs = np.asarray(x_grid, dtype=np.float64)
    if len(xs) < 2 or np.any(np.diff(xs) <= 0):
        raise RangeError("x_grid must be strictly increasing with >= 2 points")
    h_vals = np.array([h_func(x) for x in xs])

    zeros = []
    for i in range(len(xs) - 1):
        f0, f1 = h_vals[i], h_vals[i + 1]
        if f0 == 0.0:
            zeros.append(float(xs[i]))
        elif f0 * f1 < 0.0:
            zeros.append(float(brentq(h_func, xs[i], xs[i + 1],
                                      xtol=1e-15, rtol=1e-15)))
    if len(h_vals) and h_vals[-1] == 0.0:
        zeros.append(float(xs[-1]))
    zeros = np.array(sorted(set(zeros)))

    # integrate |h| piecewise between breakpoints (grid + zeros)
    breaks = np.unique(np.concatenate((xs, zeros)))
    cum_abs_b = np.zeros(len(breaks))
    cum_sig_b = np.zeros(len(breaks))
    for i in range(1, len(breaks)):
        seg_sig, _ = quad(h_func, breaks[i - 1], breaks[i], limit=200)
        cum_sig_b[i] = cum_sig_b[i - 1] + seg_sig
        mid = 0.5 * (breaks[i - 1] + breaks[i])
        sign = 1.0 if h_func(mid) >= 0 else -1.0
        cum_abs_b[i] = cum_abs_b[i - 1] + sign * seg_sig

    pos = np.searchsorted(breaks, xs)
    zpos = np.searchsorted(breaks, zeros)
    return HProfile(
        kind="synthetic", y_max=float("nan"), x_samples=xs,
        y_samples=np.full(len(xs), float("nan")), h_values=h_vals,
        cumulative_abs_integral=cum_abs_b[pos],
        cumulative_signed_integral=cum_sig_b[pos],
        zeros=zeros, zero_flags=["crossing"] * len(zeros),
        cum_abs_at_zeros=cum_abs_b[zpos],
        zeros_are_step_boundaries=False,
        h_continuous=h_func, h_derivative_fn=dh_func)


# ----------------------------------------------------------------------
# derivative, intervals, constants
# ----------------------------------------------------------------------

def h_derivative(store: PrefixSums, y: float) -> float:
    """Closed-form derivative of the smoothed profile at x = (log y)^2.

    dH/dx = (M(y) - F(y)) / (2 sqrt(x) y), from F'(y) = M(y)/y and the chain
    rule.  At integer y the step value of M gives the right-hand limit; x
    below the left cutoff is clamped to it.
    """
    if y < 1.0:
        raise RangeError(f"derivative needs y >= 1, got {y}")
    x = max(math.log(y) ** 2, X_MIN_GUARD)
    return (store.mertens(y) - store.big_f(y)) / (2.0 * math.sqrt(x) * float(y))


def h_derivative_many(store: PrefixSums, ys) -> np.ndarray:
    ys = np.asarray(ys, dtype=np.float64)
    xs = np.maximum(np.log(ys) ** 2, X_MIN_GUARD)
    m, a = store._cum_many(("m", "a"), store._floor_many(ys))
    m = m.astype(np.float64)
    f = m * np.log(ys) - a
    return (m - f) / (2.0 * np.sqrt(xs) * ys)


def _derivative_sup(profile: HProfile, refine: int = 4) -> float:
    """sup |H'| over a dense grid covering the profile's x-range."""
    if len(profile.x_samples) == 0:
        return 0.0
    if profile.kind == "synthetic":
        xs = np.linspace(profile.x_samples[0], profile.x_samples[-1],
                         refine * len(profile.x_samples))
        if profile.h_derivative_fn is not None:
            vals = np.array([abs(profile.h_derivative_fn(x)) for x in xs])
        else:
            h = profile.h_continuous
            step = max((xs[-1] - xs[0]) * 1e-7, 1e-9)
            vals = np.array([abs(h(x + step) - h(x - step)) / (2 * step) for x in xs])
        return float(vals.max())
    ys = np.geomspace(profile.y_samples[0], profile.y_samples[-1],
                      refine * len(profile.y_samples))
    ys = np.minimum(np.maximum(ys, 1.0), profile.store.n_max)
    if profile.kind == "smoothed":
        return float(np.abs(h_derivative_many(profile.store, ys)).max())
    xs = np.maximum(np.log(ys) ** 2, X_MIN_GUARD)
    m = profile.store.mertens_many(ys).astype(np.float64)
    return float(np.abs(m / ys / (2.0 * np.sqrt(xs))).max())


def _locate_mean_point(profile: HProfile, a: float, b: float,
                       target: float) -> float:
    """First x in (a, b) where |H(x)| reaches the interval mean value."""
    h = profile.h_continuous
    if h is None:
        return float("nan")
    inside = profile.x_samples[(profile.x_samples > a) & (profile.x_samples < b)]
    candidates = np.concatenate((inside, np.linspace(a, b, 17)[1:-1]))
    candidates = np.sort(candidates)
    hi_x = None
    for c in candidates:
        if abs(h(float(c))) >= target:
            hi_x = float(c)
            break
    if hi_x is None:
        peak = max(candidates, key=lambda c: abs(h(float(c))), default=None)
        if peak is None or abs(h(float(peak))) < target:
            return float("nan")
        hi_x = float(peak)
    lo_x = a
    for _ in range(100):
        mid = 0.5 * (lo_x + hi_x)
        if hi_x - lo_x <= 1e-12 * max(abs(mid), 1.0):
            break
        if abs(h(mid)) >= target:
            hi_x = mid
        else:
            lo_x = mid
    return 0.5 * (lo_x + hi_x)


def interval_stats(profile: HProfile, m_hat: float | None = None,
                   alpha_hat: float | None = None,
                   kappa: float | None = None,
                   locate_xi: bool | None = None) -> list[ZeroInterval]:
    """Per-interval exact integrals, mean-value data, and both bounds.

    With fewer than two zeros the list is empty: that is the finite-zeros
    branch of the analysis, not an error.
    """
    if profile.finite_zero_branch():
        return []
    if m_hat is None:
        m_hat = _derivative_sup(profile)
    if locate_xi is None:
        locate_xi = not profile.zeros_are_step_boundaries
    out = []
    za = profile.zeros
    ca = profile.cum_abs_at_zeros
    for i in range(len(za) - 1):
        a, b = float(za[i]), float(za[i + 1])
        width = b - a
        integral = float(ca[i + 1] - ca[i])
        if integral < 0.0:   # exact-zero rounding
            integral = 0.0
        h_xi = integral / width if width > 0 else 0.0
        xi = _locate_mean_point(profile, a, b, h_xi) if (locate_xi and h_xi > 0) \
            else float("nan")
        deriv_bound = 0.5 * m_hat * width * width
        if alpha_hat is not None and kappa is not None and math.isfinite(kappa):
            damped = alpha_hat * width * (1.0 - kappa * h_xi)
        else:
            damped = float("nan")
        out.append(ZeroInterval(a=a, b=b, integral_abs=integral, xi=xi,
                                h_at_xi=h_xi, deriv_bound=deriv_bound,
                                damped_bound=damped))
    return out


def estimate_constants(profile: HProfile, tail_fraction: float = 0.5,
                       h_margin: float = 0.1) -> ConstantEstimates:
    """Measure every named constant on the profile's tail window.

    The window is x >= (1 - tail_fraction) * x_max.  h_param realizes the
    two feasibility constraints (interval width and positive damping) as a
    single max with a safety margin, and falls back to 1.0 when both are
    degenerate (e.g. H identically zero).
    """
    if len(profile.x_samples) == 0:
        raise RangeError("cannot estimate constants on an empty profile")
    if not 0.0 < tail_fraction < 1.0:
        raise RangeError("tail_fraction must lie in (0, 1)")
    x_max = profile.x_max
    w_lo = x_max * (1.0 - tail_fraction)
    in_win = profile.x_samples >= w_lo
    if not in_win.any():
        raise RangeError("tail window contains no samples")

    abs_h = np.abs(profile.h_values)
    alpha_hat = float(abs_h[in_win].max())
    total_abs = float(profile.cumulative_abs_integral[-1])
    mean_abs_hat = total_abs / x_max if x_max > 0 else 0.0
    idx_lo = int(np.searchsorted(profile.x_samples, w_lo))
    idx_lo = min(idx_lo, len(profile.x_samples) - 1)
    tail_mass = total_abs - float(profile.cumulative_abs_integral[idx_lo])
    tail_span = x_max - float(profile.x_samples[idx_lo])
    mean_abs_tail_hat = tail_mass / tail_span if tail_span > 0 else alpha_hat

    m_hat = _derivative_sup(profile)
    cs = profile.cumulative_signed_integral
    signed_span = float(max(cs.max(), 0.0) - min(cs.min(), 0.0))

    intervals = interval_stats(profile, m_hat=m_hat)
    if intervals:
        min_width = min(iv.b - iv.a for iv in intervals)
        h1 = alpha_hat / min_width if min_width > 0 else 0.0
        iota_hat = min(iv.h_at_xi for iv in intervals)
    else:
        h1 = 0.0
        iota_hat = float("nan")
    h2 = 0.5 * m_hat * (1.0 + h_margin)
    h_param = max(h1, h2)
    if h_param <= 0.0:
        h_param = 1.0

    if signed_span > 0.0:
        kappa = (2.0 * h_param - m_hat) * alpha_hat / (2.0 * signed_span * h_param ** 2)
    else:
        kappa = float("nan")
    epsilon = alpha_hat / h_param
    lambda_est = kappa * iota_hat if (math.isfinite(kappa) and math.isfinite(iota_hat)) \
        else float("nan")

    constants = ConstantEstimates(
        alpha_hat=alpha_hat, mean_abs_hat=mean_abs_hat,
        mean_abs_tail_hat=mean_abs_tail_hat, deriv_sup_hat=m_hat,
        signed_span_hat=signed_span, iota_hat=iota_hat, kappa=kappa,
        epsilon=epsilon, h_param=h_param, lambda_est=lambda_est,
        window_lo=w_lo, window_hi=x_max, n_window_samples=int(in_win.sum()))

    if intervals and math.isfinite(kappa):
        intervals = interval_stats(profile, m_hat=m_hat, alpha_hat=alpha_hat,
                                   kappa=kappa)
    profile.intervals = intervals
    profile.constants = constants
    return constants


# ----------------------------------------------------------------------
# the contraction iteration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class IterationResult:
    """Trajectory of the damping recurrence l_k = 1 + lam * l_{k-1}.

    ``bounds_recurrence`` divides a fixed alpha by l_k (limit alpha (1-lam));
    ``bounds_contracting`` shrinks alpha by 1/(1+lam) each round (limit 0).
    Both readings are reported.
    """

    lam: float
    alpha: float
    lambdas: np.ndarray
    limit: float
    bounds_recurrence: np.ndarray
    bounds_contracting: np.ndarray


def lambda_iteration(lam: float, n_steps: int, alpha: float = 1.0) -> IterationResult:
    """Run the recurrence l_0 = 1, l_k = 1 + lam * l_{k-1} for n_steps."""
    if not 0.0 < lam < 1.0:
        raise RangeError(f"lambda must lie in (0, 1), got {lam}")
    if n_steps < 1:
        raise RangeError("n_steps must be >= 1")
    ls = np.empty(n_steps + 1)
    ls[0] = 1.0
    for k in range(1, n_steps + 1):
        ls[k] = 1.0 + lam * ls[k - 1]
    limit = 1.0 / (1.0 - lam)
    shrink = alpha / (1.0 + lam) ** np.arange(n_steps + 1)
    return IterationResult(lam=lam, alpha=alpha, lambdas=ls, limit=limit,
                           bounds_recurrence=alpha / ls,
                           bounds_contracting=shrink)
