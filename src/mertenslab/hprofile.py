"""Profiles of the normalized smoothed sum H and its zero-interval statistics.

Two arithmetic profiles share one parametrization, y = exp(sqrt(x)):

    smoothed:  H(x) = F(y)/y   with F(y) = sum_{n<=y} mu(n) log(y/n)
    mertens:   H(x) = M(y)/y

Substituting y = exp(sqrt(x)) gives dx = 2 log(u)/u du, so the signed
integral of H from 0 up to x = (log y)^2 is 2 times the integral over
[1, y] of F(u) log u / u^2 (or M(u) log u / u^2).  On a unit step
[n, n + 1) F is M(n) log u - A(n), with A(n) = sum_{k<=n} mu(k) log k, and
the two antiderivatives

    Q(u) = -(log u + 1)/u             (of log u / u^2)
    P(u) = -(log^2 u + 2 log u + 2)/u (of log^2 u / u^2)

sum by parts over the steps into one closed form at each y.  With
n = floor(y), T(n) = sum_{k<=n} mu(k) log k / k and U(n) = sum_{k<=n} mu(k)/k:

    smoothed:  I(y) = 2 [M(n) P(y) - A(n) Q(y) + T(n) + 2 U(n)]
    mertens:   I(y) = 2 [M(n) Q(y) + T(n) + U(n)]

(T and U tend to -1 and 0, the prime number theorem's equivalents, so the
signed integral of either profile tends to -2.)  H keeps one sign between
consecutive zeros, so the integral of |H| up to a zero or a point is that
up to the previous zero plus |I(here) - I(previous zero)|.  That
difference is taken from the T and U terms between the two, not from two
values of I near -2, whose rounding would swamp the small integrals
between zeros at large y.  The walk records that difference at each zero
(``zeros_abs``) and not the running total, so a zero interval's integral
is read, never taken back out of two totals.

The zeros come from sign tests.  F is linear in log u on each step, so a
smoothed zero is a sign change of F between a step's ends, refined by
bisection.  For the mertens profile H is a step function: M moves by at
most one per step, so every sign change passes through an exact-zero run;
the run's first and last steps, where M is 0 but not on both sides, are
recorded as zeros (left endpoints, in x-coordinates) and flagged as step
boundaries.

Each kind is walked once per store (:class:`Walk`, :func:`profile_walk`):
one pass over [1, n_max] in blocks of ``BLOCK`` stride windows, taking
M(n) and A(n) from the store's checkpoints and mu as the window replay
does, so its F(y) is the store's.  Per kind it sums the terms of T and U
block by block and carries their sum since the last zero, and I and the
integral of |H| at that zero in compensated sums.  It rides in the store's
build when the build is given it, and otherwise walks the built store
(:func:`stream_cumulative`), by the same per-block code.  It answers the
query points it is planned (kind -> points y) in the block that holds each
floor, so every answer is that of a single pass up to the point, and it
records the zeros, with the integral of |H| from the zero before each, and
for mertens the decade sups, over the whole range.  The kinds walked
together share each block's M, logs and mu(n)/n, and A is built only for
the smoothed kind.  Every reader (:func:`cumulative_at`,
:func:`h_derivative_many`, :func:`build_profile`) takes the answers through
:func:`profile_walk`, which walks once more only for points that no walk
was given, and then only up to the block that holds the largest;
:func:`build_profile` asks it once for all the points it reads.

A profile carries the sup of |H'| it was built with (``deriv_sup``, over a
grid four times as dense as its samples), so the interval statistics and
the constants read it without asking which kind of profile they hold.  The
grid, like the samples, depends only on n_max and the samples a decade
(:func:`profile_ys`), so a build planned with both answers every value a
profile reads.
"""

from __future__ import annotations

import math
import time
import weakref
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .accum import NeumaierSum
from .errors import CapabilityError, RangeError
from .summatory import BLOCK, PrefixSums

X_MIN_GUARD = 1e-6          # left cutoff: 1/(2 sqrt(x)) is singular at 0
ZERO_XTOL_REL = 1e-12       # x-domain relative tolerance for refined zeros
Y_GRID_START = 2.0
H_MARGIN = 0.1              # safety margin of h_param over m / 2


def _q_anti(u, log_u):
    return -(log_u + 1.0) / u


def _p_anti(u, log_u):
    return -(log_u * (log_u + 2.0) + 2.0) / u


@dataclass
class StreamResult:
    """Exact cumulative integrals and the profile's numerator at each query
    point."""

    cum_abs: np.ndarray
    cum_signed: np.ndarray
    f_at: np.ndarray            # F(y) (smoothed) or M(floor(y)) (mertens)


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


class _Block:
    """The unit steps [n, n + 1), n = k stride + 1 .. hi - 1, of the block
    that starts at window k, as both kinds read them, from its
    ``window_terms``: M, the step ends u and their logs, mu(n)/n (and a 0
    at the end), and A's running sums only for the smoothed kind.
    ``m_out`` holds M(lo - 1) and M(hi), the neighbours of its steps; past
    n_max, M counts as 1."""

    # the window_terms read without and with the smoothed kind
    TERMS = {False: ("m", "log"), True: ("m", "log", "a")}

    def __init__(self, store: PrefixSums, k: int, terms: dict):
        self.m_cum = terms["m"]
        self.lo = k * store.stride + 1
        self.hi = self.lo + len(self.m_cum)
        m_next = int(self.m_cum[-1]) + int(store.mu[self.hi - 1]) if self.hi <= store.n_max else 1
        self.m_out = (int(self.m_cum[0]) - int(store.mu[self.lo - 1]), m_next)
        # step i is [n, n + 1) with n = lo + i; u_all holds both ends
        self.u_all = terms["u"]
        self.log_all = terms["log"]
        if "a" in terms:        # the smoothed kind reads A
            self.a_cum = store._running(k, "a", terms["a"])
        self.mu_n = np.zeros(len(self.u_all))
        np.divide(store.mu[self.lo - 1:self.hi - 1], self.u_all[:-1], out=self.mu_n[:-1])


@dataclass
class ProfileWalk:
    """One walk of a profile kind over all of [1, n_max]: ``answers`` maps
    each point y it was given to the integrals of |H| and of H up to
    x = (log y)^2, M(floor(y)) and A(floor(y)) (0.0 for mertens); the
    zeros, the integral of |H| from the zero before each (from x = 0 for
    the first) and the decade sups (mertens: decade -> sup |M(n)|/n) are
    those of the whole range."""

    answers: dict = field(default_factory=dict)
    zeros_y: list = field(default_factory=list)
    zeros_abs: list = field(default_factory=list)
    decade_sup: dict = field(default_factory=dict)

    def at(self, ys: np.ndarray) -> np.ndarray:
        """The answers at the points ys as four rows: the integrals of |H|
        and of H, M and A."""
        return np.array([self.answers[y] for y in ys.tolist()]).reshape(-1, 4).T


class _Walker:
    """Carries one kind's stream across blocks from n = 1 and records its
    zeros, decade sups and the answers at its points in ``walk``.  I is
    2 S + G, with S = T + c U (c = 2 smoothed, 1 mertens), whose terms are
    mu(n) (log n + c) / n, and G = 2 (M P - A Q) or 2 M Q.  Of its last
    zero (y = 1 before the first) the walker carries S's terms summed after
    it up to the block (``s_after``), G there, and I and the integral of |H|
    up to it, so I less I at that zero sums only the terms between."""

    def __init__(self, kind: str, ys):
        self.smoothed = kind == "smoothed"
        self.c = 2.0 if self.smoothed else 1.0
        ys = np.unique(np.asarray(ys, dtype=np.float64))
        if not ys.min(initial=1.0) >= 1.0:
            raise RangeError("query points must satisfy y >= 1")
        self.ys = ys.tolist()[::-1]     # the points not yet answered, largest first
        self.s_after, self.g_zero = 0.0, 0.0
        self.i_zero, self.abs_zero = NeumaierSum(), NeumaierSum()
        self.walk = ProfileWalk()

    def step(self, block: _Block) -> None:
        """Walk the block: its zeros, sups and points, in the stream's
        order."""
        walk = self.walk
        lo, hi = block.lo, block.hi
        # M stays int64: every product with it casts it exactly to float64
        m_cum = block.m_cum
        if self.smoothed:
            # sign changes of the continuous smoothed sum (rare)
            a_cum, log_all = block.a_cum, block.log_all
            g_start = m_cum * log_all[:-1] - a_cum
            g_end = m_cum * log_all[1:] - a_cum
            zero_i = np.flatnonzero(g_start * g_end < 0.0)
            zero_y = [_refine_crossing(float(m_cum[i]), float(a_cum[i]), lo + i)
                      for i in zero_i.tolist()]
        else:
            # the first and last step of each maximal run of M == 0, the
            # steps where M is 0 and not on both sides; M moves by one per
            # step, so a block without a sign change of M holds none
            top, bottom = int(m_cum.max()), int(m_cum.min())
            zero_i = np.zeros(0, dtype=np.int64)
            if bottom <= 0 <= top:
                zero = np.concatenate(([block.m_out[0] == 0], m_cum == 0, [block.m_out[1] == 0]))
                zero_i = np.flatnonzero(zero[1:-1] & ~(zero[:-2] & zero[2:]))
            zero_y = (zero_i + lo).astype(np.float64).tolist()
            for dec in range(len(str(lo)) - 1, len(str(hi - 1))):
                a_edge = max(lo, 10 ** dec)
                cut = slice(a_edge - lo, min(hi - 1, 10 ** (dec + 1) - 1) - lo + 1)
                sup = walk.decade_sup.setdefault(dec, 0.0)
                # division rounds correctly, so no |M(n)|/n in the slice
                # exceeds the block's max |M| / a_edge: the slice is skipped
                # when that is no more than the sup
                if float(max(top, -bottom)) / a_edge > sup:
                    ratios = np.divide(np.abs(m_cum[cut]), block.u_all[cut])
                    walk.decade_sup[dec] = max(sup, float(ratios.max()))

        # the points whose floor lies in this block, in ascending order
        points = []
        while self.ys and self.ys[-1] < hi:
            points.append(self.ys.pop())
        # S's terms summed from the last zero before the block to its first
        # zero, between its zeros, and from its last zero to its end, the
        # sum carried on
        s_terms = block.mu_n * (block.log_all + self.c)
        n_z, s_before = len(zero_y), self.s_after
        s_seg = np.add.reduceat(s_terms, np.concatenate(([0], zero_i + 1)))
        s_seg[0] += s_before
        self.s_after = float(s_seg[-1])
        if not n_z and not points:
            return
        ys = np.array(zero_y + points)
        steps = np.concatenate((zero_i, np.floor(ys[n_z:]).astype(np.int64) - lo))
        m, log_y = m_cum[steps], np.log(ys)
        if self.smoothed:       # G = I - 2 S at the zeros and points
            g = 2.0 * (m * _p_anti(ys, log_y) - a_cum[steps] * _q_anti(ys, log_y))
        else:
            g = 2.0 * (m * _q_anti(ys, log_y))
        # G at the last zero before the block and at each zero in it, and I
        # and the integral of |H| from that zero to each: a zero adds
        # I - I(previous zero) and its size
        g_z = np.concatenate(([self.g_zero], g[:n_z]))
        d_z = 2.0 * s_seg[:n_z] + np.diff(g_z)
        abs_d = np.abs(d_z)
        sig_z, abs_z = np.cumsum([np.concatenate(([0.0], d_z)),
                                  np.concatenate(([0.0], abs_d))], axis=1)
        sig_before, abs_before = self.i_zero.value, self.abs_zero.value
        walk.zeros_y += zero_y
        walk.zeros_abs += abs_d.tolist()
        self.g_zero = float(g_z[-1])
        self.i_zero.add(float(sig_z[-1]))
        self.abs_zero.add(float(abs_z[-1]))
        if points:
            # I less I at each point's last zero, from prefix sums of the
            # block's S terms up to the last point
            p = slice(n_z, None)
            s = np.cumsum(s_terms[:int(steps.max()) + 1])[steps]
            j = np.searchsorted(zero_y, points, side="right")
            d_p = 2.0 * (s[p] - np.concatenate(([-s_before], s[:n_z]))[j]) + (g[p] - g_z[j])
            p_abs = abs_before + (abs_z[j] + np.abs(d_p))
            p_sig = sig_before + (sig_z[j] + d_p)
            a = a_cum[steps[p]] if self.smoothed else np.zeros(len(points))
            walk.answers.update(zip(points, zip(p_abs.tolist(), p_sig.tolist(),
                                                m[p].astype(np.float64).tolist(), a.tolist())))


_WALKS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class Walk:
    """The walks of ``plan``'s kinds from n = 1, each answering its points
    (kind -> points y) in the block that holds the point's floor; a point
    past n_max goes unanswered.  The store's build (``PrefixSums(n_max,
    walk=Walk(plan))``) or :func:`stream_cumulative` hands :meth:`step` the
    ``window_terms`` of ``terms`` of every block in order; each block's M,
    logs and mu(n)/n serve all the kinds (:class:`_Block`), A the smoothed
    kind alone.  ``seconds`` is the time the steps took."""

    def __init__(self, plan: dict):
        for kind in plan:
            if kind not in ("smoothed", "mertens"):
                raise RangeError(f"unknown profile kind {kind!r}")
        self.terms = _Block.TERMS["smoothed" in plan]
        self.walkers = {kind: _Walker(kind, ys) for kind, ys in plan.items()}
        self.seconds = 0.0

    def step(self, store: PrefixSums, k: int, terms: dict) -> None:
        t0 = time.perf_counter()
        block = _Block(store, k, terms)
        for walker in self.walkers.values():
            walker.step(block)
        self.seconds += time.perf_counter() - t0

    @property
    def answered(self) -> bool:
        """Whether every planned point has its answer."""
        return not any(walker.ys for walker in self.walkers.values())

    def finish(self, store: PrefixSums) -> dict[str, ProfileWalk]:
        """kind -> walk.  The store keeps one walk per kind for as long as
        it lives (:func:`profile_walk`); the answers of a later walk of a
        kept kind join the kept walk's."""
        walks = {kind: walker.walk for kind, walker in self.walkers.items()}
        kept = _WALKS.setdefault(store, {})
        for kind, walk in walks.items():
            kept.setdefault(kind, walk).answers.update(walk.answers)
        return walks


def stream_cumulative(store: PrefixSums, plan: dict) -> dict[str, ProfileWalk]:
    """Walk the built store for ``plan`` as a build that carries
    ``Walk(plan)`` does, and keep the walks; returns kind -> walk.  When
    the store keeps a walk of every kind of the plan, only the answers are
    new, and the walk stops after the block that holds the largest point's
    floor; otherwise it covers [1, n_max].  Use :func:`profile_walk`, which
    walks only for what no walk of the store has done."""
    walk = Walk(plan)
    points_only = all(kind in _WALKS.get(store, {}) for kind in plan)
    for k, terms in store._blocks(walk.terms):
        walk.step(store, k, terms)
        if points_only and walk.answered:
            break
    return walk.finish(store)


def profile_walk(store: PrefixSums, kinds: tuple[str, ...], ys=()) -> dict[str, ProfileWalk]:
    """The store's walks of ``kinds``, kind -> walk, each with an answer at
    every point of ``ys`` (y >= 1 with floor(y) <= n_max).  The kinds not
    yet walked, and those without an answer at some point, are walked
    together in one pass for the missing points (:func:`stream_cumulative`);
    every walk is kept for as long as the store lives."""
    kept = _WALKS.get(store, {})
    keys = np.asarray(ys, dtype=np.float64).tolist()
    todo = {kind: [y for y in keys if kind not in kept or y not in kept[kind].answers]
            for kind in kinds}
    todo = {kind: missing for kind, missing in todo.items() if missing or kind not in kept}
    if todo:
        stream_cumulative(store, todo)
    return {kind: _WALKS[store][kind] for kind in kinds}


def cumulative_at(store: PrefixSums, ys, kind: str = "smoothed") -> StreamResult:
    """Exact cumulative integrals of the profile at the query points ``ys``.

    ``ys`` must be >= 1 with floor(y) <= ``store.n_max``; results come back
    in the caller's order.  ``cum_abs[i]`` is the x-domain integral of |H|
    from 0 up to x = (log ys[i])^2, ``cum_signed`` likewise without the
    absolute value, and ``f_at`` the profile's numerator at ys[i].  These
    are the answers of the store's walk of ``kind`` (:func:`profile_walk`).
    Every value is the one a single pass up to max ys gives; off the stride
    grid ``f_at`` equals ``store.big_f_many(ys)`` bitwise.
    """
    ys = np.asarray(ys, dtype=np.float64)
    y_top = float(ys.max(initial=0.0))
    if y_top >= store.n_max + 1:
        raise CapabilityError(f"query point {y_top} beyond store cap {store.n_max}",
                              max_usable=store.n_max)
    cum_abs, cum_sig, m, a = profile_walk(store, (kind,), ys)[kind].at(ys)
    return StreamResult(cum_abs=cum_abs, cum_signed=cum_sig,
                        f_at=m * np.log(ys) - a if kind == "smoothed" else m)


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

    kind: str                   # smoothed | mertens
    x_samples: np.ndarray
    y_samples: np.ndarray
    h_values: np.ndarray
    cumulative_abs_integral: np.ndarray
    cumulative_signed_integral: np.ndarray
    zeros: np.ndarray           # x-domain positions
    zeros_abs: np.ndarray       # integral of |H| from the zero before (x = 0)
    zeros_are_step_boundaries: bool
    deriv_sup: float            # sup |H'| over a grid 4x as dense as the samples
    h_continuous: Callable = field(repr=False, default=None)
    decade_sups: dict = None
    intervals: list = None
    constants: ConstantEstimates = None

    @property
    def x_max(self) -> float:
        return float(self.x_samples[-1]) if len(self.x_samples) else 0.0

    def finite_zero_branch(self) -> bool:
        """True when fewer than two zeros exist in range (no interval data)."""
        return len(self.zeros) < 2


def profile_ys(n_max: int, samples_per_decade: int = 32) -> tuple[np.ndarray, np.ndarray]:
    """The points a profile over [1, n_max] reads: its samples, a geometric
    y-grid of ``samples_per_decade`` points a decade from y = 2 to
    y = n_max, and the grid four times as dense on which it takes the sup
    of |H'|; both empty when n_max lies below the grid start (2.0)."""
    if samples_per_decade < 10:
        raise RangeError("samples_per_decade must be >= 10")
    if n_max < Y_GRID_START:
        return np.zeros(0), np.zeros(0)
    n_pts = max(int(math.ceil(samples_per_decade * math.log10(n_max / Y_GRID_START))), 1) + 1
    ys = np.geomspace(Y_GRID_START, float(n_max), n_pts)
    ys[-1] = float(n_max)
    ys = np.unique(ys)
    return ys, np.minimum(np.geomspace(Y_GRID_START, n_max, 4 * len(ys)), n_max)


def build_profile(store: PrefixSums, kind: str = "smoothed",
                  samples_per_decade: int = 32) -> HProfile:
    """Sample H at the points :func:`profile_ys` over the store's whole
    range [1, n_max] and attach exact cumulative integrals, the walk's zeros
    with the integral of |H| between each and the one before, and
    ``deriv_sup``, the sup of |H'| on the denser grid.  Every value is an
    answer of the store's walk of ``kind``, read in one call of
    :func:`profile_walk`: a build planned with those points gives them all,
    and otherwise one more walk does.

    A profile of [1, y] is the profile of ``PrefixSums(y, stride)``.  A
    store with n_max below the grid start yields a profile without samples
    (``deriv_sup`` 0), which downstream consumers must treat as the
    finite-zeros branch rather than an error.
    """
    ys, yd = profile_ys(store.n_max, samples_per_decade)
    walk = profile_walk(store, (kind,), np.concatenate((ys, yd)))[kind]
    smoothed = kind == "smoothed"
    cum_abs, cum_signed, m, a = walk.at(ys)
    _, _, m_d, a_d = walk.at(yd)
    # H = F/y; |H'| as h_derivative_many forms it (smoothed), or that of
    # M/y with M held on its step (mertens)
    f = m * np.log(ys) - a if smoothed else m
    f_d = m_d * np.log(yd) - a_d if smoothed else m_d
    root_x = 2.0 * np.sqrt(np.maximum(np.log(yd) ** 2, X_MIN_GUARD))
    h_prime = (m_d - f_d) / (root_x * yd) if smoothed else f_d / yd / root_x

    zeros_y = np.array(walk.zeros_y, dtype=np.float64)
    return HProfile(
        kind=kind, x_samples=np.log(ys) ** 2, y_samples=ys,
        h_values=f / ys,
        cumulative_abs_integral=cum_abs,
        cumulative_signed_integral=cum_signed,
        zeros=np.log(zeros_y) ** 2,
        zeros_abs=np.array(walk.zeros_abs, dtype=np.float64),
        zeros_are_step_boundaries=not smoothed,
        deriv_sup=float(np.abs(h_prime).max(initial=0.0)),
        h_continuous=_make_h_eval(store, kind),
        decade_sups=dict(walk.decade_sup) or None)


def _make_h_eval(store: PrefixSums, kind: str) -> Callable:
    numerator = store.big_f if kind == "smoothed" else store.mertens

    def h_eval(x):
        y = math.exp(math.sqrt(max(x, 0.0)))
        return numerator(y) / y
    return h_eval


# ----------------------------------------------------------------------
# derivative, intervals, constants
# ----------------------------------------------------------------------

def h_derivative_many(store: PrefixSums, ys) -> np.ndarray:
    """Closed-form derivative of the smoothed profile at x = (log y)^2.

    dH/dx = (M(y) - F(y)) / (2 sqrt(x) y), from F'(y) = M(y)/y and the chain
    rule.  At integer y the step value of M gives the right-hand limit; x
    below the left cutoff is clamped to it.  Every y must lie in [1, n_max].
    M and A at floor(y) are the answers of the store's smoothed walk
    (:func:`profile_walk`).
    """
    try:
        ys = np.asarray(ys, dtype=np.float64)
    except OverflowError:
        raise CapabilityError(f"argument beyond table cap {store.n_max}",
                              max_usable=store.n_max) from None
    if not ys.min(initial=1.0) >= 1.0:
        raise RangeError(f"argument {ys.min()} below admissible minimum 1.0")
    if ys.max(initial=1.0) > store.n_max:
        raise CapabilityError(f"argument {ys.max()} beyond table cap {store.n_max}",
                              max_usable=store.n_max)
    xs = np.maximum(np.log(ys) ** 2, X_MIN_GUARD)
    _, _, m, a = profile_walk(store, ("smoothed",), ys)["smoothed"].at(ys)
    f = m * np.log(ys) - a
    return (m - f) / (2.0 * np.sqrt(xs) * ys)


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


def interval_stats(profile: HProfile) -> list[ZeroInterval]:
    """Per-interval exact integrals (each the integral of |H| the profile
    records at the interval's right zero), mean-value data and derivative
    bounds (m = the profile's ``deriv_sup``); ``damped_bound`` is left nan
    for :func:`estimate_constants`, which knows kappa.

    With fewer than two zeros the list is empty: that is the finite-zeros
    branch of the analysis, not an error.
    """
    if profile.finite_zero_branch():
        return []
    m_hat = profile.deriv_sup
    crossings = not profile.zeros_are_step_boundaries
    out = []
    za = profile.zeros.tolist()
    for a, b, integral in zip(za, za[1:], profile.zeros_abs[1:].tolist()):
        width = b - a
        h_xi = integral / width if width > 0 else 0.0
        xi = _locate_mean_point(profile, a, b, h_xi) if (crossings and h_xi > 0) \
            else float("nan")
        out.append(ZeroInterval(a=a, b=b, integral_abs=integral, xi=xi,
                                h_at_xi=h_xi, deriv_bound=0.5 * m_hat * width * width,
                                damped_bound=float("nan")))
    return out


def estimate_constants(profile: HProfile,
                       tail_fraction: float = 0.5) -> ConstantEstimates:
    """Measure every named constant on the profile's tail window.

    The window is x >= (1 - tail_fraction) * x_max.  h_param realizes the
    two feasibility constraints (interval width and positive damping) as a
    single max with the safety margin ``H_MARGIN``, and falls back to 1.0
    when both are degenerate (e.g. H identically zero).  The profile's
    intervals are built once and get their ``damped_bound`` when kappa is
    finite.
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

    m_hat = profile.deriv_sup
    cs = profile.cumulative_signed_integral
    signed_span = float(max(cs.max(), 0.0) - min(cs.min(), 0.0))

    intervals = interval_stats(profile)
    if intervals:
        min_width = min(iv.b - iv.a for iv in intervals)
        h1 = alpha_hat / min_width if min_width > 0 else 0.0
        iota_hat = min(iv.h_at_xi for iv in intervals)
    else:
        h1 = 0.0
        iota_hat = float("nan")
    h2 = 0.5 * m_hat * (1.0 + H_MARGIN)
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
    if math.isfinite(kappa):
        for iv in intervals:
            iv.damped_bound = alpha_hat * (iv.b - iv.a) * (1.0 - kappa * iv.h_at_xi)

    constants = ConstantEstimates(
        alpha_hat=alpha_hat, mean_abs_hat=mean_abs_hat,
        mean_abs_tail_hat=mean_abs_tail_hat, deriv_sup_hat=m_hat,
        signed_span_hat=signed_span, iota_hat=iota_hat, kappa=kappa,
        epsilon=epsilon, h_param=h_param, lambda_est=lambda_est,
        window_lo=w_lo, window_hi=x_max, n_window_samples=int(in_win.sum()))
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
