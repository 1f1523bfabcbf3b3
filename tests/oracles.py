"""Independent reference implementations used only by the tests.

These deliberately avoid the package's prime peeling: the
trial-division oracle factors each integer outright, and the dense counting
sieve derives mu from a squarefree mask (marking k^2 for every k, no primes
needed) plus a distinct-prime counter.  Agreement between these and the
segmented sieve is the cross-validation the test suite relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def factor_trial(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n by trial division."""
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            out.append((p, k))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def mobius_trial(n: int) -> int:
    if n == 1:
        return 1
    fac = factor_trial(n)
    if any(k > 1 for _, k in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def lambda_trial(n: int) -> float:
    if n == 1:
        return 0.0
    fac = factor_trial(n)
    if len(fac) == 1:
        return math.log(fac[0][0])
    return 0.0


def mobius_dense(n_max: int) -> np.ndarray:
    """mu(0..n_max) from a squarefree mask and a distinct-prime counter.

    No peeling of base primes: squarefree numbers are the
    complement of multiples of k^2 over all k >= 2, and for squarefree n the
    sign is (-1)^(number of primes dividing n).
    """
    sq = np.ones(n_max + 1, dtype=bool)
    for k in range(2, math.isqrt(n_max) + 1):
        sq[k * k::k * k] = False
    is_p = np.ones(n_max + 1, dtype=bool)
    is_p[:2] = False
    for i in range(2, math.isqrt(n_max) + 1):
        if is_p[i]:
            is_p[i * i::i] = False
    cnt = np.zeros(n_max + 1, dtype=np.int8)
    for p in np.flatnonzero(is_p):
        cnt[p::p] += 1
    mu = np.where(cnt % 2 == 0, 1, -1).astype(np.int8)
    mu[~sq] = 0
    mu[0] = 0
    if n_max >= 1:
        mu[1] = 1
    return mu


def mertens_dense(n_max: int) -> np.ndarray:
    """M(0..n_max) from the dense counting sieve."""
    return np.cumsum(mobius_dense(n_max), dtype=np.int64)


def _prime_powers_reference(small: np.ndarray, lo: int, hi: int):
    """Powers p^k (k >= 1) in [lo, hi) of the ascending primes ``small``
    (each < hi), ascending, with log p for each."""
    logs = np.log(small.astype(np.float64))
    found, found_log = [small[:0]], [logs[:0]]
    pw = small.copy()
    c = len(small)
    while c:
        a = int(np.searchsorted(pw[:c], lo, side="left"))
        found.append(pw[a:c])
        found_log.append(logs[a:c])
        c = int(np.count_nonzero(pw[:c] <= (hi - 1) // small[:c]))
        pw = pw[:c] * small[:c]
    pp = np.concatenate(found)
    order = np.argsort(pp, kind="stable")
    return pp[order], np.concatenate(found_log)[order]


def build_segment_reference(lo: int, hi: int, primes):
    """The block [lo, hi) by the three-op peel: for each base prime
    p <= isqrt(hi - 1), negate an int8 mu at the multiples of p, multiply p
    into an int64 product there and zero mu at the multiples of p^2; a
    product short of n gives one more flip.  No template, no int32 path.
    Takes ``sieve.build_segment``'s arguments and returns its segment type.
    """
    from mertenslab import sieve

    primes = np.asarray(primes, dtype=np.int64)
    size = hi - lo
    mu = np.ones(size, dtype=np.int8)
    prod = np.ones(size, dtype=np.int64)
    small = primes[:int(np.searchsorted(primes, math.isqrt(hi - 1), side="right"))]
    for p in small.tolist():
        flip = mu[-lo % p::p]
        np.negative(flip, out=flip)
        mult = prod[-lo % p::p]
        mult *= p
        mu[-lo % (p * p)::p * p] = 0
    n = np.arange(lo, hi, dtype=np.int64)
    sign = (prod == n).view(np.int8)
    sign *= 2
    sign -= 1
    mu *= sign
    big = n[prod == 1]
    if lo == 1:
        big = big[1:]
    big_lam = np.log(big.astype(np.float64))
    pw, pw_lam = _prime_powers_reference(small, lo, hi)
    at = np.searchsorted(big, pw)
    return sieve.SieveSegment(lo=lo, hi=hi, mu=mu, pp=np.insert(big, at, pw),
                              pp_lam=np.insert(big_lam, at, pw_lam))


def convolve_naive(f: np.ndarray, g: np.ndarray, n_max: int) -> np.ndarray:
    """O(n_max^2) divisor-loop Dirichlet convolution."""
    out = np.zeros(n_max + 1)
    for n in range(1, n_max + 1):
        s = 0.0
        for d in range(1, n + 1):
            if n % d == 0:
                s += f[d] * g[n // d]
        out[n] = s
    return out


def convolve_split_fresh(f: np.ndarray, g: np.ndarray, n_max: int) -> np.ndarray:
    """``dirichlet.convolve_prefix``'s split divisor loop with every Kahan
    step written as one expression over fresh arrays (the form the in-place
    ``accum.kahan_slice_add`` replaced, with the same operations in the same
    order)."""
    out = np.zeros(n_max + 1)
    comp = np.zeros(n_max + 1)

    def add(sl, addend):
        y = addend - comp[sl]
        t = out[sl] + y
        comp[sl] = (t - out[sl]) - y
        out[sl] = t

    b = math.isqrt(n_max)
    for d in range(1, b + 1):
        if f[d] != 0.0:
            add(slice(d, n_max + 1, d), f[d] * g[1:n_max // d + 1])
    for q in range(1, n_max // (b + 1) + 1):
        if g[q] != 0.0:
            top = n_max // q
            add(slice(q * (b + 1), q * top + 1, q), g[q] * f[b + 1:top + 1])
    return out - comp


def arith_columns(store, n_max: int) -> dict:
    """The Selberg-weight columns of ``dirichlet.build_arith_table`` and its
    worst form gap, each written as one expression over fresh arrays (the
    form the table's freed and reused buffers replaced)."""
    mu = np.zeros(n_max + 1)
    mu[1:] = store.mu[:n_max]
    lam = np.zeros(n_max + 1)
    i = int(np.searchsorted(store.pp, n_max, side="right"))
    lam[store.pp[:i]] = store.pp_lam[:i]
    log_n = np.zeros(n_max + 1)
    log_n[1:] = np.log(np.arange(1, n_max + 1, dtype=np.float64))
    lam_conv = convolve_split_fresh(lam, lam, n_max)
    theta = np.zeros(n_max + 1)
    theta[2:] = lam_conv[2:] / log_n[2:]
    lambda2 = lam_conv + lam * log_n
    gaps = np.abs(convolve_split_fresh(mu, log_n ** 2, n_max) - lambda2)
    return {"lam": lam, "log_n": log_n, "lambda2": lambda2,
            "lambda2_minus": lam_conv - lam * log_n, "theta": theta,
            "form_discrepancy": float(gaps.max()),
            "form_discrepancy_n": int(np.argmax(gaps))}


def big_f_naive(xs: float, mu: np.ndarray) -> float:
    """F(x) = sum_{n<=x} mu(n) log(x/n) summed term by term."""
    top = int(math.floor(xs))
    return float(sum(int(mu[n]) * math.log(xs / n) for n in range(1, top + 1)))


def tatuzawa_iseki_pairwise(store, x: float, f) -> float:
    """Tatuzawa-Iseki residual with F evaluated at every divisor pair (d, m).

    The pair-by-pair form: about x log x arguments of F, each pair's weight
    mu(d) (log x - log d) computed in place, all pairs summed in one flat
    block.  No convolution: it checks ``identities.tatuzawa_iseki_residual``,
    which groups the pairs by k = d m first.
    """
    from mertenslab.accum import NeumaierSum

    xf = int(math.floor(x))
    log_x = math.log(x)

    f_at_x = float(np.asarray(f(np.array([x])))[0])
    lhs = NeumaierSum(f_at_x * log_x)
    i = int(np.searchsorted(store.pp, xf, side="right"))
    if i:
        pp = store.pp[:i]
        lhs.add(float(np.sum(store.pp_lam[:i] * np.asarray(f(x / pp)))))

    mu = store.mobius_range(1, xf + 1)
    ds = np.arange(1, xf + 1, dtype=np.int64)
    counts = xf // ds
    starts = np.cumsum(counts) - counts
    flat_d = np.repeat(ds, counts)
    flat_m = np.arange(1, int(counts.sum()) + 1, dtype=np.int64) - np.repeat(starts, counts)
    weights = (mu[flat_d - 1].astype(np.float64)
               * (log_x - np.log(flat_d.astype(np.float64))))
    vals = np.asarray(f(x / (flat_d * flat_m)))
    return lhs.value - float(np.sum(weights * vals))


def psi_per_point(store, n: int) -> float:
    """psi(n) as one pairwise ``np.sum`` of the point's own prefix of the
    von Mangoldt values.  It checks ``PrefixSums.psi_many``, which takes one
    running sum for every point at once."""
    return float(np.sum(store.pp_lam[:store._pp_upto(n)]))


def lamlog_sum_per_point(store, n: int) -> float:
    """sum_{m<=n} Lambda(m) log m as one pairwise ``np.sum`` of the point's
    own prefix of the prime powers."""
    i = store._pp_upto(n)
    return float(np.sum(np.log(store.pp[:i].astype(np.float64)) * store.pp_lam[:i]))


def lambda_over_n_per_point(store, n: int) -> float:
    """sum_{m<=n} Lambda(m)/m as one pairwise ``np.sum`` of the point's own
    prefix of the prime powers."""
    i = store._pp_upto(n)
    return float(np.sum(np.divide(store.pp_lam[:i], store.pp[:i])))


def lambda2_sum_per_point(store, n: int) -> float:
    """sum_{m<=n} (Lambda*Lambda + Lambda log)(m), one point at a time.

    Lambda*Lambda by the symmetric hyperbola split: twice the rows
    a <= sqrt(n) of Lambda(a) psi(n/a), each psi its own pairwise sum, less
    the corner psi(sqrt n)^2.  It checks ``PrefixSums.lambda2_sums``, which
    reads every row's psi from one running sum.
    """
    conv = 0.0
    if n >= 4:
        i = store._pp_upto(math.isqrt(n))
        psi_at = np.array([psi_per_point(store, n // int(a)) for a in store.pp[:i]])
        conv = 2.0 * float(np.sum(store.pp_lam[:i] * psi_at)) \
            - psi_per_point(store, math.isqrt(n)) ** 2
    return conv + lamlog_sum_per_point(store, n)


def theta_sum_per_point(store, n: int) -> float:
    """sum_{ab<=n} Lambda(a) Lambda(b) / log(ab) over prime-power pairs, one
    point at a time.

    The per-point hyperbola route: each row a <= sqrt(n) sums its own
    Lambda(b) / (log a + log b), b <= n / a, pairwise, and the rows go into
    one compensated sum.  It checks ``PrefixSums.theta_sums``, which takes
    one running sum per row for every point at once.
    """
    from mertenslab.accum import NeumaierSum

    if n < 4:
        return 0.0
    i = store._pp_upto(math.isqrt(n))
    if i == 0:
        return 0.0
    # b runs up to n/2 at a = 2, the widest row
    log_pp = store._pp_log(0, store._pp_upto(n // 2))
    total = NeumaierSum()
    for j in range(i):
        la, lga = float(store.pp_lam[j]), float(log_pp[j])
        hi = store._pp_upto(n // int(store.pp[j]))
        total.add(2.0 * la * float(np.sum(
            store.pp_lam[:hi] / (lga + log_pp[:hi]))))
    lam_s, log_s = store.pp_lam[:i], log_pp[:i]
    corner = float(np.sum(
        (lam_s[:, None] * lam_s[None, :]) / (log_s[:, None] + log_s[None, :])))
    return total.value - corner


def log_square_sum(x) -> tuple[float, float]:
    """(sum_{n<=x} log(x/n)^2, that sum minus 2x), summed term by term.

    The direct route: ``np.log`` over all of [1, x] for each x, in chunks
    carried by a compensated sum.
    """
    from mertenslab.accum import NeumaierSum

    xv = float(x)
    top = int(math.floor(xv))
    log_x = math.log(xv)
    acc = NeumaierSum()
    chunk = 1 << 20
    for lo in range(1, top + 1, chunk):
        hi = min(lo + chunk, top + 1)
        t = log_x - np.log(np.arange(lo, hi, dtype=np.float64))
        acc.add(float(np.sum(t * t)))
    value = acc.value
    return value, value - 2.0 * xv


def window_replay(store, k: int) -> dict:
    """The running sums M, A and the integral over the whole of window k,
    replayed from checkpoint k (the form ``PrefixSums._window`` replaced:
    every kind, always to the window's end)."""
    terms = store.window_terms(k, ("m", "a", "fint"))
    m_cum, a_cum, f_cum = terms["m"], terms["a"], terms["fint"]
    np.cumsum(a_cum, out=a_cum)
    a_cum += store.cp_a[k]
    np.cumsum(f_cum, out=f_cum)
    f_cum += store.cp_fint[k]
    return {"m": m_cum, "a": a_cum, "fint": f_cum}


def _piece_smoothed(m, a, u0, u1):
    """Signed integral of 2 (m log u - a) log u / u^2 over [u0, u1]."""
    from mertenslab.hprofile import _p_anti, _q_anti

    l0, l1 = math.log(u0), math.log(u1)
    return 2.0 * (m * (_p_anti(u1, l1) - _p_anti(u0, l0))
                  - a * (_q_anti(u1, l1) - _q_anti(u0, l0)))


def _piece_mertens(m, u0, u1):
    """Signed integral of 2 m log u / u^2 over [u0, u1]."""
    from mertenslab.hprofile import _q_anti

    return 2.0 * m * (_q_anti(u1, math.log(u1)) - _q_anti(u0, math.log(u0)))


@dataclass
class SinglePass:
    """What one pass over [1, floor(max ys)] finds: the integrals and the
    profile's numerator at each query, and the zero events and decade sups
    of the whole pass."""

    cum_abs: np.ndarray
    cum_signed: np.ndarray
    f_at: np.ndarray
    zeros_y: np.ndarray
    zeros_cum_abs: np.ndarray
    decade_sup: dict


def stream_single_pass(store, ys, kind: str = "smoothed") -> SinglePass:
    """The profile stream as one pass over [1, floor(max ys)] per query set.

    The per-step reference for ``hprofile.Walk``: this pass walks every
    block of ``summatory.BLOCK`` stride windows up to the largest query and
    sums each unit step's closed-form integral, and its |H| split at a
    smoothed crossing, where the walk takes one closed form per point from
    the running sums T and U.  M, A, F, the zeros and the decade sups are
    the walk's bit for bit (A is summed window by window, each window from
    its own checkpoint); the integrals agree up to rounding.

    ``cum_abs[i]`` is the x-domain integral of |H| from 0 up to
    x = (log ys[i])^2; the zero events are those of [1, floor(max ys)], and
    a mertens pass also collects the per-decade sups of |M(n)|/n up to
    floor(max ys).
    """
    from mertenslab.accum import NeumaierSum
    from mertenslab.hprofile import _p_anti, _q_anti, _refine_crossing
    from mertenslab.summatory import BLOCK

    ys = np.asarray(ys, dtype=np.float64)
    y_top = float(ys.max(initial=0.0))
    n_top = int(y_top)
    order = np.argsort(ys, kind="stable")
    ys_sorted = ys[order]
    smoothed = kind == "smoothed"
    stride = store.stride
    span = BLOCK * stride

    cum_abs_q, cum_sig_q, m_q, a_q = np.zeros((4, len(ys)))
    zeros_y, zeros_cum = [], []
    decade_sup: dict = {}

    acc_abs = NeumaierSum()
    acc_sig = NeumaierSum()
    run_open = False            # an M == 0 run reaches the block seam
    run_start_n = 0
    last_zero_n = 0
    q_pos = 0

    def emit_step_zero(n_pos: int, cum_value: float) -> None:
        zeros_y.append(float(n_pos))
        zeros_cum.append(cum_value)

    for k in range(0, (n_top - 1) // stride + 1, BLOCK):
        lo = k * stride + 1
        hi = min(lo + span, n_top + 1)
        size = hi - lo
        mu = store.mu[lo - 1:hi - 1]
        m_cum = np.cumsum(mu, dtype=np.int64)
        m_cum += store.cp_m[k]
        # step i is [n, n + 1) with n = lo + i; u_all holds both ends
        u_all = np.arange(lo, hi + 1, dtype=np.float64)
        log_all = np.log(u_all)
        log_n, log_n1 = log_all[:-1], log_all[1:]
        q_all = _q_anti(u_all, log_all)
        q_step = q_all[1:] - q_all[:-1]
        mf = m_cum.astype(np.float64)

        if smoothed:
            a_cum = mu * log_n
            for j in range(0, size, stride):
                a_win = a_cum[j:j + stride]
                np.cumsum(a_win, out=a_win)
                a_win += store.cp_a[k + j // stride]
            p_all = _p_anti(u_all, log_all)
            d_sig = 2.0 * (mf * (p_all[1:] - p_all[:-1]) - a_cum * q_step)
            g_start = mf * log_n - a_cum
            g_end = mf * log_n1 - a_cum
            cross = g_start * g_end < 0.0
        else:
            a_cum = None
            d_sig = 2.0 * mf * q_step
            cross = None
        d_abs = np.abs(d_sig)

        # crossings of the continuous smoothed sum (rare); fix the step's
        # absolute increment before prefix sums are taken
        cross_fix = {}
        if smoothed:
            for i in np.flatnonzero(cross):
                m_i = float(mf[i])
                a_i = float(a_cum[i])
                step_n = lo + int(i)
                u_star = _refine_crossing(m_i, a_i, step_n)
                left = abs(_piece_smoothed(m_i, a_i, step_n, u_star))
                right = abs(_piece_smoothed(m_i, a_i, u_star, step_n + 1))
                d_abs[i] = left + right
                cross_fix[i] = (u_star, left)

        # exclusive local prefix: cumulative value just before each step
        pre_abs = np.empty(size)
        pre_sig = np.empty(size)
        pre_abs[0] = acc_abs.value
        pre_sig[0] = acc_sig.value
        if size > 1:
            np.cumsum(d_abs[:-1], out=pre_abs[1:])
            pre_abs[1:] += acc_abs.value
            np.cumsum(d_sig[:-1], out=pre_sig[1:])
            pre_sig[1:] += acc_sig.value

        if smoothed:
            for i in sorted(cross_fix):
                zeros_y.append(cross_fix[i][0])
                zeros_cum.append(float(pre_abs[i]) + cross_fix[i][1])
        else:
            # maximal runs of M == 0: zeros at the run's first and last step
            z = m_cum == 0
            if run_open and not z[0]:
                if last_zero_n > run_start_n:
                    emit_step_zero(last_zero_n, acc_abs.value)
                run_open = False
            if z.any():
                idx = np.flatnonzero(z)
                gaps = np.flatnonzero(np.diff(idx) > 1)
                starts = idx[np.concatenate(([0], gaps + 1))]
                ends = idx[np.concatenate((gaps, [len(idx) - 1]))]
                for s_i, e_i in zip(starts, ends):
                    n_s, n_e = lo + int(s_i), lo + int(e_i)
                    continued = run_open and s_i == 0
                    if not continued:
                        emit_step_zero(n_s, float(pre_abs[s_i]))
                        run_start_n = n_s
                    if e_i == size - 1:
                        run_open = True
                        last_zero_n = n_e
                    else:
                        run_open = False
                        if n_e > run_start_n:
                            emit_step_zero(n_e, float(pre_abs[e_i]))
            ratios = np.abs(mf) / u_all[:-1]
            for dec in range(len(str(lo)) - 1, len(str(hi - 1))):
                a_edge = max(lo, 10 ** dec)
                b_edge = min(hi - 1, 10 ** (dec + 1) - 1)
                sup = float(ratios[a_edge - lo:b_edge - lo + 1].max())
                decade_sup[dec] = max(decade_sup.get(dec, 0.0), sup)

        # answer query points landing in this block
        while q_pos < len(ys_sorted) and ys_sorted[q_pos] < hi:
            yq = float(ys_sorted[q_pos])
            i = int(yq) - lo
            m_i = float(mf[i])
            a_i = float(a_cum[i]) if smoothed else 0.0
            step_n = lo + i
            if yq > step_n:
                if smoothed:
                    part_sig = _piece_smoothed(m_i, a_i, step_n, yq)
                    if i in cross_fix and cross_fix[i][0] < yq:
                        u_star, left_abs = cross_fix[i]
                        part_abs = left_abs + abs(_piece_smoothed(m_i, a_i, u_star, yq))
                    else:
                        part_abs = abs(part_sig)
                else:
                    part_sig = _piece_mertens(m_i, step_n, yq)
                    part_abs = abs(part_sig)
            else:
                part_sig = part_abs = 0.0
            q_idx = order[q_pos]
            cum_abs_q[q_idx] = float(pre_abs[i]) + part_abs
            cum_sig_q[q_idx] = float(pre_sig[i]) + part_sig
            m_q[q_idx] = m_i
            a_q[q_idx] = a_i
            q_pos += 1

        acc_abs.add(float(np.sum(d_abs)))
        acc_sig.add(float(np.sum(d_sig)))

    if run_open and last_zero_n > run_start_n:
        emit_step_zero(last_zero_n, acc_abs.value)

    return SinglePass(
        cum_abs=cum_abs_q, cum_signed=cum_sig_q,
        f_at=m_q * np.log(ys) - a_q if smoothed else m_q,
        zeros_y=np.array(zeros_y, dtype=np.float64),
        zeros_cum_abs=np.array(zeros_cum, dtype=np.float64),
        decade_sup=decade_sup)


def pointwise_residuals(table, x: float):
    """The pointwise Selberg-weight statistics, each term written out as one
    expression over fresh arrays (the form ``dirichlet.pointwise_residuals``
    computes in two reused buffers, with the same operations in the same
    order)."""
    from mertenslab.dirichlet import PointwiseResidualStats

    top = int(math.floor(x))
    n = np.arange(1, top + 1)
    log_ratio = math.log(x) - table.log_n[1:top + 1]
    r13 = 2.0 * table.lam[1:top + 1] * log_ratio - np.abs(table.lambda2_minus[1:top + 1])
    r14 = 2.0 * table.log_n[1:top + 1] - table.lambda2[1:top + 1]
    r13_norm = np.abs(r13) / np.log(n + 1.0)
    return PointwiseResidualStats(
        x=float(x),
        r13_norm_max=float(r13_norm.max()),
        r13_norm_mean=float(r13_norm.mean()),
        r14_abs_max=float(np.abs(r14).max()),
        r13_avg=float(np.sum(r13) / x),
        r14_avg=float(np.sum(r14) / x),
    )


def build_synthetic_profile(h_func, x_grid, dh_func=None):
    """Wrap a continuous test function as an ``hprofile.HProfile``.

    Zeros are bracketed on the sample grid and refined with Brent's method;
    cumulative integrals come from adaptive quadrature on the sign-constant
    subintervals, and each zero's integral from the zero before is the
    difference of two of them, so closed-form test cases reproduce to near
    machine precision.  ``deriv_sup`` is the sup of |dh_func|, or of a central
    difference of h_func when dh_func is None, over a linspace grid four
    times as dense as x_grid.
    """
    from scipy.integrate import quad
    from scipy.optimize import brentq

    from mertenslab.hprofile import HProfile

    xs = np.asarray(x_grid, dtype=np.float64)
    assert len(xs) >= 2 and np.all(np.diff(xs) > 0), "x_grid must increase"
    h_vals = np.array([h_func(x) for x in xs])

    zeros = []
    for i in range(len(xs) - 1):
        f0, f1 = h_vals[i], h_vals[i + 1]
        if f0 == 0.0:
            zeros.append(float(xs[i]))
        elif f0 * f1 < 0.0:
            zeros.append(float(brentq(h_func, xs[i], xs[i + 1],
                                      xtol=1e-15, rtol=1e-15)))
    if h_vals[-1] == 0.0:
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

    dense = np.linspace(xs[0], xs[-1], 4 * len(xs))
    if dh_func is not None:
        deriv = [abs(dh_func(x)) for x in dense]
    else:
        step = max((dense[-1] - dense[0]) * 1e-7, 1e-9)
        deriv = [abs(h_func(x + step) - h_func(x - step)) / (2 * step) for x in dense]

    pos = np.searchsorted(breaks, xs)
    cum_zeros = cum_abs_b[np.searchsorted(breaks, zeros)]
    return HProfile(
        kind="synthetic", x_samples=xs,
        y_samples=np.full(len(xs), float("nan")), h_values=h_vals,
        cumulative_abs_integral=cum_abs_b[pos],
        cumulative_signed_integral=cum_sig_b[pos],
        zeros=zeros,
        zeros_abs=np.diff(cum_zeros, prepend=0.0),
        zeros_are_step_boundaries=False,
        deriv_sup=float(max(deriv)), h_continuous=h_func)
