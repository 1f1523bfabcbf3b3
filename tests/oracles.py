"""Independent reference implementations used only by the tests.

These deliberately avoid the package's prime peeling: the
trial-division oracle factors each integer outright, and the dense counting
sieve derives mu from a squarefree mask (marking k^2 for every k, no primes
needed) plus a distinct-prime counter.  Agreement between these and the
segmented sieve is the cross-validation the test suite relies on.
"""

from __future__ import annotations

import math

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


def big_f_naive(xs: float, mu: np.ndarray) -> float:
    """F(x) = sum_{n<=x} mu(n) log(x/n) summed term by term."""
    top = int(math.floor(xs))
    return float(sum(int(mu[n]) * math.log(xs / n) for n in range(1, top + 1)))


def tatuzawa_iseki_pairwise(store, x: float, f, flat_chunk: int = 1 << 21) -> float:
    """Tatuzawa-Iseki residual with F evaluated at every divisor pair (d, m).

    The pair-by-pair form: about x log x arguments of F, each pair's weight
    mu(d) (log x - log d) computed in place.  Its sums run in the same order
    as ``identities.tatuzawa_iseki_residual``, so the two agree bit for bit.
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
    rhs = NeumaierSum()
    d0 = 1
    while d0 <= xf:
        d1 = d0
        pairs = 0
        while d1 <= xf and pairs + xf // d1 <= flat_chunk:
            pairs += xf // d1
            d1 += 1
        if d1 == d0:
            d1 = d0 + 1
            pairs = xf // d0
        ds = np.arange(d0, d1, dtype=np.int64)
        counts = xf // ds
        starts = np.cumsum(counts) - counts
        flat_d = np.repeat(ds, counts)
        flat_m = np.arange(1, pairs + 1, dtype=np.int64) - np.repeat(starts, counts)
        weights = (mu[flat_d - 1].astype(np.float64)
                   * (log_x - np.log(flat_d.astype(np.float64))))
        vals = np.asarray(f(x / (flat_d * flat_m)))
        rhs.add(float(np.sum(weights * vals)))
        d0 = d1
    return lhs.value - rhs.value
