"""Reference values of mu, M, F and psi, computed apart from the program.

Nothing here imports ``mertenslab``.  Two routes, neither of which peels
least prime factors:

* :class:`DenseReference`, a dense counting sieve.  A squarefree mask marks
  every multiple of p^2; the sign of mu flips once for every prime dividing
  n, with all primes up to n_max counted (no leftover-cofactor trick).
* :func:`mertens_recursive`, the elementary recursion behind Deleglise &
  Rivat, "Computing the summation of the Moebius function" (Experiment.
  Math. 5(4), 1996):  sum_{d <= x} M(x // d) = 1, with M read from a dense
  table up to L and recursed above it.
"""

from __future__ import annotations

import math

import numpy as np

_BLOCK = 1 << 16


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n (plain Eratosthenes over a boolean array)."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    is_p = np.ones(n + 1, dtype=bool)
    is_p[:2] = False
    is_p[4::2] = False
    for i in range(3, math.isqrt(n) + 1, 2):
        if is_p[i]:
            is_p[i * i::2 * i] = False
    return np.flatnonzero(is_p).astype(np.int64)


def mobius_dense(n_max: int, primes: np.ndarray | None = None) -> np.ndarray:
    """mu(n) for 0 <= n <= n_max as int8 (mu(0) = 0)."""
    if primes is None:
        primes = primes_upto(n_max)
    root = math.isqrt(n_max)
    small = primes[primes <= root]
    large = primes[primes > root]
    sign = np.ones(n_max + 1, dtype=np.int8)
    squarefree = np.ones(n_max + 1, dtype=bool)
    for p in small.tolist():
        view = sign[p::p]
        np.negative(view, out=view)
        squarefree[p * p::p * p] = False
    # a prime p > sqrt(n_max) has fewer than sqrt(n_max) multiples, so flip
    # them by multiplier j rather than by prime
    for j in range(1, n_max // (root + 1) + 1):
        ps = large[:int(np.searchsorted(large, n_max // j, side="right"))]
        idx = ps * j
        sign[idx] = -sign[idx]
    mu = np.where(squarefree, sign, 0).astype(np.int8)
    mu[0] = 0
    return mu


class DenseReference:
    """mu, M, F and psi on [1, n_max] from the dense counting sieve."""

    def __init__(self, n_max: int):
        self.n_max = int(n_max)
        self.primes = primes_upto(self.n_max)
        self.mu = mobius_dense(self.n_max, self.primes)
        self.m = np.cumsum(self.mu, dtype=np.int64)
        # A(n) = sum_{m <= n} mu(m) log m, kept as exact-ish block prefixes
        # (fsum over pairwise block sums) so that no long running sum drifts
        self._terms = np.zeros(self.n_max + 1)
        self._terms[1:] = self.mu[1:] * np.log(np.arange(1, self.n_max + 1, dtype=np.float64))
        sums = [float(np.sum(self._terms[lo:lo + _BLOCK]))
                for lo in range(0, self.n_max + 1, _BLOCK)]
        self._block_prefix = [0.0]
        for k in range(len(sums)):
            self._block_prefix.append(math.fsum(sums[:k + 1]))

    def mertens(self, x) -> int:
        return int(self.m[int(math.floor(x))])

    def mu_log_sum(self, n: int) -> float:
        """A(n) = sum_{m <= n} mu(m) log m."""
        k = n // _BLOCK
        return self._block_prefix[k] + float(np.sum(self._terms[k * _BLOCK:n + 1]))

    def big_f(self, x: float) -> float:
        """F(x) = M(x) log x - A(x)."""
        n = int(math.floor(x))
        return self.mertens(n) * math.log(x) - self.mu_log_sum(n)

    def big_f_termwise(self, x: float) -> float:
        """F(x) = sum_{n <= x} mu(n) log(x/n), summed term by term."""
        n = int(math.floor(x))
        logs = np.log(np.arange(1, n + 1, dtype=np.float64))
        return float(np.sum(self.mu[1:n + 1] * (math.log(x) - logs)))

    def psi(self, x: float) -> float:
        """Chebyshev psi(x) = sum over prime powers p^k <= x of log p."""
        n = int(math.floor(x))
        ps = self.primes[self.primes <= n]
        terms = np.log(ps.astype(np.float64)).tolist()
        for p in ps[ps <= math.isqrt(n)].tolist():
            q = p * p
            while q <= n:
                terms.append(math.log(p))
                q *= p
        return math.fsum(terms)


def mertens_recursive(x: int, m_small: np.ndarray) -> int:
    """M(x) from sum_{d <= x} M(x // d) = 1, with M(n) = m_small[n] for n < len.

    Each v above the table splits d in [2, v] by its quotient q = v // d:
    d <= v // (s + 1) gives q > s = isqrt(v) (summed directly, recursing
    where q is off the table), and every q in [1, s] is taken once with
    multiplicity v // q - v // (q + 1).  The two ranges are disjoint, so no
    d is counted twice.  Needs len(m_small) > isqrt(x).
    """
    top = len(m_small) - 1
    if math.isqrt(x) > top:
        raise ValueError(f"table up to {top} is too short for x = {x}")
    memo: dict[int, int] = {}

    def m_of(v: int) -> int:
        if v <= top:
            return int(m_small[v])
        got = memo.get(v)
        if got is not None:
            return got
        s = math.isqrt(v)
        d = np.arange(2, v // (s + 1) + 1, dtype=np.int64)
        q = v // d
        off_table = q > top
        total = 1 - int(m_small[q[~off_table]].sum())
        for big in q[off_table].tolist():
            total -= m_of(big)
        qs = np.arange(1, s + 1, dtype=np.int64)
        total -= int(np.sum(m_small[qs] * (v // qs - v // (qs + 1))))
        memo[v] = total
        return total

    return m_of(int(x))
