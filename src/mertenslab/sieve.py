"""Segmented Moebius and von Mangoldt sieve.

:func:`build_segment` sieves a half-open block ``[lo, hi)`` into one signed
product per integer: for each base prime p it multiplies the product by -p
at the multiples of p and sets it to 0 at the multiples of p^2.  The primes
2, 3, 5 and 7 are base primes of every block; their signs, product and
square zeros repeat with period 44 100 = (2*3*5*7)^2, so the block starts
as a copy of a one-period template and only the primes from 11 to
isqrt(hi - 1) are peeled.  Then mu(n) = sign(product), negated where
|product| != n: n then has exactly one prime factor above isqrt(hi - 1).
The product is int32 while hi - 1 < 2**31 and int64 above; it divides n, so
it never overflows.  The block keeps mu as int8 and, sparse, the prime
powers it contains with their von Mangoldt values; any block decomposition
of ``[1, N]`` yields identical values.

Conventions: mu(1) = 1 and Lambda(1) = 0; all integers are signed 64-bit and
the module refuses bounds at or above 2**63.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import RangeError

DEFAULT_SEGMENT_SIZE = 1 << 20
INT_LIMIT = 2 ** 63 - 1
PRESIEVED = np.array([2, 3, 5, 7], dtype=np.int64)
PERIOD = 44100                  # (2*3*5*7)^2, the period of the template


def _presieve_template() -> np.ndarray:
    """The signed product of the PRESIEVED primes at n = 0, 1, ... over two
    periods, so that every offset into the first has a full period after it."""
    t = np.ones(PERIOD, dtype=np.int32)
    for p in PRESIEVED.tolist():
        t[::p] *= -p
        t[::p * p] = 0
    return np.concatenate([t, t])


_TEMPLATE = _presieve_template()


def base_primes(limit: int) -> np.ndarray:
    """All primes <= limit, as an int64 array (simple Eratosthenes)."""
    if limit < 2:
        return np.array([], dtype=np.int64)
    is_p = np.ones(limit + 1, dtype=bool)
    is_p[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if is_p[i]:
            is_p[i * i::i] = False
    return np.flatnonzero(is_p).astype(np.int64)


@dataclass(frozen=True)
class SieveSegment:
    """Moebius values and prime powers of the block ``[lo, hi)``.

    Attributes:
        lo: Inclusive lower bound, >= 1.
        hi: Exclusive upper bound.
        mu: int8 array, ``mu[n - lo]`` = mu(n).
        pp: int64 array, the prime powers p^k (k >= 1) in the block, ascending.
        pp_lam: float64 array, Lambda at ``pp``: log p, one value per prime,
            so every power of p carries the bit-identical log.
    """

    lo: int
    hi: int
    mu: np.ndarray
    pp: np.ndarray
    pp_lam: np.ndarray


def _check_base_primes(hi: int, primes: np.ndarray) -> None:
    s = math.isqrt(hi - 1)
    if s < 2:
        return
    needed = base_primes(s)
    if len(primes) == 0:
        raise RangeError(f"base_primes must cover all primes <= {s}; got none")
    have = np.asarray(primes, dtype=np.int64)
    missing = needed[~np.isin(needed, have)]
    if len(missing):
        raise RangeError(
            f"base_primes must cover all primes <= {s}; missing {int(missing[0])}"
        )


def prime_powers(small: np.ndarray, lo: int, hi: int):
    """Powers p^k (k >= 1) in ``[lo, hi)`` of the ascending primes ``small``
    (each < hi), in ascending order, and log p for each."""
    logs = np.log(small.astype(np.float64))
    found, found_log = [small[:0]], [logs[:0]]
    pw = small.copy()
    c = len(small)
    while c:
        # pw[:c] = p^k is ascending in p, so [lo, hi) is a contiguous run
        a = int(np.searchsorted(pw[:c], lo, side="left"))
        found.append(pw[a:c])
        found_log.append(logs[a:c])
        # keep the p with p^(k+1) < hi; the test avoids int64 overflow
        c = int(np.count_nonzero(pw[:c] <= (hi - 1) // small[:c]))
        pw = pw[:c] * small[:c]
    pp = np.concatenate(found)
    order = np.argsort(pp, kind="stable")
    return pp[order], np.concatenate(found_log)[order]


def build_segment(lo: int, hi: int, primes: Sequence[int] | np.ndarray) -> SieveSegment:
    """Sieve the block ``[lo, hi)``.

    Args:
        lo: Inclusive start, >= 1.
        hi: Exclusive end; requires ``hi > lo`` and ``hi - 1 < 2**63``.
        primes: all primes <= isqrt(hi - 1) (validated; extra primes are fine).

    Returns:
        An immutable :class:`SieveSegment`; output is a pure function of
        (lo, hi), independent of construction order.
    """
    if lo < 1:
        raise RangeError(f"segment lower bound must be >= 1, got {lo}")
    if hi <= lo:
        raise RangeError(f"empty or inverted segment range [{lo}, {hi})")
    if hi - 1 > INT_LIMIT:
        raise RangeError(f"upper bound {hi} exceeds the 64-bit limit {INT_LIMIT}")
    primes = np.asarray(primes, dtype=np.int64)
    _check_base_primes(hi, primes)

    size = hi - lo
    dtype = np.int32 if hi - 1 < 2 ** 31 else np.int64
    prod = np.empty(size, dtype=dtype)
    k = min(size, PERIOD)
    prod[:k] = _TEMPLATE[lo % PERIOD:lo % PERIOD + k]
    while k < size:             # prod[:k] is whole periods: double it
        c = min(k, size - k)
        prod[k:k + c] = prod[:c]
        k += c

    s = math.isqrt(hi - 1)
    peel = primes[int(np.searchsorted(primes, PRESIEVED[-1], side="right")):
                  int(np.searchsorted(primes, s, side="right"))]
    # -p as a scalar of prod's dtype multiplies faster than a Python int
    for start, p, neg in zip(((-lo) % peel).tolist(), peel.tolist(),
                             (-peel).astype(dtype)):
        mult = prod[start::p]
        mult *= neg
    # zeroing after the products gives the same values; a p^2 above the
    # block size has at most one multiple in it, so those go in one write
    dense = int(np.searchsorted(peel, math.isqrt(size), side="right"))
    for p in peel[:dense].tolist():
        prod[-lo % (p * p)::p * p] = 0
    first = (-lo) % (peel[dense:] * peel[dense:])
    prod[first[first < size]] = 0

    # Lambda's support: the n > 1 with no base-prime factor (product 1: the
    # primes above isqrt(hi-1)) and the powers of the base primes
    big = np.flatnonzero(prod == 1)
    big += lo
    if lo == 1:
        big = big[1:]
    big_lam = np.log(big.astype(np.float64))
    small = np.concatenate([PRESIEVED[PRESIEVED < hi], peel])
    pw, pw_lam = prime_powers(small, lo, hi)

    # |prod| < n exactly when one prime factor > isqrt(hi-1) is left over;
    # that factor flips mu once more (a multiply by +-1 beats a masked negate)
    mu = (prod > 0).view(np.int8) - (prod < 0).view(np.int8)
    full = (np.abs(prod, out=prod) == np.arange(lo, hi, dtype=dtype)).view(np.int8)
    full += full
    full -= 1
    mu *= full

    at = np.searchsorted(big, pw)
    return SieveSegment(lo=lo, hi=hi, mu=mu, pp=np.insert(big, at, pw),
                        pp_lam=np.insert(big_lam, at, pw_lam))


def mobius_from_segment(seg: SieveSegment) -> np.ndarray:
    """Moebius values mu(n) in {-1, 0, +1} for the segment, as int8."""
    return seg.mu


def lambda_from_segment(seg: SieveSegment) -> np.ndarray:
    """von Mangoldt values: log p where n = p^k, else 0 (dense float64)."""
    lam = np.zeros(seg.hi - seg.lo, dtype=np.float64)
    lam[seg.pp - seg.lo] = seg.pp_lam
    return lam


def iter_segments(n_max: int,
                  segment_size: int = DEFAULT_SEGMENT_SIZE,
                  primes: np.ndarray | None = None) -> Iterator[SieveSegment]:
    """Yield segments covering [1, n_max] in ascending order."""
    if n_max < 1:
        raise RangeError(f"n_max must be >= 1, got {n_max}")
    if n_max > INT_LIMIT:
        raise RangeError(f"n_max {n_max} exceeds the 64-bit limit {INT_LIMIT}")
    if segment_size < 1:
        raise RangeError("segment_size must be positive")
    if primes is None:
        primes = base_primes(math.isqrt(n_max))
    for lo in range(1, n_max + 1, segment_size):
        yield build_segment(lo, min(lo + segment_size, n_max + 1), primes)
