"""Selberg-weight tables built by Dirichlet convolution.

The Selberg weight admits two independent formulas,

    mobius form:   L2(n) = sum_{d|n} mu(d) log(n/d)^2
    direct form:   L2(n) = (Lambda*Lambda)(n) + Lambda(n) log n

and the table computes both, recording the worst disagreement.  It reads
mu and the prime powers carrying Lambda from a :class:`PrefixSums` store,
so it sieves nothing itself.  The companion weights are

    L2minus(n) = (Lambda*Lambda)(n) - Lambda(n) log n
    Theta(n)   = (Lambda*Lambda)(n) / log n      (Theta(1) := 0)

Convolutions run the divisor-pair double loop split at sqrt(n_max): the
short-divisor half walks strides of d, the long-divisor half walks strides
of the cofactor, so the work is O(n_max log n_max) additions done in
O(sqrt(n_max)) vectorized passes, each Kahan-compensated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accum import kahan_slice_add
from .errors import CapabilityError, CrossCheckError, RangeError
from .summatory import PrefixSums, max_usable

TOL_REL = 1e-9
# Peak bytes of a table per integer: ru_maxrss around build_arith_table rose
# 75.8 MiB at n_max 1e6 and 878.7 MiB at 1e7 (numpy 2.4, x86-64), a slope of
# 93.6 bytes per integer; rounded up.
TABLE_BYTES_PER_INT = 96


def check_table_cap(n_max: int) -> None:
    """Refuse a table cap whose table would not fit in physical memory."""
    usable = max_usable(TABLE_BYTES_PER_INT)
    if n_max > usable:
        raise CapabilityError(f"table cap {n_max} needs more than physical memory; "
                              f"max usable table cap is {usable}", max_usable=usable)


def convolve_prefix(f: np.ndarray, g: np.ndarray, n_max: int) -> np.ndarray:
    """Dirichlet convolution (f*g)(n) = sum_{d|n} f(d) g(n/d) for n <= n_max.

    Inputs are 1-indexed arrays of length >= n_max + 1 (index 0 ignored).
    Zero entries of the outer factor are skipped, so sparse inputs such as
    the von Mangoldt function convolve in time proportional to their support.
    """
    if n_max < 1:
        raise RangeError(f"convolution cap must be >= 1, got {n_max}")
    if len(f) < n_max + 1 or len(g) < n_max + 1:
        raise RangeError("input columns shorter than n_max + 1")
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    out = np.zeros(n_max + 1)
    comp = np.zeros(n_max + 1)
    b = math.isqrt(n_max)
    for d in range(1, b + 1):
        fd = f[d]
        if fd != 0.0:
            kahan_slice_add(out, comp, slice(d, n_max + 1, d), fd * g[1:n_max // d + 1])
    for q in range(1, n_max // (b + 1) + 1):
        gq = g[q]
        if gq != 0.0:
            top = n_max // q
            kahan_slice_add(out, comp, slice(q * (b + 1), q * top + 1, q),
                            gq * f[b + 1:top + 1])
    out -= comp
    return out


@dataclass
class ArithTable:
    """Dense arithmetic-function columns over [1, n_max] (index 0 unused).

    ``lambda2`` holds the direct-form values; the worst gap to the mobius
    form is recorded in ``form_discrepancy`` at index ``form_discrepancy_n``.
    """

    n_max: int
    mu: np.ndarray
    lam: np.ndarray
    lambda2: np.ndarray
    lambda2_minus: np.ndarray
    theta: np.ndarray
    log_n: np.ndarray
    form_discrepancy: float = 0.0
    form_discrepancy_n: int = 0


def build_arith_table(store: PrefixSums, n_max: int,
                      tol_rel: float = TOL_REL) -> ArithTable:
    """Selberg-weight columns up to n_max, from the store's mu and Lambda.

    Args:
        store: prefix sums whose cap covers n_max; mu and the prime powers
            are read from it.
        n_max: table cap (the convolution cost is n_max log n_max).
        tol_rel: relative budget for the cross-check of the two formulas,
            scaled by log(n_max)^2.

    Raises:
        CapabilityError: n_max exceeds the store's cap, or the table would
            not fit in physical memory.
        CrossCheckError: the two formulas disagree beyond tolerance.
    """
    if n_max < 1:
        raise RangeError(f"n_max must be >= 1, got {n_max}")
    if n_max > store.n_max:
        raise CapabilityError(f"table cap {n_max} beyond store cap {store.n_max}",
                              max_usable=store.n_max)
    check_table_cap(n_max)

    mu = np.zeros(n_max + 1, dtype=np.int8)
    mu[1:] = store.mu[:n_max]
    lam = np.zeros(n_max + 1)
    i = int(np.searchsorted(store.pp, n_max, side="right"))
    lam[store.pp[:i]] = store.pp_lam[:i]

    log_n = np.arange(n_max + 1, dtype=np.float64)
    np.log(log_n[1:], out=log_n[1:])
    log_n[0] = 0.0

    # each temporary is freed, or its buffer reused, once its last reader is
    # done, so the mobius-form convolution runs beside the kept columns alone
    lam_conv = convolve_prefix(lam, lam, n_max)
    theta = np.zeros(n_max + 1)
    if n_max >= 2:
        np.divide(lam_conv[2:], log_n[2:], out=theta[2:])
    lam_log = lam * log_n
    lambda2 = lam_conv + lam_log
    lambda2_minus = lam_conv
    lambda2_minus -= lam_log
    del lam_conv, lam_log

    gaps = convolve_prefix(mu.astype(np.float64), log_n ** 2, n_max)   # mobius form
    gaps -= lambda2
    np.abs(gaps, out=gaps)
    disc_n = int(np.argmax(gaps))
    disc = float(gaps[disc_n])
    budget = tol_rel * max(math.log(n_max), 1.0) ** 2
    if disc > budget:
        raise CrossCheckError(
            f"Selberg-weight forms disagree by {disc:.3e} at n={disc_n} "
            f"(budget {budget:.3e})",
            worst_n=disc_n, discrepancy=disc)

    return ArithTable(n_max=n_max, mu=mu, lam=lam, lambda2=lambda2,
                      lambda2_minus=lambda2_minus, theta=theta, log_n=log_n,
                      form_discrepancy=disc, form_discrepancy_n=disc_n)


@dataclass(frozen=True)
class PointwiseResidualStats:
    """Residual statistics for the two pointwise Selberg-weight claims.

    r13(n) = 2 Lambda(n) log(x/n) - |L2minus(n)|
    r14(n) = 2 log n - L2(n)

    Both fail pointwise (r14(30) = 2 log 30 with L2(30) = 0) and are honest
    only on summatory average, so this is instrumentation, not an assertion.
    """

    x: float
    r13_norm_max: float     # max |r13(n)| / log(n+1)
    r13_norm_mean: float    # mean |r13(n)| / log(n+1)
    r14_abs_max: float      # max |r14(n)|
    r13_avg: float          # (1/x) sum r13(n)
    r14_avg: float          # (1/x) sum r14(n)


def pointwise_residuals(table: ArithTable, x: float) -> PointwiseResidualStats:
    """Evaluate the pointwise residual statistics at 2 <= x <= table cap."""
    if x < 2:
        raise RangeError(f"residual statistics need x >= 2, got {x}")
    top = int(math.floor(x))
    if top > table.n_max:
        raise RangeError(f"x = {x} beyond table cap {table.n_max}")
    # at most two full-length arrays live at once, to keep this check under
    # the report's peak memory at conv_cap
    ns = slice(1, top + 1)
    buf = np.multiply(2.0, table.log_n[ns])
    buf -= table.lambda2[ns]                        # r14
    r14_avg = float(np.sum(buf) / x)
    r14_abs_max = float(np.abs(buf, out=buf).max())
    np.subtract(math.log(x), table.log_n[ns], out=buf)
    r13 = np.multiply(2.0, table.lam[ns])
    r13 *= buf
    r13 -= np.abs(table.lambda2_minus[ns], out=buf)
    r13_avg = float(np.sum(r13) / x)
    np.abs(r13, out=r13)
    del buf
    norm = np.arange(2.0, top + 2.0)                # n + 1
    r13 /= np.log(norm, out=norm)
    return PointwiseResidualStats(
        x=float(x),
        r13_norm_max=float(r13.max()),
        r13_norm_mean=float(r13.mean()),
        r14_abs_max=r14_abs_max,
        r13_avg=r13_avg,
        r14_avg=r14_avg,
    )


def table_rows(table: ArithTable, ns) -> list[dict]:
    """Rows for the n,mu,lambda,lambda2,lambda2_minus,theta CSV schema."""
    rows = []
    for n in ns:
        n = int(n)
        if not 1 <= n <= table.n_max:
            raise RangeError(f"row index {n} outside [1, {table.n_max}]")
        rows.append({
            "n": n,
            "mu": int(table.mu[n]),
            "lambda": float(table.lam[n]),
            "lambda2": float(table.lambda2[n]),
            "lambda2_minus": float(table.lambda2_minus[n]),
            "theta": float(table.theta[n]),
        })
    return rows
