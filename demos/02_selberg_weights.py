#!/usr/bin/env python3
"""Selberg weights by two independent formulas.

L2 = mu * log^2 (Dirichlet convolution with the Moebius function) must agree
with (Lambda*Lambda) + Lambda log.  The table computes both and records the
worst gap; mu and Lambda come from the prefix-sum store's one sieve pass.
The companion pointwise claims are instrumented honestly: the
residual 2 log n - L2(n) is far from bounded pointwise (n = 30 below) and
settles only on summatory average.
"""

import math

import numpy as np

from mertenslab import dirichlet, summatory

N = 10 ** 5
table = dirichlet.build_arith_table(summatory.PrefixSums(N), N)

print("=" * 70)
print(" 1. Dual-form agreement")
print("=" * 70)
print(f"  max |mobius-form - direct-form| over n <= {N}: "
      f"{table.form_discrepancy:.3e} (worst n = {table.form_discrepancy_n})")
print(f"  L2(4)  = {table.lambda2[4]:.15f}   expect 3 log^2 2 "
      f"= {3 * math.log(2) ** 2:.15f}")
print(f"  L2(12) = {table.lambda2[12]:.15f}   expect 2 log 2 log 3 "
      f"= {2 * math.log(2) * math.log(3):.15f}")

print()
print("=" * 70)
print(" 2. The classical identity mu * log = Lambda, as a convolution check")
print("=" * 70)
n_small = 10 ** 4
logs = np.zeros(n_small + 1)
logs[1:] = np.log(np.arange(1, n_small + 1, dtype=float))
got = dirichlet.convolve_prefix(table.mu[:n_small + 1].astype(float), logs, n_small)
print(f"  max |(mu * log)(n) - Lambda(n)| over n <= {n_small}: "
      f"{np.abs(got - table.lam[:n_small + 1]).max():.3e}")

print()
print("=" * 70)
print(" 3. Pointwise residuals are honest: r14(n) = 2 log n - L2(n)")
print("=" * 70)
print(f"  L2(30) = {table.lambda2[30]}  ->  r14(30) = {2 * math.log(30):.6f}")
print("  (no divisor pair of prime powers hits 30 = 2*3*5, so the pointwise")
print("   'bounded' reading fails; only the average behaves)")
for x in (10 ** 3, 10 ** 4, 10 ** 5):
    stats = dirichlet.pointwise_residuals(table, float(x))
    print(f"  x = {x:>7}: (1/x) sum r14 = {stats.r14_avg:+.4f}   "
          f"(1/x) sum r13 = {stats.r13_avg:+.4f}")
print("  (the r14 average tends to 2*gamma = +1.1544...; r13's drifts like")
print("   -2 log x, both recorded as data)")
