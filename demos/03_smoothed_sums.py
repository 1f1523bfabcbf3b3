#!/usr/bin/env python3
"""The smoothed Mertens sum F and its exact identities.

F(x) = sum_{n<=x} mu(n) log(x/n) has two independent evaluation routes (the
rearranged sum M(x) log x - A(x), and the piecewise-exact integral of
M(y)/y), a dilated-sum collapse sum_{n<=x} F(x/n) = log x, and the weighted
Tatuzawa-Iseki identity that ties all of it together.
"""

import math

import numpy as np

from mertenslab import identities, summatory

store = summatory.PrefixSums(10 ** 6)

print("=" * 70)
print(" 1. Two routes to F(x)")
print("=" * 70)
print(f"{'x':>12} {'sum route':>18} {'integral route':>18} {'gap':>10}")
for x in (4.0, 100.0, 12345.6, 10 ** 6):
    fs = store.big_f(x)
    fi = store.big_f_integral(x)
    print(f"{x:>12} {fs:>18.12f} {fi:>18.12f} {abs(fs - fi):>10.2e}")

print()
print("=" * 70)
print(" 2. The dilated sum collapses to log x exactly")
print("=" * 70)
print(f"{'x':>10} {'sum F(x/n)':>16} {'log x':>16} {'residual':>12}")
for x in (4.0, 1000.0, 10 ** 5):
    total, resid = identities.check_f_sum_identity(store, x)
    print(f"{x:>10} {total:>16.12f} {math.log(x):>16.12f} {resid:>12.2e}")

print()
print(" ...while the floor-weighted reading carries psi(x) as well:")
print(f"{'x':>10} {'weighted sum':>16} {'log x + psi':>16} {'residual':>12}")
for x in (4.0, 1000.0, 10 ** 5):
    fw = identities.floor_weighted_mu_sum(store, x)
    print(f"{x:>10} {fw.value:>16.6f} {fw.log_x + fw.psi_x:>16.6f} "
          f"{fw.residual:>12.2e}")

print()
print("=" * 70)
print(" 3. Tatuzawa-Iseki residuals are rounding noise for any F")
print("=" * 70)
fs = {"F = 1": identities.f_one, "F = log": identities.f_log,
      "F = smoothed sum": identities.f_smoothed(store)}
# one call per x: the divisor pairs of x are enumerated once for all three F
residuals = np.array([identities.tatuzawa_iseki_residual(store, float(x),
                                                         list(fs.values()))
                      for x in np.geomspace(2, 10 ** 4, 15)])
for label, worst in zip(fs, np.abs(residuals).max(axis=0)):
    print(f"  {label:<18} worst residual over 15 points <= 1e4: {worst:.2e}")

print()
print("=" * 70)
print(" 4. The normalized profiles behind the main limit")
print("=" * 70)
print(f"{'y':>10} {'F(y)/y':>14} {'M(y)/y':>14}")
for y in (10.0, 100.0, 10 ** 4, 10 ** 6):
    print(f"{y:>10} {store.h_smoothed(y):>14.8f} {store.h_mertens(y):>14.8f}")
print("  (both columns shrink: that is the prime number theorem at desk scale)")
