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
# both readings take all their points at once: one value, one residual per x
xs = [4.0, 1000.0, 10 ** 5]
totals, resids = identities.check_f_sum_identity(store, xs)
for x, total, resid in zip(xs, totals, resids):
    print(f"{x:>10} {total:>16.12f} {math.log(x):>16.12f} {resid:>12.2e}")

print()
print(" ...while the floor-weighted reading carries psi(x) as well:")
print(f"{'x':>10} {'weighted sum':>16} {'log x + psi':>16} {'residual':>12}")
values, residuals = identities.floor_weighted_mu_sum(store, xs)
for x, value, psi_x, residual in zip(xs, values, store.psi_many(xs), residuals):
    print(f"{x:>10} {value:>16.6f} {math.log(x) + psi_x:>16.6f} {residual:>12.2e}")

print()
print("=" * 70)
print(" 3. Tatuzawa-Iseki residuals are rounding noise for any F")
print("=" * 70)
fs = {"F = 1": identities.f_one, "F = log": identities.f_log,
      "F = smoothed sum": identities.f_smoothed(store)}
# one call for every x: two Dirichlet convolutions serve all points and F
residuals = identities.tatuzawa_iseki_residual(store, np.geomspace(2, 10 ** 4, 15),
                                               list(fs.values()))
for label, worst in zip(fs, np.abs(residuals).max(axis=0)):
    print(f"  {label:<18} worst residual over 15 points <= 1e4: {worst:.2e}")

print()
print("=" * 70)
print(" 4. The normalized profiles behind the main limit")
print("=" * 70)
print(f"{'y':>10} {'F(y)/y':>14} {'M(y)/y':>14}")
for y in (10.0, 100.0, 10 ** 4, 10 ** 6):
    print(f"{y:>10} {store.big_f(y) / y:>14.8f} {store.mertens(y) / y:>14.8f}")
print("  (both columns shrink: that is the prime number theorem at desk scale)")
