#!/usr/bin/env python3
"""Zero-interval statistics of the normalized smoothed sum.

H(x) = F(exp(sqrt(x))) / exp(sqrt(x)) is sampled with exact cumulative
integrals; its zeros split the range into intervals whose mean-value data
feed the named constants (alpha, kappa, epsilon, iota) and the damping
iteration.
"""

import math

import numpy as np

from mertenslab import hprofile, summatory

store = summatory.PrefixSums(10 ** 6)

print("=" * 70)
print(" 1. Profile of H with exact cumulative integrals")
print("=" * 70)
prof = hprofile.build_profile(store, "smoothed")
print(f"  samples: {len(prof.x_samples)}  x-range: "
      f"[{prof.x_samples[0]:.3f}, {prof.x_samples[-1]:.3f}]")
print(f"  sup |H| = {np.abs(prof.h_values).max():.6f} (must stay <= 1)")
print(f"  zeros found (x-domain): {np.round(prof.zeros, 6).tolist()}")
print(f"  ... i.e. at y = {np.round(np.exp(np.sqrt(prof.zeros)), 3).tolist()}")

print()
print("=" * 70)
print(" 2. Constants estimated on the tail window (labels say: estimates)")
print("=" * 70)
c = hprofile.estimate_constants(prof)
print(f"  alpha_hat   = {c.alpha_hat:.6e}   (tail sup |H|)")
print(f"  mean |H|    = {c.mean_abs_hat:.6e}   (running average at x_max)")
print(f"  sup |H'|    = {c.deriv_sup_hat:.6e}")
print(f"  signed span = {c.signed_span_hat:.6e}   (sup over pairs of |int H|)")
print(f"  iota_hat    = {c.iota_hat:.6e}")
print(f"  h, kappa, epsilon = {c.h_param:.4f}, {c.kappa:.6e}, {c.epsilon:.6e}")
print(f"  lambda_est  = {c.lambda_est:.6e}   (kappa * iota)")

if prof.intervals:
    print()
    print(" intervals between successive zeros:")
    print(f"{'a':>10} {'b':>10} {'int |H|':>12} {'|H(xi)|':>12} {'deriv bound':>12}")
    for iv in prof.intervals:
        print(f"{iv.a:>10.4f} {iv.b:>10.4f} {iv.integral_abs:>12.4e} "
              f"{iv.h_at_xi:>12.4e} {iv.deriv_bound:>12.4e}")
else:
    print("  (fewer than two zeros in range: finite-zeros branch, no intervals)")

print()
print("=" * 70)
print(" 3. The step profile M(y)/y and its tail suprema")
print("=" * 70)
profm = hprofile.build_profile(store, "mertens")
print(f"  zeros recorded (step boundaries): {len(profm.zeros)}")
for k, v in sorted((profm.decade_sups or {}).items()):
    print(f"  sup over y in decade 10^{k}: |M|/y = {v:.6g}")

print()
print("=" * 70)
print(" 4. The damping iteration l_k = 1 + lam * l_(k-1)")
print("=" * 70)
it = hprofile.lambda_iteration(0.5, 10, alpha=1.0)
print(f"{'k':>3} {'l_k':>10} {'alpha/l_k':>12} {'alpha/(1+lam)^k':>16}")
for k in range(11):
    print(f"{k:>3} {it.lambdas[k]:>10.6f} {it.bounds_recurrence[k]:>12.6f} "
          f"{it.bounds_contracting[k]:>16.6e}")
print(f"  fixed point 1/(1-lam) = {it.limit}; the recurrence bound settles at")
print(f"  alpha*(1-lam) = {1.0 * (1 - 0.5)}, the contracting reading goes to 0")
