#!/usr/bin/env python3
"""Segmented sieve basics: mu, Lambda, and M(x).

One pass over the base primes gives each block its Moebius values and its
prime powers, which carry the von Mangoldt values.
"""

import math

import numpy as np

from mertenslab import sieve, summatory

print("=" * 70)
print(" 1. One segment, inspected by hand")
print("=" * 70)

seg = sieve.build_segment(2, 21, sieve.base_primes(5))
mu = sieve.mobius_from_segment(seg)
lam = sieve.lambda_from_segment(seg)
print(f"{'n':>4} {'mu':>4} {'Lambda':>10}")
for n in range(2, 21):
    i = n - 2
    print(f"{n:>4} {mu[i]:>4} {lam[i]:>10.6f}")

print()
print("=" * 70)
print(" 2. Prefix sums: Mertens values at powers of ten")
print("=" * 70)

store = summatory.PrefixSums(10 ** 6)
for k in range(1, 7):
    print(f"  M(10^{k}) = {store.mertens(10 ** k):>6}")

print()
print("=" * 70)
print(" 3. Squarefree density approaches 6/pi^2 = 0.6079271...")
print("=" * 70)

mu_dense = store.mobius_range(1, 10 ** 6 + 1)
density = np.count_nonzero(mu_dense) / 10 ** 6
print(f"  nonzero mu up to 1e6: {density:.6f}  (6/pi^2 = {6 / math.pi ** 2:.6f})")

print()
print("=" * 70)
print(" 4. Chebyshev psi(x)/x hovers near 1")
print("=" * 70)
for x in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
    print(f"  psi({x:>8}) / x = {store.psi(x) / x:.6f}")
