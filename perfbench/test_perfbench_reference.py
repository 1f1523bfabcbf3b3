"""Quick cross-checks of the benchmark's reference routes (a few seconds).

The recursion is compared with the dense sieve at many non-round x, with
small tables so that it really recurses: a draft of it once agreed at
10^6 and 10^7 and went wrong at 10^8, so powers of ten alone prove little.
"""

import math

import numpy as np
import pytest

import reference


def _mu_trial(n: int) -> int:
    sign, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if m > 1 else sign


@pytest.fixture(scope="module")
def dense():
    return reference.DenseReference(10 ** 6)


def test_dense_mu_matches_trial_division():
    mu = reference.mobius_dense(5000)
    assert [int(v) for v in mu[1:]] == [_mu_trial(n) for n in range(1, 5001)]


def test_recursion_matches_dense_at_random_points(dense):
    rng = np.random.default_rng(12345)
    for x in rng.integers(2, 10 ** 6, 150).tolist():
        top = max(math.isqrt(x), int(x ** (2 / 3)) // 4)
        assert reference.mertens_recursive(x, dense.m[:top + 1]) == dense.m[x], x


def test_recursion_matches_dense_near_squares(dense):
    for s in (2, 3, 10, 31, 99, 316, 999):
        for x in (s * s - 1, s * s, s * s + 1, s * (s + 1) - 1, s * (s + 1)):
            got = reference.mertens_recursive(x, dense.m[:math.isqrt(x) + 1])
            assert got == dense.m[x], x


def test_recursion_rejects_short_table(dense):
    with pytest.raises(ValueError):
        reference.mertens_recursive(10 ** 6, dense.m[:999])


def test_f_routes_and_psi_agree(dense):
    for x in (2.0, 10.5, 12345.6, 999999.25):
        budget = 1e-8 * (1.0 + abs(dense.big_f(x)) + math.log(x))
        assert abs(dense.big_f(x) - dense.big_f_termwise(x)) <= budget
    n = 10 ** 4
    primes = [p for p in range(2, n + 1)
              if all(p % d for d in range(2, math.isqrt(p) + 1))]
    brute = math.fsum(math.log(p) for p in primes
                      for k in range(1, 15) if p ** k <= n)
    assert dense.psi(n) == pytest.approx(brute, rel=1e-14)
