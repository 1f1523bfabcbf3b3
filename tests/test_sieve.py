import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mertenslab import sieve
from mertenslab.errors import RangeError

import oracles


def segment_full(n_max, segment_size=sieve.DEFAULT_SEGMENT_SIZE):
    mu = np.empty(n_max + 1, dtype=np.int8)
    lam = np.empty(n_max + 1)
    mu[0] = 0
    lam[0] = 0.0
    for seg in sieve.iter_segments(n_max, segment_size):
        mu[seg.lo:seg.hi] = sieve.mobius_from_segment(seg)
        lam[seg.lo:seg.hi] = sieve.lambda_from_segment(seg)
    return mu, lam


class TestBuildSegment:
    def test_sentinel_only(self):
        seg = sieve.build_segment(1, 2, sieve.base_primes(1))
        assert seg.mu.tolist() == [1]
        assert seg.pp.tolist() == []
        assert sieve.lambda_from_segment(seg).tolist() == [0.0]

    def test_mu_and_lambda_2_to_10(self):
        seg = sieve.build_segment(2, 11, sieve.base_primes(3))
        assert seg.mu.tolist() == [-1, -1, 0, -1, 1, -1, 0, 0, 1]
        assert seg.pp.tolist() == [2, 3, 4, 5, 7, 8, 9]

    def test_million_power_of_two_and_five(self):
        lo = 10 ** 6
        assert oracles.factor_trial(lo) == [(2, 6), (5, 6)]
        seg = sieve.build_segment(lo, lo + 8, sieve.base_primes(math.isqrt(lo + 7)))
        lam = sieve.lambda_from_segment(seg)
        assert seg.mu[0] == 0 and lam[0] == 0.0
        for n in range(lo, lo + 8):
            assert seg.mu[n - lo] == oracles.mobius_trial(n), n
            assert lam[n - lo] == pytest.approx(oracles.lambda_trial(n), rel=1e-15), n

    def test_invariants_against_trial_division(self):
        seg = sieve.build_segment(1, 3001, sieve.base_primes(54))
        lam = sieve.lambda_from_segment(seg)
        for n in range(1, 3001):
            assert seg.mu[n - 1] == oracles.mobius_trial(n), n
            assert lam[n - 1] == pytest.approx(oracles.lambda_trial(n), rel=1e-15), n

    def test_base_primes_inside_segment(self):
        # lo < isqrt(hi - 1) = 141: base primes, their squares and cubes
        # lie in the block and must be peeled, not left over
        lo, hi = 10, 20000
        seg = sieve.build_segment(lo, hi, sieve.base_primes(math.isqrt(hi - 1)))
        lam = sieve.lambda_from_segment(seg)
        for n in range(lo, hi):
            assert seg.mu[n - lo] == oracles.mobius_trial(n), n
            assert lam[n - lo] == pytest.approx(oracles.lambda_trial(n), rel=1e-15), n
        assert np.array_equal(seg.pp, np.flatnonzero(lam) + lo)

    def test_empty_range_rejected(self):
        with pytest.raises(RangeError):
            sieve.build_segment(5, 5, sieve.base_primes(10))
        with pytest.raises(RangeError):
            sieve.build_segment(7, 3, sieve.base_primes(10))

    def test_missing_base_primes_named(self):
        with pytest.raises(RangeError, match="primes <= 9"):
            sieve.build_segment(1, 100, [])
        with pytest.raises(RangeError, match="missing 7"):
            sieve.build_segment(1, 100, [2, 3, 5])

    def test_overflow_guard(self):
        with pytest.raises(RangeError):
            sieve.build_segment(1, 2 ** 63 + 1, [2])


class TestDerivedFunctions:
    def test_mobius_first_ten(self):
        seg = sieve.build_segment(1, 11, sieve.base_primes(3))
        assert sieve.mobius_from_segment(seg).tolist() == \
            [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]

    def test_mobius_30(self):
        seg = sieve.build_segment(30, 31, sieve.base_primes(5))
        assert sieve.mobius_from_segment(seg)[0] == -1

    def test_lambda_values(self):
        seg = sieve.build_segment(1, 11, sieve.base_primes(3))
        lam = sieve.lambda_from_segment(seg)
        assert lam[0] == 0.0                      # n = 1
        assert lam[5] == 0.0                      # n = 6 = 2*3
        assert lam[7] == pytest.approx(math.log(2), abs=0)   # n = 8
        assert lam[8] == pytest.approx(math.log(3), abs=0)   # n = 9

    def test_lambda_bit_identical_on_prime_powers(self):
        mu, lam = segment_full(10 ** 4, segment_size=1 << 12)
        for p in sieve.base_primes(10 ** 4).tolist():
            log_p = np.log(np.float64(p))
            q = p
            while q <= 10 ** 4:
                assert lam[q] == log_p, (p, q)
                q *= p

    def test_oracle_equivalence_to_1e5(self):
        mu, lam = segment_full(10 ** 5)
        for n in range(1, 10 ** 5 + 1, 17):
            assert mu[n] == oracles.mobius_trial(n), n
            assert lam[n] == pytest.approx(oracles.lambda_trial(n), abs=1e-15), n
        mu_dense = oracles.mobius_dense(10 ** 5)
        assert np.array_equal(mu[1:], mu_dense[1:])
        for size in (997, 1 << 14, 65537):
            assert np.array_equal(segment_full(10 ** 5, size)[0][1:], mu_dense[1:]), size

    def test_squarefree_density(self):
        mu, _ = segment_full(10 ** 6)
        ratio = np.count_nonzero(mu[1:]) / 10 ** 6
        assert abs(ratio - 0.607927) < 0.001


class TestSegmentation:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=997))
    def test_segment_size_independence(self, size):
        n_max = 2000
        mu_ref, lam_ref = segment_full(n_max, segment_size=n_max + 10)
        mu, lam = segment_full(n_max, segment_size=size)
        assert np.array_equal(mu, mu_ref)
        assert np.array_equal(lam, lam_ref)


def assert_reference_segment(lo, hi, primes=None):
    if primes is None:
        primes = sieve.base_primes(math.isqrt(hi - 1))
    got = sieve.build_segment(lo, hi, primes)
    want = oracles.build_segment_reference(lo, hi, primes)
    for name in ("mu", "pp", "pp_lam"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (lo, hi, name)


class TestReferenceKernel:
    """The template-and-signed-product kernel against the three-op peel."""

    def test_every_block_below_200(self):
        # below hi = 50, isqrt(hi - 1) < 7, so some of 2, 3, 5 and 7 are
        # base primes beyond the ones the caller must pass
        for hi in range(2, 201):
            primes = sieve.base_primes(math.isqrt(hi - 1))
            for lo in range(1, hi):
                assert_reference_segment(lo, hi, primes)

    def test_blocks_straddling_the_template_period(self):
        for c in (sieve.PERIOD, 2 * sieve.PERIOD, 7 * sieve.PERIOD,
                  20000 * sieve.PERIOD):
            for lo, hi in ((c - 1, c), (c, c + 1), (c - 5, c + 5),
                           (c - 30000, c + 70000), (c - 100, c + 3 * sieve.PERIOD)):
                assert_reference_segment(lo, hi)

    def test_seeded_random_blocks_to_1e9(self):
        rng = np.random.default_rng(18)
        primes = sieve.base_primes(math.isqrt(10 ** 9 + (1 << 20)))
        for _ in range(12):
            lo = int(rng.integers(1, 10 ** 9))
            hi = lo + int(rng.integers(1, 1 << 18))
            assert_reference_segment(lo, hi, primes)

    def test_int32_limit_and_the_switch_to_int64(self):
        assert_reference_segment(2 ** 31 - (1 << 16), 2 ** 31)     # hi - 1 = 2^31 - 1
        assert_reference_segment(2 ** 31 - (1 << 15), 2 ** 31 + (1 << 15))
