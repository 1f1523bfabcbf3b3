import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mertenslab import dirichlet, hprofile, identities, sieve, summatory
from mertenslab.errors import CapabilityError, RangeError

import oracles

LOG2 = math.log(2)


class TestMertens:
    def test_hand_values(self, store_1e5):
        assert store_1e5.mertens(1) == 1
        assert store_1e5.mertens(10) == -1
        assert store_1e5.mertens(10.9) == -1

    def test_powers_of_ten(self, store_1e5):
        known = {10: -1, 100: 1, 1000: 2, 10 ** 4: -23, 10 ** 5: -48}
        for x, expect in known.items():
            assert store_1e5.mertens(x) == expect, x

    def test_matches_dense_oracle(self, store_1e5):
        m_oracle = oracles.mertens_dense(10 ** 5)
        xs = np.concatenate((np.arange(1, 300),
                             np.linspace(300, 10 ** 5, 500).astype(int)))
        got = store_1e5.mertens_many(xs.astype(float))
        assert np.array_equal(got, m_oracle[xs])

    @settings(max_examples=30, deadline=None)
    @given(a=st.integers(min_value=1, max_value=10 ** 5 - 1),
           width=st.integers(min_value=1, max_value=3000))
    def test_window_resum_exact(self, store_1e5, a, width):
        b = min(a + width, 10 ** 5)
        mu = store_1e5.mobius_range(a, b + 1)
        assert int(mu.sum()) == store_1e5.mertens(b) - store_1e5.mertens(a) + int(mu[0])

    def test_bounds(self, store_1e5, store_1e4):
        with pytest.raises(RangeError):
            store_1e5.mertens(0.5)
        with pytest.raises(CapabilityError) as err:
            store_1e5.mertens(10 ** 6)
        assert err.value.max_usable == 10 ** 5
        for xs in ([2e4], [1e6]):
            with pytest.raises(CapabilityError) as err:
                store_1e4.psi_many(xs)
            assert err.value.max_usable == 10 ** 4
        for xs in ([0.5], [-3], [float("nan")]):
            with pytest.raises(RangeError):
                store_1e4.psi_many(xs)
        for many in (store_1e4.mertens_many, store_1e4.big_f_many):
            for xs in ([1e30], [float("inf")], [2.0, 1e30]):
                with pytest.raises(CapabilityError) as err:
                    many(xs)
                assert err.value.max_usable == 10 ** 4
            for xs in ([float("nan")], [0.5], [0.5, 1e30]):
                with pytest.raises(RangeError):
                    many(xs)


class TestSmoothedSum:
    def test_trivial_and_hand_values(self, store_1e5):
        assert store_1e5.big_f(1) == 0.0
        assert store_1e5.big_f(2) == pytest.approx(LOG2, abs=1e-15)
        assert store_1e5.big_f(4) == pytest.approx(math.log(1.5), abs=1e-15)

    def test_integral_route_hand_values(self, store_1e5):
        assert store_1e5.big_f_integral(1) == 0.0
        assert store_1e5.big_f_integral(2) == pytest.approx(LOG2, abs=1e-15)
        assert store_1e5.big_f_integral(4) == pytest.approx(math.log(1.5), abs=1e-15)

    def test_against_naive_summation(self, store_1e5):
        mu = oracles.mobius_dense(2000)
        for x in (2.0, 17.3, 100.0, 999.5, 2000.0):
            want = oracles.big_f_naive(x, mu)
            assert store_1e5.big_f(x) == pytest.approx(want, abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(x=st.floats(min_value=1.0, max_value=10 ** 5, allow_nan=False))
    def test_dual_route_agreement(self, store_1e5, x):
        f_sum = store_1e5.big_f(x)
        f_int = store_1e5.big_f_integral(x)
        assert abs(f_sum - f_int) <= 1e-9 * (1.0 + abs(f_sum) + math.log(x))

    def test_h_parametrization(self, store_1e5):
        assert store_1e5.h_smoothed(1) == 0.0
        assert store_1e5.h_smoothed(2) == pytest.approx(LOG2 / 2, abs=1e-15)
        assert store_1e5.h_mertens(10) == pytest.approx(-0.1, abs=0)

    def test_h_bounded_by_one(self, store_1e5):
        ys = np.geomspace(1.0, 10 ** 5, 500)
        vals = store_1e5.big_f_many(ys) / ys
        assert np.abs(vals).max() <= 1.0 + 1e-9


class TestWeightedSums:
    # G(x) = log x sum_{n<=x} F(x/n), the weight of the Tatuzawa-Iseki
    # identity, read through the production route check_f_sum_identity
    def test_g_weighted_hand_values(self, store_1e5):
        def g(x):
            return math.log(x) * identities.check_f_sum_identity(store_1e5, x)[0]
        assert g(1.0) == 0.0
        assert g(2.0) == pytest.approx(LOG2 ** 2, rel=1e-13)
        assert g(4.0) == pytest.approx(math.log(4) ** 2, rel=1e-13)

    def test_g_weighted_matches_direct(self, store_1e5):
        for x in (37.0, 500.5, 4096.0):
            direct = sum(store_1e5.big_f(x / n) for n in range(1, int(x) + 1))
            total, _ = identities.check_f_sum_identity(store_1e5, x)
            assert total == pytest.approx(direct, rel=1e-11), x

    def test_log_square_sum(self):
        v1, v2 = summatory.log_square_sums([1.0, 2.0])
        assert v1 == 0.0
        assert v2 == pytest.approx(LOG2 ** 2, abs=1e-15)
        for bad in (0.5, float("nan"), float("inf")):
            with pytest.raises(RangeError):
                summatory.log_square_sums([3.0, bad])

    def test_log_square_pass_matches_direct_route(self):
        # the ascending pass against the term-by-term sum, in any order
        rng = np.random.default_rng(12)
        xs = np.concatenate((rng.uniform(1.0, 1e6, 60),
                             [1.5, 2.0, 2.0, 7.0, 7.25, 1e6]))
        want = np.array([oracles.log_square_sum(x)[0] for x in xs])
        got = summatory.log_square_sums(xs)
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(want, 1.0))

    def test_lambda_over_n(self, store_1e5):
        v, r = store_1e5.lambda_over_n_sum(2.0)
        assert v == pytest.approx(LOG2 / 2, abs=1e-15)
        assert r == pytest.approx(LOG2 / 2 - LOG2, abs=1e-15)
        v, r = store_1e5.lambda_over_n_sum(3.0)
        assert r == pytest.approx(LOG2 / 2 + math.log(3) / 3 - math.log(3), abs=1e-14)

    def test_lambda_over_n_remainder_window(self, store_1e5):
        for x in np.geomspace(2, 10 ** 5, 60):
            _, r = store_1e5.lambda_over_n_sum(float(x))
            assert -1.8 <= r <= 0.0, x


class TestPsiAndWeights:
    def test_psi_hand_value(self, store_1e5):
        assert store_1e5.psi(4) == pytest.approx(2 * LOG2 + math.log(3), rel=1e-15)
        assert store_1e5.psi(1) == 0.0

    def test_psi_chebyshev_window(self, store_1e5):
        assert 0.9 <= store_1e5.psi(10 ** 5) / 10 ** 5 <= 1.1

    def test_psi_nondecreasing_checkpoints(self, store_1e5):
        assert np.all(np.diff(store_1e5.pp_cum_lam) >= 0)

    def test_lambda2_sum_hand_value(self, store_1e5):
        got = store_1e5.lambda2_sum(10)
        want = (LOG2 ** 2 + 2 * LOG2 * math.log(3) + 2 * LOG2 ** 2
                + 2 * LOG2 * math.log(5) + math.log(3) ** 2          # Lambda*Lambda
                + LOG2 ** 2 + math.log(3) ** 2 + 2 * LOG2 ** 2
                + math.log(5) ** 2 + math.log(7) ** 2
                + 3 * LOG2 ** 2 + 2 * math.log(3) ** 2)              # Lambda log
        assert got == pytest.approx(want, rel=1e-12)

    def test_sparse_vs_dense_sums(self, store_1e5, table_2e4):
        sparse_l2 = [store_1e5.lambda2_sum(x) for x in (100, 4096, 19999)]
        sparse_th = [store_1e5.theta_sum(x) for x in (100, 4096, 19999)]
        store_1e5.attach_table(table_2e4)
        try:
            for x, sl, st_ in zip((100, 4096, 19999), sparse_l2, sparse_th):
                dense_l2 = store_1e5.lambda2_sum(x)
                dense_th = store_1e5.theta_sum(x)
                assert dense_l2 == pytest.approx(sl, rel=1e-10), x
                assert dense_th == pytest.approx(st_, rel=1e-10), x
        finally:
            store_1e5.table_cap = 0
            store_1e5._s_lambda2 = None
            store_1e5._s_theta = None


class TestOneSievePass:
    def test_queries_read_the_stored_mu(self, monkeypatch):
        # a fresh store, so every window below is replayed, not an LRU hit
        store = summatory.PrefixSums(10 ** 5)

        def no_sieve(*args, **kwargs):
            raise AssertionError("sieved after the store build")

        monkeypatch.setattr(sieve, "build_segment", no_sieve)
        monkeypatch.setattr(sieve, "iter_segments", no_sieve)
        assert store.mertens(10 ** 5) == -48
        assert store.big_f(12345.6) == pytest.approx(store.big_f_integral(12345.6),
                                                     abs=1e-9)
        assert list(store.mertens_many([10.0, 100.0, 70001.5])) == [
            -1, 1, store.mertens(70001)]
        assert list(store.mobius_range(1, 11)) == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
        for kind in ("smoothed", "mertens"):
            hprofile.estimate_constants(hprofile.build_profile(store, kind))
        assert identities.mertens_tail_sups(store)
        identities.remainder_series(store, "h_mean_gap", [1.0, 10.0, 100.0])
        table = dirichlet.build_arith_table(store, 10 ** 4)
        assert table.lambda2[4] == pytest.approx(3 * LOG2 ** 2, rel=1e-13)


class TestBatchedLookups:
    STRIDE = 1 << 10

    @pytest.fixture(scope="class")
    def store(self):
        # about 98 windows, so a batch spans far more than the LRU holds
        return summatory.PrefixSums(10 ** 5, stride=self.STRIDE)

    def _ns(self, store):
        rng = np.random.default_rng(5)
        ns = rng.integers(0, store.n_max + 1, 400)
        fixed = [0, 1, store.n_max, self.STRIDE, 7 * self.STRIDE,
                 97 * self.STRIDE, 97 * self.STRIDE + 1]
        return np.concatenate((ns, fixed, ns[:50], fixed))

    def test_matches_scalar_lookup(self, store):
        ns = self._ns(store)
        kinds = ("m", "a", "fint")
        outs = store._cum_many(kinds, ns)
        assert len(outs) == 3 and outs[0].dtype == np.int64
        for kind, out in zip(kinds, outs):
            assert len(out) == len(ns)
            for n, got in zip(ns, out):
                assert got == store._cum_lookup(kind, int(n)), (kind, n)
        for out in store._cum_many(kinds, np.zeros(0, dtype=np.int64)):
            assert len(out) == 0

    @pytest.mark.parametrize("kinds", [("m",), ("a",), ("m", "a"), ("m", "a", "fint")])
    def test_one_visit_per_window(self, store, monkeypatch, kinds):
        visits = []
        window = summatory.PrefixSums._window

        def counted(self, k):
            visits.append(k)
            return window(self, k)

        monkeypatch.setattr(summatory.PrefixSums, "_window", counted)
        ns = self._ns(store)
        store._cum_many(kinds, ns)
        off = ns[ns % self.STRIDE != 0]
        assert visits == list(np.unique(off // self.STRIDE))


class TestConstructionDeterminism:
    def test_stride_off_the_sieve_block(self, store_1e5):
        # the checkpoint grid is independent of the sieve block: 1000 does not
        # divide sieve.DEFAULT_SEGMENT_SIZE
        store = summatory.PrefixSums(10 ** 5, stride=1000)
        xs = np.concatenate(([1.0, 999.0, 1000.0, 1001.0, 10 ** 5],
                             np.random.default_rng(3).uniform(1, 10 ** 5, 295)))
        assert np.array_equal(store.mertens_many(xs), store_1e5.mertens_many(xs))
        assert np.abs(store.big_f_many(xs) - store_1e5.big_f_many(xs)).max() <= 1e-9
        assert store.mertens_at_n_max == store_1e5.mertens_at_n_max == -48
        with pytest.raises(RangeError):
            summatory.PrefixSums(1000, stride=0)

    def test_mertens_bounded_by_index(self, store_1e5):
        ks = np.geomspace(1, 10 ** 5, 200)
        ms = store_1e5.mertens_many(ks)
        assert np.all(np.abs(ms) <= np.floor(ks))


def test_log_square_remainder_at_1e6():
    r = summatory.log_square_sums([10 ** 6])[0] - 2e6
    assert abs(r) <= 5 * math.log(10 ** 6) ** 2
