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

    @pytest.mark.parametrize("query", ["mertens", "psi", "big_f", "big_f_integral"])
    def test_huge_integers_are_beyond_the_cap(self, store_1e4, query):
        # exact comparison: no OverflowError, and 2^53 + 1 is not rounded
        for x, shown in ((10 ** 400, "of 1329 bits"), (10 ** 5000, "of 16610 bits"),
                         (2 ** 53 + 1, "9007199254740993"),
                         (np.uint64(2 ** 64 - 1), "18446744073709551615")):
            with pytest.raises(CapabilityError, match=f"argument {shown} beyond") as err:
                getattr(store_1e4, query)(x)
            assert err.value.max_usable == 10 ** 4
        with pytest.raises(RangeError):
            getattr(store_1e4, query)(-10 ** 400)
        assert getattr(store_1e4, query)(10 ** 4) == getattr(store_1e4, query)(1e4)

    @pytest.mark.parametrize("many", ["mertens_many", "big_f_many", "psi_many",
                                      "lambda2_sums", "theta_sums", "lambda_over_n_sums"])
    def test_huge_integers_in_batches(self, store_1e4, many):
        for xs in ([10 ** 400], [2, 10 ** 400]):
            with pytest.raises(CapabilityError) as err:
                getattr(store_1e4, many)(xs)
            assert err.value.max_usable == 10 ** 4


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
        assert store_1e5.big_f(1) / 1 == 0.0
        assert store_1e5.big_f(2) / 2 == pytest.approx(LOG2 / 2, abs=1e-15)
        assert store_1e5.mertens(10) / 10 == pytest.approx(-0.1, abs=0)

    def test_h_bounded_by_one(self, store_1e5):
        ys = np.geomspace(1.0, 10 ** 5, 500)
        vals = store_1e5.big_f_many(ys) / ys
        assert np.abs(vals).max() <= 1.0 + 1e-9


class TestWeightedSums:
    # G(x) = log x sum_{n<=x} F(x/n), the weight of the Tatuzawa-Iseki
    # identity, read through the production route check_f_sum_identity
    def test_g_weighted_hand_values(self, store_1e5):
        def g(x):
            return math.log(x) * identities.check_f_sum_identity(store_1e5, [x])[0][0]
        assert g(1.0) == 0.0
        assert g(2.0) == pytest.approx(LOG2 ** 2, rel=1e-13)
        assert g(4.0) == pytest.approx(math.log(4) ** 2, rel=1e-13)

    def test_g_weighted_matches_direct(self, store_1e5):
        for x in (37.0, 500.5, 4096.0):
            direct = sum(store_1e5.big_f(x / n) for n in range(1, int(x) + 1))
            (total,), _ = identities.check_f_sum_identity(store_1e5, [x])
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
        v2, v3 = store_1e5.lambda_over_n_sums([2.0, 3.0])
        assert v2 == pytest.approx(LOG2 / 2, abs=1e-15)
        assert v3 - math.log(3) == pytest.approx(LOG2 / 2 + math.log(3) / 3 - math.log(3),
                                                 abs=1e-14)

    def test_lambda_over_n_remainder_window(self, store_1e5):
        xs = np.geomspace(2, 10 ** 5, 60)
        r = store_1e5.lambda_over_n_sums(xs) - np.log(xs)
        assert np.all((-1.8 <= r) & (r <= 0.0))


class TestPsiAndWeights:
    def test_psi_hand_value(self, store_1e5):
        assert store_1e5.psi(4) == pytest.approx(2 * LOG2 + math.log(3), rel=1e-15)
        assert store_1e5.psi(1) == 0.0

    def test_psi_chebyshev_window(self, store_1e5):
        assert 0.9 <= store_1e5.psi(10 ** 5) / 10 ** 5 <= 1.1

    def test_psi_nondecreasing_checkpoints(self, store_1e5):
        psi = store_1e5.psi_many(np.arange(1.0, 10 ** 5 + 1.0))
        assert psi[0] == 0.0 and np.all(np.diff(psi) >= 0)

    def test_scalar_is_the_batch_at_one_point(self, store_1e5):
        xs = np.concatenate((identities.geometric_grid(2.0, 10.0 ** 5), [99_999.5]))
        assert [store_1e5.psi(x) for x in xs] == store_1e5.psi_many(xs).tolist()

    def test_lambda2_sum_hand_value(self, store_1e5):
        got = store_1e5.lambda2_sums([10])[0]
        want = (LOG2 ** 2 + 2 * LOG2 * math.log(3) + 2 * LOG2 ** 2
                + 2 * LOG2 * math.log(5) + math.log(3) ** 2          # Lambda*Lambda
                + LOG2 ** 2 + math.log(3) ** 2 + 2 * LOG2 ** 2
                + math.log(5) ** 2 + math.log(7) ** 2
                + 3 * LOG2 ** 2 + 2 * math.log(3) ** 2)              # Lambda log
        assert got == pytest.approx(want, rel=1e-12)

    def test_sparse_vs_dense_sums(self, store_1e5, table_2e4):
        # the hyperbola route against cumulative sums of the dense table
        dense_l2 = np.cumsum(table_2e4.lambda2[1:])
        dense_th = np.cumsum(table_2e4.theta[1:])
        xs = np.array([100, 4096, 19999])
        assert store_1e5.lambda2_sums(xs) == pytest.approx(dense_l2[xs - 1], rel=1e-10)
        assert store_1e5.theta_sums(xs) == pytest.approx(dense_th[xs - 1], rel=1e-10)


# the prime-power sums: each batched route (a point set of integers) and its
# per-point reference in oracles
PP_SUMS = {
    "psi": (lambda store, ns: store.psi_many(ns), oracles.psi_per_point),
    "lambda_log": (lambda store, ns: store._pp_running(store._lam_log, ns),
                   oracles.lamlog_sum_per_point),
    "lambda_over_n": (lambda store, ns: store.lambda_over_n_sums(ns),
                      oracles.lambda_over_n_per_point),
    "lambda2": (lambda store, ns: store.lambda2_sums(ns), oracles.lambda2_sum_per_point),
    "theta": (lambda store, ns: store.theta_sums(ns), oracles.theta_sum_per_point),
}


@pytest.mark.parametrize("kind", list(PP_SUMS))
class TestPrimePowerSums:
    def test_matches_per_point_route(self, store_1e5, kind):
        # the report's grid and the smallest points (where theta and
        # Lambda*Lambda are 0): one running sum for every point against each
        # point's own pairwise sums
        batched, per_point = PP_SUMS[kind]
        ns = np.concatenate((identities.geometric_grid(2.0, 10.0 ** 5),
                             [1.0, 3.0, 4.0])).astype(np.int64)
        got = batched(store_1e5, ns)
        for n, g in zip(ns.tolist(), got):
            want = per_point(store_1e5, n)
            assert abs(g - want) <= 1e-13 * abs(want), n

    def test_point_alone_equals_the_batch(self, store_1e5, kind):
        # a point's value does not depend on its companion points
        batched, _ = PP_SUMS[kind]
        ns = np.concatenate((identities.geometric_grid(2.0, 10.0 ** 5),
                             [1.0, 3.0, 4.0, 99_999.5])).astype(np.int64)
        got = batched(store_1e5, ns[::-1])[::-1]
        assert got[-4] == 0.0
        for n, g in zip(ns, got):
            assert batched(store_1e5, [n])[0] == g, n
        assert len(batched(store_1e5, np.zeros(0, dtype=np.int64))) == 0

    def test_chunks_do_not_change_the_bits(self, store_1e5, monkeypatch, kind):
        # a running sum taken in chunks, each chunk's first term taking the
        # carry, has the bits of one cumsum
        batched, _ = PP_SUMS[kind]
        ns = identities.geometric_grid(100.0, 10.0 ** 5).astype(np.int64)
        whole = batched(store_1e5, ns)
        for chunk in (1, 7, 1000):
            monkeypatch.setattr(summatory, "_PP_CHUNK", chunk)
            assert batched(store_1e5, ns).tobytes() == whole.tobytes(), chunk


class TestThetaSums:
    def test_rows_match_scalar_compensated_sum(self, store_1e5):
        # the same row values Lambda(a) (2 R_a(n/a) - R_a(sqrt n)), each R_a
        # one cumsum, added point by point in a scalar NeumaierSum: equal
        # bit for bit, so the vectorized compensation is NeumaierSum.add
        from mertenslab.accum import NeumaierSum

        xs = identities.geometric_grid(100.0, 10.0 ** 5)
        got = store_1e5.theta_sums(xs)
        for x, g in zip(xs, got):
            n = int(x)
            rows = store_1e5._pp_upto(math.isqrt(n))
            log_pp = store_1e5._pp_log(0, store_1e5._pp_upto(n // 2))
            total = NeumaierSum()
            for j in range(rows):
                hi = store_1e5._pp_upto(n // int(store_1e5.pp[j]))
                run = np.cumsum(store_1e5.pp_lam[:hi] / (float(log_pp[j]) + log_pp[:hi]))
                total.add(float(store_1e5.pp_lam[j]) * (2.0 * run[hi - 1] - run[rows - 1]))
            assert g == total.value, x


class TestOneSievePass:
    def test_queries_read_the_stored_mu(self, monkeypatch):
        # every lookup below replays from the stored mu; the sieve is not called
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
        # about 98 windows, so a batch visits many of them
        return summatory.PrefixSums(10 ** 5, stride=self.STRIDE)

    def _ns(self, store):
        rng = np.random.default_rng(5)
        ns = rng.integers(0, store.n_max + 1, 400)
        fixed = [0, 1, store.n_max, self.STRIDE, 7 * self.STRIDE,
                 97 * self.STRIDE, 97 * self.STRIDE + 1]
        return np.concatenate((ns, fixed, ns[:50], fixed))

    def test_matches_scalar_lookup(self, store):
        # random, dilated x // k (long runs of equal floors), repeated runs
        # and the same unsorted: one lookup per run, every value bit for bit
        # that of the scalar lookup
        rng = np.random.default_rng(11)
        dilated = 99_991 // np.arange(1, 99_992)
        runs = np.repeat(rng.integers(0, store.n_max + 1, 40), rng.integers(1, 9, 40))
        for ns in (self._ns(store), dilated, runs, rng.permutation(dilated),
                   np.concatenate((runs, dilated[::-1], runs)), np.array([5])):
            self._check_scalar(store, ns)
        for out in store._cum_many(("m", "a", "fint"), np.zeros(0, dtype=np.int64)):
            assert len(out) == 0

    @staticmethod
    def _check_scalar(store, ns):
        kinds = ("m", "a", "fint")
        outs = store._cum_many(kinds, ns)
        assert len(outs) == 3 and outs[0].dtype == np.int64
        scalar = {}
        for kind, out in zip(kinds, outs):
            assert len(out) == len(ns)
            for n, got in zip(ns.tolist(), out.tolist()):
                if (kind, n) not in scalar:
                    scalar[kind, n] = store._cum_lookup(kind, n)
                assert got == scalar[kind, n], (kind, n)

    def test_big_f_many_matches_elementwise_route(self, store):
        # the dilated arguments x / k of the identity checks: each run's M
        # and A repeated as floats give M(y) log y - A(y) element by element
        for x in (99_991.5, 4096.0, 12_345.6):
            ys = x / np.arange(1.0, math.floor(x) + 1.0)
            m, a = store._cum_many(("m", "a"), np.floor(ys).astype(np.int64))
            want = m.astype(np.float64) * np.log(ys) - a
            assert store.big_f_many(ys).tobytes() == want.tobytes(), x

    @pytest.mark.parametrize("kinds", [("m",), ("a",), ("m", "a"), ("m", "a", "fint")])
    def test_one_visit_per_window(self, store, monkeypatch, kinds):
        visits = []
        window = summatory.PrefixSums._window

        def counted(self, k, kinds, top):
            visits.append(k)
            return window(self, k, kinds, top)

        monkeypatch.setattr(summatory.PrefixSums, "_window", counted)
        ns = self._ns(store)
        store._cum_many(kinds, ns)
        off = ns[ns % self.STRIDE != 0]
        assert visits == list(np.unique(off // self.STRIDE))


class TestPrefixReplay:
    """A window replay builds only the kinds asked for and only up to the
    largest offset asked for; every value it gives equals the full-window
    replay of every kind (``oracles.window_replay``) bit for bit, whatever
    the order of the requests."""

    STRIDE = 1 << 10
    N_MAX = 10 ** 5
    KINDS = ("m", "a", "fint")

    @pytest.fixture
    def store(self):
        return summatory.PrefixSums(self.N_MAX, stride=self.STRIDE)

    @pytest.fixture(scope="class")
    def full(self):
        store = summatory.PrefixSums(self.N_MAX, stride=self.STRIDE)
        return [oracles.window_replay(store, k) for k in range(len(store.cp_m))]

    def _ns(self, seed):
        seams = [k * self.STRIDE + d for k in (0, 1, 7, 50, 96, 97)
                 for d in (-1, 0, 1, 2, self.STRIDE - 1)
                 if 0 <= k * self.STRIDE + d <= self.N_MAX]
        ns = np.random.default_rng(seed).integers(0, self.N_MAX + 1, 300)
        return np.concatenate((ns, seams, [self.N_MAX])).astype(np.int64)

    def _want(self, store, full, kind, ns):
        cps = {"m": store.cp_m, "a": store.cp_a, "fint": store.cp_fint}
        out = []
        for n in ns:
            k, r = divmod(int(n), self.STRIDE)
            out.append(full[k][kind][r - 1] if r else cps[kind][k])
        return np.array(out, dtype=cps[kind].dtype)

    def _lookup(self, store, full, kinds, ns):
        for kind, got in zip(kinds, store._cum_many(kinds, ns)):
            assert np.array_equal(got, self._want(store, full, kind, ns)), kind

    def test_short_prefix_then_longer(self, store, full):
        for k in (0, 7, 50, 97):
            base = k * self.STRIDE
            self._lookup(store, full, ("a", "fint"), [base + 3])
            self._lookup(store, full, ("a", "fint"), [base + 2, base + 200])
            self._lookup(store, full, ("a",), [base + 5])
        self._lookup(store, full, self.KINDS, self._ns(1))

    def test_window_terms_builds_the_kinds_asked_for(self, store):
        # each kind has the same bits whichever others are asked with it;
        # "fint" needs "m", and "log" comes with the step ends "u"
        k, hi = 7, 7 * self.STRIDE + 200
        every = store.window_terms(k, ("m", "log", "a", "fint"), hi)
        ends = np.arange(7 * self.STRIDE + 1, hi + 1, dtype=np.float64)
        assert every["u"].tolist() == ends.tolist()
        assert every["log"].tolist() == np.log(ends).tolist()
        for kinds in (("m",), ("log",), ("a",), ("fint",), ("m", "log"), ("a", "fint")):
            got = store.window_terms(k, kinds, hi)
            want = set(kinds) | ({"m"} if "fint" in kinds else set()) \
                | ({"u"} if "log" in kinds else set())
            assert set(got) == want, kinds
            for kind, arr in got.items():
                assert arr.tolist() == every[kind].tolist(), (kinds, kind)

    def test_a_then_fint(self, store, full):
        ns = self._ns(2)
        self._lookup(store, full, ("a",), ns)
        self._lookup(store, full, ("fint",), ns)
        self._lookup(store, full, ("a", "fint"), ns[::-1])

    def test_m_alone_then_all_three(self, store, full):
        ns = self._ns(3)
        self._lookup(store, full, ("m",), ns)
        self._lookup(store, full, self.KINDS, ns)
        self._lookup(store, full, ("m",), ns[:40])

    def test_evicted_then_read_again(self, store, full):
        ns = [3 * self.STRIDE + 17]
        self._lookup(store, full, self.KINDS, ns)
        others = [k * self.STRIDE + 1000 for k in range(10, 42)]
        self._lookup(store, full, ("a",), others)
        self._lookup(store, full, self.KINDS, ns)
        self._lookup(store, full, ("fint",), ns + others)

    def test_scalar_queries(self, store, full):
        ns = self._ns(4)
        xs = np.concatenate((ns[(ns >= 1) & (ns < self.N_MAX)] + 0.25,
                             [1.0, 2.0, float(self.N_MAX)]))
        for x in xs:
            n = int(math.floor(x))
            m = int(self._want(store, full, "m", [n])[0])
            a = float(self._want(store, full, "a", [n])[0])
            assert store.mertens(x) == m
            assert store.big_f(x) == m * math.log(x) - a
            fint = float(self._want(store, full, "fint", [n - 1])[0]) if n > 1 else 0.0
            if x > n:
                fint += m * math.log(x / n)
            assert store.big_f_integral(x) == fint


class TestReplayWork:
    """Deterministic work counts of the window replay (the tracer's
    ``summatory.window_replays`` counts calls of ``_window``)."""

    STRIDE = 1 << 10

    @pytest.fixture
    def store(self):
        return summatory.PrefixSums(10 ** 5, stride=self.STRIDE)

    def test_scalar_mertens_replays_nothing(self, store, monkeypatch):
        def no_replay(self, k, kinds, top):
            raise AssertionError("a scalar M lookup replayed a window")

        monkeypatch.setattr(summatory.PrefixSums, "_window", no_replay)
        xs = np.random.default_rng(6).uniform(1, 10 ** 5, 200)
        for x in np.concatenate((xs, [1.0, self.STRIDE, self.STRIDE + 1.5, 10 ** 5])):
            store.mertens(x)
        assert store.mertens(10 ** 5) == -48

    @staticmethod
    def _recorded(store, monkeypatch):
        """Record (k, kinds, hi) of every ``window_terms`` call on store."""
        calls = []
        window_terms = store.window_terms

        def recorded(k, kinds, hi=None):
            calls.append((k, tuple(kinds), hi))
            return window_terms(k, kinds, hi)

        monkeypatch.setattr(store, "window_terms", recorded)
        return calls

    def test_mertens_many_replays_m_alone(self, store, monkeypatch):
        calls = self._recorded(store, monkeypatch)
        xs = np.random.default_rng(7).uniform(1, 10 ** 5, 500)
        assert store.mertens_many(xs).tolist() == [store.mertens(x) for x in xs]
        assert calls and all(kinds == ("m",) for _, kinds, _ in calls)

    @pytest.mark.parametrize("r", [1, 37, 1023])
    def test_scalar_big_f_replays_its_prefix(self, store, monkeypatch, r):
        calls = self._recorded(store, monkeypatch)
        k = 41
        store.big_f(k * self.STRIDE + r + 0.5)
        assert calls == [(k, ("a",), k * self.STRIDE + 1 + r)]

    # the longest span of one replay at the default stride, in integers;
    # this bound may be lowered, never raised
    REPLAY_SPAN = 1 << 12

    def test_replays_span_at_most_a_stride(self, store_1e5, monkeypatch):
        calls = self._recorded(store_1e5, monkeypatch)
        rng = np.random.default_rng(8)
        xs = np.concatenate((rng.uniform(1, 10 ** 5, 300), [10 ** 5 - 0.5, 10 ** 5]))
        for x in xs[:100]:
            store_1e5.big_f(x)
            store_1e5.big_f_integral(x)
        store_1e5._cum_many(("m", "a", "fint"), np.floor(xs).astype(np.int64))
        store_1e5.big_f_many(xs)
        assert len(calls) > 100
        assert store_1e5.stride == summatory.DEFAULT_STRIDE <= self.REPLAY_SPAN
        for k, _, hi in calls:
            assert hi - (k * store_1e5.stride + 1) <= store_1e5.stride

    def test_lookups_keep_nothing(self, store):
        # the store holds arrays and integers only, and no lookup replaces
        # or writes into any of them
        before = dict(vars(store))
        assert all(isinstance(v, (np.ndarray, int)) for v in before.values())
        data = {name: v.tobytes() for name, v in before.items() if isinstance(v, np.ndarray)}
        xs = np.random.default_rng(9).uniform(1, 10 ** 5, 200)
        for x in xs[:50]:
            store.mertens(x)
            store.big_f(x)
            store.big_f_integral(x)
        store._cum_many(("m", "a", "fint"), np.floor(xs).astype(np.int64))
        store.big_f_many(xs)
        hprofile.h_derivative_many(store, xs)
        after = vars(store)
        assert list(after) == list(before)
        assert all(after[name] is value for name, value in before.items())
        assert all(after[name].tobytes() == raw for name, raw in data.items())


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

    def test_pp_log_is_log_of_pp(self):
        # the Selberg-weight sums take log p^k as np.log of pp; at a prime
        # that has the bits of Lambda, so only the p^k, k >= 2, differ
        store = summatory.PrefixSums(10 ** 6)
        log_pp = store._pp_log(0, len(store.pp))
        assert log_pp.tobytes() == np.log(store.pp.astype(np.float64)).tobytes()
        differ = log_pp != store.pp_lam
        assert np.count_nonzero(differ) == 236
        is_prime = np.isin(store.pp, sieve.base_primes(10 ** 6))
        assert log_pp[is_prime].tobytes() == store.pp_lam[is_prime].tobytes()
        assert np.array_equal(differ, ~is_prime)

    def test_store_keeps_three_prime_power_arrays(self):
        # pp and pp_lam are all the store keeps per prime power; this count,
        # 2, may be lowered, never raised
        store = summatory.PrefixSums(10 ** 5)
        n_pp = len(store.pp)
        held = [name for name, v in vars(store).items()
                if isinstance(v, np.ndarray) and len(v) == n_pp]
        assert sorted(held) == ["pp", "pp_lam"]

    def test_store_matches_reference_kernel(self, monkeypatch):
        names = ("mu", "pp", "pp_lam", "cp_m", "cp_a", "cp_fint")
        store = summatory.PrefixSums(2 * 10 ** 5, stride=2 ** 10)
        monkeypatch.setattr(sieve, "build_segment", oracles.build_segment_reference)
        ref = summatory.PrefixSums(2 * 10 ** 5, stride=2 ** 10)
        for name in names:
            a, b = getattr(store, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_mertens_bounded_by_index(self, store_1e5):
        ks = np.geomspace(1, 10 ** 5, 200)
        ms = store_1e5.mertens_many(ks)
        assert np.all(np.abs(ms) <= np.floor(ks))


def test_log_square_remainder_at_1e6():
    r = summatory.log_square_sums([10 ** 6])[0] - 2e6
    assert abs(r) <= 5 * math.log(10 ** 6) ** 2
