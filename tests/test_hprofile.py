import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import oracles
from mertenslab import hprofile, identities, summatory
from mertenslab.errors import CapabilityError, RangeError

LOG2 = math.log(2)
N_STRIDED = 10 ** 5 + 7


@pytest.fixture(scope="module")
def strided_stores():
    # at stride 39 the mertens zero run 39..40 straddles the first window
    # seam, and at stride 211 the run 422..425 continues for three steps
    # past one; at stride 2845 the run 45519..45522 has two steps on each
    # side of the first walk block seam, 16 * 2845 = 45520
    return {stride: summatory.PrefixSums(N_STRIDED, stride=stride)
            for stride in (39, 211, 1000, 2845, 1 << 16)}


def assert_same_stream(res, want):
    assert res.cum_abs.tolist() == want.cum_abs.tolist()
    assert res.cum_signed.tolist() == want.cum_signed.tolist()
    assert res.f_at.tolist() == want.f_at.tolist()


def assert_same_events(walk, want):
    assert walk.zeros_y == want.zeros_y.tolist()
    assert walk.zeros_cum_abs == want.zeros_cum_abs.tolist()
    assert list(walk.decade_sup.items()) == list(want.decade_sup.items())


class TestStreamCumulative:
    def test_matches_quadrature(self, store_1e4):
        def h_abs(x):
            y = math.exp(math.sqrt(x))
            return abs(store_1e4.big_f(y)) / y

        ys = np.array([2.0, 3.7, 10.0, 157.0])
        res = hprofile.cumulative_at(store_1e4, ys, kind="smoothed")
        for i, y in enumerate(ys):
            x_top = math.log(y) ** 2
            cuts = sorted({math.log(k) ** 2 for k in range(1, int(y) + 1)} | {x_top})
            want = sum(quad(h_abs, a, b, limit=200)[0]
                       for a, b in zip(cuts[:-1], cuts[1:]) if b <= x_top + 1e-12)
            assert res.cum_abs[i] == pytest.approx(want, abs=1e-9), y

    def test_query_order_independent(self, store_1e4):
        ys = np.array([50.0, 2.0, 700.0, 7.7])
        res = hprofile.cumulative_at(store_1e4, ys, kind="mertens")
        res_sorted = hprofile.cumulative_at(store_1e4, np.sort(ys), kind="mertens")
        for i, y in enumerate(ys):
            j = int(np.searchsorted(np.sort(ys), y))
            assert res.cum_abs[i] == res_sorted.cum_abs[j]

    def test_first_smoothed_zero_is_sqrt30(self, store_1e4):
        walk = hprofile.profile_walk(store_1e4, ("smoothed",))["smoothed"]
        assert len(walk.zeros_y) >= 1
        assert walk.zeros_y[0] == pytest.approx(math.sqrt(30.0), rel=1e-10)

    def test_mertens_zero_runs(self, store_1e4):
        # M touches zero at 2, then on the run 39..40
        zs = hprofile.profile_walk(store_1e4, ("mertens",))["mertens"].zeros_y
        assert zs[:3] == [2.0, 39.0, 40.0]

    def test_empty_queries(self, store_1e4):
        res = hprofile.cumulative_at(store_1e4, np.array([]), kind="smoothed")
        assert len(res.cum_abs) == 0

    def test_query_beyond_store_cap(self, store_1e4):
        with pytest.raises(CapabilityError) as err:
            hprofile.cumulative_at(store_1e4, [2e4])
        assert err.value.max_usable == 10 ** 4

    def test_non_finite_query_rejected(self, store_1e4):
        for bad in ([float("nan")], [5.0, float("nan")]):
            with pytest.raises(RangeError):
                hprofile.cumulative_at(store_1e4, bad)
        with pytest.raises(CapabilityError):
            hprofile.cumulative_at(store_1e4, [float("inf")])

    def test_stride_does_not_change_the_stream(self, strided_stores):
        # window seams fall on the stride grid
        ys = np.array([2.5, 39.5, 40.0, 1000.3, 65536.5, float(N_STRIDED)])
        ref = {kind: hprofile.cumulative_at(strided_stores[1 << 16], ys, kind)
               for kind in ("smoothed", "mertens")}
        ref_walk = hprofile.profile_walk(strided_stores[1 << 16], ("smoothed", "mertens"))
        for stride in (39, 211, 1000, 2845):
            store = strided_stores[stride]
            for kind in ("smoothed", "mertens"):
                res = hprofile.cumulative_at(store, ys, kind)
                assert np.allclose(res.cum_abs, ref[kind].cum_abs, rtol=1e-12, atol=0)
                walk, want = hprofile.profile_walk(store, (kind,))[kind], ref_walk[kind]
                if kind == "mertens":
                    assert walk.zeros_y == want.zeros_y
                    assert walk.decade_sup == want.decade_sup
                else:
                    assert np.allclose(walk.zeros_y, want.zeros_y, rtol=1e-12, atol=0)

    def test_stream_does_not_replay_windows(self, store_1e4, monkeypatch):
        def no_replay(self, k, kinds, top):
            raise AssertionError("the stream replayed a window")

        monkeypatch.setattr(summatory.PrefixSums, "_window", no_replay)
        ys = np.geomspace(2.0, 10 ** 4, 30)
        for kind in ("smoothed", "mertens"):
            res = hprofile.cumulative_at(store_1e4, ys, kind)
            assert np.all(np.isfinite(res.cum_abs))

    def test_block_seam_inside_a_zero_run(self, strided_stores):
        store = strided_stores[2845]
        seam = summatory.BLOCK * store.stride
        assert seam == 45520
        assert [store.mertens(n) for n in range(seam - 2, seam + 4)] == [-1, 0, 0, 0, 0, -1]

    def test_mertens_walk_builds_no_a(self, monkeypatch):
        # the step profile needs M and the logs only, never mu(n) log n;
        # one window_terms call per block: 157 windows of 64 make 10 blocks
        store = summatory.PrefixSums(10 ** 4, stride=1 << 6)
        asked = []
        window_terms = store.window_terms

        def recorded(k, kinds, hi=None):
            asked.append(kinds)
            return window_terms(k, kinds, hi)

        monkeypatch.setattr(store, "window_terms", recorded)
        hprofile.stream_cumulative(store, {"mertens": ()})
        assert len(asked) == 10 and all("a" not in kinds for kinds in asked)

    # query points at seams, inside the zero runs 39..40, 422..425 and
    # 45519..45522, on both sides of the first smoothed zero, sqrt(30), at
    # y = 1 and n_max, in unsorted order, with duplicates, and with
    # floor(max y) < n_max, where the single pass stops short of the walk
    QUERY_SETS = (
        [2.5, 39.0, 39.5, 40.0, 423.0, 1000.3, 65536.5, float(N_STRIDED)],
        [40.0, 2.0, 424.7, 2.0, 5.6, 5.2],
        [78.0, 211.0, 422.0, 5000.0, 12345.6, 45519.0, 45520.5, 45521.0],
        [float(N_STRIDED) + 0.5, 17.0, 65536.0],
        [1.0],
    )

    @pytest.mark.parametrize("stride", [39, 211, 1000, 2845, 1 << 16])
    def test_matches_single_pass(self, strided_stores, stride):
        # a walk of the built store that is given the points answers them
        # with the single pass's values, bit for bit
        store = strided_stores[stride]
        for ys in self.QUERY_SETS:
            for kind in ("smoothed", "mertens"):
                assert_same_stream(hprofile.cumulative_at(store, ys, kind),
                                   oracles.stream_single_pass(store, ys, kind))

    @pytest.mark.parametrize("stride", [39, 211, 1000, 2845, 1 << 16])
    def test_build_answers_match_single_pass(self, strided_stores, stride, monkeypatch):
        # a build that carries the points answers each in the block that
        # holds its floor, with the single pass's values, bit for bit; a
        # point's answer does not depend on the other points
        plan = {kind: np.concatenate(self.QUERY_SETS) for kind in ("smoothed", "mertens")}
        store = summatory.PrefixSums(N_STRIDED, stride=stride, walk=hprofile.Walk(plan))
        monkeypatch.setattr(hprofile, "stream_cumulative", None)
        for ys in self.QUERY_SETS:
            for kind in ("smoothed", "mertens"):
                assert_same_stream(hprofile.cumulative_at(store, ys, kind),
                                   oracles.stream_single_pass(strided_stores[stride], ys, kind))

    @pytest.mark.parametrize("stride", [39, 211, 1000, 2845, 1 << 16])
    def test_walk_matches_single_pass(self, strided_stores, stride):
        # the walk's zeros, their |H| integrals and the decade sups are those
        # of one pass over all of [1, n_max]: the zero run 45519..45522
        # straddles a block seam at stride 2845
        store = strided_stores[stride]
        for kind in ("smoothed", "mertens"):
            assert_same_events(hprofile.profile_walk(store, (kind,))[kind],
                               oracles.stream_single_pass(store, [float(N_STRIDED)], kind))

    @pytest.mark.parametrize("case", ["run ends on a seam", "one step at n_max",
                                      "run reaches n_max"])
    def test_zero_run_on_a_block_end_matches_single_pass(self, case):
        # a zero run that ends on a block's last step takes the integral of
        # |H| after that block, a one-step run there the integral before its
        # step, and M(n_max + 1) counts as nonzero, all as in one pass, bit
        # for bit.  A seam (a multiple of BLOCK * stride) is divisible by 16,
        # so mu vanishes there and no run starts on it: a one-step run ends a
        # block only at n_max.  The two integrals differ in rounding alone,
        # so the search takes the first store where they differ.
        zero = oracles.mertens_dense(3001) == 0
        at, before, after = zero[1:-1], zero[:-2], zero[2:]    # n = 1 .. 3000
        block = summatory.BLOCK

        def stores():
            if case == "run ends on a seam":
                for stride in range(3000 // block - 1, 0, -1):
                    for end in range(block * stride, 3000, block * stride):
                        if at[end - 1] and before[end - 1] and not after[end - 1]:
                            yield 3000, stride, end
            else:
                ends = at & (before if case == "run reaches n_max" else ~before)
                for n_max in (np.flatnonzero(ends)[::-1] + 1).tolist():
                    for stride in range(n_max // block - 1, 0, -1):
                        yield n_max, stride, n_max

        for n_max, stride, end in stores():
            store = summatory.PrefixSums(n_max, stride=stride)
            want = oracles.stream_single_pass(store, [float(n_max)], "mertens")
            before_step = hprofile.cumulative_at(store, [float(end)], "mertens").cum_abs[0]
            zeros = want.zeros_y.tolist()
            assert end in zeros
            after_block = want.zeros_cum_abs[zeros.index(end)] if end < n_max else want.total_abs
            if before_step != after_block:
                break
        else:
            pytest.fail("no store tells the two integrals apart")
        assert_same_events(hprofile.profile_walk(store, ("mertens",))["mertens"], want)

    @pytest.mark.parametrize("stride", [211, 2845, 1 << 16])
    def test_joint_walk_matches_separate_walks(self, strided_stores, stride):
        # one pass for both kinds shares each block's M, logs and Q; every
        # answer, zero and decade sup is that of the kind's own walk
        store = strided_stores[stride]
        ys = [2.5, 39.5, 1000.3, 45520.5, float(N_STRIDED)]
        joint = hprofile.stream_cumulative(store, {"mertens": ys, "smoothed": ys})
        for kind in ("smoothed", "mertens"):
            alone = hprofile.stream_cumulative(store, {kind: ys})[kind]
            assert joint[kind].answers == alone.answers, kind
            assert joint[kind].zeros_y == alone.zeros_y, kind
            assert joint[kind].zeros_cum_abs == alone.zeros_cum_abs, kind
            assert list(joint[kind].decade_sup.items()) == list(alone.decade_sup.items())

    @pytest.mark.parametrize("stride", [211, 2845, 1 << 16])
    def test_walks_in_the_build_match_stream_and_single_pass(self, strided_stores,
                                                             stride, monkeypatch):
        # a build that carries the walks hands each block's terms to them
        # once its checkpoints are set: the checkpoints are those of a build
        # without walks, and every walk is that of stream_cumulative and of
        # one pass over [1, n_max], bit for bit, the tail window included
        plain = strided_stores[stride]
        ys = [2.5, 39.5, 1000.3, 45520.5, float(N_STRIDED)]
        for kinds in (("mertens",), ("smoothed", "mertens")):
            plan = {kind: ys for kind in kinds}
            walk = hprofile.Walk(plan)
            store = summatory.PrefixSums(N_STRIDED, stride=stride, walk=walk)
            assert walk.seconds > 0.0
            for name in ("cp_m", "cp_a", "cp_fint"):
                assert getattr(store, name).tolist() == getattr(plain, name).tolist(), name
            assert store.mertens_at_n_max == plain.mertens_at_n_max
            streamed = hprofile.stream_cumulative(plain, plan)
            with monkeypatch.context() as m:
                m.setattr(hprofile, "stream_cumulative", None)
                walks = hprofile.profile_walk(store, kinds)
                for kind in kinds:
                    assert walks[kind].answers == streamed[kind].answers, kind
                    assert_same_events(walks[kind], oracles.stream_single_pass(
                        plain, [float(N_STRIDED)], kind))
                    assert_same_stream(hprofile.cumulative_at(store, ys, kind),
                                       oracles.stream_single_pass(plain, ys, kind))

    def test_build_walks_a_tail_window_alone(self, monkeypatch):
        # 16 full windows fill the first block, so the last five integers
        # make a block of their own, which only the walks read
        n_max = summatory.BLOCK * 64 + 5
        ys = [float(n_max - 5), n_max - 2.5, float(n_max)]
        walk = hprofile.Walk({"smoothed": ys, "mertens": ys})
        store = summatory.PrefixSums(n_max, stride=64, walk=walk)
        plain = summatory.PrefixSums(n_max, stride=64)
        assert store.mertens_at_n_max == plain.mertens_at_n_max
        monkeypatch.setattr(hprofile, "stream_cumulative", None)
        for kind in ("smoothed", "mertens"):
            walked = hprofile.profile_walk(store, (kind,))[kind]
            assert_same_events(walked, oracles.stream_single_pass(plain, [float(n_max)], kind))
            assert_same_stream(hprofile.cumulative_at(store, ys, kind),
                               oracles.stream_single_pass(plain, ys, kind))

    def test_decade_sup_deep_inside_a_block(self, strided_stores):
        # at stride 211, sup |M(n)|/n over [10^4, 10^5) lies at n = 11 773,
        # 1 644 steps into the block that starts at 10 129; that block's
        # first ratio and the sup of the decade's earlier blocks lie below
        # it, so only max |M| over the block may decide to skip its division
        store = strided_stores[211]
        mertens = oracles.mertens_dense(10 ** 5)
        want = max(abs(int(mertens[n])) / n for n in range(10 ** 4, 10 ** 5))
        assert want == abs(store.mertens(11773)) / 11773
        assert (11773 - 1) // (summatory.BLOCK * 211) == (10129 - 1) // (summatory.BLOCK * 211)
        earlier = max(abs(int(mertens[n])) / n for n in range(10 ** 4, 10129))
        assert abs(store.mertens(10129)) / 10129 < earlier < want
        assert hprofile.profile_walk(store, ("mertens",))["mertens"].decade_sup[4] == want

    def test_profile_walk_walks_only_new_kinds(self, monkeypatch):
        store = summatory.PrefixSums(3000, stride=97)
        walked = []
        stream_cumulative = hprofile.stream_cumulative

        def counted(store, plan):
            walked.append(tuple(plan))
            return stream_cumulative(store, plan)

        monkeypatch.setattr(hprofile, "stream_cumulative", counted)
        hprofile.profile_walk(store, ("mertens",))
        both = hprofile.profile_walk(store, ("smoothed", "mertens", "smoothed"))
        assert walked == [("mertens",), ("smoothed",)]
        assert sorted(both) == ["mertens", "smoothed"]
        with pytest.raises(RangeError):
            hprofile.profile_walk(store, ("smooth",))

    def test_walks_once_per_store(self, monkeypatch):
        # the points a walk was given, every point a profile reads among
        # them, are read from its answers: build_profile neither walks nor
        # replays, and its sup of |H'| is that of the store's lookups
        store = summatory.PrefixSums(3000, stride=97)
        samples, grid = hprofile.profile_ys(3000)
        ys = np.concatenate(([2.0, 100.5, 2999.0], samples, grid))
        first = {kind: hprofile.cumulative_at(store, ys, kind)
                 for kind in ("smoothed", "mertens")}
        walks = hprofile.profile_walk(store, ("smoothed", "mertens"))
        xd = np.maximum(np.log(grid) ** 2, hprofile.X_MIN_GUARD)
        m = store.mertens_many(grid).astype(np.float64)
        h_prime = {"smoothed": (m - store.big_f_many(grid)) / (2.0 * np.sqrt(xd) * grid),
                   "mertens": m / grid / (2.0 * np.sqrt(xd))}

        def refused(*args, **kwargs):
            raise AssertionError("the store was walked or replayed again")

        monkeypatch.setattr(hprofile, "stream_cumulative", refused)
        monkeypatch.setattr(summatory.PrefixSums, "_window", refused)
        for kind in ("smoothed", "mertens"):
            assert_same_stream(hprofile.cumulative_at(store, ys[::-1], kind),
                               oracles.stream_single_pass(store, ys[::-1], kind))
            assert_same_stream(hprofile.cumulative_at(store, ys, kind), first[kind])
            assert hprofile.profile_walk(store, (kind,))[kind] is walks[kind]
            prof = hprofile.build_profile(store, kind)
            assert prof.deriv_sup == float(np.abs(h_prime[kind]).max())

    def test_tail_sups_match_single_pass(self, strided_stores):
        for store in strided_stores.values():
            res = oracles.stream_single_pass(store, [float(N_STRIDED)], "mertens")
            want, running = {}, 0.0
            for k in sorted(res.decade_sup, reverse=True):
                running = max(running, res.decade_sup[k])
                want[k] = running
            got = identities.mertens_tail_sups(store, k_lo=0)
            assert got == {k: want[k] for k in range(0, 6)}


class TestBuildProfile:
    # 424 lies inside the zero run 422..425, which the cut store ends early
    @pytest.mark.parametrize("y_max", [10, 40, 424, 1000, N_STRIDED])
    def test_matches_single_pass(self, strided_stores, y_max):
        # the profile of [1, y] is that of the store PrefixSums(y): bit for
        # bit the single pass over the larger store cut at y
        for stride, full in strided_stores.items():
            store = full if y_max == full.n_max else summatory.PrefixSums(y_max, stride)
            for kind in ("smoothed", "mertens"):
                prof = hprofile.build_profile(store, kind)
                res = oracles.stream_single_pass(full, prof.y_samples, kind)
                assert prof.y_samples[-1] == y_max
                assert prof.h_values.tolist() == (res.f_at / prof.y_samples).tolist()
                assert prof.cumulative_abs_integral.tolist() == res.cum_abs.tolist()
                assert prof.cumulative_signed_integral.tolist() == res.cum_signed.tolist()
                assert prof.zeros.tolist() == (np.log(res.zeros_y) ** 2).tolist()
                assert prof.cum_abs_at_zeros.tolist() == res.zeros_cum_abs.tolist()
                assert prof.decade_sups == (res.decade_sup or None)

    def test_single_sample_profile(self):
        prof = hprofile.build_profile(summatory.PrefixSums(2), "smoothed")
        assert len(prof.x_samples) == 1
        assert prof.x_samples[0] == pytest.approx(LOG2 ** 2)
        assert prof.h_values[0] == pytest.approx(LOG2 / 2)

    def test_mertens_point(self):
        prof = hprofile.build_profile(summatory.PrefixSums(10), "mertens")
        assert prof.h_values[-1] == pytest.approx(-0.1)

    def test_empty_profile_is_not_an_error(self):
        prof = hprofile.build_profile(summatory.PrefixSums(1), "mertens")
        assert len(prof.x_samples) == 0
        assert prof.finite_zero_branch()
        assert hprofile.interval_stats(prof) == []

    def test_h_bounded(self, store_1e4):
        prof = hprofile.build_profile(store_1e4, "smoothed")
        assert np.abs(prof.h_values).max() <= 1.0 + 1e-9

    def test_cumulative_monotone(self, store_1e4):
        prof = hprofile.build_profile(store_1e4, "smoothed")
        assert np.all(np.diff(prof.cumulative_abs_integral) >= -1e-9)

    def test_zero_cum_consistent_with_samples(self, store_1e4):
        prof = hprofile.build_profile(store_1e4, "smoothed")
        # cumulative at the first zero must sit between neighboring samples
        z = prof.zeros[0]
        i = int(np.searchsorted(prof.x_samples, z))
        lo = prof.cumulative_abs_integral[i - 1] if i else 0.0
        hi = prof.cumulative_abs_integral[min(i, len(prof.x_samples) - 1)]
        assert lo - 1e-12 <= prof.cum_abs_at_zeros[0] <= hi + 1e-12

    def test_samples_per_decade_floor(self, store_1e4):
        with pytest.raises(RangeError):
            hprofile.build_profile(store_1e4, "smoothed", samples_per_decade=5)


class TestSyntheticProfiles:
    def test_sin_like_bracket_count(self):
        xs = np.linspace(0.0, 10.0, 401)
        prof = oracles.build_synthetic_profile(lambda x: math.sin(x), xs)
        want = [k * math.pi for k in range(0, 4)]
        assert len(prof.zeros) == len(want)
        for got, w in zip(prof.zeros, want):
            assert got == pytest.approx(w, abs=1e-12)

    def test_parabolic_arch_closed_forms(self):
        a, b, c = 1.0, 3.5, 0.8
        arch = lambda x: c * (x - a) * (b - x) if a <= x <= b else 0.0
        xs = np.linspace(0.5, 4.0, 176)
        prof = oracles.build_synthetic_profile(
            arch, xs, dh_func=lambda x: c * (a + b - 2 * x) if a <= x <= b else 0.0)
        zs = prof.zeros
        assert any(abs(z - a) <= 1e-10 * max(a, 1) for z in zs)
        assert any(abs(z - b) <= 1e-10 * b for z in zs)
        ivs = hprofile.interval_stats(prof, m_hat=c * (b - a))
        arch_iv = max(ivs, key=lambda iv: iv.integral_abs)
        want = c * (b - a) ** 3 / 6.0
        assert arch_iv.integral_abs == pytest.approx(want, rel=1e-9)
        # endpoint-derivative bound: ratio exactly one third
        ratio = arch_iv.integral_abs / arch_iv.deriv_bound
        assert ratio == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_mean_value_point_on_arch(self):
        a, b, c = 0.0, 2.0, 1.0
        arch = lambda x: c * (x - a) * (b - x)
        xs = np.linspace(a, b, 81)
        prof = oracles.build_synthetic_profile(arch, xs)
        ivs = hprofile.interval_stats(prof)
        iv = ivs[0]
        assert iv.h_at_xi * (iv.b - iv.a) == pytest.approx(iv.integral_abs, rel=1e-12)
        assert arch(iv.xi) == pytest.approx(iv.h_at_xi, rel=1e-8)


class TestDerivative:
    def test_hand_value(self, store_1e4):
        y = 2.5
        x = math.log(y) ** 2
        want = (store_1e4.mertens(y) - store_1e4.big_f(y)) / (2 * math.sqrt(x) * y)
        assert hprofile.h_derivative_many(store_1e4, [y])[0] == pytest.approx(want, rel=0)
        assert store_1e4.mertens(2.5) == 0
        assert store_1e4.big_f(2.5) == pytest.approx(LOG2, abs=1e-15)

    def test_finite_difference_agreement(self, store_1e5):
        rng = np.random.default_rng(7)
        ys = np.exp(rng.uniform(math.log(5.0), math.log(10 ** 4), 100))
        ys = ys[np.abs(ys - np.round(ys)) > 0.05]
        step = 1e-6

        def h(xx):
            yy = math.exp(math.sqrt(xx))
            return store_1e5.big_f(yy) / yy

        hps = hprofile.h_derivative_many(store_1e5, ys)
        for y, hp in zip(ys, hps):
            x = math.log(y) ** 2
            fd = (h(x + step / 2) - h(x - step / 2)) / step
            assert abs(hp - fd) <= 1e-4, y

    def test_near_one_guard(self, store_1e4):
        v = hprofile.h_derivative_many(store_1e4, [1.0000001])[0]
        assert math.isfinite(v)
        with pytest.raises(RangeError):
            hprofile.h_derivative_many(store_1e4, [0.5])


class TestConstants:
    def test_zero_function_profile(self):
        xs = np.linspace(0.0, 4.0, 41)
        prof = oracles.build_synthetic_profile(lambda x: 0.0, xs,
                                                dh_func=lambda x: 0.0)
        c = hprofile.estimate_constants(prof)
        assert c.alpha_hat == 0.0
        assert c.mean_abs_hat == 0.0
        assert c.deriv_sup_hat == 0.0
        assert c.h_param == 1.0          # floor kicks in
        assert math.isnan(c.kappa)
        assert c.epsilon == 0.0

    def test_signed_span_matches_pair_oracle(self, store_1e4):
        prof = hprofile.build_profile(store_1e4, "smoothed", samples_per_decade=16)
        c = hprofile.estimate_constants(prof)
        cs = np.concatenate(([0.0], prof.cumulative_signed_integral))
        brute = max(abs(cs[i] - cs[j])
                    for i in range(len(cs)) for j in range(len(cs)))
        assert c.signed_span_hat == pytest.approx(brute, rel=1e-12)

    def test_window_invariants(self, store_1e5):
        prof = hprofile.build_profile(store_1e5, "smoothed", samples_per_decade=16)
        c = hprofile.estimate_constants(prof)
        assert c.mean_abs_tail_hat <= c.alpha_hat + 1e-9
        assert c.alpha_hat <= 1.0 + 1e-9

    def test_kappa_formula(self, store_1e5):
        prof = hprofile.build_profile(store_1e5, "mertens", samples_per_decade=16)
        c = hprofile.estimate_constants(prof)
        if math.isfinite(c.kappa):
            want = ((2 * c.h_param - c.deriv_sup_hat) * c.alpha_hat
                    / (2 * c.signed_span_hat * c.h_param ** 2))
            assert c.kappa == pytest.approx(want, rel=1e-12)
            assert c.epsilon == pytest.approx(c.alpha_hat / c.h_param, rel=1e-12)

    def test_mean_value_consistency(self, store_1e5):
        # the interval mean can never exceed the exact sup of |H| on [a, b];
        # for the step profile that sup sits at step left endpoints
        prof = hprofile.build_profile(store_1e5, "mertens", samples_per_decade=16)
        hprofile.estimate_constants(prof)
        for iv in prof.intervals[:100]:
            y_a, y_b = math.exp(math.sqrt(iv.a)), math.exp(math.sqrt(iv.b))
            cands = [y_a] + [float(n) for n in
                             range(int(math.floor(y_a)) + 1,
                                   int(math.floor(y_b)) + 1)]
            sup = max(abs(store_1e5.mertens(y)) / y for y in cands)
            assert iv.h_at_xi <= sup + 1e-9

    def test_interval_derivative_bound_holds(self, store_1e5):
        prof = hprofile.build_profile(store_1e5, "mertens", samples_per_decade=16)
        hprofile.estimate_constants(prof)
        for iv in prof.intervals:
            assert iv.integral_abs <= iv.deriv_bound + 1e-12

    def test_one_interval_pass(self, store_1e5, monkeypatch):
        # ratchet: the constants build the intervals once and fill in
        # damped_bound on the same objects once kappa is known
        calls = []
        interval_stats = hprofile.interval_stats

        def counted(profile, *args, **kwargs):
            calls.append(profile)
            return interval_stats(profile, *args, **kwargs)

        monkeypatch.setattr(hprofile, "interval_stats", counted)
        for kind in ("smoothed", "mertens"):
            prof = hprofile.build_profile(store_1e5, kind, samples_per_decade=16)
            c = hprofile.estimate_constants(prof)
            assert len(calls) == 1 and calls.pop() is prof, kind
            # at 1e5 the smoothed profile has fewer than two zeros
            assert bool(prof.intervals) == (kind == "mertens")
            assert math.isfinite(c.kappa), kind
            for iv in prof.intervals:
                width = iv.b - iv.a
                assert iv.deriv_bound == 0.5 * prof.deriv_sup * width * width
                damped = c.alpha_hat * width * (1.0 - c.kappa * iv.h_at_xi)
                assert iv.damped_bound == damped

    def test_empty_profile_rejected(self):
        prof = hprofile.build_profile(summatory.PrefixSums(1), "smoothed")
        with pytest.raises(RangeError):
            hprofile.estimate_constants(prof, tail_fraction=0.5)
        single = hprofile.build_profile(summatory.PrefixSums(2), "smoothed")
        c = hprofile.estimate_constants(single, tail_fraction=0.5)
        assert c.n_window_samples == 1
        with pytest.raises(RangeError):
            hprofile.estimate_constants(single, tail_fraction=1.5)


class TestIteration:
    def test_hand_trajectory(self):
        it = hprofile.lambda_iteration(0.5, 3)
        assert it.lambdas.tolist() == [1.0, 1.5, 1.75, 1.875]
        assert it.limit == 2.0

    def test_degenerate_small_lambda(self):
        it = hprofile.lambda_iteration(1e-12, 5)
        assert np.all(np.abs(it.lambdas - 1.0) < 1e-11)

    def test_convergence_by_50(self):
        it = hprofile.lambda_iteration(0.5, 50)
        assert abs(it.lambdas[-1] - 2.0) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(lam=st.floats(min_value=0.01, max_value=0.99))
    def test_contraction_bound(self, lam):
        n = 40
        it = hprofile.lambda_iteration(lam, n)
        limit = it.limit
        gap0 = abs(1.0 - limit)
        for k in range(n + 1):
            # the linear recurrence attains the contraction bound exactly,
            # so allow a few ulps of slack on top
            bound = lam ** k * gap0
            assert abs(it.lambdas[k] - limit) <= bound * (1 + 1e-9) + 1e-13
        # strictly increasing until it saturates at the fixed point
        diffs = np.diff(it.lambdas)
        saturated = np.abs(it.lambdas[:-1] - limit) <= 8 * np.finfo(float).eps * limit
        assert np.all((diffs > 0) | saturated)
        assert np.all(it.lambdas <= limit * (1 + 1e-15))

    def test_two_bound_readings(self):
        it = hprofile.lambda_iteration(0.5, 60, alpha=0.7)
        assert it.bounds_recurrence[-1] == pytest.approx(0.7 * 0.5, rel=1e-9)
        assert it.bounds_contracting[-1] < 1e-10

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(RangeError):
                hprofile.lambda_iteration(bad, 5)
        with pytest.raises(RangeError):
            hprofile.lambda_iteration(0.5, 0)


class TestProfileInvariants:
    def test_zeros_strictly_increasing(self, store_1e5):
        for kind in ("smoothed", "mertens"):
            prof = hprofile.build_profile(store_1e5, kind, samples_per_decade=16)
            if len(prof.zeros) >= 2:
                assert np.all(np.diff(prof.zeros) > 0), kind

    def test_h_vanishes_at_refined_zeros(self, store_1e5):
        prof = hprofile.build_profile(store_1e5, "smoothed")
        for z in prof.zeros:
            assert abs(prof.h_continuous(float(z))) <= 1e-9, z

    def test_sign_constant_between_zeros(self, store_1e5):
        prof = hprofile.build_profile(store_1e5, "smoothed", samples_per_decade=32)
        zs = prof.zeros
        bounds = np.concatenate(([prof.x_samples[0] - 1], zs,
                                 [prof.x_samples[-1] + 1]))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            sel = (prof.x_samples > lo) & (prof.x_samples < hi)
            vals = prof.h_values[sel]
            vals = vals[np.abs(vals) > 1e-12]
            if len(vals):
                assert np.all(vals > 0) or np.all(vals < 0), (lo, hi)

    def test_stream_f_matches_store_route(self, store_1e5):
        # the stream sums M and A from the checkpoints by the window
        # replay's operations, so off the stride grid it is bitwise the
        # store's F; the integral of M(y)/y is the independent route
        ys = np.geomspace(2.0, 10 ** 5, 40)
        ys = ys[np.floor(ys) % store_1e5.stride != 0]
        res = hprofile.cumulative_at(store_1e5, ys, kind="smoothed")
        assert res.f_at.tolist() == store_1e5.big_f_many(ys).tolist()
        want = np.array([store_1e5.big_f_integral(y) for y in ys])
        assert np.abs(res.f_at - want).max() <= 1e-9
