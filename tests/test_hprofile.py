import functools
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


@functools.lru_cache(maxsize=None)
def gap_bound(kind, n, n_zeros, stride):
    """A bound on the gap between the walk's integrals and those of
    ``oracles.stream_single_pass`` at points y < n + 1 of a store with this
    stride and ``n_zeros`` zeros below n + 1.

    First-order rounding analysis, u = 2^-53.  Both routes read the same
    M(k), A(k) and log k, so the gap is the sum of their rounding errors.
    P and Q below are the sizes of the antiderivatives, which fall on
    [1, oo); I(k) is the signed integral up to k, C(k) an upper bound of
    the integral of |H| up to k (2 sum_j |M(j)| (P(j) - P(j+1)) +
    |A(j)| (Q(j) - Q(j+1))), w_k = |M(k)| P(k) + |A(k)| Q(k) (A = 0 for
    mertens), and X_loc(k) = X(k) - X(block start) the partial sum of a
    quantity X inside the block of BLOCK * stride integers that holds k.
    - The single pass takes each step's increment 2 (M dP - A dQ) from P
      and Q at the step's ends.  An error in P(k) enters steps k - 1 and k
      with M(k - 1) and -M(k), so it adds mu(k) times itself; likewise
      mu(k) log k times an error in Q(k).  P and Q are off by at most 8u of
      their size (their terms share one sign), and each difference and
      product rounds once: at most 8u sum_k |mu(k)| (P(k) + log k Q(k))
      plus 4u C.
    - A running sum is off by at most u times the sum of its partial sums
      (Higham's running error bound).  Each route sums inside a block from
      0 and adds the carry once, so its partial sums are X_loc, or
      differences of two: I_loc and C_loc for the pass and again for
      the walk's sums of dI and |dI| over the zeros, and S_loc, at most
      |T_loc| + c |U_loc| (c = 2 for smoothed, 1 for mertens), for the
      walk's sums of S = T + c U between zeros and its prefix sums (S
      enters I times 2).
    - Each value then adds the carry once, and the walk forms each dI from
      M, A, P, Q and S with at most eight roundings, at each of Z + 1 zeros
      and points: 8 (Z + 2) u (max |I| + max C + max w).  A running sum of
      the walk's integrals between zeros, compared with the pass's totals
      at the zeros, adds at most u Z max C, inside that term.
    The pairwise block totals and the compensated carries add at most
    u ceil(log2 n) times the sum of the terms' sizes; doubling the sum
    covers them:
    2u (8 sum_k |mu(k)| (P(k) + log k Q(k)) + 4 C(n)
        + sum_k (2 |I_loc| + 2 |C_loc| + 4 |T_loc| + 4c |U_loc|)
        + 8 (Z + 2) (max |I| + max C + max w)).
    """
    k = np.arange(1, n + 2, dtype=np.float64)
    mu = oracles.mobius_dense(n + 1)[1:].astype(np.float64)
    log_k = np.log(k)
    m = np.cumsum(mu)
    p, q = (log_k * (log_k + 2.0) + 2.0) / k, (log_k + 1.0) / k
    t, v = np.cumsum(mu * log_k / k), np.cumsum(mu / k)
    c = 2.0 if kind == "smoothed" else 1.0
    a = np.cumsum(mu * log_k) if kind == "smoothed" else np.zeros(n + 1)
    signed = 2.0 * (a * q - m * p + t + c * v) if kind == "smoothed" else 2.0 * (t + v - m * q)
    w = np.abs(m) * p + np.abs(a) * q
    total_abs = np.concatenate(([0.0], np.cumsum(
        2.0 * (np.abs(m[:-1]) * -np.diff(p) + np.abs(a[:-1]) * -np.diff(q)))))
    start = (np.arange(n + 1) // (summatory.BLOCK * stride)) * (summatory.BLOCK * stride)

    def local(x):
        return np.abs(x - np.concatenate(([0.0], x))[start])

    ends = (np.abs(mu) * (p + log_k * q))[:n].sum() * 8.0 + 4.0 * total_abs[-1]
    partials = (2.0 * local(signed) + 2.0 * local(total_abs) + 4.0 * local(t)
                + 4.0 * c * local(v))[:n].sum()
    tops = np.abs(signed).max() + total_abs.max() + w.max()
    return 2.0 * 2.0 ** -53 * (ends + partials + 8.0 * (n_zeros + 2) * tops)


@functools.lru_cache(maxsize=None)
def mertens_interval_reference(n):
    """(zeros, integrals): the mertens zeros y below n + 1, the first and
    last n of each maximal run of M(n) == 0, and the integral of |H| over
    each interval between two of them as the ``math.fsum`` of the per-step
    pieces of ``oracles.stream_single_pass``, 2 M(k) (Q(k + 1) - Q(k))."""
    m = oracles.mertens_dense(n)
    zero = np.concatenate(([False], m[1:] == 0, [False]))
    zeros = np.flatnonzero(zero[1:-1] & ~(zero[:-2] & zero[2:])) + 1
    integrals = [abs(math.fsum(oracles._piece_mertens(float(m[k]), k, k + 1)
                               for k in range(a, b)))
                 for a, b in zip(zeros.tolist(), zeros[1:].tolist())]
    return zeros, np.array(integrals)


def mertens_interval_bound(n):
    """A bound on the gap between the walk's integral of |H| over each
    interval [a, b] between consecutive mertens zeros below n + 1 and the
    reference of :func:`mertens_interval_reference`, with m = b - a steps.

    First-order rounding analysis, u = 2^-53, with q(k) = (log k + 1)/k =
    -Q(k), d(k) = q(k) - q(k + 1) > 0, and log within 8u.  M(a) = M(b) = 0,
    so the integral is I = 2 |sum_{a<=k<b} M(k) d(k)| = 2 |S|, S =
    sum_{a<k<=b} mu(k) q(k) by parts.
    - The walk takes 2 |S| from its terms mu(k)/k (log k + 1), each within
      12u of its size, and G = 2 M Q, which is 0 at both zeros.  It sums
      them in runs of consecutive terms (within a block, and one carry at
      each block seam), and by parts any run i..j sums to at most
      2 max|M| q(i) in size, max over [a, b]; there are m - 1 additions of
      terms and at most one at each seam, fewer than 2m:
      2u (12 sum |mu(k)| q(k) + 4m max|M| q(a)).
    - Each reference piece takes Q at both ends within 10u of q, their
      difference within 20u q(k) + u d(k), and one product:
      2u sum |M(k)| (20 q(k) + 2 d(k)); ``math.fsum`` adds u I.
    Doubling the sum covers the second-order terms.
    """
    zeros, integrals = mertens_interval_reference(n)
    k = np.arange(n + 2, dtype=np.float64)
    k[0] = 1.0
    q = (np.log(k) + 1.0) / k
    d = q[:-1] - q[1:]
    m = np.abs(oracles.mertens_dense(n)).astype(np.float64)
    mu = np.abs(oracles.mobius_dense(n)).astype(np.float64)
    bounds = []
    for a, b, integral in zip(zeros.tolist(), zeros[1:].tolist(), integrals.tolist()):
        walk = 12.0 * (mu[a + 1:b + 1] * q[a + 1:b + 1]).sum() + 4.0 * (b - a) * m[a:b + 1].max() * q[a]
        pieces = (m[a:b] * (20.0 * q[a:b] + 2.0 * d[a:b])).sum()
        bounds.append(2.0 * (2.0 ** -53 * (2.0 * (walk + pieces) + integral)))
    return np.array(bounds)


def assert_close_stream(res, want, kind, ys, stride):
    # the integrals within gap_bound, the numerator bit for bit
    bound = gap_bound(kind, int(max(ys)), len(want.zeros_y), stride)
    assert np.abs(res.cum_abs - want.cum_abs).max(initial=0.0) <= bound
    assert np.abs(res.cum_signed - want.cum_signed).max(initial=0.0) <= bound
    assert res.f_at.tolist() == want.f_at.tolist()


def assert_close_events(walk, want, kind, n, stride):
    # the zeros and decade sups bit for bit, the integrals within gap_bound
    assert walk.zeros_y == want.zeros_y.tolist()
    gap = np.abs(np.cumsum(walk.zeros_abs) - want.zeros_cum_abs).max(initial=0.0)
    assert gap <= gap_bound(kind, n, len(want.zeros_y), stride)
    assert list(walk.decade_sup.items()) == list(want.decade_sup.items())


def assert_same_stream(res, want):
    assert res.cum_abs.tolist() == want.cum_abs.tolist()
    assert res.cum_signed.tolist() == want.cum_signed.tolist()
    assert res.f_at.tolist() == want.f_at.tolist()


def assert_same_walk(walk, want):
    assert walk.answers == want.answers
    assert walk.zeros_y == want.zeros_y
    assert walk.zeros_abs == want.zeros_abs
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
        # the step profile needs M and the logs (T's terms are mu(n)/n
        # times log n), never A's terms mu(n) log n; one window_terms call
        # per block: 157 windows of 64 make 10 blocks
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
        # with the single pass's values, the integrals within gap_bound
        store = strided_stores[stride]
        for ys in self.QUERY_SETS:
            for kind in ("smoothed", "mertens"):
                assert_close_stream(hprofile.cumulative_at(store, ys, kind),
                                    oracles.stream_single_pass(store, ys, kind), kind, ys,
                                    stride)

    @pytest.mark.parametrize("stride", [39, 211, 1000, 2845, 1 << 16])
    def test_build_answers_match_single_pass(self, strided_stores, stride, monkeypatch):
        # a build that carries the points answers each in the block that
        # holds its floor, with the single pass's values (the integrals
        # within gap_bound); a point's answer does not depend on the other
        # points, bit for bit
        plain = strided_stores[stride]
        want = {(i, kind): hprofile.stream_cumulative(plain, {kind: ys})[kind]
                for i, ys in enumerate(self.QUERY_SETS) for kind in ("smoothed", "mertens")}
        plan = {kind: np.concatenate(self.QUERY_SETS) for kind in ("smoothed", "mertens")}
        store = summatory.PrefixSums(N_STRIDED, stride=stride, walk=hprofile.Walk(plan))
        monkeypatch.setattr(hprofile, "stream_cumulative", None)
        walks = hprofile.profile_walk(store, ("smoothed", "mertens"))
        for i, ys in enumerate(self.QUERY_SETS):
            for kind in ("smoothed", "mertens"):
                assert_close_stream(hprofile.cumulative_at(store, ys, kind),
                                    oracles.stream_single_pass(plain, ys, kind), kind, ys,
                                    stride)
                assert {y: walks[kind].answers[y] for y in ys} == want[i, kind].answers

    @pytest.mark.parametrize("stride", [39, 211, 1000, 2845, 1 << 16])
    def test_walk_matches_single_pass(self, strided_stores, stride):
        # the walk's zeros, their |H| integrals and the decade sups are those
        # of one pass over all of [1, n_max]: the zero run 45519..45522
        # straddles a block seam at stride 2845
        store = strided_stores[stride]
        for kind in ("smoothed", "mertens"):
            assert_close_events(hprofile.profile_walk(store, (kind,))[kind],
                                oracles.stream_single_pass(store, [float(N_STRIDED)], kind),
                                kind, N_STRIDED, stride)

    @pytest.mark.parametrize("case", ["run ends on a seam", "one step at n_max",
                                      "run reaches n_max"])
    def test_zero_run_on_a_block_end_matches_single_pass(self, case):
        # a zero run that ends on a block's last step, a one-step run at
        # n_max and a run that reaches n_max (M(n_max + 1) counts as
        # nonzero) give the single pass's zeros, and their integrals within
        # gap_bound.  A seam (a multiple of BLOCK * stride) is divisible by
        # 16, so mu vanishes there and no run starts on it: a one-step run
        # ends a block only at n_max.  Each case takes the first store where
        # it occurs.
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

        n_max, stride, end = next(stores())
        store = summatory.PrefixSums(n_max, stride=stride)
        want = oracles.stream_single_pass(store, [float(n_max)], "mertens")
        assert end in want.zeros_y.tolist()
        assert_close_events(hprofile.profile_walk(store, ("mertens",))["mertens"], want,
                            "mertens", n_max, stride)

    @pytest.mark.parametrize("stride", [211, 2845, 1 << 16])
    def test_joint_walk_matches_separate_walks(self, strided_stores, stride):
        # one pass for both kinds shares each block's M, logs and Q; every
        # answer, zero and decade sup is that of the kind's own walk
        store = strided_stores[stride]
        ys = [2.5, 39.5, 1000.3, 45520.5, float(N_STRIDED)]
        joint = hprofile.stream_cumulative(store, {"mertens": ys, "smoothed": ys})
        for kind in ("smoothed", "mertens"):
            assert_same_walk(joint[kind], hprofile.stream_cumulative(store, {kind: ys})[kind])

    @pytest.mark.parametrize("stride", [211, 2845, 1 << 16])
    def test_walks_in_the_build_match_stream_and_single_pass(self, strided_stores,
                                                             stride, monkeypatch):
        # a build that carries the walks hands each block's terms to them
        # once its checkpoints are set: the checkpoints are those of a build
        # without walks, every walk is that of stream_cumulative, bit for
        # bit, and of one pass over [1, n_max] (the integrals within
        # gap_bound), the tail window included
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
                    assert_same_walk(walks[kind], streamed[kind])
                    assert_close_events(walks[kind], oracles.stream_single_pass(
                        plain, [float(N_STRIDED)], kind), kind, N_STRIDED, stride)
                    assert_close_stream(hprofile.cumulative_at(store, ys, kind),
                                        oracles.stream_single_pass(plain, ys, kind), kind, ys,
                                        stride)

    def test_build_walks_a_tail_window_alone(self, monkeypatch):
        # 16 full windows fill the first block, so the last five integers
        # make a block of their own, which only the walks read
        n_max = summatory.BLOCK * 64 + 5
        ys = [float(n_max - 5), n_max - 2.5, float(n_max)]
        plan = {"smoothed": ys, "mertens": ys}
        store = summatory.PrefixSums(n_max, stride=64, walk=hprofile.Walk(plan))
        plain = summatory.PrefixSums(n_max, stride=64)
        assert store.mertens_at_n_max == plain.mertens_at_n_max
        streamed = hprofile.stream_cumulative(plain, plan)
        monkeypatch.setattr(hprofile, "stream_cumulative", None)
        for kind in ("smoothed", "mertens"):
            walked = hprofile.profile_walk(store, (kind,))[kind]
            assert_same_walk(walked, streamed[kind])
            assert_close_events(walked, oracles.stream_single_pass(plain, [float(n_max)], kind),
                                kind, n_max, 64)
            assert_close_stream(hprofile.cumulative_at(store, ys, kind),
                                oracles.stream_single_pass(plain, ys, kind), kind, ys, 64)

    @pytest.mark.parametrize("stride", [39, 2845, 1 << 16])
    def test_one_sign_between_zeros(self, strided_stores, stride):
        # the premise of the integral of |H| as the sum of |I(here) -
        # I(previous zero)|: between two recorded zeros, and before the
        # first and after the last, F (smoothed, linear in log u on each
        # step) or M (mertens) takes no two signs at the integers
        n = np.arange(1, N_STRIDED + 1, dtype=np.float64)
        mu = oracles.mobius_dense(N_STRIDED)[1:]
        mertens = oracles.mertens_dense(N_STRIDED)[1:]
        big_f = mertens * np.log(n) - np.cumsum(mu * np.log(n))
        for kind, values in (("smoothed", big_f), ("mertens", mertens)):
            zeros = hprofile.profile_walk(strided_stores[stride], (kind,))[kind].zeros_y
            # the integers n with z_(j-1) < n <= z_j, for every j
            runs = np.split(values, np.searchsorted(n, zeros, side="right"))
            assert len(runs) == len(zeros) + 1
            for j, run in enumerate(runs):
                assert run.max(initial=0) <= 0 or run.min(initial=0) >= 0, (kind, j)

    def test_mertens_interval_integrals_match_per_step_sums(self, strided_stores):
        # each zero's own integral: 0 on a zero run, and elsewhere within
        # mertens_interval_bound of the exactly rounded sum of the per-step
        # pieces (at most 1.2e-9 relative here; the walk is within 2.9e-11).
        # Taken back out of two running totals at the zeros, over 500 of
        # these integrals were off by more, up to 1.6e-7 relative
        zeros, want = mertens_interval_reference(N_STRIDED)
        bound = mertens_interval_bound(N_STRIDED)
        assert (want == 0.0).any() and (want > 0.0).any()
        for store in strided_stores.values():
            walk = hprofile.profile_walk(store, ("mertens",))["mertens"]
            assert walk.zeros_y == zeros.astype(np.float64).tolist()
            got = np.array(walk.zeros_abs[1:])
            assert ((got == 0.0) == (want == 0.0)).all()
            assert (np.abs(got - want) <= bound).all()

    def test_new_point_walks_to_its_block_only(self, monkeypatch):
        # once the store keeps a walk of every kind, a walk for a new point
        # stops after the block that holds its floor: y = 1000 lies in the
        # first of 16 blocks
        store = summatory.PrefixSums(10 ** 6)
        kept = hprofile.profile_walk(store, ("smoothed", "mertens"))
        zeros = {kind: list(walk.zeros_y) for kind, walk in kept.items()}
        walked, blocks = [], summatory.PrefixSums._blocks

        def counted(self, kinds):
            for k, terms in blocks(self, kinds):
                walked.append(k)
                yield k, terms

        monkeypatch.setattr(summatory.PrefixSums, "_blocks", counted)
        for kind in ("smoothed", "mertens"):
            res = hprofile.cumulative_at(store, [1000.0], kind)
            assert_close_stream(res, oracles.stream_single_pass(store, [1000.0], kind),
                                kind, [1000.0], store.stride)
        assert walked == [0, 0]
        # the kept walks, and their zeros over [1, n_max], stay
        assert hprofile.profile_walk(store, ("smoothed", "mertens")) == kept
        assert {kind: walk.zeros_y for kind, walk in kept.items()} == zeros

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
            assert_close_stream(hprofile.cumulative_at(store, ys[::-1], kind),
                                oracles.stream_single_pass(store, ys[::-1], kind), kind, ys, 97)
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
        # the profile of [1, y] is that of the store PrefixSums(y): the
        # single pass over the larger store cut at y, bit for bit but for
        # the integrals, which agree within gap_bound
        for stride, full in strided_stores.items():
            store = full if y_max == full.n_max else summatory.PrefixSums(y_max, stride)
            for kind in ("smoothed", "mertens"):
                prof = hprofile.build_profile(store, kind)
                res = oracles.stream_single_pass(full, prof.y_samples, kind)
                bound = gap_bound(kind, y_max, len(res.zeros_y), stride)
                assert prof.y_samples[-1] == y_max
                assert prof.h_values.tolist() == (res.f_at / prof.y_samples).tolist()
                assert np.abs(prof.cumulative_abs_integral - res.cum_abs).max() <= bound
                assert np.abs(prof.cumulative_signed_integral - res.cum_signed).max() <= bound
                assert prof.zeros.tolist() == (np.log(res.zeros_y) ** 2).tolist()
                assert np.abs(np.cumsum(prof.zeros_abs) - res.zeros_cum_abs).max(initial=0.0) <= bound
                assert prof.decade_sups == (res.decade_sup or None)

    def test_reads_its_walk_once(self, store_1e4, monkeypatch):
        # ratchet: build_profile takes every value from one profile_walk
        # call (three while it read its samples and its derivative grid
        # through cumulative_at and h_derivative_many); a change may lower
        # the count, none raises it
        calls = []
        profile_walk = hprofile.profile_walk

        def counted(*args, **kwargs):
            calls.append(args[1])
            return profile_walk(*args, **kwargs)

        monkeypatch.setattr(hprofile, "profile_walk", counted)
        for kind in ("smoothed", "mertens"):
            hprofile.build_profile(store_1e4, kind)
        assert calls == [("smoothed",), ("mertens",)]

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
        assert lo - 1e-12 <= prof.zeros_abs[0] <= hi + 1e-12

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
        prof.deriv_sup = c * (b - a)
        ivs = hprofile.interval_stats(prof)
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
