import math

import numpy as np
import pytest

from mertenslab import cli, identities, summatory
from mertenslab.errors import CapabilityError, RangeError

import oracles

LOG2 = math.log(2)


def _ti_functions(store):
    return {"one": identities.f_one, "log": identities.f_log,
            "smoothed": identities.f_smoothed(store)}


class TestTatuzawaIseki:
    def test_zero_function(self, store_1e5):
        f0 = lambda ys: np.zeros_like(np.asarray(ys, dtype=float))
        assert identities.tatuzawa_iseki_residual(store_1e5, 10.0, [f0]) == [0.0]

    def test_constant_one_at_4_hand_value(self, store_1e5):
        lhs = math.log(4) + store_1e5.psi(4)
        rhs = 4 * math.log(4) - 2 * LOG2 - math.log(4 / 3)
        assert lhs == pytest.approx(rhs, abs=1e-12)
        r, = identities.tatuzawa_iseki_residual(store_1e5, 4.0, [identities.f_one])
        assert abs(r) < 1e-12

    def test_smoothed_at_2(self, store_1e5):
        f = identities.f_smoothed(store_1e5)
        r, = identities.tatuzawa_iseki_residual(store_1e5, 2.0, [f])
        assert abs(r) < 1e-12

    @pytest.mark.parametrize("fname", ["one", "log", "smoothed"])
    def test_residual_sweep(self, store_1e5, fname):
        f = _ti_functions(store_1e5)[fname]
        for x in np.geomspace(2, 10 ** 4, 25):
            r, = identities.tatuzawa_iseki_residual(store_1e5, float(x), [f])
            assert abs(r) <= 1e-9 * x * math.log(x) ** 2, (fname, x)

    def test_chunking_invariance(self, store_1e5):
        fs = list(_ti_functions(store_1e5).values())
        full = identities.tatuzawa_iseki_residual(store_1e5, 3000.0, fs)
        tiny = identities.tatuzawa_iseki_residual(store_1e5, 3000.0, fs,
                                                  flat_chunk=1 << 8)
        assert full == pytest.approx(tiny, abs=1e-10)

    def test_range_error(self, store_1e5):
        fs = list(_ti_functions(store_1e5).values())
        with pytest.raises(RangeError):
            identities.tatuzawa_iseki_residual(store_1e5, 1.5, fs)

    @pytest.mark.parametrize("fname", ["one", "log", "smoothed"])
    def test_bytes_match_pairwise(self, store_1e5, fname):
        # one shared call for all three f gives, for each f, the bits of the
        # pairwise form with that f alone
        fs = _ti_functions(store_1e5)
        j = list(fs).index(fname)
        for x in np.geomspace(2, 2e4, 30):
            got = identities.tatuzawa_iseki_residual(store_1e5, float(x),
                                                     list(fs.values()))
            want = oracles.tatuzawa_iseki_pairwise(store_1e5, float(x), fs[fname])
            assert got[j] == want, (fname, x)
        for chunk in (1 << 8, 1):
            got = identities.tatuzawa_iseki_residual(
                store_1e5, 3000.5, list(fs.values()), flat_chunk=chunk)
            want = oracles.tatuzawa_iseki_pairwise(store_1e5, 3000.5, fs[fname],
                                                   flat_chunk=chunk)
            assert got[j] == want, (fname, chunk)

    def test_f_evaluated_once_per_k(self, store_1e5):
        sizes = {}

        def counted(name, f):
            def g(ys):
                sizes.setdefault(name, []).append(np.size(ys))
                return f(ys)
            return g

        fs = [counted(name, f) for name, f in _ti_functions(store_1e5).items()]
        x = 1e4
        identities.tatuzawa_iseki_residual(store_1e5, x, fs)
        assert sorted(sizes) == ["log", "one", "smoothed"]
        for name, calls in sizes.items():
            assert len(calls) == 3, name
            assert sum(calls) <= 2 * math.floor(x) + 1, name


class TestDilatedSumReadings:
    def test_trivial_point(self, store_1e5):
        total, resid = identities.check_f_sum_identity(store_1e5, 1.0)
        assert total == 0.0 and resid == 0.0

    def test_hand_values(self, store_1e5):
        total, resid = identities.check_f_sum_identity(store_1e5, 2.0)
        assert total == pytest.approx(LOG2, abs=1e-14)
        total, resid = identities.check_f_sum_identity(store_1e5, 4.0)
        assert total == pytest.approx(math.log(4), abs=1e-14)
        assert abs(resid) < 1e-14

    def test_collapse_over_grid(self, store_1e5):
        for x in np.geomspace(2, 10 ** 5, 30):
            _, resid = identities.check_f_sum_identity(store_1e5, float(x))
            assert abs(resid) <= 1e-9 * x, x

    def test_floor_weighted_hand_values(self, store_1e5):
        fw = identities.floor_weighted_mu_sum(store_1e5, 2.0)
        assert fw.value == pytest.approx(2 * LOG2, abs=1e-14)
        assert fw.residual == pytest.approx(0.0, abs=1e-14)
        fw = identities.floor_weighted_mu_sum(store_1e5, 4.0)
        assert fw.value == pytest.approx(math.log(4) + store_1e5.psi(4), abs=1e-13)

    def test_floor_weighted_grid(self, store_1e5):
        for x in np.geomspace(10, 10 ** 5, 20):
            fw = identities.floor_weighted_mu_sum(store_1e5, float(x))
            assert abs(fw.residual) <= 1e-9 * x, x

    def test_second_call_reads_the_kept_sum(self, monkeypatch):
        store = summatory.PrefixSums(5000)
        calls = []
        big_f_many = store.big_f_many

        def counted(ys):
            calls.append(np.size(ys))
            return big_f_many(ys)

        monkeypatch.setattr(store, "big_f_many", counted)
        first = identities.check_f_sum_identity(store, 1234.5)
        assert len(calls) == 1
        again = identities.check_f_sum_identity(store, np.float64(1234.5))
        assert again == first and len(calls) == 1

    def test_report_grid_summed_once(self, monkeypatch):
        # f-sum-collapse sums every point of the f_dilated_sum grid, so the
        # remainder series that follows makes no lookup of its own
        ctx = cli.Context(config=cli.RunConfig(n_max=10 ** 5, conv_cap=10 ** 4))
        store = ctx.store
        cli.check_f_sum_collapse(ctx)
        calls = []
        big_f_many = store.big_f_many

        def counted(ys):
            calls.append(np.size(ys))
            return big_f_many(ys)

        monkeypatch.setattr(store, "big_f_many", counted)
        series = identities.remainder_series(
            store, "f_dilated_sum", cli.series_grid(ctx, "f_dilated_sum"))
        assert len(series.xs) > 30 and calls == []

    def test_two_readings_differ_by_psi(self, store_1e5):
        x = 1000.0
        total, _ = identities.check_f_sum_identity(store_1e5, x)
        fw = identities.floor_weighted_mu_sum(store_1e5, x)
        assert fw.value - total == pytest.approx(store_1e5.psi(x), rel=1e-9)


class TestSelfBound:
    def test_hand_value_at_2(self, store_1e5):
        c2 = identities.f_self_bound_constant(store_1e5, 2.0)
        integral = 2.0 - 2.0 * LOG2 - LOG2 ** 2
        want = (LOG2 ** 3 - 2.0 * integral) / (2.0 * LOG2)
        assert c2 == pytest.approx(want, abs=1e-12)

    def test_non_integer_endpoint(self, store_1e5):
        c = identities.f_self_bound_constant(store_1e5, math.e)
        assert math.isfinite(c)

    def test_sweep_finite_and_recorded(self, store_1e5):
        series = identities.remainder_series(
            store_1e5, "f_self_bound", np.geomspace(100, 10 ** 5, 20))
        assert np.all(np.isfinite(series.normalized))
        assert series.sup_normalized >= 0.0


class TestRemainderSeries:
    def test_selberg_at_10(self, store_1e4):
        s = identities.remainder_series(store_1e4, "selberg_sum", [10.0])
        assert s.raw[0] == pytest.approx(-26.768817, abs=1e-5)
        assert s.normalized[0] == pytest.approx(-2.6768817, abs=1e-6)

    def test_log_square_at_1(self, store_1e4):
        s = identities.remainder_series(store_1e4, "log_square_sum", [1.0])
        assert s.raw[0] == -2.0

    def test_lambda_theta_finite(self, store_1e4):
        s = identities.remainder_series(store_1e4, "lambda_theta_sum",
                                        np.geomspace(10, 10 ** 4, 12))
        assert np.all(np.isfinite(s.normalized))

    def test_sup_and_argmax_consistent(self, store_1e4):
        s = identities.remainder_series(store_1e4, "lambda_over_n",
                                        np.geomspace(2, 10 ** 4, 25))
        idx = int(np.argmax(np.abs(s.normalized)))
        assert s.sup_normalized == abs(s.normalized[idx])
        assert s.argmax_x == s.xs[idx]
        assert np.all(np.diff(s.xs) > 0)

    def test_smallest_x_tie_break(self, store_1e4):
        s = identities.remainder_series(store_1e4, "f_dilated_sum", [4.0, 16.0])
        assert s.argmax_x == s.xs[int(np.argmax(np.abs(s.normalized)))]

    def test_h_mean_gap_normalization(self, store_1e5):
        x = LOG2 ** 2
        s = identities.remainder_series(store_1e5, "h_mean_gap", [x])
        assert s.normalized[0] == pytest.approx(s.raw[0] * math.sqrt(x), rel=1e-12)
        sm = identities.remainder_series(store_1e5, "mertens_h_mean_gap", [1.0])
        assert sm.normalized[0] == sm.raw[0]

    def test_unknown_kind(self, store_1e4):
        with pytest.raises(RangeError):
            identities.remainder_series(store_1e4, "nope", [10.0])

    def test_capability_error_names_cap(self, store_1e4):
        with pytest.raises(CapabilityError) as err:
            identities.remainder_series(store_1e4, "h_mean_gap", [1e4])
        assert err.value.max_usable == pytest.approx(math.log(10 ** 4) ** 2)
        with pytest.raises(CapabilityError):
            identities.remainder_series(store_1e4, "selberg_sum", [10 ** 5])

    def test_summary_schema(self, store_1e4):
        s = identities.remainder_series(store_1e4, "lambda_over_n", [10.0, 100.0])
        summary = s.summary()
        assert set(summary) == {"kind", "sup_normalized", "argmax_x",
                                "n_samples", "caps"}


class TestDecadeProfiles:
    def test_decade_sup_profile(self, store_1e5):
        s = identities.remainder_series(store_1e5, "log_square_sum",
                                        identities.geometric_grid(100, 10 ** 5))
        sups = identities.decade_sup_profile(s, (2, 5))
        assert set(sups) <= {2, 3, 4}
        assert all(v >= 0 for v in sups.values())

    def test_mertens_tail_sups_decreasing(self, store_1e5):
        sups = identities.mertens_tail_sups(store_1e5)
        ks = sorted(sups)
        assert ks == [2, 3, 4, 5]
        for a, b in zip(ks, ks[1:]):
            assert sups[a] >= sups[b]

    def test_geometric_grid_endpoints(self):
        g = identities.geometric_grid(100, 1000, 1.25)
        assert g[0] == 100 and g[-1] == 1000
        with pytest.raises(RangeError):
            identities.geometric_grid(0, 10)


def test_mean_gap_near_zero_handled(store_1e4):
    s = identities.remainder_series(store_1e4, "h_mean_gap", [1e-9])
    assert np.all(np.isfinite(s.raw)) and np.all(np.isfinite(s.normalized))
