import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mertenslab import dirichlet
from mertenslab.errors import CapabilityError, CrossCheckError, RangeError

import oracles

LOG2, LOG3 = math.log(2), math.log(3)


class TestConvolve:
    def test_identity_element(self):
        e = np.zeros(33)
        e[1] = 1.0
        out = dirichlet.convolve_prefix(e, e, 32)
        assert out[1] == 1.0
        assert np.all(out[2:] == 0.0)

    def test_lambda_conv_hand_values(self, table_2e4):
        t = table_2e4
        conv = dirichlet.convolve_prefix(t.lam, t.lam, t.n_max)
        assert conv[12] == pytest.approx(2 * LOG2 * LOG3, rel=1e-14)
        assert conv[4] == pytest.approx(LOG2 ** 2, rel=1e-14)
        assert conv[1] == 0.0

    def test_mu_star_log_is_von_mangoldt(self, table_2e4):
        n = 10 ** 4
        logs = np.zeros(n + 1)
        logs[1:] = np.log(np.arange(1, n + 1, dtype=np.float64))
        got = dirichlet.convolve_prefix(table_2e4.mu[:n + 1].astype(float), logs, n)
        assert np.abs(got - table_2e4.lam[:n + 1]).max() < 1e-11

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=60), st.integers(0, 2 ** 31))
    def test_matches_naive_oracle(self, n_max, seed):
        rng = np.random.default_rng(seed)
        f = rng.uniform(-2, 2, n_max + 1)
        g = rng.uniform(-2, 2, n_max + 1)
        f[0] = g[0] = 0.0
        got = dirichlet.convolve_prefix(f, g, n_max)
        want = oracles.convolve_naive(f, g, n_max)
        assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("n_max", [1, 2, 97, 5000])
    def test_bits_match_fresh_array_steps(self, n_max):
        rng = np.random.default_rng(n_max)
        f = rng.uniform(-2, 2, n_max + 1)
        g = rng.uniform(-2, 2, n_max + 1)
        f[rng.random(n_max + 1) < 0.3] = 0.0
        got = dirichlet.convolve_prefix(f, g, n_max)
        assert np.array_equal(got, oracles.convolve_split_fresh(f, g, n_max))

    def test_rejects_zero_cap(self):
        with pytest.raises(RangeError):
            dirichlet.convolve_prefix(np.zeros(1), np.zeros(1), 0)


class TestArithTable:
    def test_selberg_weight_anchors(self, table_2e4):
        assert table_2e4.lambda2[1] == 0.0
        assert table_2e4.lambda2[4] == pytest.approx(3 * LOG2 ** 2, rel=1e-13)
        assert table_2e4.lambda2[12] == pytest.approx(2 * LOG2 * LOG3, rel=1e-13)

    def test_both_forms_agree(self, table_2e4):
        budget = 1e-9 * math.log(table_2e4.n_max) ** 2
        assert table_2e4.form_discrepancy <= budget

    def test_mobius_form_only(self, store_1e4):
        t = dirichlet.build_arith_table(store_1e4, 200)
        assert t.form_discrepancy < 1e-12

    def test_cross_check_failure_reports_worst_n(self, store_1e4):
        with pytest.raises(CrossCheckError) as err:
            dirichlet.build_arith_table(store_1e4, 500, tol_rel=1e-30)
        assert err.value.worst_n is not None

    def test_cap_beyond_store(self, store_1e4):
        with pytest.raises(CapabilityError) as err:
            dirichlet.build_arith_table(store_1e4, 10 ** 4 + 1)
        assert err.value.max_usable == 10 ** 4

    def test_table_beyond_memory(self, store_1e5, monkeypatch):
        # a machine of 1 MiB holds a table of 1 MiB // 96 = 10 922 integers;
        # the check runs before anything is allocated, so nothing is
        def no_alloc(*args, **kwargs):
            raise AssertionError("the table began to allocate")

        pages = {"SC_PHYS_PAGES": 256, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        monkeypatch.setattr(dirichlet.np, "zeros", no_alloc)
        with pytest.raises(CapabilityError) as err:
            dirichlet.build_arith_table(store_1e5, 2 * 10 ** 4)
        assert err.value.max_usable == (1 << 20) // dirichlet.TABLE_BYTES_PER_INT == 10922

    def test_lambda2_minus_definition(self, table_2e4):
        t = table_2e4
        n = np.arange(2, 2001)
        want = dirichlet.convolve_prefix(t.lam, t.lam, t.n_max)[n] - t.lam[n] * t.log_n[n]
        assert np.array_equal(t.lambda2_minus[n], want)

    def test_theta_consistency(self, table_2e4):
        t = table_2e4
        n = np.arange(2, t.n_max + 1)
        conv = dirichlet.convolve_prefix(t.lam, t.lam, t.n_max)
        gap = np.abs(t.theta[n] * t.log_n[n] - conv[n])
        assert gap.max() <= 1e-9 * math.log(t.n_max) ** 2
        assert t.theta[1] == 0.0

    def test_columns_match_fresh_array_forms(self, store_1e5, table_2e4):
        want = oracles.arith_columns(store_1e5, table_2e4.n_max)
        for name, value in want.items():
            got = getattr(table_2e4, name)
            assert np.array_equal(got, value) if isinstance(value, np.ndarray) else got == value, name

    def test_nonnegative(self, table_2e4):
        assert table_2e4.lambda2.min() >= -1e-9

    def test_rows_schema(self, table_2e4):
        rows = dirichlet.table_rows(table_2e4, [1, 4, 12])
        assert list(rows[0]) == ["n", "mu", "lambda", "lambda2",
                                 "lambda2_minus", "theta"]
        assert rows[1]["lambda2"] == pytest.approx(3 * LOG2 ** 2, rel=1e-12)


class TestPointwiseResiduals:
    def test_r14_at_30_is_far_from_bounded(self, table_2e4):
        stats = dirichlet.pointwise_residuals(table_2e4, 30.0)
        assert table_2e4.lambda2[30] == 0.0
        assert stats.r14_abs_max >= 2 * math.log(30) - 1e-12

    def test_r14_term_at_1_vanishes(self, table_2e4):
        r14_1 = 2 * table_2e4.log_n[1] - table_2e4.lambda2[1]
        assert r14_1 == 0.0

    def test_summatory_average_bounded(self, table_2e4):
        for x in (10 ** 3, 10 ** 4, 2 * 10 ** 4):
            stats = dirichlet.pointwise_residuals(table_2e4, float(x))
            assert abs(stats.r14_avg) <= 4.0, x

    def test_average_matches_direct_summation(self, table_2e4):
        x = 5000.0
        n = np.arange(1, 5001)
        direct = float(np.sum(2 * np.log(n) - table_2e4.lambda2[1:5001]) / x)
        stats = dirichlet.pointwise_residuals(table_2e4, x)
        assert stats.r14_avg == pytest.approx(direct, rel=1e-12)

    def test_matches_expression_form(self, table_2e4):
        for x in (2.0, 30.0, 5000.0, 12345.6, 2e4):
            assert (dirichlet.pointwise_residuals(table_2e4, x)
                    == oracles.pointwise_residuals(table_2e4, x)), x

    def test_range_error(self, table_2e4):
        with pytest.raises(RangeError):
            dirichlet.pointwise_residuals(table_2e4, 1.5)
