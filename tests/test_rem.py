"""Binary-cube ensemble, pressure estimates, sandwich curves, integral check."""

import math

import numpy as np
import pytest

import softmaxima as sm
from softmaxima import quench

LOG2 = math.log(2.0)
BETA_C = 2.0 * math.sqrt(LOG2)


class TestRemModel:
    def test_single_spin(self):
        m = sm.rem_model(1)
        assert m.size == 2 and m.variance == 0.5
        assert m.ensemble.labels == ("0", "1")

    def test_ten_spins(self):
        m = sm.rem_model(10)
        assert m.size == 1024
        assert m.ensemble.min_separation ** 2 == pytest.approx(10.0, rel=1e-12)
        assert m.beta_c == pytest.approx(BETA_C, rel=1e-15)

    def test_bitstring_labels(self):
        m = sm.rem_model(3)
        assert m.ensemble.labels[:3] == ("000", "001", "010")
        assert m.ensemble.labels[-1] == "111"

    def test_out_of_range(self):
        for n in (0, 20, -1):
            with pytest.raises(ValueError, match="scale"):
                sm.rem_model(n)

    def test_bool_rejected(self):
        for n in (True, False):
            with pytest.raises(ValueError, match="scale"):
                sm.rem_model(n)


class TestPressureEstimate:
    def test_zero_temperature_exact(self):
        for n_spins in (1, 6, 10):
            est = sm.mc_estimate(sm.rem_model(n_spins).ensemble, sm.REM_PRESSURE,
                                 0.0, 200, seed=0)
            assert est.mean == LOG2 and est.std_error == 0.0

    def test_annealed_bound(self):
        model = sm.rem_model(10)
        for beta in (0.5, 1.0, 2.0, 4.0):
            est = sm.mc_estimate(model.ensemble, sm.REM_PRESSURE, beta, 2000, seed=1)
            assert est.mean <= LOG2 + beta ** 2 / 4 + 3 * est.std_error

    def test_high_temperature_near_quadratic(self):
        est = sm.mc_estimate(sm.rem_model(10).ensemble, sm.REM_PRESSURE, 1.0, 2000,
                             seed=2)
        assert abs(est.mean - (LOG2 + 0.25)) < 0.05


class TestLimitPressure:
    def test_zero(self):
        assert sm.limit_pressure(0.0) == LOG2

    def test_continuity_at_critical(self):
        assert sm.limit_pressure(BETA_C) == pytest.approx(2 * LOG2, rel=1e-14)
        below = sm.limit_pressure(BETA_C - 1e-9)
        above = sm.limit_pressure(BETA_C + 1e-9)
        assert abs(below - above) < 1e-8

    def test_linear_branch(self):
        assert sm.limit_pressure(2 * BETA_C) == pytest.approx(4 * LOG2, rel=1e-14)

    def test_convex_on_grid(self):
        grid = np.linspace(0.0, 5.0, 401)
        vals = np.array([sm.limit_pressure(b) for b in grid])
        assert np.diff(vals, 2).min() >= -1e-10

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="invalid-parameter"):
            sm.limit_pressure(-0.1)


class TestQLower:
    def test_zero(self):
        model = sm.rem_model(6)
        ts = sm.beta_star(model.ensemble, 1 / 17, 400, seed=3)
        assert sm.q_lower(model, 0.0, ts, 400, seed=3) == LOG2

    def test_quadratic_below_threshold(self):
        model = sm.rem_model(6)
        ts = sm.beta_star(model.ensemble, 1 / 17, 400, seed=4)
        c = 1 / 17
        beta = min(1.0, 0.5 * ts.beta_star)
        got = sm.q_lower(model, beta, ts, 400, seed=4)
        assert got == pytest.approx(LOG2 + c ** 2 * beta ** 2 / 8, rel=1e-12)

    def test_continuous_at_threshold(self):
        model = sm.rem_model(4)
        # tiny c keeps beta* finite but the criterion strict
        c = 1 / 17
        ts = sm.beta_star(model.ensemble, c, 400, seed=5)
        left = sm.q_lower(model, ts.beta_star, ts, 400, seed=5)
        right = sm.q_lower(model, ts.beta_star + 1e-12, ts, 400, seed=5)
        assert abs(left - right) <= 1e-10

    def test_below_pressure(self):
        model = sm.rem_model(10)
        ts = sm.beta_star(model.ensemble, 1 / 17, 2000, seed=6)
        for beta in (1.0, 2.5, 4.0):
            low = sm.q_lower(model, beta, ts, 2000, seed=6)
            p = sm.mc_estimate(model.ensemble, sm.REM_PRESSURE, beta, 2000, seed=6)
            assert low <= p.mean + 3 * p.std_error

    def test_foreign_threshold_rejected(self):
        model = sm.rem_model(6)
        other = sm.beta_star(sm.build_iid(8, 1.0), 1 / 17, 400, seed=7)
        with pytest.raises(ValueError, match="invalid-input"):
            sm.q_lower(model, 1.0, other, 400, seed=7)


class TestQUpper:
    def test_quadratic_branch(self):
        model = sm.rem_model(6)
        for beta, beta0 in [(0.5, 1.0), (1.0, 1.0), (2.0, 3.0)]:
            got = sm.q_upper(model, beta, beta0, 400, seed=8)
            assert got == pytest.approx(LOG2 + beta ** 2 / 4, rel=1e-12)

    def test_cap_form_linear_above_critical(self):
        model = sm.rem_model(6)
        for beta in (BETA_C, 2.0, 3.0, 5.0):
            if beta >= BETA_C:
                assert sm.q_upper_cap(model, beta) == pytest.approx(
                    beta * math.sqrt(LOG2), rel=1e-12)

    def test_cap_form_quadratic_below_critical(self):
        model = sm.rem_model(6)
        assert sm.q_upper_cap(model, 1.0) == pytest.approx(LOG2 + 0.25, rel=1e-12)

    def test_cap_matches_limit(self):
        model = sm.rem_model(8)
        for beta in (0.0, 1.0, BETA_C, 3.0, 4.5):
            assert sm.q_upper_cap(model, beta) == pytest.approx(
                sm.limit_pressure(beta), rel=1e-12)

    def test_min_above_pressure(self):
        model = sm.rem_model(10)
        grid = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        p = sm.mc_estimate(model.ensemble, sm.REM_PRESSURE, 3.0, 2000, seed=9)
        up = sm.q_upper_min(model, 3.0, grid, 2000, seed=9)
        assert up >= p.mean - 3 * p.std_error

    def test_min_includes_critical_candidate(self):
        # the grid {0} alone would give a poor bound at cold beta; appending
        # beta_c must recover at least the cap bound there
        model = sm.rem_model(8)
        up = sm.q_upper_min(model, 4.0, [0.0], 1000, seed=10)
        assert up <= sm.q_upper(model, 4.0, 0.0, 1000, seed=10) + 1e-12

    def test_empty_grid_rejected(self):
        model = sm.rem_model(4)
        with pytest.raises(ValueError, match="invalid-parameter"):
            sm.q_upper_min(model, 1.0, [], 400, seed=11)


class TestPressureSweep:
    def test_acceptance_shape(self):
        model = sm.rem_model(6)
        grid = np.arange(0.0, 2.01, 0.5)
        curve = sm.pressure_sweep(model, grid, 400, seed=42)
        assert len(curve.rows) == len(grid)
        assert curve.rows[0].p_hat.mean == LOG2
        betas = [r.beta for r in curve.rows]
        assert betas == sorted(betas)

    def test_sandwich_and_integral(self):
        model = sm.rem_model(6)
        curve = sm.pressure_sweep(model, np.arange(0.0, 4.01, 0.5), 500, seed=42)
        for row in curve.rows:
            assert row.q_lower <= row.p_hat.mean + 3 * row.p_hat.std_error
            assert row.p_hat.mean <= row.q_upper_min + 3 * row.p_hat.std_error
            assert row.sandwich_verdict == "holds"
            assert row.integral_ok
            assert abs(row.integral_residual) <= max(row.integral_tolerance, 0.01)

    def test_unsorted_grid_rejected(self):
        model = sm.rem_model(4)
        with pytest.raises(ValueError, match="invalid-parameter"):
            sm.pressure_sweep(model, [1.0, 0.5], 400, seed=0)

    def test_tilted_mean_monotone_per_sample(self):
        # shared batch across betas: every sample's tilted mean is increasing
        model = sm.rem_model(6)
        grid = [0.0, 0.5, 1.0, 2.0, 3.0]
        vals = np.stack([sm.per_sample_values(model.ensemble, sm.GIBBS_AVERAGE,
                                              b, 300, seed=12) for b in grid])
        assert np.diff(vals, axis=0).min() >= -1e-10

    def test_row_beta_zero_means_exact(self):
        model = sm.rem_model(4)
        curve = sm.pressure_sweep(model, [0.0, 1.0], 300, seed=13)
        assert curve.rows[0].q_lower == LOG2
        assert curve.rows[0].q_upper_cap == LOG2
        assert curve.rows[0].limit == LOG2


class TestDivergenceEstimates:
    """The divergences a curve needs are estimated once per call, not memoized."""

    @pytest.fixture
    def kl_betas(self, monkeypatch):
        betas = []
        real = quench.evaluate_values

        def counted(ens, obs, x, beta):
            if obs.kind == "kl_to_uniform":
                betas.append(beta)
            return real(ens, obs, x, beta)

        monkeypatch.setattr(quench, "evaluate_values", counted)
        return betas

    def test_upper_min_shares_one_estimate(self, kl_betas):
        model = sm.rem_model(6)
        sm.q_upper_min(model, 2.0, [0.0, 0.5, 1.0, 1.5], 400, seed=15)
        assert kl_betas == [2.0]
        sm.q_upper_min(model, 0.5, [1.0, 2.0], 400, seed=15)
        assert kl_betas == [2.0]

    def test_sweep_at_most_one_per_beta_and_threshold(self, kl_betas):
        grid = np.arange(0.0, 2.01, 0.5)
        sm.pressure_sweep(sm.rem_model(6), grid, 400, seed=42)
        assert 0 < len(kl_betas) <= len(grid) + 1


class TestFiniteSizeTrend:
    def test_larger_system_closer_to_limit(self):
        # soft regression: N = 12 should land nearer the limit than N = 6 at
        # moderate beta; report, do not fail, when noise swamps the gap.
        misses = []
        for beta in (1.0, BETA_C, 3.0):
            p6 = sm.mc_estimate(sm.rem_model(6).ensemble, sm.REM_PRESSURE, beta,
                                1500, seed=14)
            p12 = sm.mc_estimate(sm.rem_model(12).ensemble, sm.REM_PRESSURE, beta,
                                 1500, seed=14)
            lim = sm.limit_pressure(beta)
            gap6 = abs(p6.mean - lim)
            gap12 = abs(p12.mean - lim)
            se = 3 * math.hypot(p6.std_error, p12.std_error)
            if gap12 > gap6 + se:
                misses.append((beta, gap6, gap12))
        assert not misses, f"finite-size trend reversed beyond noise: {misses}"
