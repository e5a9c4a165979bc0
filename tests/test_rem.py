"""Binary-cube ensemble, pressure estimates and sandwich curves."""

import math

import numpy as np
import pytest

import softmaxima as sm
from softmaxima import gibbs, quench, rem
from tests.conftest import wrap_probes

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


def _kl(model, beta, n, seed):
    """E KL(beta) on the model's common batch, as the sweep estimates it."""
    return sm.mc_estimate(model.ensemble, sm.KL_TO_UNIFORM, beta, n, seed).mean


class TestQLower:
    def test_zero(self):
        model = sm.rem_model(6)
        ts = sm.beta_star(model.ensemble, 1 / 17, 400, seed=3)
        assert sm.q_lower(model, 0.0, ts, _kl(model, ts.beta_star, 400, 3)) == LOG2

    def test_quadratic_below_threshold(self):
        model = sm.rem_model(6)
        ts = sm.beta_star(model.ensemble, 1 / 17, 400, seed=4)
        c = 1 / 17
        beta = min(1.0, 0.5 * ts.beta_star)
        got = sm.q_lower(model, beta, ts, _kl(model, ts.beta_star, 400, 4))
        assert got == pytest.approx(LOG2 + c ** 2 * beta ** 2 / 8, rel=1e-12)

    def test_continuous_at_threshold(self):
        model = sm.rem_model(4)
        # tiny c keeps beta* finite but the criterion strict
        c = 1 / 17
        ts = sm.beta_star(model.ensemble, c, 400, seed=5)
        kl_star = _kl(model, ts.beta_star, 400, 5)
        left = sm.q_lower(model, ts.beta_star, ts, kl_star)
        right = sm.q_lower(model, ts.beta_star + 1e-12, ts, kl_star)
        assert abs(left - right) <= 1e-10

    def test_below_pressure(self):
        model = sm.rem_model(10)
        ts = sm.beta_star(model.ensemble, 1 / 17, 2000, seed=6)
        kl_star = _kl(model, ts.beta_star, 2000, 6)
        for beta in (1.0, 2.5, 4.0):
            low = sm.q_lower(model, beta, ts, kl_star)
            p = sm.mc_estimate(model.ensemble, sm.REM_PRESSURE, beta, 2000, seed=6)
            assert low <= p.mean + 3 * p.std_error

    def test_foreign_threshold_rejected(self):
        model = sm.rem_model(6)
        other = sm.beta_star(sm.build_iid(8, 1.0), 1 / 17, 400, seed=7)
        with pytest.raises(ValueError, match="invalid-input"):
            sm.q_lower(model, 1.0, other, 1.0)

    def test_divergence_read_only_above_threshold(self):
        model = sm.rem_model(4)
        ts = sm.beta_star(model.ensemble, 1 / 17, 400, seed=5)
        bs = ts.beta_star
        assert sm.q_lower(model, bs, ts, None) == pytest.approx(
            LOG2 + bs * bs / (8 * 17 ** 2), rel=1e-12)
        for bad in (None, math.nan, math.inf, -math.inf, "1.0", True):
            with pytest.raises(ValueError, match="invalid-input: E KL"):
                sm.q_lower(model, 2 * bs, ts, bad)
        # The slope reads the estimate as given: four times the divergence,
        # twice the slope.
        kl_star = _kl(model, bs, 400, 5)
        rise = [sm.q_lower(model, bs + 1.0, ts, k) - sm.q_lower(model, bs, ts, k)
                for k in (kl_star, 4 * kl_star)]
        assert rise[1] == pytest.approx(2 * rise[0], rel=1e-9)
        assert rise[0] == pytest.approx(
            math.sqrt(kl_star / (2 * 4)) / 17, rel=1e-9)


class TestQUpper:
    """q_upper_min from its knee grid (beta_c joins it) and E KL(beta)."""

    def test_quadratic_branch(self):
        # At or below every knee the curve is the annealed bound, and the
        # divergence is not read.
        model = sm.rem_model(6)
        for beta, beta0 in [(0.5, 1.0), (1.0, 1.0), (1.5, 3.0)]:
            got = sm.q_upper_min(model, beta, [beta0], None)
            assert got == pytest.approx(LOG2 + beta ** 2 / 4, rel=1e-12)

    def test_cap_form_linear_above_critical(self):
        # Knee beta_c under the divergence cap E KL <= N log 2: the knee
        # value telescopes into beta sqrt(log 2).
        model = sm.rem_model(6)
        for beta in (BETA_C, 2.0, 3.0, 5.0):
            got = sm.q_upper_min(model, beta, [BETA_C], 6 * LOG2)
            assert got == pytest.approx(beta * math.sqrt(LOG2), rel=1e-12)

    def test_cap_form_quadratic_below_critical(self):
        model = sm.rem_model(6)
        assert sm.q_upper_min(model, 1.0, [BETA_C], 6 * LOG2) == pytest.approx(
            LOG2 + 0.25, rel=1e-12)

    def test_cap_matches_limit(self):
        # The capped curve is the limit pressure, which a sweep row writes
        # as both q_upper_cap and limit; its two closed forms give the same
        # double at beta_c, where the branches meet.
        assert rem.BETA_C == BETA_C == sm.rem_model(8).beta_c
        assert LOG2 + rem.BETA_C ** 2 / 4.0 == rem.BETA_C * math.sqrt(LOG2)
        model = sm.rem_model(8)
        for beta in np.append(np.linspace(0.0, 8.0, 801), rem.BETA_C):
            assert sm.q_upper_min(model, beta, [BETA_C], 8 * LOG2) == pytest.approx(
                sm.limit_pressure(beta), rel=1e-14)

    def test_min_above_pressure(self):
        model = sm.rem_model(10)
        grid = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        p = sm.mc_estimate(model.ensemble, sm.REM_PRESSURE, 3.0, 2000, seed=9)
        up = sm.q_upper_min(model, 3.0, grid, _kl(model, 3.0, 2000, 9))
        assert up >= p.mean - 3 * p.std_error

    def test_min_includes_critical_candidate(self):
        # the grid {0} alone would give a poor bound at cold beta; appending
        # beta_c must recover at least the cap bound there, since
        # E KL <= N log 2
        model = sm.rem_model(8)
        kl = _kl(model, 4.0, 1000, 10)
        up = sm.q_upper_min(model, 4.0, [0.0], kl)
        assert up <= sm.limit_pressure(4.0)
        assert up < LOG2 + 4.0 * math.sqrt(kl / 8)  # the knee at 0 alone

    def test_empty_grid_rejected(self):
        model = sm.rem_model(4)
        with pytest.raises(ValueError, match="invalid-parameter"):
            sm.q_upper_min(model, 1.0, [], 0.5)

    def test_bad_knee_rejected(self):
        model = sm.rem_model(4)
        for knees in ([-0.5], [1.0, math.inf], [math.nan]):
            with pytest.raises(ValueError, match="invalid-parameter: beta0"):
                sm.q_upper_min(model, 1.0, knees, 0.5)

    def test_divergence_read_only_above_a_knee(self):
        model = sm.rem_model(4)
        assert sm.q_upper_min(model, 0.5, [1.0], None) == LOG2 + 0.0625
        for bad in (None, math.nan, math.inf, "0.5", False):
            with pytest.raises(ValueError, match="invalid-input: E KL"):
                sm.q_upper_min(model, 2.0, [1.0], bad)
        # beta_c joins the grid, so a cold beta reads it whatever the grid.
        with pytest.raises(ValueError, match="invalid-input: E KL"):
            sm.q_upper_min(model, 2.0, [3.0], math.nan)

    def test_array_knees_equal_list_knees(self):
        # The one-array read of an ndarray grid gives the per-entry read's
        # bits, on both branches, at huge knees and at knees equal to beta.
        model = sm.rem_model(5)
        grids = [[0.0, 0.5, 1.0, 1.5], [2.0], [0.25, BETA_C, 3.0],
                 [0.0, 1e154, 1.7e308], list(np.linspace(0.0, 4.0, 17))]
        for grid in grids:
            for beta in (0.0, 0.5, 1.0, BETA_C, 2.0, 3.7, 1e10):
                want = sm.q_upper_min(model, beta, grid, 2.3)
                got = sm.q_upper_min(model, beta, np.array(grid), 2.3)
                assert type(got) is float
                assert got.hex() == want.hex(), (grid, beta)
        for arr in (np.array([1, 3]), np.array([1, 3], dtype=np.float32)):
            assert sm.q_upper_min(model, 2.0, arr, 2.3) == (
                sm.q_upper_min(model, 2.0, [1.0, 3.0], 2.3))
        assert sm.q_upper_min(model, 2.0, np.float64(1.0), 2.3) == (
            sm.q_upper_min(model, 2.0, [1.0], 2.3))

    def test_array_knees_refused_as_list_knees(self):
        model = sm.rem_model(4)
        for knees in ([-0.5], [1.0, math.inf], [math.nan], [0.5, -0.0, -2.0]):
            with pytest.raises(ValueError) as want:
                sm.q_upper_min(model, 1.0, knees, 0.5)
            with pytest.raises(ValueError) as got:
                sm.q_upper_min(model, 1.0, np.array(knees), 0.5)
            assert str(got.value) == str(want.value)
            assert str(got.value).startswith("invalid-parameter: beta0")
        with pytest.raises(ValueError, match="beta0 grid must be nonempty"):
            sm.q_upper_min(model, 1.0, np.array([]), 0.5)
        for knees in (np.array([True, False]), np.array(["0.5"]),
                      np.array([[0.5, 1.0]])):
            with pytest.raises(ValueError, match="invalid-parameter: beta0 must be a number"):
                sm.q_upper_min(model, 1.0, knees, 0.5)


class TestPressureSweep:
    def test_acceptance_shape(self):
        model = sm.rem_model(6)
        grid = np.arange(0.0, 2.01, 0.5)
        curve = sm.pressure_sweep(model, grid, 400, seed=42)
        assert len(curve.rows) == len(grid)
        assert curve.rows[0].p_hat.mean == LOG2
        betas = [r.beta for r in curve.rows]
        assert betas == sorted(betas)

    def test_sandwich_holds(self):
        model = sm.rem_model(6)
        curve = sm.pressure_sweep(model, np.arange(0.0, 4.01, 0.5), 500, seed=42)
        for row in curve.rows:
            assert row.q_lower <= row.p_hat.mean + 3 * row.p_hat.std_error
            assert row.p_hat.mean <= row.q_upper_min + 3 * row.p_hat.std_error
            assert row.sandwich_verdict == "holds"

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


def uncounted_probes(monkeypatch):
    """A list that is nonempty while a probe of beta_star runs, so counters of
    passes and shifts can leave the probes out."""
    probing = []

    def flagged(probe, beta):
        probing.append(beta)
        try:
            return probe(beta)
        finally:
            probing.clear()

    wrap_probes(monkeypatch, flagged)
    return probing


class TestDivergenceEstimates:
    """The sweep estimates each divergence once; the curves estimate none."""

    @pytest.fixture
    def kl_betas(self, monkeypatch):
        # Per _observe call, the betas of its passes that form KL values, and
        # the shifts (one per row block) over all calls, appended to a list,
        # which no thread's update can lose.  beta_star's probes, which shift
        # blocks outside _observe, are not counted.
        calls = {"kl": [], "shifts": []}
        observe, shift = gibbs._observe, gibbs._shift
        probing = uncounted_probes(monkeypatch)

        def counted_observe(x, passes, ens=None):
            if not probing:
                calls["kl"].append([beta for beta, keys in passes
                                    if ("kl_to_uniform", None) in keys])
            return observe(x, passes, ens)

        def counted_shift(x):
            if not probing:
                calls["shifts"].append(x.shape)
            return shift(x)

        monkeypatch.setattr(gibbs, "_observe", counted_observe)
        monkeypatch.setattr(gibbs, "_shift", counted_shift)
        return calls

    def test_curves_are_pure(self, monkeypatch):
        # The curves read the estimates they are given: no batch request
        # and no shifted pass, on either side of beta_star and of the knees.
        model = sm.rem_model(4)
        ts = sm.beta_star(model.ensemble, 1 / 17, 400, seed=45)

        def no_batch(*args, **kwargs):
            raise AssertionError("a curve requested a batch")

        def no_pass(*args, **kwargs):
            raise AssertionError("a curve made a shifted pass")

        for name in ("realization_batch", "standard_normal_batch"):
            monkeypatch.setattr(quench, name, no_batch)
        monkeypatch.setattr(gibbs, "_observe", no_pass)
        for beta in (0.0, 0.5 * ts.beta_star, 2.0 * ts.beta_star):
            sm.q_lower(model, beta, ts, 1.5)
        for beta in (0.0, 1.0, 2.0, 4.0):
            sm.q_upper_min(model, beta, [0.0, 0.5, 1.0], 1.5)

    def test_sweep_at_most_one_per_beta_and_threshold(self, kl_betas):
        # The rows read E KL(beta) off the sweep's one pass per grid beta;
        # the lower curve's E KL(beta_star) takes one more pass, and only
        # past beta_star.  Every batch here is one row block, and each call
        # shifts it once: on 64 coordinates the grid's passes share one call,
        # on 16 their outputs fill a quarter of the batch every two passes.
        grid = [0.0, 0.5, 1.0, 1.5, 2.0]
        curve = sm.pressure_sweep(sm.rem_model(6), grid, 400, seed=42)
        assert grid[-1] <= curve.threshold.beta_star
        assert [betas for betas in kl_betas["kl"] if betas] == [grid]
        assert len(kl_betas["shifts"]) == len(kl_betas["kl"])
        kl_betas["kl"].clear()
        kl_betas["shifts"].clear()
        curve = sm.pressure_sweep(sm.rem_model(4), GRID_ACROSS, 400, seed=45)
        bs = curve.threshold.beta_star
        assert GRID_ACROSS[-1] > bs and bs not in GRID_ACROSS
        kl = [betas for betas in kl_betas["kl"] if betas]
        assert sorted(b for betas in kl for b in betas) == sorted(GRID_ACROSS + [bs])
        assert max(len(betas) for betas in kl) == 2
        assert len(kl_betas["shifts"]) == len(kl_betas["kl"])


# 0:1500:100 runs past beta_star of the N = 4 model at n = 400.
GRID_ACROSS = [100.0 * k for k in range(16)]
SWEEP_CASES = [(6, [0.0, 0.5, 1.0, 1.5, 2.0], 400, 42),  # below beta_star
               (4, GRID_ACROSS, 400, 45),                # across beta_star
               (4, [k / 12 for k in range(61)], 100, 1)]  # many knees per row


class TestSweepPasses:
    """The sweep shares one pass per beta, and equals the public estimates."""

    @pytest.mark.parametrize("n_spins, grid, n, seed", SWEEP_CASES)
    def test_rows_equal_public_estimates(self, n_spins, grid, n, seed):
        # Each row is the public curves fed E KL from mc_estimate.
        model = sm.rem_model(n_spins)
        curve = sm.pressure_sweep(model, grid, n, seed)
        assert [r.beta for r in curve.rows] == grid
        ts = curve.threshold
        kl_star = _kl(model, ts.beta_star, n, seed)
        for row in curve.rows:
            assert row.q_lower == sm.q_lower(model, row.beta, ts, kl_star)
            assert row.q_upper_min == sm.q_upper_min(
                model, row.beta, grid, _kl(model, row.beta, n, seed))
            assert row.q_upper_cap == row.limit == sm.limit_pressure(row.beta)
            p = sm.mc_estimate(model.ensemble, sm.REM_PRESSURE, row.beta, n, seed)
            assert row.p_hat.mean == p.mean
            assert row.p_hat.std_error == p.std_error

    @pytest.mark.parametrize("n_spins, grid, n, seed", SWEEP_CASES)
    def test_one_pass_of_each_per_beta(self, monkeypatch, n_spins, grid, n, seed):
        passes = []
        real = gibbs._observe

        def lam(x, beta):
            raise AssertionError("the sweep called log_partition")

        def observe(x, group, ens=None):
            if not probing:
                calls.append(len(group))
                passes.extend((beta, np.shape(x), sorted(k for k, _ in keys))
                              for beta, keys in group)
            return real(x, group, ens)

        def shift(x):
            if not probing:
                shifts.append(len(x))
            return real_shift(x)

        calls, shifts = [], []
        probing = uncounted_probes(monkeypatch)  # beta_star's probes
        real_shift = gibbs._shift
        monkeypatch.setattr(gibbs, "log_partition", lam)
        monkeypatch.setattr(gibbs, "_observe", observe)
        monkeypatch.setattr(gibbs, "_shift", shift)
        model = sm.rem_model(n_spins)
        curve = sm.pressure_sweep(model, grid, n, seed)
        batch = (n, model.size)
        # One (pressure, KL) pass per grid beta, and one KL pass at
        # beta_star for the lower curve.
        bs = curve.threshold.beta_star
        want = [(b, batch, ["kl_to_uniform", "rem_pressure"]) for b in grid]
        if grid[-1] > bs:
            want.append((bs, batch, ["kl_to_uniform"]))
        assert sorted(passes) == sorted(want)
        # One shift per call: each batch here is one row block.
        assert shifts == [n] * len(calls)


    def test_number_reads_linear_in_the_grid(self, monkeypatch):
        # Every _check_number call the sweep makes, in every module that
        # holds it: O(G) for a G-point grid, where a per-row read of the
        # whole grid made G^2.
        calls = []
        real = rem._check_number

        def counted(what, v):
            calls.append(what)
            return real(what, v)

        for mod in (rem, gibbs, quench, sm.ensemble):
            if hasattr(mod, "_check_number"):
                monkeypatch.setattr(mod, "_check_number", counted)
        model = sm.rem_model(4)
        counts = {}
        for points in (50, 200):
            calls.clear()
            sm.pressure_sweep(model, np.linspace(0.0, 5.0, points), 100, 1)
            counts[points] = len(calls)
        assert calls.count("invalid-parameter: beta0") == 0
        assert counts[200] <= 10 * 200
        assert counts[200] - counts[50] <= 10 * 150


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
