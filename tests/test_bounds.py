"""Statistical verdicts for the proved inequalities, plus the verdict engine."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import softmaxima as sm
from softmaxima.bounds import _assemble, _sqrt_side


class TestVerdictEngine:
    def test_clear_hold(self):
        r = _assemble("t", 1.0, (1.0, 0.1), (2.0, 0.1), "le")
        assert r.verdict == "holds" and r.slack == 1.0 and r.z > 3

    def test_clear_violation(self):
        r = _assemble("t", 1.0, (2.0, 0.01), (1.0, 0.01), "le")
        assert r.verdict == "violated" and r.z < -3

    def test_noise_band_holds(self):
        # tiny negative slack, well inside one se: not a refutation
        r = _assemble("t", 1.0, (1.001, 0.1), (1.0, 0.1), "le")
        assert r.verdict == "holds"

    def test_direction_ge(self):
        r = _assemble("t", 1.0, (2.0, 0.01), (1.0, 0.01), "ge")
        assert r.verdict == "holds" and r.slack == 1.0

    def test_exact_zero_sides(self):
        r = _assemble("t", 0.0, (0.0, 0.0), (0.0, 0.0), "le")
        assert r.verdict == "holds" and r.z == math.inf

    def test_exact_negative(self):
        r = _assemble("t", 0.0, (1.0, 0.0), (0.0, 0.0), "le")
        assert r.verdict == "violated" and r.z == -math.inf

    def test_flags_force_inconclusive(self):
        r = _assemble("t", 1.0, (1.0, 0.1), (2.0, 0.1), "le",
                      flags=("out-of-regime",))
        assert r.verdict == "inconclusive"

    def test_sqrt_side_delta_method(self):
        (val, se), guard = _sqrt_side(2.0, 4.0, 0.1)
        assert val == 4.0 and se == pytest.approx(2.0 * 0.1 / (2 * 2.0))
        assert not guard

    def test_sqrt_side_guard(self):
        (_, _), guard = _sqrt_side(1.0, 0.01, 0.1)
        assert guard
        (val, se), guard = _sqrt_side(1.0, -0.5, 0.1)
        assert val == 0.0 and guard


class TestGUpper:
    def test_beta_zero(self, iid8):
        r = sm.g_upper(iid8, 0.0, 5000, seed=0)
        assert r.rhs == (0.0, 0.0)
        assert abs(r.lhs[0]) <= 3 * r.lhs[1]
        assert r.verdict == "holds"

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 8.0])
    def test_holds_iid(self, iid8, beta):
        assert sm.g_upper(iid8, beta, 20_000, seed=1).verdict == "holds"

    def test_cold_limit_reaches_classical_form(self, iid8):
        r = sm.g_upper(iid8, 200.0, 20_000, seed=2)
        assert r.rhs[0] == pytest.approx(math.sqrt(2 * math.log(8)), abs=0.02)
        assert r.verdict == "holds"

    def test_holds_correlated(self, ar8):
        assert sm.g_upper(ar8, 1.0, 20_000, seed=3).verdict == "holds"


class TestGUpperEntropyForm:
    def test_rhs_identical_to_kl_route(self, iid8, ar8):
        for ens in (iid8, ar8):
            a = sm.g_upper(ens, 1.0, 10_000, seed=4)
            b = sm.g_upper_entropy_form(ens, 1.0, 10_000, seed=4)
            assert abs(a.rhs[0] - b.rhs[0]) <= 1e-10
            assert a.verdict == b.verdict == "holds"

    def test_beta_zero_rhs_zero(self, iid8):
        r = sm.g_upper_entropy_form(iid8, 0.0, 2000, seed=5)
        assert r.rhs[0] == 0.0

    def test_cold_entropy_empties(self):
        ens = sm.build_iid(16, 1.0)
        r = sm.g_upper_entropy_form(ens, 200.0, 20_000, seed=6)
        assert r.rhs[0] == pytest.approx(math.sqrt(2 * math.log(16)), abs=0.01)


class TestGLowerLowtemp:
    def test_holds_at_twice_threshold(self, iid8):
        ts = sm.beta_star(iid8, 1 / 17, 20_000, seed=7)
        r = sm.g_lower_lowtemp(iid8, 2 * ts.beta_star, ts, 20_000, seed=7)
        assert r.verdict == "holds" and not r.flags

    def test_below_threshold_flagged(self, iid8):
        ts = sm.beta_star(iid8, 1 / 17, 10_000, seed=8)
        r = sm.g_lower_lowtemp(iid8, 0.9 * ts.beta_star, ts, 10_000, seed=8)
        assert "out-of-regime" in r.flags and r.verdict == "inconclusive"

    def test_cold_limit_sudakov_form(self, iid8):
        ts = sm.beta_star(iid8, 1 / 17, 20_000, seed=9)
        beta = max(200.0, 2 * ts.beta_star)
        r = sm.g_lower_lowtemp(iid8, beta, ts, 20_000, seed=9)
        want = (1 / 17) * math.sqrt(2) * math.sqrt(math.log(8))
        assert r.rhs[0] == pytest.approx(want, rel=0.02)

    def test_foreign_threshold_rejected(self, iid8, ar8):
        ts = sm.beta_star(ar8, 1 / 17, 5000, seed=10)
        with pytest.raises(ValueError, match="invalid-input"):
            sm.g_lower_lowtemp(iid8, 100.0, ts, 5000, seed=10)


class TestGLowerIid:
    @pytest.mark.parametrize("beta", [0.25, 1.0, 4.0])
    def test_holds(self, beta):
        ens = sm.build_iid(16, 1.0)
        ts = sm.beta_star(ens, 1 / 17, 20_000, seed=11)
        r = sm.g_lower_iid(ens, beta, ts, 20_000, seed=11)
        assert r.verdict == "holds"
        assert r.extra["kappa"] == pytest.approx((1 / 17) / math.sqrt(2))

    def test_beta_zero_both_sides_zero(self, iid8):
        ts = sm.beta_star(iid8, 1 / 17, 2000, seed=12)
        r = sm.g_lower_iid(iid8, 0.0, ts, 2000, seed=12)
        assert r.rhs == (0.0, 0.0)
        assert r.verdict == "holds"

    def test_constant_switches_above_threshold(self, iid8):
        # kappa jumps from c/sqrt(2) to c once beta clears the threshold
        ts = sm.beta_star(iid8, 1 / 17, 20_000, seed=13)
        r = sm.g_lower_iid(iid8, 2 * ts.beta_star, ts, 20_000, seed=13)
        assert r.extra["kappa"] == pytest.approx(1 / 17)
        assert r.extra["beta_star"] == ts.beta_star
        assert r.verdict == "holds"

    def test_correlated_rejected(self, ar8):
        ts = sm.beta_star(ar8, 1 / 17, 1000, seed=14)
        with pytest.raises(ValueError, match="regime"):
            sm.g_lower_iid(ar8, 1.0, ts, 1000, seed=14)


class TestPhiBounds:
    def test_phi_upper_beta_zero(self, iid8):
        r = sm.phi_upper(iid8, 0.0, 2000, seed=15)
        assert r.lhs == (0.0, 0.0) and r.rhs == (0.0, 0.0)
        assert r.verdict == "holds"

    @pytest.mark.parametrize("beta", [0.5, 2.0, 8.0])
    def test_phi_upper_holds(self, iid8, beta):
        assert sm.phi_upper(iid8, beta, 20_000, seed=16).verdict == "holds"

    def test_phi_upper_correlated(self, ar8):
        assert sm.phi_upper(ar8, 2.0, 20_000, seed=17).verdict == "holds"

    @pytest.mark.parametrize("beta", [0.5, 2.0, 8.0])
    def test_phi_lower_iid_holds(self, beta):
        ens = sm.build_iid(16, 1.0)
        r = sm.phi_lower_iid(ens, beta, 20_000, seed=18)
        assert r.verdict == "holds"

    def test_phi_lower_beta_zero(self, iid8):
        r = sm.phi_lower_iid(iid8, 0.0, 2000, seed=19)
        assert r.verdict == "holds" and r.rhs == (0.0, 0.0)

    def test_phi_lower_correlated_rejected(self, ar8):
        with pytest.raises(ValueError, match="regime"):
            sm.phi_lower_iid(ar8, 1.0, 1000, seed=20)


class TestMaxBounds:
    def test_two_point(self, iid2):
        upper, lower = sm.max_bounds(iid2, 100_000, seed=21)
        # E max = 1/sqrt(pi) for two independent standard normals
        assert abs(upper.lhs[0] - 1 / math.sqrt(math.pi)) <= 3 * upper.lhs[1]
        assert upper.rhs[0] == pytest.approx(math.sqrt(2 * math.log(2)), rel=1e-12)
        assert lower.rhs[0] == pytest.approx((1 / 17) * math.sqrt(2) * math.sqrt(math.log(2)), rel=1e-12)
        assert upper.verdict == "holds" and lower.verdict == "holds"
        assert upper.beta == math.inf and lower.beta == math.inf

    def test_upper_above_lower_everywhere(self, iid8, ar8, corr3):
        for ens in (iid8, ar8, corr3):
            upper, lower = sm.max_bounds(ens, 5000, seed=22)
            assert upper.rhs[0] >= lower.rhs[0]


class TestSoftSuperSudakov:
    def test_two_cluster_nondegenerate(self, twocluster12):
        r = sm.soft_super_sudakov(twocluster12, 1.0, 50_000, seed=23, scale=0.25)
        assert r.extra["union_size"] == 12
        assert len(r.extra["packing"]) == 2
        assert r.verdict in ("holds", "inconclusive")
        assert r.verdict == "holds"

    def test_default_scale_degenerates_to_singleton(self, iid8):
        # 4 sigma = 4 > diameter sqrt(2): one center, its ball is itself
        r = sm.soft_super_sudakov(iid8, 1.0, 10_000, seed=24)
        assert len(r.extra["packing"]) == 1
        assert r.verdict == "holds"
        assert r.slack == pytest.approx(0.0, abs=1e-12)

    def test_lhs_below_full_softmax(self, twocluster12):
        r = sm.soft_super_sudakov(twocluster12, 1.0, 20_000, seed=25, scale=0.25)
        full_mean, full_se = r.extra["full_softmax"]
        gap = 3 * math.hypot(r.lhs[1], full_se)
        assert r.lhs[0] <= full_mean + gap
        assert r.rhs[0] <= full_mean + 3 * math.hypot(r.rhs[1], full_se)

    def test_union_covers_clusters(self, twocluster12):
        r = sm.soft_super_sudakov(twocluster12, 2.0, 5000, seed=26, scale=0.25)
        # balls of radius 0.25 swallow both six-point clusters
        assert r.extra["union_size"] == 12
        assert r.extra["scale"] == 0.25

    def test_beta_zero_rejected(self, iid8):
        with pytest.raises(ValueError, match="invalid-parameter"):
            sm.soft_super_sudakov(iid8, 0.0, 1000, seed=27)

    def test_ball_boundary_matches_ensemble_ball(self):
        # d^2 = 3.0 exactly and r = sqrt(3): r * r rounds below 3.0, so only a
        # comparison at distance scale keeps the boundary points in the ball.
        ens = sm.build_iid(3, 1.5)
        r = math.sqrt(3.0)
        rep = sm.soft_super_sudakov(ens, 1.0, 200, seed=28, scale=r)
        assert rep.extra["union_size"] == len(sm.ball(ens, "0", r)) == 3


class TestSandwichSuite:
    def test_equal_energies_attain_cap(self):
        d = sm.sandwich_suite(np.zeros((1, 3)), 1.0)
        assert d.cap_over_softmax[0] == pytest.approx(0.0, abs=1e-12)
        assert d.ok

    def test_cold_saturation(self):
        x = np.array([[1.0, 0.2, 0.0, -0.5]])
        d = sm.sandwich_suite(x, 1e4)
        for slack in (d.softmax_over_max, d.cap_over_softmax,
                      d.max_over_average, d.average_over_floor):
            assert slack[0] <= 1e-3

    def test_random_batch_all_hold(self):
        x = 2.0 * np.random.default_rng(28).standard_normal((500, 64))
        for beta in (0.1, 1.0, 10.0):
            d = sm.sandwich_suite(x, beta)
            assert d.ok
            assert min(d.softmax_over_max.min(), d.cap_over_softmax.min(),
                       d.max_over_average.min(), d.average_over_floor.min()) >= -1e-9


class TestSePropagation:
    def test_delta_method_matches_bootstrap(self, iid8):
        # rhs of g_upper is sqrt(2 sigma^2 * mean(KL)); bootstrap the same
        # functional over per-sample KL values and compare se within 2x.
        n = 20_000
        r = sm.g_upper(iid8, 1.0, n, seed=29)
        vals = sm.per_sample_values(iid8, sm.KL_TO_UNIFORM, 1.0, n, seed=29)
        rng = np.random.default_rng(0)
        coef = math.sqrt(2.0) * iid8.sigma_max
        boot = [coef * math.sqrt(vals[rng.integers(0, n, n)].mean())
                for _ in range(200)]
        bse = float(np.std(boot, ddof=1))
        assert r.rhs[1] / 2 <= bse <= r.rhs[1] * 2

    def test_delta_method_matches_bootstrap_renyi(self, ar8):
        n = 20_000
        r = sm.phi_upper(ar8, 2.0, n, seed=30)
        vals = sm.per_sample_values(ar8, sm.RENYI_HALF, 2.0, n, seed=30)
        rng = np.random.default_rng(1)
        coef = math.sqrt(2.0) * ar8.sigma_max
        boot = [coef * math.sqrt(vals[rng.integers(0, n, n)].mean())
                for _ in range(200)]
        bse = float(np.std(boot, ddof=1))
        assert r.rhs[1] / 2 <= bse <= r.rhs[1] * 2


class TestSeedRobustness:
    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_proved_inequalities_never_violated(self, iid8, ar8, seed):
        ts = sm.beta_star(iid8, 1 / 17, 10_000, seed=seed)
        for beta in (0.1, 1.0, 8.0):
            assert sm.g_upper(iid8, beta, 10_000, seed=seed).verdict != "violated"
            assert sm.phi_upper(ar8, beta, 10_000, seed=seed).verdict != "violated"
            assert sm.g_lower_iid(iid8, beta, ts, 10_000,
                                  seed=seed).verdict != "violated"
        r = sm.g_lower_lowtemp(iid8, 2 * ts.beta_star, ts, 10_000, seed=seed)
        assert r.verdict != "violated"


@pytest.mark.parametrize("bound", ["g_lower_lowtemp", "g_lower_iid", "q_lower"])
def test_threshold_must_match_ensemble_and_c(bound):
    model = sm.rem_model(3)
    ens = model.ensemble
    call = {
        "g_lower_lowtemp": lambda thr: sm.g_lower_lowtemp(ens, 1.0, thr, 400, 40),
        "g_lower_iid": lambda thr: sm.g_lower_iid(ens, 1.0, thr, 400, 40),
        "q_lower": lambda thr: sm.q_lower(model, 1.0, thr, 400, 40),
    }[bound]
    own = sm.beta_star(ens, 1 / 17, 400, seed=40)
    foreign = sm.beta_star(sm.build_iid(8, 1.0), 1 / 17, 400, seed=40)
    call(own)
    with pytest.raises(ValueError, match="invalid-input: .*different ensemble"):
        call(foreign)
    with pytest.raises(ValueError, match="invalid-input: .*ThresholdResult"):
        call(own.beta_star)
    # c is read from the threshold, so a threshold computed with c = 1/10
    # puts 1/10 into the bound.
    tenth = sm.beta_star(ens, 1 / 10, 400, seed=40)
    assert 1.0 < tenth.beta_star
    got = call(tenth)
    if bound == "g_lower_lowtemp":
        div = got.extra["divergence"][0]
        assert got.rhs[0] == (1 / 10) * ens.min_separation * math.sqrt(div)
    elif bound == "g_lower_iid":
        assert got.extra["kappa"] == (1 / 10) / math.sqrt(2.0)
    else:
        assert got == math.log(2.0) + (1 / 10) ** 2 / 8.0


def test_invalid_c(iid8):
    with pytest.raises(ValueError, match="invalid-parameter: c must lie"):
        sm.phi_lower_iid(iid8, 1.0, 1000, seed=31, c=1.5)
    with pytest.raises(ValueError, match="invalid-parameter: c must lie"):
        sm.max_bounds(iid8, 1000, seed=31, c=1.5)


_ALL_OBSERVABLES = (
    "gibbs_average", "free_energy", "soft_max(0,1)", "participation_ratio",
    "kl_to_uniform", "renyi(0.5)", "renyi(2)", "renyi_half",
    "shannon_entropy", "expected_max", "replica_gibbs", "rem_pressure")


@st.composite
def _psd_ensembles(draw):
    """Random PSD covariance A A^T + jitter I, m <= 6, rank of A drawn too."""
    m = draw(st.integers(2, 6))
    k = draw(st.integers(1, m))
    entries = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    a = np.array(draw(st.lists(entries, min_size=m * k, max_size=m * k)))
    jitter = draw(st.floats(0.0, 1.0))
    a = a.reshape(m, k)
    try:
        return sm.build_from_covariance([f"t{i}" for i in range(m)],
                                        a @ a.T + jitter * np.eye(m))
    except ValueError:
        assume(False)  # coincident coordinates: not an ensemble


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(ens=_psd_ensembles(),
           log_beta=st.floats(math.log(1e-3), math.log(1e6)),
           seed=st.integers(0, 2 ** 32))
    def test_sandwich_and_no_silent_nan(self, ens, log_beta, seed):
        beta = math.exp(log_beta)
        x = sm.realization_batch(ens, 64, seed)
        assert sm.sandwich_suite(x, beta).ok
        for text in _ALL_OBSERVABLES:
            try:
                est = sm.mc_estimate(ens, sm.parse_observable(text), beta, 64, seed)
            except ValueError:
                continue
            assert math.isfinite(est.mean) and math.isfinite(est.std_error), text

    @settings(max_examples=25, deadline=None)
    @given(ens=_psd_ensembles(),
           log_beta=st.floats(math.log(1e-3), math.log(1e6)),
           seed=st.integers(0, 2 ** 32))
    def test_divergence_identities(self, ens, log_beta, seed):
        # Per sample: KL from the log-partition against log m minus the
        # entropy of the weights, and Renyi-1/2 via the participation ratio
        # against the generic formula.
        beta = math.exp(log_beta)
        x = sm.realization_batch(ens, 64, seed)
        tol = 1e-12 * np.maximum(1.0, beta * np.max(np.abs(x), axis=-1))
        entropy = sm.shannon_entropy(sm.gibbs_measure(x, beta))
        kl_gap = sm.kl_to_uniform(x, beta) - (math.log(ens.size) - entropy)
        renyi_gap = (sm.renyi_half_via_participation(x, beta)
                     - sm.renyi_to_uniform(x, beta, 0.5))
        assert np.all(np.abs(kl_gap) <= tol)
        assert np.all(np.abs(renyi_gap) <= tol)
