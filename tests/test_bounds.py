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


def _claim(ens, beta, n, seed, name, threshold=None):
    """The named report of divergence_bounds; the threshold defaults to
    beta_star on the same ensemble, n and seed."""
    if threshold is None:
        threshold = sm.beta_star(ens, 1 / 17, n, seed=seed)
    reports = sm.divergence_bounds(ens, beta, threshold, n, seed)
    return next(r for r in reports if r.name == name)


class TestDivergenceBounds:
    NAMES = ("g_upper", "g_upper_entropy_form", "g_lower_lowtemp", "phi_upper",
             "g_lower_iid", "phi_lower_iid")

    def test_row_order_and_iid_only_claims(self, iid8, ar8):
        for ens, names in ((iid8, self.NAMES), (ar8, self.NAMES[:4])):
            ts = sm.beta_star(ens, 1 / 17, 1000, seed=14)
            reports = sm.divergence_bounds(ens, 1.0, ts, 1000, 14)
            assert tuple(r.name for r in reports) == names

    def test_one_estimate_per_observable(self, iid8, ar8, monkeypatch):
        # Five quenched means carry the six claims: one mc_estimates call
        # per beta, with one pair each.
        calls = []
        real = sm.bounds.mc_estimates

        def counted(ens, pairs, n, seed):
            calls.append([(obs.kind, beta) for obs, beta in pairs])
            return real(ens, pairs, n, seed)

        monkeypatch.setattr(sm.bounds, "mc_estimates", counted)
        for ens in (iid8, ar8):
            ts = sm.beta_star(ens, 1 / 17, 1000, seed=14)
            for beta in (0.0, 1.0):
                calls.clear()
                sm.divergence_bounds(ens, beta, ts, 1000, 14)
                assert len(calls) == 1
                assert sorted(calls[0]) == sorted(
                    (obs.kind, beta)
                    for obs in (sm.GIBBS_AVERAGE, sm.KL_TO_UNIFORM,
                                sm.SHANNON_ENTROPY, sm.FREE_ENERGY,
                                sm.RENYI_HALF))

    @pytest.mark.parametrize("beta, passes", [(0.0, 1), (1.0, 2), (4.0, 2)])
    def test_two_passes_and_no_batch_scan_per_beta(self, iid8, corr3,
                                                   monkeypatch, beta, passes):
        # The pass at beta serves the mean, KL, entropy and free energy, the
        # pass at beta / 2 Renyi-1/2; at beta = 0 they are one.  The cached
        # batch is finite by construction, so it is never scanned.
        calls = {"_shifted": 0, "_check_x": 0}

        def counted(name):
            real = getattr(sm.gibbs, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        for ens in (iid8, corr3):
            ts = sm.beta_star(ens, 1 / 17, 1000, seed=14)
            with monkeypatch.context() as patch:
                for name in calls:
                    patch.setattr(sm.gibbs, name, counted(name))
                    calls[name] = 0
                sm.divergence_bounds(ens, beta, ts, 1000, 14)
            assert calls == {"_shifted": passes, "_check_x": 0}


    def test_phi_lower_iid_reads_c_from_threshold(self, iid8):
        ts = sm.beta_star(iid8, 1 / 10, 2000, seed=32)
        r = _claim(iid8, 1.0, 2000, 32, "phi_lower_iid", ts)
        half = r.extra["divergence"][0]
        assert r.rhs[0] == (1 / 10) * iid8.sigma_max / 2.0 * math.sqrt(half)


class TestGUpper:
    def test_beta_zero(self, iid8):
        r = _claim(iid8, 0.0, 5000, 0, "g_upper")
        assert r.rhs == (0.0, 0.0)
        assert abs(r.lhs[0]) <= 3 * r.lhs[1]
        assert r.verdict == "holds"

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 8.0])
    def test_holds_iid(self, iid8, beta):
        assert _claim(iid8, beta, 20_000, 1, "g_upper").verdict == "holds"

    def test_cold_limit_reaches_classical_form(self, iid8):
        r = _claim(iid8, 200.0, 20_000, 2, "g_upper")
        assert r.rhs[0] == pytest.approx(math.sqrt(2 * math.log(8)), abs=0.02)
        assert r.verdict == "holds"

    def test_holds_correlated(self, ar8):
        assert _claim(ar8, 1.0, 20_000, 3, "g_upper").verdict == "holds"


class TestGUpperEntropyForm:
    def test_rhs_identical_to_kl_route(self, iid8, ar8):
        for ens in (iid8, ar8):
            a = _claim(ens, 1.0, 10_000, 4, "g_upper")
            b = _claim(ens, 1.0, 10_000, 4, "g_upper_entropy_form")
            assert abs(a.rhs[0] - b.rhs[0]) <= 1e-10
            assert a.verdict == b.verdict == "holds"

    def test_beta_zero_rhs_zero(self, iid8):
        r = _claim(iid8, 0.0, 2000, 5, "g_upper_entropy_form")
        assert r.rhs[0] == 0.0

    def test_cold_entropy_empties(self):
        ens = sm.build_iid(16, 1.0)
        r = _claim(ens, 200.0, 20_000, 6, "g_upper_entropy_form")
        assert r.rhs[0] == pytest.approx(math.sqrt(2 * math.log(16)), abs=0.01)


class TestGLowerLowtemp:
    def test_holds_at_twice_threshold(self, iid8):
        ts = sm.beta_star(iid8, 1 / 17, 20_000, seed=7)
        r = _claim(iid8, 2 * ts.beta_star, 20_000, 7, "g_lower_lowtemp", ts)
        assert r.verdict == "holds" and not r.flags

    def test_below_threshold_flagged(self, iid8):
        ts = sm.beta_star(iid8, 1 / 17, 10_000, seed=8)
        r = _claim(iid8, 0.9 * ts.beta_star, 10_000, 8, "g_lower_lowtemp", ts)
        assert "out-of-regime" in r.flags and r.verdict == "inconclusive"

    def test_cold_limit_sudakov_form(self, iid8):
        ts = sm.beta_star(iid8, 1 / 17, 20_000, seed=9)
        beta = max(200.0, 2 * ts.beta_star)
        r = _claim(iid8, beta, 20_000, 9, "g_lower_lowtemp", ts)
        want = (1 / 17) * math.sqrt(2) * math.sqrt(math.log(8))
        assert r.rhs[0] == pytest.approx(want, rel=0.02)

    def test_foreign_threshold_rejected(self, iid8, ar8):
        ts = sm.beta_star(ar8, 1 / 17, 5000, seed=10)
        with pytest.raises(ValueError, match="invalid-input"):
            sm.divergence_bounds(iid8, 100.0, ts, 5000, seed=10)


class TestGLowerIid:
    @pytest.mark.parametrize("beta", [0.25, 1.0, 4.0])
    def test_holds(self, beta):
        ens = sm.build_iid(16, 1.0)
        ts = sm.beta_star(ens, 1 / 17, 20_000, seed=11)
        r = _claim(ens, beta, 20_000, 11, "g_lower_iid", ts)
        assert r.verdict == "holds"
        assert r.extra["kappa"] == pytest.approx((1 / 17) / math.sqrt(2))

    def test_beta_zero_both_sides_zero(self, iid8):
        ts = sm.beta_star(iid8, 1 / 17, 2000, seed=12)
        r = _claim(iid8, 0.0, 2000, 12, "g_lower_iid", ts)
        assert r.rhs == (0.0, 0.0)
        assert r.verdict == "holds"

    def test_constant_switches_above_threshold(self, iid8):
        # kappa jumps from c/sqrt(2) to c once beta clears the threshold
        ts = sm.beta_star(iid8, 1 / 17, 20_000, seed=13)
        r = _claim(iid8, 2 * ts.beta_star, 20_000, 13, "g_lower_iid", ts)
        assert r.extra["kappa"] == pytest.approx(1 / 17)
        assert r.extra["beta_star"] == ts.beta_star
        assert r.verdict == "holds"

    def test_absent_on_correlated(self, ar8):
        ts = sm.beta_star(ar8, 1 / 17, 1000, seed=14)
        names = [r.name for r in sm.divergence_bounds(ar8, 1.0, ts, 1000, 14)]
        assert "g_lower_iid" not in names


class TestPhiBounds:
    def test_phi_upper_beta_zero(self, iid8):
        r = _claim(iid8, 0.0, 2000, 15, "phi_upper")
        assert r.lhs == (0.0, 0.0) and r.rhs == (0.0, 0.0)
        assert r.verdict == "holds"

    @pytest.mark.parametrize("beta", [0.5, 2.0, 8.0])
    def test_phi_upper_holds(self, iid8, beta):
        assert _claim(iid8, beta, 20_000, 16, "phi_upper").verdict == "holds"

    def test_phi_upper_correlated(self, ar8):
        assert _claim(ar8, 2.0, 20_000, 17, "phi_upper").verdict == "holds"

    @pytest.mark.parametrize("beta", [0.5, 2.0, 8.0])
    def test_phi_lower_iid_holds(self, beta):
        ens = sm.build_iid(16, 1.0)
        r = _claim(ens, beta, 20_000, 18, "phi_lower_iid")
        assert r.verdict == "holds"

    def test_phi_lower_beta_zero(self, iid8):
        r = _claim(iid8, 0.0, 2000, 19, "phi_lower_iid")
        assert r.verdict == "holds" and r.rhs == (0.0, 0.0)

    def test_phi_lower_absent_on_correlated(self, ar8):
        ts = sm.beta_star(ar8, 1 / 17, 1000, seed=20)
        names = [r.name for r in sm.divergence_bounds(ar8, 1.0, ts, 1000, 20)]
        assert "phi_lower_iid" not in names


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
        r = _claim(iid8, 1.0, n, 29, "g_upper")
        vals = sm.per_sample_values(iid8, sm.KL_TO_UNIFORM, 1.0, n, seed=29)
        rng = np.random.default_rng(0)
        coef = math.sqrt(2.0) * iid8.sigma_max
        boot = [coef * math.sqrt(vals[rng.integers(0, n, n)].mean())
                for _ in range(200)]
        bse = float(np.std(boot, ddof=1))
        assert r.rhs[1] / 2 <= bse <= r.rhs[1] * 2

    def test_delta_method_matches_bootstrap_renyi(self, ar8):
        n = 20_000
        r = _claim(ar8, 2.0, n, 30, "phi_upper")
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
        ts_ar8 = sm.beta_star(ar8, 1 / 17, 10_000, seed=seed)
        for beta in (0.1, 1.0, 8.0):
            assert _claim(iid8, beta, 10_000, seed, "g_upper",
                          ts).verdict != "violated"
            assert _claim(ar8, beta, 10_000, seed, "phi_upper",
                          ts_ar8).verdict != "violated"
            assert _claim(iid8, beta, 10_000, seed, "g_lower_iid",
                          ts).verdict != "violated"
        r = _claim(iid8, 2 * ts.beta_star, 10_000, seed, "g_lower_lowtemp", ts)
        assert r.verdict != "violated"


@pytest.mark.parametrize("bound", ["g_lower_lowtemp", "g_lower_iid", "q_lower"])
def test_threshold_must_match_ensemble_and_c(bound):
    model = sm.rem_model(3)
    ens = model.ensemble
    call = {
        "g_lower_lowtemp": lambda thr: _claim(ens, 1.0, 400, 40, bound, thr),
        "g_lower_iid": lambda thr: _claim(ens, 1.0, 400, 40, bound, thr),
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
        sm.beta_star(iid8, 1.5, 1000, seed=31)
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

    @settings(max_examples=25, deadline=None)
    @given(ens=_psd_ensembles(), seed=st.integers(0, 2 ** 32))
    def test_beta_star_matches_grid_scan(self, ens, seed):
        # A resolution that leaves K <= 2000 grid points, so that every one
        # can be scanned.
        resolution = sm.quench.BETA_MAX_FACTOR / ens.sigma_max / 2000
        k_max = math.floor(sm.quench.BETA_MAX_FACTOR / ens.sigma_max / resolution)
        assert k_max <= 2000
        x = sm.realization_batch(ens, 64, seed)
        target = (sm.quench.SUDAKOV_C * ens.min_separation / ens.diameter) ** 2 / 2.0
        first = next((k for k in range(1, k_max + 1)
                      if 1.0 - float(np.mean(sm.participation_ratio(x, k * resolution)))
                      <= target), None)
        if first is None:
            with pytest.raises(sm.UnboundedThresholdError):
                sm.beta_star(ens, sm.quench.SUDAKOV_C, 64, seed, resolution=resolution)
        else:
            ts = sm.beta_star(ens, sm.quench.SUDAKOV_C, 64, seed, resolution=resolution)
            assert ts.beta_star == first * resolution
            assert ts.bracket == ((first - 1) * resolution, first * resolution)
