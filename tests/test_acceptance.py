"""Release gates: ten end-to-end checks, one test per numbered criterion.

Every test asserts its stated tolerance and enforces its own wall-clock
budget, so `pytest -v tests/test_acceptance.py` prints one pass/fail line
per criterion.

Criterion 07 carries a strict xfail.  Its first clause demands the quenched
KL divergence to uniform sit within an absolute 0.01 of log 8 at beta = 200
for eight i.i.d. standard coordinates, but that divergence differs from
log 8 by exactly the quenched Shannon entropy, which decays like 2.33/beta
(near-ties between the top two coordinates have positive density at zero
gap).  Its true value at beta = 200 is 0.01166 +/- 0.00005, measured with
two independent estimators at n = 2e6; no correct implementation can pass.
The companion test below pins the measured gap two-sided so any drift
breaks loudly.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

import softmaxima as sm
from softmaxima import bounds, cli, quench, rem

N_BIG = 10**5
SEED = 7


def _corr(size):
    if size == 2:
        cov = [[1.0, 0.3], [0.3, 0.8]]
    else:
        cov = [[1.0, 0.5, 0.2], [0.5, 1.2, 0.3], [0.2, 0.3, 0.9]]
    labels = [chr(ord("a") + i) for i in range(size)]
    return sm.build_from_covariance(labels, cov)


def _ar8():
    cov = [[0.5 ** abs(i - j) for j in range(8)] for i in range(8)]
    return sm.build_from_covariance([f"s{i}" for i in range(8)], cov)


def _two_cluster12():
    eps = (0.0, 0.04, 0.08, 0.12, 0.16, 0.20)
    vecs, labels = [], []
    for sign, tag in ((1.0, "p"), (-1.0, "m")):
        for k, e in enumerate(eps):
            vecs.append([sign, e, sign * e * e])
            labels.append(f"{tag}{k:02d}")
    v = np.asarray(vecs)
    return sm.build_from_covariance(labels, v @ v.T)


def test_01_per_realization_sandwiches():
    t0 = time.perf_counter()
    for m in (2, 8, 64):
        x = quench.realization_batch(sm.build_iid(m, 1.0), 10**4, 3)
        for beta in (0.1, 1.0, 10.0):
            diag = bounds.sandwich_suite(x, beta)
            assert diag.ok
            for slack in (diag.softmax_over_max, diag.cap_over_softmax,
                          diag.max_over_average, diag.average_over_floor):
                assert float(np.min(slack)) >= -1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 01: PASS (9 cells x 4 sandwich slacks, {elapsed:.1f}s)")


def test_02_monte_carlo_matches_quadrature_oracle():
    t0 = time.perf_counter()
    observables = (sm.GIBBS_AVERAGE, sm.FREE_ENERGY, sm.PARTICIPATION_RATIO,
                   sm.KL_TO_UNIFORM, sm.renyi_observable(0.5))
    worst = 0.0
    pairs = [(obs, beta) for obs in observables for beta in (0.25, 1.0, 4.0)]
    for ens in (sm.build_iid(2, 1.0), _corr(3)):
        oracles = quench.quadrature_oracles(ens, pairs, 128)
        for (obs, beta), oracle in zip(pairs, oracles):
            est = quench.mc_estimate(ens, obs, beta, N_BIG, SEED)
            gap = abs(est.mean - oracle)
            assert gap <= 3.0 * est.std_error
            worst = max(worst, gap / (3.0 * est.std_error))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 02: PASS (30 cells, worst gap at {worst:.0%} of band, "
          f"{elapsed:.1f}s)")


def test_03_replica_identity():
    t0 = time.perf_counter()
    small = (sm.build_iid(2, 1.0), sm.build_iid(3, 1.0), _corr(2), _corr(3))
    worst = 0.0
    betas = (0.25, 1.0, 4.0)
    pairs = ([(sm.GIBBS_AVERAGE, beta) for beta in betas]
             + [(sm.REPLICA_GIBBS, beta) for beta in betas])
    for ens in small:
        oracles = quench.quadrature_oracles(ens, pairs, 160)
        for direct, replica in zip(oracles[:3], oracles[3:]):
            worst = max(worst, abs(direct - replica))
            assert abs(direct - replica) <= 1e-6
    iid16 = sm.build_iid(16, 1.0)
    for beta in (0.25, 1.0, 4.0):
        a = quench.mc_estimate(iid16, sm.GIBBS_AVERAGE, beta, N_BIG, SEED)
        b = quench.mc_estimate(iid16, sm.REPLICA_GIBBS, beta, N_BIG, SEED)
        combined = math.hypot(a.std_error, b.std_error)
        assert abs(a.mean - b.mean) <= 3.0 * combined
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 03: PASS (oracle worst {worst:.1e}, {elapsed:.1f}s)")


def test_04_divergence_identities_two_routes():
    worst = 0.0
    for ens in (sm.build_iid(8, 1.0), _corr(3)):
        x = quench.realization_batch(ens, 1000, 5)
        log_m = math.log(ens.size)
        for beta in (0.0, 0.7, 3.0, 30.0):
            kl = sm.kl_to_uniform(x, beta)
            ent = sm.shannon_entropy(sm.gibbs_measure(x, beta))
            gap_kl = float(np.max(np.abs(kl - (log_m - ent))))
            half_a = sm.renyi_half_via_participation(x, beta)
            half_b = sm.renyi_to_uniform(x, beta, 0.5)
            gap_half = float(np.max(np.abs(half_a - half_b)))
            assert gap_kl <= 1e-10
            assert gap_half <= 1e-10
            worst = max(worst, gap_kl, gap_half)
    print(f"criterion 04: PASS (2000 realizations x 4 betas, worst {worst:.1e})")


def test_05_participation_monotone_and_derivative():
    h = 1e-5
    worst_rel = 0.0
    for ens in (sm.build_iid(8, 1.0), _corr(3)):
        x = quench.realization_batch(ens, 1000, 6)
        for beta in (0.1, 0.5, 1.0, 2.0, 4.0, 10.0):
            deriv = sm.participation_derivative(x, beta)
            assert float(np.min(deriv)) >= -1e-12
            fd = (sm.participation_ratio(x, beta + h)
                  - sm.participation_ratio(x, beta - h)) / (2 * h)
            # Relative agreement in the batch sup norm: a per-sample ratio
            # is dominated by finite-difference roundoff wherever the
            # derivative itself is within O(eps/h) of zero.
            rel = float(np.max(np.abs(deriv - fd)) / np.max(np.abs(fd)))
            assert rel <= 1e-6
            worst_rel = max(worst_rel, rel)
    print(f"criterion 05: PASS (sign and fd, worst rel {worst_rel:.1e})")


def test_06_bound_suites_hold():
    t0 = time.perf_counter()
    assert quench.Z_MARGIN == 3.0
    reports = []

    for m in (8, 16, 64):
        ens = sm.build_iid(m, 1.0)
        star = quench.beta_star(ens, quench.SUDAKOV_C, N_BIG, SEED)
        for beta in (0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 32.0, 200.0):
            reports.extend(bounds.divergence_bounds(ens, beta, star, N_BIG, SEED))

    ar8 = _ar8()
    threshold = quench.beta_star(ar8, quench.SUDAKOV_C, N_BIG, SEED)
    for mult in (1.0, 2.0, 8.0):
        reports.extend(bounds.divergence_bounds(
            ar8, mult * threshold.beta_star, threshold, N_BIG, SEED))

    tc = _two_cluster12()
    for beta in (0.5, 2.0):
        reports.append(bounds.soft_super_sudakov(tc, beta, N_BIG, SEED,
                                                 scale=0.25))
    reports.append(bounds.soft_super_sudakov(tc, 1.0, N_BIG, SEED))

    violated = [r for r in reports if r.verdict == "violated"]
    assert violated == []
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    print(f"criterion 06: PASS ({len(reports)} reports, none violated, "
          f"beta_star {threshold.beta_star:.0f}, {elapsed:.0f}s)")


_ZERO_TEMP_XFAIL = (
    "|KL - log 8| at beta = 200 equals the quenched entropy of eight iid "
    "standard coordinates, 0.01166 +/- 0.00005 (a 1/beta decay), so the "
    "absolute 0.01 window cannot be met; see the companion gap test")


def _one_dim_max_oracle():
    # E max(X1, X2) = E|X1 - X2| / 2 for exchangeable centered pairs; the
    # difference is N(0, 2), integrated adaptively with the kink at 0.
    pdf = stats.norm(scale=math.sqrt(2.0)).pdf
    value, err = integrate.quad(lambda d: abs(d) / 2.0 * pdf(d), -np.inf, np.inf)
    assert err < 1e-8
    return value


@pytest.mark.xfail(strict=True, reason=_ZERO_TEMP_XFAIL)
def test_07_zero_temperature_limits():
    iid2 = sm.build_iid(2, 1.0)
    emax = quench.expected_max_estimate(iid2, N_BIG, 0)
    oracle = _one_dim_max_oracle()
    assert abs(emax.mean - oracle) <= 3.0 * emax.std_error

    iid8 = sm.build_iid(8, 1.0)
    beta = 200.0 / iid8.sigma_max
    g_i = quench.per_sample_values(iid8, sm.GIBBS_AVERAGE, beta, N_BIG, SEED)
    max_i = quench.per_sample_values(iid8, sm.EXPECTED_MAX, 0.0, N_BIG, SEED)
    diff = g_i - max_i
    se = float(np.std(diff, ddof=1) / math.sqrt(N_BIG))
    assert abs(float(np.mean(diff))) <= 0.01 + 3.0 * se

    d_hat = quench.mc_estimate(iid8, sm.KL_TO_UNIFORM, beta, N_BIG, SEED)
    assert abs(d_hat.mean - math.log(8)) <= 0.01
    print("criterion 07: PASS")


def test_07_companion_measured_zero_temperature_gap():
    """Pins what criterion 07's first clause actually measures.

    The softmax and tilted-mean limits converge at 1/beta^2 speed and pass
    their clauses outright; the entropy (equivalently KL) limit converges
    at 1/beta speed and sits at 0.0117 when beta = 200, outside the 0.01
    window.  Bounding the gap on both sides keeps the xfail honest: if the
    estimator drifts, or the gap somehow re-enters the window, this fails
    before the strict xfail turns into a surprise pass.
    """
    iid8 = sm.build_iid(8, 1.0)
    beta = 200.0 / iid8.sigma_max
    d_hat = quench.mc_estimate(iid8, sm.KL_TO_UNIFORM, beta, N_BIG, SEED)
    gap = math.log(8) - d_hat.mean
    assert 0.009 <= gap <= 0.014
    ent = quench.mc_estimate(iid8, sm.SHANNON_ENTROPY, beta, N_BIG, SEED)
    assert abs((math.log(8) - d_hat.mean) - ent.mean) <= 1e-10

    g_i = quench.per_sample_values(iid8, sm.GIBBS_AVERAGE, beta, N_BIG, SEED)
    max_i = quench.per_sample_values(iid8, sm.EXPECTED_MAX, 0.0, N_BIG, SEED)
    diff = g_i - max_i
    se = float(np.std(diff, ddof=1) / math.sqrt(N_BIG))
    assert abs(float(np.mean(diff))) <= 0.01 + 3.0 * se

    iid2 = sm.build_iid(2, 1.0)
    emax = quench.expected_max_estimate(iid2, N_BIG, 0)
    assert abs(emax.mean - _one_dim_max_oracle()) <= 3.0 * emax.std_error
    print(f"criterion 07 companion: PASS (entropy gap {gap:.4f})")


def test_08_free_energy_derivative_identity():
    h = 1e-3
    for ens in (sm.build_iid(8, 1.0), _corr(3)):
        for beta in (0.5, 2.0):
            psi = {b: b * quench.per_sample_values(ens, sm.FREE_ENERGY, b,
                                                   N_BIG, SEED)
                   for b in (beta - h, beta, beta + h)}
            dpsi = (psi[beta + h] - psi[beta - h]) / (2 * h)
            kl = quench.per_sample_values(ens, sm.KL_TO_UNIFORM, beta,
                                          N_BIG, SEED)
            resid = beta * dpsi - psi[beta] - kl
            se = float(np.std(resid, ddof=1) / math.sqrt(N_BIG))
            assert abs(float(np.mean(resid))) <= 1e-3 + 3.0 * se
    print("criterion 08: PASS (4 cells under common random numbers)")


def test_09_rem_pressure_sandwich():
    t0 = time.perf_counter()
    model = rem.rem_model(10)
    grid = tuple(0.25 * k for k in range(17))
    curve = rem.pressure_sweep(model, grid, 2000, 42)
    rows = curve.rows
    assert len(rows) == 17
    assert all(r.sandwich_verdict == "holds" for r in rows)
    assert rows[0].p_hat.mean == math.log(2.0)
    assert rows[0].p_hat.std_error == 0.0
    sqrt_log2 = math.sqrt(math.log(2.0))
    for r in rows:
        band = 3.0 * r.p_hat.std_error
        assert r.q_lower <= r.p_hat.mean + band
        assert r.p_hat.mean <= r.q_upper_min + band
        assert r.p_hat.mean <= math.log(2.0) + r.beta ** 2 / 4.0 + band
        if r.beta >= model.beta_c:
            assert r.q_upper_cap <= r.beta * sqrt_log2 + 1e-12

    # Soft finite-size regression: the estimate should approach the limit
    # curve as N grows.  Reported, never failed: at n = 2000 an unlucky
    # draw near beta_c can invert the ordering without meaning anything.
    soft = []
    m6, m12 = rem.rem_model(6), rem.rem_model(12)
    for beta in (1.0, model.beta_c, 3.0):
        p6 = quench.mc_estimate(m6.ensemble, sm.REM_PRESSURE, beta, 2000, 42)
        p12 = quench.mc_estimate(m12.ensemble, sm.REM_PRESSURE, beta, 2000, 42)
        lim = rem.limit_pressure(beta)
        band = 3.0 * math.hypot(p6.std_error, p12.std_error)
        if abs(p12.mean - lim) > abs(p6.mean - lim) + band:
            soft.append(beta)
            print(f"criterion 09 soft check flagged: N=12 farther from the "
                  f"limit than N=6 at beta={beta:.3f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 09: PASS (17 rows hold, soft flags {soft}, "
          f"{elapsed:.1f}s)")


def test_10_csv_byte_determinism(tmp_path):
    runs = {
        "estimate": ["estimate", "--ensemble", '{"iid": {"n": 8, "variance": 1.0}}',
                     "--beta-grid", "0:2:1", "--n", "2000", "--seed", "11",
                     "--observables", "gibbs_average,participation_ratio"],
        "bounds": ["bounds", "--ensemble", '{"iid": {"n": 8, "variance": 1.0}}',
                   "--beta", "1", "--n", "2000", "--seed", "12"],
        "rem-sweep": ["rem-sweep", "--n-spins", "6", "--beta-grid", "0:2:0.5",
                      "--n", "500", "--seed", "13"],
        # Default 128 nodes: the replica-identity tolerance of 1e-6 is not
        # converged at the 32-node floor once beta reaches 4.
        "oracle-check": ["oracle-check", "--n", "2000", "--seed", "14"],
    }
    for name, argv in runs.items():
        payloads = []
        for run in range(4):
            sm.clear_cache()
            out = tmp_path / f"{name}-{run}"
            code = cli.main(argv + ["--out", str(out)])
            assert code == cli.EXIT_OK
            payloads.append(out.with_suffix(".csv").read_bytes())
        assert payloads[0] == payloads[1] == payloads[2] == payloads[3]
        header = payloads[0].decode().splitlines()[0]
        assert header.startswith("# config_hash=")
    print("criterion 10: PASS (4 commands x 4 cold runs byte-identical)")
