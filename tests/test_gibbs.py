"""Per-realization functionals: hand values, limits, identities, derivatives.

Expected numbers come from hand evaluation on x = (ln 2, 0), where every
partition function is a small integer: Z(1) = 3, Z(2) = 5.
"""

import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

import softmaxima as sm
from softmaxima import gibbs, quench
from softmaxima.gibbs import _EXP_FLOOR, _exp, _lse

LN2 = math.log(2.0)
LN3 = math.log(3.0)
X_HAND = np.array([LN2, 0.0])


def random_x(m, seed, scale=1.0):
    return scale * np.random.default_rng(seed).standard_normal(m)


class TestLogPartition:
    def test_all_zero(self):
        for beta in (0.0, 1.0, 7.5):
            assert sm.log_partition(np.zeros(3), beta) == pytest.approx(LN3, abs=1e-15)

    def test_hand_value(self):
        assert sm.log_partition(X_HAND, 1.0) == pytest.approx(LN3, abs=1e-15)

    def test_no_overflow(self):
        assert sm.log_partition(np.array([1e6, 0.0]), 1.0) == 1e6

    def test_beta_zero_exact(self):
        x = random_x(17, 0)
        assert sm.log_partition(x, 0.0) == math.log(17.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="invalid-input"):
            sm.log_partition(np.array([1.0, np.nan]), 1.0)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError, match="invalid-parameter"):
            sm.log_partition(X_HAND, -0.5)

    def test_convexity_on_grid(self):
        x = random_x(12, 3)
        grid = np.linspace(0.0, 8.0, 33)
        lam = np.array([sm.log_partition(x, b) for b in grid])
        assert np.diff(lam, 2).min() >= -1e-8


class TestLogSumExpPrimitive:
    """The in-house primitive against scipy's logsumexp as the reference.

    The max-shifted form is accurate relative to beta * max x + log m, not to
    Lambda itself, so the inputs keep Lambda away from 0.
    """

    @pytest.mark.parametrize("beta", [0.0, 1e-3, 1.0, 1e2, 1e4, 1.5e5])
    def test_matches_scipy(self, beta):
        # Spread of x is about 8, so beta * spread reaches 1e6.
        x = 5.0 + np.random.default_rng(40).standard_normal((64, 16))
        np.testing.assert_allclose(_lse(x, beta), logsumexp(beta * x, axis=-1),
                                   rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 1e6])
    def test_exact_ties(self, beta):
        x = np.array([[2.5, 2.5, 2.5, 2.5], [1.0, 3.0, 3.0, -2.0]])
        np.testing.assert_allclose(_lse(x, beta), logsumexp(beta * x, axis=-1),
                                   rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("beta", [0.0, 0.7, 1e6])
    def test_single_coordinate(self, beta):
        x = np.array([[-1.25], [0.5], [3.0]])
        assert np.array_equal(_lse(x, beta), beta * x[:, 0])
        np.testing.assert_allclose(_lse(x, beta), logsumexp(beta * x, axis=-1),
                                   rtol=1e-14, atol=0.0)

    def test_log_weights_finite_at_extreme_beta(self):
        # Shift before scale: beta * (x - max x) <= 0 whatever beta is.
        x = random_x(7, 41)
        with np.errstate(over="ignore"):
            _, log_w = _lse(x, 1e308, log_weights=True)
            avg = sm.GIBBS_AVERAGE.evaluate(x, 1e308)
        assert np.all(log_w <= 0.0)
        assert np.exp(log_w).sum() == 1.0
        assert avg == x.max()

    def test_extreme_beta_warns_nothing(self):
        # The shifted exponents overflow to -inf (exp gives an exact 0), and
        # the tilted mean's Lambda(beta), out of range here, overflows silently.
        x = np.array([[0.5, -1.0, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(sm.GIBBS_AVERAGE.evaluate(x, 1e308), [2.0])
            _, log_w = _lse(np.array([0.5, -2.0]), 1e308, log_weights=True)
        assert np.array_equal(log_w, [0.0, -np.inf])

    def test_extreme_beta_participation(self):
        # One shifted exp at beta: 2 beta, which overflows here, is never
        # formed, so the ratio is the point mass's 1 and no warning fires.
        x = np.array([[0.5, -1.0, 2.0]])
        ens = sm.build_iid(3, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(sm.participation_ratio(x, 1e308), [1.0])
            assert np.array_equal(sm.renyi_half_via_participation(x, 1e308),
                                  [np.log(3.0)])
            replica = quench.evaluate_values(ens, sm.REPLICA_GIBBS, x, 1e308)
        assert np.all(np.isfinite(replica))

    def test_exp_floor_gives_exact_zeros(self):
        # Below about -745.13 exp rounds to 0, so skipping the exponents
        # under the floor drops only exact zeros.
        z = np.linspace(-800.0, _EXP_FLOOR, 100_001)
        assert not np.any(np.exp(np.nextafter(z, -np.inf)))

    def test_import_loads_no_scipy(self):
        code = ("import importlib, pkgutil, sys, softmaxima\n"
                "for m in pkgutil.iter_modules(softmaxima.__path__):\n"
                "    importlib.import_module('softmaxima.' + m.name)\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        src = str(Path(sm.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                             capture_output=True, text=True)
        assert out.stdout.strip() == "[]"


class TestShiftedPasses:
    """One max-shifted pass per beta that a kernel needs."""

    @pytest.mark.parametrize("kernel, passes", [
        (sm.kl_to_uniform, 1), (sm.participation_ratio, 1),
        (sm.renyi_half_via_participation, 1), (sm.GIBBS_AVERAGE.evaluate, 1),
        (sm.participation_derivative, 2)])
    def test_passes_per_call(self, monkeypatch, kernel, passes):
        calls = []
        real = gibbs._shifted

        def shifted(x, beta):
            calls.append(beta)
            return real(x, beta)

        monkeypatch.setattr(gibbs, "_shifted", shifted)
        kernel(random_x(6, 30), 1.5)
        assert len(calls) == passes


def _same_bits(a, b):
    return (np.shape(a) == np.shape(b) and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


class TestRowMax:
    """_row_max is np.max(x, axis=-1) bit for bit, by either form."""

    # numpy vectorises its max from 9 columns on, where a fold can differ
    # from it on signed zeros.
    WIDTHS = sorted({1, 2, 3, 8, 9, 16, gibbs._ROW_MAX_FOLD_WIDTH,
                     gibbs._ROW_MAX_FOLD_WIDTH + 1, 64})

    @pytest.mark.parametrize("m", WIDTHS)
    @pytest.mark.parametrize("lead", [(), (37,), (5, 7)])
    def test_equals_np_max(self, m, lead):
        rng = np.random.default_rng(m)
        x = rng.standard_normal(lead + (m,))
        # Ties: a repeated row maximum in every third row.
        flat = x.reshape(-1, m)
        flat[::3] = np.round(flat[::3])
        got = gibbs._row_max(x)
        assert type(got) is type(np.max(x, axis=-1))
        assert _same_bits(got, np.max(x, axis=-1))

    @pytest.mark.parametrize("m", WIDTHS)
    def test_signed_zeros(self, m):
        # Every mix of 0.0 and -0.0 up to 2^10 rows, a negative row beside
        # them, and each as one 1-D row.
        rows = min(1 << m, 1 << 10)
        bits = (np.arange(rows)[:, None] >> np.arange(m)[None, :]) & 1
        x = np.where(bits == 1, -0.0, 0.0)
        x = np.vstack([x, -np.ones(m)])
        assert _same_bits(gibbs._row_max(x), np.max(x, axis=-1))
        assert _same_bits(gibbs._row_max(x.reshape(1, -1, m)),
                          np.max(x.reshape(1, -1, m), axis=-1))
        for row in x[:64]:
            assert _same_bits(gibbs._row_max(row), np.max(row))


class TestRowSum:
    """_row_sum is np.sum(x, axis=-1) bit for bit, by either form."""

    # numpy adds a row left to right below 8 columns, pairwise from 8 on.
    WIDTHS = sorted({1, 2, 3, 7, 8, 9, 16, gibbs._ROW_SUM_FOLD_WIDTH,
                     gibbs._ROW_SUM_FOLD_WIDTH + 1, 64})

    @pytest.mark.parametrize("m", WIDTHS)
    @pytest.mark.parametrize("lead", [(), (37,), (5, 7)])
    def test_equals_np_sum(self, m, lead):
        # Magnitudes spread over six decades, so the order of the adds shows.
        rng = np.random.default_rng(m)
        x = rng.standard_normal(lead + (m,)) * 10.0 ** rng.uniform(-3, 3, lead + (m,))
        got = gibbs._row_sum(x)
        assert type(got) is type(np.sum(x, axis=-1))
        assert _same_bits(got, np.sum(x, axis=-1))

    @pytest.mark.parametrize("m", WIDTHS)
    def test_signed_zeros(self, m):
        # Every mix of 0.0 and -0.0 up to 2^10 rows, a nonzero row beside
        # them, and each as one 1-D row.
        rows = min(1 << m, 1 << 10)
        bits = (np.arange(rows)[:, None] >> np.arange(m)[None, :]) & 1
        x = np.where(bits == 1, -0.0, 0.0)
        x = np.vstack([x, -np.ones(m)])
        assert _same_bits(gibbs._row_sum(x), np.sum(x, axis=-1))
        assert _same_bits(gibbs._row_sum(x.reshape(1, -1, m)),
                          np.sum(x.reshape(1, -1, m), axis=-1))
        for row in x[:64]:
            assert _same_bits(gibbs._row_sum(row), np.sum(row))

    def test_fold_differs_from_np_sum_at_width_8(self, monkeypatch):
        # The crossover is where it is for a reason: folded at 8 columns, the
        # sum is not np.sum's on this batch.
        x = np.random.default_rng(8).standard_normal((1000, 8))
        assert _same_bits(gibbs._row_sum(x), np.sum(x, axis=-1))
        monkeypatch.setattr(gibbs, "_ROW_SUM_FOLD_WIDTH", 8)
        assert not np.array_equal(gibbs._row_sum(x), np.sum(x, axis=-1))


def _edge_exponents(rng, shape, live_share):
    """Exponents with about live_share of them at or above the floor.

    With more than one column every row holds 0, as a shifted row does, -inf
    (an overflowed shift), the floor and its two neighbours.
    """
    z = np.where(rng.random(shape) < live_share,
                 rng.uniform(_EXP_FLOOR, 0.0, shape),
                 rng.uniform(-3000.0, _EXP_FLOOR, shape))
    if shape[1] > 3:
        z[:, 0] = 0.0
        z[::2, 1] = -np.inf
        z[1::2, 1] = np.nextafter(_EXP_FLOOR, -np.inf)
        z[::3, 2] = _EXP_FLOOR
        z[1::3, 3] = np.nextafter(_EXP_FLOOR, 0.0)
    return z


class TestSumExp:
    """_exp is np.exp bit for bit by either path, and so is the sum over it."""

    @pytest.mark.parametrize("live_share", [0.0, 0.05, 0.5, 1.0])
    @pytest.mark.parametrize("shape", [(300, 64), (50, 1), (7, 1000)])
    def test_equals_dense_sum(self, live_share, shape):
        z = _edge_exponents(np.random.default_rng(shape[1]), shape, live_share)
        expected = np.sum(np.exp(z), axis=-1)
        z_in = z.copy()
        assert np.array_equal(np.sum(_exp(z), axis=-1), expected)
        assert np.array_equal(z, z_in)  # left as it was
        z_out = z.copy()
        assert np.array_equal(np.sum(_exp(z_out, out=z_out), axis=-1), expected)
        # The array itself, new, in place, or into another array.
        assert np.array_equal(_exp(z), np.exp(z))
        z_out = z.copy()
        assert _exp(z_out, out=z_out) is z_out
        assert np.array_equal(z_out, np.exp(z))
        other = np.full_like(z, np.nan)
        assert _exp(z, out=other) is other
        assert np.array_equal(other, np.exp(z))

    @pytest.mark.parametrize("live", [0, 1, 17, 31, 33, 63, 64])
    def test_both_sides_of_the_switch(self, live):
        # The first `live` of 64 columns are live.  All 1024 entries are
        # sampled: up to 32 live columns take the sparse path, 33 or more the
        # dense one.
        z = np.full((16, 64), np.nextafter(_EXP_FLOOR, -np.inf))
        z[:, :live] = np.linspace(0.0, _EXP_FLOOR, live)
        expected = np.sum(np.exp(z), axis=-1)
        assert np.array_equal(np.sum(_exp(z), axis=-1), expected)
        z_out = z.copy()
        assert np.array_equal(np.sum(_exp(z_out, out=z_out), axis=-1), expected)
        assert np.array_equal(_exp(z), np.exp(z))

    @pytest.mark.parametrize("beta", [1.0, 300.0, 1276.0, 5000.0])
    def test_participation_ratio_unchanged(self, beta):
        # Against sum e^2 / (sum e)^2 over a dense exp of the shifted
        # exponents: 100%, 56%, 5% and 2% of them are live on this batch.
        x = sm.realization_batch(sm.build_iid(64, 1.0), 20_000, 7)
        z = x - np.max(x, axis=-1, keepdims=True)
        z *= beta
        e = np.exp(z)
        expected = np.sum(e * e, axis=-1) / np.sum(e, axis=-1) ** 2
        assert np.array_equal(sm.participation_ratio(x, beta), expected)

    @pytest.mark.parametrize("beta", [1.0, 300.0, 1276.0, 5000.0])
    def test_tilted_mean_and_weights_unchanged(self, beta):
        # Against dense exps of the log-weights, as _tilted_mean and
        # gibbs_measure formed them before the sparse path.
        x = sm.realization_batch(sm.build_iid(64, 1.0), 20_000, 7)
        z = x - np.max(x, axis=-1, keepdims=True)
        z *= beta
        z -= np.log(np.sum(np.exp(z), axis=-1))[:, None]
        weights = np.exp(z)
        assert np.array_equal(sm.gibbs_measure(x, beta).weights, weights)
        assert np.array_equal(sm.GIBBS_AVERAGE.evaluate(x, beta),
                              np.sum(weights * x, axis=-1))


class TestGibbsMeasure:
    def test_constant_gives_uniform(self):
        st = sm.gibbs_measure(np.full(5, 3.3), 2.0)
        assert np.allclose(st.weights, 0.2, atol=1e-15)

    def test_hand_weights(self):
        st = sm.gibbs_measure(X_HAND, 1.0)
        assert st.weights == pytest.approx([2 / 3, 1 / 3], abs=1e-15)
        assert st.log_z == pytest.approx(LN3, abs=1e-15)

    def test_beta_zero_uniform_exact(self):
        st = sm.gibbs_measure(random_x(7, 1), 0.0)
        assert np.all(st.weights == 1.0 / 7.0)

    def test_state_invariants(self):
        for seed in range(4):
            x = random_x(9, seed, scale=4.0)
            for beta in (0.0, 0.3, 2.0, 50.0):
                st = sm.gibbs_measure(x, beta)
                assert st.weights.min() >= 0.0
                assert abs(st.weights.sum() - 1.0) <= 1e-12
                assert np.allclose(np.exp(st.log_weights), st.weights, rtol=1e-12)
                assert st.size == 9


class TestGibbsAverage:
    def test_hand_value(self):
        st = sm.gibbs_measure(X_HAND, 1.0)
        assert sm.gibbs_average(st, X_HAND) == pytest.approx((2 / 3) * LN2, abs=1e-15)

    def test_beta_zero_is_mean(self):
        x = random_x(11, 2)
        st = sm.gibbs_measure(x, 0.0)
        assert sm.gibbs_average(st, x) == pytest.approx(x.mean(), rel=1e-14)

    def test_saturation(self):
        # two-point closed form: <X> = 5 / (1 + exp(-beta*5)) at x = (5, 0)
        x = np.array([5.0, 0.0])
        st = sm.gibbs_measure(x, 100.0)
        got = sm.gibbs_average(st, x)
        assert abs(got - 5.0) < 1e-10
        assert got == pytest.approx(5.0 / (1.0 + math.exp(-500.0)), abs=1e-12)

    def test_dimension_mismatch(self):
        st = sm.gibbs_measure(X_HAND, 1.0)
        with pytest.raises(ValueError, match="invalid-input"):
            sm.gibbs_average(st, np.zeros(3))

    def test_matches_log_partition_derivative(self):
        # Lambda'(beta) = <X>_beta, central difference h = 1e-5.
        x = random_x(6, 4)
        h = 1e-5
        for beta in (0.4, 1.0, 3.0):
            fd = (sm.log_partition(x, beta + h) - sm.log_partition(x, beta - h)) / (2 * h)
            got = sm.gibbs_average(sm.gibbs_measure(x, beta), x)
            assert fd == pytest.approx(got, rel=1e-6)

    def test_second_derivative_is_variance(self):
        # Lambda'' = Gibbs variance; difference the first derivative, not
        # Lambda itself, so roundoff stays ~eps/h instead of eps/h^2.
        x = random_x(6, 5)
        h = 1e-5
        for beta in (0.4, 1.0, 3.0):
            up = sm.gibbs_average(sm.gibbs_measure(x, beta + h), x)
            dn = sm.gibbs_average(sm.gibbs_measure(x, beta - h), x)
            fd2 = (up - dn) / (2 * h)
            st = sm.gibbs_measure(x, beta)
            var = sm.gibbs_average(st, x ** 2) - sm.gibbs_average(st, x) ** 2
            assert fd2 == pytest.approx(var, rel=1e-6)


class TestSoftMax:
    def test_singleton_exact(self):
        x = random_x(5, 6)
        for i in range(5):
            assert sm.soft_max(x, 2.0, subset=(i,)) == x[i]

    def test_equal_energies(self):
        assert sm.soft_max(np.zeros(2), 1.0) == pytest.approx(LN2, abs=1e-15)

    def test_monotone_in_subset(self):
        x = random_x(8, 7)
        inner = sm.soft_max(x, 1.5, subset=(0, 2, 4))
        outer = sm.soft_max(x, 1.5, subset=(0, 1, 2, 3, 4))
        assert inner <= outer

    def test_sandwich(self):
        for seed in range(5):
            x = random_x(16, seed, scale=3.0)
            for beta in (0.1, 1.0, 10.0):
                phi = sm.soft_max(x, beta)
                assert x.max() - 1e-9 <= phi <= x.max() + math.log(16) / beta + 1e-9

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError, match="invalid-input"):
            sm.soft_max(X_HAND, 1.0, subset=())

    @pytest.mark.parametrize("subset", [
        [0.7, 2.9], [0.0, 2.0], [True, False], [0, True], np.array([True]),
        np.array([0.0, 1.0]), ["0"]])
    def test_positions_must_be_integers(self, subset):
        # They used to be truncated: [0.7, 2.9] read as [0, 2], True as 1.
        with pytest.raises(ValueError, match="invalid-input: subset positions"):
            sm.soft_max(X_HAND, 1.0, subset)
        with pytest.raises(ValueError, match="invalid-input: subset positions"):
            sm.Observable("soft_max", subset=tuple(subset))

    def test_integer_positions_of_any_type(self):
        x = random_x(5, 6)
        want = sm.soft_max(x, 1.0, (0, 2))
        for subset in (np.array([0, 2]), np.array([0, 2], dtype=np.uint8),
                       [np.int64(0), 2], range(0, 3, 2)):
            assert sm.soft_max(x, 1.0, subset) == want
            assert sm.Observable("soft_max", subset=subset).name == "soft_max(0,2)"
        with pytest.raises(ValueError, match="nonempty"):
            sm.soft_max(X_HAND, 1.0, np.array([]))

    def test_beta_zero_rejected(self):
        with pytest.raises(ValueError, match="invalid-parameter"):
            sm.soft_max(X_HAND, 0.0)

    def test_repeated_index_rejected(self):
        # A repeated coordinate would count its Gibbs weight twice.
        with pytest.raises(ValueError, match="invalid-input"):
            sm.soft_max(X_HAND, 1.0, [0, 0])


class TestParticipationRatio:
    def test_uniform_floor_at_beta_zero(self):
        x = random_x(13, 8)
        assert sm.participation_ratio(x, 0.0) == pytest.approx(1 / 13, rel=1e-14)

    def test_hand_value(self):
        assert sm.participation_ratio(X_HAND, 1.0) == pytest.approx(5 / 9, abs=1e-15)

    def test_dirac_limit(self):
        x = np.array([1.0, 0.3, -0.2, 0.0])
        got = sm.participation_ratio(x, 1e4)
        direct = (sm.gibbs_measure(x, 1e4).weights ** 2).sum()
        assert abs(got - 1.0) < 1e-6
        assert got == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.3, 2.0, 40.0])
    def test_log_partition_identity(self, beta):
        # sum nu^2 = exp(Lambda(2 beta) - 2 Lambda(beta)); the subtraction
        # loses about beta * max x ulps, so the tolerance is loose.
        x = np.random.default_rng(16).standard_normal((200, 12))
        want = np.exp(_lse(x, 2.0 * beta) - 2.0 * _lse(x, beta))
        np.testing.assert_allclose(sm.participation_ratio(x, beta), want,
                                   rtol=1e-12, atol=0.0)

    def test_range(self):
        for seed in range(4):
            x = random_x(10, seed)
            for beta in (0.0, 0.5, 2.0, 20.0):
                r = sm.participation_ratio(x, beta)
                assert 1 / 10 - 1e-12 <= r <= 1.0 + 1e-12

    def test_monotone_on_grid(self):
        x = random_x(10, 9)
        vals = [sm.participation_ratio(x, b) for b in np.linspace(0, 10, 51)]
        assert np.diff(vals).min() >= -1e-14


class TestParticipationDerivative:
    def test_constant_is_zero(self):
        assert sm.participation_derivative(np.full(4, 1.7), 2.0) == 0.0

    def test_nonnegative(self):
        for seed in range(6):
            x = random_x(9, seed, scale=2.0)
            for beta in (0.1, 1.0, 10.0):
                assert sm.participation_derivative(x, beta) >= -1e-12

    def test_matches_finite_difference(self):
        h = 1e-5
        for seed in range(3):
            x = random_x(7, seed)
            for beta in (0.3, 1.0, 4.0):
                fd = (sm.participation_ratio(x, beta + h)
                      - sm.participation_ratio(x, beta - h)) / (2 * h)
                got = sm.participation_derivative(x, beta)
                assert got == pytest.approx(fd, rel=1e-6, abs=1e-12)

    def test_refuses_beta_whose_double_overflows(self, monkeypatch):
        # The pass at 2 beta = inf gave -4 here, with three warnings.
        x = np.array([[0.5, -1.0, 2.0]])
        top = np.finfo(np.float64).max / 2.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sm.participation_derivative(x, top) >= -1e-12
            monkeypatch.setattr(gibbs, "_shifted", None)  # no pass may run
            for beta in (1e308, np.nextafter(top, np.inf)):
                with pytest.raises(ValueError, match="invalid-parameter"):
                    sm.participation_derivative(x, beta)


class TestDivergences:
    def test_kl_zero_at_beta_zero(self):
        assert sm.kl_to_uniform(random_x(6, 10), 0.0) == 0.0

    def test_kl_hand_value(self):
        want = LN2 + (2 / 3) * LN2 - LN3
        assert sm.kl_to_uniform(X_HAND, 1.0) == pytest.approx(want, abs=1e-14)

    def test_kl_dirac_limit(self):
        x = np.array([2.0, 0.1, 0.0])
        assert sm.kl_to_uniform(x, 1e4) == pytest.approx(LN3, abs=1e-6)

    def test_kl_nonnegative(self):
        for seed in range(5):
            x = random_x(8, seed)
            for beta in (0.0, 0.7, 3.0):
                assert sm.kl_to_uniform(x, beta) >= -1e-12

    def test_kl_entropy_identity(self):
        for seed in range(5):
            x = random_x(8, seed, scale=2.0)
            for beta in (0.0, 0.7, 3.0, 30.0):
                kl = sm.kl_to_uniform(x, beta)
                h = sm.shannon_entropy(sm.gibbs_measure(x, beta))
                assert abs(kl - (math.log(8) - h)) <= 1e-10

    def test_renyi_hand_value(self):
        want = LN2 + math.log(5 / 9)
        assert sm.renyi_to_uniform(X_HAND, 2.0, 0.5) == pytest.approx(want, abs=1e-14)

    def test_renyi_zero_at_beta_zero(self):
        x = random_x(6, 11)
        for alpha in (0.5, 1.0, 2.0, 7.0):
            assert sm.renyi_to_uniform(x, 0.0, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_renyi_monotone_in_alpha(self):
        x = random_x(9, 12)
        for beta in (0.5, 2.0):
            vals = [sm.renyi_to_uniform(x, beta, a)
                    for a in (0.25, 0.5, 0.99, 1.0, 1.01, 2.0, 4.0)]
            assert np.diff(vals).min() >= -1e-10

    def test_renyi_alpha_one_switches_to_kl(self):
        x = random_x(9, 13)
        kl = sm.kl_to_uniform(x, 1.5)
        assert sm.renyi_to_uniform(x, 1.5, 1.0) == kl
        assert sm.renyi_to_uniform(x, 1.5, 1.0 + 1e-9) == kl
        # just outside the switch window: the quotient form, still close
        assert sm.renyi_to_uniform(x, 1.5, 1.0 + 1e-6) == pytest.approx(kl, abs=1e-5)

    def test_renyi_bad_alpha(self):
        with pytest.raises(ValueError, match="invalid-parameter"):
            sm.renyi_to_uniform(X_HAND, 1.0, 0.0)
        with pytest.raises(ValueError, match="invalid-parameter"):
            sm.renyi_to_uniform(X_HAND, 1.0, -2.0)

    def test_renyi_extreme_beta_on_one_shift(self):
        # Both sums come from the one shift at beta, so alpha beta is never
        # formed and the beta max x terms never meet as inf - inf.
        x = np.array([[0.5, -1.0, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for alpha in (0.5, 2.0):
                assert np.array_equal(sm.renyi_to_uniform(x, 1e308, alpha),
                                      [np.log(3.0)])

    def test_renyi_cold_limit_exact(self):
        # Far past every gap the weights are a point mass and D_alpha is log m
        # exactly; the per-sample error was up to 1.0 before the one shift.
        x = sm.realization_batch(sm.build_iid(8, 1.0), 1000, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for beta in (1e10, 1e15):
                for alpha in (0.7, 3.0):
                    got = sm.renyi_to_uniform(x, beta, alpha)
                    assert np.array_equal(got, np.full(1000, np.log(8.0)))

    def test_half_route_zero_at_beta_zero(self):
        assert sm.renyi_half_via_participation(random_x(5, 14), 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_half_route_hand_value(self):
        want = LN2 + math.log(5 / 9)
        assert sm.renyi_half_via_participation(X_HAND, 2.0) == pytest.approx(want, abs=1e-14)

    def test_half_route_matches_direct(self):
        for seed in range(5):
            x = random_x(8, seed, scale=2.0)
            for beta in (0.0, 0.6, 2.5, 25.0):
                a = sm.renyi_half_via_participation(x, beta)
                b = sm.renyi_to_uniform(x, beta, 0.5)
                assert abs(a - b) <= 1e-10

    def test_half_route_dirac_limit(self):
        x = np.array([3.0, 0.2, 0.1, 0.0])
        assert sm.renyi_half_via_participation(x, 1e5) == pytest.approx(math.log(4), abs=1e-6)


class TestShannonEntropy:
    def test_uniform(self):
        st = sm.gibbs_measure(random_x(10, 15), 0.0)
        assert sm.shannon_entropy(st) == pytest.approx(math.log(10), rel=1e-14)

    def test_near_dirac(self):
        st = sm.gibbs_measure(np.array([1.0, 0.0, -1.0]), 1e4)
        assert sm.shannon_entropy(st) < 1e-3

    def test_hand_value(self):
        st = sm.gibbs_measure(X_HAND, 1.0)
        want = -(2 / 3) * math.log(2 / 3) - (1 / 3) * math.log(1 / 3)
        assert sm.shannon_entropy(st) == pytest.approx(want, abs=1e-15)

    def test_range(self):
        for seed in range(4):
            st = sm.gibbs_measure(random_x(6, seed), 2.0)
            assert 0.0 <= sm.shannon_entropy(st) <= math.log(6) + 1e-12


class TestFreeEnergy:
    def test_beta_zero_exactly_zero(self):
        assert sm.free_energy(random_x(9, 16), 0.0) == 0.0

    def test_normalization_at_uniform(self):
        # per-sample value is (Lambda(beta) - log m) / beta
        x = random_x(4, 17)
        beta = 1.3
        want = (sm.log_partition(x, beta) - math.log(4)) / beta
        assert sm.free_energy(x, beta) == pytest.approx(want, rel=1e-14)

    def test_sandwich_from_soft_max(self):
        # free energy = soft_max - log(m)/beta, so the softmax sandwich
        # shifts down: max - log m / beta <= free_energy <= max
        for seed in range(4):
            x = random_x(8, seed, scale=2.0)
            for beta in (0.5, 2.0):
                f = sm.free_energy(x, beta)
                phi = sm.soft_max(x, beta)
                assert f == pytest.approx(phi - math.log(8) / beta, rel=1e-12)


class TestObservable:
    def test_kinds_evaluate(self):
        x = random_x(6, 18)
        st = sm.gibbs_measure(x, 1.0)
        cases = {
            sm.GIBBS_AVERAGE: sm.gibbs_average(st, x),
            sm.FREE_ENERGY: sm.free_energy(x, 1.0),
            sm.PARTICIPATION_RATIO: sm.participation_ratio(x, 1.0),
            sm.KL_TO_UNIFORM: sm.kl_to_uniform(x, 1.0),
            sm.RENYI_HALF: sm.renyi_half_via_participation(x, 1.0),
            sm.SHANNON_ENTROPY: sm.shannon_entropy(st),
            sm.EXPECTED_MAX: x.max(),
        }
        for obs, want in cases.items():
            assert obs.evaluate(x, 1.0) == pytest.approx(want, rel=1e-14)

    def test_soft_max_observable(self):
        x = random_x(6, 19)
        obs = sm.soft_max_observable((1, 3))
        assert obs.evaluate(x, 2.0) == sm.soft_max(x, 2.0, subset=(1, 3))
        assert obs.name == "soft_max(1,3)"

    def test_renyi_observable(self):
        x = random_x(6, 20)
        obs = sm.renyi_observable(2.0)
        assert obs.evaluate(x, 1.0) == sm.renyi_to_uniform(x, 1.0, 2.0)
        assert sm.renyi_observable(0.5).name == "renyi(0.5)"

    def test_parse_roundtrip(self):
        for text in ("gibbs_average", "free_energy", "participation_ratio",
                     "kl_to_uniform", "renyi(0.5)", "renyi(2)", "shannon_entropy",
                     "expected_max", "replica_gibbs"):
            assert sm.parse_observable(text).name == text

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="invalid-input"):
            sm.parse_observable("maximum_entropy_flux")

    def test_replica_needs_geometry(self):
        with pytest.raises(ValueError, match="invalid-input"):
            sm.REPLICA_GIBBS.evaluate(random_x(4, 21), 1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="invalid-parameter"):
            sm.Observable(kind="renyi_to_uniform", alpha=-1.0)
        with pytest.raises(ValueError, match="invalid-input"):
            sm.Observable(kind="soft_max", subset=())
        with pytest.raises(ValueError, match="invalid-parameter"):
            sm.Observable(kind="no_such_kind")
