"""Per-realization functionals: hand values, limits, identities, derivatives.

Expected numbers come from hand evaluation on x = (ln 2, 0), where every
partition function is a small integer: Z(1) = 3, Z(2) = 5.
"""

import functools
import math
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import softmaxima as sm
from softmaxima import gibbs, quench
from softmaxima.gibbs import _EXP_FLOOR, _exp, _lse
from tests.conftest import probe_case

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
        # Lambda(beta), out of range here, overflows silently where the free
        # energy and the softmax take the shift out of it.  KL reads the
        # point mass's log m: its e z terms are 0, not 0 * -inf.
        x = np.array([[0.5, -1.0, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(sm.GIBBS_AVERAGE.evaluate(x, 1e308), [2.0])
            assert np.array_equal(sm.kl_to_uniform(x, 1e308), [np.log(3.0)])
            assert np.array_equal(sm.free_energy(x, 1e308), [2.0])
            assert np.array_equal(sm.soft_max(x, 1e308), [2.0])
            assert np.array_equal(sm.soft_max(x, 1e308, [0, 1]), [0.5])
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
    """One pass per beta that a kernel needs, and one shift per row block
    per call."""

    @pytest.mark.parametrize("kernel, passes", [
        (sm.kl_to_uniform, 1), (sm.participation_ratio, 1),
        (sm.renyi_half_via_participation, 1), (sm.GIBBS_AVERAGE.evaluate, 1),
        (sm.participation_derivative, 2)])
    def test_passes_per_call(self, monkeypatch, kernel, passes):
        # Calls are appended to lists, which no thread's update can lose.
        calls = {"_pass": [], "_shift": []}
        real_pass, real_shift = gibbs._pass, gibbs._shift

        def counted_pass(x, x_max, d, beta, *args):
            calls["_pass"].append(beta)
            return real_pass(x, x_max, d, beta, *args)

        def counted_shift(x):
            calls["_shift"].append(x.shape)
            return real_shift(x)

        monkeypatch.setattr(gibbs, "_pass", counted_pass)
        monkeypatch.setattr(gibbs, "_shift", counted_shift)
        # On 6 coordinates each pass's outputs exceed a quarter of the batch,
        # so each pass shifts on its own; on 64 the passes share one shift.
        for m, shifts in ((6, passes), (64, 1)):
            calls["_pass"], calls["_shift"] = [], []
            kernel(random_x(m, 30), 1.5)
            assert len(calls["_pass"]) == passes
            assert len(calls["_shift"]) == shifts


def _same_bits(a, b):
    return (np.shape(a) == np.shape(b) and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


class TestBlockedPass:
    """_observe over row blocks equals the pass body run on the whole batch
    as one block, bit for bit, signed zeros included."""

    @staticmethod
    def keys(m):
        keys = [("participation_ratio", None), ("renyi_half", None),
                ("gibbs_average", None), ("kl_to_uniform", None),
                ("free_energy", None), ("shannon_entropy", None),
                ("replica_gibbs", None), gibbs._LOG_PARTITION,
                gibbs._LOG_WEIGHTS, ("renyi_to_uniform", 0.5),
                ("renyi_to_uniform", 2.0)]
        if m >= 2 and not m & (m - 1):
            keys.append(("rem_pressure", None))
        return keys + [("kl_to_uniform", None), gibbs._LOG_WEIGHTS]  # repeats

    @staticmethod
    def batch(m, n, order, seed):
        # Rows alternate between small and large scales block by block, so
        # at beta = 300 some blocks take the sparse exp and others do not.
        step = gibbs._BLOCK_ELEMENTS // m
        scale = np.where(np.arange(n) // step % 2 == 1, 10.0, 0.01)[:, None]
        x = np.random.default_rng(seed).standard_normal((n, m)) * scale
        return np.asarray(x, order=order)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 1024])
    def test_equals_one_block(self, corr3, m, order):
        # No ensemble has one point, so replica_gibbs is left out at m = 1.
        ens = corr3 if m == 3 else sm.build_iid(m, 1.0) if m > 1 else None
        keys = [k for k in self.keys(m) if ens or k[0] != "replica_gibbs"]
        step = gibbs._BLOCK_ELEMENTS // m
        for n in (1, step - 1, step, step + 1, 2 * step + step // 3 + 1):
            x = self.batch(m, n, order, seed=m * n)
            for beta in (0.0, -0.0, 1.0, 300.0):
                blocked = list(gibbs._observe(x, [(beta, keys)], ens))
                whole = dict(gibbs._pass(x, *gibbs._shift(x), beta, keys, ens))
                assert sorted(i for _, i, _ in blocked) == list(range(len(keys)))
                for _, i, values in blocked:
                    assert _same_bits(values, whole[i]), (n, beta, keys[i])

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 1024])
    def test_thread_count_changes_no_bit(self, monkeypatch, corr3, m, order):
        # Every key with repeats, five passes in one call, and 1 to 25 row
        # blocks, the last one partial: a helper thread takes blocks from 4.
        # No bit depends on the block size (test_equals_one_block), so
        # blocks of 2^12 elements keep the test short.
        monkeypatch.setattr(gibbs, "_BLOCK_ELEMENTS", 1 << 12)
        ens = corr3 if m == 3 else sm.build_iid(m, 1.0) if m > 1 else None
        keys = [k for k in self.keys(m) if ens or k[0] != "replica_gibbs"]
        passes = [(beta, keys) for beta in (0.0, -0.0, 1.0, 300.0, 1e308)]
        step = gibbs._BLOCK_ELEMENTS // m
        for blocks in (1, 2, 3, 4, 5, 25):
            x = self.batch(m, (blocks - 1) * step + step // 2 + 1, order,
                           seed=m + blocks)
            runs = []
            for threads in (1, 2):
                monkeypatch.setattr(gibbs, "_THREADS", threads)
                runs.append(list(gibbs._observe(x, passes, ens)))
            one, two = runs
            assert [(p, i) for p, i, _ in one] == [(p, i) for p, i, _ in two]
            for (p, i, a), (_, _, b) in zip(one, two):
                assert _same_bits(a, b), (blocks, passes[p][0], keys[i])

    def test_sparse_exp_in_some_blocks_only(self):
        m = 64
        step = gibbs._BLOCK_ELEMENTS // m
        x = self.batch(m, 2 * step, "C", seed=1)
        below = [np.mean(300.0 * (b - b.max(axis=-1, keepdims=True)) < _EXP_FLOOR)
                 for b in (x[:step], x[step:])]
        assert below[0] < 0.5 < below[1]

    @pytest.mark.parametrize("shape", [(3,), (5, 7, 8), (0, 8), (0, 3, 4)])
    def test_shapes(self, shape):
        x = np.random.default_rng(3).standard_normal(shape)
        keys = [gibbs._LOG_PARTITION, gibbs._LOG_WEIGHTS]
        rows = x.reshape(-1, shape[-1])
        whole = dict(gibbs._pass(rows, *gibbs._shift(rows), 1.5, keys))
        for _, i, values in gibbs._observe(x, [(1.5, keys)]):
            assert _same_bits(values, whole[i].reshape(np.shape(values)))
            assert np.shape(values) == shape[:-1] + np.shape(whole[i])[1:]


class TestThreadedBlocks:
    """A call of 4 row blocks runs blocks 0-1 on the caller's thread and 2-3
    on a helper, which raises as the serial loop does and keeps the caller's
    np.errstate."""

    STEP = gibbs._BLOCK_ELEMENTS // 64

    @pytest.fixture(autouse=True)
    def two_threads(self, monkeypatch):
        monkeypatch.setattr(gibbs, "_THREADS", 2)

    def batch(self):
        # Column 0 holds the block's index, which the patched passes read.
        x = np.random.default_rng(4).standard_normal((4 * self.STEP, 64))
        x[:, 0] = np.arange(4 * self.STEP) // self.STEP
        return x

    def failing(self, monkeypatch, failing_blocks, ran=None):
        real = gibbs._pass

        def fail_pass(x, *args):
            block = int(x[0, 0])
            if ran is not None:
                ran.append((block, threading.get_ident()))
            if block in failing_blocks:
                raise ZeroDivisionError(f"block {block}")
            return real(x, *args)

        monkeypatch.setattr(gibbs, "_pass", fail_pass)

    def test_blocks_split_between_two_threads(self, monkeypatch):
        ran = []
        self.failing(monkeypatch, (), ran)
        list(gibbs._observe(self.batch(), [(1.0, [gibbs._LOG_PARTITION])]))
        threads = dict(ran)
        assert sorted(b for b, _ in ran) == [0, 1, 2, 3]
        assert threads[0] == threads[1] == threading.get_ident() != threads[2]
        assert threads[2] == threads[3]

    @pytest.mark.parametrize("failing_blocks, raised", [
        ((2,), 2), ((3,), 3), ((1, 3), 1), ((1, 2), 1), ((0, 3), 0), ((2, 3), 2)])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_first_failing_block_raises(self, monkeypatch, failing_blocks,
                                        raised, threads):
        monkeypatch.setattr(gibbs, "_THREADS", threads)
        self.failing(monkeypatch, failing_blocks)
        before = threading.active_count()
        with pytest.raises(ZeroDivisionError, match=f"^block {raised}$"):
            list(gibbs._observe(self.batch(), [(1.0, [gibbs._LOG_PARTITION])]))
        assert threading.active_count() == before

    def test_more_threads_than_cores_change_no_bit(self, monkeypatch):
        # Four threads of 6 or 7 blocks each, switching every microsecond:
        # a block that wrote another's rows, or a part that ran twice or
        # not at all, would change the bits or the error raised.
        monkeypatch.setattr(gibbs, "_BLOCK_ELEMENTS", 1 << 12)
        x = np.random.default_rng(6).standard_normal((25 * 64 - 5, 64))
        passes = [(beta, [gibbs._LOG_WEIGHTS, ("kl_to_uniform", None)])
                  for beta in (0.5, 3.0)]
        monkeypatch.setattr(gibbs, "_THREADS", 1)
        want = list(gibbs._observe(x, passes))
        monkeypatch.setattr(gibbs, "_THREADS", 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                got = list(gibbs._observe(x, passes))
                assert [(p, i) for p, i, _ in got] == [(p, i) for p, i, _ in want]
                for (_, _, a), (_, _, b) in zip(got, want):
                    assert _same_bits(a, b)
            # Blocks 0-5, 6-11, 12-17 and 18-24; one fails in each part but
            # the first, and column 0 holds the block's index.
            self.failing(monkeypatch, (7, 13, 20))
            x[:, 0] = np.arange(len(x)) // 64
            with pytest.raises(ZeroDivisionError, match="^block 7$"):
                list(gibbs._observe(x, passes))
        finally:
            sys.setswitchinterval(interval)

    def overflowing(self):
        # beta max x overflows Lambda in the helper's blocks only: the
        # caller's rows have max 0.
        x = self.batch()
        x[:2 * self.STEP] = -np.abs(x[:2 * self.STEP])
        x[:2 * self.STEP, 1] = 0.0
        return x, [(1e308, [gibbs._LOG_PARTITION])]

    def test_caller_errstate_holds_in_helper(self):
        x, passes = self.overflowing()
        before = threading.active_count()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                values = next(gibbs._observe(x, passes))[2]
        assert caught == []
        assert np.isinf(values[2 * self.STEP:]).all()
        assert np.isfinite(values[:2 * self.STEP]).all()
        assert threading.active_count() == before

    def test_helper_overflow_still_raises(self):
        x, passes = self.overflowing()
        before = threading.active_count()
        with pytest.raises(RuntimeWarning, match="overflow"):
            list(gibbs._observe(x, passes))
        assert threading.active_count() == before


@functools.lru_cache(maxsize=None)
def _ensemble(m, correlated):
    """An i.i.d. or AR(1) ensemble of m points (None at m = 1)."""
    if m == 1:
        return None
    if not correlated:
        return sm.build_iid(m, 1.3)
    idx = np.arange(m)
    return sm.build_from_covariance([f"s{i}" for i in idx],
                                    0.5 ** np.abs(idx[:, None] - idx[None, :]))


class TestGroupedPasses:
    """Passes that share one shift per row block equal each pass run alone,
    bit for bit, signed zeros included."""

    WIDTHS = [1, 7, 8, 9, 64, 1024]
    OBSERVABLES = [sm.GIBBS_AVERAGE, sm.FREE_ENERGY, sm.PARTICIPATION_RATIO,
                   sm.KL_TO_UNIFORM, sm.renyi_observable(0.5),
                   sm.renyi_observable(3.0), sm.renyi_observable(1.0 + 1e-9),
                   sm.RENYI_HALF, sm.SHANNON_ENTROPY, sm.REPLICA_GIBBS,
                   sm.EXPECTED_MAX, sm.soft_max_observable((0,))]

    @settings(max_examples=60, deadline=None)
    @given(m=st.sampled_from(WIDTHS), blocks=st.integers(0, 1),
           rest=st.integers(0, 2000), correlated=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1),
           betas=st.lists(st.sampled_from(
               [0.0, -0.0, 0.3, 1.0, 2.5, 300.0, 1e308]), min_size=1, max_size=5),
           kinds=st.lists(st.integers(0, len(OBSERVABLES) - 1), min_size=1,
                          max_size=6, unique=True))
    def test_grouped_equals_pass_major(self, m, blocks, rest, correlated, seed,
                                       betas, kinds):
        # n is never a multiple of the block rows.
        step = gibbs._BLOCK_ELEMENTS // m
        n = blocks * step + 1 + rest % (step - 1)
        ens = _ensemble(m, correlated)
        if ens is None:
            x = np.random.default_rng(seed).standard_normal((n, 1))
        else:
            x = sm.realization_batch(ens, max(n, 2), seed % 1000)[:n]
        # The correlated replica statistic adds m^2 columns: narrow sets only.
        observables = [obs for k in kinds for obs in [self.OBSERVABLES[k]]
                       if obs.kind != "replica_gibbs" or (ens is not None and
                                                          (ens.is_iid or m <= 9))]
        pairs = [(obs, beta) for beta in betas for obs in observables
                 if obs.kind != "soft_max" or beta > 0.0]
        grouped = dict(gibbs._evaluate(x, pairs, ens))
        assert sorted(grouped) == list(range(len(pairs)))
        for i, pair in enumerate(pairs):
            alone = next(gibbs._evaluate(x, [pair], ens))[1]
            assert _same_bits(grouped[i], alone), (pair, n)
        # Log-weights and Lambda, which is inf where beta max x overflows:
        # every beta's pass in one call against each pass in its own.
        keys = [gibbs._LOG_WEIGHTS, gibbs._LOG_PARTITION]
        passes = [(beta, keys) for beta in dict.fromkeys(betas)]
        with np.errstate(over="ignore"):
            together = list(gibbs._observe(x, passes))
            for p, i, values in together:
                alone = dict((j, v) for _, j, v in gibbs._observe(x, [passes[p]]))
                assert _same_bits(values, alone[i]), (passes[p][0], keys[i])

    @pytest.mark.parametrize("shape, betas, kinds, n_calls", [
        # The rem-sweep shape: 35 outputs of 2000 rows fit in a quarter of
        # 2000 x 1024, so the 18 passes share one call.
        ((2000, 1024), [0.25 * k for k in range(17)] + [1.7],
         [sm.REM_PRESSURE, sm.KL_TO_UNIFORM], 1),
        # The estimate-iid8 shape: each pass's 4 outputs fill half of
        # 2e5 x 8, so none shares a call.
        ((200_000, 8), [0.0, 0.5, 1.0, 1.5, 2.0],
         [sm.GIBBS_AVERAGE, sm.FREE_ENERGY, sm.renyi_observable(0.5),
          sm.PARTICIPATION_RATIO], 5)],
        ids=["2000x1024-35-pairs", "2e5x8-20-pairs"])
    def test_grouping_by_outputs(self, monkeypatch, shape, betas, kinds,
                                 n_calls):
        # Calls are appended to lists, which no thread's update can lose.
        calls = {"_observe": [], "_shift": [], "_pass": []}

        def counted(name):
            real = getattr(gibbs, name)

            def wrapper(*args):
                calls[name].append(None)
                return real(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(gibbs, name, counted(name))
        x = np.random.default_rng(5).standard_normal(shape)
        pairs = [(obs, beta) for beta in betas for obs in kinds]
        if len(betas) == 18:
            pairs = pairs[:-1]  # E KL alone at the last beta
        assert len(dict(gibbs._evaluate(x, pairs))) == len(pairs)
        blocks = -(-shape[0] // (gibbs._BLOCK_ELEMENTS // shape[1]))
        counts = {name: len(made) for name, made in calls.items()}
        assert counts == {"_observe": n_calls, "_shift": n_calls * blocks,
                          "_pass": len(betas) * blocks}


class TestKeptZRenyi:
    """Each Renyi order's exponents are alpha z from the pass's own z; that
    equals alpha z formed again from x as beta (x - max x), bit for bit,
    signed zeros included, and keeping z leaves every other value as it
    is."""

    WIDTHS = [1, 7, 8, 9, 64, 1024]
    BETAS = [0.0, -0.0, 1.0, 300.0, 1e308]
    ALPHAS = [0.5, 2.0, 1e-300, 1e300]
    # Observables beside the Renyi orders: none, or some that keep z.
    COMPANIONS = [(), (sm.GIBBS_AVERAGE,), (sm.SHANNON_ENTROPY,),
                  (sm.GIBBS_AVERAGE, sm.KL_TO_UNIFORM, sm.PARTICIPATION_RATIO),
                  (sm.SHANNON_ENTROPY, sm.KL_TO_UNIFORM),
                  (sm.FREE_ENERGY, sm.KL_TO_UNIFORM),
                  (sm.KL_TO_UNIFORM, sm.PARTICIPATION_RATIO)]

    @staticmethod
    def _formed_again(x, beta, alpha):
        """D_alpha of each row with z = beta (x - max x) and alpha z formed
        anew, as _pass combines them."""
        with np.errstate(over="ignore"):
            z = (x - gibbs._row_max(x)[:, None]) * beta
            log_s = np.log(gibbs._row_sum(gibbs._exp(z)))
            log_s_alpha = np.log(gibbs._row_sum(gibbs._exp(z * alpha)))
        return np.log(x.shape[-1]) + (log_s_alpha - alpha * log_s) / (alpha - 1.0)

    @pytest.mark.parametrize("companions", range(len(COMPANIONS)))
    @settings(max_examples=20, deadline=None)
    @given(m=st.sampled_from(WIDTHS), n=st.integers(1, 700),
           seed=st.integers(0, 2 ** 32 - 1),
           betas=st.lists(st.sampled_from(BETAS), min_size=1, max_size=3),
           alphas=st.lists(st.sampled_from(ALPHAS), min_size=1, max_size=4,
                           unique=True))
    def test_kept_z_equals_formed_again(self, companions, m, n, seed, betas, alphas):
        x = np.random.default_rng(seed).standard_normal((n, m))
        renyi = [sm.renyi_observable(a) for a in alphas]
        others = list(self.COMPANIONS[companions])
        pairs = [(obs, beta) for beta in betas for obs in renyi + others]
        values = dict(gibbs._evaluate(x, pairs))
        assert sorted(values) == list(range(len(pairs)))
        alone = dict(gibbs._evaluate(x, [p for p in pairs if p[0] in others]))
        rest = iter(alone[i] for i in sorted(alone))
        for i, (obs, beta) in enumerate(pairs):
            expected = (self._formed_again(x, beta, obs.alpha) if obs in renyi
                        else next(rest))
            assert _same_bits(values[i], expected), ((obs, beta), n)
        # Log-weights keep z too; every beta's pass in one call, so a wide
        # batch has passes before the last, which forms z in d's buffer.
        keys = [gibbs._LOG_WEIGHTS] + [("renyi_to_uniform", a) for a in alphas]
        betas = list(dict.fromkeys(betas))

        def observe(keys):
            with np.errstate(over="ignore"):
                return [v for _, _, v in gibbs._observe(x, [(b, keys) for b in betas])]

        with_renyi, weights_alone = observe(keys), observe(keys[:1])
        for p, beta in enumerate(betas):
            got = with_renyi[p * len(keys):(p + 1) * len(keys)]
            assert _same_bits(got[0], weights_alone[p])
            for alpha, value in zip(alphas, got[1:]):
                assert _same_bits(value, self._formed_again(x, beta, alpha))

    def test_kept_z_in_every_pass_of_a_call(self, monkeypatch):
        # 2000 x 64 with two betas and Renyi orders alone: one call of two
        # passes, the first with its own z, the last with z in d's buffer.
        seen, real_pass, real_sums = [], gibbs._pass, gibbs._renyi_sums

        def spy_pass(x, x_max, d, *args):
            seen.append(("last", args[-1]))
            spy_pass.d = d
            return real_pass(x, x_max, d, *args)

        def spy_sums(z, keys, buf):
            seen.append(("z in d", np.shares_memory(z, spy_pass.d)))
            return real_sums(z, keys, buf)

        monkeypatch.setattr(gibbs, "_pass", spy_pass)
        monkeypatch.setattr(gibbs, "_renyi_sums", spy_sums)
        x = np.random.default_rng(3).standard_normal((2000, 64))
        pairs = [(sm.renyi_observable(2.0), beta) for beta in (1.0, 300.0)]
        assert len(dict(gibbs._evaluate(x, pairs))) == 2
        blocks = -(-2000 // (gibbs._BLOCK_ELEMENTS // 64))
        assert seen == [("last", False), ("z in d", False),
                        ("last", True), ("z in d", True)] * blocks


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

    @pytest.mark.parametrize("m", WIDTHS)
    def test_column_major_sums_as_c_order(self, m):
        # On a column-major x np.sum adds each wide row left to right, not
        # pairwise; _row_sum gives the C-ordered bits on either layout.
        rng = np.random.default_rng(m)
        x = rng.standard_normal((200, m)) * 10.0 ** rng.uniform(-3, 3, (200, m))
        assert _same_bits(gibbs._row_sum(np.asfortranarray(x)), np.sum(x, axis=-1))

    def test_fold_differs_from_np_sum_at_width_8(self):
        # The crossover is where it is for a reason: folded at 8 columns, the
        # sum is not np.sum's on this batch.
        x = np.random.default_rng(8).standard_normal((1000, 8))
        assert _same_bits(gibbs._row_sum(x), np.sum(x, axis=-1))
        assert not np.array_equal(gibbs._fold(np.add, x, 0.0), np.sum(x, axis=-1))


class TestRowTree:
    """At width 8 _row_max and _row_sum take the tree, and it is np.max and
    np.sum bit for bit."""

    @staticmethod
    def check(x):
        c = np.ascontiguousarray(x)
        assert _same_bits(gibbs._row_max(x), np.max(c, axis=-1))
        assert _same_bits(gibbs._row_sum(x), np.sum(c, axis=-1))

    def test_every_signed_zero_mix(self):
        # All 3^8 rows over {0.0, -0.0, -1.0}: ties of either sign anywhere.
        digits = np.arange(3 ** 8)[:, None] // 3 ** np.arange(8) % 3
        self.check(np.array([0.0, -0.0, -1.0])[digits])

    def test_blocks(self):
        # Two whole blocks and a partial one, with magnitudes over six
        # decades so the order of the adds shows.
        n = 2 * (gibbs._BLOCK_ELEMENTS // 8) + 3
        rng = np.random.default_rng(17)
        self.check(rng.standard_normal((n, 8)) * 10.0 ** rng.uniform(-3, 3, (n, 8)))

    def test_shapes_and_layouts(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((5, 7, 8)) * 10.0 ** rng.uniform(-3, 3, (5, 7, 8))
        self.check(x)
        self.check(x[2, 3])
        assert type(gibbs._row_sum(x[2, 3])) is type(np.sum(x[2, 3]))
        self.check(np.asfortranarray(x.reshape(35, 8)))
        self.check(np.empty((0, 8)))


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


class TestReplicaSum:
    """_replica_sum is numpy's einsum "ni,ij,nj->n" bit for bit."""

    @staticmethod
    def _case(m, seed):
        # Points in the plane, the third on the first (a zero off the
        # diagonal of d2), and Gibbs weights with exact zeros among them.
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((m, 2))
        if m > 2:
            pts[2] = pts[0]
        d2 = np.sum((pts[:, None] - pts[None]) ** 2, axis=-1)
        z = 5.0 * rng.standard_normal((20_000, m))
        w = np.exp(z - np.max(z, axis=-1, keepdims=True))
        w /= np.sum(w, axis=-1, keepdims=True)
        w[::3, 0] = 0.0
        w[1::5, m - 1] = 0.0
        return w, d2

    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_equals_einsum(self, m, order):
        w, d2 = self._case(m, m)
        if m > 2:
            assert d2[0, 2] == d2[2, 0] == 0.0
        expected = np.einsum("ni,ij,nj->n", w, d2, w)
        got = gibbs._replica_sum(np.asarray(w, order=order), d2)
        assert _same_bits(got, expected)

    def test_matmul_form_differs(self):
        # The order matters: the row sum of (w d2) * w is not einsum's.
        w, d2 = self._case(3, 3)
        expected = np.einsum("ni,ij,nj->n", w, d2, w)
        assert _same_bits(gibbs._replica_sum(w, d2), expected)
        assert not np.array_equal(gibbs._row_sum((w @ d2) * w), expected)


class TestColumnMajorBatch:
    """_evaluate gives the same bits on a column-major copy of a batch."""

    PAIRS = [sm.GIBBS_AVERAGE, sm.FREE_ENERGY, sm.PARTICIPATION_RATIO,
             sm.KL_TO_UNIFORM, sm.RENYI_HALF, sm.SHANNON_ENTROPY,
             sm.renyi_observable(0.7), sm.renyi_observable(2.0),
             sm.renyi_observable(1.0 + 1e-9), sm.REPLICA_GIBBS,
             sm.EXPECTED_MAX, sm.soft_max_observable((0, 2))]

    # At beta = 1 no shifted exponent lies below the floor, so every exp is
    # dense; at 2000 most do (53% on corr3, 78% on ar8), so they are sparse.
    @pytest.mark.parametrize("beta, below", [(1.0, (0.0, 0.0)),
                                             (2000.0, (0.5, 0.75))])
    def test_every_kind(self, corr3, ar8, beta, below):
        for ens, share in zip((corr3, ar8), below):
            x = sm.realization_batch(ens, 20_000, 5)
            z = beta * (x - np.max(x, axis=-1, keepdims=True))
            assert np.mean(z < _EXP_FLOOR) >= share
            pairs = [(obs, beta) for obs in self.PAIRS]
            if ens.size == 8:
                pairs.append((sm.REM_PRESSURE, beta))
            x_f = np.asfortranarray(x)
            assert x_f.flags.f_contiguous and not x_f.flags.c_contiguous
            c_order = dict(gibbs._evaluate(x, pairs, ens))
            f_order = dict(gibbs._evaluate(x_f, pairs, ens))
            for i in range(len(pairs)):
                assert _same_bits(f_order[i], c_order[i]), pairs[i]


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


PROBE_KINDS = ["iid", "correlated", "rem"]


def _probe_batch(kind):
    ens, n, beta = probe_case(kind)
    return quench.realization_batch(ens, n, 3), beta


def _live_entries(probes):
    return 0 if probes.live is None else sum(pos.size for pos, _ in probes.live)


class TestParticipationProbes:
    """The probes of one threshold search equal participation_ratio bit for
    bit, whether they read a live set, rebuild it or take the dense pass."""

    @staticmethod
    def probe(probes, x, beta):
        got = probes(beta)
        assert _same_bits(got, sm.participation_ratio(x, beta))
        if probes.live is not None:
            for (pos, d), a in zip(probes.live, probes.starts):
                block = x[a:a + probes.step]
                assert pos.dtype == np.int32
                assert pos.size == d.size <= block.size // gibbs._LIVE_SHARE
            assert 0 < _live_entries(probes) <= x.size // gibbs._LIVE_SHARE
        return got

    @pytest.mark.parametrize("kind", PROBE_KINDS)
    def test_at_and_just_above_build_beta(self, kind):
        x, beta = _probe_batch(kind)
        step = gibbs._BLOCK_ELEMENTS // x.shape[1]
        assert x.shape[0] % step and x.shape[0] > 3 * step  # four blocks or more
        probes = gibbs._ParticipationProbes(x)
        self.probe(probes, x, beta)
        beta_c = beta / 4.0
        assert probes.build_beta == beta_c
        for b in (beta_c, np.nextafter(beta_c, np.inf), 2.0 * beta, beta):
            self.probe(probes, x, b)
        assert probes.builds == 1 and probes.build_beta == beta_c

    @pytest.mark.parametrize("kind", PROBE_KINDS)
    def test_below_build_beta_rebuilds(self, kind):
        x, beta = _probe_batch(kind)
        probes = gibbs._ParticipationProbes(x)
        self.probe(probes, x, beta)
        below = float(np.nextafter(beta / 4.0, 0.0))
        self.probe(probes, x, below)
        assert probes.builds == 2 and probes.build_beta == below
        self.probe(probes, x, beta)
        assert probes.builds == 2

    @pytest.mark.parametrize("kind", PROBE_KINDS)
    def test_over_cap_takes_dense_path(self, kind, monkeypatch):
        # At beta = 40 every entry is live at the build beta 10: the build is
        # refused and its probe takes _pass on each block's shift.  A probe
        # that only a build at or below 10 could serve takes _observe.
        x, beta = _probe_batch(kind)
        observed = []
        real = gibbs._observe

        def observe(x, passes, ens=None):
            observed.append(passes)
            return real(x, passes, ens)

        probes = gibbs._ParticipationProbes(x)
        monkeypatch.setattr(gibbs, "_observe", observe)
        got = probes(40.0)
        assert observed == [] and probes.live is None and probes.refused == 10.0
        got_low = probes(5.0)
        assert observed == [[(5.0, [("participation_ratio", None)])]]
        assert probes.builds == 1 and probes.live is None
        monkeypatch.setattr(gibbs, "_observe", real)
        assert _same_bits(got, sm.participation_ratio(x, 40.0))
        assert _same_bits(got_low, sm.participation_ratio(x, 5.0))
        # A build above the refused beta is tried again, at the probe's beta.
        self.probe(probes, x, beta)
        assert probes.builds == 2 and probes.build_beta == beta

    @pytest.mark.parametrize("threads", [1, 2])
    def test_refused_in_the_last_block(self, monkeypatch, threads):
        # Equal rows are live at every beta, so the last block is over the
        # cap after the others kept their live entries.
        monkeypatch.setattr(gibbs, "_THREADS", threads)
        x, beta = _probe_batch("iid")
        x = x.copy()
        step = gibbs._BLOCK_ELEMENTS // x.shape[1]
        x[x.shape[0] // step * step:] = 0.5
        probes = gibbs._ParticipationProbes(x)
        self.probe(probes, x, beta)
        assert probes.live is None and probes.refused == beta / 4.0
        self.probe(probes, x, 2.0 * beta)
        assert probes.builds == 2 and probes.live is None

    @pytest.mark.parametrize("kind", PROBE_KINDS)
    def test_rows_wider_than_a_block(self, kind, monkeypatch):
        x, beta = _probe_batch(kind)
        monkeypatch.setattr(gibbs, "_BLOCK_ELEMENTS", x.shape[1] // 2)
        probes = gibbs._ParticipationProbes(x)
        assert probes.step == 1 and len(probes.starts) == x.shape[0]
        for b in (beta, beta / 4.0, beta / 5.0, 3.0 * beta):
            self.probe(probes, x, b)
        assert probes.builds == 2

    @pytest.mark.parametrize("kind", PROBE_KINDS)
    def test_one_thread_against_two(self, kind, monkeypatch):
        x, beta = _probe_batch(kind)
        betas = [beta, 1.5 * beta, beta / 5.0, 40.0, 20.0]
        values, shifts = {}, []
        real = gibbs._shift

        def shift(block):
            shifts.append(threading.get_ident())
            return real(block)

        monkeypatch.setattr(gibbs, "_shift", shift)
        for threads in (1, 2):
            monkeypatch.setattr(gibbs, "_THREADS", threads)
            shifts.clear()
            probes = gibbs._ParticipationProbes(x)
            values[threads] = [probes(b) for b in betas]
            assert threading.get_ident() in shifts
            assert (len(set(shifts)) > 1) == (threads == 2)
        monkeypatch.setattr(gibbs, "_shift", real)
        for b, one, two in zip(betas, values[1], values[2]):
            want = sm.participation_ratio(x, b)
            assert _same_bits(one, want) and _same_bits(two, want)

    def test_more_threads_than_cores_change_no_bit(self, monkeypatch):
        # Four threads of 6 or 7 blocks each, switching every microsecond,
        # on a batch whose blocks 9 and 20 are over the cap at every beta:
        # a block that wrote another's rows or live set, or a refusal that
        # one thread missed, would change the bits or the builds.
        monkeypatch.setattr(gibbs, "_BLOCK_ELEMENTS", 1 << 12)
        clean = np.random.default_rng(7).standard_normal((25 * 64 - 5, 64))
        capped = clean.copy()
        capped[9 * 64:10 * 64] = capped[20 * 64:21 * 64] = 1.0
        betas = [16000.0, 3000.0, 32000.0, 2000.0, 1000.0]

        def run(x):
            probes = gibbs._ParticipationProbes(x)
            return [(probes(b), probes.build_beta, probes.refused,
                     _live_entries(probes)) for b in betas]

        monkeypatch.setattr(gibbs, "_THREADS", 1)
        want = {id(x): run(x) for x in (clean, capped)}
        assert want[id(clean)][0][1] == 4000.0
        assert all(build is None for _, build, _, _ in want[id(capped)])
        monkeypatch.setattr(gibbs, "_THREADS", 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                for x in (clean, capped):
                    for got, (value, *state) in zip(run(x), want[id(x)]):
                        assert _same_bits(got[0], value)
                        assert list(got[1:]) == state
        finally:
            sys.setswitchinterval(interval)
        for x in (clean, capped):
            for b, (value, *_) in zip(betas, want[id(x)]):
                assert _same_bits(value, sm.participation_ratio(x, b))

    def test_one_realization(self):
        x = np.random.default_rng(5).standard_normal(4096)
        probes = gibbs._ParticipationProbes(x)
        for beta in (3000.0, 2000.0, 1.0):
            got = probes(beta)
            assert np.ndim(got) == 0 and got == sm.participation_ratio(x, beta)


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
            monkeypatch.setattr(gibbs, "_shift", None)  # no pass may run
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
        # At alpha = 1 (KL) the mean read 2.0396 at 1e15 and 0.064 at 1e17
        # while log m + beta <X> - Lambda cancelled terms of size beta max x.
        x = sm.realization_batch(sm.build_iid(8, 1.0), 1000, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for beta in (1e10, 1e13, 1e15, 1e17):
                for alpha in (0.7, 1.0, 3.0):
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

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 0.1234567, 1e-320, 1e300])
    def test_renyi_name_parses_back(self, alpha):
        obs = sm.renyi_observable(alpha)
        assert sm.parse_observable(obs.name) == obs

    def test_close_renyi_orders_have_two_names(self):
        # 6 significant digits would name both renyi(0.123457).
        names = [sm.renyi_observable(a).name for a in (0.1234567, 0.1234568)]
        assert names == ["renyi(0.1234567)", "renyi(0.1234568)"]
        # Where 6 digits name the same alpha, the name is as it was.
        assert sm.renyi_observable(1e300).name == "renyi(1e+300)"
        assert sm.renyi_observable(1e-320).name == "renyi(9.99989e-321)"

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
