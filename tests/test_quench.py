"""Sampling plumbing, estimators, the threshold search, and the oracle.

Frozen reference values for the two-point i.i.d. Gibbs mean, computed once
from the closed form E[(D/2)·tanh(beta*D/2)] with D ~ N(0,2) by 50-point
adaptive quadrature at 30-digit working precision:

    beta = 0.25  ->  0.12131844208757419
    beta = 1.0   ->  0.36316184603163054
    beta = 4.0   ->  0.53789818511307422
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import softmaxima as sm
from softmaxima import cli, gibbs, quench
from softmaxima.ensemble import IndexedEnsemble
from softmaxima.quench import BATCH_ELEMENT_CAP
from tests.conftest import probe_case, wrap_probes
from tests.test_bounds import _ALL_OBSERVABLES

TWO_POINT_GIBBS_MEAN = {
    0.25: 0.12131844208757419,
    1.0: 0.36316184603163054,
    4.0: 0.53789818511307422,
}


class TestBatches:
    def test_shape_and_law(self, corr3):
        x = sm.realization_batch(corr3, 50_000, seed=0)
        assert x.shape == (50_000, 3)
        emp = x.T @ x / x.shape[0]
        assert np.abs(emp - corr3.covariance).max() < 0.05

    def test_same_seed_same_bits(self, iid8):
        a = sm.realization_batch(iid8, 10_000, seed=1)
        sm.clear_cache()
        b = sm.realization_batch(iid8, 10_000, seed=1)
        assert a is not b and np.array_equal(a, b)

    def test_cache_returns_same_array(self, iid8):
        a = sm.realization_batch(iid8, 1000, seed=2)
        b = sm.realization_batch(iid8, 1000, seed=2)
        assert a is b

    def test_prefix_stability(self, iid2):
        # per-sample streams: growing n extends the batch, never reshuffles it
        small = sm.realization_batch(iid2, 100, seed=4).copy()
        sm.clear_cache()
        big = sm.realization_batch(iid2, 1000, seed=4)
        assert np.array_equal(big[:100], small)

    def test_element_cap(self):
        huge = sm.build_iid(2 ** 16, 1.0)
        with pytest.raises(ValueError, match="scale:"):
            sm.realization_batch(huge, BATCH_ELEMENT_CAP // 2 ** 16 + 1, seed=0)

    def test_standard_batch_is_unit_normal(self):
        z = sm.standard_normal_batch(4, 50_000, seed=5)
        assert abs(z.mean()) < 0.02 and abs(z.var() - 1.0) < 0.02


def reference_sample(seed, i, m):
    """Sample i by its definition: its own Philox stream at counter i * 2^128."""
    bitgen = np.random.Philox(counter=i << 128, key=quench._master_key(seed))
    return np.random.Generator(bitgen).standard_normal(m)


def reference_batch(seed, n, m):
    return np.array([reference_sample(seed, i, m) for i in range(n)]).reshape(n, m)


def first_raw_words(seed, i, k):
    bitgen = np.random.Philox(counter=i << 128, key=quench._master_key(seed))
    return bitgen.random_raw(k)


def first_draw(seed, i):
    """(first raw Philox word, first normal) of sample i, as Python numbers."""
    bitgen = np.random.Philox(counter=i << 128, key=quench._master_key(seed))
    start = bitgen.state
    raw = int(bitgen.random_raw())
    bitgen.state = start
    return raw, np.random.Generator(bitgen).standard_normal()


def fast_path_declines(r):
    """Where the fill's fast-path check declines a raw word (then numpy draws)."""
    idx = (r & 0xFF).astype(np.intp)
    return ((r >> 9) & np.uint64((1 << 52) - 1)) >= quench._ZIG_KI[idx]


class TestStreamDefinition:
    """The fill against Generator(Philox(counter=i << 128, key)).standard_normal.

    The widths 1, 3, 4, 5 and 8 cross the 4-word Philox block boundaries;
    31, 32 and 33 sit on either side of _ZIG_MAX_WIDTH, the widest row the
    vectorised path fills; 63, 64, 65, 200 and 1024 are drawn whole by numpy.
    """

    @pytest.mark.parametrize("seed", [0, 2 ** 63, -1])
    @pytest.mark.parametrize("m", [1, 3, 4, 5, 8, 31, 32, 33, 63, 64, 65, 200, 1024])
    def test_standard_batch_matches_definition(self, m, seed):
        n = min(2000, max(16, 16_384 // m))
        got = sm.standard_normal_batch(m, n, seed)
        assert np.array_equal(got, reference_batch(seed, n, m))

    @pytest.mark.parametrize("m, n", [(8, 8200), (32, 2100)])
    def test_fill_chunks_match_definition(self, m, n):
        # Rows past the first chunk of _CHUNK_BLOCKS Philox blocks start a
        # fill at a nonzero row; each n here crosses at least one chunk.
        assert m <= quench._ZIG_MAX_WIDTH
        assert n > quench._CHUNK_BLOCKS // -(-m // 4)
        got = sm.standard_normal_batch(m, n, 9)
        assert np.array_equal(got, reference_batch(9, n, m))

    @pytest.mark.parametrize("seed", [0, 2 ** 63, -1])
    def test_comparison_covers_resumed_rows(self, seed):
        # The 2000 x 8 batches above hold rows whose fast path declines a
        # draw, so resuming numpy's generator mid-row is compared too.
        declined = [fast_path_declines(first_raw_words(seed, i, 8)).any()
                    for i in range(2000)]
        assert 0 < sum(declined) < 2000

    def test_realization_batches_match_definition(self, iid8, corr3):
        g8 = reference_batch(5, 2000, 8)
        g8 *= np.sqrt(iid8.iid_variance)
        assert np.array_equal(sm.realization_batch(iid8, 2000, 5), g8)
        g3 = reference_batch(6, 2000, 3)
        assert np.array_equal(sm.realization_batch(corr3, 2000, 6),
                              g3 @ corr3.sampling_factor.T)

    @settings(max_examples=25, deadline=None)
    @given(m=st.integers(1, 130), n=st.integers(2, 300),
           seed=st.integers(-(2 ** 63), 2 ** 64 - 1))
    def test_random_shapes_match_definition(self, m, n, seed):
        assert np.array_equal(sm.standard_normal_batch(m, n, seed),
                              reference_batch(seed, n, m))

    def test_ziggurat_table_matches_numpy(self):
        # Re-derive numpy's widths wi from first draws: a first draw the fast
        # path or a wedge accepts is exactly +-rabs * wi[idx].
        r, x = zip(*(first_draw(1, i) for i in range(20_000)))
        r, x = np.array(r, dtype=np.uint64), np.abs(x)
        idx = (r & 0xFF).astype(np.intp)
        rabs = ((r >> 9) & np.uint64((1 << 52) - 1)).astype(np.float64)
        wi = np.empty(256)
        for k in range(256):
            at = (idx == k) & (rabs > 0)
            guesses = np.unique(x[at] / rabs[at])
            candidates = np.unique(np.concatenate(
                [guesses, np.nextafter(guesses, 0), np.nextafter(guesses, 1)]))
            hits = [np.count_nonzero(rabs[at] * w == x[at]) for w in candidates]
            wi[k] = candidates[int(np.argmax(hits))]
            assert 2 * max(hits) > np.count_nonzero(at)  # a clear majority
        assert np.array_equal(wi, quench._ZIG_WI)
        # Each draw numpy did not return as +-rabs * wi[idx] is declined.
        exact = rabs * wi[idx] == x
        assert fast_path_declines(r[~exact]).all()
        # ki sits below the exact floor(2^52 x_{k-1} / x_k) layer bound.
        w = [Fraction(float(v)) for v in wi]
        bound = [math.floor(Fraction(3.6541528853610088) / w[0]), 0]
        bound += [math.floor(2 ** 52 * w[k - 1] / w[k]) for k in range(2, 256)]
        assert all(0 <= b - int(k) <= 4096
                   for b, k in zip(bound, quench._ZIG_KI))

    def test_bool_seed_rejected(self):
        with pytest.raises(ValueError, match="invalid-parameter"):
            sm.standard_normal_batch(2, 10, True)

    @pytest.mark.parametrize("seed", [2 ** 64, -(2 ** 63) - 1, 2 ** 64 + 5])
    def test_seed_outside_64_bits_rejected(self, seed):
        # Reduced mod 2^64, 2^64 + 5 would draw seed 5's samples.
        with pytest.raises(ValueError, match="invalid-parameter: seed"):
            sm.standard_normal_batch(2, 10, seed)
        with pytest.raises(ValueError, match="invalid-parameter: seed"):
            sm.realization_batch(sm.build_iid(3, 1.0), 10, seed)

    @pytest.mark.parametrize("seed", [-1, -(2 ** 63)])
    def test_negative_seed_draws_its_64_bit_word(self, seed):
        assert np.array_equal(sm.standard_normal_batch(3, 10, seed),
                              sm.standard_normal_batch(3, 10, seed + 2 ** 64))


class TestPhilox:
    """_philox_blocks against numpy's Philox, word for word."""

    ROWS = [0, 8191, 8192, 2 ** 31 + 7]

    # (2^64 - 1, 2^64 - 1) wraps in the key schedule from round 1 on.
    @pytest.mark.parametrize("key", [quench._master_key(42),
                                     np.array([2 ** 64 - 1] * 2, np.uint64)],
                             ids=["seed-42", "all-ones"])
    @pytest.mark.parametrize("first", [0, 2, 5])
    @pytest.mark.parametrize("n_blocks", [1, 2, 3, 8])
    def test_blocks_equal_numpy_philox(self, key, first, n_blocks):
        got = quench._philox_blocks(key, self.ROWS, first, first + n_blocks)
        assert got.shape == (len(self.ROWS), 4 * n_blocks)
        for h, i in enumerate(self.ROWS):
            bitgen = np.random.Philox(counter=[first, 0, i, 0], key=key)
            assert np.array_equal(got[h], bitgen.random_raw(4 * n_blocks)), i


def resumed(monkeypatch):
    """(row, word cursor) of every row the fill hands to numpy's generator."""
    calls = []
    real = quench._resume

    def record(rng, state, rows, cursor, words, out):
        calls.extend((i, cursor) for i in rows)
        real(rng, state, rows, cursor, words, out)

    monkeypatch.setattr(quench, "_resume", record)
    return calls


def candidate(r):
    """numpy's ziggurat candidate +-rabs * wi[idx] of one raw word."""
    x = float((r >> np.uint64(9)) & np.uint64((1 << 52) - 1)) * quench._ZIG_WI[int(r & 0xFF)]
    return -x if int(r) & 0x100 else x


def first_decline(seed, i, m, words=12):
    """(raw words, position of the first fast-path decline among the first
    m) of sample i, the position None when there is none."""
    r = first_raw_words(seed, i, words)
    at = np.flatnonzero(fast_path_declines(r[:m]))
    return r, (int(at[0]) if at.size else None)


class TestWedgeFill:
    """Declined draws decided in array ops, and each path that still hands a
    row to numpy's generator, against the per-sample definition."""

    def test_tie_margin_sends_every_wedge_to_numpy(self, monkeypatch):
        calls = resumed(monkeypatch)
        monkeypatch.setattr(quench, "_ZIG_TIE", 2.0)
        got = quench._standard_batch(8, 3000, 3)
        assert np.array_equal(got, reference_batch(3, 3000, 8))
        firsts = [(i, first_decline(3, i, 8)[1]) for i in range(3000)]
        assert sorted(calls) == [(i, d) for i, d in firsts if d is not None]

    # 32 is the widest vectorised row; 64 checks that a wider row reads
    # none of the blocks.
    @pytest.mark.parametrize("m", [3, 5, 8, 32, 64])
    def test_no_extra_blocks(self, monkeypatch, m):
        monkeypatch.setattr(quench, "_ZIG_EXTRA_BLOCKS", 0)
        n = 16_384 // m
        assert np.array_equal(quench._standard_batch(m, n, 4), reference_batch(4, n, m))

    def test_tail_draw_goes_to_numpy(self, monkeypatch):
        calls = resumed(monkeypatch)
        for i in range(20_000):
            r, d = first_decline(5, i, 8)
            if d is not None and int(r[d] & 0xFF) == 0:
                break
        else:
            pytest.fail("no first decline in a tail")
        got = quench._standard_batch(8, i + 1, 5)
        assert np.array_equal(got, reference_batch(5, i + 1, 8))
        assert (i, d) in calls

    def test_rejected_wedge_then_second_decline(self, monkeypatch):
        calls = resumed(monkeypatch)
        # A row whose first decline is a wedge that numpy rejects (its draw
        # d is not the declined candidate), with another decline among the
        # words its later draws read.
        for i in range(20_000):
            r, d = first_decline(6, i, 8)
            if (d is not None and int(r[d] & 0xFF) > 0
                    and reference_sample(6, i, 8)[d] != candidate(r[d])
                    and fast_path_declines(r[d + 2:10]).any()):
                break
        else:
            pytest.fail("no rejected wedge followed by a decline")
        got = quench._standard_batch(8, i + 1, 6)
        assert np.array_equal(got, reference_batch(6, i + 1, 8))
        assert all(c >= d + 2 for j, c in calls if j == i)

    @pytest.mark.parametrize("m", [5, 8, 32, 64])
    def test_chunk_boundaries(self, monkeypatch, m):
        # Chunks of a few rows: the wedge rows of every chunk after the
        # first sit at a nonzero row offset.  A row of 64 is never chunked.
        monkeypatch.setattr(quench, "_CHUNK_BLOCKS", 48)
        n = 30 * (48 // -(-m // 4)) + 7
        assert np.array_equal(quench._standard_batch(m, n, 10), reference_batch(10, n, m))

    @pytest.mark.parametrize("m", [quench._ZIG_MAX_WIDTH + 1, 64, 200])
    def test_wide_rows_resume_once_at_word_zero(self, monkeypatch, m):
        # A row wider than _ZIG_MAX_WIDTH is drawn whole by numpy, from the
        # start of its stream: no Philox block is formed in array ops.
        calls = resumed(monkeypatch)
        blocks = []
        real = quench._philox_blocks
        monkeypatch.setattr(quench, "_philox_blocks",
                            lambda *args: blocks.append(None) or real(*args))
        got = quench._standard_batch(m, 300, 11)
        assert np.array_equal(got, reference_batch(11, 300, m))
        assert calls == [(i, 0) for i in range(300)] and blocks == []

    def test_few_rows_resume_numpy(self, monkeypatch):
        # Handing every row with a declined draw to numpy resumed 11% of
        # these rows.
        calls = resumed(monkeypatch)
        quench._standard_batch(8, 20_000, 7)
        assert len(calls) < 200


class TestMcEstimate:
    def test_centered_at_beta_zero(self, corr3):
        est = sm.mc_estimate(corr3, sm.GIBBS_AVERAGE, 0.0, 20_000, seed=6)
        assert abs(est.mean) <= 3 * est.std_error

    def test_kl_at_beta_zero_is_exactly_zero(self, iid8):
        est = sm.mc_estimate(iid8, sm.KL_TO_UNIFORM, 0.0, 1000, seed=7)
        assert est.mean == 0.0 and est.std_error == 0.0

    def test_free_energy_at_beta_zero_is_exactly_zero(self, iid8):
        est = sm.mc_estimate(iid8, sm.FREE_ENERGY, 0.0, 1000, seed=7)
        assert est.mean == 0.0 and est.std_error == 0.0

    @pytest.mark.parametrize("beta", [0.25, 1.0, 4.0])
    def test_two_point_frozen_value(self, iid2, beta):
        est = sm.mc_estimate(iid2, sm.GIBBS_AVERAGE, beta, 200_000, seed=8)
        assert abs(est.mean - TWO_POINT_GIBBS_MEAN[beta]) <= 3 * est.std_error

    def test_se_matches_definition(self, corr3):
        est = sm.mc_estimate(corr3, sm.PARTICIPATION_RATIO, 1.0, 5000, seed=9)
        vals = sm.per_sample_values(corr3, sm.PARTICIPATION_RATIO, 1.0, 5000, seed=9)
        assert est.std_error == pytest.approx(vals.std(ddof=1) / math.sqrt(5000), rel=1e-12)
        assert est.n_samples == 5000 and est.seed == 9 and est.beta == 1.0

    def test_se_at_spread_1e200_is_scaled_exactly(self):
        # The squares of values spread by about 1e200 overflow; the standard
        # error scales with the values, exactly for a power of two.
        values = np.random.default_rng(4).standard_normal(50)
        mean, se = quench._mean_se(values)
        assert quench._mean_se(values * 2.0 ** 664) == (mean * 2.0 ** 664,
                                                        se * 2.0 ** 664)
        assert 1e199 < se * 2.0 ** 664 < math.inf

    def test_seed_matters(self, iid2):
        a = sm.mc_estimate(iid2, sm.GIBBS_AVERAGE, 1.0, 1000, seed=0)
        b = sm.mc_estimate(iid2, sm.GIBBS_AVERAGE, 1.0, 1000, seed=1)
        assert a.mean != b.mean

    def test_small_n_rejected(self, iid2):
        with pytest.raises(ValueError, match="invalid-parameter"):
            sm.mc_estimate(iid2, sm.GIBBS_AVERAGE, 1.0, 1, seed=0)

    def test_negative_beta_rejected(self, iid2):
        with pytest.raises(ValueError, match="invalid-parameter"):
            sm.mc_estimate(iid2, sm.GIBBS_AVERAGE, -1.0, 100, seed=0)


class TestMcEstimates:
    """mc_estimates equals one mc_estimate call per pair, bit for bit."""

    @pytest.mark.parametrize("name", ["iid8", "corr3", "rem3"])
    def test_equals_one_call_per_pair(self, name, iid8, corr3):
        ens = {"iid8": iid8, "corr3": corr3, "rem3": sm.rem_model(3).ensemble}[name]
        pairs = [(obs, beta)
                 for obs in map(sm.parse_observable, _ALL_OBSERVABLES)
                 if obs.kind != "rem_pressure" or name != "corr3"
                 for beta in (0.0, 0.5, 2.0)
                 if beta > 0 or obs.kind != "soft_max"]
        assert len({obs for obs, _ in pairs}) == (11 if name == "corr3" else 12)
        fused = sm.mc_estimates(ens, pairs, 500, 3)
        single = [sm.mc_estimate(ens, obs, beta, 500, 3) for obs, beta in pairs]
        assert fused == single
        assert _bits([(e.mean, e.std_error) for e in fused]) == _bits(
            [(e.mean, e.std_error) for e in single])

    def test_order_repeats_and_signed_zero(self, corr3):
        pairs = [(sm.KL_TO_UNIFORM, 2.0), (sm.FREE_ENERGY, -0.0),
                 (sm.RENYI_HALF, 1.0), (sm.KL_TO_UNIFORM, 2.0),
                 (sm.FREE_ENERGY, 0.0), (sm.GIBBS_AVERAGE, -0.0)]
        got = sm.mc_estimates(corr3, pairs, 400, 5)
        want = [sm.mc_estimate(corr3, obs, beta, 400, 5) for obs, beta in pairs]
        assert got == want
        assert _bits([(e.beta, e.mean, e.std_error) for e in got]) == _bits(
            [(e.beta, e.mean, e.std_error) for e in want])
        assert [math.copysign(1.0, e.beta) for e in got] == [1, -1, 1, 1, 1, -1]
        assert sm.mc_estimates(corr3, pairs[::-1], 400, 5) == got[::-1]
        assert sm.mc_estimates(corr3, [], 400, 5) == []

    @pytest.mark.parametrize("name", ["iid8", "corr3"])
    def test_entropy_and_renyi_half_equal_their_kernels(self, name, iid8, corr3):
        # In the shared pass, the entropy is read from the pass's own Gibbs
        # weights and Renyi-1/2 from the participation ratio of the pass at
        # beta / 2, which the pairs at beta / 2 share.
        ens = {"iid8": iid8, "corr3": corr3}[name]
        betas = (0.0, -0.0, 0.5, 4.0, 1e308)
        pairs = [(obs, b) for beta in betas for b in (beta, beta / 2.0)
                 for obs in (sm.SHANNON_ENTROPY, sm.RENYI_HALF,
                             sm.PARTICIPATION_RATIO, sm.GIBBS_AVERAGE)]
        got = sm.mc_estimates(ens, pairs, 400, 5)
        x = sm.realization_batch(ens, 400, 5)
        log_m = np.log(ens.size)
        with np.errstate(over="ignore"):  # Lambda at 1e308 in gibbs_measure
            want = {
                sm.SHANNON_ENTROPY: lambda b: sm.shannon_entropy(sm.gibbs_measure(x, b)),
                sm.RENYI_HALF: lambda b: log_m + np.log(
                    sm.participation_ratio(x, b / 2.0)),
                sm.PARTICIPATION_RATIO: lambda b: sm.participation_ratio(x, b),
                sm.GIBBS_AVERAGE: lambda b: sm.GIBBS_AVERAGE.evaluate(x, b)}
            for (obs, beta), est in zip(pairs, got):
                mean, se = quench._mean_se(want[obs](beta))
                assert _bits([est.mean, est.std_error]) == _bits([mean, se]), (
                    obs.name, beta)

    @pytest.mark.parametrize("beta", [-1.0, math.inf])
    def test_bad_beta_refused_before_the_batch(self, iid8, monkeypatch, beta):
        def unreachable(*args):
            raise AssertionError("a batch was built")

        monkeypatch.setattr(quench, "realization_batch", unreachable)
        with pytest.raises(ValueError, match="invalid-parameter"):
            sm.mc_estimates(iid8, [(sm.GIBBS_AVERAGE, 1.0), (sm.FREE_ENERGY, beta)],
                            400, 5)

    @pytest.mark.parametrize("m", [1, 3, 6])
    def test_rem_pressure_refused_before_the_pass(self, m, monkeypatch):
        # Lambda / N needs m = 2^N with N >= 1; at m = 1 the old route
        # divided by N = 0.
        def unreachable(x):
            raise AssertionError("a shifted pass ran")

        monkeypatch.setattr(gibbs, "_shift", unreachable)
        with pytest.raises(ValueError, match="invalid-size"):
            sm.REM_PRESSURE.evaluate(np.zeros((4, m)), 1.0)
        if m > 1:
            ens = sm.build_iid(m, 1.0)
            with pytest.raises(ValueError, match="invalid-size"):
                sm.mc_estimates(ens, [(sm.REM_PRESSURE, 1.0)], 400, 5)

    def test_one_pass_per_beta(self, corr3, monkeypatch):
        betas = []
        real = gibbs._observe

        def observe(x, passes, ens=None):
            betas.extend(beta for beta, _ in passes)
            return real(x, passes, ens)

        monkeypatch.setattr(gibbs, "_observe", observe)
        kinds = (sm.GIBBS_AVERAGE, sm.FREE_ENERGY, sm.PARTICIPATION_RATIO,
                 sm.KL_TO_UNIFORM, sm.renyi_observable(0.5),
                 sm.renyi_observable(2.0), sm.REPLICA_GIBBS)
        pairs = [(obs, beta) for beta in (0.0, 2.0, -0.0, 0.5) for obs in kinds]
        sm.mc_estimates(corr3, pairs, 400, 5)
        assert betas == [0.0, 2.0, 0.5]

    def test_pass_allocates_less_than_one_batch(self):
        # The shifted pass runs over row blocks, so its arrays are one
        # block's, not the batch's; over the whole batch the peak was about
        # two batches.
        ens = sm.rem_model(10).ensemble
        x = sm.realization_batch(ens, 2000, 7)
        pairs = [(sm.REM_PRESSURE, 2.0), (sm.KL_TO_UNIFORM, 2.0)]
        tracemalloc.start()
        try:
            sm.mc_estimates(ens, pairs, 2000, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes


def _replica_case(m, seed, scalar):
    """A A^T + 0.05 I, or v I, scaled to diameter <= 1, and a beta drawn
    log-uniform in [0.1, 4].

    Past beta * diameter of about 10 the 128-node oracle itself misses the
    1e-6 tolerance (1.8e-3 at 10 on two i.i.d. points), so the scaling
    keeps the cases inside what the quadrature resolves.
    """
    rng = np.random.default_rng(seed)
    if scalar:
        cov = rng.uniform(0.1, 1.0) * np.eye(m)
    else:
        a = rng.standard_normal((m, m))
        cov = a @ a.T + 0.05 * np.eye(m)
    v = np.diag(cov)
    cov = cov * (rng.uniform(0.25, 1.0) / np.max(v[:, None] + v[None, :] - 2.0 * cov))
    beta = math.exp(rng.uniform(math.log(0.1), math.log(4.0)))
    return sm.build_from_covariance([str(i) for i in range(m)], cov), beta


class TestReplicaEstimate:
    # A three-point case costs seconds (128^3 nodes), so there are two.
    @pytest.mark.parametrize("m, seed, scalar",
                             [(2, s, False) for s in range(10)]
                             + [(2, s, True) for s in range(4)]
                             + [(3, 0, False), (3, 2, True)])
    def test_identity_on_random_psd_ensembles(self, m, seed, scalar):
        # E replica = E <X> under the oracle, for dense covariances and for
        # scalar ones, whose replica value reads the participation ratio.
        ens, beta = _replica_case(m, seed, scalar)
        assert ens.is_iid == scalar
        direct = sm.quadrature_oracle(ens, sm.GIBBS_AVERAGE, beta, 128)
        replica = sm.quadrature_oracle(ens, sm.REPLICA_GIBBS, beta, 128)
        assert abs(direct - replica) <= cli._REPLICA_ORACLE_TOL

    def test_zero_at_beta_zero(self, corr3):
        est = sm.mc_estimate(corr3, sm.REPLICA_GIBBS, 0.0, 2000, seed=11)
        assert est.mean == 0.0 and est.std_error == 0.0

    def test_agrees_with_direct_in_expectation(self, iid2):
        r = sm.mc_estimate(iid2, sm.REPLICA_GIBBS, 1.0, 100_000, seed=12)
        g = sm.mc_estimate(iid2, sm.GIBBS_AVERAGE, 1.0, 100_000, seed=12)
        se = math.hypot(r.std_error, g.std_error)
        assert abs(r.mean - g.mean) <= 3 * se

    def test_identity_exact_under_oracle(self, iid2, corr3):
        for ens in (iid2, corr3):
            for beta in (0.25, 1.0):
                a = sm.quadrature_oracle(ens, sm.REPLICA_GIBBS, beta, nodes_per_dim=160)
                b = sm.quadrature_oracle(ens, sm.GIBBS_AVERAGE, beta, nodes_per_dim=160)
                assert abs(a - b) <= 1e-6

    def test_iid_collapsed_form(self, iid8):
        # per-sample equality of the pair sum with beta*sigma^2*(1 - r)
        x = sm.realization_batch(iid8, 200, seed=13)
        beta = 1.5
        nu = np.exp(beta * x - sm.log_partition(x, beta)[..., None])
        d2 = iid8.squared_distances
        pair = 0.5 * beta * np.einsum("ni,ij,nj->n", nu, d2, nu)
        got = sm.per_sample_values(iid8, sm.REPLICA_GIBBS, beta, 200, seed=13)
        assert np.allclose(got, pair, rtol=1e-10)


class TestExpectedMax:
    def test_two_point_closed_form(self, iid2):
        est = sm.mc_estimate(iid2, sm.EXPECTED_MAX, 0.0, 200_000, seed=14)
        assert abs(est.mean - 1 / math.sqrt(math.pi)) <= 3 * est.std_error

    def test_close_to_cold_soft_max(self, corr3):
        em = sm.mc_estimate(corr3, sm.EXPECTED_MAX, 0.0, 50_000, seed=15)
        phi = sm.mc_estimate(corr3, sm.parse_observable("soft_max(0,1,2)"), 1000.0,
                             50_000, seed=15)
        gap = math.log(3) / 1000.0 + 3 * math.hypot(em.std_error, phi.std_error)
        assert abs(em.mean - phi.mean) <= gap

    def test_relabeling_invariant(self):
        a = sm.mc_estimate(sm.build_iid(4, 1.0), sm.EXPECTED_MAX, 0.0, 10_000,
                           seed=16)
        sm.clear_cache()
        b = sm.mc_estimate(sm.build_iid(4, 1.0, labels=list("wxyz")),
                           sm.EXPECTED_MAX, 0.0, 10_000, seed=16)
        assert a.mean == b.mean


class TestBetaStar:
    def test_two_point_postcondition(self, iid2):
        ts = sm.beta_star(iid2, 1 / 17, 20_000, seed=17)
        assert ts.target == pytest.approx(1 / 578, rel=1e-12)
        # postcondition on an independent batch: fresh seed, 3 se slack
        fresh = sm.mc_estimate(iid2, sm.PARTICIPATION_RATIO, ts.beta_star,
                               20_000, seed=9917)
        assert 1.0 - fresh.mean <= ts.target + 3 * fresh.std_error

    def test_bracket_invariants(self, iid2):
        ts = sm.beta_star(iid2, 1 / 17, 20_000, seed=18)
        lo, hi = ts.bracket
        assert hi == ts.beta_star
        assert hi - lo <= 1e-3 / iid2.sigma_max + 1e-12
        # same seed (common random numbers): the defining inequalities hold
        r_hi = sm.mc_estimate(iid2, sm.PARTICIPATION_RATIO, hi, 20_000, seed=18)
        r_lo = sm.mc_estimate(iid2, sm.PARTICIPATION_RATIO, lo, 20_000, seed=18)
        assert 1.0 - r_hi.mean <= ts.target
        assert 1.0 - r_lo.mean > ts.target
        assert ts.r_at_star.mean == r_hi.mean

    def test_smallest_grid_point(self, iid2):
        res = 0.05
        ts = sm.beta_star(iid2, 1 / 17, 5000, seed=19, resolution=res)
        k = round(ts.beta_star / res)
        assert ts.beta_star == pytest.approx(k * res, rel=1e-12)
        prev = sm.mc_estimate(iid2, sm.PARTICIPATION_RATIO, (k - 1) * res, 5000, seed=19)
        assert 1.0 - prev.mean > ts.target

    def test_threshold_always_positive(self):
        # target = c^2 a^2 / (2 Delta^2) < 1/2 <= 1 - 1/|T| for every valid
        # c < 1 and a <= Delta, so the degenerate beta* = 0 branch can never
        # trigger and the search always does real work.
        ts = sm.beta_star(sm.build_iid(2, 1.0), 0.99, 100, seed=20)
        assert ts.target < 0.5
        assert ts.beta_star > 0.0

    def test_memoized(self, iid8):
        a = sm.beta_star(iid8, 1 / 17, 5000, seed=21)
        sm.clear_cache()
        c = sm.beta_star(iid8, 1 / 17, 5000, seed=21)
        assert c is not a and c.beta_star == a.beta_star

    def test_unbounded_raises_with_diagnostics(self):
        # nearly coincident pair: d^2 = 2e-9, target needs r close to 1,
        # unreachable below 1e4/sigma.
        eps = 1e-9
        ens = sm.build_from_covariance(["a", "b"], [[1.0, 1.0 - eps], [1.0 - eps, 1.0]])
        with pytest.raises(sm.UnboundedThresholdError, match="unbounded-threshold"):
            sm.beta_star(ens, 1 / 17, 500, seed=22)

    def test_no_grid_point_below_beta_max(self, iid2):
        # A resolution above 1e4 / sigma leaves no grid point to probe.
        with pytest.raises(sm.UnboundedThresholdError,
                           match=r"for all beta <= 10000 \(no grid point probed, "
                                 r"\|T\| = 2, sigma = 1\)"):
            sm.beta_star(iid2, 1 / 17, 100, seed=0, resolution=2e4)

    def test_searches_up_to_beta_max(self):
        # a = 0.06: the criterion first holds near beta = 8.8e3, above the
        # 8192 / sigma where a doubling search from 1 / sigma stops.
        rho = 0.9982
        ens = sm.build_from_covariance(["a", "b"], [[1.0, rho], [rho, 1.0]])
        ts = sm.beta_star(ens, 1 / 17, 2000, seed=3)
        assert 8192.0 < ts.beta_star <= 1e4
        lo, hi = ts.bracket
        assert hi == ts.beta_star
        assert hi - lo <= 1e-3 / ens.sigma_max + 1e-9
        r_lo = sm.mc_estimate(ens, sm.PARTICIPATION_RATIO, lo, 2000, seed=3)
        assert 1.0 - r_lo.mean > ts.target
        assert 1.0 - ts.r_at_star.mean <= ts.target

    def test_probe_count(self, iid8, monkeypatch):
        # One bisection over grid indices 0..K, K = 1e4 / resolution, plus
        # the r_at_star estimate.
        calls = []

        def counted(probe, beta):
            calls.append(beta)
            return probe(beta)

        wrap_probes(monkeypatch, counted)
        ts = sm.beta_star(iid8, 1 / 17, 5000, seed=23)
        k = math.floor(quench.BETA_MAX_FACTOR / quench.DEFAULT_RESOLUTION)
        bound = math.ceil(math.log2(k + 1)) + 1
        assert bound == 25
        assert 0 < len(calls) <= bound
        assert ts.probes == tuple(calls)

    def test_bad_c_rejected(self, iid2):
        for c in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError, match="invalid-parameter"):
                sm.beta_star(iid2, c, 100, seed=0)

    def test_overflowing_grid_rejected_before_sampling(self, iid2, monkeypatch):
        # (1e4 / sigma) / 1e-320 overflows to inf grid points.
        def unreachable(*args):
            raise AssertionError("batch drawn")

        monkeypatch.setattr(quench, "realization_batch", unreachable)
        with pytest.raises(ValueError, match="invalid-parameter: resolution"):
            sm.beta_star(iid2, 1 / 17, 100, 0, resolution=1e-320)

    @pytest.mark.parametrize("variance", [1e-323, 6e307])
    def test_extreme_variance_keeps_unit_grid_index(self, variance):
        # c^2 a^2 underflows at 1e-323 and 2 Delta^2 overflows at 6e307, but
        # the target (c a / Delta)^2 / 2 does not: the grid, in units of
        # 1 / sigma, and its answer are those of unit variance.
        def index(ens):
            ts = sm.beta_star(ens, 1 / 17, 64, seed=0)
            return ts.beta_star / (quench.DEFAULT_RESOLUTION / ens.sigma_max)

        assert round(index(sm.build_iid(2, variance))) == round(index(sm.build_iid(2, 1.0)))

    @pytest.mark.parametrize("c", [5e-324, 1e-300, 2.5e-162])
    def test_c_with_underflowing_target_is_refused(self, monkeypatch, c):
        # c^2 / 2 = 0 leaves no positive target on any ensemble, since
        # a <= Delta: the value of c is at fault, not the covariance.
        def unreachable(*args):
            raise AssertionError("batch drawn")

        monkeypatch.setattr(quench, "realization_batch", unreachable)
        with pytest.raises(ValueError, match=(
                rf"^invalid-parameter: c = {c!r} is too small")):
            sm.beta_star(sm.build_iid(4, 1.0), c, 50, seed=0)

    def test_c_with_a_positive_target_is_taken(self):
        # c^2 / 2 is the smallest positive double here, and so is the
        # target on iid4, where a = Delta.
        c = 3e-162
        assert c * c / 2.0 == 5e-324
        assert sm.beta_star(sm.build_iid(4, 1.0), c, 50, seed=0).c == c

    @pytest.mark.parametrize("variance, target", [
        (1e308, "nan")])   # a = Delta = inf
    def test_target_out_of_range_is_scale_error(self, monkeypatch, variance,
                                                target):
        def unreachable(*args):
            raise AssertionError("batch drawn")

        monkeypatch.setattr(quench, "realization_batch", unreachable)
        # build_iid refuses this variance; an ensemble made directly still
        # meets beta_star's own check.
        ens = IndexedEnsemble(["0", "1"], iid_variance=variance)
        with pytest.raises(ValueError, match=(
                rf"^scale: .* = {target} is not positive and finite at "
                rf"a = .*, Delta = .*, c = 0\.0588235")):
            sm.beta_star(ens, 1 / 17, 50, seed=0)

    def test_few_probes_on_iid64(self, monkeypatch):
        # Bisection takes 24 probes here; the interpolating search 7.
        calls = []

        def counted(probe, beta):
            calls.append(beta)
            return probe(beta)

        wrap_probes(monkeypatch, counted)
        ts = sm.beta_star(sm.build_iid(64, 1.0), 1 / 17, 20_000, seed=7)
        assert len(calls) <= 10
        assert ts.probes == tuple(calls)
        assert ts.beta_star == 1276.276  # the grid point bisection returns

    def test_exact_zero_gap_probes(self, monkeypatch):
        # A dense |T| = 4 set whose first two probes (K = 2000) see
        # 1 - r_hat == 0 exactly, where log(1 - r_hat) is undefined: the
        # search must not take the secant through them.
        cov = [[6.24, -2.28, 0.55, -2.78], [-2.28, 2.8, -1.54, -1.49],
               [0.55, -1.54, 4.59, 1.09], [-2.78, -1.49, 1.09, 4.86]]
        ens = sm.build_from_covariance(["a", "b", "c", "d"], cov)
        resolution = quench.BETA_MAX_FACTOR / ens.sigma_max / 2000
        gaps = []

        def recorded(probe, beta):
            values = probe(beta)
            gaps.append(1.0 - float(np.mean(values)))
            return values

        wrap_probes(monkeypatch, recorded)
        ts = sm.beta_star(ens, quench.SUDAKOV_C, 64, 0, resolution=resolution)
        assert gaps[:2] == [0.0, 0.0]
        assert len(ts.probes) == len(gaps)
        x = sm.realization_batch(ens, 64, 0)
        first = next(k for k in range(1, 2001) if 1.0 - float(np.mean(
            sm.participation_ratio(x, k * resolution))) <= ts.target)
        assert ts.beta_star == first * resolution
        assert ts.bracket == ((first - 1) * resolution, first * resolution)

    @pytest.mark.parametrize("kind", ["iid", "correlated", "rem", "iid8", "iid2"])
    @pytest.mark.parametrize("share", [16, 64])
    def test_probes_equal_public_path(self, kind, share, monkeypatch):
        # The search on the probe object and on participation_ratio itself
        # give the same result bit for bit, at one thread and at two; every
        # live set stays within its cap, and a tighter cap (1/64) refuses
        # builds along the way.  Rows of 8 or 2 coordinates never keep a
        # live set: every probe tries a build and takes the dense pass.
        narrow = {"iid8": (sm.build_iid(8, 1.0), 20_000),
                  "iid2": (sm.build_iid(2, 1.0), 4500)}
        ens, n = narrow[kind] if kind in narrow else probe_case(kind)[:2]
        monkeypatch.setattr(gibbs, "_LIVE_SHARE", share)
        builds = []

        def capped(probe, beta):
            values = probe(beta)
            builds.append(probe.builds)
            for (pos, _), a in zip(probe.live or (), probe.starts):
                assert pos.size <= probe.rows[a:a + probe.step].size // share
            return values

        with monkeypatch.context() as patch:
            wrap_probes(patch,
                        lambda probe, beta: sm.participation_ratio(probe.rows, beta))
            public = sm.beta_star(ens, 1 / 17, n, seed=5)
        wrap_probes(monkeypatch, capped)
        for threads in (1, 2):
            monkeypatch.setattr(gibbs, "_THREADS", threads)
            builds.clear()
            live = sm.beta_star(ens, 1 / 17, n, seed=5)
            assert live == public and repr(live) == repr(public)
            assert 0 < len(live.probes) <= 25 and len(builds) == len(live.probes)
            assert 1 <= builds[-1] <= len(builds)
            if kind in narrow:
                assert builds == list(range(1, len(builds) + 1))


# Adversarial participation curves, as functions of the grid index k on the
# default grid of iid2 (step 1e-3, K = 1e7), and each one's first k where
# 1 - r <= the target 1/578, or None.
_K = 10_000_000
_TARGET = (1 / 17) ** 2 / 2
_CURVES = {
    "step": (lambda k: np.where(k < 3_141_593, 0.5, 1.0), 3_141_593),
    "plateau": (lambda k: np.where(k < 1000, 0.5, np.where(
        k < 9_000_001, 1.0 - 2 * _TARGET, 1.0 - _TARGET / 2)), 9_000_001),
    "cliff_at_1": (lambda k: np.full(np.shape(k), 1.0 - _TARGET / 2), 1),
    "cliff_at_K": (lambda k: np.where(k < _K, 0.5, 1.0 - _TARGET / 2), _K),
    # Just above the target, then 1 - r = 2^-53: a secant across the cliff
    # moves a little at a time, and only the ITP window keeps it to 25 probes.
    "cliff_to_ulp": (lambda k: np.where(k < 7_654_321, 1.0 - 1.0001 * _TARGET,
                                        1.0 - 2.0 ** -53), 7_654_321),
    "never": (lambda k: np.full(np.shape(k), 0.5), None),
    # 1 - r = 1e3 / k; at k = 578 000 it rounds just above the target.
    "power_law": (lambda k: 1.0 - np.minimum(0.5, 1e3 / np.maximum(k, 1)), 578_001),
}


def _scan(r_of_k):
    """First k in 1..K with 1 - r(k) <= target, by a scan of the whole grid."""
    for start in range(1, _K + 1, 1 << 20):
        ks = np.arange(start, min(start + (1 << 20), _K + 1))
        hit = np.flatnonzero(1.0 - r_of_k(ks) <= _TARGET)
        if hit.size:
            return int(ks[hit[0]])
    return None


class TestBetaStarSearch:
    """The search against brute force on adversarial curves.

    Each probe of the search returns the curve, on a batch of two samples,
    whose mean is then the curve value exactly.
    """

    @pytest.mark.parametrize("name", list(_CURVES))
    def test_matches_scan_within_probe_bound(self, name, monkeypatch):
        r_of_k, first = _CURVES[name]
        assert _scan(r_of_k) == first
        calls = []

        def curve(probe, beta):
            k = round(beta / quench.DEFAULT_RESOLUTION)
            calls.append(k)
            return np.full(probe.rows.shape[0], float(r_of_k(k)))

        wrap_probes(monkeypatch, curve)
        ens = sm.build_iid(2, 1.0)
        res = quench.DEFAULT_RESOLUTION
        bound = math.ceil(math.log2(_K + 1)) + 1
        if first is None:
            with pytest.raises(sm.UnboundedThresholdError):
                sm.beta_star(ens, 1 / 17, 2, seed=0)
        else:
            ts = sm.beta_star(ens, 1 / 17, 2, seed=0)
            assert ts.beta_star == first * res
            assert ts.bracket == ((first - 1) * res, first * res)
            assert ts.r_at_star.mean == float(r_of_k(first))
            assert ts.probes == tuple(k * res for k in calls)
        assert 0 < len(calls) <= bound == 25


class TestQuadratureOracle:
    def test_zero_temperature_values(self, iid2):
        assert abs(sm.quadrature_oracle(iid2, sm.GIBBS_AVERAGE, 0.0)) <= 1e-10
        assert abs(sm.quadrature_oracle(iid2, sm.KL_TO_UNIFORM, 0.0)) <= 1e-12

    @pytest.mark.parametrize("beta", [0.25, 1.0, 4.0])
    def test_two_point_tanh_reduction(self, iid2, beta):
        # 4-dimensional tensor route must hit the 1-D closed-form integral
        got = sm.quadrature_oracle(iid2, sm.GIBBS_AVERAGE, beta, nodes_per_dim=160)
        assert got == pytest.approx(TWO_POINT_GIBBS_MEAN[beta], abs=1e-8)

    def test_mc_agreement_correlated(self, corr3):
        est = sm.mc_estimate(corr3, sm.FREE_ENERGY, 1.0, 100_000, seed=23)
        orc = sm.quadrature_oracle(corr3, sm.FREE_ENERGY, 1.0, nodes_per_dim=96)
        assert abs(est.mean - orc) <= 3 * est.std_error

    def test_scale_cap(self):
        with pytest.raises(ValueError, match="oracle-scale"):
            sm.quadrature_oracle(sm.build_iid(5, 1.0), sm.GIBBS_AVERAGE, 1.0)

    def test_node_ceiling(self, iid2, monkeypatch):
        # 4097^2 nodes exceed 2^24; refused before hermgauss builds anything.
        def unreachable(k):
            raise AssertionError("hermgauss called")
        monkeypatch.setattr(quench, "hermgauss", unreachable)
        with pytest.raises(ValueError, match="oracle-scale"):
            sm.quadrature_oracle(iid2, sm.GIBBS_AVERAGE, 1.0, nodes_per_dim=4097)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # from hermgauss
    @pytest.mark.parametrize("nodes", [371, 400])
    def test_rule_underflow(self, iid2, nodes):
        # Within the grid cap, but hermgauss gives zero or nan weights there,
        # which would make the oracle return 0.0 or nan.
        with pytest.raises(ValueError, match="oracle-scale"):
            sm.quadrature_oracle(iid2, sm.GIBBS_AVERAGE, 1.0, nodes_per_dim=nodes)

    def test_node_floor(self, iid2):
        with pytest.raises(ValueError, match="invalid-parameter"):
            sm.quadrature_oracle(iid2, sm.GIBBS_AVERAGE, 1.0, nodes_per_dim=16)

    def test_deterministic(self, corr3):
        a = sm.quadrature_oracle(corr3, sm.KL_TO_UNIFORM, 2.0, nodes_per_dim=64)
        b = sm.quadrature_oracle(corr3, sm.KL_TO_UNIFORM, 2.0, nodes_per_dim=64)
        assert a == b

    def test_default_grid(self, iid2):
        # One default for the library and the CLI, fine enough that the
        # replica identity holds within oracle-check's tolerance on iid2 at
        # beta = 4 (the gap is 1.1e-4 at 64 nodes).
        assert quench.ORACLE_NODES == cli.ExperimentConfig("oracle-check").nodes
        pairs = [(sm.GIBBS_AVERAGE, 4.0), (sm.REPLICA_GIBBS, 4.0)]
        direct, replica = sm.quadrature_oracles(iid2, pairs)
        assert [direct, replica] == sm.quadrature_oracles(iid2, pairs, 128)
        assert direct == sm.quadrature_oracle(iid2, sm.GIBBS_AVERAGE, 4.0)
        assert abs(direct - replica) <= cli._REPLICA_ORACLE_TOL


def _frozen_shift(x, beta):
    x_max = np.max(x, axis=-1)
    with np.errstate(over="ignore"):
        return x_max, (x - x_max[..., None]) * beta


def _frozen_log_sum_exp(z):
    return np.log(np.sum(np.exp(z), axis=-1))


def _frozen_ratio(x, beta):
    e = np.exp(_frozen_shift(x, beta)[1])
    s = np.sum(e, axis=-1)
    return np.sum(e * e, axis=-1) / (s * s)


def _frozen_values(ens, obs, x, beta):
    """Per-realization values of obs on x at beta, each from its own kernel
    with numpy's max, sum and exp: a frozen copy of the per-pair route that
    the shared shifted pass replaced."""
    m = x.shape[-1]
    kind = obs.kind
    if kind == "renyi_to_uniform" and abs(obs.alpha - 1.0) < 1e-8:
        kind = "kl_to_uniform"
    if kind == "expected_max":
        return np.max(x, axis=-1)
    if kind == "participation_ratio":
        return _frozen_ratio(x, beta)
    if kind == "renyi_half":
        return np.log(m) + np.log(_frozen_ratio(x, beta / 2.0))
    if kind == "renyi_to_uniform":
        z = _frozen_shift(x, beta)[1]
        with np.errstate(over="ignore"):
            log_s_alpha = _frozen_log_sum_exp(z * obs.alpha)
        return np.log(m) + (log_s_alpha - obs.alpha * _frozen_log_sum_exp(z)) / (
            obs.alpha - 1.0)
    if kind in ("free_energy", "replica_gibbs") and beta == 0.0:
        return np.zeros(x.shape[:-1])
    if kind == "replica_gibbs" and ens.is_iid:
        return beta * ens.iid_variance * (1.0 - _frozen_ratio(x, beta))
    if kind == "soft_max":
        x = x[..., list(obs.subset)]
        if x.shape[-1] == 1:
            return x[..., 0]
    x_max, z = _frozen_shift(x, beta)
    e = np.exp(z)
    s = np.sum(e, axis=-1)
    log_s = np.log(s)
    if kind == "kl_to_uniform":
        # log m + beta <X> - Lambda with the shift taken out of both terms; a
        # z of -inf (an overflowed shift) has e z = 0, its limit, not nan.
        with np.errstate(invalid="ignore"):
            ez = e * z
        ez[np.isnan(ez)] = 0.0
        return np.log(m) + np.sum(ez, axis=-1) / s - log_s
    with np.errstate(over="ignore"):
        log_z = beta * x_max + log_s
    if kind in ("soft_max", "free_energy"):
        # (Lambda - c) / beta, and where Lambda overflowed the same with the
        # shift taken out.
        c = np.log(m) if kind == "free_energy" else 0.0
        return np.where(np.isfinite(log_z), (log_z - c) / beta,
                        x_max + (log_s - c) / beta)
    w = np.exp(z - log_s[..., None])
    if kind == "shannon_entropy":
        if beta == 0.0:
            w = np.full(x.shape, 1.0 / m)
        return -np.sum(w * np.log(w, out=np.zeros_like(w), where=w > 0.0), axis=-1)
    if kind == "replica_gibbs":
        return 0.5 * beta * np.einsum("ni,ij,nj->n", w, ens.squared_distances, w)
    assert kind == "gibbs_average"
    return np.sum(w * x, axis=-1)


def _frozen_grid(w, m, floor):
    """(weights, digit index matrix, kept mask) of each 2^18-node chunk of
    the k^m grid, from the radix index build: node t has digit
    (t // k^(m-1-d)) % k in dimension d.  A node is kept when its weight is
    at least floor * pi^(m/2)."""
    k = w.size
    total = k ** m
    radix = k ** np.arange(m - 1, -1, -1, dtype=np.int64)
    cut = floor * np.pi ** (m / 2.0)
    for start in range(0, total, 1 << 18):
        flat = np.arange(start, min(start + (1 << 18), total), dtype=np.int64)
        idx = (flat[:, None] // radix[None, :]) % k
        weight = np.prod(w[idx], axis=1)
        yield weight, idx, weight >= cut


def _frozen_x(points, idx, factor):
    """x = g F^T of the nodes idx, each column g[:, 0] F[j, 0] + ... left
    to right, row-major."""
    g = points[idx]
    columns = []
    for row in factor:
        col = g[:, 0] * row[0]
        for d in range(1, len(row)):
            col = col + g[:, d] * row[d]
        columns.append(col)
    return np.stack(columns, axis=1)


def _regroup(pieces, size):
    """(weights, idx) pieces regrouped in order into chunks of `size` rows,
    the last one short."""
    held_w, held_i, held = [], [], 0
    for weight, idx in pieces:
        held_w.append(weight)
        held_i.append(idx)
        held += weight.size
        while held >= size:
            weight, idx = np.concatenate(held_w), np.concatenate(held_i)
            yield weight[:size], idx[:size]
            held_w, held_i, held = [weight[size:]], [idx[size:]], held - size
    if held:
        yield np.concatenate(held_w), np.concatenate(held_i)


def _grid_sums(ens, nodes_per_dim, floor, evaluate, chunk=1 << 18):
    """The weighted sums of evaluate(x), one value array per pair, over
    chunks of `chunk` kept nodes of the radix build, each chunk reduced by
    numpy's pairwise sum of weight * value."""
    m = ens.size
    z, w = quench._oracle_rule(m, nodes_per_dim)
    points = np.sqrt(2.0) * z
    kept = ((weight[keep], idx[keep])
            for weight, idx, keep in _frozen_grid(w, m, floor))
    acc = []
    for weight, idx in _regroup(kept, chunk):
        sums = [float(np.add.reduce(weight * v)) for v in
                evaluate(_frozen_x(points, idx, ens.sampling_factor))]
        acc = [a + b for a, b in zip(acc or [0.0] * len(sums), sums)]
    return [a / np.pi ** (m / 2.0) for a in acc]


def _frozen_oracles(ens, pairs, nodes_per_dim, chunk=1 << 18):
    """Each pair on each chunk of the nodes the oracle keeps, frozen."""
    return _grid_sums(
        ens, nodes_per_dim, quench.ORACLE_WEIGHT_FLOOR,
        lambda x: [_frozen_values(ens, obs, x, float(beta)) for obs, beta in pairs],
        chunk)


def _full_grid_oracles(ens, pairs, nodes_per_dim):
    """The oracle values on every node of the grid, by the shared pass."""
    def evaluate(x):
        values = dict(gibbs._evaluate(x, pairs, ens))
        return [values[i] for i in range(len(pairs))]
    return _grid_sums(ens, nodes_per_dim, 0.0, evaluate)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


# Kinds outside the shared pass beside every shared kind, at beta = 0 and
# -0.0, at 1 given three ways, at 4, at 1e308, where the shift overflows, and
# at the halves of 4 and 1e308, whose passes Renyi-1/2 shares.
_EDGE_PAIRS = (
    [(sm.soft_max_observable((0, 1)), 1.0), (sm.soft_max_observable((1,)), 2.0),
     (sm.SHANNON_ENTROPY, 0.5), (sm.SHANNON_ENTROPY, 0.0),
     (sm.RENYI_HALF, 1.0), (sm.EXPECTED_MAX, 0.0)]
    + [(obs, beta)
       for beta in (0, -0.0, 1, 1.0, np.float64(1.0), 4.0, 2.0, 1e308, 5e307)
       for obs in (sm.GIBBS_AVERAGE, sm.FREE_ENERGY, sm.PARTICIPATION_RATIO,
                   sm.KL_TO_UNIFORM, sm.renyi_observable(0.5),
                   sm.renyi_observable(2.0), sm.renyi_observable(1.0 + 1e-9),
                   sm.REPLICA_GIBBS, sm.SHANNON_ENTROPY, sm.RENYI_HALF)])


class TestGridChunk:
    """_kept_nodes and _node_values equal the masked radix index build,
    bit for bit."""

    @pytest.mark.parametrize("k, m", [(200, 3), (64, 4), (128, 2), (32, 1)])
    def test_equals_frozen_index_build(self, k, m):
        # At k = 200 a 2^18-node radix chunk edge falls inside a leading
        # digit, so the kept nodes of one prefix come from two chunks.
        z, w = quench._oracle_rule(m, k)
        points = np.sqrt(2.0) * z
        factor = np.random.default_rng(k + m).standard_normal((m, m))
        weight, digits = quench._kept_nodes(w, m)
        assert len(digits) == m
        start = 0
        for frozen_w, idx, keep in _frozen_grid(w, m, quench.ORACLE_WEIGHT_FLOOR):
            stop = start + int(keep.sum())
            assert np.array_equal(weight[start:stop].view(np.uint64),
                                  frozen_w[keep].view(np.uint64))
            for d in range(m):
                assert np.array_equal(digits[d][start:stop], idx[keep, d])
            x = quench._node_values(points, [c[start:stop] for c in digits], factor)
            frozen = _frozen_x(points, idx[keep], factor)
            assert np.array_equal(x.view(np.uint64), frozen.view(np.uint64))
            assert x.flags.f_contiguous
            start = stop
        assert start == weight.size

    @pytest.mark.parametrize("k, m", [(128, 3), (64, 4), (370, 2)])
    def test_dropped_mass_is_below_the_bound(self, k, m):
        # Every dropped node weighs less than the floor and a grid has at
        # most ORACLE_MAX_NODES nodes, so the dropped mass is below their
        # product: far below a double's resolution of the unit total.
        z, w = quench._oracle_rule(m, k)
        scale = np.pi ** (m / 2.0)
        dropped = kept = 0.0
        for weight, _, keep in _frozen_grid(w, m, quench.ORACLE_WEIGHT_FLOOR):
            assert np.all(weight[~keep] / scale < quench.ORACLE_WEIGHT_FLOOR * (1 + 1e-15))
            dropped += float(np.sum(weight[~keep])) / scale
            kept += float(np.sum(weight[keep])) / scale
        assert 0.0 < dropped <= quench.ORACLE_MAX_NODES * quench.ORACLE_WEIGHT_FLOOR
        assert kept == pytest.approx(1.0, rel=1e-13)

    def test_corr3_grid_keeps_an_eighth(self):
        z, w = quench._oracle_rule(3, quench.ORACLE_NODES)
        weight, _ = quench._kept_nodes(w, 3)
        assert weight.size == 255_376 <= quench.ORACLE_NODES ** 3 // 8


class TestFusedOracle:
    """quadrature_oracles equals the per-pair route it replaced, bit for bit."""

    @pytest.mark.parametrize("name", ["iid2", "corr3"])
    def test_equals_one_call_per_pair(self, name):
        # At 128 nodes iid2 keeps 4 952 nodes and corr3 255 376: one chunk each.
        ens = dict(cli._check_fixtures())[name]
        pairs = cli._CHECK_PAIRS
        assert len(pairs) == 19
        fused = sm.quadrature_oracles(ens, pairs, 128)
        assert _bits(fused) == _bits(_frozen_oracles(ens, pairs, 128))
        assert all(type(v) is float for v in fused)

    @pytest.mark.parametrize("name", ["iid2", "corr3"])
    def test_edge_pairs_equal_frozen_route(self, name, monkeypatch):
        # corr3 at 66 nodes keeps 89 984 nodes: in chunks of 2^16 it spans
        # two, the second one short.
        monkeypatch.setattr(quench, "_ORACLE_CHUNK", 1 << 16)
        ens = dict(cli._check_fixtures())[name]
        with np.errstate(over="ignore", invalid="ignore"):
            fused = sm.quadrature_oracles(ens, _EDGE_PAIRS, 66)
            frozen = _frozen_oracles(ens, _EDGE_PAIRS, 66, chunk=1 << 16)
        assert _bits(fused) == _bits(frozen)

    @pytest.mark.parametrize("name", ["iid2", "corr3"])
    @pytest.mark.parametrize("nodes, pairs", [
        (128, cli._CHECK_PAIRS), (200, cli._CHECK_PAIRS), (66, _EDGE_PAIRS)],
        ids=["check-128", "check-200", "edge-66"])
    def test_pruned_grid_equals_full_grid(self, name, nodes, pairs):
        # Only the order of the sum and the dropped mass (below 1.7e-23)
        # separate the two.
        ens = dict(cli._check_fixtures())[name]
        with np.errstate(over="ignore", invalid="ignore"):
            pruned = sm.quadrature_oracles(ens, pairs, nodes)
            full = _full_grid_oracles(ens, pairs, nodes)
        for a, b in zip(pruned, full):
            if math.isfinite(b):
                assert abs(a - b) <= 1e-14 * max(1.0, abs(b)), (a, b)
            else:
                assert _bits([a]) == _bits([b])

    @pytest.mark.parametrize("name, passes, blocks", [
        ("iid2", 3, 3),
        # corr3's one chunk of 255 376 kept nodes is cut into blocks of
        # _BLOCK_ELEMENTS // 3 rows, and each block is shifted once.
        ("corr3", 3, 3 * -(-255_376 // (gibbs._BLOCK_ELEMENTS // 3)))],
        ids=["iid2-3", "corr3-3"])
    def test_one_shifted_pass_per_chunk_and_beta(self, monkeypatch, name,
                                                 passes, blocks):
        # Three betas; at 128 nodes iid2 is one chunk (and one block) and
        # corr3 one chunk.  The grid is finite by construction, so no chunk
        # is scanned (the max did it per chunk).
        ens = dict(cli._check_fixtures())[name]
        calls = []
        shifts = []
        scans = []
        observe, shift = gibbs._observe, gibbs._shift

        def counted_observe(x, passes, ens=None):
            calls.extend(beta for beta, _ in passes)
            return observe(x, passes, ens)

        def counted_shift(x):
            shifts.append(len(x))
            return shift(x)

        monkeypatch.setattr(gibbs, "_observe", counted_observe)
        monkeypatch.setattr(gibbs, "_shift", counted_shift)
        monkeypatch.setattr(gibbs, "_check_x", scans.append)
        sm.quadrature_oracles(ens, cli._CHECK_PAIRS, 128)
        assert len(calls) == passes
        assert len(shifts) == blocks
        assert scans == []

    def test_order_and_repeats(self, corr3):
        pairs = [(sm.KL_TO_UNIFORM, 2.0), (sm.REPLICA_GIBBS, 1.0),
                 (sm.KL_TO_UNIFORM, 2.0)]
        a, b, c = sm.quadrature_oracles(corr3, pairs, 64)
        assert a == c == sm.quadrature_oracle(corr3, sm.KL_TO_UNIFORM, 2.0, 64)
        assert b == sm.quadrature_oracle(corr3, sm.REPLICA_GIBBS, 1.0, 64)
        assert sm.quadrature_oracles(corr3, [], 64) == []

    @pytest.mark.parametrize("beta, nodes, code", [
        (-1.0, 64, "invalid-parameter"), (math.inf, 64, "invalid-parameter"),
        (1.0, 16, "invalid-parameter"), (1.0, 4097, "oracle-scale"),
        (1.0, 400, "oracle-scale")])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # from hermgauss
    def test_refuses_as_one_call(self, iid2, beta, nodes, code):
        with pytest.raises(ValueError, match=code) as single:
            sm.quadrature_oracle(iid2, sm.GIBBS_AVERAGE, beta, nodes)
        pairs = [(sm.FREE_ENERGY, 1.0), (sm.GIBBS_AVERAGE, beta)]
        with pytest.raises(ValueError, match=code) as fused:
            sm.quadrature_oracles(iid2, pairs, nodes)
        assert str(fused.value) == str(single.value)
