"""Monte Carlo estimation of disorder-averaged functionals.

The estimators draw realizations of an ensemble, evaluate a per-realization
functional from `gibbs` on each, and report the sample mean with its standard
error.  Three contracts shape everything here:

* Determinism: the randomness of sample i is a pure function of
  (seed, i) via counter-based Philox streams, and the reduction over samples
  is numpy's fixed-order pairwise sum, so results are bit-identical for any
  execution order or worker count.
* Common random numbers: identical (ensemble, n, seed) always yields the
  identical realization batch, so comparisons across beta or across the two
  sides of an identity are per-sample comparisons.
* Collapsed i.i.d. forms: whenever the covariance is a scalar matrix the
  replica statistic uses beta * sigma^2 * (1 - participation) instead of the
  generic double sum; the two are equal coordinate-for-coordinate there.

A tensor-product Gauss-Hermite oracle provides independent high-precision
expectations for index sets of up to four points.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from . import gibbs
from .ensemble import IndexedEnsemble

BETA_MAX_FACTOR = 1e4        # bracket search abandons above 1e4 / sigma
DEFAULT_RESOLUTION = 1e-3    # beta_star grid step, in units of 1 / sigma
ORACLE_MAX_POINTS = 4        # tensor quadrature cap
ORACLE_MIN_NODES = 32
BATCH_ELEMENT_CAP = 250_000_000  # refuse batches above this many floats

_workers = 1
_workers_lock = threading.Lock()


def set_workers(k: int) -> None:
    """Worker threads for batch generation.  Results never depend on this."""
    global _workers
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"invalid-parameter: worker count must be >= 1, got {k}")
    with _workers_lock:
        _workers = int(k)


def get_workers() -> int:
    return _workers


class UnboundedThresholdError(RuntimeError):
    """The participation criterion was not met below beta_max."""


@dataclass(frozen=True)
class QuenchedEstimate:
    """Sample mean of a per-realization functional, with its standard error."""
    observable: gibbs.Observable
    beta: float
    mean: float
    std_error: float
    n_samples: int
    seed: int


@dataclass(frozen=True)
class ThresholdResult:
    """Smallest grid beta where 1 - r(beta) drops to the packing target.

    bracket is the final bisection interval (lo excluded, hi included);
    ensemble_key ties the result to the ensemble it was computed on.
    """
    beta_star: float
    bracket: tuple[float, float]
    target: float
    r_at_star: QuenchedEstimate
    ensemble_key: str
    note: str | None = None


# -- deterministic sample streams ---------------------------------------------

def _master_key(seed) -> np.ndarray:
    if not isinstance(seed, (int, np.integer)):
        raise ValueError(f"invalid-parameter: seed must be an integer, got {seed!r}")
    return np.random.SeedSequence(int(seed) & 0xFFFFFFFFFFFFFFFF).generate_state(
        2, np.uint64)


def _fill_block(out, key, lo, hi):
    m = out.shape[1]
    for i in range(lo, hi):
        # Sample i owns the counter block starting at i * 2^128, the same
        # stream Philox(key).jumped(i) would give.
        rng = np.random.Generator(np.random.Philox(counter=i << 128, key=key))
        out[i] = rng.standard_normal(m)


def _standard_batch(m: int, n: int, seed: int) -> np.ndarray:
    """n independent m-vectors of standard normals, sample i from stream i."""
    if n * m > BATCH_ELEMENT_CAP:
        raise ValueError(
            f"scale: batch of {n} x {m} exceeds {BATCH_ELEMENT_CAP} elements; "
            "reduce n or the index set")
    key = _master_key(seed)
    out = np.empty((n, m))
    k = min(_workers, n)
    if k <= 1:
        _fill_block(out, key, 0, n)
    else:
        bounds = np.linspace(0, n, k + 1, dtype=int)
        with ThreadPoolExecutor(max_workers=k) as pool:
            futures = [pool.submit(_fill_block, out, key, bounds[j], bounds[j + 1])
                       for j in range(k)]
            for f in futures:
                f.result()
    return out


_CACHE_SLOTS = 4
_batch_cache: OrderedDict[tuple, np.ndarray] = OrderedDict()
_batch_lock = threading.Lock()


def _cached(key, build):
    with _batch_lock:
        if key in _batch_cache:
            _batch_cache.move_to_end(key)
            return _batch_cache[key]
    value = build()
    value.setflags(write=False)
    with _batch_lock:
        _batch_cache[key] = value
        while len(_batch_cache) > _CACHE_SLOTS:
            _batch_cache.popitem(last=False)
    return value


def clear_cache() -> None:
    with _batch_lock:
        _batch_cache.clear()
    _threshold_memo.clear()


def standard_normal_batch(m: int, n: int, seed: int) -> np.ndarray:
    """Cached (n, m) standard-normal batch with per-sample streams."""
    _check_n(n)
    return _cached(("std", m, n, int(seed)), lambda: _standard_batch(m, n, seed))


def realization_batch(ens: IndexedEnsemble, n: int, seed: int) -> np.ndarray:
    """Cached (n, |T|) batch of ensemble realizations, sample i from stream i."""
    _check_n(n)

    def build():
        g = _standard_batch(ens.size, n, seed)
        if ens.is_iid:
            g *= np.sqrt(ens.iid_variance)
            return g
        return g @ ens.sampling_factor.T

    return _cached((ens.cache_key, n, int(seed)), build)


def _check_n(n):
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(
            f"invalid-parameter: need at least 2 samples for a standard error, "
            f"got {n}")


# -- estimation ----------------------------------------------------------------

def _replica_values(ens: IndexedEnsemble, x: np.ndarray, beta: float) -> np.ndarray:
    if beta == 0.0:
        return np.zeros(x.shape[0])
    if ens.is_iid:
        # Scalar covariance: the double sum collapses exactly.
        return beta * ens.iid_variance * (1.0 - gibbs.participation_ratio(x, beta))
    w = gibbs.gibbs_measure(x, beta).weights
    d2 = ens.squared_distances
    return 0.5 * beta * np.einsum("ni,ij,nj->n", w, d2, w)


def evaluate_values(ens: IndexedEnsemble, obs: gibbs.Observable, x: np.ndarray,
                    beta: float) -> np.ndarray:
    """Per-realization values of obs on a batch x of shape (..., |T|)."""
    if obs.kind == "replica_gibbs":
        return _replica_values(ens, x, beta)
    return np.asarray(obs.evaluate(x, beta))


def per_sample_values(ens: IndexedEnsemble, obs: gibbs.Observable, beta,
                      n: int, seed: int) -> np.ndarray:
    """The n per-sample values behind mc_estimate, in sample order.

    Shares the cached realization batch, so values at different beta (or for
    different observables) are coupled sample-by-sample: the common random
    numbers that identity checks and finite differences rely on.
    """
    beta = gibbs._check_beta(beta)
    x = realization_batch(ens, n, seed)
    return evaluate_values(ens, obs, x, beta)


def _mean_se(values) -> tuple[float, float]:
    """Sample mean and its standard error; raises on a non-finite result."""
    values = np.asarray(values, dtype=np.float64)
    # Centered mean: exact when every value is identical (degenerate
    # statistics such as the zero-temperature pressure), and no worse
    # conditioned otherwise.  Still a fixed-order pairwise reduction.
    v0 = float(values[0])
    centered = values - v0
    mean = v0 + float(np.mean(centered))
    se = float(np.std(centered, ddof=1) / np.sqrt(values.shape[0]))
    if not (np.isfinite(mean) and np.isfinite(se)):
        raise ValueError(
            f"non-finite: sample mean {mean} with standard error {se}; "
            "a per-sample value overflowed or is undefined at this beta")
    return mean, se


def _from_values(values, obs, beta, n, seed) -> QuenchedEstimate:
    mean, se = _mean_se(values)
    return QuenchedEstimate(observable=obs, beta=float(beta), mean=mean,
                            std_error=se, n_samples=int(n), seed=int(seed))


def mc_estimate(ens: IndexedEnsemble, obs: gibbs.Observable, beta,
                n: int, seed: int) -> QuenchedEstimate:
    """Sample mean of obs over n realizations, with standard error."""
    values = per_sample_values(ens, obs, beta, n, seed)
    return _from_values(values, obs, beta, n, seed)


def replica_gibbs_estimate(ens: IndexedEnsemble, beta, n: int,
                           seed: int) -> QuenchedEstimate:
    """Tilted-mean estimate via the two-replica overlap statistic.

    Per sample: (beta/2) * sum_{s,t} d^2(s,t) nu(s) nu(t), which collapses to
    beta * sigma^2 * (1 - sum nu^2) for scalar covariances.  Its expectation
    equals that of the plain tilted mean, so the two estimators cross-check
    each other.
    """
    return mc_estimate(ens, gibbs.REPLICA_GIBBS, beta, n, seed)


def expected_max_estimate(ens: IndexedEnsemble, n: int, seed: int) -> QuenchedEstimate:
    """Sample mean of max_t X_t (the zero-temperature softmax)."""
    x = realization_batch(ens, n, seed)
    values = np.max(x, axis=-1)
    return _from_values(values, gibbs.EXPECTED_MAX, np.inf, n, seed)


# -- participation threshold ---------------------------------------------------

_threshold_memo: dict[tuple, ThresholdResult] = {}


def beta_star(ens: IndexedEnsemble, c: float, n: int, seed: int,
              resolution: float | None = None) -> ThresholdResult:
    """Smallest grid beta with 1 - r_hat(beta) <= c^2 a^2 / (2 Delta^2).

    r_hat is the estimated mean participation ratio on the common batch.
    Each per-sample participation curve is nondecreasing in beta, hence so is
    r_hat; bisection on the resolution grid therefore finds the exact smallest
    grid point satisfying the criterion.  The search gives up above
    1e4 / sigma and raises UnboundedThresholdError with diagnostics.
    """
    if not (0.0 < c < 1.0):
        raise ValueError(f"invalid-parameter: c must lie in (0, 1), got {c}")
    _check_n(n)
    sigma = ens.sigma_max
    if resolution is None:
        resolution = DEFAULT_RESOLUTION / sigma
    if not np.isfinite(resolution) or resolution <= 0:
        raise ValueError(
            f"invalid-parameter: resolution must be positive, got {resolution}")

    memo_key = (ens.cache_key, float(c), int(n), int(seed), float(resolution))
    hit = _threshold_memo.get(memo_key)
    if hit is not None:
        return hit

    a = ens.min_separation
    delta = ens.diameter
    target = (c * a) ** 2 / (2.0 * delta ** 2)
    x = realization_batch(ens, n, seed)

    def r_hat(beta):
        return float(np.mean(gibbs.participation_ratio(x, beta)))

    def result(beta_val, bracket, note=None):
        r_est = mc_estimate(ens, gibbs.PARTICIPATION_RATIO, beta_val, n, seed)
        res = ThresholdResult(beta_star=beta_val, bracket=bracket, target=target,
                              r_at_star=r_est, ensemble_key=ens.cache_key,
                              note=note)
        _threshold_memo[memo_key] = res
        return res

    if target >= 1.0 - 1.0 / ens.size:
        return result(0.0, (0.0, 0.0),
                      note="criterion already holds at beta = 0: "
                           f"target {target:.6g} >= 1 - 1/|T|")

    beta_max = BETA_MAX_FACTOR / sigma
    hi = max(1, int(np.ceil(1.0 / (sigma * resolution))))
    while 1.0 - r_hat(hi * resolution) > target:
        hi *= 2
        if hi * resolution > beta_max:
            raise UnboundedThresholdError(
                "unbounded-threshold: 1 - r_hat(beta) stayed above the target "
                f"{target:.6g} for all beta <= {beta_max:.6g} "
                f"(last probe beta = {hi * resolution / 2:.6g}, "
                f"1 - r_hat = {1.0 - r_hat(hi * resolution / 2):.6g}, "
                f"|T| = {ens.size}, sigma = {sigma:.6g}); nearly coincident "
                "coordinates keep the participation ratio away from its target")
    lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if 1.0 - r_hat(mid * resolution) <= target:
            hi = mid
        else:
            lo = mid
    return result(hi * resolution, (lo * resolution, hi * resolution))


# -- independent quadrature oracle ----------------------------------------------

def quadrature_oracle(ens: IndexedEnsemble, obs: gibbs.Observable, beta,
                      nodes_per_dim: int = 64) -> float:
    """Tensor-product Gauss-Hermite value of E[obs(X)] for tiny index sets.

    Shares no randomness with the Monte Carlo path: the expectation over
    X = F g is integrated on a deterministic grid of nodes_per_dim^|T|
    points.  Only index sets of up to four points are accepted.
    """
    beta = gibbs._check_beta(beta)
    m = ens.size
    if m > ORACLE_MAX_POINTS:
        raise ValueError(
            f"oracle-scale: tensor quadrature supports at most "
            f"{ORACLE_MAX_POINTS} coordinates, got {m}")
    if not isinstance(nodes_per_dim, (int, np.integer)) or nodes_per_dim < ORACLE_MIN_NODES:
        raise ValueError(
            f"invalid-parameter: nodes_per_dim must be an integer >= "
            f"{ORACLE_MIN_NODES}, got {nodes_per_dim}")

    z, w = hermgauss(int(nodes_per_dim))
    points = np.sqrt(2.0) * z          # E f(G) = pi^{-1/2} sum_k w_k f(sqrt(2) z_k)
    factor = ens.sampling_factor
    k = int(nodes_per_dim)
    total = k ** m
    chunk = min(total, 1 << 18)
    radix = k ** np.arange(m - 1, -1, -1, dtype=np.int64)

    acc = 0.0
    for start in range(0, total, chunk):
        flat = np.arange(start, min(start + chunk, total), dtype=np.int64)
        idx = (flat[:, None] // radix[None, :]) % k
        g = points[idx]
        weight = np.prod(w[idx], axis=1)
        x = g @ factor.T
        vals = evaluate_values(ens, obs, x, beta)
        acc += float(np.dot(weight, vals))
    return acc / np.pi ** (m / 2.0)
