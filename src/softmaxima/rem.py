"""The Random Energy Model: 2^N spin configurations with independent
centered Gaussian energies of variance N/2.

The quenched pressure P_N(beta) = (1/N) E log Z_N(beta) interpolates between
log 2 at beta = 0 and the linear ground-state regime; in the infinite-size
limit it develops a kink at beta_c = 2 sqrt(log 2).  For each finite N the
pressure is sandwiched between a lower curve Q_lower (quadratic, then linear
with a Sudakov slope) and a family of upper curves Q_upper(.; beta0)
(quadratic up to beta0, then linear with slope sqrt(E KL / N) evaluated at
the target beta).  Both are estimated here with the common-random-number
machinery from `quench`.  Each divergence a curve needs is estimated once per
call and nothing is memoized: the sweep computes its threshold and its
E KL(beta_star) once and reuses them in every row.  The lower curve takes its
Sudakov constant from the threshold, and the sweep's verdicts and integral
tolerance allow quench.Z_MARGIN standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gibbs
from .ensemble import IndexedEnsemble, build_iid
from .quench import (SUDAKOV_C, Z_MARGIN, QuenchedEstimate, ThresholdResult,
                     _check_threshold, _from_values, _mean_se, beta_star,
                     mc_estimate, per_sample_values)

MAX_SPINS = 16   # 2^16 states is the desk-scale ceiling
TOL = 1e-12


@dataclass(frozen=True)
class RemModel:
    """N spins, 2^N configurations labeled by their bit strings."""
    n_spins: int
    size: int
    variance: float
    beta_c: float
    ensemble: IndexedEnsemble


def rem_model(n_spins: int) -> RemModel:
    """REM with n_spins spins; energies are i.i.d. N(0, n_spins / 2)."""
    if (isinstance(n_spins, bool) or not isinstance(n_spins, (int, np.integer))
            or not (1 <= n_spins <= MAX_SPINS)):
        raise ValueError(
            f"scale: n_spins must be an integer in [1, {MAX_SPINS}], "
            f"got {n_spins}")
    n_spins = int(n_spins)
    size = 2 ** n_spins
    labels = [format(i, f"0{n_spins}b") for i in range(size)]
    ens = build_iid(size, n_spins / 2.0, labels=labels)
    return RemModel(n_spins=n_spins, size=size, variance=n_spins / 2.0,
                    beta_c=2.0 * math.sqrt(math.log(2.0)), ensemble=ens)


def limit_pressure(beta) -> float:
    """Infinite-size pressure: log 2 + beta^2/4 below beta_c, beta sqrt(log 2) above."""
    beta = gibbs._check_beta(beta)
    beta_c = 2.0 * math.sqrt(math.log(2.0))
    if beta < beta_c:
        return math.log(2.0) + beta * beta / 4.0
    return beta * math.sqrt(math.log(2.0))


def _kl(model: RemModel, beta: float, n: int, seed: int) -> float:
    return mc_estimate(model.ensemble, gibbs.KL_TO_UNIFORM, beta, n, seed).mean


def _lower_curve(model: RemModel, beta: float, c: float, beta_star: float,
                 div) -> float:
    """Q_lower at beta; div = E KL(beta_star) is read only above beta_star."""
    if beta <= beta_star:
        return math.log(2.0) + c * c * beta * beta / 8.0
    slope = c * math.sqrt(max(div, 0.0) / (2.0 * model.n_spins))
    return (math.log(2.0) + c * c * beta_star * beta_star / 8.0
            + (beta - beta_star) * slope)


def q_lower(model: RemModel, beta, threshold: ThresholdResult,
            n: int, seed: int) -> float:
    """Lower pressure curve: quadratic up to the threshold, then linear.

        log 2 + c^2 beta^2 / 8                                for beta <= beta_star
        log 2 + c^2 beta_star^2 / 8
              + c (beta - beta_star) sqrt(E KL(beta_star) / (2N))  above

    threshold must come from beta_star on this model's ensemble; c is the
    constant it was computed with.  The divergence in the slope is estimated
    at beta_star, once, and only when beta lies above it.
    """
    beta = gibbs._check_beta(beta)
    _check_threshold(threshold, model.ensemble)
    bs = threshold.beta_star
    div = _kl(model, bs, n, seed) if beta > bs else None
    return _lower_curve(model, beta, threshold.c, bs, div)


def q_upper(model: RemModel, beta, beta0, n: int, seed: int) -> float:
    """Upper pressure curve for one knee beta0.

        log 2 + beta^2 / 4                                    for beta <= beta0
        log 2 + beta0^2 / 4 + (beta - beta0) sqrt(E KL(beta) / N)   above

    Note the divergence is evaluated at beta itself, not at the knee.
    """
    return _upper_min(model, beta, [beta0], n, seed)


def q_upper_min(model: RemModel, beta, beta0_grid, n: int, seed: int) -> float:
    """Minimum of q_upper over a knee grid; beta_c always joins the grid."""
    grid = [float(b) for b in np.atleast_1d(np.asarray(beta0_grid, dtype=float))]
    if len(grid) == 0:
        raise ValueError("invalid-parameter: beta0 grid must be nonempty")
    return _upper_min(model, beta, grid + [model.beta_c], n, seed)


def _upper_min(model: RemModel, beta, knees, n: int, seed: int) -> float:
    """Minimum of the upper curve over the knees.

    The knees share one E KL(beta), estimated only if some knee lies below it.
    """
    beta = gibbs._check_beta(beta)
    knees = [float(b) for b in knees]
    bad = [b for b in knees if not (np.isfinite(b) and b >= 0)]
    if bad:
        raise ValueError(
            f"invalid-parameter: beta0 must be nonnegative and finite, got {bad[0]}")
    div = _kl(model, beta, n, seed) if beta > min(knees) else 0.0
    slope = math.sqrt(max(div, 0.0) / model.n_spins)
    return min(math.log(2.0) + beta * beta / 4.0 if beta <= b0
               else math.log(2.0) + b0 * b0 / 4.0 + (beta - b0) * slope
               for b0 in knees)


def q_upper_cap(model: RemModel, beta) -> float:
    """Upper curve with knee beta_c under the divergence cap E KL <= N log 2.

    Equals log 2 + beta^2 / 4 below beta_c and exactly beta sqrt(log 2) above
    (the knee value log 2 + beta_c^2 / 4 telescopes), so it upper-bounds the
    pressure for every N.
    """
    beta = gibbs._check_beta(beta)
    if beta <= model.beta_c:
        return math.log(2.0) + beta * beta / 4.0
    return beta * math.sqrt(math.log(2.0))


@dataclass(frozen=True)
class PressureRow:
    beta: float
    p_hat: QuenchedEstimate
    q_lower: float
    q_upper_min: float
    q_upper_cap: float
    limit: float
    sandwich_verdict: str         # holds | violated
    integral_residual: float      # pressure difference minus integrated mean
    integral_tolerance: float
    integral_ok: bool


@dataclass(frozen=True)
class PressureCurve:
    """Pressure sweep rows plus the threshold they were sandwiched with."""
    n_spins: int
    threshold: ThresholdResult
    rows: tuple[PressureRow, ...]


def pressure_sweep(model: RemModel, beta_grid, n: int, seed: int,
                   c: float = SUDAKOV_C) -> PressureCurve:
    """One sandwich row per grid beta, under common random numbers.

    Each row compares the pressure estimate against the lower curve (at the
    ensemble's own participation threshold) and the grid-minimized upper
    curve, allowing Z_MARGIN standard errors.  The sweep also integrates the
    estimated tilted mean with the trapezoid rule and checks it against the
    pressure differences sample-by-sample: the fundamental-theorem identity
    P_N(beta) - P_N(beta_0) = (1/N) integral of g_N, up to curvature error.
    """
    grid = [float(b) for b in np.atleast_1d(np.asarray(beta_grid, dtype=float))]
    if len(grid) == 0:
        raise ValueError("invalid-parameter: beta grid must be nonempty")
    if any(b2 <= b1 for b1, b2 in zip(grid, grid[1:])):
        raise ValueError("invalid-parameter: beta grid must be strictly increasing")
    for b in grid:
        gibbs._check_beta(b)

    ens = model.ensemble
    threshold = beta_star(ens, c, n, seed)
    bs = threshold.beta_star
    div_star = _kl(model, bs, n, seed) if grid[-1] > bs else None

    p_sample = np.stack([per_sample_values(ens, gibbs.REM_PRESSURE, b, n, seed)
                         for b in grid])
    g_sample = np.stack([per_sample_values(ens, gibbs.GIBBS_AVERAGE, b, n, seed)
                         for b in grid])
    g_mean = g_sample.mean(axis=1)

    # Trapezoid curvature allowance per step, from second differences of the
    # estimated integrand: per-step error of the trapezoid rule is about
    # h^3 g'' / 12 and g'' is close to (second difference) / h^2.
    k_pts = len(grid)
    step_err = np.zeros(max(k_pts - 1, 0))
    if k_pts >= 3:
        second = np.abs(np.diff(g_mean, 2))
        for j in range(k_pts - 1):
            near = second[max(min(j - 1, k_pts - 3), 0): min(j + 1, k_pts - 2)]
            step_err[j] = (grid[j + 1] - grid[j]) * float(near.max()) / 12.0

    rows = []
    cum_trap = np.zeros(p_sample.shape[1])
    cum_err = 0.0
    for k, beta in enumerate(grid):
        if k > 0:
            h = grid[k] - grid[k - 1]
            cum_trap = cum_trap + 0.5 * h * (g_sample[k - 1] + g_sample[k])
            cum_err += step_err[k - 1]
        resid = p_sample[k] - p_sample[0] - cum_trap / model.n_spins
        resid_mean, resid_se = _mean_se(resid)
        tol = cum_err / model.n_spins + Z_MARGIN * resid_se + TOL

        p_hat = _from_values(p_sample[k], gibbs.REM_PRESSURE, beta, n, seed)
        low = _lower_curve(model, beta, threshold.c, bs, div_star)
        up = q_upper_min(model, beta, grid, n, seed)
        margin = Z_MARGIN * p_hat.std_error
        verdict = ("holds"
                   if low <= p_hat.mean + margin and p_hat.mean <= up + margin
                   else "violated")
        rows.append(PressureRow(
            beta=beta, p_hat=p_hat, q_lower=low, q_upper_min=up,
            q_upper_cap=q_upper_cap(model, beta), limit=limit_pressure(beta),
            sandwich_verdict=verdict, integral_residual=resid_mean,
            integral_tolerance=tol, integral_ok=abs(resid_mean) <= tol))
    return PressureCurve(n_spins=model.n_spins, threshold=threshold,
                         rows=tuple(rows))
