"""The Random Energy Model: 2^N spin configurations with independent
centered Gaussian energies of variance N/2.

The quenched pressure P_N(beta) = (1/N) E log Z_N(beta) interpolates between
log 2 at beta = 0 and the linear ground-state regime; in the infinite-size
limit it develops a kink at beta_c = 2 sqrt(log 2).  For each finite N the
pressure is sandwiched between a lower curve q_lower (quadratic, then linear
with a Sudakov slope) and the minimum q_upper_min of a family of upper
curves (quadratic up to a knee beta0, then linear with slope sqrt(E KL / N)
evaluated at the target beta).  The curves are pure functions of the
divergence estimate they are given: they draw no batch and make no pass.
pressure_sweep estimates its threshold once, then in one mc_estimates call
each row's pressure and E KL(beta), one pass per grid beta, and
E KL(beta_star), and builds each row from q_lower, q_upper_min and
limit_pressure.  The lower curve takes its Sudakov constant from the
threshold, and the sweep's verdicts allow quench.Z_MARGIN standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gibbs
from .ensemble import IndexedEnsemble, _check_number, build_iid
from .quench import (SUDAKOV_C, Z_MARGIN, QuenchedEstimate, ThresholdResult,
                     _check_threshold, beta_star, mc_estimates)

MAX_SPINS = 16   # 2^16 states is the desk-scale ceiling
BETA_C = 2.0 * math.sqrt(math.log(2.0))  # critical beta of the limit pressure


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
                    beta_c=BETA_C, ensemble=ens)


def limit_pressure(beta) -> float:
    """Infinite-size pressure: log 2 + beta^2/4 below beta_c, beta sqrt(log 2) above."""
    beta = gibbs._check_beta(beta)
    if beta < BETA_C:
        return math.log(2.0) + beta * beta / 4.0
    return beta * math.sqrt(math.log(2.0))


def _divergence(kl) -> float:
    """An E KL estimate as a float; a missing or non-finite one is refused."""
    kl = _check_number("invalid-input: E KL", kl)
    if not math.isfinite(kl):
        raise ValueError(f"invalid-input: E KL must be finite, got {kl!r}")
    return kl


def q_lower(model: RemModel, beta, threshold: ThresholdResult, kl_star) -> float:
    """Lower pressure curve: quadratic up to the threshold, then linear.

        log 2 + c^2 beta^2 / 8                                for beta <= beta_star
        log 2 + c^2 beta_star^2 / 8
              + c (beta - beta_star) sqrt(E KL(beta_star) / (2N))  above

    threshold must come from beta_star on this model's ensemble; c is the
    constant it was computed with.  kl_star is an estimate of E KL(beta_star),
    read only when beta lies above beta_star.
    """
    beta = gibbs._check_beta(beta)
    _check_threshold(threshold, model.ensemble)
    c, bs = threshold.c, threshold.beta_star
    if beta <= bs:
        return math.log(2.0) + c * c * beta * beta / 8.0
    slope = c * math.sqrt(max(_divergence(kl_star), 0.0) / (2.0 * model.n_spins))
    return math.log(2.0) + c * c * bs * bs / 8.0 + (beta - bs) * slope


def q_upper_min(model: RemModel, beta, beta0_grid, kl) -> float:
    """Minimum over the knees beta0 of the upper pressure curve.

        log 2 + beta^2 / 4                                    for beta <= beta0
        log 2 + beta0^2 / 4 + (beta - beta0) sqrt(E KL(beta) / N)   above

    beta_c always joins the knee grid.  kl is an estimate of E KL at beta
    itself, not at a knee, read only when some knee lies below beta.
    """
    beta = gibbs._check_beta(beta)
    knees = [_check_number("invalid-parameter: beta0", b)
             for b in np.atleast_1d(np.asarray(beta0_grid, dtype=object))]
    if len(knees) == 0:
        raise ValueError("invalid-parameter: beta0 grid must be nonempty")
    knees.append(model.beta_c)
    bad = [b for b in knees if not (np.isfinite(b) and b >= 0)]
    if bad:
        raise ValueError(
            f"invalid-parameter: beta0 must be nonnegative and finite, got {bad[0]}")
    div = _divergence(kl) if beta > min(knees) else 0.0
    slope = math.sqrt(max(div, 0.0) / model.n_spins)
    return min(math.log(2.0) + beta * beta / 4.0 if beta <= b0
               else math.log(2.0) + b0 * b0 / 4.0 + (beta - b0) * slope
               for b0 in knees)


@dataclass(frozen=True)
class PressureRow:
    beta: float
    p_hat: QuenchedEstimate
    q_lower: float
    q_upper_min: float
    q_upper_cap: float
    limit: float
    sandwich_verdict: str         # holds | violated


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
    curve, allowing Z_MARGIN standard errors.
    """
    grid = [gibbs._check_beta(b)
            for b in np.atleast_1d(np.asarray(beta_grid, dtype=object))]
    if len(grid) == 0:
        raise ValueError("invalid-parameter: beta grid must be nonempty")
    if any(b2 <= b1 for b1, b2 in zip(grid, grid[1:])):
        raise ValueError("invalid-parameter: beta grid must be strictly increasing")

    threshold = beta_star(model.ensemble, c, n, seed)
    bs = threshold.beta_star
    # E KL(beta_star) for the lower curve past it, then the pressure and
    # E KL at each grid beta: one pass per beta, on one shift of each row
    # block.
    star = [(gibbs.KL_TO_UNIFORM, bs)] if grid[-1] > bs else []
    estimates = mc_estimates(
        model.ensemble, star + [(obs, beta) for beta in grid for obs in
                                (gibbs.REM_PRESSURE, gibbs.KL_TO_UNIFORM)],
        n, seed)
    div_star = estimates.pop(0).mean if star else None

    rows = []
    for k, beta in enumerate(grid):
        p_hat, kl = estimates[2 * k:2 * k + 2]
        low = q_lower(model, beta, threshold, div_star)
        up = q_upper_min(model, beta, grid, kl.mean)
        limit = limit_pressure(beta)
        margin = Z_MARGIN * p_hat.std_error
        verdict = ("holds"
                   if low <= p_hat.mean + margin and p_hat.mean <= up + margin
                   else "violated")
        rows.append(PressureRow(
            beta=beta, p_hat=p_hat, q_lower=low, q_upper_min=up,
            q_upper_cap=limit, limit=limit,
            sandwich_verdict=verdict))
    return PressureCurve(n_spins=model.n_spins, threshold=threshold,
                         rows=tuple(rows))
