"""Statistical verdicts for the proved inequalities.

Each operation estimates the two sides of one inequality on a common
realization batch and renders a verdict: `holds`, `violated`, or
`inconclusive`.  Verdicts are statistical because both sides carry Monte
Carlo error: the oriented slack (margin in the claimed direction) is compared
against the combined standard error, and a claim is only called violated when
the slack is more than z_threshold standard errors on the wrong side.  Sides
known exactly (zero standard error) are compared at an absolute tolerance of
SLACK_TOL instead.

Right-hand sides of the form k * sqrt(estimate) get delta-method errors
k * se / (2 sqrt(mean)); when the estimate under the root is within 4 standard
errors of zero that linearization is meaningless and the verdict is forced to
`inconclusive`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import gibbs
from .ensemble import IndexedEnsemble, _ball_mask, greedy_packing
from .quench import (QuenchedEstimate, ThresholdResult, _check_threshold,
                     _mean_se, expected_max_estimate, mc_estimate,
                     realization_batch, standard_normal_batch)

SLACK_TOL = 1e-9
# Seed offset decoupling the auxiliary standard-normal process from the main
# realization batch (they must be independent in the minoration's rhs).
_AUX_SEED_SALT = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class BoundConfig:
    """Constants shared by all bound evaluations.

    c is the Sudakov minoration constant; iid_high_temp_constant is the
    multiplier used by the i.i.d. lower bound below the participation
    threshold (the proof chain gives c / sqrt(2) there) and defaults to that
    value when left unset.
    """
    c: float = 1.0 / 17.0
    z_threshold: float = 3.0
    iid_high_temp_constant: float | None = None

    def __post_init__(self):
        if not (0.0 < self.c < 1.0):
            raise ValueError(
                f"invalid-parameter: c must lie in (0, 1), got {self.c}")
        if not (np.isfinite(self.z_threshold) and self.z_threshold > 0):
            raise ValueError(
                f"invalid-parameter: z_threshold must be positive, got "
                f"{self.z_threshold}")
        if self.iid_high_temp_constant is None:
            object.__setattr__(self, "iid_high_temp_constant",
                               self.c / math.sqrt(2.0))
        elif self.iid_high_temp_constant <= 0:
            raise ValueError(
                f"invalid-parameter: iid_high_temp_constant must be positive, "
                f"got {self.iid_high_temp_constant}")


@dataclass(frozen=True)
class BoundReport:
    """One evaluated inequality.

    direction is the claimed ordering of the sides: "le" claims lhs <= rhs,
    "ge" claims lhs >= rhs.  slack is the margin in that direction, so it is
    positive when the claim is satisfied, whichever way the claim points.
    """
    name: str
    beta: float
    lhs: tuple[float, float]     # (mean, se)
    rhs: tuple[float, float]     # (mean, se)
    slack: float
    z: float
    verdict: str                 # holds | violated | inconclusive
    direction: str               # le | ge
    flags: tuple[str, ...] = ()
    extra: dict = field(default_factory=dict)


def _assemble(name, beta, lhs, rhs, direction, cfg, flags=(), extra=None):
    raw = rhs[0] - lhs[0]
    slack = raw if direction == "le" else -raw
    se = math.hypot(lhs[1], rhs[1])
    if se > 0 and math.isfinite(se):
        z = slack / se
    else:
        z = math.inf if slack >= -SLACK_TOL else -math.inf
    # Numerical tolerance for "holds" is z_threshold * se + SLACK_TOL, so a
    # claim with statistical error holds exactly when z >= -z_threshold and
    # an exact (se = 0) side gets the absolute 1e-9 allowance.  Zero-scale
    # claims such as 0 <= 0 at beta = 0 must come out as holds.
    if flags:
        verdict = "inconclusive"
    elif z < -cfg.z_threshold:
        verdict = "violated"
    else:
        verdict = "holds"
    return BoundReport(name=name, beta=float(beta), lhs=lhs, rhs=rhs,
                       slack=slack, z=z, verdict=verdict, direction=direction,
                       flags=tuple(flags), extra=extra or {})


def _sqrt_side(coef, mean, se):
    """(value, se) of coef * sqrt(mean) by the delta method, plus guard flag.

    The guard fires when mean sits within 4 se of zero, where the
    linearization (and for negative means the value itself) breaks down.
    """
    guard = mean < 4.0 * se
    if mean <= 0.0:
        value = 0.0
        side_se = 0.0 if se == 0.0 else math.inf
    else:
        value = coef * math.sqrt(mean)
        side_se = coef * se / (2.0 * math.sqrt(mean)) if se > 0 else 0.0
    return (value, side_se), guard


def _est(e: QuenchedEstimate) -> tuple[float, float]:
    return (e.mean, e.std_error)


def _divergence_claim(name, ens, beta, n, seed, cfg, obs, div_obs, coef,
                      direction, flags=(), extra=None) -> BoundReport:
    """obs against coef * sqrt(E div_obs), both sides on the common batch."""
    lhs = mc_estimate(ens, obs, beta, n, seed)
    div = mc_estimate(ens, div_obs, beta, n, seed)
    rhs, guard = _sqrt_side(coef, div.mean, div.std_error)
    return _assemble(name, beta, _est(lhs), rhs, direction, cfg,
                     flags=[*flags, "delta-guard"] if guard else flags,
                     extra={**(extra or {}), "divergence": _est(div)})


def g_upper(ens: IndexedEnsemble, beta, n: int, seed: int,
            cfg: BoundConfig | None = None) -> BoundReport:
    """Tilted mean against sqrt(2 sigma^2 E KL(nu_beta || uniform)), claim <=."""
    return _divergence_claim("g_upper", ens, beta, n, seed, cfg or BoundConfig(),
                             gibbs.GIBBS_AVERAGE, gibbs.KL_TO_UNIFORM,
                             math.sqrt(2.0) * ens.sigma_max, "le")


def g_upper_entropy_form(ens: IndexedEnsemble, beta, n: int, seed: int,
                         cfg: BoundConfig | None = None) -> BoundReport:
    """Same claim with the divergence written as log m minus quenched entropy.

    Identical to g_upper's rhs within 1e-10 under common random numbers; the
    entropy route never touches the log-partition, so the agreement is a live
    cross-check rather than a tautology.
    """
    cfg = cfg or BoundConfig()
    lhs = mc_estimate(ens, gibbs.GIBBS_AVERAGE, beta, n, seed)
    ent = mc_estimate(ens, gibbs.SHANNON_ENTROPY, beta, n, seed)
    inner = math.log(ens.size) - ent.mean
    coef = math.sqrt(2.0) * ens.sigma_max
    rhs, guard = _sqrt_side(coef, inner, ent.std_error)
    return _assemble("g_upper_entropy_form", beta, _est(lhs), rhs, "le", cfg,
                     flags=("delta-guard",) if guard else (),
                     extra={"entropy": _est(ent)})


def g_lower_lowtemp(ens: IndexedEnsemble, beta, threshold: ThresholdResult,
                    n: int, seed: int,
                    cfg: BoundConfig | None = None) -> BoundReport:
    """Tilted mean against c a sqrt(E KL), claim >=, valid above beta_star."""
    cfg = cfg or BoundConfig()
    _check_threshold(threshold, ens, cfg.c)
    flags = ("out-of-regime",) if beta < threshold.beta_star else ()
    return _divergence_claim("g_lower_lowtemp", ens, beta, n, seed, cfg,
                             gibbs.GIBBS_AVERAGE, gibbs.KL_TO_UNIFORM,
                             cfg.c * ens.min_separation, "ge", flags=flags,
                             extra={"beta_star": threshold.beta_star})


def g_lower_iid(ens: IndexedEnsemble, beta, threshold: ThresholdResult,
                n: int, seed: int,
                cfg: BoundConfig | None = None) -> BoundReport:
    """Tilted mean against kappa sigma sqrt(E KL) for scalar covariances.

    kappa follows the proof: cfg.iid_high_temp_constant below the
    participation threshold of this ensemble, cfg.c at or above it.
    """
    cfg = cfg or BoundConfig()
    _require_iid(ens, "g_lower_iid")
    _check_threshold(threshold, ens, cfg.c)
    kappa = cfg.iid_high_temp_constant if beta < threshold.beta_star else cfg.c
    return _divergence_claim("g_lower_iid", ens, beta, n, seed, cfg,
                             gibbs.GIBBS_AVERAGE, gibbs.KL_TO_UNIFORM,
                             kappa * ens.sigma_max, "ge",
                             extra={"kappa": kappa,
                                    "beta_star": threshold.beta_star})


def phi_upper(ens: IndexedEnsemble, beta, n: int, seed: int,
              cfg: BoundConfig | None = None) -> BoundReport:
    """Free energy against sqrt(2 sigma^2 E D_half), claim <=."""
    return _divergence_claim("phi_upper", ens, beta, n, seed,
                             cfg or BoundConfig(), gibbs.FREE_ENERGY,
                             gibbs.RENYI_HALF, math.sqrt(2.0) * ens.sigma_max,
                             "le")


def phi_lower_iid(ens: IndexedEnsemble, beta, n: int, seed: int,
                  cfg: BoundConfig | None = None) -> BoundReport:
    """Free energy against (c sigma / 2) sqrt(E D_half) for scalar covariances."""
    cfg = cfg or BoundConfig()
    _require_iid(ens, "phi_lower_iid")
    return _divergence_claim("phi_lower_iid", ens, beta, n, seed, cfg,
                             gibbs.FREE_ENERGY, gibbs.RENYI_HALF,
                             cfg.c * ens.sigma_max / 2.0, "ge")


def max_bounds(ens: IndexedEnsemble, n: int, seed: int,
               cfg: BoundConfig | None = None) -> tuple[BoundReport, BoundReport]:
    """The two zero-temperature baselines around the expected maximum.

    Upper: E max <= sqrt(2 sigma^2 log m).  Lower: E max >= c a sqrt(log m).
    Both right-hand sides are closed-form, so their standard error is zero.
    The reports carry beta = inf (these are the beta -> infinity limits).
    """
    cfg = cfg or BoundConfig()
    est = expected_max_estimate(ens, n, seed)
    log_m = math.log(ens.size)
    upper = _assemble("max_upper", math.inf, _est(est),
                      (math.sqrt(2.0) * ens.sigma_max * math.sqrt(log_m), 0.0),
                      "le", cfg)
    lower = _assemble("max_lower", math.inf, _est(est),
                      (cfg.c * ens.min_separation * math.sqrt(log_m), 0.0),
                      "ge", cfg)
    return upper, lower


def soft_super_sudakov(ens: IndexedEnsemble, beta, n: int, seed: int,
                       cfg: BoundConfig | None = None,
                       scale: float | None = None) -> BoundReport:
    """Softmax minoration over a packing-and-balls decomposition, claim >=.

    With S a 4r-packing and balls of radius r:

        E softmax(X over union of balls)
            >= r * E softmax_{beta r}(G over S) + mean_s E softmax(X over B(s, r))

    where G is an independent standard normal vector indexed by S.  The proof
    needs only the packing/ball radii in that 4:1 ratio, so r is exposed as
    `scale`; it defaults to the largest coordinate standard deviation, for
    which the canonical distance can never exceed 2r and the packing is
    always a single point (the bound then degenerates to an exact equality).
    The report's extra carries the full-set softmax for the set-inclusion
    diagnostic lhs <= E softmax(X over T).
    """
    cfg = cfg or BoundConfig()
    beta = gibbs._check_beta(beta, positive=True)
    r = ens.sigma_max if scale is None else float(scale)
    if not (np.isfinite(r) and r > 0):
        raise ValueError(f"invalid-parameter: scale must be positive, got {scale}")

    packing = greedy_packing(ens, 4.0 * r)
    s_pos = ens.indices_of(packing)
    balls = _ball_mask(ens, s_pos, r)
    ball_positions = [np.flatnonzero(row) for row in balls]
    union = np.flatnonzero(balls.any(axis=0))

    x = realization_batch(ens, n, seed)
    lhs = _mean_se(gibbs.soft_max(x, beta, union))

    # Ball average first: shares the batch with the lhs sample-for-sample.
    ball_vals = np.mean([gibbs.soft_max(x, beta, bp) for bp in ball_positions],
                        axis=0)
    ball_mean, ball_se = _mean_se(ball_vals)

    if len(s_pos) == 1:
        # softmax of a single standard normal is that normal; its mean is 0.
        aux_mean, aux_se = 0.0, 0.0
    else:
        aux_seed = (int(seed) ^ _AUX_SEED_SALT) & 0x7FFFFFFFFFFFFFFF
        g = standard_normal_batch(len(s_pos), n, aux_seed)
        aux_mean, aux_se = _mean_se(
            gibbs.soft_max(g, beta * r, np.arange(len(s_pos))))

    rhs = (r * aux_mean + ball_mean, math.hypot(r * aux_se, ball_se))
    full = _mean_se(gibbs.soft_max(x, beta, np.arange(ens.size)))
    return _assemble("soft_super_sudakov", beta, lhs, rhs, "ge", cfg,
                     extra={"packing": tuple(packing), "scale": r,
                            "full_softmax": full,
                            "union_size": int(union.size)})


def _require_iid(ens, name):
    if not ens.is_iid:
        raise ValueError(
            f"regime: {name} needs a scalar covariance (independent "
            "coordinates of equal variance)")


# -- per-realization sandwiches -------------------------------------------------

@dataclass(frozen=True)
class SandwichDiagnostics:
    """Slacks of the four softmax/tilted-mean sandwiches, all >= 0 in exact
    arithmetic:

        softmax_over_max   = softmax - max x
        cap_over_softmax   = (max x + log m / beta) - softmax
        max_over_average   = max x - <X>_beta
        average_over_floor = <X>_beta - (max x - log m / beta)

    ok is True when every slack clears -SLACK_TOL across the whole batch.
    """
    softmax_over_max: np.ndarray | float
    cap_over_softmax: np.ndarray | float
    max_over_average: np.ndarray | float
    average_over_floor: np.ndarray | float
    ok: bool


def sandwich_suite(x, beta) -> SandwichDiagnostics:
    """Evaluate both per-realization sandwiches; batched over leading axes."""
    beta = gibbs._check_beta(beta, positive=True)
    x = np.asarray(x, dtype=np.float64)
    m = x.shape[-1]
    phi = gibbs.soft_max(x, beta, np.arange(m))
    state = gibbs.gibbs_measure(x, beta)
    avg = gibbs.gibbs_average(state, x)
    top = np.max(x, axis=-1)
    gap = math.log(m) / beta
    slacks = (phi - top, top + gap - phi, top - avg, avg - (top - gap))
    ok = bool(all(np.all(np.asarray(s) >= -SLACK_TOL) for s in slacks))
    return SandwichDiagnostics(*(gibbs._scalar(s) for s in slacks), ok=ok)
