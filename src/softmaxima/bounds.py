"""Statistical verdicts for the proved inequalities.

Each operation estimates the two sides of one inequality on a common
realization batch and renders a verdict: `holds`, `violated`, or
`inconclusive`.  Verdicts are statistical because both sides carry Monte
Carlo error: the oriented slack (margin in the claimed direction) is compared
against the combined standard error, and a claim is only called violated when
the slack is more than quench.Z_MARGIN standard errors on the wrong side.
Sides known exactly (zero standard error) are compared at an absolute
tolerance of SLACK_TOL instead.

divergence_bounds renders the six claims that rest on a divergence to the
uniform measure at one beta, from one estimate each of the five quenched
means they share, and reads the Sudakov constant c from the participation
threshold; max_bounds takes c, by default quench.SUDAKOV_C.
soft_super_sudakov carries the softmax over every coordinate as a
diagnostic, and that observable joins the shifted pass at its beta
(gibbs._evaluate).  _claims_at, the bounds command's per-beta entry point,
takes the five means and that softmax in one mc_estimates call, so both
families share one pass at beta; its reports equal those of
divergence_bounds and soft_super_sudakov field for field, since each
claim is built by the same helper on either route.

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
from .ensemble import IndexedEnsemble, _ball_mask, _check_number, greedy_packing
from .quench import (SUDAKOV_C, Z_MARGIN, QuenchedEstimate, ThresholdResult,
                     _check_c, _check_threshold, _mean_se,
                     mc_estimate,
                     mc_estimates, realization_batch, standard_normal_batch)

SLACK_TOL = 1e-9
# Seed offset decoupling the auxiliary standard-normal process from the main
# realization batch (they must be independent in the minoration's rhs).
_AUX_SEED_SALT = 0x9E3779B97F4A7C15


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


def _assemble(name, beta, lhs, rhs, direction, flags=(), extra=None):
    raw = rhs[0] - lhs[0]
    slack = raw if direction == "le" else -raw
    se = math.hypot(lhs[1], rhs[1])
    if se > 0 and math.isfinite(se):
        z = slack / se
    else:
        z = math.inf if slack >= -SLACK_TOL else -math.inf
    # Numerical tolerance for "holds" is Z_MARGIN * se + SLACK_TOL, so a
    # claim with statistical error holds exactly when z >= -Z_MARGIN and
    # an exact (se = 0) side gets the absolute 1e-9 allowance.  Zero-scale
    # claims such as 0 <= 0 at beta = 0 must come out as holds.
    if flags:
        verdict = "inconclusive"
    elif z < -Z_MARGIN:
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


def _root_claim(name, beta, lhs, inner, coef, direction, flags=(),
                extra=None) -> BoundReport:
    """lhs against coef * sqrt(inner), both (mean, se) on the common batch."""
    rhs, guard = _sqrt_side(coef, *inner)
    return _assemble(name, beta, lhs, rhs, direction,
                     flags=(*flags, "delta-guard") if guard else flags,
                     extra=extra)


def divergence_bounds(ens: IndexedEnsemble, beta, threshold: ThresholdResult,
                      n: int, seed: int) -> tuple[BoundReport, ...]:
    """The divergence claims at one beta, from one estimate per observable.

    With sigma = ens.sigma_max, a = ens.min_separation, c = threshold.c and
    KL, D_half the divergences of nu_beta to uniform:

        g_upper               <X>_beta <= sqrt(2) sigma sqrt(E KL)
        g_upper_entropy_form  the same, with E KL as log m - E H(nu_beta)
        g_lower_lowtemp       <X>_beta >= c a sqrt(E KL), above beta_star
        phi_upper             free energy <= sqrt(2) sigma sqrt(E D_half)
        g_lower_iid           <X>_beta >= kappa sigma sqrt(E KL)
        phi_lower_iid         free energy >= (c sigma / 2) sqrt(E D_half)

    in that order; the last two only for scalar covariances.  kappa is
    c / sqrt(2) below beta_star and c at or above it.  Below beta_star
    g_lower_lowtemp is flagged out-of-regime.  The entropy form reads its own
    entropy estimate, which never touches the log-partition, so its
    agreement with g_upper (within 1e-10 under common random numbers) is a
    live cross-check rather than a tautology.
    """
    _check_threshold(threshold, ens)
    beta = gibbs._check_beta(beta)
    return _divergence_claims(ens, beta, threshold,
                              mc_estimates(ens, _divergence_pairs(beta), n, seed))


def _claims_at(ens: IndexedEnsemble, beta, threshold: ThresholdResult,
               n: int, seed: int) -> tuple[BoundReport, ...]:
    """divergence_bounds(ens, beta, threshold, n, seed) and, for beta > 0,
    soft_super_sudakov(ens, beta, n, seed) at the default scale, in that
    order and equal field for field, from one mc_estimates call.

    The full-set softmax of soft_super_sudakov's extra joins the pass at
    beta that serves the tilted mean, KL, entropy and free energy, so the
    bounds command takes one pass per beta where the two calls took two.
    """
    _check_threshold(threshold, ens)
    beta = gibbs._check_beta(beta)
    pairs = _divergence_pairs(beta)
    if beta > 0:
        pairs.append((gibbs.soft_max_observable(range(ens.size)), beta))
    estimates = mc_estimates(ens, pairs, n, seed)
    reports = _divergence_claims(ens, beta, threshold, estimates[:5])
    if beta > 0:
        reports += (_sudakov_claim(ens, beta, ens.sigma_max, n, seed,
                                   estimates[5]),)
    return reports


def _divergence_pairs(beta):
    """The (observable, beta) pairs of the five means divergence_bounds reads."""
    return [(obs, beta) for obs in (gibbs.GIBBS_AVERAGE, gibbs.KL_TO_UNIFORM,
                                    gibbs.SHANNON_ENTROPY, gibbs.FREE_ENERGY,
                                    gibbs.RENYI_HALF)]


def _divergence_claims(ens, beta, threshold, estimates):
    """divergence_bounds' reports at the checked beta from the estimates of
    _divergence_pairs(beta), in that order."""
    g, kl, ent, phi, half = (_est(e) for e in estimates)
    c, bs = threshold.c, threshold.beta_star
    below = beta < bs
    upper_coef = math.sqrt(2.0) * ens.sigma_max
    reports = [
        _root_claim("g_upper", beta, g, kl, upper_coef, "le",
                    extra={"divergence": kl}),
        _root_claim("g_upper_entropy_form", beta, g,
                    (math.log(ens.size) - ent[0], ent[1]), upper_coef, "le",
                    extra={"entropy": ent}),
        _root_claim("g_lower_lowtemp", beta, g, kl, c * ens.min_separation,
                    "ge", flags=("out-of-regime",) if below else (),
                    extra={"beta_star": bs, "divergence": kl}),
        _root_claim("phi_upper", beta, phi, half, upper_coef, "le",
                    extra={"divergence": half}),
    ]
    if ens.is_iid:
        kappa = c / math.sqrt(2.0) if below else c
        reports += [
            _root_claim("g_lower_iid", beta, g, kl, kappa * ens.sigma_max, "ge",
                        extra={"kappa": kappa, "beta_star": bs,
                               "divergence": kl}),
            _root_claim("phi_lower_iid", beta, phi, half,
                        c * ens.sigma_max / 2.0, "ge",
                        extra={"divergence": half}),
        ]
    return tuple(reports)


def max_bounds(ens: IndexedEnsemble, n: int, seed: int,
               c: float = SUDAKOV_C) -> tuple[BoundReport, BoundReport]:
    """The two zero-temperature baselines around the expected maximum.

    Upper: E max <= sqrt(2 sigma^2 log m).  Lower: E max >= c a sqrt(log m).
    Both right-hand sides are closed-form, so their standard error is zero.
    The reports carry beta = inf (these are the beta -> infinity limits).
    """
    c = _check_c(c)
    est = mc_estimate(ens, gibbs.EXPECTED_MAX, 0.0, n, seed)
    log_m = math.log(ens.size)
    upper = _assemble("max_upper", math.inf, _est(est),
                      (math.sqrt(2.0) * ens.sigma_max * math.sqrt(log_m), 0.0),
                      "le")
    lower = _assemble("max_lower", math.inf, _est(est),
                      (c * ens.min_separation * math.sqrt(log_m), 0.0), "ge")
    return upper, lower


def soft_super_sudakov(ens: IndexedEnsemble, beta, n: int, seed: int,
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
    beta = gibbs._check_beta(beta, positive=True)
    r = (ens.sigma_max if scale is None
         else _check_number("invalid-parameter: scale", scale))
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"invalid-parameter: scale must be positive, got {scale}")
    full = mc_estimate(ens, gibbs.soft_max_observable(range(ens.size)), beta,
                       n, seed)
    return _sudakov_claim(ens, beta, r, n, seed, full)


def _sudakov_claim(ens, beta, r, n, seed, full) -> BoundReport:
    """soft_super_sudakov's report at the checked beta and scale r, given
    the estimate full of the softmax over every coordinate."""
    packing = greedy_packing(ens, 4.0 * r)
    s_pos = ens.indices_of(packing)
    balls = _ball_mask(ens, s_pos, r)
    ball_positions = [np.flatnonzero(row) for row in balls]
    union = np.flatnonzero(balls.any(axis=0))

    # Both batches are finite by construction, so they go to the kernel
    # unscanned.
    x = realization_batch(ens, n, seed)
    lhs = _mean_se(gibbs._soft_max(x, beta, union))

    # Ball average first: shares the batch with the lhs sample-for-sample.
    ball_vals = np.mean([gibbs._soft_max(x, beta, bp) for bp in ball_positions],
                        axis=0)
    ball_mean, ball_se = _mean_se(ball_vals)

    if len(s_pos) == 1:
        # softmax of a single standard normal is that normal; its mean is 0.
        aux_mean, aux_se = 0.0, 0.0
    else:
        aux_seed = (int(seed) ^ _AUX_SEED_SALT) & 0x7FFFFFFFFFFFFFFF
        g = standard_normal_batch(len(s_pos), n, aux_seed)
        aux_mean, aux_se = _mean_se(gibbs._soft_max(
            g, gibbs._check_beta(beta * r, positive=True), np.arange(len(s_pos))))

    rhs = (r * aux_mean + ball_mean, math.hypot(r * aux_se, ball_se))
    return _assemble("soft_super_sudakov", beta, lhs, rhs, "ge",
                     extra={"packing": tuple(packing), "scale": r,
                            "full_softmax": _est(full),
                            "union_size": int(union.size)})


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
    top = gibbs._row_max(x)
    gap = math.log(m) / beta
    slacks = (phi - top, top + gap - phi, top - avg, avg - (top - gap))
    ok = bool(all(np.all(np.asarray(s) >= -SLACK_TOL) for s in slacks))
    return SandwichDiagnostics(*(gibbs._scalar(s) for s in slacks), ok=ok)
