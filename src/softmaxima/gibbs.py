"""Softmax functionals of a fixed realization.

Given a vector x in R^m and inverse temperature beta >= 0, the Gibbs measure

    nu_beta(i) = exp(beta x_i) / Z(beta),   Z(beta) = sum_j exp(beta x_j)

interpolates between the uniform measure (beta = 0) and the point mass at the
argmax (beta -> infinity).  Everything here is a deterministic function of
(x, beta) routed through one max-shifted primitive, taken once per beta a
kernel needs, so nothing overflows even when beta * max|x| reaches 1e6.
Every exp of log-weights skips the exponents below -746, whose exp is an
exact 0, when those are most of them; the result is the same bit for bit.

beta = 0 is a first-class value (the uniform measure), not an error; only the
softmax itself, which carries a 1/beta factor, requires beta > 0.

All functions broadcast over leading batch axes: x may have shape (..., m)
and per-realization results drop the last axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Switch renyi_to_uniform to its alpha -> 1 limit (the KL divergence) inside
# this window; the generic formula is 0/0 there.
RENYI_KL_WINDOW = 1e-8
# exp(z) is an exact 0 for every double z below about -745.13, so no exp is
# taken of an exponent below this floor.
_EXP_FLOOR = -746.0
# Rows up to this wide take their max as np.maximum folded over the columns,
# wider rows as np.max(axis=-1).  With numpy 2.4 on one thread, np.max on
# 2e5 x 8 takes 15.9 ms against the fold's 4.8; from 9 columns np.max is
# vectorised, about twice as fast, and a tie between 0.0 and -0.0 can come
# out with the other sign than the fold's, so the fold stops at 8.
_ROW_MAX_FOLD_WIDTH = 8


def _check_beta(beta, positive=False):
    beta = float(beta)
    if positive:
        if not np.isfinite(beta) or beta <= 0:
            raise ValueError(
                f"invalid-parameter: beta must be positive and finite, got {beta}")
    elif not np.isfinite(beta) or beta < 0:
        raise ValueError(
            f"invalid-parameter: beta must be nonnegative and finite, got {beta}")
    return beta


def _scalar(out):
    """A 0-d result as a Python float; batched results pass through."""
    return float(out) if np.ndim(out) == 0 else out


def _row_max(x):
    """np.max(x, axis=-1), bit for bit, by the faster form for the row width."""
    if x.shape[-1] > _ROW_MAX_FOLD_WIDTH:
        return np.max(x, axis=-1)
    out = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(out, x[..., j], out=out)
    return out[()]


def _shifted(x, beta):
    """max x and the shifted exponents beta * (x - max x).

    Shifts by max x before scaling by beta, so no exponent is positive.  A
    shifted exponent that overflows is -inf, whose exp is an exact 0, so that
    overflow is not reported.
    """
    x_max = _row_max(x)
    with np.errstate(over="ignore"):
        z = x - x_max[..., None]
        z *= beta
    return x_max, z


def _exp(z, out=None):
    """np.exp(z, out=out) of a contiguous z, bit for bit.

    When most entries lie below _EXP_FLOOR (judged on about 1024 spread
    through z), exp is taken of the others only and scattered into a zeroed
    array.  out may be z itself.
    """
    sample = z.reshape(-1)[::max(1, z.size // 1024)]
    if 2 * np.count_nonzero(sample >= _EXP_FLOOR) > sample.size:
        return np.exp(z, out=out)
    live = z >= _EXP_FLOOR
    vals = z[live]
    np.exp(vals, out=vals)
    e = np.empty_like(z) if out is None else out
    e.fill(0.0)
    e[live] = vals
    return e


def _lse(x, beta, log_weights=False):
    """Lambda(beta) = log sum_i exp(beta x_i) over the last axis.

    With log_weights=True also returns beta * x - Lambda(beta), formed from
    the shifted exponents, so it is finite for every finite beta.
    """
    x_max, z = _shifted(x, beta)
    log_s = np.log(np.sum(_exp(z, out=None if log_weights else z), axis=-1))
    log_z = beta * x_max + log_s
    if not log_weights:
        return log_z
    z -= log_s[..., None]
    return log_z, z


def _check_x(x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 1 or x.shape[-1] < 1:
        raise ValueError("invalid-input: realization must have at least one coordinate")
    if not np.isfinite(x).all():
        raise ValueError("invalid-input: realization contains non-finite values")
    return x


def log_partition(x, beta) -> np.ndarray | float:
    """Lambda(beta) = log sum_i exp(beta x_i), computed max-shifted.

    Lambda(0) = log m exactly.
    """
    beta = _check_beta(beta)
    x = _check_x(x)
    return _scalar(_lse(x, beta))


@dataclass(frozen=True)
class GibbsState:
    """The measure nu_beta of one (or a batch of) realization(s).

    weights sum to 1 along the last axis; exp(log_weights) equals weights by
    construction; beta = 0 gives exactly uniform weights.
    """
    beta: float
    log_weights: np.ndarray   # beta * x - Lambda(beta), shape (..., m)
    weights: np.ndarray       # nu_beta, shape (..., m)
    log_z: np.ndarray | float  # Lambda(beta)

    @property
    def size(self) -> int:
        return self.weights.shape[-1]


def gibbs_measure(x, beta) -> GibbsState:
    """Gibbs state at inverse temperature beta; beta = 0 gives the uniform state."""
    beta = _check_beta(beta)
    x = _check_x(x)
    if beta == 0.0:
        m = x.shape[-1]
        return GibbsState(beta=beta,
                          log_weights=np.full(x.shape, -np.log(m)),
                          weights=np.full(x.shape, 1.0 / m),
                          log_z=_scalar(np.full(x.shape[:-1], np.log(m))))
    log_z, log_w = _lse(x, beta, log_weights=True)
    return GibbsState(beta=beta, log_weights=log_w, weights=_exp(log_w),
                      log_z=_scalar(log_z))


def gibbs_average(state: GibbsState, x) -> np.ndarray | float:
    """<X>_beta = sum_i nu_beta(i) x_i for the state built from x.

    Satisfies max x - log m / beta <= result <= max x for beta > 0, and
    returns the arithmetic mean at beta = 0.
    """
    x = _check_x(x)
    if state.weights.shape[-1] != x.shape[-1]:
        raise ValueError(
            f"invalid-input: state over {state.weights.shape[-1]} coordinates "
            f"cannot average a realization with {x.shape[-1]}")
    return _scalar(np.sum(state.weights * x, axis=-1))


def _tilted_mean(x, beta):
    """(Lambda(beta), <X>_beta) from one shifted pass (batched internal helper).

    Exponentiates the log-weights and multiplies by x in place.  Lambda may
    overflow to inf at extreme beta, silently, while <X>_beta stays exact.
    """
    with np.errstate(over="ignore"):
        log_z, w = _lse(x, beta, log_weights=True)
    return log_z, np.sum(np.multiply(_exp(w, out=w), x, out=w), axis=-1)


def free_energy(x, beta) -> np.ndarray | float:
    """(Lambda(beta) - log m) / beta, the normalized smoothed maximum.

    The beta -> 0 limit is 0 (Lambda(0) = log m and Lambda'(0) is the mean
    of a centered vector only in expectation); beta = 0 returns 0 exactly.
    """
    beta = _check_beta(beta)
    x = _check_x(x)
    if beta == 0.0:
        return _scalar(np.zeros(x.shape[:-1]))
    return _scalar((_lse(x, beta) - np.log(x.shape[-1])) / beta)


def soft_max(x, beta, subset=None) -> np.ndarray | float:
    """(1/beta) log sum_{i in subset} exp(beta x_i) over coordinate positions.

    subset defaults to all coordinates.  Monotone under subset inclusion and
    sandwiched between max x and max x + log|subset| / beta on the subset.
    A singleton subset returns that coordinate exactly.
    """
    beta = _check_beta(beta, positive=True)
    x = _check_x(x)
    if subset is None:
        subset = range(x.shape[-1])
    idx = _check_subset(subset, x.shape[-1])
    sub = x[..., idx]
    if idx.size == 1:
        return _scalar(sub[..., 0])
    return _scalar(_lse(sub, beta) / beta)


def _check_subset(subset, m):
    idx = np.asarray(subset, dtype=np.intp).reshape(-1)
    if idx.size == 0:
        raise ValueError("invalid-input: subset must be nonempty")
    if idx.min() < 0 or idx.max() >= m:
        raise ValueError(
            f"invalid-input: subset index out of range for {m} coordinates")
    if np.unique(idx).size != idx.size:
        raise ValueError("invalid-input: subset repeats a coordinate")
    return idx


def participation_ratio(x, beta) -> np.ndarray | float:
    """sum_i nu_beta(i)^2 as sum e^2 / (sum e)^2 over one shifted exp e.

    The inverse of the effective number of coordinates carrying Gibbs mass;
    ranges over [1/m, 1] and is nondecreasing in beta.  It equals
    exp(Lambda(2 beta) - 2 Lambda(beta)), as the tests check, but that form
    cancels, and 2 beta overflows near the largest double.
    """
    beta = _check_beta(beta)
    x = _check_x(x)
    _, e = _shifted(x, beta)
    s = np.sum(_exp(e, out=e), axis=-1)
    e *= e
    return _scalar(np.sum(e, axis=-1) / (s * s))


def participation_derivative(x, beta) -> np.ndarray | float:
    """d/dbeta of participation_ratio(x, beta).

    Equals 2 * sum nu^2 * (<X>_{2 beta} - <X>_beta); nonnegative up to
    roundoff (>= -1e-12) because the tilted mean is nondecreasing in beta.
    """
    beta = _check_beta(beta)
    x = _check_x(x)
    pr = participation_ratio(x, beta)
    return _scalar(2.0 * pr * (_tilted_mean(x, 2.0 * beta)[1] - _tilted_mean(x, beta)[1]))


def kl_to_uniform(x, beta) -> np.ndarray | float:
    """KL(nu_beta || uniform) = log m + beta <X>_beta - Lambda(beta).

    Nonnegative, at most log m, increasing in beta, and equal to
    log m - H(nu_beta); that identity is checked in the test suite via the
    weights-based entropy route.
    """
    beta = _check_beta(beta)
    x = _check_x(x)
    log_z, mean = _tilted_mean(x, beta)
    return _scalar(np.log(x.shape[-1]) + beta * mean - log_z)


def renyi_to_uniform(x, beta, alpha) -> np.ndarray | float:
    """Renyi divergence D_alpha(nu_beta || uniform) for alpha > 0.

    D_alpha = log m + (Lambda(alpha beta) - alpha Lambda(beta)) / (alpha - 1),
    nondecreasing in alpha.  Within RENYI_KL_WINDOW of alpha = 1 the KL limit
    is returned instead of the unstable quotient.
    """
    beta = _check_beta(beta)
    if not np.isfinite(alpha) or alpha <= 0:
        raise ValueError(
            f"invalid-parameter: alpha must be positive and finite, got {alpha}")
    alpha = float(alpha)
    if abs(alpha - 1.0) < RENYI_KL_WINDOW:
        return kl_to_uniform(x, beta)
    x = _check_x(x)
    m = x.shape[-1]
    return _scalar(np.log(m) + (_lse(x, alpha * beta) - alpha * _lse(x, beta))
                   / (alpha - 1.0))


def renyi_half_via_participation(x, beta) -> np.ndarray | float:
    """D_{1/2}(nu_beta || uniform) computed as log m + log pr(x, beta / 2).

    Algebraically identical to renyi_to_uniform(x, beta, 0.5); the routes
    share only the max shift (_shifted), so their agreement is a real
    consistency check.
    """
    beta = _check_beta(beta)
    x = _check_x(x)
    m = x.shape[-1]
    return _scalar(np.log(m) + np.log(participation_ratio(x, beta / 2.0)))


def shannon_entropy(state: GibbsState) -> np.ndarray | float:
    """H(nu_beta) = -sum_i w_i log w_i, with 0 log 0 := 0.

    Computed from the weights alone (never from the log-partition), so it can
    sit on the opposite side of identity checks against kl_to_uniform.
    Value in [0, log m].
    """
    w = np.asarray(state.weights, dtype=np.float64)
    log_w = np.log(w, out=np.zeros_like(w), where=w > 0.0)
    return _scalar(-np.sum(w * log_w, axis=-1))


# -- observables -------------------------------------------------------------
#
# A named per-realization functional, evaluated pointwise by the Monte Carlo
# and quadrature drivers.  Kept as data (kind + parameters) rather than
# closures so observables can be spelled in configs and CSV rows.

def _rem_pressure_value(obs, x, beta):
    # Pressure of one disorder sample: Lambda(beta) / N with N = log2(m);
    # only defined for power-of-two label sets.
    x = _check_x(x)
    n_spins = int(round(np.log2(x.shape[-1])))
    if 2 ** n_spins != x.shape[-1]:
        raise ValueError(
            f"invalid-size: rem_pressure needs 2^N coordinates, "
            f"got {x.shape[-1]}")
    return log_partition(x, beta) / n_spins


def _replica_gibbs_value(obs, x, beta):
    raise ValueError(
        "invalid-input: replica_gibbs needs ensemble geometry; "
        "evaluate it through the estimation driver")


# kind -> value of (observable, x, beta).  The lambdas look the public
# functions up when called, so a wrapper patched into this module sees them.
_EVALUATORS = {
    "gibbs_average": lambda obs, x, beta: _scalar(
        _tilted_mean(beta=_check_beta(beta), x=_check_x(x))[1]),
    "free_energy": lambda obs, x, beta: free_energy(x, beta),
    "soft_max": lambda obs, x, beta: soft_max(x, beta, obs.subset),
    "participation_ratio": lambda obs, x, beta: participation_ratio(x, beta),
    "kl_to_uniform": lambda obs, x, beta: kl_to_uniform(x, beta),
    "renyi_to_uniform": lambda obs, x, beta: renyi_to_uniform(x, beta, obs.alpha),
    "renyi_half": lambda obs, x, beta: renyi_half_via_participation(x, beta),
    "shannon_entropy": lambda obs, x, beta: shannon_entropy(gibbs_measure(x, beta)),
    "expected_max": lambda obs, x, beta: _scalar(_row_max(_check_x(x))),
    "replica_gibbs": _replica_gibbs_value,
    "rem_pressure": _rem_pressure_value,
}
_KINDS = tuple(_EVALUATORS)


@dataclass(frozen=True)
class Observable:
    """Named per-realization functional, evaluated at the driver's beta.

    `replica_gibbs` needs the ensemble's distance matrix, so it is evaluated
    by the estimation driver rather than by `evaluate` here.
    """
    kind: str
    alpha: float | None = None
    subset: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(
                f"invalid-parameter: unknown observable kind {self.kind!r}; "
                f"expected one of {_KINDS}")
        if self.kind == "renyi_to_uniform":
            if self.alpha is None or not np.isfinite(self.alpha) or self.alpha <= 0:
                raise ValueError(
                    f"invalid-parameter: renyi_to_uniform needs alpha > 0, "
                    f"got {self.alpha}")
        if self.kind == "soft_max" and (self.subset is None or len(self.subset) == 0):
            raise ValueError("invalid-input: soft_max needs a nonempty subset")
        if self.subset is not None:
            object.__setattr__(self, "subset", tuple(int(i) for i in self.subset))

    def evaluate(self, x, beta):
        """Value on a realization batch of shape (..., m); drops the last axis."""
        return _EVALUATORS[self.kind](self, x, beta)

    @property
    def name(self) -> str:
        if self.kind == "renyi_to_uniform":
            return f"renyi({self.alpha:g})"
        if self.kind == "soft_max":
            return "soft_max(" + ",".join(str(i) for i in self.subset) + ")"
        return self.kind


GIBBS_AVERAGE = Observable("gibbs_average")
FREE_ENERGY = Observable("free_energy")
PARTICIPATION_RATIO = Observable("participation_ratio")
KL_TO_UNIFORM = Observable("kl_to_uniform")
RENYI_HALF = Observable("renyi_half")
SHANNON_ENTROPY = Observable("shannon_entropy")
EXPECTED_MAX = Observable("expected_max")
REPLICA_GIBBS = Observable("replica_gibbs")
REM_PRESSURE = Observable("rem_pressure")


def renyi_observable(alpha: float) -> Observable:
    return Observable("renyi_to_uniform", alpha=float(alpha))


def soft_max_observable(subset) -> Observable:
    return Observable("soft_max", subset=tuple(subset))


def parse_observable(text: str) -> Observable:
    """Parse names like 'gibbs_average', 'renyi(0.5)', or 'soft_max(0,2)'."""
    text = text.strip()
    if text.startswith("renyi(") and text.endswith(")"):
        try:
            alpha = float(text[6:-1])
        except ValueError:
            raise ValueError(
                f"invalid-input: malformed observable {text!r}") from None
        return renyi_observable(alpha)
    if text.startswith("soft_max(") and text.endswith(")"):
        try:
            subset = tuple(int(p) for p in text[9:-1].split(","))
        except ValueError:
            raise ValueError(
                f"invalid-input: malformed observable {text!r}") from None
        return soft_max_observable(subset)
    if text in _KINDS:
        return Observable(text)
    raise ValueError(
        f"invalid-input: unknown observable {text!r}; expected one of "
        f"{list(_KINDS)}, renyi(alpha), or soft_max(i,j,...)")
