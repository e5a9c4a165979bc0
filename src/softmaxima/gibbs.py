"""Softmax functionals of a fixed realization.

Given a vector x in R^m and inverse temperature beta >= 0, the Gibbs measure

    nu_beta(i) = exp(beta x_i) / Z(beta),   Z(beta) = sum_j exp(beta x_j)

interpolates between the uniform measure (beta = 0) and the point mass at the
argmax (beta -> infinity).  Everything here is a deterministic function of
(x, beta) routed through one max-shifted primitive, so nothing overflows
even when beta * max|x| reaches 1e6.  One pass (_observe) forms the shift,
its exp and the exp's row sum once per (batch, beta) and takes from them every
value a caller wants at that beta, each by its own formula.  _evaluate, the
one router of observable kinds, groups (observable, beta) pairs into passes;
Observable.evaluate and the kernels below are its one-pair cases.  Every exp
of log-weights skips the exponents below -746, whose exp is an exact 0, when
those are most of them; the result is the same bit for bit.

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
# Rows up to this wide take their sum as np.add folded over the columns,
# wider rows as np.sum(axis=-1).  Below 8 columns numpy adds a row to 0.0
# left to right, as the fold does, and on 2^18 x 3 np.sum takes 6.0 ms
# against the fold's 1.1; from 8 columns its pairwise sum adds in another
# order.
_ROW_SUM_FOLD_WIDTH = 7


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


def _fold(ufunc, x, start):
    """ufunc folded over the columns of x, left to right, from start."""
    out = ufunc(start, x[..., 0], out=np.empty(x.shape[:-1]))
    for j in range(1, x.shape[-1]):
        ufunc(out, x[..., j], out=out)
    return out[()]


def _row_max(x):
    """np.max(x, axis=-1), bit for bit, by the faster form for the row width."""
    if x.shape[-1] > _ROW_MAX_FOLD_WIDTH:
        return np.max(x, axis=-1)
    return _fold(np.maximum, x, -np.inf)


def _row_sum(x):
    """np.sum(x, axis=-1), bit for bit, by the faster form for the row width.

    numpy adds each row to 0.0, so a row of -0.0 sums to 0.0; the fold
    starts from 0.0 too.
    """
    if x.shape[-1] > _ROW_SUM_FOLD_WIDTH:
        return np.sum(x, axis=-1)
    return _fold(np.add, x, 0.0)


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


# Keys of the values _observe takes: (kind, alpha) of an observable (see
# _pass_key), or one of these two for Lambda(beta) and the log-weights.
_LOG_PARTITION = ("log_partition", None)
_LOG_WEIGHTS = ("log_weights", None)


def _pass_key(obs, beta):
    """(beta of obs's pass, obs's key in _observe) for obs at beta, or None
    for a kind that runs its own kernel."""
    if obs.kind in ("soft_max", "expected_max"):
        return None
    if obs.kind == "renyi_half":
        # D_1/2 at beta is log m + log pr of the pass at beta / 2.
        return beta / 2.0, (obs.kind, None)
    if obs.kind == "renyi_to_uniform":
        if abs(obs.alpha - 1.0) < RENYI_KL_WINDOW:
            return beta, ("kl_to_uniform", None)
        return beta, (obs.kind, float(obs.alpha))
    return beta, (obs.kind, None)


def _evaluate(x, pairs, ens=None):
    """Yield (i, values of pairs[i] on the finite batch x), each as it is formed.

    x and the betas are checked by the caller; ens gives replica_gibbs its
    geometry.  Pairs whose passes (_pass_key) fall at one beta share one
    _observe pass (-0.0 joins 0.0, where every pass value is the same);
    soft_max and expected_max run their own kernels first.  No value
    depends on the other pairs.
    """
    passes = {}  # beta of the pass -> (pair indices, pass keys)
    for i, (obs, beta) in enumerate(pairs):
        if obs.kind == "replica_gibbs" and ens is None:
            raise ValueError(
                "invalid-input: replica_gibbs needs ensemble geometry; "
                "evaluate it through the estimation driver")
        routed = _pass_key(obs, beta)
        if routed is not None:
            index, keys = passes.setdefault(routed[0], ([], []))
            index.append(i)
            keys.append(routed[1])
        elif obs.kind == "expected_max":
            yield i, _row_max(x)
        else:
            yield i, _soft_max(x, _check_beta(beta, positive=True), obs.subset)
    for beta, (index, keys) in passes.items():
        for j, values in _observe(x, beta, keys, ens):
            yield index[j], values
            del values  # gone before the pass forms the next value


def _observe(x, beta, keys, ens=None):
    """Yield (i, value of keys[i]) on the batch x at beta from one shifted pass.

    x and beta are checked by the caller; ens, read for replica_gibbs only,
    gives the geometry.  The shift z = beta (x - max x), its exp e and the
    row sum s of e are formed once, and each value from them by its kernel's
    own formula in its own order, so the values do not depend on which
    others are taken.  Each is yielded as soon as it is formed, so a caller
    can reduce it before the next is formed.  At most two batch-sized arrays
    are alive at a time (three while shannon_entropy is formed), and one
    when neither Gibbs weights nor log-weights are wanted.  rem_pressure,
    Lambda / N for m = 2^N, refuses other m first.
    """
    def emit(key, values):
        return ((i, values) for i, k in enumerate(keys) if k == key)

    kinds = {kind for kind, _ in keys}
    m = x.shape[-1]
    if "rem_pressure" in kinds and (m < 2 or m & (m - 1)):
        raise ValueError(
            f"invalid-size: rem_pressure needs 2^N coordinates, N >= 1, got {m}")
    if beta == 0.0:
        # The free energy's 1/beta and the replica statistic's beta factor
        # are taken at their limits.
        for kind in ("free_energy", "replica_gibbs"):
            if kind in kinds:
                kinds.remove(kind)
                yield from emit((kind, None), np.zeros(x.shape[:-1]))
    if not kinds:
        return
    iid_replica = "replica_gibbs" in kinds and ens.is_iid
    want_pr = bool(kinds & {"participation_ratio", "renyi_half"}) or iid_replica
    want_mean = bool(kinds & {"gibbs_average", "kl_to_uniform"})
    want_w = (want_mean or "shannon_entropy" in kinds
              or ("replica_gibbs" in kinds and not iid_replica))
    keep_z = want_w or "log_weights" in kinds
    log_m = np.log(m)
    x_max, z = _shifted(x, beta)
    # The Renyi sums run where z alone is alive: before e when e takes z's
    # buffer, else once e is dropped.
    if not keep_z:
        log_s_alpha = _renyi_sums(x, x_max, z, beta, keys)
    # Every array is dropped once nothing reads it any more, so beside z and
    # e only a few row vectors are alive.
    e = _exp(z, out=None if keep_z else z)
    if not keep_z:
        z = None  # e is z's buffer now
    s = _row_sum(e)
    if want_pr:
        e *= e
        pr = _row_sum(e)
    del e
    if keep_z:
        log_s_alpha = _renyi_sums(x, x_max, z, beta, keys)
    log_s = np.log(s)
    if want_pr:
        pr /= s * s  # once e is dropped, so s * s never meets z and e
        yield from emit(("participation_ratio", None), pr)
        if "renyi_half" in kinds:
            yield from emit(("renyi_half", None), log_m + np.log(pr))
        if iid_replica:
            # Scalar covariance: the double sum collapses exactly.
            yield from emit(("replica_gibbs", None),
                            beta * ens.iid_variance * (1.0 - pr))
        del pr
    del s
    for alpha in list(log_s_alpha):
        yield from emit(("renyi_to_uniform", alpha), log_m + (
            log_s_alpha.pop(alpha) - alpha * log_s) / (alpha - 1.0))
    if kinds & {"log_partition", "free_energy", "kl_to_uniform", "rem_pressure"}:
        # Beside the Gibbs weights Lambda may overflow to inf silently, while
        # <X>_beta stays exact.
        with np.errstate(over="ignore" if want_w else None):
            log_z = beta * x_max + log_s
        yield from emit(_LOG_PARTITION, log_z)
        if "free_energy" in kinds:
            yield from emit(("free_energy", None), (log_z - log_m) / beta)
        if "rem_pressure" in kinds:
            yield from emit(("rem_pressure", None), log_z / (m.bit_length() - 1))
    del x_max
    if not keep_z:
        return
    z -= log_s[..., None]
    del log_s
    yield from emit(_LOG_WEIGHTS, z)
    if not want_w:
        return
    w = _exp(z, out=None if "log_weights" in kinds else z)
    if "replica_gibbs" in kinds and not iid_replica:
        yield from emit(("replica_gibbs", None), 0.5 * beta * np.einsum(
            "ni,ij,nj->n", w, ens.squared_distances, w))
    if "shannon_entropy" in kinds:
        # At beta = 0 from exactly uniform weights, as gibbs_measure has them.
        yield from emit(("shannon_entropy", None), _entropy(
            np.broadcast_to(1.0 / m, x.shape) if beta == 0.0 else w))
    if not want_mean:
        return
    mean = _row_sum(np.multiply(w, x, out=w))
    yield from emit(("gibbs_average", None), mean)
    if "kl_to_uniform" in kinds:
        # KL(nu_beta || uniform) = log m + beta <X>_beta - Lambda(beta).
        yield from emit(("kl_to_uniform", None), log_m + beta * mean - log_z)


def _renyi_sums(x, x_max, z, beta, keys):
    """{alpha: log s(alpha z)} for the Renyi orders in keys, in z's buffer,
    forming z = beta (x - x_max) again after each as _shifted forms it."""
    out = {}
    with np.errstate(over="ignore"):
        for alpha in dict.fromkeys([a for k, a in keys if k == "renyi_to_uniform"]):
            z *= alpha
            out[alpha] = np.log(_row_sum(_exp(z, out=z)))
            np.subtract(x, x_max[..., None], out=z)
            z *= beta
    return out


def _lse(x, beta, log_weights=False):
    """Lambda(beta) = log sum_i exp(beta x_i) over the last axis.

    With log_weights=True also returns beta * x - Lambda(beta), formed from
    the shifted exponents, so it is finite for every finite beta.
    """
    if not log_weights:
        return next(_observe(x, beta, [_LOG_PARTITION]))[1]
    values = dict(_observe(x, beta, [_LOG_PARTITION, _LOG_WEIGHTS]))
    return values[0], values[1]


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
    return _scalar(_row_sum(state.weights * x))


def free_energy(x, beta) -> np.ndarray | float:
    """(Lambda(beta) - log m) / beta, the normalized smoothed maximum.

    The beta -> 0 limit is 0 (Lambda(0) = log m and Lambda'(0) is the mean
    of a centered vector only in expectation); beta = 0 returns 0 exactly.
    """
    return FREE_ENERGY.evaluate(x, beta)


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
    return _scalar(_soft_max(x, beta, subset))


def _soft_max(x, beta, subset):
    """soft_max of the finite x at the positive beta, subset not yet checked."""
    m = x.shape[-1]
    idx = _check_subset(subset)
    if idx.min() < 0 or idx.max() >= m:
        raise ValueError(
            f"invalid-input: subset index out of range for {m} coordinates")
    if np.unique(idx).size != idx.size:
        raise ValueError("invalid-input: subset repeats a coordinate")
    sub = x[..., idx]
    if idx.size == 1:
        return sub[..., 0]
    return _lse(sub, beta) / beta


def _check_subset(subset):
    """The positions of a nonempty subset of integers, as an intp array."""
    entries = np.asarray(subset, dtype=object).reshape(-1)
    if entries.size == 0:
        raise ValueError("invalid-input: subset must be nonempty")
    for i in entries:
        if type(i) is bool or not isinstance(i, (int, np.integer)):
            raise ValueError(
                f"invalid-input: subset positions must be integers, got {i!r}")
    return entries.astype(np.intp)


def participation_ratio(x, beta) -> np.ndarray | float:
    """sum_i nu_beta(i)^2 as sum e^2 / (sum e)^2 over one shifted exp e.

    The inverse of the effective number of coordinates carrying Gibbs mass;
    ranges over [1/m, 1] and is nondecreasing in beta.  It equals
    exp(Lambda(2 beta) - 2 Lambda(beta)), as the tests check, but that form
    cancels, and 2 beta overflows near the largest double.
    """
    return PARTICIPATION_RATIO.evaluate(x, beta)


def participation_derivative(x, beta) -> np.ndarray | float:
    """d/dbeta of participation_ratio(x, beta).

    Equals 2 * sum nu^2 * (<X>_{2 beta} - <X>_beta); nonnegative up to
    roundoff (>= -1e-12) because the tilted mean is nondecreasing in beta.
    A beta for which 2 beta overflows is refused.
    """
    beta = _check_beta(beta)
    if not np.isfinite(2.0 * beta):
        raise ValueError(f"invalid-parameter: 2 beta overflows at beta = {beta}")
    values = dict(_evaluate(_check_x(x), [
        (PARTICIPATION_RATIO, beta), (GIBBS_AVERAGE, beta),
        (GIBBS_AVERAGE, 2.0 * beta)]))
    return _scalar(2.0 * values[0] * (values[2] - values[1]))


def kl_to_uniform(x, beta) -> np.ndarray | float:
    """KL(nu_beta || uniform) = log m + beta <X>_beta - Lambda(beta).

    Nonnegative, at most log m, increasing in beta, and equal to
    log m - H(nu_beta); that identity is checked in the test suite via the
    weights-based entropy route.
    """
    return KL_TO_UNIFORM.evaluate(x, beta)


def renyi_to_uniform(x, beta, alpha) -> np.ndarray | float:
    """Renyi divergence D_alpha(nu_beta || uniform) for alpha > 0.

    D_alpha = log m + (Lambda(alpha beta) - alpha Lambda(beta)) / (alpha - 1),
    nondecreasing in alpha.  Both log-partitions are taken on the one shift z
    = beta (x - max x), as log m + (log s(alpha z) - alpha log s(z)) / (alpha
    - 1) with s the row sum of exp, so the beta max x terms cancel in the
    algebra rather than in floating point.  Within RENYI_KL_WINDOW of alpha =
    1 the KL limit is returned instead of the unstable quotient.
    """
    return renyi_observable(alpha).evaluate(x, beta)


def renyi_half_via_participation(x, beta) -> np.ndarray | float:
    """D_{1/2}(nu_beta || uniform) computed as log m + log pr(x, beta / 2).

    Algebraically identical to renyi_to_uniform(x, beta, 0.5), but taken
    from the participation ratio of the shifted pass at beta / 2, where the
    generic formula reads two sums of the pass at beta: the routes share
    only the max shift (_shifted), so their agreement is a real consistency
    check.
    """
    return RENYI_HALF.evaluate(x, beta)


def shannon_entropy(state: GibbsState) -> np.ndarray | float:
    """H(nu_beta) = -sum_i w_i log w_i, with 0 log 0 := 0.

    Computed from the weights alone (never from the log-partition), so it can
    sit on the opposite side of identity checks against kl_to_uniform.
    Value in [0, log m].
    """
    return _scalar(_entropy(np.asarray(state.weights, dtype=np.float64)))


def _entropy(w):
    """-sum w log w over the last axis of the weights w, with 0 log 0 := 0."""
    w_log_w = np.log(w, out=np.zeros_like(w), where=w > 0.0)
    w_log_w *= w
    return -_row_sum(w_log_w)


# -- observables -------------------------------------------------------------
#
# A named per-realization functional, evaluated pointwise by the Monte Carlo
# and quadrature drivers.  Kept as data (kind + parameters) rather than
# closures so observables can be spelled in configs and CSV rows.

_KINDS = ("gibbs_average", "free_energy", "soft_max", "participation_ratio",
          "kl_to_uniform", "renyi_to_uniform", "renyi_half", "shannon_entropy",
          "expected_max", "replica_gibbs", "rem_pressure")


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
            object.__setattr__(self, "subset", tuple(
                int(i) for i in _check_subset(self.subset)))

    def evaluate(self, x, beta):
        """Value on a realization batch of shape (..., m); drops the last axis.

        The checked one-pair case of _evaluate.
        """
        beta = _check_beta(beta)
        return _scalar(next(_evaluate(_check_x(x), [(self, beta)]))[1])

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
