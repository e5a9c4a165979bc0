"""Softmax functionals of a fixed realization.

Given a vector x in R^m and inverse temperature beta >= 0, the Gibbs measure

    nu_beta(i) = exp(beta x_i) / Z(beta),   Z(beta) = sum_j exp(beta x_j)

interpolates between the uniform measure (beta = 0) and the point mass at the
argmax (beta -> infinity).  Everything here is a deterministic function of
(x, beta) routed through one max-shifted primitive, so nothing overflows
even when beta * max|x| reaches 1e6.  One pass (_pass) takes the exponents
z = beta (x - max x), their exp e and its row sum s once per (batch, beta),
and every value a caller wants at that beta from them, each by its own
formula; each Renyi order's exponents are alpha z, from the pass's z.  A
call (_observe) runs its passes over blocks of whole rows, at most
_BLOCK_ELEMENTS (512 KB) unless one row is wider: each block's max and shift
x - max x (_shift) are formed once for every beta of the call, so only one
block's shift and one pass's arrays are alive at a time on each thread, in
cache, beside one output per value.  The blocks run in contiguous ranges,
one per usable CPU (at most _THREADS), each on its own thread, and each
block writes only its own rows of the outputs; a row's values depend on
that row alone, so the bits are those of one pass over the whole batch at
any thread count.  _evaluate, the one router of observable kinds, groups
(observable, beta) pairs into passes, and passes into calls while their
outputs fit in a quarter of the batch; Observable.evaluate and the kernels
below are its one-pair cases.

KL(nu_beta || uniform) = log m + beta <X> - Lambda(beta) is taken with the
shift out of both terms, as log m + sum e z / s - log s: each term lies in
[-log m, log m], so nothing large cancels and no second exp is taken (the
accurate log-sum-exp of Blanchard, Higham & Higham, IMA J. Numer. Anal.
41, 2021).  The free energy and the softmax are (Lambda - c) / beta, and
x_max + (log s - c) / beta, about max x, where Lambda overflows.  Every exp
of log-weights skips the exponents below -746, whose exp is an exact 0, when
those are most of them; the result is the same bit for bit.  The
participation probes of one threshold search (_ParticipationProbes) keep
those live entries once, as int32 positions and shifts, at most 1/16 of
each row block (a block over that cap is refused before anything is kept,
and its probe takes the dense pass); every probe at or above the build's
beta then takes exp of those only, with the dense row sums of a pass, so its
values are those of participation_ratio bit for bit.  Row reductions
give numpy's own bits by the faster form for the row width: a fold over the
columns up to 7 wide, so a column-major batch is read in contiguous columns,
and at exactly 8 wide numpy's pairwise tree, built from strided-slice ufuncs
over blocks of rows.  No value depends on the batch's layout.

beta = 0 is a first-class value (the uniform measure), not an error; only the
softmax itself, which carries a 1/beta factor, requires beta > 0.

All functions broadcast over leading batch axes: x may have shape (..., m)
and per-realization results drop the last axis.
"""

from __future__ import annotations

import contextvars
import os
import threading
from dataclasses import dataclass

import numpy as np

# Switch renyi_to_uniform to its alpha -> 1 limit (the KL divergence) inside
# this window; the generic formula is 0/0 there.
RENYI_KL_WINDOW = 1e-8
# exp(z) is an exact 0 for every double z below about -745.13, so no exp is
# taken of an exponent below this floor.
_EXP_FLOOR = -746.0
# Rows up to this wide take their max as np.maximum folded over the columns,
# rows of _ROW_TREE_WIDTH as its balanced tree, and wider rows as
# np.max(axis=-1).  With numpy 2.4 on one thread, np.max on 2e5 x 8 takes
# 18 ms against the fold's 5.5 and the tree's 1.5; from 9 columns np.max is
# vectorised, about twice as fast as the fold, and a tie between 0.0 and
# -0.0 can come out with the other sign than the fold's or the tree's.
_ROW_MAX_FOLD_WIDTH = 7
# Rows up to this wide take their sum as np.add folded over the columns,
# rows of _ROW_TREE_WIDTH as its balanced tree, and wider rows as
# np.sum(axis=-1).  Below 8 columns numpy adds a row to 0.0 left to right,
# as the fold does, and on 2^18 x 3 np.sum takes 6.0 ms against the fold's
# 1.1; at 8 columns its pairwise sum adds in the tree's order, and on 2e5 x 8
# the tree takes 1.5 ms against np.sum's 5.4.  A tree with a sequential
# remainder was slower than np.sum at every width from 9 to 15.
_ROW_SUM_FOLD_WIDTH = 7
# The one row width reduced as the tree ((x0 x1)(x2 x3))((x4 x5)(x6 x7)),
# numpy's pairwise order for 8 elements, in blocks of _BLOCK_ELEMENTS / 8
# rows, so no temporary is larger than one block.
_ROW_TREE_WIDTH = 8
# Float64 elements per block (512 KB) of a call's passes and of the row tree.
# Each block's z and e then stay in a 2 MB L2 cache; in-process medians on
# the four benchmark workloads were lowest at 2^16 among 2^13 to 2^18 and
# the whole batch.
_BLOCK_ELEMENTS = 1 << 16
# Threads that run a call's row blocks: one per usable CPU, at most 2, the
# most measured so far (on a 2-core host).  Each takes at least
# _MIN_THREAD_BLOCKS blocks, so a call of fewer than twice that runs on the
# caller's thread alone.  Starting and joining a thread takes about 0.1 ms;
# in-process medians of the four benchmark workloads at a minimum of 2, 4
# and 8 blocks differed by less than their quartile spreads, so the least
# is kept.
_THREADS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
_MIN_THREAD_BLOCKS = 2


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


def _tree(ufunc, x, start=None):
    """ufunc over each row of 8 in numpy's pairwise order, applied to start
    first when given: start o (((x0 o x1) o (x2 o x3)) o ((x4 o x5) o (x6 o x7))).

    Each level is one ufunc on strided column slices of a block of rows, so
    either layout is read in place.  np.maximum returns its right operand on
    a tie between 0.0 and -0.0, so a max tree picks the rightmost maximum,
    as the fold does.
    """
    lead = x.shape[:-1]
    if x.ndim != 2:
        x = x.reshape(-1, _ROW_TREE_WIDTH)
    n = x.shape[0]
    out = np.empty(n)
    step = _BLOCK_ELEMENTS // _ROW_TREE_WIDTH
    rows = min(n, step)
    half, quarter = np.empty((rows, 4)), np.empty((rows, 2))
    for a in range(0, n, step):
        b = x[a:a + step]
        h, q, o = half[:len(b)], quarter[:len(b)], out[a:a + len(b)]
        ufunc(b[:, 0::2], b[:, 1::2], out=h)
        ufunc(h[:, 0::2], h[:, 1::2], out=q)
        ufunc(q[:, 0], q[:, 1], out=o)
        if start is not None:
            ufunc(start, o, out=o)
    return out.reshape(lead)[()]


def _row_max(x):
    """np.max(x, axis=-1), bit for bit, by the faster form for the row width."""
    m = x.shape[-1]
    if m == _ROW_TREE_WIDTH:
        return _tree(np.maximum, x)
    if m > _ROW_MAX_FOLD_WIDTH:
        return np.max(x, axis=-1)
    return _fold(np.maximum, x, -np.inf)


def _row_sum(x):
    """np.sum(x, axis=-1) of x in C order, bit for bit, by the faster form for
    the row width.

    numpy adds each row to 0.0, so a row of -0.0 sums to 0.0; the fold and
    the tree start from 0.0 too.  Wide rows are summed in C order: on a
    column-major x, np.sum adds each row left to right instead of pairwise.
    """
    m = x.shape[-1]
    if m == _ROW_TREE_WIDTH:
        return _tree(np.add, x, 0.0)
    if m > _ROW_SUM_FOLD_WIDTH:
        return np.sum(np.ascontiguousarray(x), axis=-1)
    return _fold(np.add, x, 0.0)


def _shift(x):
    """max x and the shift d = x - max x, formed once per row block for every
    beta of a call.

    Each beta's exponents are then z = beta d, the same bits as beta (x - max
    x) formed anew, and no exponent is positive.  A shift or an exponent that
    overflows is -inf, whose exp is an exact 0, so that overflow is not
    reported.
    """
    x_max = _row_max(x)
    with np.errstate(over="ignore"):
        return x_max, x - x_max[..., None]


def _exp(z, out=None):
    """np.exp(z, out=out) of a contiguous z, bit for bit.

    When most entries lie below _EXP_FLOOR (judged on about 1024 spread
    through z in memory order, so z of either layout is not copied), exp is
    taken of the others only and scattered into a zeroed array.  Both forms
    give the same bits, so the sample decides the time only.  out may be z
    itself.
    """
    sample = z.ravel(order="K")[::max(1, z.size // 1024)]
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
# _pass_key), or one of these three for Lambda(beta), the log-weights and the
# softmax over every coordinate.
_LOG_PARTITION = ("log_partition", None)
_LOG_WEIGHTS = ("log_weights", None)
_SOFT_MAX = ("soft_max", None)


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
    """Yield (i, values of pairs[i] on the finite batch x), each as soon as
    its kernel or pass is done.

    x and the betas are checked by the caller; ens gives replica_gibbs its
    geometry.  Pairs whose passes (_pass_key) fall at one beta share one
    pass (-0.0 joins 0.0, where every pass value is the same); soft_max and
    expected_max run their own kernels first.  Consecutive passes share one
    _observe call, and so one shift per row block, while their outputs,
    which are held until its last block, fit in a quarter of the batch; a
    pass that does not fit starts the next call.  So a narrow batch with
    many values runs one pass per call, and a wide one every pass in one.
    No value depends on the other pairs or on the grouping.
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
    groups, held = [], 0
    for beta, (index, keys) in passes.items():
        size = sum(x.size if key == _LOG_WEIGHTS else x.size // x.shape[-1]
                   for key in set(keys))
        if groups and 4 * (held + size) <= x.size:
            groups[-1].append((beta, index, keys))
            held += size
        else:
            groups.append([(beta, index, keys)])
            held = size
    for group in groups:
        # The pass with the most values runs last, where it takes the
        # shift's buffer for its exponents.
        group.sort(key=lambda routed: len(set(routed[2])))
        for p, j, values in _observe(x, [(beta, keys) for beta, _, keys in group],
                                     ens):
            yield group[p][1][j], values
            del values  # gone before the next value is formed


def _observe(x, passes, ens=None):
    """Yield (p, i, value of keys[i]) on the batch x for each pass p =
    (beta, keys) of passes, in order.

    x and the betas are checked by the caller; ens, read for replica_gibbs
    only, gives the geometry.  The passes run over blocks of
    _BLOCK_ELEMENTS // m rows, so their arrays stay in cache: each block's
    max and shift (_shift) are formed once, and every pass (_pass) takes its
    exponents from them.  Each key's values fill one output array, made
    before the first block and yielded once the last block is done; the
    blocks run in contiguous ranges on up to _THREADS threads (_in_threads),
    and each block writes only its own rows.  Every value of a row depends
    on that row alone, so the bits are those of one pass over the whole
    batch at any thread count.  Beside those outputs (one n-vector per key,
    or n x m for log_weights) only one block's shift and one pass's arrays
    are alive at a time on each thread.  rem_pressure, Lambda / N for m =
    2^N, refuses other m first.
    """
    lead, m = x.shape[:-1], x.shape[-1]
    if (m < 2 or m & (m - 1)) and any(
            kind == "rem_pressure" for _, keys in passes for kind, _ in keys):
        raise ValueError(
            f"invalid-size: rem_pressure needs 2^N coordinates, N >= 1, got {m}")
    rows = x.reshape(-1, m)
    n = rows.shape[0]
    step = max(1, _BLOCK_ELEMENTS // m)
    out = [{key: np.empty((n, m) if key == _LOG_WEIGHTS else n) for key in keys}
           for _, keys in passes]

    def run(starts):
        for a in starts:
            block = rows[a:a + step]
            x_max, d = _shift(block)
            for p, ((beta, keys), held) in enumerate(zip(passes, out)):
                last = p == len(passes) - 1
                for i, values in _pass(block, x_max, d, beta, keys, ens, last):
                    held[keys[i]][a:a + step] = values
            del x_max, d  # before the next block's shift is formed

    _in_threads(run, range(0, max(n, 1), step))
    for p, (_, keys) in enumerate(passes):
        held, out[p] = out[p], None  # each pass's outputs go once yielded
        for i, key in enumerate(keys):
            yield p, i, held[key].reshape(lead + held[key].shape[1:])[()]
        del held


def _in_threads(run, starts):
    """run(part) for contiguous parts of the block starts, one part per
    thread, the first on the caller's thread; each thread takes at least
    _MIN_THREAD_BLOCKS blocks.

    Each helper runs in a copy of the caller's context, so the caller's
    np.errstate holds there too.  An exception reaches the caller once every
    helper has joined: the first part's that raised, whose block comes first
    in row order, as the serial loop would raise it.
    """
    count = min(_THREADS, len(starts) // _MIN_THREAD_BLOCKS)
    if count <= 1:
        run(starts)
        return
    cuts = [len(starts) * t // count for t in range(count + 1)]
    parts = [starts[cuts[t]:cuts[t + 1]] for t in range(count)]
    errors = [None] * count

    def helper(t):
        try:
            run(parts[t])
        except BaseException as exc:  # raised in the caller below
            errors[t] = exc

    threads = [threading.Thread(target=contextvars.copy_context().run,
                                args=(helper, t)) for t in range(1, count)]
    for thread in threads:
        thread.start()
    try:
        run(parts[0])
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _pass(x, x_max, d, beta, keys, ens=None, last=False):
    """Yield (i, value of keys[i]) on the block x at beta, from the block's
    max x_max and shift d = x - x_max (_shift).  The last pass of a block
    forms its exponents in d's buffer.

    The exponents z = beta d, their exp e and the row sum s of e are formed
    once, and each value from them by its kernel's own formula in its own
    order, so the values do not depend on which others are taken.  z is
    kept beside e for the Renyi orders, whose exponents are alpha z, and
    for the log-weights and the weights.  Beside d, which the last pass
    takes for z, at most two block-sized arrays are alive at a time (three
    while shannon_entropy is formed, or KL beside the participation ratio
    and a kept z), and one when e is all that is read.
    """
    def emit(key, values):
        return ((i, values) for i, k in enumerate(keys) if k == key)

    kinds = {kind for kind, _ in keys}
    m = x.shape[-1]
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
    want_kl = "kl_to_uniform" in kinds
    want_w = bool(kinds & {"gibbs_average", "shannon_entropy"}
                  or ("replica_gibbs" in kinds and not iid_replica))
    want_lw = want_w or "log_weights" in kinds
    keep_z = want_lw or "renyi_to_uniform" in kinds
    log_m = np.log(m)
    with np.errstate(over="ignore"):
        z = np.multiply(d, beta, out=d if last else None)
    # Every array is dropped once nothing reads it any more, so beside d, z
    # and e only a few row vectors are alive.
    e = _exp(z, out=None if keep_z or want_kl else z)
    s = _row_sum(e)
    if want_kl:
        # e z goes into the buffer of z or e that nothing reads after it.
        sum_ez = _sum_e_z(e, z, out=(z if not keep_z else
                                     None if want_pr else e))
    if not keep_z:
        z = None  # e or e z is z's buffer now
    if want_pr:
        e *= e
        pr = _row_sum(e)
    # Nothing reads e any more: the Renyi sums take its buffer.
    log_s_alpha = _renyi_sums(z, keys, e)
    del e
    if not want_lw:
        z = None
    log_s = np.log(s)
    if want_kl:
        # KL(nu_beta || uniform) = log m + beta <X>_beta - Lambda(beta), with
        # the shift taken out of both terms: log m + sum e z / s - log s.
        # Each term lies in [-log m, log m], so nothing large cancels.
        yield from emit(("kl_to_uniform", None), log_m + sum_ez / s - log_s)
        del sum_ez
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
    divided = kinds & {"free_energy", "soft_max"}
    if divided or kinds & {"log_partition", "rem_pressure"}:
        # Beside a value divided by beta, Lambda may overflow silently.
        with np.errstate(over="ignore" if divided else None):
            log_z = beta * x_max + log_s
        yield from emit(_LOG_PARTITION, log_z)
        if "rem_pressure" in kinds:
            yield from emit(("rem_pressure", None), log_z / (m.bit_length() - 1))
    if divided:
        finite = np.isfinite(log_z)

        def over_beta(c):
            # (Lambda - c) / beta; where Lambda overflowed, the same as
            # x_max + (log s - c) / beta, which stays near max x.
            out = (log_z - c) / beta
            if not finite.all():
                out = np.where(finite, out, x_max + (log_s - c) / beta)
            return out

        if "free_energy" in kinds:
            yield from emit(("free_energy", None), over_beta(log_m))
        if "soft_max" in kinds:
            yield from emit(_SOFT_MAX, over_beta(0.0))
    if not want_lw:
        return
    z -= log_s[..., None]
    del log_s
    yield from emit(_LOG_WEIGHTS, z)
    if not want_w:
        return
    w = _exp(z, out=None if "log_weights" in kinds else z)
    if "replica_gibbs" in kinds and not iid_replica:
        yield from emit(("replica_gibbs", None),
                        0.5 * beta * _replica_sum(w, ens.squared_distances))
    if "shannon_entropy" in kinds:
        # At beta = 0 from exactly uniform weights, as gibbs_measure has them.
        yield from emit(("shannon_entropy", None), _entropy(
            np.broadcast_to(1.0 / m, x.shape) if beta == 0.0 else w))
    if "gibbs_average" in kinds:
        yield from emit(("gibbs_average", None),
                        _row_sum(np.multiply(w, x, out=w)))


def _sum_e_z(e, z, out=None):
    """Row sums of e z for e = exp(z), into out when given.

    An exponent that overflowed is -inf, with e = 0: its term is taken as 0,
    the limit of e z, where the product is nan.  Only rows whose sum is nan
    are summed again.
    """
    with np.errstate(invalid="ignore"):
        terms = np.multiply(e, z, out=out)
    sums = _row_sum(terms)
    bad = np.isnan(sums)
    if bad.any():
        terms = terms[bad]
        terms[np.isnan(terms)] = 0.0
        sums[bad] = _row_sum(terms)
    return sums


def _replica_sum(w, d2):
    """sum_ij w_i d2_ij w_j over the last axis of the weights w >= 0, equal
    bit for bit to numpy's einsum "ni,ij,nj->n" of (w, d2, w) on C-ordered w.

    As that einsum does, it adds (w_i d2_ij) w_j to 0.0 for i, then j, in
    order; a term with d2_ij = 0 is +0.0 and is skipped.  Each term is a
    product of columns, so the order does not depend on w's layout.
    """
    out = np.zeros(w.shape[:-1])
    term = np.empty_like(out)
    for i, j in zip(*np.nonzero(d2)):  # row-major: i, then j
        np.multiply(w[..., i], d2[i, j], out=term)
        term *= w[..., j]
        out += term
    return out


def _renyi_sums(z, keys, buf):
    """{alpha: log s(alpha z)} for the Renyi orders in keys, from the pass's
    exponents z, each alpha z formed in buf."""
    out = {}
    with np.errstate(over="ignore"):
        for alpha in dict.fromkeys([a for k, a in keys if k == "renyi_to_uniform"]):
            out[alpha] = np.log(_row_sum(_exp(np.multiply(z, alpha, out=buf), out=buf)))
    return out


# The live set of a _ParticipationProbes holds at most 1 / _LIVE_SHARE of each
# row block's entries, 12 bytes each (an int32 position and a double), so at
# most 0.75 bytes per double of the batch.
_LIVE_SHARE = 16
_PARTICIPATION = [("participation_ratio", None)]


class _ParticipationProbes:
    """participation_ratio(x, beta) at the betas of one threshold search, bit
    for bit, on the finite batch x, which is not scanned.

    Where fl(beta d) < _EXP_FLOOR, d = x - max x the row's shift (_shift),
    exp(beta d) is an exact 0, and so it stays at every larger beta.  So
    each row block keeps its live entries once, at a build beta_c: their
    positions in the block and their d, where fl(beta_c d) >= _EXP_FLOOR.
    A probe at beta >= beta_c takes exp(beta d) of those only and scatters
    it into a zeroed block; the row sums, e *= e and pr /= s * s are those
    of _pass, so every value is the same bit for bit.  The first build is
    at a quarter of its probe's beta; a later probe below beta_c rebuilds
    at its own beta.  A build runs its probe too, on each block's shift as
    it is formed.  A block whose live entries are more than 1 / _LIVE_SHARE
    of it is refused before any of them is kept: the build is dropped, and
    the rest of its probe takes _pass on each block's shift.  A probe that
    could be served only by a build at or below a refused beta takes
    _observe.
    """

    def __init__(self, x):
        self.lead, m = x.shape[:-1], x.shape[-1]
        self.rows = x.reshape(-1, m)
        self.step = max(1, _BLOCK_ELEMENTS // m)
        self.starts = range(0, max(self.rows.shape[0], 1), self.step)
        self.builds = 0         # builds tried
        self.refused = 0.0      # the largest build beta the cap refused
        self.build_beta = None  # beta_c of the live set
        self.live = None        # per block: (positions, shifts) of its live entries

    def __call__(self, beta):
        beta = float(beta)
        if self.live is not None and beta >= self.build_beta:
            build = None
        else:
            self.live = self.build_beta = None  # gone before a rebuild
            build = beta if self.builds else beta / 4.0
            if build <= self.refused:
                return next(_observe(self.rows, [(beta, _PARTICIPATION)]))[2].reshape(
                    self.lead)[()]
            self.builds += 1
            live, refused = [None] * len(self.starts), []
        values = np.empty(self.rows.shape[0])

        def run(blocks):
            buf = np.empty(min(self.step, self.rows.shape[0]) * self.rows.shape[1])
            for j in blocks:
                a = self.starts[j]
                block = self.rows[a:a + self.step]
                e = buf[:block.size].reshape(block.shape)
                if build is None:
                    pos, d = self.live[j]
                else:
                    x_max, d = _shift(block)
                    kept = None if refused else _live(d, build, e)
                    if kept is None:
                        refused.append(j)
                        values[a:a + self.step] = next(_pass(
                            block, x_max, d, beta, _PARTICIPATION, last=True))[1]
                        continue
                    live[j] = pos, d = kept
                with np.errstate(over="ignore"):
                    z = np.multiply(d, beta)
                e.fill(0.0)
                e.reshape(-1)[pos] = np.exp(z, out=z)
                s = _row_sum(e)
                e *= e
                pr = _row_sum(e)
                pr /= s * s
                values[a:a + self.step] = pr

        _in_threads(run, range(len(self.starts)))
        if build is not None:
            if refused:
                self.refused = max(self.refused, build)
            else:
                self.live, self.build_beta = live, build
        return values.reshape(self.lead)[()]


def _live(d, beta_c, buf):
    """(int32 positions, shifts) of the entries of the block shift d where
    fl(beta_c d) >= _EXP_FLOOR, or None when they are more than 1 /
    _LIVE_SHARE of d.  buf, of d's shape, takes beta_c d."""
    with np.errstate(over="ignore"):
        keep = np.multiply(d, beta_c, out=buf) >= _EXP_FLOOR
    if np.count_nonzero(keep) > d.size // _LIVE_SHARE:
        return None
    pos = np.flatnonzero(keep).astype(np.int32)
    return pos, d.reshape(-1)[pos]


def _lse(x, beta, log_weights=False):
    """Lambda(beta) = log sum_i exp(beta x_i) over the last axis.

    With log_weights=True also returns beta * x - Lambda(beta), formed from
    the shifted exponents, so it is finite for every finite beta.
    """
    keys = [_LOG_PARTITION, _LOG_WEIGHTS] if log_weights else [_LOG_PARTITION]
    values = [v for _, _, v in _observe(x, [(beta, keys)])]
    return tuple(values) if log_weights else values[0]


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
    Where Lambda overflows the value is max x + (log s - log m) / beta, s
    the sum of exp(beta (x - max x)), about max x.
    """
    return FREE_ENERGY.evaluate(x, beta)


def soft_max(x, beta, subset=None) -> np.ndarray | float:
    """(1/beta) log sum_{i in subset} exp(beta x_i) over coordinate positions.

    subset defaults to all coordinates.  Monotone under subset inclusion and
    sandwiched between max x and max x + log|subset| / beta on the subset.
    A singleton subset returns that coordinate exactly.  Where Lambda over
    the subset overflows, the value is its max x + log s / beta.
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
    if idx.size == 1:
        return x[..., idx][..., 0]
    # Every position in order: x itself, not a fancy-index copy of it.
    sub = x if np.array_equal(idx, np.arange(m)) else x[..., idx]
    return next(_observe(sub, [(beta, [_SOFT_MAX])]))[2]


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

    Taken with the shift z = beta (x - max x) out of both terms, as log m +
    sum e z / s - log s with e = exp(z) and s its sum, so no term exceeds
    log m and the value is finite at every finite beta; an exponent that
    overflows to -inf adds 0.  Nonnegative up to rounding, at most log m,
    increasing in beta, and equal to
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
    only the max shift (_shift), so their agreement is a real consistency
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
            # :g keeps 6 digits; where that names another alpha, all of them.
            short = f"{self.alpha:g}"
            return f"renyi({short if float(short) == self.alpha else repr(self.alpha)})"
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
