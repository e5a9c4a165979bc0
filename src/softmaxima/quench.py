"""Monte Carlo estimation of disorder-averaged functionals.

The estimators draw realizations of an ensemble, evaluate a per-realization
functional from `gibbs` on each, and report the sample mean with its standard
error.  Three contracts shape everything here:

* Determinism: sample i is Generator(Philox(counter=i * 2^128, key))
  .standard_normal(m), a pure function of (seed, i), and the reduction over
  samples is numpy's fixed-order pairwise sum, so results are bit-identical
  whatever the order in which rows are filled.  A row wider than
  _ZIG_MAX_WIDTH = 32 draws is drawn whole by numpy's own generator.
  Narrower rows are filled by whole-array numpy operations: the Philox
  blocks of many samples (every round in place), numpy's ziggurat fast
  path on them, and the wedge tests of the draws it declines, taken
  together for the rows of several chunks.  Such a row goes to numpy's
  generator, set to the exact state, only at a tail draw, at a draw or a
  wedge test too close to numpy's bound to decide safely, and where its
  Philox words run out.  tests/test_quench.py pins the result to the
  per-sample definition bit for bit.
* Common random numbers: identical (ensemble, n, seed) always yields the
  identical realization batch, so comparisons across beta or across the two
  sides of an identity are per-sample comparisons.  A few recent batches are
  cached; that cache is the only state kept between calls, and clear_cache()
  empties it.  Nothing else is memoized: beta_star is computed once by the
  caller and its ThresholdResult passed to every bound that uses it.
* Collapsed i.i.d. forms: whenever the covariance is a scalar matrix the
  replica statistic uses beta * sigma^2 * (1 - participation) instead of the
  generic double sum; the two are equal coordinate-for-coordinate there.

mc_estimates takes many (observable, beta) pairs on one batch, and
quadrature_oracles, a tensor-product Gauss-Hermite oracle for index sets of up
to four points, takes them on each chunk of the grid nodes it keeps
(_kept_nodes drops those of weight below ORACLE_WEIGHT_FLOOR).  A chunk is
built column-major (_node_values), so every row reduction on it reads
contiguous columns.  Both hand the pairs to gibbs._evaluate, the
one place that routes an observable kind, and reduce each value as soon as it
is yielded.  It runs passes at several betas on one shift of each row block
while their outputs fit in a quarter of the batch, so a wide batch (REM's
2000 x 1024) shifts once for every beta, while a narrow one (2e5 x 8) and a
quadrature chunk run one pass at a time and hold one pass's values.
mc_estimate, per_sample_values, evaluate_values and quadrature_oracle are
one-pair cases.

SUDAKOV_C, the default Sudakov constant c, and Z_MARGIN, the standard errors
that every statistical verdict and tolerance allows, are defined here once.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from . import gibbs
from .ensemble import IndexedEnsemble

BETA_MAX_FACTOR = 1e4        # beta_star searches beta in (0, 1e4 / sigma]
DEFAULT_RESOLUTION = 1e-3    # beta_star grid step, in units of 1 / sigma
ORACLE_MAX_POINTS = 4        # tensor quadrature cap
ORACLE_MIN_NODES = 32
ORACLE_NODES = 128           # default nodes_per_dim, and oracle-check's
ORACLE_MAX_NODES = 1 << 24   # tensor grid cap, nodes_per_dim^|T|
ORACLE_WEIGHT_FLOOR = 1e-30  # oracle drops nodes of normalised weight below
BATCH_ELEMENT_CAP = 250_000_000  # refuse batches above this many floats
SUDAKOV_C = 1.0 / 17.0       # default Sudakov minoration constant c
Z_MARGIN = 3.0               # standard errors allowed to every statistical check


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

    beta_star is always positive: the target is below 1/2 and 1 - r(0) =
    1 - 1/|T| is not.  bracket is the final bisection interval, one grid step
    wide (lo excluded, hi = beta_star included); r_at_star is the estimate
    of r at beta_star.  ensemble_key ties the result to its ensemble.  c is
    the Sudakov constant in the target, and every bound that takes the
    threshold reads its constant from here.  probes holds the betas the
    search probed, in order.
    """
    beta_star: float
    bracket: tuple[float, float]
    target: float
    r_at_star: QuenchedEstimate
    ensemble_key: str
    c: float
    probes: tuple[float, ...]


def _check_c(c) -> None:
    if not (0.0 < c < 1.0):
        raise ValueError(f"invalid-parameter: c must lie in (0, 1), got {c}")


def _check_threshold(threshold, ens: IndexedEnsemble) -> None:
    """Reject a threshold not computed by beta_star on ens."""
    if not isinstance(threshold, ThresholdResult):
        raise ValueError("invalid-input: threshold must be a ThresholdResult")
    if threshold.ensemble_key != ens.cache_key:
        raise ValueError("invalid-input: threshold was computed on a different ensemble")


# -- deterministic sample streams ---------------------------------------------

SEED_MIN, SEED_MAX = -(1 << 63), (1 << 64) - 1  # the seeds a key is made of


def _master_key(seed) -> np.ndarray:
    """The Philox key of a seed in [SEED_MIN, SEED_MAX].  A seed s < 0 is
    taken as the 64-bit word s + 2^64 and so draws that seed's samples, by
    design.  A seed outside the range is refused, so no seed wider than 64
    bits draws the samples of another."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"invalid-parameter: seed must be an integer, got {seed!r}")
    if not SEED_MIN <= int(seed) <= SEED_MAX:
        raise ValueError(
            f"invalid-parameter: seed must lie in [-2^63, 2^64), got {seed}")
    return np.random.SeedSequence(int(seed) & 0xFFFFFFFFFFFFFFFF).generate_state(
        2, np.uint64)


# Sample i is Generator(Philox(counter=i << 128, key)).standard_normal(m).
# Its counter words start at (0, 0, i, 0) and word 0 is incremented before
# each block, so draw j of sample i is word j % 4 of the Philox4x64-10 block
# of counter (j // 4 + 1, 0, i, 0).

# Philox4x64 round multipliers of c0 and c2, and key increments of k0 and k1
# (Salmon et al., SC'11), as columns that broadcast over the stacked words.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], np.uint64)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_M64 = (1 << 64) - 1
_LO32 = np.uint64(0xFFFFFFFF)
# Shift counts and masks as numpy words: a Python int costs a conversion a
# call.
_9, _32, _55 = np.uint64(9), np.uint64(32), np.uint64(55)
_ZIG_LAYER, _ZIG_SIGN = np.uint64(0xFF), np.uint64(0x100)
_ZIG_MAGNITUDE = np.uint64((1 << 52) - 1)

# numpy's 256 ziggurat widths wi_double, exactly; recomputing the layer
# recurrence in double misses them by up to 3e-10 relative.  The tests
# re-derive them from numpy's own draws.
_ZIG_WI = np.array([float.fromhex(h) for h in (
    "0x1.f493b7815d979p-51", "0x1.b8d0be3fdf6c6p-55", "0x1.250af3c2c5bb4p-54",
    "0x1.57cb938443b61p-54", "0x1.801fce82fa70cp-54", "0x1.a230c2e4cd0bcp-54",
    "0x1.c004d2f3861f7p-54", "0x1.dac2f5a747274p-54", "0x1.f32482d4cd5c3p-54",
    "0x1.04d32278ebbadp-53", "0x1.0f5053b025d43p-53", "0x1.192a697413677p-53",
    "0x1.227a28f7a1af5p-53", "0x1.2b52e3863d880p-53", "0x1.33c3fc05791f5p-53",
    "0x1.3bd9ec1a2b12fp-53", "0x1.439ef8dff9b55p-53", "0x1.4b1bb363dfea7p-53",
    "0x1.52575621ad374p-53", "0x1.59580a707ce96p-53", "0x1.60231cfd97eeap-53",
    "0x1.66bd261a37c3dp-53", "0x1.6d2a292000570p-53", "0x1.736dad346f8a6p-53",
    "0x1.798ad10b32a77p-53", "0x1.7f845ad46f543p-53", "0x1.855cc53430a77p-53",
    "0x1.8b1649e7b769ap-53", "0x1.90b2ea94ecf98p-53", "0x1.96347822c1eeap-53",
    "0x1.9b9c98e38c546p-53", "0x1.a0eccdca4a72cp-53", "0x1.a62676d77cd59p-53",
    "0x1.ab4ad6e101630p-53", "0x1.b05b16d136c9cp-53", "0x1.b558487427a29p-53",
    "0x1.ba4368e529f3ap-53", "0x1.bf1d62abf8232p-53", "0x1.c3e70f9594ef3p-53",
    "0x1.c8a13a5323b61p-53", "0x1.cd4c9fe72268bp-53", "0x1.d1e9f0e80b748p-53",
    "0x1.d679d29e41f10p-53", "0x1.dafce0023b8c3p-53", "0x1.df73aa9f17653p-53",
    "0x1.e3debb5d2edfep-53", "0x1.e83e9337a6f00p-53", "0x1.ec93abdf982cep-53",
    "0x1.f0de784f06226p-53", "0x1.f51f654d8f688p-53", "0x1.f956d9e87d7aep-53",
    "0x1.fd8537dfa2eacp-53", "0x1.00d56e04234ecp-52", "0x1.02e40f5398f9ap-52",
    "0x1.04eea9e16a5fcp-52", "0x1.06f565b72a010p-52", "0x1.08f869071f40bp-52",
    "0x1.0af7d84bc6113p-52", "0x1.0cf3d664bcc7fp-52", "0x1.0eec84b16086bp-52",
    "0x1.10e20329515eep-52", "0x1.12d4707310fbep-52", "0x1.14c3e9f8e9141p-52",
    "0x1.16b08bfc4201ep-52", "0x1.189a71a78da34p-52", "0x1.1a81b51ee6d88p-52",
    "0x1.1c666f8f82acbp-52", "0x1.1e48b93e0d42ep-52", "0x1.2028a9940a09fp-52",
    "0x1.2206572c4c6e9p-52", "0x1.23e1d7de9c31fp-52", "0x1.25bb40ca96bfbp-52",
    "0x1.2792a661dd37fp-52", "0x1.29681c719d71bp-52", "0x1.2b3bb62b82edap-52",
    "0x1.2d0d862e1b853p-52", "0x1.2edd9e8cba98ep-52", "0x1.30ac10d6e48d7p-52",
    "0x1.3278ee1f4b930p-52", "0x1.3444470265ea1p-52", "0x1.360e2baca52d5p-52",
    "0x1.37d6abe05586ap-52", "0x1.399dd6fb2b264p-52", "0x1.3b63bbfb83d03p-52",
    "0x1.3d28698561de0p-52", "0x1.3eebede725a83p-52", "0x1.40ae571e09e74p-52",
    "0x1.426fb2da6745dp-52", "0x1.44300e83c30a4p-52", "0x1.45ef773cac75dp-52",
    "0x1.47adf9e66c336p-52", "0x1.496ba32488f2fp-52", "0x1.4b287f602415dp-52",
    "0x1.4ce49acb311dcp-52", "0x1.4ea001638a605p-52", "0x1.505abef5e5562p-52",
    "0x1.5214df20a8b5ap-52", "0x1.53ce6d56a664fp-52", "0x1.558774e1bb2c8p-52",
    "0x1.574000e555f78p-52", "0x1.58f81c60e8514p-52", "0x1.5aafd23241b59p-52",
    "0x1.5c672d17d733dp-52", "0x1.5e1e37b2f8cd3p-52", "0x1.5fd4fc89f5e38p-52",
    "0x1.618b860a31fc3p-52", "0x1.6341de8a2b0a2p-52", "0x1.64f8104b7260bp-52",
    "0x1.66ae257c99672p-52", "0x1.6864283b13137p-52", "0x1.6a1a22950b2b1p-52",
    "0x1.6bd01e8b343bbp-52", "0x1.6d8626128d352p-52", "0x1.6f3c43161f854p-52",
    "0x1.70f27f78b68ebp-52", "0x1.72a8e516914c6p-52", "0x1.745f7dc70eedcp-52",
    "0x1.7616535e5731fp-52", "0x1.77cd6faeff449p-52", "0x1.7984dc8babd93p-52",
    "0x1.7b3ca3c8b1409p-52", "0x1.7cf4cf3db22fbp-52", "0x1.7ead68c73dee7p-52",
    "0x1.80667a486ea1fp-52", "0x1.82200dac88676p-52", "0x1.83da2ce899f15p-52",
    "0x1.8594e1fd1f5bdp-52", "0x1.875036f7a7ec5p-52", "0x1.890c35f47f72dp-52",
    "0x1.8ac8e9205c043p-52", "0x1.8c865aba10c9cp-52", "0x1.8e44951446a27p-52",
    "0x1.9003a2973b58fp-52", "0x1.91c38dc288347p-52", "0x1.9384612ef0afcp-52",
    "0x1.954627903a28ap-52", "0x1.9708ebb70d5eep-52", "0x1.98ccb892e2a31p-52",
    "0x1.9a919933f99bfp-52", "0x1.9c5798cd5d92cp-52", "0x1.9e1ec2b6f7411p-52",
    "0x1.9fe7226fad24ap-52", "0x1.a1b0c39f93692p-52", "0x1.a37bb21a2c85bp-52",
    "0x1.a547f9e0bbb88p-52", "0x1.a715a724aa9a4p-52", "0x1.a8e4c64a0313dp-52",
    "0x1.aab563e9ff108p-52", "0x1.ac878cd5af5cep-52", "0x1.ae5b4e18bb336p-52",
    "0x1.b030b4fc3a11ap-52", "0x1.b207cf09a985bp-52", "0x1.b3e0aa0e00c00p-52",
    "0x1.b5bb541ce3d03p-52", "0x1.b797db93f8927p-52", "0x1.b9764f1e5f73cp-52",
    "0x1.bb56bdb85256ep-52", "0x1.bd3936b2ec0a2p-52", "0x1.bf1dc9b81ae83p-52",
    "0x1.c10486cec16a0p-52", "0x1.c2ed7e5f07a2dp-52", "0x1.c4d8c136e0d1cp-52",
    "0x1.c6c6608ec8705p-52", "0x1.c8b66e0eba617p-52", "0x1.caa8fbd36a2abp-52",
    "0x1.cc9e1c73bd690p-52", "0x1.ce95e3068e037p-52", "0x1.d0906328b8f6ep-52",
    "0x1.d28db1037ef20p-52", "0x1.d48de1533c647p-52", "0x1.d691096e7f123p-52",
    "0x1.d8973f4d7fba5p-52", "0x1.daa0999206e70p-52", "0x1.dcad2f8fc490ep-52",
    "0x1.debd195522e37p-52", "0x1.e0d06fb49d21cp-52", "0x1.e2e74c4ea46f6p-52",
    "0x1.e501c99c1d188p-52", "0x1.e72002f97fe25p-52", "0x1.e94214b2abf0ap-52",
    "0x1.eb681c0f76f08p-52", "0x1.ed9237610a73ap-52", "0x1.efc086101eca9p-52",
    "0x1.f1f328ac25321p-52", "0x1.f42a40fb74d6dp-52", "0x1.f665f20c90168p-52",
    "0x1.f8a6604899782p-52", "0x1.faebb187122bfp-52", "0x1.fd360d22fe785p-52",
    "0x1.ff859c118f60bp-52", "0x1.00ed447d3a075p-51", "0x1.021a8028fc947p-51",
    "0x1.034a983a902abp-51", "0x1.047da4e3ef5c7p-51", "0x1.05b3bf6adb37ep-51",
    "0x1.06ed023a72668p-51", "0x1.082988f632e17p-51", "0x1.0969708e8a254p-51",
    "0x1.0aacd7571c0c4p-51", "0x1.0bf3dd1eed448p-51", "0x1.0d3ea34aa3d30p-51",
    "0x1.0e8d4cf116593p-51", "0x1.0fdffefa69fb6p-51", "0x1.1136e04207041p-51",
    "0x1.129219bbb5d35p-51", "0x1.13f1d69c4096dp-51", "0x1.1556448602e3bp-51",
    "0x1.16bf93b9deef3p-51", "0x1.182df74d21261p-51", "0x1.19a1a564eebacp-51",
    "0x1.1b1ad777f2f8ep-51", "0x1.1c99ca971a694p-51", "0x1.1e1ebfbe4ae39p-51",
    "0x1.1fa9fc2e2d901p-51", "0x1.213bc9d04cc81p-51", "0x1.22d477a6fd3eep-51",
    "0x1.24745a4ac9c24p-51", "0x1.261bcc77658e0p-51", "0x1.27cb2faa8592ep-51",
    "0x1.2982ecd770e78p-51", "0x1.2b437532a0a52p-51", "0x1.2d0d43196db97p-51",
    "0x1.2ee0db1a978f5p-51", "0x1.30becd256aeeep-51", "0x1.32a7b5e68a4a3p-51",
    "0x1.349c405ae12a3p-51", "0x1.369d27a33a840p-51", "0x1.38ab39256410ap-51",
    "0x1.3ac7570ae88fap-51", "0x1.3cf27b31704a6p-51", "0x1.3f2dbaa60f475p-51",
    "0x1.417a49cb9e5dap-51", "0x1.43d9815545e94p-51", "0x1.464ce44a73a15p-51",
    "0x1.48d62759c43bcp-51", "0x1.4b7739d6b5a27p-51", "0x1.4e3250dcd8902p-51",
    "0x1.5109f53e9ac41p-51", "0x1.54011523a7e42p-51", "0x1.571b1a94ae41bp-51",
    "0x1.5a5c08b718dd9p-51", "0x1.5dc8a243ad0fep-51", "0x1.61669cf861e4cp-51",
    "0x1.653ce7b006aeap-51", "0x1.69540be9fe5c3p-51", "0x1.6db6b8d09e232p-51",
    "0x1.72728f05f7a34p-51", "0x1.7799556090673p-51", "0x1.7d42df4d6ce8cp-51",
    "0x1.839030529f234p-51", "0x1.8ab0fbfaa7c14p-51", "0x1.92ee0946f4496p-51",
    "0x1.9cbee014057abp-51", "0x1.a8fdc7894775ap-51", "0x1.b981f3878fdb1p-51",
    "0x1.d3bb48209ad33p-51",
    )])
_ZIG_R = 3.6541528853610088  # start of the base layer's tail


def _zig_thresholds(wi) -> np.ndarray:
    """Fast-path acceptance bounds, a strict subset of numpy's ki_double.

    With x_k = 2^52 wi[k]: ki[0] = floor(2^52 r / x_0), ki[1] = 0 and
    ki[k] = floor(2^52 x_{k-1} / x_k), computed exactly, less a margin of
    _ZIG_KI_MARGIN units.  A draw the fast path declines is decided by the
    wedge test or by numpy, so the margin can never change a value.
    """
    x = [float(w) * 2.0 ** 52 for w in wi]  # exact: a power-of-two scale

    def floor_ratio(a, b):
        (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
        return ((an * bd) << 52) // (ad * bn)

    ki = [floor_ratio(_ZIG_R, x[0]), 0]
    ki += [floor_ratio(x[k - 1], x[k]) for k in range(2, len(x))]
    return np.array([max(k - _ZIG_KI_MARGIN, 0) for k in ki], dtype=np.uint64)


def _zig_densities(wi) -> np.ndarray:
    """The wedge densities of numpy's fi_double: fi[k] = exp(-x_k^2 / 2) with
    x_k = 2^52 wi[k], and fi[0] = 1 at the top of the ziggurat.  They may
    differ from numpy's table in the last bits, which _ZIG_TIE covers."""
    x = wi * 2.0 ** 52
    fi = np.exp(-0.5 * x * x)
    fi[0] = 1.0
    return fi


_ZIG_KI_MARGIN = 4096
_ZIG_KI = _zig_thresholds(_ZIG_WI)
# A declined draw below this bound is left to numpy: its own ki may lie up to
# _ZIG_KI_MARGIN above the exact bound and accept it.
_ZIG_KI_BAND = _ZIG_KI + np.uint64(2 * _ZIG_KI_MARGIN)
_ZIG_FI = _zig_densities(_ZIG_WI)
# A wedge test whose two sides lie closer than this is left to numpy: the
# tables, exp and the rounding of the test may differ from numpy's by ulps.
_ZIG_TIE = 1e-12
_ZIG_MAX_WIDTH = 32     # widest row the vectorised path fills; see _fill_block
_ZIG_EXTRA_BLOCKS = 2   # Philox blocks past a row's own read by wedge rows
_CHUNK_BLOCKS = 1 << 14  # Philox blocks per vectorised chunk (bounds memory)


def _mulhilo(m, x, hi, t, u, v):
    """The 128-bit products m * x in place: their high 64-bit words into hi
    and their low words into x.  m broadcasts against x; t, u and v are
    work arrays of x's shape.

    numpy has no 128-bit integers, so the high word is assembled from
    32 x 32 -> 64-bit partial products, none of whose sums can overflow.
    Every step writes into a given array, so no temporary is made.
    """
    m_lo, m_hi = m & _LO32, m >> _32
    np.bitwise_and(x, _LO32, out=u)  # x_lo
    np.multiply(u, m_lo, out=t)
    t >>= _32
    u *= m_hi
    np.right_shift(x, _32, out=v)    # x_hi
    np.multiply(v, m_hi, out=hi)
    v *= m_lo
    t += v                           # m_lo x_hi + (m_lo x_lo >> 32)
    np.bitwise_and(t, _LO32, out=v)
    u += v                           # m_hi x_lo + (t & 0xFFFFFFFF)
    t >>= _32
    hi += t
    u >>= _32
    hi += u
    x *= m


def _philox_blocks(key, rows, first, last):
    """Philox4x64-10 of counters (b, 0, i, 0), first < b <= last, i in rows.

    Returns the outputs in draw order, shape (len(rows), 4 * (last - first)).

    A round multiplies c0 by M0 and c2 by M1, and xors each high word into
    the other pair: (c0, c1, c2, c3) <- (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1,
    lo0).  The rounds run in place on six arrays of two (row, block) words
    each: p = (c0, c2), q = (c1, c3), the high words and _mulhilo's work
    arrays, so each step of a round is one ufunc call on both pairs.
    """
    n_blocks = last - first
    row = np.array(rows, dtype=np.uint64).reshape(-1)
    p = np.empty((2, row.size, n_blocks), np.uint64)
    # A block column at a time: numpy broadcasts a row vector against a few
    # blocks in inner loops as short as the blocks.
    for b in range(n_blocks):
        p[0, :, b] = first + 1 + b
        p[1, :, b] = row
    p = p.reshape(2, -1)
    q = np.zeros_like(p)
    hi, t, u, v = (np.empty_like(p) for _ in range(4))
    for r in range(_PHILOX_ROUNDS):
        _mulhilo(_PHILOX_M, p, hi, t, u, v)
        # (c0, c2) <- (hi1 ^ c1 ^ k0, hi0 ^ c3 ^ k1) in q's buffer, and
        # (c1, c3) <- (lo1, lo0), p reversed.
        q ^= hi[::-1]
        q ^= np.array([[(int(key[0]) + r * _PHILOX_W[0]) & _M64],
                       [(int(key[1]) + r * _PHILOX_W[1]) & _M64]], np.uint64)
        p, q = q, p[::-1]
    return np.stack([p[0], q[0], p[1], q[1]], axis=-1).reshape(row.size, 4 * n_blocks)


def _zig_fields(r):
    """(idx, rabs) of raw words r: the layer, bits 0-7, as intp for np.take,
    and the 52-bit magnitude, bits 9-60; bit 8 is the sign."""
    idx = np.empty(r.shape, np.intp)
    np.bitwise_and(r, _ZIG_LAYER, out=idx.view(np.uint64))
    rabs = np.right_shift(r, _9)
    rabs &= _ZIG_MAGNITUDE
    return idx, rabs


def _zig_draws(r, out=None):
    """(x, declined) of raw words r: numpy's ziggurat candidate
    x = +-rabs * wi[idx], into out when given, and whether the fast path
    declines it."""
    idx, rabs = _zig_fields(r)
    x = np.take(_ZIG_WI, idx, out=out, mode="clip")
    x *= rabs
    sign = np.bitwise_and(r, _ZIG_SIGN)
    sign <<= _55  # bit 8 -> bit 63
    bits = x.view(np.uint64)
    bits |= sign
    return x, np.greater_equal(rabs, np.take(_ZIG_KI, idx, out=sign, mode="clip"))


def _resume(rng, state, i, cursor, words, out):
    """Fill out with numpy's own generator at word cursor of sample i's stream.

    words is the Philox block holding the cursor's word, as ints; the state
    resumes inside that block with its buffer loaded, or at a block
    boundary, where words is not read, with the buffer spent.
    """
    q, s = divmod(cursor, 4)
    state["state"]["counter"] = [q + 1 if s else q, 0, i, 0]
    state["buffer"] = words if s else [0, 0, 0, 0]
    state["buffer_pos"] = s or 4
    rng.bit_generator.state = state
    rng.standard_normal(out=out)


def _wedges(raw, x, declined, p):
    """Word of each of the first p draws of every row of raw, and where
    numpy's generator must take over, deciding declined draws in array ops.

    raw holds W words of each row, x and declined their _zig_draws.  A draw
    the fast path declines is numpy's wedge test when its layer idx >= 1:
    with u = (next word >> 11) 2^-53 it is accepted iff
    (fi[idx-1] - fi[idx]) u + fi[idx] < exp(-x^2 / 2), and otherwise the
    draw is retried from the word after u.  Each decision shifts the row's
    later draws past the words it consumed.  A row stops, to be resumed by
    numpy at its word cursor, at a tail draw (idx 0), at a draw within
    _ZIG_KI_BAND, at a wedge test within _ZIG_TIE of a tie, and where its
    words run out.  Returns (word, k_stop, cursor): draw k < k_stop of row h
    is x[h, word[h, k]], and numpy draws k >= k_stop from word cursor[h].
    """
    n, w_end = raw.shape
    # Every declined word of every row, in row order, each row's list ended
    # by a sentinel at w_end; the test of each is taken as if it were a
    # draw, though a word that serves as some u is never read as one.
    rows, cols = np.nonzero(np.concatenate([declined, np.ones((n, 1), bool)], axis=1))
    live_word = cols < w_end - 1  # a sentinel, or a declined last word, has no u
    at = np.where(live_word, cols, 0)
    idx, rabs = _zig_fields(raw[rows, at])
    u = (raw[rows, at + 1] >> 11) * 2.0 ** -53
    xd = x[rows, at]
    lhs = (_ZIG_FI[idx - 1] - _ZIG_FI[idx]) * u + _ZIG_FI[idx]
    rhs = np.exp(-0.5 * xd * xd)
    decided = (live_word & (idx > 0) & (rabs >= _ZIG_KI_BAND[idx])
               & (np.abs(lhs - rhs) > _ZIG_TIE))
    accept = (lhs < rhs).astype(np.intp)
    # The entry after a decided one: the next, or the one after it when the
    # next is the u word itself.  A decided entry is never a row's last.
    nxt = np.arange(1, len(cols) + 1)
    nxt[:-1] += cols[1:] == cols[:-1] + 1
    ptr = np.searchsorted(rows, np.arange(n))  # each row's next entry
    k = np.zeros(n, np.intp)  # next draw of each row
    w = np.zeros(n, np.intp)  # next word of each row
    k_stop, cursor = np.empty(n, np.intp), np.empty(n, np.intp)
    shift = np.zeros((n, p + 1), np.intp)  # words consumed before draw k
    live = np.arange(n)
    while live.size:
        e = ptr[live]
        d = cols[e]
        kd = k[live] + (d - w[live])
        # The fast path returns words w .. d - 1 as draws k .. kd - 1.
        done = kd >= p
        h = live[done]
        k_stop[h], cursor[h] = p, w[h] + (p - k[h])
        go = ~done & decided[e]
        h = live[~done & ~go]
        k_stop[h], cursor[h] = kd[~done & ~go], d[~done & ~go]
        live, e, d, kd = live[go], e[go], d[go], kd[go]
        a = accept[e]
        # An accepted draw consumed u; a rejected one consumed x and u.
        shift[live, kd + a] += 2 - a
        k[live], w[live], ptr[live] = kd + a, d + 2, nxt[e]
    word = np.arange(p) + np.cumsum(shift[:, :p], axis=1)
    return np.minimum(word, w_end - 1), k_stop, cursor


def _fill_block(out, key):
    """Every row of out, row i being sample i's stream (see above).

    A row wider than _ZIG_MAX_WIDTH draws is drawn whole by numpy's own
    generator from the start of its stream (_resume at word 0).  Narrower
    rows take numpy's ziggurat (Marsaglia & Tsang 2000) in array ops: the
    fast path on whole blocks of Philox words, _CHUNK_BLOCKS blocks at a
    time, and, where it declines a draw, the wedge tests (_wedges), read
    _ZIG_EXTRA_BLOCKS blocks further.  The rows with a declined draw keep
    their words until they and their extra blocks fill a chunk, and then
    take the wedge tests in one call (_fill_wedge_rows), so a 2e5 x 8 fill
    makes a few such calls, not one per chunk.  Where _wedges stops a row,
    numpy's generator, set to the exact state there, draws the rest.

    32 is about where the two cost the same.  On 1.28e6 draws (one
    thread, medians of 11 interleaved runs) the array path takes 72-89 ms
    at every width from 16 to 64; numpy per row takes 164 ms at 16, 87 at
    32, 80 at 40 and 60 at 64.
    """
    n, m = out.shape
    if m == 0:
        return
    rng = np.random.Generator(np.random.Philox(key=key))
    state = rng.bit_generator.state
    # numpy's setter takes about half as long on plain ints as on its own
    # words, and _resume sets the state once a resumed row.
    state["state"]["key"] = key.tolist()
    if m > _ZIG_MAX_WIDTH:
        for i in range(n):
            _resume(rng, state, i, 0, None, out[i])
        return
    n_blocks = -(-m // 4)
    step = _CHUNK_BLOCKS // n_blocks
    # Rows with a declined draw wait, with their words, until they fill a
    # chunk's blocks with their extra blocks, so few calls take the wedges.
    pending, held = [], 0
    for start in range(0, n, step):
        stop = min(start + step, n)
        raw = _philox_blocks(key, np.arange(start, stop), 0, n_blocks)
        # Rows of four-word multiples decode straight into out.
        whole = m == 4 * n_blocks
        x, declined = _zig_draws(raw, out[start:stop] if whole else None)
        if not whole:
            out[start:stop] = x[:, :m]
        rows = _declining_rows(declined, m)
        pending.append((start + rows, raw[rows]))
        held += rows.size
        del raw, x, declined
        if held * (n_blocks + _ZIG_EXTRA_BLOCKS) >= _CHUNK_BLOCKS or stop == n:
            rows, raw = (np.concatenate(a) for a in zip(*pending))
            pending, held = [], 0
            if rows.size:
                _fill_wedge_rows(out, key, rng, state, rows, raw)


def _declining_rows(declined, m):
    """The rows, in order, with a declined draw among their first m."""
    w = declined.shape[1]
    at = np.flatnonzero(declined)  # np.nonzero and np.unique take longer
    if m < w:
        at = at[at % w < m]
    rows = at // w
    return rows[np.concatenate(([True], rows[1:] != rows[:-1]))] if rows.size else rows


def _fill_wedge_rows(out, key, rng, state, rows, raw):
    """Rows of out with a draw the fast path declined, from their first
    words raw, through the wedge tests and, where those stop, numpy."""
    m = out.shape[1]
    n_blocks = raw.shape[1] // 4
    extra = _philox_blocks(key, rows, n_blocks, n_blocks + _ZIG_EXTRA_BLOCKS)
    raw = np.concatenate([raw, extra], axis=1)
    del extra
    x, declined = _zig_draws(raw)
    word, k_stop, cursor = _wedges(raw, x, declined, m)
    out[rows] = np.take_along_axis(x, word, axis=1)
    resumed = np.flatnonzero(k_stop < m)
    for h, i, k, c in zip(resumed.tolist(), rows[resumed].tolist(),
                          k_stop[resumed].tolist(), cursor[resumed].tolist()):
        _resume(rng, state, i, c, raw[h, c & ~3:(c & ~3) + 4].tolist(), out[i, k:])


def _standard_batch(m: int, n: int, seed: int) -> np.ndarray:
    """n independent m-vectors of standard normals, sample i from stream i."""
    if n * m > BATCH_ELEMENT_CAP:
        raise ValueError(
            f"scale: batch of {n} x {m} exceeds {BATCH_ELEMENT_CAP} elements; "
            "reduce n or the index set")
    out = np.empty((n, m))
    _fill_block(out, _master_key(seed))
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
    """Empty the realization-batch cache, the only state kept across calls."""
    with _batch_lock:
        _batch_cache.clear()


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

def evaluate_values(ens: IndexedEnsemble, obs: gibbs.Observable, x: np.ndarray,
                    beta: float) -> np.ndarray:
    """Per-realization values of obs on a batch x of shape (..., |T|)."""
    beta = gibbs._check_beta(beta)
    return next(gibbs._evaluate(gibbs._check_x(x), [(obs, beta)], ens))[1]


def per_sample_values(ens: IndexedEnsemble, obs: gibbs.Observable, beta,
                      n: int, seed: int) -> np.ndarray:
    """The n per-sample values behind mc_estimate, in sample order.

    Shares the cached realization batch, so values at different beta (or for
    different observables) are coupled sample-by-sample: the common random
    numbers that identity checks and finite differences rely on.
    """
    beta = gibbs._check_beta(beta)
    x = realization_batch(ens, n, seed)
    return next(gibbs._evaluate(x, [(obs, beta)], ens))[1]


def _mean_se(values) -> tuple[float, float]:
    """Sample mean and its standard error; raises on a non-finite result."""
    values = np.asarray(values, dtype=np.float64)
    # Centered mean: exact when every value is identical (degenerate
    # statistics such as the zero-temperature pressure), and no worse
    # conditioned otherwise.  Still a fixed-order pairwise reduction.
    v0 = float(values[0])
    centered = values - v0
    mean = v0 + float(np.mean(centered))
    with np.errstate(over="ignore"):
        se = float(np.std(centered, ddof=1) / np.sqrt(values.shape[0]))
    if not np.isfinite(se) and np.isfinite(centered).all():
        # The squares overflow once the values spread by more than about
        # 1e154.  Scaling by a power of two rounds no centred value but those
        # below 2^-1000 of the largest, far below what the error can see.
        e = int(np.frexp(np.max(np.abs(centered)))[1])
        se = float(np.ldexp(np.std(np.ldexp(centered, -e), ddof=1), e)
                   / np.sqrt(values.shape[0]))
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
    return mc_estimates(ens, [(obs, beta)], n, seed)[0]


def mc_estimates(ens: IndexedEnsemble, pairs, n: int,
                 seed: int) -> list[QuenchedEstimate]:
    """mc_estimate(ens, obs, beta, n, seed) for each (obs, beta), bit for bit,
    from one batch and one gibbs._evaluate pass over it.  Every beta is
    checked before the batch is built."""
    pairs = [(obs, gibbs._check_beta(beta)) for obs, beta in pairs]
    x = realization_batch(ens, n, seed)
    out = [None] * len(pairs)
    for i, values in gibbs._evaluate(x, pairs, ens):
        out[i] = _from_values(values, *pairs[i], n, seed)
        del values
    return out


# -- participation threshold ---------------------------------------------------

# ITP truncation: beta_star moves its secant estimate toward the midpoint by
# this times L^2 / (K + 1), for a bracket of L grid points out of K + 1.
_ITP_KAPPA = 0.05


def _smallest_passing(k_max: int, target: float, gap) -> tuple[int, int]:
    """Smallest k in 1..k_max with gap(k) <= target, for gap nonincreasing in k.

    Returns (lo, hi): hi is that index, or k_max + 1 when there is none, and
    lo = hi - 1.  Index 0 is taken to fail and is never probed.  Because gap
    is monotone, every probe order returns the same pair.

    Each probe starts from a secant on log gap against log k through the two
    latest probes with gap > 0 (1 - r_hat is close to a power law).  ITP
    (Oliveira & Takahashi 2020) then moves that estimate toward the midpoint
    by _ITP_KAPPA L^2 / (k_max + 1), L = hi - lo, and projects it onto the
    window that still lets bisection finish in the probes left.  When the
    secant is undefined (fewer than two such probes, equal gaps, or an
    estimate outside (lo, hi)) the probe is the midpoint.  An estimate is
    rounded down after a passing probe and up after a failing one, so one
    that is within a step of the answer is straddled.  The worst case is
    ceil(log2(k_max + 1)) + 1 probes, one more than bisection.
    """
    lo, hi = 0, k_max + 1
    budget = k_max.bit_length() + 1  # 2 ** budget >= hi - lo
    log_target = math.log(target)
    points = []                      # (log k, log gap) of probes with gap > 0
    passed = False
    while hi - lo > 1:
        mid = (lo + hi) / 2
        k = (lo + hi) // 2
        if len(points) >= 2 and points[-1][1] != points[-2][1]:
            (t1, y1), (t2, y2) = points[-2:]
            t = t2 + (log_target - y2) * (t2 - t1) / (y2 - y1)
            if t < math.log(hi) and math.exp(t) > lo:
                est = math.exp(t)
                step = _ITP_KAPPA * (hi - lo) * ((hi - lo) / (k_max + 1))
                if step < abs(mid - est):
                    est += step if est < mid else -step
                    k = math.floor(est) if passed else math.ceil(est)
        half = 1 << (budget - 1)
        k = min(max(k, lo + 1, hi - half), hi - 1, lo + half)
        budget -= 1
        value = gap(k)
        passed = value <= target
        if passed:
            hi = k
        else:
            lo = k
        if value > 0.0:
            points.append((math.log(k), math.log(value)))
    return lo, hi


def beta_star(ens: IndexedEnsemble, c: float, n: int, seed: int,
              resolution: float | None = None) -> ThresholdResult:
    """Smallest grid beta with 1 - r_hat(beta) <= c^2 a^2 / (2 Delta^2).

    r_hat is the estimated mean participation ratio on the common batch.
    Each per-sample participation curve is nondecreasing in beta, hence so is
    r_hat, and the grid is the indices 0..K, K = floor(beta_max / resolution)
    with beta_max = 1e4 / sigma.  Index 0 never satisfies the criterion
    (1 - r(0) = 1 - 1/|T| >= 1/2 > target), so it is not probed.  The
    search (_smallest_passing) returns the smallest grid point satisfying it,
    whatever order it probes in, in at most ceil(log2(K + 1)) + 1 probes; on
    the benchmark's reference seeds it takes 7-10 (7-8 on bounds-iid64's),
    and probes lists them.  Every probe reads one gibbs._ParticipationProbes
    of the batch: the entries that can still carry weight, kept once at a
    build beta and at most 1/16 of each row block, so a probe at or above
    that beta takes exp of those only; a probe below it rebuilds, and one
    whose build would pass the cap takes the dense pass.  Its values are
    participation_ratio's bit for bit.  r_at_star reuses the per-sample
    values of the probe at beta_star.  When no grid point up to beta_max
    satisfies the criterion, UnboundedThresholdError is raised with
    diagnostics.  The result is not memoized; pass it to the bounds that
    need it.
    """
    _check_c(c)
    _check_n(n)
    sigma = ens.sigma_max
    if resolution is None:
        resolution = DEFAULT_RESOLUTION / sigma
    if not np.isfinite(resolution) or resolution <= 0:
        raise ValueError(
            f"invalid-parameter: resolution must be positive, got {resolution}")
    beta_max = BETA_MAX_FACTOR / sigma
    k_max = beta_max / resolution
    if not np.isfinite(k_max):
        raise ValueError(
            f"invalid-parameter: resolution {resolution:g} is too fine: the "
            f"grid size {beta_max:.6g} / resolution overflows")
    k_max = math.floor(k_max)

    a = ens.min_separation
    delta = ens.diameter
    # The ratio first: c^2 a^2 and Delta^2 alone underflow or overflow.
    target = (c * a / delta) ** 2 / 2.0
    if not (math.isfinite(target) and target > 0.0):
        raise ValueError(
            f"scale: the participation target (c a / Delta)^2 / 2 = {target!r} "
            f"is not positive and finite at a = {a:.6g}, Delta = {delta:.6g}, "
            f"c = {c:.6g}; rescale the covariance")
    x = realization_batch(ens, n, seed)

    ratio = gibbs._ParticipationProbes(x)
    probes = []
    lo_gap = hi_values = None

    def gap(k):
        nonlocal lo_gap, hi_values
        probes.append(k * resolution)
        values = ratio(probes[-1])
        value = 1.0 - float(np.mean(values))
        # hi only falls and lo only rises: the last pass and the last fail
        # are the probes at the final hi and lo.
        if value <= target:
            hi_values = values
        else:
            lo_gap = value
        return value

    lo, hi = _smallest_passing(k_max, target, gap)
    if hi > k_max:
        probe = ("no grid point probed" if lo_gap is None else
                 f"last probe beta = {lo * resolution:.6g}, 1 - r_hat = {lo_gap:.6g}")
        raise UnboundedThresholdError(
            "unbounded-threshold: 1 - r_hat(beta) stayed above the target "
            f"{target:.6g} for all beta <= {beta_max:.6g} "
            f"({probe}, |T| = {ens.size}, sigma = {sigma:.6g}); nearly coincident "
            "coordinates keep the participation ratio away from its target")
    beta = hi * resolution
    return ThresholdResult(
        beta_star=beta, bracket=(lo * resolution, beta), target=target,
        r_at_star=_from_values(hi_values, gibbs.PARTICIPATION_RATIO, beta, n, seed),
        ensemble_key=ens.cache_key, c=float(c), probes=tuple(probes))


# -- independent quadrature oracle ----------------------------------------------

def _oracle_rule(m: int, nodes_per_dim) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights for an m-point tensor oracle.

    Every grid and rule check of quadrature_oracle lives here, so a caller
    can refuse a grid before any other work.
    """
    if m > ORACLE_MAX_POINTS:
        raise ValueError(
            f"oracle-scale: tensor quadrature supports at most "
            f"{ORACLE_MAX_POINTS} coordinates, got {m}")
    if not isinstance(nodes_per_dim, (int, np.integer)) or nodes_per_dim < ORACLE_MIN_NODES:
        raise ValueError(
            f"invalid-parameter: nodes_per_dim must be an integer >= "
            f"{ORACLE_MIN_NODES}, got {nodes_per_dim}")
    k = int(nodes_per_dim)
    if k ** m > ORACLE_MAX_NODES:
        # Checked before hermgauss, which builds a k x k matrix.
        raise ValueError(
            f"oracle-scale: {k}^{m} quadrature nodes exceed {ORACLE_MAX_NODES}; "
            "lower nodes_per_dim")
    z, w = hermgauss(k)
    # Past about 370 nodes the extreme weights underflow to 0 or nan.
    if not np.all(np.isfinite(z) & (w > 0) & np.isfinite(w)):
        raise ValueError(
            f"oracle-scale: the {k}-node Gauss-Hermite rule underflows; "
            "lower nodes_per_dim")
    return z, w


_ORACLE_CHUNK = 1 << 18  # kept grid nodes per quadrature chunk


def _kept_nodes(w, m):
    """(weights, digit columns) of the tensor-grid nodes the oracle keeps.

    Node (t_0, ..., t_{m-1}) of the k^m grid, k = w.size, weighs
    w[t_0] * ... * w[t_{m-1}], multiplied left to right, and is kept when
    that weight is at least ORACLE_WEIGHT_FLOOR * pi^(m/2), i.e. when its
    normalised weight reaches the floor.  The kept nodes come in grid
    order, the last digit running fastest, as m digit columns of the
    smallest unsigned dtype that holds k - 1.

    No full grid is formed: the kept prefixes grow one digit at a time, each
    prefix weight times every rule weight, in blocks of at most about
    _ORACLE_CHUNK candidates, and a prefix below the cut is dropped.  That
    loses no node: the rule weights are positive and sum to sqrt(pi) over
    at least ORACLE_MIN_NODES nodes, so each is below 1, and a rounded
    product by a factor below 1 never exceeds the prefix.
    """
    k = w.size
    cut = ORACLE_WEIGHT_FLOOR * np.pi ** (m / 2.0)
    dtype = np.min_scalar_type(k - 1)
    rows = max(1, _ORACLE_CHUNK // k)
    weight, digits = np.ones(1), []    # the empty prefix; 1.0 * w is exact
    for _ in range(m):
        weights, columns = [], []
        for start in range(0, weight.size, rows):
            candidate = weight[start:start + rows, None] * w
            prefix, digit = np.nonzero(candidate >= cut)
            weights.append(candidate[prefix, digit])
            columns.append([col[start:][prefix] for col in digits]
                           + [digit.astype(dtype)])
        weight = np.concatenate(weights)
        digits = [np.concatenate(col) for col in zip(*columns)]
    return weight, digits


def _node_values(points, digits, factor):
    """x = g F^T of the nodes with these digit columns, x column-major.

    g[:, d] = points[digits[d]], and column j of x is the fold
    g[:, 0] F[j, 0] + g[:, 1] F[j, 1] + ..., left to right.  No BLAS call is
    made, so the bits do not depend on its thread count.
    """
    g = [points[col] for col in digits]
    x = np.empty((g[0].size, len(g)), order="F")
    for j, row in enumerate(factor):
        col = x[:, j]
        np.multiply(g[0], row[0], out=col)
        for d in range(1, len(g)):
            col += g[d] * row[d]
    return x


def quadrature_oracle(ens: IndexedEnsemble, obs: gibbs.Observable, beta,
                      nodes_per_dim: int = ORACLE_NODES) -> float:
    """Tensor-product Gauss-Hermite value of E[obs(X)] for tiny index sets.

    Shares no randomness with the Monte Carlo path: the expectation over
    X = F g is integrated on a deterministic grid of nodes_per_dim^|T|
    points, less the nodes whose normalised weight is below
    ORACLE_WEIGHT_FLOOR (see quadrature_oracles).  Only index sets of up to
    four points and grids of at most ORACLE_MAX_NODES points are accepted.
    The one-pair case of quadrature_oracles, and equal to it bit for bit.
    """
    return quadrature_oracles(ens, [(obs, beta)], nodes_per_dim)[0]


def quadrature_oracles(ens: IndexedEnsemble, pairs,
                       nodes_per_dim: int = ORACLE_NODES) -> list[float]:
    """quadrature_oracle(ens, obs, beta, nodes_per_dim) for each (obs, beta).

    The grid keeps only the nodes whose normalised product weight
    prod_d w_d / pi^(|T|/2) is at least ORACLE_WEIGHT_FLOOR (_kept_nodes),
    in grid order.  That loses nothing a double can hold: no dropped node
    weighs more than the floor and no grid has more than ORACLE_MAX_NODES
    nodes, so the dropped mass is at most 2^24 * 1e-30 = 1.7e-23 of the unit
    total, far below the 1e-16 resolution of a double.  At 128 nodes the
    three-point fixture of oracle-check keeps 255 376 of 2 097 152 nodes.
    Against the sum over every node, a value moves by rounding only: at
    most 4.1e-16 * max(1, |v|) at 66, 128 and 200 nodes, with equal
    non-finite values.

    One pass over the kept nodes: each chunk of up to 2^18 of them and its
    realizations are built once (_node_values, column-major) and every pair
    is evaluated on them by gibbs._evaluate, each value reduced as soon as
    it is yielded by numpy's pairwise sum of weight * value, which calls no
    BLAS, so the bits do not depend on the BLAS thread count.  Each pair
    keeps its own sum over the chunks, in chunk order, so its value does
    not depend on the others.  Nothing of the grid outlives the call.
    """
    pairs = [(obs, gibbs._check_beta(beta)) for obs, beta in pairs]
    m = ens.size
    z, w = _oracle_rule(m, nodes_per_dim)
    points = np.sqrt(2.0) * z          # E f(G) = pi^{-1/2} sum_k w_k f(sqrt(2) z_k)
    weight, digits = _kept_nodes(w, m)

    acc = [0.0] * len(pairs)
    for start in range(0, weight.size, _ORACLE_CHUNK):
        part = slice(start, start + _ORACLE_CHUNK)
        x = _node_values(points, [col[part] for col in digits],
                         ens.sampling_factor)
        x.setflags(write=False)  # shared by every pair
        for i, values in gibbs._evaluate(x, pairs, ens):
            acc[i] += float(np.add.reduce(weight[part] * values))
            del values
    scale = np.pi ** (m / 2.0)
    return [a / scale for a in acc]
