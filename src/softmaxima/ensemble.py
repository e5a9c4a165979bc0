"""Finite centered Gaussian ensembles with labeled coordinates.

An ensemble is the law of a centered Gaussian vector (X_t) indexed by a
finite, ordered label set T, described by its covariance matrix.  The
canonical metric

    d(s, t) = sqrt( E[(X_s - X_t)^2] ) = sqrt( S[s,s] + S[t,t] - 2 S[s,t] )

turns T into a finite metric space; packings and balls of that metric feed
the multi-scale bounds elsewhere in the package.

Scalar covariances (v * I) are kept in implicit form so that very large
i.i.d. ensembles (up to 2**16 coordinates) never materialize a dense matrix;
dense views are available up to ``DENSE_CAP`` coordinates.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

# Validation tolerances.  Module-level so callers can tighten or relax them.
SYMMETRY_RTOL = 1e-12    # allowed |S - S.T| relative to max|S|
EIGENVALUE_RTOL = 1e-10  # eigenvalues below -EIGENVALUE_RTOL*||S|| are rejected
DENSE_CAP = 4096         # largest side for materializing an m x m matrix
IID_CAP = 2 ** 16        # most coordinates of an i.i.d. ensemble


class IndexedEnsemble:
    """Immutable law of a centered Gaussian vector with labeled coordinates.

    Attributes
    ----------
    labels : tuple of str
        The ordered index set T.
    iid_variance : float or None
        Set when the covariance is exactly v * I; enables the implicit
        (matrix-free) representation and the collapsed i.i.d. formulas.
    cache_key : str
        Content fingerprint; equal keys mean equal laws and identical
        sampling streams, which is what the batch cache relies on.
    """

    __slots__ = ("labels", "iid_variance", "cache_key",
                 "_pos", "_cov", "_factor", "_d2")

    def __init__(self, labels, covariance=None, iid_variance=None, factor=None):
        self.labels = tuple(str(l) for l in labels)
        self._pos = {l: i for i, l in enumerate(self.labels)}
        self.iid_variance = None if iid_variance is None else float(iid_variance)
        self._cov = covariance
        self._factor = factor
        self._d2 = None
        if covariance is not None:
            covariance.setflags(write=False)
        if factor is not None:
            factor.setflags(write=False)
        if self.iid_variance is not None:
            self.cache_key = f"iid:{self.size}:{self.iid_variance.hex()}"
        else:
            import hashlib
            h = hashlib.sha256()
            h.update("\x1f".join(self.labels).encode())
            h.update(covariance.tobytes())
            self.cache_key = "cov:" + h.hexdigest()[:16]

    # -- basic views ---------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def is_iid(self) -> bool:
        return self.iid_variance is not None

    @property
    def covariance(self) -> np.ndarray:
        """Dense covariance matrix (materialized on demand for implicit laws)."""
        if self._cov is None:
            self._require_dense("covariance")
            cov = self.iid_variance * np.eye(self.size)
            cov.setflags(write=False)
            self._cov = cov
        return self._cov

    @property
    def sampling_factor(self) -> np.ndarray:
        """Factor F with F @ F.T = covariance.

        Lower-triangular (Cholesky) when the covariance is positive definite;
        a symmetric-eigendecomposition factor when it is PSD-singular.
        """
        if self._factor is None:
            self._require_dense("sampling factor")
            fac = np.sqrt(self.iid_variance) * np.eye(self.size)
            fac.setflags(write=False)
            self._factor = fac
        return self._factor

    @property
    def squared_distances(self) -> np.ndarray:
        """Matrix of d^2(s, t), materialized on demand."""
        if self._d2 is None:
            if self.is_iid and self._cov is None:
                self._require_dense("distance matrix")
                d2 = 2.0 * self.iid_variance * (1.0 - np.eye(self.size))
            else:
                v = np.diag(self.covariance)
                d2 = v[:, None] + v[None, :] - 2.0 * self.covariance
            d2.setflags(write=False)
            self._d2 = d2
        return self._d2

    @property
    def sigma_max(self) -> float:
        """Largest coordinate standard deviation."""
        if self.is_iid:
            return float(np.sqrt(self.iid_variance))
        return float(np.sqrt(np.max(np.diag(self.covariance))))

    @property
    def min_separation(self) -> float:
        if self.is_iid:
            return float(np.sqrt(2.0 * self.iid_variance))
        return float(np.sqrt(self._offdiag_d2().min()))

    @property
    def diameter(self) -> float:
        if self.is_iid:
            return float(np.sqrt(2.0 * self.iid_variance))
        return float(np.sqrt(self._offdiag_d2().max()))

    def _offdiag_d2(self):
        d2 = self.squared_distances
        mask = ~np.eye(self.size, dtype=bool)
        return d2[mask]

    def _require_dense(self, what):
        if self.size > DENSE_CAP:
            raise ValueError(
                f"scale: {what} for {self.size} coordinates exceeds the dense "
                f"cap of {DENSE_CAP}; use the scalar accessors "
                "(sigma_max, min_separation, diameter) instead")

    # -- label lookup --------------------------------------------------------

    def index_of(self, label: str) -> int:
        try:
            return self._pos[label]
        except KeyError:
            raise KeyError(f"unknown label {label!r}") from None

    def indices_of(self, labels: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.index_of(l) for l in labels)

    def __repr__(self):
        kind = f"iid var={self.iid_variance}" if self.is_iid else "dense"
        return f"IndexedEnsemble(|T|={self.size}, {kind})"


def build_iid(n: int, variance: float, labels: Sequence[str] | None = None) -> IndexedEnsemble:
    """Ensemble of n independent centered Gaussians of equal variance.

    The covariance is kept implicit (no dense matrix), so n may be large.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(
            f"invalid-size: the number of coordinates must be an integer, got {n!r}")
    if n < 2:
        raise ValueError(f"invalid-size: need at least 2 coordinates, got {n}")
    if n > IID_CAP:
        raise ValueError(f"scale: {n} coordinates exceed the i.i.d. cap of {IID_CAP}")
    variance = _check_number("invalid-parameter: variance", variance)
    if not math.isfinite(variance) or variance <= 0:
        raise ValueError(f"invalid-parameter: variance must be positive, got {variance}")
    if labels is None:
        labels = [str(i) for i in range(n)]
    elif len(labels) != n:
        raise ValueError(f"invalid-size: {len(labels)} labels for {n} coordinates")
    if not math.isfinite(2.0 * variance):
        raise ValueError(
            f"scale: the canonical distance sqrt(2 * {variance:.6g}) "
            "overflows; rescale the variance")
    return IndexedEnsemble(labels, iid_variance=variance)


def build_from_covariance(labels: Sequence[str], sigma_matrix) -> IndexedEnsemble:
    """Ensemble from an explicit covariance matrix.

    Rejects entries that are not Python or numpy ints or floats (strings
    and booleans among them), asymmetric matrices, matrices with an
    eigenvalue below -EIGENVALUE_RTOL * ||S||, and zero-distance coordinate
    pairs, naming the offending entry in each case.  PSD-but-singular matrices are accepted:
    the sampling factor falls back to a symmetric eigendecomposition with
    negative eigenvalues clamped at zero, so sampling stays exact in law.
    """
    cov = _covariance_array(sigma_matrix)
    labels = [str(l) for l in labels]
    if len(set(labels)) != len(labels):
        dup = next(l for l in labels if labels.count(l) > 1)
        raise ValueError(f"invalid-input: duplicate label {dup!r}")
    m = len(labels)
    if cov.shape != (m, m):
        raise ValueError(
            f"invalid-size: covariance shape {cov.shape} does not match {m} labels")
    if m < 2:
        raise ValueError(f"invalid-size: need at least 2 coordinates, got {m}")
    if not np.isfinite(cov).all():
        raise ValueError("invalid-input: covariance contains non-finite entries")

    scale = np.abs(cov).max()
    asym = np.abs(cov - cov.T)
    if asym.max() > SYMMETRY_RTOL * max(scale, 1.0):
        i, j = np.unravel_index(np.argmax(asym), asym.shape)
        raise ValueError(
            f"invalid-input: covariance is asymmetric at pair "
            f"({labels[i]!r}, {labels[j]!r}): {cov[i, j]!r} vs {cov[j, i]!r}")
    with np.errstate(over="ignore"):
        cov = (cov + cov.T) / 2.0
    if not np.isfinite(cov).all():
        raise ValueError(
            f"scale: covariance entries of size {scale:.6g} overflow when "
            "symmetrised; rescale the covariance")

    eigvals = np.linalg.eigvalsh(cov)
    norm = np.abs(eigvals).max()
    if eigvals.min() < -EIGENVALUE_RTOL * max(norm, 1.0):
        raise ValueError(
            f"invalid-input: covariance has negative eigenvalue {eigvals.min():.6e}")

    v = np.diag(cov)
    with np.errstate(over="ignore"):
        d2 = v[:, None] + v[None, :] - 2.0 * cov
    if not np.isfinite(d2).all():
        i, j = np.unravel_index(np.argmin(np.isfinite(d2)), d2.shape)
        raise ValueError(
            f"scale: the canonical distance between labels {labels[i]!r} and "
            f"{labels[j]!r} overflows; rescale the covariance")
    np.fill_diagonal(d2, np.inf)
    i, j = np.unravel_index(np.argmin(d2), d2.shape)
    if d2[i, j] <= 0.0:
        raise ValueError(
            f"invalid-input: zero canonical distance between labels "
            f"{labels[i]!r} and {labels[j]!r}")

    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        w, vecs = np.linalg.eigh(cov)
        factor = vecs * np.sqrt(np.clip(w, 0.0, None))

    iid_variance = None
    if np.all(v == v[0]) and np.all(cov[~np.eye(m, dtype=bool)] == 0.0):
        iid_variance = float(v[0])
    return IndexedEnsemble(labels, covariance=cov, iid_variance=iid_variance,
                           factor=factor)


def greedy_packing(ens: IndexedEnsemble, radius: float) -> list[str]:
    """Maximal radius-separated subset, scanning labels in their given order.

    Every pair in the result is at distance >= radius; no remaining label can
    be added.  Deterministic by construction.
    """
    if not radius > 0:
        raise ValueError(f"invalid-parameter: radius must be positive, got {radius}")
    # Compare at distance scale: sqrt is correctly rounded, so a radius that
    # is exactly a pairwise distance lands on the boundary instead of being
    # pushed off it by squaring.
    dist = np.sqrt(ens.squared_distances)
    chosen: list[int] = []
    for i in range(ens.size):
        if all(dist[i, j] >= radius for j in chosen):
            chosen.append(i)
    return [ens.labels[i] for i in chosen]


def ball(ens: IndexedEnsemble, center: str, radius: float) -> list[str]:
    """Closed metric ball around `center`; always contains the center."""
    if not radius >= 0:
        raise ValueError(f"invalid-parameter: radius must be nonnegative, got {radius}")
    inside = _ball_mask(ens, [ens.index_of(center)], radius)[0]
    return [ens.labels[i] for i in np.flatnonzero(inside)]


def _ball_mask(ens: IndexedEnsemble, centers, radius: float) -> np.ndarray:
    """Mask of d(center, t) <= radius, one row per center position.

    Compared at distance scale, as greedy_packing does, so that a point at
    exactly the radius is inside every ball built here.
    """
    return np.sqrt(ens.squared_distances[list(centers)]) <= radius


def _check_number(what, v):
    """v, a Python or numpy int or float, as a float; what opens the refusal
    with its category and v's name, as in "invalid-parameter: beta".

    numpy would read strings and booleans as numbers; a spec or a parameter
    may not, nor an integer that no double holds.
    """
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
        raise ValueError(f"{what} must be a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None


def _covariance_array(sigma_matrix):
    """sigma_matrix as a float64 array, each entry of a matrix that is not
    an int or float array read through _check_number."""
    if isinstance(sigma_matrix, np.ndarray) and sigma_matrix.dtype.kind in "fiu":
        return np.array(sigma_matrix, dtype=np.float64)
    try:
        rows = [list(row) for row in sigma_matrix]
    except TypeError:
        raise ValueError("invalid-input: covariance must be a list of rows") from None
    return np.array([[_check_number(f"invalid-input: covariance entry [{i}][{j}]", v)
                      for j, v in enumerate(row)] for i, row in enumerate(rows)],
                    dtype=np.float64)


def from_spec(spec: dict) -> IndexedEnsemble:
    """Build from a JSON-style dict.

    Accepted forms:
        {"iid": {"n": 8, "variance": 1.0}}
        {"labels": ["a", "b"], "covariance": [[1.0, 0.5], [0.5, 1.0]]}
    """
    if not isinstance(spec, dict):
        raise ValueError("invalid-input: ensemble spec must be a JSON object")
    if "iid" in spec:
        body = spec["iid"]
        try:
            n, variance = body["n"], body["variance"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"invalid-input: malformed iid spec: {exc}") from None
        if type(n) is not int:
            raise ValueError(f"invalid-input: iid n must be an integer, got {n!r}")
        return build_iid(n, _check_number("invalid-input: iid variance", variance))
    if "labels" in spec and "covariance" in spec:
        labels = spec["labels"]
        if not isinstance(labels, list) or not all(type(l) is str for l in labels):
            raise ValueError("invalid-input: labels must be a list of strings")
        rows = spec["covariance"]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ValueError("invalid-input: covariance must be a list of rows")
        return build_from_covariance(labels, rows)
    raise ValueError(
        "invalid-input: ensemble spec needs either an 'iid' entry or "
        "'labels' plus 'covariance'")
