"""Shared fixtures: a small bestiary of index sets used across the suite."""

import functools

import numpy as np
import pytest

from softmaxima import build_from_covariance, build_iid, clear_cache, gibbs, rem_model


def wrap_probes(monkeypatch, around):
    """Send each probe of beta_star through around(probe, beta), where probe
    is the real gibbs._ParticipationProbes on the search's batch."""
    real = gibbs._ParticipationProbes
    monkeypatch.setattr(gibbs, "_ParticipationProbes",
                        lambda x: functools.partial(around, real(x)))


@functools.lru_cache(maxsize=None)
def probe_case(kind):
    """(ensemble, n, beta) for the participation probes: n rows are not a
    whole number of row blocks, at least four blocks, and a probe at beta
    builds its live set at beta / 4 within the cap."""
    if kind == "iid":
        return build_iid(64, 1.3), 4500, 16000.0
    if kind == "correlated":
        idx = np.arange(32)
        cov = 0.5 ** np.abs(idx[:, None] - idx[None, :])
        return build_from_covariance([f"s{i}" for i in idx], cov), 7000, 16000.0
    return rem_model(10).ensemble, 300, 2000.0


@pytest.fixture(autouse=True)
def _fresh_cache():
    # Batch cache is content-keyed so leaving it warm is safe, but tests that
    # measure cache behavior need a known-cold start.
    clear_cache()
    yield


@pytest.fixture
def iid2():
    return build_iid(2, 1.0)


@pytest.fixture
def iid3():
    return build_iid(3, 1.0)


@pytest.fixture
def iid8():
    return build_iid(8, 1.0)


@pytest.fixture
def corr3():
    cov = np.array([[1.0, 0.5, 0.2],
                    [0.5, 1.2, 0.3],
                    [0.2, 0.3, 0.9]])
    return build_from_covariance(["a", "b", "c"], cov)


@pytest.fixture
def ar8():
    # AR(1) correlation, rho = 0.5: positive definite for free.
    rho, m = 0.5, 8
    idx = np.arange(m)
    cov = rho ** np.abs(idx[:, None] - idx[None, :])
    return build_from_covariance([f"s{i}" for i in range(m)], cov)


def two_cluster_vectors():
    """Twelve points in the plane: two well separated clusters of six.

    Embedding u_t = (sign, eps_j) with eps spacing 0.04 gives within-cluster
    gaps of 0.04..0.20 and a cross-cluster gap of at least 2, so a packing at
    radius 1 picks one center per cluster while balls of radius 0.25 capture
    whole clusters.  Rank-2 covariance, deliberately singular.
    """
    eps = [0.0, 0.04, 0.08, 0.12, 0.16, 0.20]
    vecs = [np.array([s, e]) for s in (1.0, -1.0) for e in eps]
    labels = [f"{'p' if v[0] > 0 else 'm'}{int(round(v[1] * 100)):02d}"
              for v in vecs]
    return labels, vecs


@pytest.fixture
def twocluster12():
    labels, vecs = two_cluster_vectors()
    cov = np.array([[float(a @ b) for b in vecs] for a in vecs])
    return build_from_covariance(labels, cov)
