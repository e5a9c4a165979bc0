"""Construction, validation, geometry, sampling law, packings, balls."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import softmaxima as sm
from softmaxima import (ball, build_from_covariance, build_iid, from_spec,
                        greedy_packing)
from softmaxima.cli import _resolve_ensemble
from softmaxima.ensemble import DENSE_CAP, IID_CAP
from tests.conftest import two_cluster_vectors


class TestBuildIid:
    def test_identity_covariance(self, iid2):
        assert np.array_equal(iid2.covariance, np.eye(2))
        assert iid2.min_separation == pytest.approx(math.sqrt(2), abs=0)
        assert iid2.diameter == pytest.approx(math.sqrt(2), abs=0)
        assert iid2.sigma_max == 1.0

    def test_half_variance_separation(self):
        ens = build_iid(4, 0.5)
        assert ens.min_separation ** 2 == pytest.approx(1.0, rel=1e-15)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="invalid-size"):
            build_iid(1, 1.0)

    def test_bad_variance_rejected(self):
        with pytest.raises(ValueError, match="invalid-parameter"):
            build_iid(4, 0.0)
        with pytest.raises(ValueError, match="invalid-parameter"):
            build_iid(4, -1.0)

    def test_infinite_distance_rejected(self):
        # 2 v overflows at v = 1e308, so the canonical distance is infinite.
        with pytest.raises(ValueError, match="scale: the canonical distance"):
            build_iid(2, 1e308)
        assert math.isfinite(build_iid(2, 8e307).min_separation)

    def test_scalar_geometry_property(self):
        # a = diameter = sqrt(2v), sigma = sqrt(v), for every (n, v).
        for n, v in [(2, 1.0), (5, 0.25), (16, 3.0)]:
            ens = build_iid(n, v)
            assert ens.min_separation == pytest.approx(math.sqrt(2 * v), rel=1e-15)
            assert ens.diameter == ens.min_separation
            assert ens.sigma_max == pytest.approx(math.sqrt(v), rel=1e-15)

    def test_custom_labels(self):
        ens = build_iid(3, 1.0, labels=["x", "y", "z"])
        assert ens.labels == ("x", "y", "z")
        assert ens.index_of("y") == 1
        with pytest.raises(ValueError, match="invalid-size"):
            build_iid(3, 1.0, labels=["x", "y"])

    def test_size_cap(self):
        assert build_iid(2 ** 16, 1.0).size == 2 ** 16
        with pytest.raises(ValueError, match="scale:"):
            build_iid(2 ** 16 + 1, 1.0)

    def test_large_implicit_law_has_scalar_accessors(self):
        big = build_iid(2 ** 14, 1.0)
        assert big.sigma_max == 1.0
        assert big.min_separation == pytest.approx(math.sqrt(2))
        assert big.size > DENSE_CAP
        with pytest.raises(ValueError, match="scale:"):
            _ = big.covariance
        with pytest.raises(ValueError, match="scale:"):
            np.sqrt(big.squared_distances)


class TestBuildFromCovariance:
    def test_zero_distance_pair_rejected(self):
        with pytest.raises(ValueError, match=r"'a'.*'b'"):
            build_from_covariance(["a", "b"], [[1.0, 1.0], [1.0, 1.0]])

    def test_hand_distance(self):
        ens = build_from_covariance(["a", "b"], [[1.0, 0.5], [0.5, 1.0]])
        assert ens.min_separation == pytest.approx(1.0, rel=1e-15)
        assert ens.diameter == pytest.approx(1.0, rel=1e-15)
        assert ens.sigma_max == 1.0

    def test_asymmetry_rejected_with_pair_named(self):
        bad = [[1.0, 0.5, 0.2], [0.4, 1.0, 0.3], [0.2, 0.3, 1.0]]
        with pytest.raises(ValueError, match="asymmetric.*'a'.*'b'"):
            build_from_covariance(["a", "b", "c"], bad)

    def test_negative_eigenvalue_rejected_with_value_named(self):
        bad = [[1.0, 2.0], [2.0, 1.0]]   # eigenvalues 3 and -1
        with pytest.raises(ValueError, match="eigenvalue.*-1"):
            build_from_covariance(["a", "b"], bad)

    def test_duplicate_label_rejected(self):
        with pytest.raises(ValueError, match="duplicate.*'a'"):
            build_from_covariance(["a", "a"], [[1.0, 0.5], [0.5, 1.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="invalid-size"):
            build_from_covariance(["a", "b", "c"], [[1.0, 0.5], [0.5, 1.0]])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            build_from_covariance(["a", "b"], [[1.0, np.nan], [np.nan, 1.0]])

    def test_symmetrised_overflow_is_scale_error(self):
        # Finite entries whose sum cov + cov.T overflows to inf.
        with pytest.raises(ValueError, match="scale: .*1e\\+308"):
            build_from_covariance(["a", "b"], [[1e308, 0.0], [0.0, 1e308]])

    def test_distance_overflow_is_scale_error(self):
        # A finite symmetrised covariance whose canonical distance
        # 8e307 + 8e307 + 2 * 8e307 overflows to inf.
        with pytest.raises(ValueError, match="^scale: .*'a' and 'b' overflows"):
            build_from_covariance(["a", "b"], [[8e307, -8e307], [-8e307, 8e307]])
        with pytest.raises(ValueError, match="^scale: .*'b' and 'c' overflows"):
            build_from_covariance(["a", "b", "c"], [[1.0, 0.0, 0.0],
                                                    [0.0, 8e307, -8e307],
                                                    [0.0, -8e307, 8e307]])

    def test_extreme_entries_below_overflow_kept(self):
        ens = build_from_covariance(["a", "b"], [[8e307, 0.0], [0.0, 8e307]])
        assert ens.min_separation == math.sqrt(1.6e308)
        # (cov + cov.T) / 2 keeps a subnormal entry that cov/2 + cov.T/2
        # would round to 0.
        t = 5e-324
        ens = build_from_covariance(["a", "b"], [[4 * t, t], [t, 4 * t]])
        assert ens.covariance[0, 1] == t

    @pytest.mark.parametrize("cov, at", [
        ([["1", "0.5"], ["0.5", "1"]], "[0][0]"),
        ([[True, 0.0], [0.0, True]], "[0][0]"),
        ([[1.0, 0.5], [0.5, "1"]], "[1][1]"),
        ([[1.0, None], [None, 1.0]], "[0][1]"),
        (np.array([[True, False], [False, True]]), "[0][0]"),
        (np.array([["1", "0"], ["0", "1"]]), "[0][0]")])
    def test_entries_must_be_numbers(self, cov, at):
        # Both built ensembles when the API read the matrix with np.array.
        with pytest.raises(ValueError, match=(
                r"^invalid-input: covariance entry " + re.escape(at)
                + " must be a number")):
            build_from_covariance(["a", "b"], cov)

    @pytest.mark.parametrize("cov", [
        [[2, 1], [1, 2]], [[np.float32(2.0), 1.0], [np.int64(1), 2.0]],
        np.array([[2, 1], [1, 2]]), np.array([[2, 1], [1, 2]], np.uint8),
        np.array([[2.0, 1.0], [1.0, 2.0]], np.float32)])
    def test_int_and_float_entries_accepted(self, cov):
        ens = build_from_covariance(["a", "b"], cov)
        assert ens.covariance.dtype == np.float64
        assert ens.covariance.tolist() == [[2.0, 1.0], [1.0, 2.0]]

    def test_singular_psd_accepted(self, twocluster12):
        # Rank-2 covariance: cholesky fails, the eigen fallback must not.
        fac = twocluster12.sampling_factor
        assert np.allclose(fac @ fac.T, twocluster12.covariance, atol=1e-12)

    def test_exact_iid_matrix_detected(self):
        ens = build_from_covariance(["a", "b", "c"], 2.0 * np.eye(3))
        assert ens.is_iid and ens.iid_variance == 2.0

    def test_cache_key_tracks_content(self, iid2, corr3):
        assert iid2.cache_key == build_iid(2, 1.0).cache_key
        assert iid2.cache_key != build_iid(2, 2.0).cache_key
        assert corr3.cache_key != iid2.cache_key
        # same matrix, different labels: different law object
        other = build_from_covariance(["x", "y", "z"], corr3.covariance)
        assert other.cache_key != corr3.cache_key


class TestGeometry:
    def test_iid_hand_values(self):
        ens = build_iid(3, 2.0)
        assert ens.min_separation == pytest.approx(2.0, rel=1e-15)
        assert ens.diameter == pytest.approx(2.0, rel=1e-15)
        assert ens.sigma_max == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_zero_diagonal(self, corr3, ar8):
        for ens in (corr3, ar8):
            assert np.all(np.diag(np.sqrt(ens.squared_distances)) == 0.0)

    def test_triangle_inequality(self, corr3, ar8, twocluster12):
        for ens in (corr3, ar8, twocluster12):
            d = np.sqrt(ens.squared_distances)
            m = ens.size
            for i in range(m):
                for j in range(m):
                    for k in range(m):
                        assert d[i, j] <= d[i, k] + d[k, j] + 1e-9

    def test_ordering(self, ar8):
        assert 0 < ar8.min_separation <= ar8.diameter
        assert ar8.sigma_max > 0


class TestSample:
    def test_empirical_law_iid(self, iid2):
        xs = sm.realization_batch(iid2, 10 ** 5, seed=0)
        emp = xs.T @ xs / xs.shape[0]
        assert np.abs(emp - np.eye(2)).max() < 0.02
        assert np.abs(xs.mean(axis=0)).max() < 0.02

    def test_empirical_law_dense(self, corr3):
        rng = np.random.default_rng(1)
        g = rng.standard_normal((10 ** 5, 3))
        xs = g @ corr3.sampling_factor.T
        emp = xs.T @ xs / xs.shape[0]
        assert np.abs(emp - corr3.covariance).max() < 0.03

    def test_cloned_streams_agree(self, corr3):
        a = sm.realization_batch(corr3, 1000, seed=7)
        sm.clear_cache()
        b = sm.realization_batch(corr3, 1000, seed=7)
        assert np.array_equal(a, b)

    def test_increment_variance_matches_metric(self, corr3):
        # Var(X_s - X_t) over many draws must recover d^2(s, t).
        n = 10 ** 5
        rng = np.random.default_rng(5)
        xs = rng.standard_normal((n, 3)) @ corr3.sampling_factor.T
        d2 = corr3.squared_distances
        for s in range(3):
            for t in range(s + 1, 3):
                diff = xs[:, s] - xs[:, t]
                v = diff.var(ddof=1)
                se = d2[s, t] * math.sqrt(2.0 / (n - 1))
                assert abs(v - d2[s, t]) < 5 * se


class TestPacking:
    def test_all_kept_at_min_separation(self, iid8):
        assert greedy_packing(iid8, math.sqrt(2)) == list(iid8.labels)

    def test_singleton_above_diameter(self, iid8):
        assert greedy_packing(iid8, 2.0) == [iid8.labels[0]]

    def test_pairwise_separated_and_maximal(self, twocluster12, ar8):
        for ens in (twocluster12, ar8):
            d = np.sqrt(ens.squared_distances)
            for radius in (0.5, 1.0, 1.5):
                chosen = greedy_packing(ens, radius)
                idx = ens.indices_of(chosen)
                for a in idx:
                    for b in idx:
                        if a != b:
                            assert d[a, b] >= radius
                rest = [i for i in range(ens.size) if i not in idx]
                for r in rest:
                    assert any(d[r, a] < radius for a in idx)

    def test_two_cluster_picks_one_per_side(self, twocluster12):
        chosen = greedy_packing(twocluster12, 1.0)
        assert len(chosen) == 2
        assert {c[0] for c in chosen} == {"p", "m"}

    def test_bad_radius(self, iid8):
        with pytest.raises(ValueError, match="invalid-parameter"):
            greedy_packing(iid8, 0.0)


class TestBall:
    def test_zero_radius_is_center(self, corr3):
        assert ball(corr3, "b", 0.0) == ["b"]

    def test_full_at_common_distance(self):
        ens = build_iid(4, 1.0)
        assert ball(ens, "0", math.sqrt(2)) == list(ens.labels)
        assert ball(ens, "0", 1.0) == ["0"]

    def test_two_cluster_ball_is_cluster(self, twocluster12):
        got = ball(twocluster12, "p00", 0.25)
        assert got == [l for l in twocluster12.labels if l.startswith("p")]

    def test_unknown_center(self, corr3):
        with pytest.raises(KeyError, match="unknown label"):
            ball(corr3, "zz", 1.0)

    @pytest.mark.parametrize("radius", [-1.0, math.nan])
    def test_bad_radius(self, corr3, radius):
        # A nan radius would give an empty ball, without its center.
        with pytest.raises(ValueError, match="invalid-parameter"):
            ball(corr3, "b", radius)


class TestSpecLoading:
    def test_iid_form(self):
        ens = from_spec({"iid": {"n": 4, "variance": 0.5}})
        assert ens.size == 4 and ens.iid_variance == 0.5

    def test_covariance_form(self):
        ens = from_spec({"labels": ["a", "b"],
                         "covariance": [[1.0, 0.5], [0.5, 1.0]]})
        assert ens.labels == ("a", "b")

    def test_file_roundtrip(self, tmp_path):
        p = tmp_path / "ens.json"
        p.write_text(json.dumps({"iid": {"n": 3, "variance": 2.0}}))
        assert _resolve_ensemble(str(p)).size == 3

    def test_rejections(self):
        with pytest.raises(ValueError, match="invalid-input"):
            from_spec({"nope": 1})
        with pytest.raises(ValueError, match="invalid-input"):
            from_spec({"iid": {"n": 4}})
        with pytest.raises(ValueError, match=r"'a'.*'b'"):
            from_spec({"labels": ["a", "b"], "covariance": [[1, 1], [1, 1]]})
        with pytest.raises(ValueError,
                           match=r"invalid-input: covariance entry \[1\]\[1\] is too large"):
            build_from_covariance(["a", "b"], [[1, 0], [0, 10 ** 400]])

    @pytest.mark.parametrize("body", [
        {"n": 8.9, "variance": 1.0}, {"n": 8.0, "variance": 1.0},
        {"n": "8", "variance": 1.0}, {"n": True, "variance": 1.0},
        {"n": 8, "variance": True}, {"n": 8, "variance": "1.0"},
        {"n": 8, "variance": None}, {"n": 8, "variance": 10 ** 400}])
    def test_iid_field_types(self, body):
        with pytest.raises(ValueError, match="invalid-input: iid"):
            from_spec({"iid": body})

    @pytest.mark.parametrize("cov", [
        [["1", "0.5"], [0.5, 1]], [[1, 0.5], [0.5, True]],
        [[1, 0.5], [0.5, None]], [1, 0.5], "[[1, 0.5], [0.5, 1]]",
        [[1, 0.5], [0.5, -10 ** 400]]])
    def test_covariance_entry_types(self, cov):
        with pytest.raises(ValueError, match="invalid-input: covariance"):
            from_spec({"labels": ["a", "b"], "covariance": cov})

    @pytest.mark.parametrize("labels", [
        5, "ab", [["a"], "b"], ["a", 1], ["a", None], ["a", True],
        {"a": 0, "b": 1}, None])
    def test_label_types(self, labels):
        with pytest.raises(ValueError, match="invalid-input: labels"):
            from_spec({"labels": labels, "covariance": [[1.0, 0.0], [0.0, 1.0]]})


# One numeric API parameter each: the value under test goes where v is.
_IID4 = build_iid(4, 1.0)
_X3 = np.array([[0.5, -1.0, 2.0]])
_PARAMETERS = {
    "free_energy beta": lambda v: sm.free_energy(_X3, v),
    "mc_estimates beta":
        lambda v: sm.mc_estimates(_IID4, [(sm.GIBBS_AVERAGE, v)], 10, 0),
    "limit_pressure beta": sm.limit_pressure,
    "soft_super_sudakov beta": lambda v: sm.soft_super_sudakov(_IID4, v, 10, 0),
    "pressure_sweep beta": lambda v: sm.pressure_sweep(sm.rem_model(2), [v], 10, 0),
    "build_iid n": lambda v: build_iid(v, 1.0),
    "build_iid variance": lambda v: build_iid(4, v),
    "beta_star c": lambda v: sm.beta_star(_IID4, v, 10, 0),
    "max_bounds c": lambda v: sm.max_bounds(_IID4, 10, 0, c=v),
    "beta_star resolution": lambda v: sm.beta_star(_IID4, 0.5, 10, 0, resolution=v),
    "soft_super_sudakov scale":
        lambda v: sm.soft_super_sudakov(_IID4, 1.0, 10, 0, scale=v),
    "Observable alpha": lambda v: sm.Observable("renyi_to_uniform", alpha=v),
    "renyi_observable alpha": sm.renyi_observable,
}
_VALUES = [True, False, np.True_, "1.0", "2", None, [1.0], math.inf, -math.inf,
           math.nan, -0.0, 10 ** 400, -10 ** 400, np.float32(0.5), np.int64(3),
           0.5, 2, 1e-300]


class TestApiNumberChecks:
    """A numeric API parameter is a Python or numpy int or float: anything
    else, and an integer that no double holds, is refused with a ValueError
    whose message starts with invalid-, and so is a number out of range."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(name=st.sampled_from(sorted(_PARAMETERS)), v=st.sampled_from(_VALUES))
    @example(name="free_energy beta", v="2")
    @example(name="free_energy beta", v=True)
    @example(name="free_energy beta", v=None)
    @example(name="free_energy beta", v=[1.0])
    @example(name="mc_estimates beta", v=10 ** 400)
    @example(name="soft_super_sudakov beta", v="1")
    @example(name="limit_pressure beta", v=True)
    @example(name="pressure_sweep beta", v="1")
    @example(name="build_iid variance", v=10 ** 400)
    @example(name="build_iid variance", v="1.0")
    @example(name="build_iid variance", v=None)
    @example(name="build_iid variance", v=True)
    @example(name="build_iid n", v=4.0)
    @example(name="beta_star c", v="0.5")
    @example(name="max_bounds c", v="0.5")
    @example(name="beta_star resolution", v="0.01")
    @example(name="soft_super_sudakov scale", v="0.5")
    @example(name="soft_super_sudakov scale", v=True)
    @example(name="Observable alpha", v="0.5")
    @example(name="Observable alpha", v=True)
    @example(name="renyi_observable alpha", v="0.5")
    @example(name="renyi_observable alpha", v=True)
    def test_refused_or_evaluated(self, name, v):
        number = (isinstance(v, (int, float, np.integer, np.floating))
                  and not isinstance(v, bool))
        try:
            _PARAMETERS[name](v)
        except ValueError as exc:
            # A count past the i.i.d. cap is a scale refusal, not a bad value.
            if (name == "build_iid n" and isinstance(v, (int, np.integer))
                    and v > IID_CAP):
                assert str(exc).startswith("scale:"), exc
            else:
                assert str(exc).startswith("invalid-"), exc
        else:
            # None is the default of resolution and scale.
            default = v is None and name.endswith(("resolution", "scale"))
            assert default or number and abs(float(v)) < math.inf, (name, v)


def test_two_cluster_fixture_geometry(twocluster12):
    # The fixture's whole point: packing radius 1 separates the clusters,
    # radius-0.25 balls swallow them whole.
    labels, vecs = two_cluster_vectors()
    d = np.sqrt(twocluster12.squared_distances)
    for i, u in enumerate(vecs):
        for j, w in enumerate(vecs):
            assert d[i, j] == pytest.approx(np.linalg.norm(u - w), abs=1e-12)
