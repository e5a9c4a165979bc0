"""Config ingestion, all four commands, exit codes, emission determinism."""

import ast
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import softmaxima as sm
from softmaxima import bounds, cli, quench, rem
from softmaxima.cli import (EXIT_CONFIG, EXIT_MISMATCH, EXIT_OK,
                            EXIT_VIOLATION, ConfigError, main, parse_config)

IID2 = '{"iid": {"n": 2, "variance": 1.0}}'
IID8 = '{"iid": {"n": 8, "variance": 1.0}}'
BIG = "9" * 401  # a JSON integer past every double


def run_main(argv):
    return main(argv)


class TestConfigParsing:
    def test_flag_basics(self, tmp_path):
        cfg = parse_config(["estimate", "--ensemble", IID8, "--beta", "1.5",
                            "--n", "500", "--seed", "3",
                            "--out", str(tmp_path / "x")])
        assert cfg.command == "estimate"
        assert cfg.beta_grid == (1.5,)
        assert cfg.n_samples == 500 and cfg.seed == 3

    def test_beta_grid_syntax(self, tmp_path):
        cfg = parse_config(["estimate", "--ensemble", IID8,
                            "--beta-grid", "0:2:0.5", "--out", str(tmp_path / "x")])
        assert cfg.beta_grid == (0.0, 0.5, 1.0, 1.5, 2.0)

    def test_beta_and_grid_exclusive(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(["estimate", "--ensemble", IID8, "--beta", "1",
                          "--beta-grid", "0:1:0.5", "--out", str(tmp_path / "x")])

    def test_config_file_merge(self, tmp_path):
        body = {"command": "estimate",
                "ensemble_spec": {"iid": {"n": 4, "variance": 2.0}},
                "n_samples": 700, "seed": 9, "beta_grid": [0.5, 1.0],
                "observables": ["gibbs_average", "renyi(0.5)"]}
        p = tmp_path / "run.json"
        p.write_text(json.dumps(body))
        cfg = parse_config(["--config", str(p), "--out", str(tmp_path / "x")])
        assert cfg.n_samples == 700
        assert cfg.beta_grid == (0.5, 1.0)
        assert cfg.observables == ("gibbs_average", "renyi(0.5)")

    def test_flags_override_file(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"command": "estimate",
                                 "ensemble_spec": {"iid": {"n": 4, "variance": 1.0}},
                                 "seed": 1}))
        cfg = parse_config(["--config", str(p), "--seed", "77",
                            "--out", str(tmp_path / "x")])
        assert cfg.seed == 77

    def test_unknown_file_key_rejected(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"command": "estimate", "bogus_knob": 1}))
        with pytest.raises(ConfigError, match="bogus_knob"):
            parse_config(["--config", str(p), "--out", str(tmp_path / "x")])

    @pytest.mark.parametrize("field", [
        {"c": "x"}, {"c": None}, {"output": 5}, {"beta_grid": [1, "a"]},
        {"beta_grid": 2}, {"observables": "gibbs_average"}, {"plot": "no"},
        {"seed": True}, {"n_spins": True}, {"nodes": True}, {"nodes": "128"}])
    def test_file_field_types(self, tmp_path, monkeypatch, capsys, field):
        monkeypatch.chdir(tmp_path)
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"command": "estimate",
                                 "ensemble_spec": {"iid": {"n": 4, "variance": 1.0}},
                                 "n_samples": 100, **field}))
        assert run_main(["--config", str(p)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and "\n" not in err.strip()
        assert next(iter(field)) in err

    @pytest.mark.parametrize("seed", [2 ** 64, -(2 ** 63) - 1])
    def test_seed_outside_64_bits_is_one_config_line(self, tmp_path, capsys, seed):
        out = tmp_path / "x"
        assert run_main(["estimate", "--ensemble", IID8, "--n", "100",
                         "--seed", str(seed), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: config: seed must lie in [-2^63, 2^64)")
        assert "\n" not in err.strip() and not out.with_suffix(".csv").exists()

    @pytest.mark.parametrize("seed", [2 ** 64 - 1, -(2 ** 63)])
    def test_seed_at_the_ends_of_64_bits_runs(self, tmp_path, seed):
        assert run_main(["estimate", "--ensemble", IID8, "--n", "100",
                         "--seed", str(seed), "--out", str(tmp_path / "x")]) == EXIT_OK

    def test_unsorted_grid_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(["estimate", "--ensemble", IID8,
                          "--beta-grid", "2:0:-1", "--out", str(tmp_path / "x")])

    def test_small_n_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(["estimate", "--ensemble", IID8, "--n", "1",
                          "--out", str(tmp_path / "x")])

    def test_ensemble_file_path(self, tmp_path):
        p = tmp_path / "ens.json"
        p.write_text(IID8)
        cfg = parse_config(["estimate", "--ensemble", str(p),
                            "--out", str(tmp_path / "x")])
        assert cfg.ensemble_spec == str(p)

    def test_ensemble_file_runs_like_inline_spec(self, tmp_path):
        p = tmp_path / "ens.json"
        p.write_text(IID8)
        rows = []
        for tag, spec in (("inline", IID8), ("file", str(p))):
            out = tmp_path / tag
            assert run_main(["estimate", "--ensemble", spec, "--beta", "1",
                             "--n", "500", "--seed", "3",
                             "--out", str(out)]) == EXIT_OK
            # Line 0 holds the hash of the spec text, which differs here.
            rows.append(out.with_suffix(".csv").read_text().splitlines()[1:])
        assert rows[0] == rows[1]

    def test_missing_ensemble_file(self, tmp_path, capsys):
        code = run_main(["estimate", "--ensemble", str(tmp_path / "absent.json"),
                         "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: config: bad ensemble spec:")
        assert "\n" not in err.strip()

    def test_threads_flag_removed(self, tmp_path, capsys):
        code = run_main(["estimate", "--ensemble", IID8, "--threads", "2",
                         "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and "\n" not in err.strip()
        assert "--threads" in err

    def test_threads_config_key_removed(self, tmp_path, capsys):
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"command": "estimate", "ensemble_spec": IID8,
                                 "threads": 2}))
        assert run_main(["--config", str(p), "--out", str(tmp_path / "x")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and "\n" not in err.strip()
        assert "unknown config keys: ['threads']" in err

    def test_config_hash_ignores_output_knobs(self, tmp_path):
        a = parse_config(["estimate", "--ensemble", IID8, "--seed", "5",
                          "--out", str(tmp_path / "a")])
        b = parse_config(["estimate", "--ensemble", IID8, "--seed", "5",
                          "--out", str(tmp_path / "b")])
        c = parse_config(["estimate", "--ensemble", IID8, "--seed", "6",
                          "--out", str(tmp_path / "a")])
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()


class TestEstimateCommand:
    def test_centered_row(self, tmp_path, capsys):
        out = tmp_path / "est"
        code = run_main(["estimate", "--ensemble", IID2, "--beta", "0",
                         "--n", "5000", "--seed", "0", "--out", str(out)])
        assert code == EXIT_OK
        lines = (out.with_suffix(".csv")).read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert "seed=0" in lines[0]
        assert lines[1] == "observable,beta,mean,std_error,n_samples,seed"
        row = lines[2].split(",")
        assert row[0] == "gibbs_average"
        assert abs(float(row[2])) <= 3 * float(row[3])

    def test_multi_observable_grid(self, tmp_path):
        out = tmp_path / "est"
        code = run_main(["estimate", "--ensemble", IID8,
                         "--beta-grid", "0.5:1.5:0.5", "--n", "400", "--seed", "1",
                         "--observables", "gibbs_average,renyi(0.5),soft_max(0,1)",
                         "--out", str(out)])
        assert code == EXIT_OK
        body = out.with_suffix(".csv").read_text().splitlines()
        assert len(body) == 2 + 3 * 3
        names = {next(csv.reader([line]))[0] for line in body[2:]}
        assert names == {"gibbs_average", "renyi(0.5)", "soft_max(0,1)"}

    def test_soft_max_at_beta_zero_is_config_error(self, tmp_path):
        code = run_main(["estimate", "--ensemble", IID8, "--beta", "0",
                         "--n", "400", "--seed", "1",
                         "--observables", "soft_max", "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG

    def test_repeated_soft_max_index_is_error(self, tmp_path, capsys):
        code = run_main(["estimate", "--ensemble", '{"iid": {"n": 3, "variance": 1.0}}',
                         "--n", "1000", "--seed", "0",
                         "--observables", "soft_max(0),soft_max(0,0)",
                         "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()
        assert not (tmp_path / "x.csv").exists()

    def test_json_format(self, tmp_path):
        out = tmp_path / "est"
        code = run_main(["estimate", "--ensemble", IID2, "--beta", "1",
                         "--n", "300", "--seed", "2", "--format", "json",
                         "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.with_suffix(".json").read_text())
        assert doc["seed"] == 2
        assert len(doc["config_hash"]) == 12
        assert len(doc["rows"]) == 1
        assert doc["rows"][0]["observable"] == "gibbs_average"


class TestBoundsCommand:
    def test_clean_run(self, tmp_path):
        out = tmp_path / "b"
        code = run_main(["bounds", "--ensemble", IID8, "--beta", "1",
                         "--n", "4000", "--seed", "3", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.with_suffix(".csv").read_text().splitlines()
        assert lines[1] == ("name,beta,lhs_mean,lhs_se,rhs_mean,rhs_se,"
                            "slack,z,verdict")
        names = [l.split(",")[0] for l in lines[2:]]
        for expected in ("g_upper", "g_upper_entropy_form", "g_lower_lowtemp",
                         "phi_upper", "g_lower_iid", "phi_lower_iid",
                         "soft_super_sudakov", "max_upper", "max_lower"):
            assert expected in names
        verdicts = {l.split(",")[-1] for l in lines[2:]}
        assert "violated" not in verdicts

    def test_violation_exit_code(self, tmp_path):
        # c = 0.99 pushes the classical lower bound above E max for |T| = 2
        out = tmp_path / "bv"
        code = run_main(["bounds", "--ensemble", IID2, "--beta", "1",
                         "--c", "0.99", "--n", "4000", "--seed", "4",
                         "--out", str(out)])
        assert code == EXIT_VIOLATION
        rows = out.with_suffix(".csv").read_text().splitlines()[2:]
        max_lower = next(l for l in rows if l.startswith("max_lower"))
        assert max_lower.endswith("violated")

    def test_one_threshold_per_run(self, tmp_path, monkeypatch):
        # beta_star is not memoized: the run computes it once and passes it
        # to every bound that needs it.
        calls = []
        real = quench.beta_star

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for mod in (quench, bounds, rem, cli):
            if hasattr(mod, "beta_star"):
                monkeypatch.setattr(mod, "beta_star", counted)
        code = run_main(["bounds", "--ensemble", IID8, "--beta-grid", "0.5:1.5:0.5",
                         "--n", "2000", "--seed", "3", "--out", str(tmp_path / "b")])
        assert code == EXIT_OK
        assert len(calls) == 1

    def test_json_is_strict(self, tmp_path):
        # The max_* rows carry beta = inf, which strict JSON cannot hold.
        out = tmp_path / "bj"
        code = run_main(["bounds", "--ensemble", IID2, "--beta", "1",
                         "--n", "400", "--seed", "3", "--format", "json",
                         "--out", str(out)])
        assert code == EXIT_OK

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")
        doc = json.loads(out.with_suffix(".json").read_text(),
                         parse_constant=reject)
        rows = {r["name"]: r for r in doc["rows"]}
        assert rows["max_upper"]["beta"] == rows["max_lower"]["beta"] == "inf"

    def test_correlated_skips_iid_rows(self, tmp_path):
        spec = json.dumps({"labels": ["a", "b", "c"],
                           "covariance": [[1.0, 0.5, 0.2], [0.5, 1.2, 0.3],
                                          [0.2, 0.3, 0.9]]})
        out = tmp_path / "bc"
        code = run_main(["bounds", "--ensemble", spec, "--beta", "1",
                         "--n", "2000", "--seed", "5", "--out", str(out)])
        assert code == EXIT_OK
        names = {l.split(",")[0]
                 for l in out.with_suffix(".csv").read_text().splitlines()[2:]}
        assert "g_lower_iid" not in names and "phi_lower_iid" not in names
        assert "g_upper" in names


class TestRemSweepCommand:
    def test_small_sweep_with_plot(self, tmp_path):
        out = tmp_path / "rem"
        code = run_main(["rem-sweep", "--n-spins", "4", "--beta-grid", "0:1:0.5",
                         "--n", "300", "--seed", "6", "--plot", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.with_suffix(".csv").read_text().splitlines()
        assert lines[1] == ("beta,p_hat,p_se,q_lower,q_upper_min,q_upper_cap,"
                            "limit,sandwich_verdict")
        assert len(lines) == 2 + 3
        first = lines[2].split(",")
        assert float(first[1]) == math.log(2.0)
        svg = out.with_suffix(".svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg
        for curve in ("pressure", "lower", "upper min", "upper cap", "limit"):
            assert curve in svg

    def test_missing_spins_rejected(self, tmp_path):
        code = run_main(["rem-sweep", "--beta-grid", "0:1:0.5",
                         "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG


class TestOracleCheckCommand:
    def test_passes(self, tmp_path):
        out = tmp_path / "oc"
        code = run_main(["oracle-check", "--n", "20000", "--seed", "7",
                         "--out", str(out)])
        assert code == EXIT_OK
        lines = out.with_suffix(".csv").read_text().splitlines()
        assert lines[1].startswith("check,ensemble,observable,beta")
        status = {l.split(",")[-1] for l in lines[2:]}
        assert status == {"pass"}
        kinds = {l.split(",")[0] for l in lines[2:]}
        assert kinds == {"mc_vs_quadrature", "replica_identity"}


class TestExitCodes:
    def test_bad_ensemble_is_config_error(self, tmp_path, capsys):
        code = run_main(["estimate", "--ensemble", '{"iid": {"n": 1, "variance": 1}}',
                         "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()

    @pytest.mark.parametrize("spec", [
        '{"iid": {"n": 8.9, "variance": 1.0}}',
        '{"iid": {"n": "8", "variance": 1.0}}',
        '{"iid": {"n": 8, "variance": true}}',
        '{"labels": ["a", "b"], "covariance": [["1", "0.5"], [0.5, 1]]}',
        '{"labels": ["a", "b"], "covariance": [[1, 0.5], [0.5, true]]}',
        '{"labels": 5, "covariance": [[1.0, 0.0], [0.0, 1.0]]}',
        '{"labels": "ab", "covariance": [[1.0, 0.0], [0.0, 1.0]]}',
        '{"labels": [["a"], "b"], "covariance": [[1.0, 0.0], [0.0, 1.0]]}'])
    def test_bad_spec_types_are_config_errors(self, tmp_path, capsys, spec):
        code = run_main(["estimate", "--ensemble", spec, "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: config: bad ensemble spec: invalid-input:")
        assert "\n" not in err.strip()
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv, config, why", [
        (["estimate", "--ensemble", '{"iid": {"n": 4, "variance": 1.0}}',
          "--observables", "soft_max(0,99999999999999999999)"], None,
         "invalid-input: subset index out of range"),
        (["estimate", "--ensemble", '{"iid": {"n": 4, "variance": %s}}' % BIG], None,
         "invalid-input: iid variance is too large"),
        (["estimate", "--ensemble",
          '{"labels": ["a", "b"], "covariance": [[1, 0], [0, %s]]}' % BIG], None,
         "invalid-input: covariance entry [1][1] is too large"),
        ([], '{"command": "estimate", "ensemble_spec": {"labels": ["a", "b"], '
             '"covariance": [[1, 0], [0, -%s]]}}' % BIG,
         "invalid-input: covariance entry [1][1] is too large"),
        ([], '{"command": "estimate", "ensemble_spec": %s, "beta_grid": [1, %s]}'
         % (IID2, BIG), "invalid-input: a beta_grid entry is too large"),
        ([], '{"command": "estimate", "ensemble_spec": %s, "seed": %s}'
         % (IID2, "9" * 5000), "config file is not valid JSON")],
        ids=["subset", "variance", "covariance", "config-covariance",
             "config-beta-grid", "config-int-too-long"])
    def test_integers_past_a_float_or_an_index(self, tmp_path, capsys, argv,
                                              config, why):
        # Each ended in an OverflowError or ValueError traceback.
        if config is not None:
            (tmp_path / "c.json").write_text(config)
            argv = ["--config", str(tmp_path / "c.json")]
        code = run_main(argv + ["--n", "10", "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip() and why in err
        assert not (tmp_path / "x.csv").exists()

    def test_huge_iid_spec_is_config_error(self, tmp_path, capsys):
        # Rejected by the size cap before n labels are built.
        code = run_main(["estimate", "--ensemble",
                         '{"iid":{"n":1000000000,"variance":1.0}}',
                         "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and "\n" not in err.strip()

    @pytest.mark.parametrize("grid", ["0:inf:1", "nan:1:1", "0:1:nan", "0:1e12:1e-6"])
    def test_bad_grid_is_config_error(self, tmp_path, capsys, grid):
        code = run_main(["estimate", "--ensemble", IID2, "--beta-grid", grid,
                         "--n", "100", "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and "\n" not in err.strip()

    def test_oracle_grid_cap_is_run_error(self, tmp_path, capsys):
        # 300^3 nodes for the three-point fixture exceed the 2^24 cap.
        code = run_main(["oracle-check", "--n", "200", "--nodes", "300",
                         "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: run: oracle-scale:")
        assert "\n" not in err.strip()

    def test_oracle_grid_refused_before_any_estimate(self, tmp_path, capsys,
                                                     monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("estimated before the grid was checked")

        monkeypatch.setattr(quench, "mc_estimate", fail)
        code = run_main(["oracle-check", "--n", "200", "--nodes", "300",
                         "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: run: oracle-scale:")

    def test_unknown_command(self):
        assert run_main(["transmogrify"]) == EXIT_CONFIG

    def test_unwritable_output(self):
        code = run_main(["estimate", "--ensemble", IID2, "--n", "100",
                         "--out", "/nonexistent-dir/deep/x"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("obs", [
        "gibbs_average", "free_energy", "soft_max(0,1)", "participation_ratio",
        "kl_to_uniform", "renyi(0.5)", "renyi(2)", "renyi_half",
        "shannon_entropy", "expected_max", "replica_gibbs", "rem_pressure"])
    def test_extreme_beta_never_writes_nonfinite(self, tmp_path, capsys, obs):
        out = tmp_path / "x"
        code = run_main(["estimate", "--ensemble", '{"iid": {"n": 4, "variance": 1.0}}',
                         "--beta", "1e308", "--n", "100", "--observables", obs,
                         "--out", str(out)])
        if code == EXIT_OK:
            row = next(csv.reader(out.with_suffix(".csv").read_text().splitlines()[2:]))
            assert all(math.isfinite(float(v)) for v in row[1:])
        else:
            assert code == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("error: run:") and "\n" not in err.strip()

    def test_extreme_beta_participation_rows(self, tmp_path):
        # The participation ratio never forms 2 beta = inf, so these rows
        # take their point-mass limits instead of a non-finite error.
        out = tmp_path / "x"
        code = run_main(["estimate", "--ensemble", '{"iid":{"n":4,"variance":1.0}}',
                         "--beta", "1e308", "--observables",
                         "participation_ratio,renyi_half,replica_gibbs",
                         "--out", str(out)])
        assert code == EXIT_OK
        rows = list(csv.reader(out.with_suffix(".csv").read_text().splitlines()[2:]))
        assert {r[0]: float(r[2]) for r in rows} == {
            "participation_ratio": 1.0, "renyi_half": math.log(4.0),
            "replica_gibbs": 0.0}

    def test_free_energy_past_overflow_reads_the_max(self, tmp_path):
        # Lambda(1e308) overflows; the free energy and the softmax take the
        # shift out of Lambda there, so each sample reads about its max.
        out = tmp_path / "x"
        code = run_main(["estimate", "--ensemble", IID2, "--beta", "1e308",
                         "--n", "100", "--observables",
                         "free_energy,soft_max(0,1),expected_max",
                         "--out", str(out)])
        assert code == EXIT_OK
        rows = list(csv.reader(out.with_suffix(".csv").read_text().splitlines()[2:]))
        means = {r[0]: float(r[2]) for r in rows}
        top = means.pop("expected_max")
        assert all(v == pytest.approx(top, rel=1e-15) for v in means.values())

    @pytest.mark.parametrize("spec", [
        '{"iid":{"n":2,"variance":1e308}}',
        '{"labels":["a","b"],"covariance":[[1e308,0],[0,1e308]]}'])
    def test_extreme_scale_is_one_error_line(self, tmp_path, capsys, spec):
        code = run_main(["bounds", "--ensemble", spec, "--beta", "1",
                         "--n", "50", "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()
        reason = "rescale the variance" if "iid" in spec else "rescale the covariance"
        assert "scale: " in err and reason in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", [
        ["bounds", "--ensemble", '{"iid":{"n":2,"variance":6e307}}', "--beta", "1"],
        ["bounds", "--ensemble", IID8, "--beta", "1e17"],
        ["rem-sweep", "--n-spins", "4", "--beta", "1e200"]],
        ids=["bounds-6e307", "bounds-1e17", "rem-sweep-1e200"])
    def test_kl_past_cancellation_scale_gives_verdicts(self, tmp_path, command):
        # log m + beta <X> - Lambda cancelled terms near 1e154, 1e17 and
        # 1e200 here to rounding and read a divergence of about 0, which
        # called g_upper violated; without the shift E KL keeps its value
        # (log 8 on iid8 at 1e17), and every claim holds.
        out = tmp_path / "x"
        code = run_main(command + ["--n", "200", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.with_suffix(".csv").read_text().splitlines()[1:]
        header, *rows = list(csv.reader(lines))
        assert rows and all(r[-1] == "holds" for r in rows)
        for r in rows:
            assert all(math.isfinite(float(v)) for col, v in zip(header, r)
                       if col not in (header[0], "beta", "z", header[-1])), r
        if "1e17" in command:
            g_upper = next(r for r in rows if r[0] == "g_upper")
            assert float(g_upper[header.index("rhs_mean")]) == pytest.approx(
                math.sqrt(2.0 * math.log(8.0)), rel=1e-15)

    def test_tiny_variance_runs(self, tmp_path):
        # c^2 a^2 underflows at this variance; the target (c a / Delta)^2 / 2
        # does not.
        code = run_main(["bounds", "--ensemble", '{"iid":{"n":2,"variance":1e-323}}',
                         "--beta", "1", "--n", "50", "--out", str(tmp_path / "x")])
        assert code == EXIT_OK
        assert (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", ["estimate", "bounds"])
    def test_infinite_distance_is_one_scale_line(self, tmp_path, capsys, command):
        # Finite symmetrised entries whose canonical distance overflows.
        spec = '{"labels":["a","b"],"covariance":[[8e307,-8e307],[-8e307,8e307]]}'
        code = run_main([command, "--ensemble", spec, "--beta", "1", "--n", "50",
                         "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: config: bad ensemble spec: scale: ")
        assert "\n" not in err.strip() and "'a' and 'b'" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", ["estimate", "bounds"])
    def test_infinite_iid_distance_is_one_scale_line(self, tmp_path, capsys,
                                                     command):
        # sqrt(2 v) overflows although v is finite.
        code = run_main([command, "--ensemble", '{"iid":{"n":2,"variance":1e308}}',
                         "--beta", "1", "--n", "50", "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip()
        assert "scale: " in err and "canonical distance" in err
        assert not (tmp_path / "x.csv").exists()

    def test_exit_code_constants_distinct(self):
        assert len({EXIT_OK, EXIT_CONFIG, EXIT_VIOLATION, EXIT_MISMATCH}) == 4


# JSON values at the edges of what the config fields read: bools, strings,
# the largest doubles, integers past every double, and seeds at the ends of
# [-2^63, 2^64).
_EDGES = [True, False, "1", 0, 1, 2, -1, 0.5, 1e308, -1e308, int(BIG), -int(BIG),
          -2 ** 63, -2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1, 2 ** 64]
_SMALL = {
    "estimate": {"command": "estimate", "ensemble_spec": {"iid": {"n": 4, "variance": 1.0}},
                 "beta_grid": [1.0], "n_samples": 20,
                 "observables": ["gibbs_average", "soft_max(0,1)"]},
    "bounds": {"command": "bounds", "beta_grid": [1.0], "n_samples": 50,
               "ensemble_spec": {"labels": ["a", "b"],
                                 "covariance": [[1.0, 0.3], [0.3, 1.0]]}},
    "rem-sweep": {"command": "rem-sweep", "n_spins": 2, "beta_grid": [0.5, 1.0],
                  "n_samples": 50}}


def _edited(command, edits):
    """The small config of command with each (field, value) of edits set."""
    cfg = json.loads(json.dumps(_SMALL[command]))
    for field, v in edits.items():
        if field == "beta":
            cfg["beta_grid"] = [v]
        elif field == "variance":
            cfg["ensemble_spec"] = {"iid": {"n": 4, "variance": v}}
        elif field == "covariance":
            cfg["ensemble_spec"] = {"labels": ["a", "b"],
                                    "covariance": [[1.0, v], [v, 1.0]]}
        elif field == "subset":
            cfg["observables"] = [f"soft_max(0,{v})"]
        else:
            cfg[field] = v
    return cfg


class TestContractProperty:
    """Every config ends in exit 0, 1, 2 or 3; exit 1 is one error: line on
    stderr, and no output of exit 0 or 2 holds a nan cell."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(command=st.sampled_from(sorted(_SMALL)), edits=st.dictionaries(
        st.sampled_from(["n_samples", "seed", "c", "beta", "variance",
                         "covariance", "subset", "n_spins"]),
        st.sampled_from(_EDGES), max_size=2))
    @example(command="estimate", edits={"subset": 99999999999999999999})
    @example(command="estimate", edits={"subset": 2 ** 63})
    @example(command="estimate", edits={"variance": int(BIG)})
    @example(command="bounds", edits={"covariance": int(BIG)})
    @example(command="estimate", edits={"beta": int(BIG)})
    @example(command="bounds", edits={"seed": 2 ** 64 - 1, "beta": 1e308})
    def test_exit_codes_and_cells(self, command, edits):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(_edited(command, edits), fh)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = run_main(["--config", path, "--out", os.path.join(tmp, "x")])
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_VIOLATION, EXIT_MISMATCH)
            if code == EXIT_CONFIG:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("error:")
            elif code in (EXIT_OK, EXIT_VIOLATION):
                text = Path(tmp, "x.csv").read_text()
                cells = [c for line in text.splitlines()[1:] for c in line.split(",")]
                assert "nan" not in (c.strip().lower() for c in cells)


BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _bench_definitions():
    """WORKLOADS, RTOL, ATOL and VERDICT_COLUMNS of perfbench/run.py, read
    from its source as literals (the benchmark module is not imported)."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    wanted = {"WORKLOADS", "RTOL", "ATOL", "VERDICT_COLUMNS"}
    return {t.id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign)
            for t in node.targets if isinstance(t, ast.Name) and t.id in wanted}


class TestBenchmarkReference:
    """Values agree with the benchmark's reference CSVs, as the benchmark
    checks them: verdicts exactly, numbers to RTOL relative plus ATOL."""

    @pytest.mark.parametrize("workload, seed", [("rem-sweep-n10", 42),
                                                ("bounds-iid64", 7),
                                                ("estimate-iid8", 7),
                                                ("oracle-check", 14)])
    def test_matches_reference(self, tmp_path, workload, seed):
        bench = _bench_definitions()
        rtol, atol = bench["RTOL"], bench["ATOL"]
        out = tmp_path / "x"
        assert run_main([*bench["WORKLOADS"][workload], "--seed", str(seed),
                         "--out", str(out)]) == EXIT_OK
        got = out.with_suffix(".csv").read_text().splitlines()
        want = (BENCH / "reference" / workload / f"{seed}.csv").read_text().splitlines()
        assert got[:2] == want[:2]  # config hash line and header
        assert len(got) == len(want)
        header = want[1].split(",")
        for row, ref in zip(csv.reader(got[2:]), csv.reader(want[2:])):
            for col, a, r in zip(header, row, ref):
                try:
                    a_num, r_num = float(a), float(r)
                except ValueError:
                    a_num = r_num = None
                if col in bench["VERDICT_COLUMNS"] or r_num is None:
                    assert a == r, (col, row, ref)
                elif math.isinf(r_num) or math.isinf(a_num):
                    assert a_num == r_num, (col, row, ref)
                else:
                    assert abs(a_num - r_num) <= (
                        rtol * max(abs(a_num), abs(r_num)) + atol), (col, row, ref)


class TestModuleEntry:
    """`python -m softmaxima` runs the CLI in a fresh interpreter."""

    @staticmethod
    def _module(*argv):
        src = str(Path(sm.__file__).resolve().parents[1])
        return subprocess.run([sys.executable, "-m", "softmaxima", *argv],
                              cwd=src, capture_output=True, text=True)

    def test_writes_csv(self, tmp_path):
        out = tmp_path / "m"
        proc = self._module("estimate", "--ensemble", IID2, "--n", "100",
                            "--seed", "3", "--out", str(out))
        assert proc.returncode == EXIT_OK, proc.stderr
        lines = out.with_suffix(".csv").read_text().splitlines()
        assert len(lines) == 3 and lines[1].startswith("observable,")

    def test_bad_config_is_one_error_line(self, tmp_path):
        proc = self._module("estimate", "--ensemble", IID2, "--n", "1",
                            "--out", str(tmp_path / "m"))
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("error:")
        assert "\n" not in proc.stderr.strip()
        assert not (tmp_path / "m.csv").exists()


class TestDeterminism:
    def test_oracle_check_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        src = str(Path(sm.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"oc{threads}"
            env = {k: v for k, v in os.environ.items()
                   if not k.endswith("_NUM_THREADS")}
            env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "softmaxima", "oracle-check", "--n", "2000",
                 "--seed", "3", "--out", str(out)],
                env=env, capture_output=True, text=True)
            assert proc.returncode == EXIT_OK, proc.stderr
            outs.append(out.with_suffix(".csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("workload", ["estimate-iid8", "bounds-iid64",
                                          "oracle-check", "rem-sweep-n10"])
    def test_bytes_do_not_depend_on_pass_threads(self, tmp_path, monkeypatch,
                                                 workload):
        # Each workload's shifted passes on one thread and on two; the
        # rem-sweep plot too.
        args = _bench_definitions()["WORKLOADS"][workload]
        if workload == "rem-sweep-n10":
            args = [*args, "--plot"]
        outs = []
        for threads in (1, 2):
            monkeypatch.setattr(sm.gibbs, "_THREADS", threads)
            quench.clear_cache()
            out = tmp_path / f"t{threads}"
            assert run_main([*args, "--seed", "7", "--out", str(out)]) == EXIT_OK
            outs.append(sorted((p.suffix, p.read_bytes())
                               for p in tmp_path.glob(f"t{threads}.*")))
        assert [suffix for suffix, _ in outs[0]] == (
            [".csv", ".svg"] if workload == "rem-sweep-n10" else [".csv"])
        assert outs[0] == outs[1]

    def test_same_config_same_bytes(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run_main(["estimate", "--ensemble", IID8,
                             "--beta-grid", "0:2:1", "--n", "3000", "--seed", "11",
                             "--out", str(out)]) == EXIT_OK
            outs.append(out.with_suffix(".csv").read_bytes())
        assert outs[0] == outs[1]

    def test_float_fields_roundtrip_exactly(self, tmp_path):
        out = tmp_path / "rt"
        run_main(["estimate", "--ensemble", IID2, "--beta", "1",
                  "--n", "2000", "--seed", "13", "--out", str(out)])
        row = out.with_suffix(".csv").read_text().splitlines()[2].split(",")
        est = sm.mc_estimate(sm.build_iid(2, 1.0), sm.GIBBS_AVERAGE, 1.0, 2000, 13)
        assert float(row[2]) == est.mean
        assert float(row[3]) == est.std_error
