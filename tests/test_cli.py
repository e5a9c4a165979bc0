"""Config ingestion, all four commands, exit codes, emission determinism."""

import csv
import json
import math

import numpy as np
import pytest

import softmaxima as sm
from softmaxima import bounds, cli, quench, rem
from softmaxima.cli import (EXIT_CONFIG, EXIT_MISMATCH, EXIT_OK,
                            EXIT_VIOLATION, ConfigError, main, parse_config)

IID2 = '{"iid": {"n": 2, "variance": 1.0}}'
IID8 = '{"iid": {"n": 8, "variance": 1.0}}'


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
        {"seed": True}, {"n_spins": True}])
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
        '{"labels": ["a", "b"], "covariance": [[1, 0.5], [0.5, true]]}'])
    def test_bad_spec_types_are_config_errors(self, tmp_path, capsys, spec):
        code = run_main(["estimate", "--ensemble", spec, "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: config: bad ensemble spec: invalid-input:")
        assert "\n" not in err.strip()
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

    def test_free_energy_overflow_is_an_error(self, tmp_path, capsys):
        # Lambda(1e308) overflows, so the free energy is inf: an error line,
        # never a silent inf in the CSV.
        code = run_main(["estimate", "--ensemble", IID2, "--beta", "1e308",
                         "--n", "100", "--observables", "free_energy",
                         "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: run:") and "\n" not in err.strip()
        assert not (tmp_path / "x.csv").exists()

    def test_exit_code_constants_distinct(self):
        assert len({EXIT_OK, EXIT_CONFIG, EXIT_VIOLATION, EXIT_MISMATCH}) == 4


class TestDeterminism:
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
