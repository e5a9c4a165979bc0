"""Experiment runner: config ingestion, seeding, and CSV/JSON/SVG emission.

Four commands share one configuration shape:

    estimate      quenched estimates for observables x beta grid
    bounds        every applicable inequality as a verdict row
    rem-sweep     finite-size pressure sandwich (optionally plotted)
    oracle-check  Monte Carlo vs quadrature and the replica identity

Exit codes: 0 success, 1 configuration error, 2 a proved bound came back
`violated`, 3 an oracle comparison failed.  Identical configuration and seed
produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from . import gibbs, quench
from . import rem as rem_mod
from .ensemble import IndexedEnsemble, build_from_covariance, build_iid, from_spec
from .quench import UnboundedThresholdError
from .svgplot import write_line_chart

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VIOLATION = 2
EXIT_MISMATCH = 3

COMMANDS = ("estimate", "bounds", "rem-sweep", "oracle-check")
MAX_GRID_POINTS = 10_000


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 1."""


@dataclass
class ExperimentConfig:
    command: str
    ensemble_spec: dict | str | None = None
    beta_grid: tuple[float, ...] = (1.0,)
    n_samples: int = 10_000
    seed: int = 0
    c: float = quench.SUDAKOV_C
    output: str = "softmaxima_run"
    format: str = "csv"
    plot: bool = False
    observables: tuple[str, ...] = ("gibbs_average",)
    n_spins: int | None = None
    nodes: int = quench.ORACLE_NODES

    def config_hash(self) -> str:
        """Fingerprint of the semantic fields.  The output destination and
        the SVG switch are deliberately excluded: they may not change
        results."""
        payload = dataclasses.asdict(self)
        del payload["output"], payload["plot"]
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:12]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="softmaxima", add_help=True,
                description="Smoothed maxima of finite Gaussian ensembles: "
                            "estimates, bound verdicts, and the REM sandwich.")
    p.add_argument("command", nargs="?", choices=COMMANDS)
    p.add_argument("--config", help="JSON file with ExperimentConfig fields")
    p.add_argument("--ensemble",
                   help="ensemble spec: inline JSON or a path to a JSON file")
    p.add_argument("--n", type=int, help="Monte Carlo samples per estimate")
    p.add_argument("--seed", type=int, help="64-bit master seed")
    p.add_argument("--beta", type=float, help="single inverse temperature")
    p.add_argument("--beta-grid", dest="beta_grid",
                   help='inverse temperature grid "start:stop:step" (inclusive)')
    p.add_argument("--c", type=float, help="Sudakov constant in (0,1)")
    p.add_argument("--out", help="output path prefix")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--plot", action="store_true", default=None,
                   help="emit an SVG chart (rem-sweep)")
    p.add_argument("--observables",
                   help="comma-separated observable names (estimate)")
    p.add_argument("--n-spins", dest="n_spins", type=int,
                   help="REM spin count (rem-sweep)")
    p.add_argument("--nodes", type=int,
                   help="quadrature nodes per dimension (oracle-check)")
    return p


def _parse_grid(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(
            f'beta grid must be "start:stop:step", got {text!r}')
    try:
        start, stop, step = (float(v) for v in parts)
    except ValueError:
        raise ConfigError(f"beta grid has non-numeric parts: {text!r}") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ConfigError(f"beta grid parts must be finite: {text!r}")
    if step <= 0 or stop < start:
        raise ConfigError(f"beta grid must ascend with positive step: {text!r}")
    last = (stop - start) / step + 1e-9
    # "not <" also refuses a span that overflowed to inf.
    if not last < MAX_GRID_POINTS:
        raise ConfigError(
            f"beta grid has more than {MAX_GRID_POINTS} points: {text!r}")
    return tuple(start + step * k for k in range(int(math.floor(last)) + 1))


def parse_config(argv) -> ExperimentConfig:
    args = _build_parser().parse_args(argv)

    data = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(data) - {f.name for f in dataclasses.fields(ExperimentConfig)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    command = args.command or data.get("command")
    if command not in COMMANDS:
        raise ConfigError(
            f"command must be one of {list(COMMANDS)}, got {command!r}")

    # Only values a flag or the file supplies are passed; the rest take the
    # ExperimentConfig defaults.
    values = {key: v for key, v in data.items() if key != "command"}
    if args.beta is not None and args.beta_grid is not None:
        raise ConfigError("give either --beta or --beta-grid, not both")
    if args.beta is not None:
        values["beta_grid"] = (float(args.beta),)
    elif args.beta_grid is not None:
        values["beta_grid"] = _parse_grid(args.beta_grid)
    elif "beta_grid" in data:
        raw = data["beta_grid"]
        if isinstance(raw, str):
            values["beta_grid"] = _parse_grid(raw)
        elif isinstance(raw, list) and all(type(b) in (int, float) for b in raw):
            values["beta_grid"] = tuple(float(b) for b in raw)
        else:
            raise ConfigError(
                f"beta_grid must be a grid string or a list of numbers, got {raw!r}")

    if args.observables is not None:
        values["observables"] = _split_observables(args.observables)
    elif "observables" in data:
        observables = data["observables"]
        if not (isinstance(observables, list)
                and all(isinstance(o, str) for o in observables)):
            raise ConfigError(
                f"observables must be a list of names, got {observables!r}")
        values["observables"] = tuple(observables)

    flags = {"ensemble_spec": args.ensemble, "n_samples": args.n,
             "seed": args.seed, "c": args.c, "output": args.out,
             "format": args.format, "plot": args.plot,
             "n_spins": args.n_spins, "nodes": args.nodes}
    values.update((key, v) for key, v in flags.items() if v is not None)
    cfg = ExperimentConfig(command=command, **values)
    _validate(cfg)
    return cfg


def _split_observables(text: str) -> tuple[str, ...]:
    # Commas inside parentheses belong to the observable, e.g. soft_max(0,1).
    parts, buf, depth = [], [], 0
    for ch in text:
        if ch == "," and depth == 0:
            parts.append("".join(buf).strip())
            buf = []
            continue
        depth += ch == "("
        depth -= ch == ")"
        buf.append(ch)
    parts.append("".join(buf).strip())
    return tuple(p for p in parts if p)


def _validate(cfg: ExperimentConfig) -> None:
    # Config-file values arrive as arbitrary JSON: a field's type is checked
    # before it is compared or used, and a JSON true is not the integer 1.
    if type(cfg.n_samples) is not int or cfg.n_samples < 2:
        raise ConfigError(f"n_samples must be an integer >= 2, got {cfg.n_samples}")
    if type(cfg.seed) is not int:
        raise ConfigError(f"seed must be an integer, got {cfg.seed!r}")
    if not (type(cfg.c) in (int, float) and 0.0 < cfg.c < 1.0):
        raise ConfigError(f"c must lie in (0, 1), got {cfg.c}")
    if not isinstance(cfg.output, str):
        raise ConfigError(f"output must be a path string, got {cfg.output!r}")
    if not isinstance(cfg.plot, bool):
        raise ConfigError(f"plot must be true or false, got {cfg.plot!r}")
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {cfg.format!r}")
    if len(cfg.beta_grid) == 0:
        raise ConfigError("beta grid must be nonempty")
    if any(b < 0 or not math.isfinite(b) for b in cfg.beta_grid):
        raise ConfigError("beta grid entries must be finite and nonnegative")
    if any(b2 <= b1 for b1, b2 in zip(cfg.beta_grid, cfg.beta_grid[1:])):
        raise ConfigError("beta grid must be strictly increasing")
    if cfg.command in ("estimate", "bounds") and cfg.ensemble_spec is None:
        raise ConfigError(f"{cfg.command} needs an ensemble spec")
    if cfg.command == "rem-sweep" and cfg.n_spins is None:
        raise ConfigError("rem-sweep needs n_spins")
    if cfg.n_spins is not None and type(cfg.n_spins) is not int:
        raise ConfigError(f"n_spins must be an integer, got {cfg.n_spins!r}")
    if type(cfg.nodes) is not int:
        raise ConfigError(f"nodes must be an integer, got {cfg.nodes!r}")
    if cfg.command == "estimate" and not cfg.observables:
        raise ConfigError("estimate needs at least one observable")


def _resolve_ensemble(spec) -> IndexedEnsemble:
    try:
        if isinstance(spec, dict):
            return from_spec(spec)
        if isinstance(spec, str):
            text = spec.strip()
            if text.startswith("{"):
                return from_spec(json.loads(text))
            with open(text, "r", encoding="utf-8") as fh:
                return from_spec(json.load(fh))
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        raise ConfigError(f"bad ensemble spec: {exc}") from None
    raise ConfigError(f"unsupported ensemble spec: {spec!r}")


# -- emission -------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return repr(v)
    text = str(v)
    if "," in text or '"' in text or "\n" in text:
        text = '"' + text.replace('"', '""') + '"'
    return text


def _emit(cfg: ExperimentConfig, headers, rows) -> str:
    path = cfg.output + ("." + cfg.format)
    meta = f"config_hash={cfg.config_hash()} seed={cfg.seed}"
    if cfg.format == "csv":
        lines = [f"# {meta}", ",".join(headers)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        payload = "\n".join(lines) + "\n"
    else:
        # Strict JSON has no infinities: write them as the CSV does.
        doc = {"config_hash": cfg.config_hash(), "seed": cfg.seed,
               "rows": [{h: _fmt(v) if isinstance(v, float) and math.isinf(v)
                         else v for h, v in zip(headers, row)}
                        for row in rows]}
        payload = json.dumps(doc, sort_keys=True, indent=1, default=str,
                             allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(payload)
    return path


# -- command bodies ---------------------------------------------------------------

def _run_estimate(cfg: ExperimentConfig):
    ens = _resolve_ensemble(cfg.ensemble_spec)
    try:
        obs_list = [gibbs.parse_observable(t) for t in cfg.observables]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    headers = ["observable", "beta", "mean", "std_error", "n_samples", "seed"]
    pairs = [(obs, beta) for obs in obs_list for beta in cfg.beta_grid]
    estimates = quench.mc_estimates(ens, pairs, cfg.n_samples, cfg.seed)
    rows = [[obs.name, beta, est.mean, est.std_error, est.n_samples, est.seed]
            for (obs, beta), est in zip(pairs, estimates)]
    return headers, rows, EXIT_OK, None


def _run_bounds(cfg: ExperimentConfig):
    ens = _resolve_ensemble(cfg.ensemble_spec)
    n, seed = cfg.n_samples, cfg.seed
    threshold = quench.beta_star(ens, cfg.c, n, seed)

    reports = []
    for beta in cfg.beta_grid:
        reports.extend(bounds_mod.divergence_bounds(ens, beta, threshold, n, seed))
        if beta > 0:
            reports.append(bounds_mod.soft_super_sudakov(ens, beta, n, seed))
    reports.extend(bounds_mod.max_bounds(ens, n, seed, cfg.c))

    headers = ["name", "beta", "lhs_mean", "lhs_se", "rhs_mean", "rhs_se",
               "slack", "z", "verdict"]
    rows = [[r.name, r.beta, r.lhs[0], r.lhs[1], r.rhs[0], r.rhs[1],
             r.slack, r.z, r.verdict] for r in reports]
    code = (EXIT_VIOLATION
            if any(r.verdict == "violated" for r in reports) else EXIT_OK)
    return headers, rows, code, None


def _run_rem_sweep(cfg: ExperimentConfig):
    model = rem_mod.rem_model(cfg.n_spins)
    curve = rem_mod.pressure_sweep(model, list(cfg.beta_grid), cfg.n_samples,
                                   cfg.seed, cfg.c)
    headers = ["beta", "p_hat", "p_se", "q_lower", "q_upper_min",
               "q_upper_cap", "limit", "sandwich_verdict"]
    rows = [[r.beta, r.p_hat.mean, r.p_hat.std_error, r.q_lower,
             r.q_upper_min, r.q_upper_cap, r.limit, r.sandwich_verdict]
            for r in curve.rows]
    svg_path = None
    if cfg.plot:
        betas = [r.beta for r in curve.rows]
        series = [
            ("pressure", betas, [r.p_hat.mean for r in curve.rows]),
            ("lower", betas, [r.q_lower for r in curve.rows]),
            ("upper min", betas, [r.q_upper_min for r in curve.rows]),
            ("upper cap", betas, [r.q_upper_cap for r in curve.rows]),
            ("limit", betas, [r.limit for r in curve.rows]),
        ]
        svg_path = cfg.output + ".svg"
        write_line_chart(svg_path, series,
                         title=f"REM pressure sandwich, N={model.n_spins}",
                         xlabel="beta", ylabel="pressure")
    code = (EXIT_VIOLATION
            if any(r.sandwich_verdict == "violated" for r in curve.rows)
            else EXIT_OK)
    return headers, rows, code, svg_path


_CHECK_OBSERVABLES = tuple(gibbs.parse_observable(text) for text in (
    "gibbs_average", "free_energy", "participation_ratio", "kl_to_uniform",
    "renyi(0.5)"))
_CHECK_BETAS = (0.25, 1.0, 4.0)
# The expected max does not depend on beta; its rows read beta = inf.
_CHECK_MAX = (gibbs.EXPECTED_MAX, 0.0)
# The Monte Carlo estimates one fixture compares, taken with the max.
_CHECK_MC_PAIRS = tuple((obs, beta) for obs in _CHECK_OBSERVABLES
                        for beta in _CHECK_BETAS)
# The quadrature values one fixture needs, all taken in one grid pass: each
# observable at each beta, the replica statistic at each beta, and the max.
_CHECK_PAIRS = (_CHECK_MC_PAIRS
                + tuple((gibbs.REPLICA_GIBBS, beta) for beta in _CHECK_BETAS)
                + (_CHECK_MAX,))
# Tensor quadrature of the kinked max integrand converges slowly; give that
# row a fixed allowance on top of the Monte Carlo band.
_MAX_ORACLE_ALLOWANCE = 5e-3
_REPLICA_ORACLE_TOL = 1e-6


def _check_fixtures():
    corr = [[1.0, 0.5, 0.2], [0.5, 1.2, 0.3], [0.2, 0.3, 0.9]]
    return (("iid2", build_iid(2, 1.0)),
            ("corr3", build_from_covariance(["a", "b", "c"], corr)))


def _run_oracle_check(cfg: ExperimentConfig):
    headers = ["check", "ensemble", "observable", "beta", "value_a", "value_b",
               "tol", "status"]
    rows = []
    failed = False
    n, seed, nodes = cfg.n_samples, cfg.seed, cfg.nodes
    fixtures = _check_fixtures()
    # Refuse a grid the largest fixture cannot take before any estimate.
    quench._oracle_rule(max(ens.size for _, ens in fixtures), nodes)
    for ens_name, ens in fixtures:
        quadrature = dict(zip(_CHECK_PAIRS,
                              quench.quadrature_oracles(ens, _CHECK_PAIRS, nodes)))
        *estimates, emax = quench.mc_estimates(
            ens, _CHECK_MC_PAIRS + (_CHECK_MAX,), n, seed)
        for (obs, beta), est in zip(_CHECK_MC_PAIRS, estimates):
            oracle = quadrature[obs, beta]
            tol = quench.Z_MARGIN * est.std_error
            ok = abs(est.mean - oracle) <= tol
            failed |= not ok
            rows.append(["mc_vs_quadrature", ens_name, obs.name, beta,
                         est.mean, oracle, tol, "pass" if ok else "fail"])
        for beta in _CHECK_BETAS:
            direct = quadrature[gibbs.GIBBS_AVERAGE, beta]
            replica = quadrature[gibbs.REPLICA_GIBBS, beta]
            ok = abs(direct - replica) <= _REPLICA_ORACLE_TOL
            failed |= not ok
            rows.append(["replica_identity", ens_name, "gibbs_average", beta,
                         direct, replica, _REPLICA_ORACLE_TOL,
                         "pass" if ok else "fail"])
        oracle = quadrature[_CHECK_MAX]
        tol = quench.Z_MARGIN * emax.std_error + _MAX_ORACLE_ALLOWANCE
        ok = abs(emax.mean - oracle) <= tol
        failed |= not ok
        rows.append(["mc_vs_quadrature", ens_name, "expected_max", math.inf,
                     emax.mean, oracle, tol, "pass" if ok else "fail"])
    return headers, rows, EXIT_MISMATCH if failed else EXIT_OK, None


def run(config: ExperimentConfig) -> int:
    """Execute one configured command; emit files; return the exit code."""
    handler = {"estimate": _run_estimate,
               "bounds": _run_bounds,
               "rem-sweep": _run_rem_sweep,
               "oracle-check": _run_oracle_check}[config.command]
    headers, rows, code, extra = handler(config)
    path = _emit(config, headers, rows)
    written = path if extra is None else f"{path} {extra}"
    print(f"{config.command}: wrote {written} ({len(rows)} rows), exit {code}")
    return code


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        cfg = parse_config(argv)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        # Overflow shows up as a non-finite estimate, which is reported as an
        # error; numpy's warnings would only add lines to that report.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return run(cfg)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, UnboundedThresholdError, OSError) as exc:
        print(f"error: run: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
