"""One benchmark process: import softmaxima, do one job, write a JSON record.

    python3 perfbench/child.py <mode> <record.json> [args...]

Modes:
    setup   import only; the record holds the import mark
    cli     run the CLI on args exactly as the `softmaxima` console script does
    trace   the same, with timing wrappers installed in every consumer
            module's namespace; the record also holds the spans and the
            measured cost of one wrapped call
    sheet   fixed-shape layer timings; args are <cli seed> <scratch dir>
            <bounds reference csv>

The record holds `t_import`, the CLOCK_MONOTONIC time at which `softmaxima`
finished importing, so the parent can split the process's life into set-up
(spawn to import) and command time (import to exit).  It also holds
`exit_mismatch`, the CLI's exit code for a failed comparison, which the
parent expects when a row reads `fail`.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import softmaxima.cli as cli  # noqa: E402

T_IMPORT = time.monotonic()

import functools  # noqa: E402
import inspect  # noqa: E402
import weakref  # noqa: E402

import numpy as np  # noqa: E402

from softmaxima import bounds, ensemble, gibbs, quench, rem  # noqa: E402

LAYERS = (ensemble, gibbs, quench, bounds, rem, cli)
# Wrapped besides the public functions: the kernel dispatch that observables
# go through, and CSV emission, which the layer sheet times on its own.
EXTRA = ((gibbs.Observable, "evaluate", "gibbs.Observable.evaluate"),
         (cli, "_emit", "cli._emit"))
# The parent (run.py) finds batch requests by the `hit` flag set on them.
BATCH_NAMES = ("quench.realization_batch", "quench.standard_normal_batch")


class Tracer:
    """Spans [name, parent, start, end, info] kept in memory, in start order."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._returned = weakref.WeakValueDictionary()

    def wrap(self, name, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, self._stack[-1] if self._stack else -1,
                    time.perf_counter(), None, self._arg_info(name, sig, args, kwargs)]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            self._result_info(name, span[4], result)
            return result

        return traced

    @staticmethod
    def _arg_info(name, sig, args, kwargs):
        info = {}
        for a in args:
            if isinstance(a, np.ndarray):
                info["elements"] = int(a.size)
                break
        if name == "quench.quadrature_oracle":
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            ens, k = bound.arguments["ens"], bound.arguments["nodes_per_dim"]
            info["nodes"] = int(k) ** ens.size
        return info

    def _result_info(self, name, info, result):
        if name in BATCH_NAMES:
            info["rows"] = int(result.shape[0])
            # A hit is an array object this process was already handed; the
            # weak map forgets arrays once freed, so a reused id is no hit.
            info["hit"] = self._returned.get(id(result)) is result
            self._returned[id(result)] = result
        elif name.startswith("bounds."):
            reports = result if isinstance(result, tuple) else (result,)
            reports = [r for r in reports if isinstance(r, bounds.BoundReport)]
            info["reports"] = len(reports)
            info["inconclusive"] = sum(r.verdict == "inconclusive" for r in reports)

    def install(self):
        """Replace each traced function in every module that holds it.

        `bounds` and `rem` import quench functions by name and `cli` imports
        ensemble builders by name, so patching the defining module alone
        would miss their calls.
        """
        originals = {}
        for mod in LAYERS:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    originals[value] = f"{short}.{attr}"
        extra = [(owner, attr, getattr(owner, attr), name) for owner, attr, name in EXTRA]
        originals.update({fn: name for _, _, fn, name in extra})
        wrappers = {fn: self.wrap(name, fn) for fn, name in originals.items()}
        namespaces = [vars(m) for m in sys.modules.values()
                      if m is not None and m.__name__.split(".")[0] == "softmaxima"]
        for ns in namespaces:
            for attr, value in list(ns.items()):
                if inspect.isfunction(value) and value in wrappers:
                    ns[attr] = wrappers[value]
        for owner, attr, fn, _ in extra:
            setattr(owner, attr, wrappers[fn])


def wrapper_cost():
    """Seconds one wrapped call adds to a plain call, measured on a no-op
    that takes an array, as the traced kernels do."""
    reps, batches = 2_000, 20
    def noop(x):
        return x

    tracer = Tracer()
    traced = tracer.wrap("calibration.noop", noop)
    arg = np.zeros(1)

    def per_call(fn):
        t = time.perf_counter()
        for _ in range(reps):
            fn(arg)
        elapsed = time.perf_counter() - t
        # Kept, the calibration spans would raise the traced process's peak
        # RSS (by 36 MB for 100 000 of them).
        tracer.spans.clear()
        return elapsed / reps

    return (min(per_call(traced) for _ in range(batches))
            - min(per_call(noop) for _ in range(batches)))


def _median_time(fn, reps):
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return float(np.median(times))


def _cold_fill_us(ens, n, seed):
    quench.clear_cache()
    t = time.perf_counter()
    quench.realization_batch(ens, n, seed)
    return (time.perf_counter() - t) / n * 1e6


SHEET_OBSERVABLES = (
    ("gibbs_average", gibbs.GIBBS_AVERAGE),
    ("free_energy", gibbs.FREE_ENERGY),
    ("participation_ratio", gibbs.PARTICIPATION_RATIO),
    ("kl_to_uniform", gibbs.KL_TO_UNIFORM),
    ("renyi_0.5", gibbs.renyi_observable(0.5)),
    ("renyi_half", gibbs.RENYI_HALF),
    ("shannon_entropy", gibbs.SHANNON_ENTROPY),
    ("soft_max", gibbs.soft_max_observable((0, 1, 2, 3))),
    ("expected_max", gibbs.EXPECTED_MAX),
    ("replica_gibbs", gibbs.REPLICA_GIBBS),
    ("rem_pressure", gibbs.REM_PRESSURE),
)


def _number_or_text(cell):
    try:
        return float(cell)
    except ValueError:
        return cell


def sheet(seed, scratch, bounds_csv):
    """Each layer timed on its own at the shape of the workload it serves."""
    out = {}
    iid8 = ensemble.build_iid(8, 1.0)
    out["sheet.fill_us_per_sample.1e5x8"] = _cold_fill_us(iid8, 100_000, seed)
    out["sheet.fill_us_per_sample.2000x1024"] = _cold_fill_us(
        rem.rem_model(10).ensemble, 2000, seed)

    quench.clear_cache()
    x8 = quench.realization_batch(iid8, 100_000, seed)
    for label, obs in SHEET_OBSERVABLES:
        out[f"sheet.kernel_ms.{label}"] = 1e3 * _median_time(
            lambda: quench.evaluate_values(iid8, obs, x8, 1.0), 3)

    quench.clear_cache()
    x64 = quench.realization_batch(ensemble.build_iid(64, 1.0), 20_000, seed)
    out["sheet.probe_ms"] = 1e3 * _median_time(
        lambda: gibbs.participation_ratio(x64, 1.0), 5)

    corr3 = dict(cli._check_fixtures())["corr3"]
    out["sheet.quadrature_call_s"] = _median_time(
        lambda: quench.quadrature_oracle(corr3, gibbs.GIBBS_AVERAGE, 1.0, 128), 3)

    # Imported here, not at the top, so that cli mode's timed command loads
    # nothing beyond softmaxima.
    from run import read_csv
    _, (headers, *rows) = read_csv(bounds_csv)
    rows = [[_number_or_text(cell) for cell in row] for row in rows]
    cfg = cli.ExperimentConfig(command="bounds", output=str(Path(scratch) / "sheet"))
    out["sheet.emit_ms"] = 1e3 * _median_time(lambda: cli._emit(cfg, headers, rows), 20)
    return out


def main():
    mode, record_path, args = sys.argv[1], Path(sys.argv[2]), sys.argv[3:]
    record = {"t_import": T_IMPORT, "exit_mismatch": cli.EXIT_MISMATCH}
    code = 0
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
        code = cli.main(args)
        record["spans"] = tracer.spans
        record["wrapper_s"] = wrapper_cost()
    elif mode == "cli":
        code = cli.main(args)
    elif mode == "sheet":
        record["sheet"] = sheet(int(args[0]), args[1], args[2])
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    record_path.write_text(json.dumps(record), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
