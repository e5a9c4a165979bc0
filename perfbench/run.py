"""softmaxima benchmark: each CLI command in fresh processes, timed and checked.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from `src/`.
Every command runs as a user runs it: one fresh single-threaded process per
run (`--threads` is never passed, and BLAS runs one thread), cold caches,
timed from outside.  glibc keeps freed arrays for reuse (see CHILD_ENV).

--trace 0 prints the end-to-end metrics: `wall_s` (median time of the command
in its process, import excluded), `setup_s` (median time from spawn until
`softmaxima` is imported, over the command processes and the import-only
processes) and `peak_rss_mb` (median peak resident set of the command
processes).  Three import-only processes run first.  Command processes start
one after another while the next one is expected to end within --seconds of
the run's start; at least one runs.  More import-only processes fill the rest
of the --seconds.

--trace 1 prints the per-layer metrics: one untraced process, two processes
with timing wrappers installed from outside the program (see child.py) and
one process timing each layer on its own at fixed shapes (the layer sheet).

A process fails when its exit code is wrong, its CSV holds `nan` or the wrong
number of rows, two processes of one seed write different bytes, a verdict or
status cell differs from the reference CSV recorded at the commit that
introduced this benchmark, or a numeric cell differs from that reference by
more than RTOL (relative) plus ATOL (absolute).  The last line of output is
one JSON object: {"correct", "attempted", "failed", "metrics"}, holding the
metrics that BENCHMARK.json names, with its units.
"""

import argparse
import csv
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference"

# Changing the order of a reduction (a new log-sum-exp, a cached quadrature
# grid, a vectorised fill) moves each per-sample value by a few ulps (1.8e-15
# on 1e5 x 64 for the log-sum-exp) and the CSV means, errors, slacks and
# z-scores derived from them by under 1e-12 relative.  A changed value (a
# different sample stream, a wrong kernel) moves them by at least the order of
# a Monte Carlo standard error, 1e-5 or more.  1e-9 sits between the two.
# ATOL covers cells that are exactly zero at the reference, such as the slack
# and z of an inequality whose two sides coincide.
RTOL = 1e-9
ATOL = 1e-12
VERDICT_COLUMNS = ("verdict", "status", "sandwich_verdict")
SETUP_PROBES = 3
RUN_LIMIT_S = 170        # every process is killed past this point of a run
# Set in every child.  Without the first three, OpenBLAS runs one thread per
# core in the quadrature matmul, and oracle-check's wall time follows the
# host's core count and steal time.  Without the last two, glibc hands each
# array over 128 KiB back to the kernel when it is freed, so every new batch
# or node grid faults its pages in afresh (435 000 faults, 3 s of system time
# in an 11 s rem-sweep-n10), and what a fault costs swung that workload's
# wall time by 28% between two sets of runs on one host.  Arrays up to
# 32 MiB, the most glibc allows, come from a heap that is never trimmed.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
             "MALLOC_TRIM_THRESHOLD_": str(1 << 40)}
# Counts that must repeat exactly between two traced runs of the same code.
EXACT_COUNTS = ("quench.samples_drawn", "quench.batch_requests",
                "quench.beta_star_probes", "quench.quadrature_calls",
                "quench.quadrature_nodes", "bounds.reports", "cli.bytes_written")


# CLI arguments of each workload, without --seed and --out.  Each puts most
# of its time in a different layer; BENCHMARK.json says which.
WORKLOADS = {
    "estimate-iid8": (
        "estimate", "--ensemble", '{"iid":{"n":8,"variance":1.0}}',
        "--beta-grid", "0:2:0.5", "--n", "200000", "--observables",
        "gibbs_average,free_energy,renyi(0.5),participation_ratio"),
    "bounds-iid64": (
        "bounds", "--ensemble", '{"iid":{"n":64,"variance":1.0}}',
        "--beta-grid", "0.5:2:0.75", "--n", "20000"),
    # 128 nodes, the default: at 64 or 96 the 1e-6 replica identity fails.
    "oracle-check": ("oracle-check", "--n", "2000"),
    "rem-sweep-n10": (
        "rem-sweep", "--n-spins", "10", "--beta-grid", "0:4:0.25", "--n", "2000"),
}


def reference_seeds(workload):
    """CLI seeds with a reference CSV; the benchmark seed picks one."""
    return sorted(int(p.stem) for p in (REFERENCE / workload).glob("*.csv"))


# -- processes -------------------------------------------------------------------

_names = itertools.count()


def _median(values):
    """Median of the finite values; a process killed before its import mark
    has no times, and fails its output check."""
    finite = [v for v in values if math.isfinite(v)]
    return statistics.median(finite) if finite else 0.0


@dataclass
class Proc:
    mode: str
    exit_code: int
    setup_s: float
    wall_s: float
    peak_rss_mb: float
    record: dict
    stderr: str
    csv_path: Path | None


def spawn(mode, args, workdir, deadline, csv_path=None):
    """Run child.py in a fresh interpreter; time it and reap it with wait4."""
    tag = f"{mode}-{next(_names)}"
    record_path = workdir / f"{tag}.json"
    err_path = workdir / f"{tag}.err"
    with open(err_path, "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(CHILD), mode, str(record_path), *args],
                                cwd=ROOT, env={**os.environ, **CHILD_ENV},
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(deadline - t_spawn, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    t_import = record.get("t_import", math.nan)
    return Proc(mode=mode, exit_code=proc.returncode, setup_s=t_import - t_spawn,
                wall_s=t_exit - t_import, peak_rss_mb=usage.ru_maxrss / 1024.0,
                record=record, stderr=err_path.read_text(errors="replace").strip(),
                csv_path=csv_path)


def spawn_command(mode, workload, cli_seed, workdir, deadline):
    out = workdir / f"out-{next(_names)}"
    args = [*WORKLOADS[workload], "--seed", str(cli_seed), "--out", str(out)]
    return spawn(mode, args, workdir, deadline, csv_path=out.with_suffix(".csv"))


# -- output checks -------------------------------------------------------------------

def read_csv(path):
    """The hash line and the rows, header first, of a CSV the CLI writes."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return (lines[0] if lines else ""), list(csv.reader(lines[1:]))


def _same_number(a, r):
    if math.isinf(r) or math.isinf(a):
        return a == r
    return abs(a - r) <= RTOL * max(abs(a), abs(r)) + ATOL


def check_output(proc, reference):
    """Problems with one command process's exit code and CSV, and its
    count of oracle comparison rows that read `fail`."""
    if not proc.csv_path.exists():
        return [f"exit {proc.exit_code}, no CSV written: {proc.stderr[-300:]}"], 0
    got_hash, got = read_csv(proc.csv_path)
    want_hash, want = read_csv(reference)
    problems = []
    if (got_hash, got[:1]) != (want_hash, want[:1]):
        problems.append(f"hash line or header differs: {got_hash} {got[:1]} "
                        f"vs {want_hash} {want[:1]}")
    if len(got) != len(want):
        problems.append(f"{len(got) - 1} rows, reference has {len(want) - 1}")
    header = want[0]
    oracle_fail_rows = 0
    for row, ref in zip(got[1:], want[1:]):
        if "nan" in row:
            problems.append(f"nan in row {row}")
        # An oracle comparison row may read `fail` by chance (about 1% of
        # seeds); it is counted, not failed.  A replica identity fail is not
        # chance and is compared below like any verdict.
        chance_row = row[0] == "mc_vs_quadrature"
        if chance_row and row[-1] == "fail":
            oracle_fail_rows += 1
        for col, a, r in zip(header, row, ref):
            if col in VERDICT_COLUMNS:
                if chance_row and a not in ("pass", "fail"):
                    problems.append(f"{col} {a!r} is neither 'pass' nor 'fail': {row}")
                elif a != r and not chance_row:
                    problems.append(f"{col} {a!r} where the reference has {r!r}: {row}")
                continue
            try:
                r_num = float(r)
            except ValueError:
                if a != r:
                    problems.append(f"{col} {a!r} where the reference has {r!r}")
                continue
            try:
                a_num = float(a)
            except ValueError:
                a_num = math.nan
            if not _same_number(a_num, r_num):
                problems.append(f"{col} {a} differs from the reference {r}: {row}")
    # The child reports the CLI's own exit code for a failed comparison.
    expected_exit = proc.record.get("exit_mismatch") if oracle_fail_rows else 0
    if proc.exit_code != expected_exit:
        problems.append(f"exit {proc.exit_code}, expected {expected_exit}: "
                        f"{proc.stderr[-300:]}")
    return problems, oracle_fail_rows


# -- per-layer metrics from spans --------------------------------------------------

ESTIMATORS = ("quench.mc_estimate", "quench.expected_max_estimate",
              "quench.replica_gibbs_estimate")
ESTIMATOR_PARTS = ESTIMATORS + ("quench.per_sample_values", "quench.evaluate_values")
BUILDERS = ("ensemble.from_spec", "ensemble.load_spec", "ensemble.build_iid",
            "ensemble.build_from_covariance")


def layer_metrics(spans):
    """Per-layer times and counts; self time is a span's duration minus its
    children's, and a layer's outermost spans are those with no ancestor in
    the same module."""
    names = [s[0] for s in spans]
    parents = [s[1] for s in spans]
    infos = [s[4] for s in spans]
    dur = [s[3] - s[2] for s in spans]
    self_t = list(dur)
    for i, p in enumerate(parents):
        if p >= 0:
            self_t[p] -= dur[i]

    def outermost(i):
        module = names[i].split(".")[0]
        p = parents[i]
        while p >= 0:
            if names[p].split(".")[0] == module:
                return False
            p = parents[p]
        return True

    def idx(pred):
        return [i for i, name in enumerate(names) if pred(name)]

    def total(values, ids):
        return float(sum(values[i] for i in ids))

    # The child marks each batch request (child.BATCH_NAMES) hit or not.
    batch = [i for i, info in enumerate(infos) if "hit" in info]
    misses = [i for i in batch if not infos[i]["hit"]]
    star = idx(lambda n: n == "quench.beta_star")
    probes = [i for i in idx(lambda n: n == "gibbs.participation_ratio")
              if parents[i] >= 0 and names[parents[i]] == "quench.beta_star"]
    quad = idx(lambda n: n == "quench.quadrature_oracle")
    kernels = [i for i in idx(lambda n: n.startswith("gibbs."))
               if "elements" in infos[i] and outermost(i)]
    bound_top = [i for i in idx(lambda n: n.startswith("bounds.")) if outermost(i)]

    m = {}
    m["quench.fill_s"] = total(dur, batch)
    m["quench.samples_drawn"] = sum(infos[i]["rows"] for i in misses)
    m["quench.fill_us_per_sample"] = 1e6 * m["quench.fill_s"] / max(m["quench.samples_drawn"], 1)
    m["quench.batch_requests"] = len(batch)
    m["quench.batch_hit_ratio"] = (len(batch) - len(misses)) / max(len(batch), 1)
    m["quench.estimate_calls"] = len(idx(lambda n: n in ESTIMATORS))
    m["quench.estimate_self_s"] = total(self_t, idx(lambda n: n in ESTIMATOR_PARTS))
    m["quench.beta_star_s"] = total(dur, star)
    m["quench.beta_star_probes"] = len(probes)
    m["quench.probe_ms"] = 1e3 * total(dur, probes) / max(len(probes), 1)
    m["quench.quadrature_s"] = total(dur, quad)
    m["quench.quadrature_self_s"] = total(self_t, quad)
    m["quench.quadrature_calls"] = len(quad)
    m["quench.quadrature_nodes"] = sum(infos[i]["nodes"] for i in quad)
    m["quench.quadrature_ns_per_node"] = (1e9 * m["quench.quadrature_s"]
                                          / max(m["quench.quadrature_nodes"], 1))
    m["gibbs.kernel_s"] = total(dur, kernels)
    m["gibbs.kernel_calls"] = len(kernels)
    m["gibbs.elements"] = sum(infos[i]["elements"] for i in kernels)
    m["gibbs.ns_per_element"] = 1e9 * m["gibbs.kernel_s"] / max(m["gibbs.elements"], 1)
    m["bounds.self_s"] = total(self_t, idx(lambda n: n.startswith("bounds.")))
    m["bounds.reports"] = sum(infos[i].get("reports", 0) for i in bound_top)
    m["bounds.inconclusive"] = sum(infos[i].get("inconclusive", 0) for i in bound_top)
    m["rem.self_s"] = total(self_t, idx(lambda n: n.startswith("rem.")))
    m["rem.q_upper_calls"] = len(idx(lambda n: n == "rem.q_upper"))
    m["ensemble.build_s"] = total(dur, [i for i in idx(lambda n: n in BUILDERS)
                                        if outermost(i)])
    m["cli.parse_s"] = total(dur, idx(lambda n: n == "cli.parse_config"))
    m["cli.emit_s"] = total(dur, idx(lambda n: n == "cli._emit"))
    return m


# -- runs ---------------------------------------------------------------------------

def run_untraced(workload, cli_seed, seconds, workdir, deadline):
    start = time.monotonic()
    probes = [spawn("setup", [], workdir, deadline) for _ in range(SETUP_PROBES)]
    procs = [spawn_command("cli", workload, cli_seed, workdir, deadline)]
    while time.monotonic() - start + _median([p.wall_s for p in procs]) <= seconds:
        procs.append(spawn_command("cli", workload, cli_seed, workdir, deadline))
    # More import-only processes fill what is left of the run: a process's
    # import time spreads by about 15%, and one oracle-check process fills
    # most of a run, so three probes alone leave setup_s unsteady.
    while (math.isfinite(probes[-1].setup_s) and time.monotonic() - start
           + _median([p.setup_s + p.wall_s for p in probes]) <= seconds):
        probes.append(spawn("setup", [], workdir, deadline))
    metrics = {
        "wall_s": _median([p.wall_s for p in procs]),
        "setup_s": _median([p.setup_s for p in probes + procs]),
        "peak_rss_mb": _median([p.peak_rss_mb for p in procs]),
    }
    return procs, metrics, []


def run_traced(workload, cli_seed, workdir, deadline):
    plain = spawn_command("cli", workload, cli_seed, workdir, deadline)
    traced = [spawn_command("trace", workload, cli_seed, workdir, deadline)
              for _ in range(2)]
    bounds_csv = REFERENCE / "bounds-iid64" / f"{reference_seeds('bounds-iid64')[0]}.csv"
    sheet = spawn("sheet", [str(cli_seed), str(workdir), str(bounds_csv)], workdir, deadline)
    problems = []
    if sheet.exit_code != 0 or "sheet" not in sheet.record:
        problems.append(f"layer sheet exit {sheet.exit_code}: {sheet.stderr[-300:]}")
    per_proc = []
    for p in traced:
        spans = p.record.get("spans", [])
        m = layer_metrics(spans)
        m["cli.bytes_written"] = p.csv_path.stat().st_size if p.csv_path.exists() else 0
        # What the wrappers cost: one wrapped call's measured cost per span.
        m["trace.overhead_s"] = len(spans) * p.record.get("wrapper_s", 0.0)
        per_proc.append(m)
    for name in EXACT_COUNTS:
        values = [m[name] for m in per_proc]
        if len(set(values)) != 1:
            problems.append(f"count {name} did not repeat between traced runs: {values}")
    metrics = {}
    for name in per_proc[0]:
        values = [m[name] for m in per_proc]
        metrics[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
    metrics.update(sheet.record.get("sheet", {}))
    return [plain, *traced], metrics, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "softmaxima" / "cli.py").is_file():
        sys.exit(f"error: no softmaxima source under {ROOT / 'src'}")
    seeds = reference_seeds(args.workload)
    if not seeds:
        sys.exit(f"error: no reference CSVs under {REFERENCE / args.workload}")
    cli_seed = seeds[args.seed % len(seeds)]
    reference = REFERENCE / args.workload / f"{cli_seed}.csv"
    print(f"workload {args.workload}, cli seed {cli_seed}, "
          f"python {sys.version.split()[0]}, {os.cpu_count()} cpus")

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build))
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            procs, metrics, problems = run_traced(args.workload, cli_seed, workdir, deadline)
        else:
            procs, metrics, problems = run_untraced(
                args.workload, cli_seed, args.seconds, workdir, deadline)

        failed = 0
        fail_rows = []
        first_bytes = procs[0].csv_path.read_bytes() if procs[0].csv_path.exists() else b""
        for p in procs:
            issues, rows = check_output(p, reference)
            fail_rows.append(rows)
            if p.csv_path.exists() and p.csv_path.read_bytes() != first_bytes:
                issues.append("CSV bytes differ from the first process of this seed")
            failed += bool(issues)
            shown = [f"\n  FAIL {msg}" for msg in issues[:5]]
            if len(issues) > 5:
                shown.append(f"\n  FAIL ... and {len(issues) - 5} more")
            print(f"{p.mode}: exit {p.exit_code}, setup {p.setup_s:.4f} s, "
                  f"command {p.wall_s:.4f} s, peak rss {p.peak_rss_mb:.1f} MB"
                  + "".join(shown))
        if args.trace:
            metrics["cli.oracle_fail_rows"] = max(fail_rows)
            metrics["failed_ratio"] = failed / len(procs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = set(units) - set(metrics)
    if missing:
        problems.append(f"metrics not measured: {sorted(missing)}")
    for msg in problems:
        print(f"FAIL {msg}", file=sys.stderr)
    print(f"{len(procs)} command processes, {failed} failed, "
          f"failed_ratio {failed / len(procs):.4g}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(procs),
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
