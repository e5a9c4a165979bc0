"""Record the benchmark's reference outputs and its baseline numbers.

    python3 perfbench/record.py reference
        Run each workload's CLI command at its default seed and the seeds
        after it, and keep the CSVs of the first SEEDS_PER_WORKLOAD that exit
        0 as perfbench/reference/<workload>/<seed>.csv.  Run this only at the
        commit that introduces the benchmark: the references are what later
        commits are checked against.

    python3 perfbench/record.py baseline
        Run the benchmark on seeds 0..RUNS-1 per workload and once traced,
        and write perfbench/baseline.json: the commit of `src/`, the
        environment, each end-to-end metric's median, quartiles and spread
        (interquartile range over median) and the traced per-layer numbers.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run

SEEDS_PER_WORKLOAD = 8
RUNS = 10                # the ten seeds the benchmark's steadiness is judged on
DEFAULT_SEEDS = {"estimate-iid8": 7, "bounds-iid64": 7, "oracle-check": 14,
                 "rem-sweep-n10": 42}


def record_reference():
    for workload in run.WORKLOADS:
        dest = run.REFERENCE / workload
        dest.mkdir(parents=True, exist_ok=True)
        seed = DEFAULT_SEEDS[workload]
        while len(run.reference_seeds(workload)) < SEEDS_PER_WORKLOAD:
            (run.ROOT / ".bench_build").mkdir(exist_ok=True)
            workdir = Path(tempfile.mkdtemp(prefix="perfbench-ref-", dir=run.ROOT / ".bench_build"))
            try:
                p = run.spawn_command("cli", workload, seed, workdir,
                                      time.monotonic() + run.RUN_LIMIT_S)
                print(f"{workload} seed {seed}: exit {p.exit_code}, {p.wall_s:.2f} s",
                      flush=True)
                if p.exit_code == 0:
                    shutil.copyfile(p.csv_path, dest / f"{seed}.csv")
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            seed += 1


def _read(path, default="unknown"):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return default


def source_label():
    """The commit `src/` was measured at, marked if `src/` has local edits."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=run.ROOT, capture_output=True,
                              text=True).stdout.strip()
    commit = git("rev-parse", "--short", "HEAD") or "unknown"
    dirty = git("status", "--porcelain", "--", "src")
    return f"src at {commit}" + (" with local edits" if dirty else "")


def environment():
    import numpy
    import scipy
    cpuinfo = _read("/proc/cpuinfo", "")
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "l3_cache": _read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform()}


def bench(workload, seed, seconds, trace):
    out = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)],
                         cwd=run.ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def record_baseline():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"label": source_label(), "environment": environment(),
           "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in run.WORKLOADS:
        results = [bench(workload, seed, spec["run_seconds"], 0) for seed in range(RUNS)]
        traced = bench(workload, 0, spec["run_seconds"], 1)
        entry = {"correct": all(r["correct"] for r in results) and traced["correct"],
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results), "end_to_end": {},
                 "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}}
        for name in bounds:
            s = summarize([r["metrics"][name]["value"] for r in results])
            entry["end_to_end"][name] = s
            print(f"{workload:14s} {name:12s} median {s['median']:10.4f} "
                  f"spread {s['spread']:.4f} (bound {bounds[name]}, "
                  f"a third of it {bounds[name] / 3:.4f}): "
                  + " ".join(f"{v:.4f}" for v in s["values"]), flush=True)
        doc["workloads"][workload] = entry
    (run.HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="what", required=True)
    sub.add_parser("reference")
    sub.add_parser("baseline")
    args = ap.parse_args()
    if args.what == "reference":
        record_reference()
    else:
        record_baseline()


if __name__ == "__main__":
    main()
