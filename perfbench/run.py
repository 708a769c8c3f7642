"""Benchmark entry point: run one workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload chat --seed 0 --seconds 25 --trace 0

Run from the root of a checkout: the library is imported from ``src/`` beside
this directory, never from an installed copy.  With ``--trace 0`` the last
line of standard output is a JSON object whose ``metrics`` hold every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric from a
traced run.  The line before it is the run record (machine, versions, BLAS
thread cap, seed, sample counts, and every metric named per workload).
``--workload all`` runs each workload in its own process and prints them all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("chat", "long-context", "train", "verify")
BLAS_THREADS = 1  # fixed, at most the CPU count, so runs are comparable
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
NOTES = {
    "attention.materialized_bytes_per_tok": "computed from array sizes (ndarray.nbytes) of "
    "group_share and expand_k_dim results, not measured memory traffic",
    "decode.model.peak_transient_bytes": "tracemalloc peak of the final decode step of each request",
    "kvcache.bytes": "ndarray.nbytes of the written cache prefix; checked equal to "
    "8 x costmodel.kv_cache_cost elements",
    "failed_frac": "failed over attempted operations (requests, steps, properties, trace accounting)",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_all(args) -> int:
    """Each workload in its own process, so each reads its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "diffqkv" / "__init__.py").is_file():
        print(f"no diffqkv sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    # Fix the BLAS thread count before NumPy loads; subprocesses inherit it.
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np

    import diffqkv
    import workloads
    from metrics import END_TO_END, PER_LAYER

    if not Path(diffqkv.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"diffqkv was imported from {diffqkv.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2

    out, end_to_end = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)

    for failure in out.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    for name, (value, unit, n) in out.summary.items():
        print(f"{args.workload:<13s} {name:<28s} {value:14.6g} {unit:<6s} n={n}")
    if args.trace:
        metrics = {name: {"value": out.per_layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
        samples = {}
    else:
        metrics = {name: {"value": end_to_end[name][0], "unit": unit} for name, unit in END_TO_END.items()}
        samples = {name: end_to_end[name][1] for name in END_TO_END}
    for name, metric in metrics.items():
        print(f"{args.workload:<13s} {name:<46s} {metric['value']:14.6g} {metric['unit']}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "samples": samples,
        "summary": {name: {"value": v, "unit": u, "n": n} for name, (v, u, n) in out.summary.items()},
        "notes": NOTES,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
