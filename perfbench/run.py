"""One command for the repository's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of ``BENCHMARK.json`` (``train-table4``,
``serve-explicit`` or ``serve-stream``) from the source tree it sits in,
checks that the outputs are correct, prints every metric by name with its
unit, writes the run's record under ``perfbench/records/`` and prints, as
the last line, one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics of an untraced
run; ``--trace 1`` reports the per-layer metrics of a traced run.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS = os.path.join(ROOT, "perfbench", "records")
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_catalog() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run(workload: str, seed: int, seconds: float, traced: bool, log=print) -> dict:
    """Run one workload; returns ``{attempted, failed, metrics, record}``."""
    os.makedirs(RECORDS, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=RECORDS)
    try:
        if workload == "train-table4":
            from perfbench import training

            return training.run_workload(seed, seconds, traced, work_dir, log)
        from perfbench import serving

        return serving.run_workload(ROOT, workload, seed, seconds, traced, work_dir, log)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    catalog = load_catalog()
    workloads = [w["name"] for w in catalog["workloads"]]
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(catalog["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no source tree at {os.path.join(ROOT, 'src', 'repro')}: nothing to benchmark", file=sys.stderr)
        return 2
    for path in (ROOT, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    # One BLAS thread per process (children inherit it): the load generator,
    # the server and its worker share 2 CPUs, and idle BLAS threads spinning
    # for a busy core made single tables vary by 30%.
    for name in BLAS_THREAD_VARIABLES:
        os.environ[name] = "1"

    declared = catalog["per_layer" if args.trace else "end_to_end"]
    started = time.time()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except AssertionError as error:
        print(f"correctness check failed: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    undeclared = set(result["metrics"]) - {entry["name"] for entry in declared}
    if undeclared:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    metrics = {}
    for entry in declared:
        # A layer the workload never calls did no work: it reads 0.  Every
        # end-to-end metric must be measured.
        value = float(result["metrics"].get(entry["name"], 0.0) if args.trace else result["metrics"][entry["name"]])
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:<32} {value:>14.6g} {entry['unit']}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_unix": started,
        "cpus": os.cpu_count(),
        "metrics": metrics,
        **result["record"],
    }
    os.makedirs(RECORDS, exist_ok=True)
    with open(os.path.join(RECORDS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as handle:
        json.dump(record, handle, indent=1)
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
