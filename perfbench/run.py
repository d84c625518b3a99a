"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload study-tables --seed 7 \
        --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric of BENCHMARK.json,
``--trace 1`` every per-layer metric (a layer that does not run on the
workload reads 0).  Human-readable lines start with ``#``; the last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A failed output check sets ``correct`` to false and counts in
``failed``; the exit code is 0 whenever a result is printed, and
nonzero (with no result) when the run could not be made at all, as in
a directory without the program.  Run from anywhere; paths resolve
against the checkout that holds this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("study-tables", "kv-contended", "kv-partition")


def parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def missing_inputs() -> list[str]:
    """What this checkout lacks to build and check the program."""
    needed = [ROOT / "src" / "repro" / "__init__.py",
              ROOT / "results" / "baseline_run" / "study.json",
              ROOT / "BENCHMARK.json"]
    return [str(path.relative_to(ROOT)) for path in needed
            if not path.is_file()]


def run_workload(args: argparse.Namespace, workdir: Path) -> dict:
    if args.workload == "study-tables":
        import study_workload

        return study_workload.run(ROOT, args.seed, args.seconds,
                                  bool(args.trace), sys.stdout)
    import kv_workload

    return kv_workload.run(args.workload, workdir, args.seed, args.seconds,
                           bool(args.trace), sys.stdout)


def main(argv: list[str]) -> int:
    args = parse(argv)
    missing = missing_inputs()
    if missing:
        print("perfbench: not a checkout of the program, missing "
              + ", ".join(missing), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result = run_workload(args, workdir)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        values = result["layers"]
        metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                               "unit": m["unit"]} for m in wanted}
    else:
        values = result["metrics"]
        metrics = {}
        for m in wanted:
            value, unit = values[m["name"]]
            if unit != m["unit"]:
                raise ValueError(f"{m['name']}: unit {unit} is not "
                                 f"{m['unit']}")
            metrics[m["name"]] = {"value": float(value), "unit": unit}
    for name, entry in metrics.items():
        print(f"# {name:<32} {entry['value']:>14.6f} {entry['unit']}")
    if not args.trace:
        for name, (value, unit) in values.items():
            if name not in metrics:
                print(f"# {name:<32} {value:>14.6f} {unit} (not gated)")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
