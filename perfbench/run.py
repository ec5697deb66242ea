"""Run one benchmark workload and print its metrics as a JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fresh_store --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the traced variant and prints the per-layer table
before the result.  The last line of standard output is always the
result object ``{"correct", "attempted", "failed", "metrics"}``; the
exit code is 0 only when every answer checked out.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

from common import checkout_root, environment_record, log, pin_environment

WORKLOADS = ("fresh_store", "grown_store")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _spec() -> dict:
    """BENCHMARK.json, beside this directory."""
    return json.loads((checkout_root() / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    args = _parse(argv)
    root = checkout_root()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {root / 'src'}", file=sys.stderr)
        return 2
    pin_environment()
    # A terminated run still stops its server and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, str(root / "src"))
    spec = _spec()
    units = {
        entry["name"]: entry["unit"]
        for entry in spec["end_to_end"] + spec["per_layer"]
    }
    expected = [
        entry["name"] for entry in spec["per_layer" if args.trace else "end_to_end"]
    ]

    from workloads import timed_run, traced_run

    workdir = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    lines: list[str] = []
    try:
        if args.trace:
            outcome, metrics, lines = traced_run(
                root, args.workload, args.seed, args.seconds, workdir
            )
        else:
            outcome, metrics = timed_run(
                root, args.workload, args.seed, args.seconds, workdir
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    missing = sorted(set(expected) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    print("environment: " + json.dumps(environment_record(root), sort_keys=True))
    for line in lines:
        print(line)
    for name in expected:
        print(f"metric {name} = {metrics[name]:.6g} {units[name]}")
    correct = not outcome.mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in expected
        },
    }))
    if not correct:
        log(f"{len(outcome.mismatches)} correctness mismatch(es)")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
