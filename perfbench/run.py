"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload chain-smallbank --seed 1 --seconds 10 --trace 0

Prints one line per metric (name, value, unit, sample count), the
correctness tally, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the workload with
benchmark-side spans and reports the per-layer metrics.  Exits 1 when
any answer fails the correctness oracle, 2 when the program under test
is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = {
    "chain-smallbank": "perfbench.chain",
    "history-prov": "perfbench.history",
    "serve-kv": "perfbench.serve",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A TERM (a timeout) unwinds like an exception, so every workload's
    # cleanup stops and waits for the processes it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program to measure ({ROOT}/src/repro is missing)",
              file=sys.stderr)
        return 2
    # Import the package and the program by their names, not as
    # top-level modules of this directory.
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from perfbench.common import WORK, metric_units

    names = metric_units("per_layer" if args.trace else "end_to_end")
    module = importlib.import_module(WORKLOADS[args.workload])
    result = module.run(args.seed, args.seconds, bool(args.trace))

    unlisted = sorted(set(result.metrics) - set(names))
    if unlisted:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unlisted}")
    metrics = {}
    for name, unit in names.items():
        value, got_unit, count = result.metrics.get(name, (0.0, unit, 0))
        if got_unit != unit:
            raise RuntimeError(f"{name}: unit {got_unit} != {unit}")
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:34s} {value:14.4f} {unit:6s} n={count}")
    for note in result.notes:
        print(note)
    error_frac = result.failed / max(1, result.attempted)
    print(f"{'error_frac':34s} {error_frac:14.6f} {'1':6s} n={result.attempted}")
    for failure in result.failures:
        print(f"FAILED: {failure}")
    if result.tracer is not None:
        os.makedirs(WORK, exist_ok=True)
        result.tracer.dump(os.path.join(WORK, f"trace-{args.workload}.jsonl"))
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": max(1, result.attempted),
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
