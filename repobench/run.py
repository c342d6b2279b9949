"""Repo benchmark: one run of one workload.

Usage (from the root of a checkout)::

    python3 repobench/run.py --workload cluster --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with spans recorded around the program's layers and prints the
per-layer metrics instead.  The last stdout line is the JSON result;
sample counts and, when traced, the traced end-to-end figures go to
stderr.  A failed correctness check or an invalid run prints
``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

from common import BenchError, emit, fresh_dir, require_program

WORKLOADS = ("cluster", "serve")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_program()
    # SIGTERM unwinds like an error, so the child processes are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    import cluster
    import serve

    runner = {
        "cluster": cluster.run,
        "serve": serve.run,
    }[args.workload]
    work = fresh_dir(f"{args.workload}-{os.getpid()}")
    started = time.perf_counter()
    try:
        result = runner(work, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"repobench: {args.workload}: {exc}", file=sys.stderr)
        emit(False, 1, 1, {})
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["samples"]["run_s"] = time.perf_counter() - started
    print(json.dumps({"samples": result["samples"]}), file=sys.stderr)
    if args.trace:
        print(
            json.dumps({"traced_end_to_end": result["metrics"]}), file=sys.stderr
        )
    correct = result["failed"] == 0
    emit(
        correct,
        result["attempted"],
        result["failed"],
        result["layers"] if args.trace else result["metrics"],
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
