"""Steadiness tool: run one workload N times and report each metric's spread.

Usage (from the root of a checkout)::

    python3 repobench/steady.py --workload cluster --runs 10 --seconds 25
    python3 repobench/steady.py --workload cluster --runs 3 --trace

Each run is a fresh ``repobench/run.py`` process with its own seed
(``--first-seed``, ``--first-seed + 1``, ...).  Per metric it prints the
median, the first and third quartiles (as ``statistics.quantiles(values,
n=4)`` gives them), the quartile spread as a share of the median, which
is what the bounds in ``BENCHMARK.json`` are checked against, and
(max - min) / median.  With ``--trace`` the runs are traced: it prints
the per-layer medians and the tracing overhead: the traced end-to-end
medians against those of an untraced run of each seed, run right after.
A run that fails its correctness checks is counted and its figures kept;
the tool then exits 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def one_run(
    workload: str, seed: int, seconds: float, trace: bool
) -> tuple[dict, dict, dict, bool]:
    """(metrics, traced end-to-end metrics, samples, correct) of one fresh
    run.  A run that failed its correctness checks still has its figures;
    one that printed none ends the tool."""
    proc = subprocess.run(
        [
            sys.executable,
            str(BENCH_DIR / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(int(trace)),
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if not result.get("metrics"):
        raise SystemExit(
            f"seed {seed}: run failed ({proc.returncode})\n{proc.stderr[-2000:]}"
        )
    correct = proc.returncode == 0 and result["correct"]
    if not correct:
        notes = [line for line in proc.stderr.splitlines() if line.startswith("repobench:")]
        print(f"seed {seed}: INCORRECT: " + "; ".join(notes), file=sys.stderr)
    traced, samples = {}, {}
    for line in proc.stderr.splitlines():
        if line.startswith('{"traced_end_to_end"'):
            traced = {k: v[0] for k, v in json.loads(line)["traced_end_to_end"].items()}
        elif line.startswith('{"samples"'):
            samples = json.loads(line)["samples"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return metrics, traced, samples, correct


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / med if med else 0.0,
        "range_share": (max(values) - min(values)) / med if med else 0.0,
    }


def table(runs: list[dict]) -> dict[str, dict]:
    return {name: spread([r[name] for r in runs]) for name in runs[0]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    seeds = range(args.first_seed, args.first_seed + args.runs)
    runs, traced, untraced, run_s = [], [], [], []
    incorrect = 0
    kinds: dict[str, list[float]] = {}
    for seed in seeds:
        metrics, traced_e2e, samples, correct = one_run(
            args.workload, seed, args.seconds, args.trace
        )
        incorrect += not correct
        runs.append(metrics)
        run_s.append(samples.get("run_s", 0.0))
        for kind, row in samples.get("by_kind", {}).items():
            kinds.setdefault(kind, []).append(row["p50_ms"])
        if args.trace:
            # Untraced twin right after, so host drift hits both sides.
            traced.append(traced_e2e)
            untraced.append(one_run(args.workload, seed, args.seconds, False)[0])
        print(f"seed {seed}: " + json.dumps(metrics), file=sys.stderr, flush=True)

    print(
        f"{args.workload}: {args.runs} runs of {args.seconds:g} s, "
        f"median wall time per run {statistics.median(run_s):.1f} s, "
        f"{incorrect} failed their correctness checks"
    )
    print(f"{'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'rng/med':>8s}")
    for name, row in table(runs).items():
        print(
            f"{name:44s} {row['median']:12.6g} {row['q1']:12.6g} {row['q3']:12.6g}"
            f" {row['iqr_share']:8.3f} {row['range_share']:8.3f}"
        )
    if kinds:
        print("\nread latency p50 by kind (ms), over the runs:")
        for kind, values in sorted(kinds.items()):
            row = spread(values)
            print(f"{kind:44s} {row['median']:12.6g} {row['q1']:12.6g} {row['q3']:12.6g}")
    if args.trace:
        base = table(untraced)
        print("\ntracing overhead (traced median / untraced median - 1):")
        for name, row in table(traced).items():
            ratio = row["median"] / base[name]["median"] - 1.0
            print(f"{name:44s} {ratio:+8.3f}")
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
