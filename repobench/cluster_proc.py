"""Process under test for the ``cluster`` workload.

Usage: ``python repobench/cluster_proc.py INPUTS.npz [--trace]``

Imports the program, builds both graphs from the edge arrays in
``INPUTS.npz`` and prints a ``ready`` line.  It then reads one JSON
command from stdin: ``{"cmd": "quit"}`` ends a set-up start, and
``{"cmd": "run", "seconds": S, "out": DIR}`` runs the closed loop for
``S`` seconds, writes ``DIR/results.npz`` (the first result of every
case, for the oracle check) and, when traced, ``DIR/spans.json``, and
prints a JSON summary of what it timed.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

from common import GRAPHS, POINTS, vm_hwm_mb

#: Graph-pair loads timed for ``load_ms`` at the start of each round, so
#: that they spread over the window like the clusterings.
LOADS_PER_ROUND = 2
#: The CPUs this process may use.  Serial work (graph loads, serial-backend
#: clusterings) is pinned to each in turn: on a shared host one CPU can run
#: a third slower than another for seconds at a time, and serial work that
#: stayed on it would be timed at that CPU's speed.  Process-backend rounds
#: run unpinned, so their workers use every CPU.
CPUS = sorted(os.sched_getaffinity(0))


def _pin(turn: int) -> None:
    os.sched_setaffinity(0, {CPUS[turn % len(CPUS)]})


def _unpin() -> None:
    os.sched_setaffinity(0, CPUS)


def _record_counts(result, totals: dict) -> None:
    record = result.record
    if record is None:
        return
    total = record.total()
    for field in ("vector_ops", "bound_updates", "compsims", "atomics"):
        totals[field] = totals.get(field, 0) + getattr(total, field)
    for stage in record.stages:
        key = "stage:" + stage.name
        totals[key] = totals.get(key, 0.0) + stage.wall_seconds


def main(argv: list[str]) -> int:
    inputs = argv[0]
    recorder = None
    if "--trace" in argv:
        from tracer import Recorder, install

        recorder = Recorder()
        install(recorder)
    from repro import api
    from repro.graph import from_edge_array
    from repro.options import BackendKind, ExecMode, ExecutionOptions
    from repro.types import ScanParams

    with np.load(inputs) as data:
        edges = [data[f"edges{i}"] for i in range(len(GRAPHS))]
    graphs = [from_edge_array(e) for e in edges]
    print(json.dumps({"ready": True}), flush=True)

    cmd = json.loads(sys.stdin.readline() or '{"cmd": "quit"}')
    if cmd["cmd"] != "run":
        return 0
    out_dir = cmd["out"]

    loads = []

    cases = [(gi, ScanParams(eps, mu)) for gi, eps, mu in POINTS]
    backends = (
        ("serial", ExecutionOptions(exec_mode=ExecMode.BATCHED)),
        (
            "process",
            ExecutionOptions(
                exec_mode=ExecMode.BATCHED,
                backend=BackendKind.PROCESS,
                workers=os.cpu_count(),
            ),
        ),
    )
    #: Per backend, per case: the seconds of each clustering.
    times = {kind: [[] for _ in cases] for kind, _ in backends}
    reference: dict[int, object] = {}
    counts: dict = {}
    attempted = mismatches = 0
    deadline = time.perf_counter() + float(cmd["seconds"])
    rounds = 0
    while True:
        if recorder is not None:
            recorder.tag = ""
        for i in range(LOADS_PER_ROUND):
            _pin(rounds + i)
            t0 = time.perf_counter()
            for e in edges:
                from_edge_array(e)
            loads.append(time.perf_counter() - t0)
        for kind, options in backends:
            if recorder is not None:
                recorder.tag = kind
            for ci, (gi, params) in enumerate(cases):
                if kind == "serial":
                    _pin(rounds + ci)
                else:
                    _unpin()
                t0 = time.perf_counter()
                result = api.cluster(
                    graphs[gi], params, algorithm="ppscan", options=options
                )
                times[kind][ci].append(time.perf_counter() - t0)
                attempted += 1
                ref = reference.setdefault(ci, result)
                if ref is not result and not ref.same_clustering(result):
                    mismatches += 1
                if kind == "serial":
                    _record_counts(result, counts)
        rounds += 1
        if time.perf_counter() >= deadline:
            break

    np.savez(
        os.path.join(out_dir, "results.npz"),
        **{
            f"{field}{ci}": getattr(reference[ci], field)
            for ci in range(len(cases))
            for field in ("roles", "core_labels", "noncore_pairs")
        },
    )
    if recorder is not None:
        recorder.dump(os.path.join(out_dir, "spans.json"))
    summary = {
        "loads": loads,
        "times": times,
        "attempted": attempted,
        "mismatches": mismatches,
        "peak_rss_mb": vm_hwm_mb(os.getpid()),
        "counts": counts,
        "arcs_per_round": int(sum(graphs[gi].num_arcs for gi, _ in cases)),
    }
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
