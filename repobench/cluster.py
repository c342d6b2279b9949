"""The ``cluster`` workload: one-shot ppSCAN in a fresh process.

The paper's use.  A closed loop calls ``api.cluster(..., algorithm=
"ppscan")`` in batched exec mode on both graphs at both points, in a
fixed order, alternating a round on the serial backend with a round on
the process backend at ``workers = nproc``.  The work is in
``intersect``, ``similarity``, ``core.ppscan``, ``unionfind`` and
``parallel``; ``gsindex``, ``streaming`` and ``service`` are bypassed.

A sample is one clustering, scaled to the mean case
(:func:`common.per_case_samples`): the four cases cost 60-500 ms apiece,
so raw timings pooled would put the median between cases.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

import numpy as np

from common import (
    BENCH_DIR,
    GRAPHS,
    MIN_CLUSTERS,
    POINTS,
    BenchError,
    per_case_samples,
    spawn,
    stop,
    summarize,
    workload_edges,
)
from layers import cluster_layers

#: Fresh starts timed for ``setup_s``; the last one is the process under
#: test.
SETUP_STARTS = 7


def run(work, seed: int, seconds: float, trace: bool) -> dict:
    from repro.core.result import ClusteringResult
    from repro.core.validate import brute_force_scan
    from repro.graph import from_edge_array
    from repro.types import ScanParams

    edges = workload_edges(seed)
    inputs = work / "inputs.npz"
    np.savez(inputs, **{f"edges{i}": e for i, e in enumerate(edges)})
    argv = [sys.executable, str(BENCH_DIR / "cluster_proc.py"), str(inputs)]
    if trace:
        argv.append("--trace")

    starts = []
    proc = None
    try:
        for i in range(SETUP_STARTS):
            t0 = time.perf_counter()
            proc = spawn(argv, stdin=subprocess.PIPE)
            line = proc.stdout.readline()
            starts.append(time.perf_counter() - t0)
            if not line.startswith('{"ready"'):
                raise BenchError(f"cluster process did not start: {line!r}")
            if i < SETUP_STARTS - 1:
                proc.communicate('{"cmd": "quit"}\n', timeout=30)
        command = {"cmd": "run", "seconds": seconds, "out": str(work)}
        out, _ = proc.communicate(json.dumps(command) + "\n", timeout=seconds + 120)
    finally:
        if proc is not None:
            stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"cluster process exited {proc.returncode}")
    summary = json.loads(out.strip().splitlines()[-1])

    # Correctness, outside the timed window: every case's result must be
    # bit-identical to the brute-force oracle and non-degenerate; every
    # repeat (serial or process backend) was compared to it in the child.
    failed = summary["mismatches"]
    cases = [(gi, ScanParams(eps, mu)) for gi, eps, mu in POINTS]
    graphs = [from_edge_array(e) for e in edges]
    with np.load(work / "results.npz") as data:
        for ci, (gi, params) in enumerate(cases):
            got = ClusteringResult(
                "ppscan",
                params,
                data[f"roles{ci}"],
                data[f"core_labels{ci}"],
                data[f"noncore_pairs{ci}"],
            )
            oracle = brute_force_scan(graphs[gi], params)
            if not oracle.same_clustering(got):
                failed += 1
            if oracle.num_clusters < MIN_CLUSTERS:
                raise BenchError(
                    f"{GRAPHS[gi].name} at {params} has only "
                    f"{oracle.num_clusters} clusters"
                )

    serial = summarize(per_case_samples(summary["times"]["serial"]))
    process = summarize(per_case_samples(summary["times"]["process"]))
    result = {
        "attempted": summary["attempted"],
        "failed": failed,
        "metrics": {
            "setup_s": (statistics.median(starts), "s"),
            "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
            "load_ms": (statistics.median(summary["loads"]) * 1e3, "ms"),
            "answer_p50_ms": (serial["p50"] * 1e3, "ms"),
            "answer_tail_ms": (serial["tail"] * 1e3, "ms"),
            "heavy_p50_ms": (process["p50"] * 1e3, "ms"),
            "heavy_tail_ms": (process["tail"] * 1e3, "ms"),
        },
        "samples": {
            "setup_s": starts,
            "load_ms": len(summary["loads"]),
            "answer": serial,
            "heavy": process,
            "case_p50_ms": {
                kind: [statistics.median(case) * 1e3 for case in cases]
                for kind, cases in summary["times"].items()
            },
        },
    }
    if trace:
        result["layers"] = cluster_layers(work / "spans.json", summary)
    return result
