"""Self-tests of the repo benchmark.

Run from the root of a checkout: ``python3 -m pytest repobench -q``.
The traced-run tests start real short runs (about a minute in all).
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from common import GRAPHS, ROOT, require_program, workload_edges
from layers import PER_LAYER
from tracer import (
    PARSE,
    QUEUE_WAIT,
    REQUEST,
    SERIALIZE,
    Recorder,
    Span,
    install_executor_hop,
    self_times,
    wrap_read_request,
    wrap_respond,
    wrap_response_bytes,
)

BENCH_DIR = Path(__file__).resolve().parent
require_program()


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- self-time arithmetic -----------------------------------------------------


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        Span(1, "parent", 0.0, 10.0),
        Span(2, "a", 1.0, 4.0, parent=1),
        Span(3, "b", 3.0, 6.0, parent=1),  # overlaps a: [1, 6] counts once
        Span(4, "c", 8.0, 12.0, parent=1),  # clipped to the parent's end
        Span(5, "grandchild", 1.5, 2.0, parent=2),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[2] == pytest.approx(3.0 - 0.5)
    assert selfs[4] == pytest.approx(4.0)


def test_spans_follow_async_children_and_executor_hops():
    recorder = Recorder()
    undo = install_executor_hop(recorder)
    try:
        child = recorder.wrap(_sleepy_child, "child")
        work = recorder.wrap(_busy_work, "work")

        async def parent():
            loop = asyncio.get_running_loop()
            with ThreadPoolExecutor(max_workers=1) as pool:
                await asyncio.gather(child(0.05), child(0.05))
                await loop.run_in_executor(pool, work, 0.03)

        asyncio.run(recorder.wrap(parent, "parent")())
    finally:
        undo()
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)
    (top,) = by_name["parent"]
    assert {s.parent for s in by_name["child"]} == {top.id}
    (hop,) = by_name["work"]
    assert hop.parent == top.id, "executor work must keep the caller as parent"
    (wait,) = by_name[QUEUE_WAIT]
    assert wait.parent == top.id
    assert {s.root for s in recorder.spans} == {top.id}
    selfs = self_times(recorder.spans)
    children = [s for s in recorder.spans if s.parent == top.id]
    # The two concurrent children overlap almost entirely: their union,
    # not their sum, comes off the parent's self time.
    covered = (top.end - top.start) - selfs[top.id]
    summed = sum(s.end - s.start for s in children)
    assert covered < summed - 0.03
    assert selfs[top.id] >= 0.0
    assert selfs[hop.id] == pytest.approx(hop.end - hop.start)


def test_request_spans_share_an_id_and_skip_idle_time():
    recorder = Recorder()

    async def read_request(reader):
        await reader.readuntil(b"\n")
        return SimpleNamespace(method="GET")

    async def respond(service, request):
        await asyncio.sleep(0.01)
        return 200

    read = wrap_read_request(recorder, read_request)
    answer = wrap_respond(recorder, respond)
    serialize = wrap_response_bytes(recorder, lambda status: b"%d" % status)

    async def connection():
        reader = asyncio.StreamReader()
        asyncio.get_running_loop().call_later(0.05, reader.feed_data, b"GET /\r\n")
        idle_from = time.perf_counter()
        request = await read(reader)
        serialize(await answer(None, request))
        return idle_from

    idle_from = asyncio.run(connection())
    by_name = {span.name: span for span in recorder.spans}
    assert set(by_name) == {PARSE, REQUEST, SERIALIZE}
    assert len({span.root for span in recorder.spans}) == 1
    assert by_name[REQUEST].counts == {"get": 1}
    # The parser's span starts when the request line arrives, not when
    # the connection began waiting for it.
    assert by_name[PARSE].start - idle_from >= 0.04


async def _sleepy_child(seconds: float) -> None:
    await asyncio.sleep(seconds)


def _busy_work(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


# -- inputs -------------------------------------------------------------------


def test_two_seeds_give_isomorphic_inputs_with_equal_cluster_counts():
    from repro import api
    from repro.graph import from_edge_array
    from repro.options import ExecMode, ExecutionOptions
    from repro.types import ScanParams

    options = ExecutionOptions(exec_mode=ExecMode.BATCHED)
    one, two = workload_edges(1), workload_edges(2)
    for gi, spec in enumerate(GRAPHS):
        assert not np.array_equal(one[gi], two[gi]), "the seed must relabel"
        g1, g2 = from_edge_array(one[gi]), from_edge_array(two[gi])
        assert (g1.num_vertices, g1.num_edges) == (g2.num_vertices, g2.num_edges)
        assert np.array_equal(np.sort(g1.degrees), np.sort(g2.degrees))
        for eps, mu in spec.points:
            c1 = api.cluster(g1, ScanParams(eps, mu), options=options)
            c2 = api.cluster(g2, ScanParams(eps, mu), options=options)
            assert c1.num_clusters == c2.num_clusters >= 50
            assert c1.num_cores == c2.num_cores


# -- BENCHMARK.json against the traced run ------------------------------------


def test_fast_oracle_equals_brute_force():
    from oracle import ScanOracle
    from repro.core.validate import brute_force_scan
    from repro.graph.generators import real_world_standin
    from repro.types import ScanParams

    graph = real_world_standin("twitter", scale=0.1, seed=7)
    oracle = ScanOracle(graph)
    for eps, mu in ((0.2, 2), (0.3, 3), (0.5, 2), (0.25, 5)):
        expected = brute_force_scan(graph, ScanParams(eps, mu))
        assert oracle.scan(eps, mu).same_clustering(expected), (eps, mu)


def test_benchmark_json_lists_exactly_the_emitted_per_layer_metrics():
    listed = [(m["name"], m["unit"]) for m in _benchmark_json()["per_layer"]]
    assert listed == list(PER_LAYER)


#: Per-layer metrics each workload must measure (non-zero) in a traced run.
MEASURED = {
    "cluster": [
        "intersect.batched_arc_counts.calls",
        "intersect.batched_arc_counts.self_s",
        "intersect.arcs",
        "intersect.vector_ops",
        "similarity.resolve_arcs.self_s",
        "similarity.compsims",
        "similarity.pruned_share",
        "ppscan.stage.core_checking_s",
        "parallel.run_phase.calls",
        "parallel.run_phase.self_s",
        "parallel.workers_started",
    ],
    "serve": [
        "graph.from_edge_array.self_s",
        "cache.graph_fingerprint.self_s",
        "core.gsindex.build.self_s",
        "service.wal.spill_graph.self_s",
        "service.http.read_request.self_s",
        "service.http.response_bytes.self_s",
        "service.request.self_s",
        "api.lookup.hit_share",
        "core.gsindex.query.calls",
        "core.gsindex.query.self_s",
        "api.vertex.self_s",
        "service.executor.queue_wait_s",
        "client.generator_lag_p99_ms",
        "streaming.engine_init.self_s",
        "streaming.apply.self_s",
        "core.dynamic_index.apply_batch.self_s",
        "streaming.dirty_vertices",
        "service.wal.append.calls",
        "service.wal.append.self_s",
    ],
}


@pytest.mark.parametrize("workload", sorted(MEASURED))
def test_traced_run_emits_every_per_layer_metric(workload):
    proc = subprocess.run(
        [
            sys.executable,
            str(BENCH_DIR / "run.py"),
            "--workload", workload,
            "--seed", "5",
            "--seconds", "2",
            "--trace", "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    names = [m["name"] for m in _benchmark_json()["per_layer"]]
    assert list(result["metrics"]) == names
    for name in MEASURED[workload]:
        assert result["metrics"][name]["value"] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "repobench")
    proc = subprocess.run(
        [
            sys.executable,
            "repobench/run.py",
            "--workload", "cluster",
            "--seed", "1",
            "--seconds", "1",
            "--trace", "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
