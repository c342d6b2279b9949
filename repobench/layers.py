"""Per-layer metrics, reduced from the spans of a traced run.

Every value is per operation of the phase it belongs to, so a run that
fits more operations into its window reads the same: per clustering in
``cluster`` (per graph built for ``graph.from_edge_array``), per
``POST /graphs`` for the submit path, per read request
for the read path and per update batch for the write path.  A layer that
a workload bypasses reads 0.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict

from tracer import QUEUE_WAIT, Span, self_times

#: The seven ``RunRecord`` stages of ppSCAN.  Spelled out here, not
#: imported, so that metric names stay fixed if the program renames one
#: (the renamed stage then reads 0 and the self-test flags it).
PPSCAN_STAGES = (
    "similarity pruning",
    "core checking",
    "core consolidating",
    "core clustering (no compsim)",
    "core clustering (compsim)",
    "cluster id init",
    "non-core clustering",
)


def _slug(stage: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", stage.lower()).strip("_")


#: Every per-layer metric and its unit, in ``BENCHMARK.json`` order.
PER_LAYER = (
    [
        ("intersect.batched_arc_counts.calls", "1/op"),
        ("intersect.batched_arc_counts.self_s", "s/op"),
        ("intersect.arcs", "1/op"),
        ("intersect.vector_ops", "1/op"),
        ("intersect.bound_updates", "1/op"),
        ("similarity.resolve_arcs.self_s", "s/op"),
        ("similarity.compsims", "1/op"),
        ("similarity.pruned_share", "ratio"),
    ]
    + [(f"ppscan.stage.{_slug(s)}_s", "s/op") for s in PPSCAN_STAGES]
    + [
        ("unionfind.atomics", "1/op"),
        ("parallel.run_phase.calls", "1/op"),
        ("parallel.run_phase.self_s", "s/op"),
        ("parallel.workers_started", "1/op"),
        ("parallel.recovery_events", "1/op"),
        ("graph.from_edge_array.self_s", "s/op"),
        ("cache.graph_fingerprint.self_s", "s/op"),
        ("core.gsindex.build.self_s", "s/op"),
        ("service.wal.spill_graph.self_s", "s/op"),
        ("service.http.read_request.self_s", "s/op"),
        ("service.http.response_bytes.self_s", "s/op"),
        ("service.request.self_s", "s/op"),
        ("api.lookup.hit_share", "ratio"),
        ("core.gsindex.query.calls", "1/op"),
        ("core.gsindex.query.self_s", "s/op"),
        ("api.vertex.self_s", "s/op"),
        ("service.executor.queue_wait_s", "s/op"),
        ("service.rejected", "count"),
        ("service.coalesced", "count"),
        ("streaming.engine_init.self_s", "s/op"),
        ("streaming.apply.self_s", "s/op"),
        ("core.dynamic_index.apply_batch.self_s", "s/op"),
        ("streaming.dirty_vertices", "1/op"),
        ("service.wal.append.calls", "1/op"),
        ("service.wal.append.self_s", "s/op"),
        ("service.wal.compact.calls", "1/op"),
        ("service.wal.compact.self_s", "s/op"),
        ("client.generator_lag_p99_ms", "ms"),
    ]
)


def load_spans(path) -> list[Span]:
    with open(path) as fh:
        return [Span.from_row(row) for row in json.load(fh)]


class Totals:
    """Per span name: calls, summed self time, summed duration, counts."""

    def __init__(self, spans: list[Span]) -> None:
        selfs = self_times(spans)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.wall_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        for span in spans:
            self.calls[span.name] += 1
            self.self_s[span.name] += selfs[span.id]
            self.wall_s[span.name] += span.end - span.start
            for key, value in span.counts.items():
                self.counts[f"{span.name}:{key}"] += value


def _per(value: float, ops: int) -> float:
    return value / ops if ops else 0.0


def _finish(values: dict) -> dict:
    """All per-layer names, bypassed ones at 0, with units."""
    return {name: (float(values.get(name, 0.0)), unit) for name, unit in PER_LAYER}


def cluster_layers(spans_path, summary: dict) -> dict:
    spans = load_spans(spans_path)
    serial = Totals([s for s in spans if s.tag == "serial"])
    process = Totals([s for s in spans if s.tag == "process"])
    loads = Totals([s for s in spans if s.tag == ""])
    times = summary["times"]
    n_serial = sum(len(case) for case in times["serial"])
    n_process = sum(len(case) for case in times["process"])
    counts = summary["counts"]
    arcs = summary["arcs_per_round"] * len(times["serial"][0])
    values = {
        "intersect.batched_arc_counts.calls": _per(
            serial.calls["intersect.batched_arc_counts"], n_serial
        ),
        "intersect.batched_arc_counts.self_s": _per(
            serial.self_s["intersect.batched_arc_counts"], n_serial
        ),
        "intersect.arcs": _per(
            serial.counts["intersect.batched_arc_counts:arcs"], n_serial
        ),
        "intersect.vector_ops": _per(counts.get("vector_ops", 0), n_serial),
        "intersect.bound_updates": _per(counts.get("bound_updates", 0), n_serial),
        "similarity.resolve_arcs.self_s": _per(
            serial.self_s["similarity.resolve_arcs"], n_serial
        ),
        "similarity.compsims": _per(counts.get("compsims", 0), n_serial),
        # An arc is decided by CompSim once per undirected edge.
        "similarity.pruned_share": 1.0 - _per(2 * counts.get("compsims", 0), arcs),
        "unionfind.atomics": _per(counts.get("atomics", 0), n_serial),
        "parallel.run_phase.calls": _per(
            process.calls["parallel.run_phase"], n_process
        ),
        "parallel.run_phase.self_s": _per(
            process.self_s["parallel.run_phase"], n_process
        ),
        "parallel.workers_started": _per(
            process.calls["parallel.worker_start"], n_process
        ),
        "parallel.recovery_events": _per(
            process.calls["parallel.recovery_event"], n_process
        ),
        "graph.from_edge_array.self_s": _per(
            loads.self_s["graph.from_edge_array"],
            loads.calls["graph.from_edge_array"],
        ),
    }
    for stage in PPSCAN_STAGES:
        values[f"ppscan.stage.{_slug(stage)}_s"] = _per(
            counts.get("stage:" + stage, 0.0), n_serial
        )
    return _finish(values)


#: serve per-layer metric -> (phase, span name, quantity): ``self``,
#: ``calls``, ``wall`` or a span count, each divided by the phase's
#: operations.
SERVE_SOURCES = {
    "graph.from_edge_array.self_s": ("submit", "graph.from_edge_array", "self"),
    "cache.graph_fingerprint.self_s": ("submit", "cache.graph_fingerprint", "self"),
    "core.gsindex.build.self_s": ("submit", "core.gsindex.build", "self"),
    "service.wal.spill_graph.self_s": ("submit", "service.wal.spill_graph", "self"),
    "service.http.read_request.self_s": ("read", "service.http.read_request", "self"),
    "service.http.response_bytes.self_s": (
        "read",
        "service.http.response_bytes",
        "self",
    ),
    "service.request.self_s": ("read", "service.request", "self"),
    "core.gsindex.query.calls": ("read", "core.gsindex.query", "calls"),
    "core.gsindex.query.self_s": ("read", "core.gsindex.query", "self"),
    "api.vertex.self_s": ("read", "api.vertex", "self"),
    "service.executor.queue_wait_s": ("read", QUEUE_WAIT, "wall"),
    "streaming.engine_init.self_s": ("first", "streaming.engine_init", "self"),
    "streaming.apply.self_s": ("write", "streaming.apply", "self"),
    "core.dynamic_index.apply_batch.self_s": (
        "write",
        "core.dynamic_index.apply_batch",
        "self",
    ),
    "streaming.dirty_vertices": ("write", "core.dynamic_index.apply_batch", "dirty"),
    "service.wal.append.calls": ("write", "service.wal.append", "calls"),
    "service.wal.append.self_s": ("write", "service.wal.append", "self"),
    "service.wal.compact.calls": ("write", "service.wal.compact", "calls"),
    "service.wal.compact.self_s": ("write", "service.wal.compact", "self"),
}


def serve_layers(
    spans_path,
    *,
    windows: dict[str, tuple[float, float]],
    ops: dict[str, int],
    stats: dict,
    client: dict,
) -> dict:
    """Per-layer metrics of a traced server.

    ``windows`` gives each phase's interval (``submit``, ``first``,
    ``read``, ``write``) and ``ops`` its operation count.  In the ``read``
    phase only spans of GET requests count, in the others only those of
    other requests, so reads and writes that overlap are told apart by
    the request each span belongs to.
    """
    spans = load_spans(spans_path)
    is_read = {
        s.root: s.counts.get("get", 0) for s in spans if s.name == "service.request"
    }
    totals = {}
    for phase, (lo, hi) in windows.items():
        want = 1 if phase == "read" else 0
        totals[phase] = Totals(
            [s for s in spans if lo <= s.start < hi and is_read.get(s.root) == want]
        )
    values = {}
    for metric, (phase, name, quantity) in SERVE_SOURCES.items():
        phase_totals = totals.get(phase)
        if phase_totals is None:
            continue
        if quantity == "self":
            amount = phase_totals.self_s[name]
        elif quantity == "calls":
            amount = phase_totals.calls[name]
        elif quantity == "wall":
            amount = phase_totals.wall_s[name]
        else:
            amount = phase_totals.counts[f"{name}:{quantity}"]
        values[metric] = _per(amount, ops[phase])
    read = totals["read"]
    values["api.lookup.hit_share"] = _per(
        read.counts["api.lookup:hit"], read.calls["api.lookup"]
    )
    values["service.rejected"] = stats["counters"]["rejected"]
    values["service.coalesced"] = stats["counters"]["coalesced"]
    values["client.generator_lag_p99_ms"] = client["generator_lag_p99_ms"]
    return _finish(values)
