"""The ``serve`` workload: ``repro serve`` in a child process, driven over
HTTP from this one.

The index-backed service path, then writes beside reads.  Three
relabelled copies of each graph are submitted (index build, WAL spill);
the third is deleted again.  The window has two halves.  In the read
half, an open loop sends reads at a fixed rate over at most ``nproc``
keep-alive connections to copy 1: warm summaries, warm
``include=labels``, vertex lookups, and cold ε values used once each (a
``GSIndex.query`` per read).  In the write half, one connection runs a
closed loop of 32-edit update batches on copy 0, alternating graphs, each
waiting for its ack, while another reads copy 1, which no batch touches,
at a low fixed rate.  It loads ``gsindex``, the HTTP, event-loop and
serialization path, ``streaming`` and ``core.dynamic_index``; it bypasses
``ppscan`` and ``parallel``.
"""

from __future__ import annotations

import asyncio
import http.client
import itertools
import json
import os
import shutil
import statistics
import sys
import time

import numpy as np

from client import Connection, Planned, open_loop, quiet_gc
from common import (
    BENCH_DIR,
    GENERATOR_SEED,
    GRAPHS,
    MIN_CLUSTERS,
    POINTS,
    BenchError,
    base_edges,
    per_case_samples,
    quantile,
    relabelling,
    spawn,
    stop,
    summarize,
    vm_hwm_mb,
    workload_edges,
)
from layers import serve_layers
from oracle import ScanOracle

HOST = "127.0.0.1"
#: Fresh starts timed for ``setup_s``; the last one is the server under test.
SETUP_STARTS = 5
#: Relabelled copies of each graph submitted; ``load_ms`` is the median over
#: them.  Copy 0 takes the writes and copy 1 the reads; later copies are
#: deleted again.  A read of a graph while a batch on it commits can be
#: answered with the next state's clustering (a defect of the service, see
#: the README), so the reads go to a copy that is never written.
COPIES = 3
#: Read half: open-loop read rate, requests per second.
READ_RATE = 40.0
#: The read mix, in requests per 100.  No deployment profile in the
#: repository gives these shares; they are assumptions, and every run
#: prints each kind's own latencies with the sample counts.  Summaries
#: lead, as in ``benchmarks/bench_service_load.py`` (all warm summaries);
#: vertex lookups are the other cheap read; labels are the large answer;
#: cold reads are the index-query path.
READ_MIX = (("summary", 45), ("vertex", 35), ("labels", 10), ("cold", 10))
#: Per graph, the ε range that cold reads draw from (step 0.001, µ 2 or
#: 3): the non-degenerate band around the warm points, where an index
#: query costs a few milliseconds.  Lower ε values cost up to 30x more
#: and would make the tail a draw of which ones a run sends.
COLD_RANGES = ((0.120, 0.200), (0.260, 0.360))
#: Write half: the read stream beside the writes, warm reads only (cold
#: reads in executor threads beside the batches made both swing with how
#: they happened to overlap).  Its latencies go to stderr, not to a metric.
SIDE_RATE = 20.0
SIDE_MIX = (("summary", 55), ("vertex", 35), ("labels", 10))
BATCH_EDITS = 32
#: Edit batches scripted per graph (more than a window can use).
SCRIPT_BATCHES = 200
#: Open-loop health: a run whose generator woke later than this at its
#: 99th percentile, or that left more than this many requests unanswered
#: when the window closed, is invalid.
LAG_LIMIT_MS = 20.0
BACKLOG_LIMIT = 25
#: The CPUs this process may use at start.
CPUS = sorted(os.sched_getaffinity(0))
#: Read half: seconds between swaps of the server's and this process's CPU.
READ_TURN_S = 0.5


def _cold_points(gi: int, count: int) -> list[tuple[float, int]]:
    """``count`` distinct (ε, µ) points, none of them warm, each read once.

    The same set on every seed; the schedule's order is the seed's.
    """
    lo, hi = COLD_RANGES[gi]
    warm = set(GRAPHS[gi].points)
    pool = [
        (round(lo + 0.001 * k, 3), mu)
        for k in range(int(round((hi - lo) / 0.001)))
        for mu in (2, 3)
    ]
    pool = [p for p in pool if p not in warm]
    if count > len(pool):
        raise BenchError(f"{GRAPHS[gi].name}: only {len(pool)} cold points")
    spread = np.random.default_rng(0).permutation(len(pool))[:count]
    return [pool[i] for i in spread]


class Server:
    """``repro serve`` as a child process with a fresh WAL directory."""

    def __init__(self, work, trace: bool) -> None:
        self.work = work
        self.trace = trace
        self.spans = work / "spans.json"
        self.proc = None
        self.port = 0

    def start(self) -> float:
        """Spawn and wait for ``/readyz``; returns seconds to ready."""
        wal = self.work / "wal"
        shutil.rmtree(wal, ignore_errors=True)
        args = ["--host", HOST, "--port", "0", "--wal-dir", str(wal)]
        if self.trace:
            argv = [sys.executable, str(BENCH_DIR / "serve_proc.py"), str(self.spans)]
        else:
            argv = [sys.executable, "-m", "repro", "serve"]
        t0 = time.perf_counter()
        self.proc = spawn(argv + args)
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise BenchError("server exited before serving")
            if line.startswith("serving on http://"):
                self.port = int(line.split()[2].rsplit(":", 1)[1])
                break
        conn = http.client.HTTPConnection(HOST, self.port, timeout=30)
        try:
            while True:
                conn.request("GET", "/readyz")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    break
                time.sleep(0.005)
        finally:
            conn.close()
        return time.perf_counter() - t0

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc is not None:
            code = stop(self.proc, timeout=60)
            self.proc = None
            if code != 0:
                raise BenchError(f"server exited {code} on SIGTERM")


class Pinning:
    """Puts every thread of the server on one CPU and this process on
    another; :meth:`turn` ``k`` picks the pair by the parity of ``k``.  It
    is called before each submission and each update batch with a number
    that alternates for each graph, so each graph's work runs on both CPUs
    equally, and every :data:`READ_TURN_S` through the read half.  On a
    shared host one CPU can run a third slower than another
    for seconds at a time, and serial work that stayed on it would be
    timed at that CPU's speed.  With one CPU it does nothing."""

    def __init__(self, pid: int) -> None:
        self.pid = pid

    def turn(self, k: int) -> None:
        if len(CPUS) < 2:
            return
        server_cpu, client_cpu = CPUS[k % 2], CPUS[(k + 1) % 2]
        for tid in os.listdir(f"/proc/{self.pid}/task"):
            try:
                os.sched_setaffinity(int(tid), {server_cpu})
            except ProcessLookupError:
                pass  # the thread ended meanwhile
        os.sched_setaffinity(0, {client_cpu})

    def release(self) -> None:
        os.sched_setaffinity(0, CPUS)

    async def alternate(self) -> None:
        """Turn every :data:`READ_TURN_S` until cancelled."""
        for k in itertools.count():
            self.turn(k)
            await asyncio.sleep(READ_TURN_S)


def _start(server: Server) -> list[float]:
    """``SETUP_STARTS`` fresh starts; the last server keeps running."""
    starts = []
    for i in range(SETUP_STARTS):
        starts.append(server.start())
        if i < SETUP_STARTS - 1:
            server.stop()
    return starts


def _mix_plan(seed: int, seconds: float, rate: float, mix, salt: int) -> list[str]:
    """Exact counts of each kind for the window, in a seeded order."""
    total = int(seconds * rate)
    kinds = []
    for kind, share in mix:
        kinds += [kind] * int(round(total * share / 100))
    rng = np.random.default_rng([seed, salt])
    return [kinds[i] for i in rng.permutation(len(kinds))]


class Checks:
    """Counts requests and the ones that failed or answered wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(what)


def _point_oracles(graphs) -> tuple[dict, dict]:
    """``brute_force_scan`` at every warm point, and each point's
    (classified roles, membership) for vertex lookups."""
    from repro.core.validate import brute_force_scan
    from repro.types import ScanParams

    oracles = {}
    vertex_truth = {}
    for gi, eps, mu in POINTS:
        oracle = brute_force_scan(graphs[gi], ScanParams(eps, mu))
        if oracle.num_clusters < MIN_CLUSTERS:
            raise BenchError(f"{GRAPHS[gi].name} ({eps}, {mu}): {oracle.num_clusters} clusters")
        oracles[gi, eps, mu] = oracle
        vertex_truth[gi, eps, mu] = (oracle.classify(graphs[gi]), oracle.membership())
    return oracles, vertex_truth


def _read(due: float, kind: str, gi: int, eps, mu, vertex, fps: dict) -> Planned:
    """One planned read, sent to graph ``gi``'s fingerprint at send time."""
    if kind == "vertex":
        target = f"vertex/{vertex}?eps={eps}&mu={mu}"
    else:
        extra = "&include=labels" if kind == "labels" else ""
        target = f"cluster?eps={eps}&mu={mu}{extra}"
    return Planned(due, kind, lambda: f"/graphs/{fps[gi]}/{target}", gi, (gi, eps, mu), vertex)


def _labels_match(body: bytes, oracle) -> bool:
    payload = json.loads(body)
    return (
        np.array_equal(np.asarray(payload["roles"], dtype=np.int8), oracle.roles)
        and np.array_equal(
            np.asarray(payload["core_labels"], dtype=np.int64), oracle.core_labels
        )
        and np.array_equal(
            np.asarray(payload["noncore_pairs"], dtype=np.int64).reshape(-1, 2),
            oracle.noncore_pairs,
        )
    )


def _summary_match(body: bytes, oracle) -> bool:
    payload = json.loads(body)
    return (payload["num_clusters"], payload["num_cores"], payload["num_vertices"]) == (
        oracle.num_clusters,
        oracle.num_cores,
        oracle.num_vertices,
    )


def _vertex_match(body: bytes, v: int, expected) -> bool:
    from repro.types import role_name

    classified, membership = expected
    payload = json.loads(body)
    return payload["role"] == role_name(int(classified[v])).lower() and payload[
        "clusters"
    ] == sorted(membership[v])


def _by_kind(plan) -> dict:
    """Each read kind's latency p50 (ms) and count: the mixes' shares are
    assumptions, so the result should be readable without them."""
    kinds = sorted({item.kind for item in plan})
    return {
        kind: {
            "p50_ms": quantile([i.latency for i in plan if i.kind == kind], 0.5) * 1e3,
            "n": sum(i.kind == kind for i in plan),
        }
        for kind in kinds
    }


def _check_reads(items, oracles: dict, truth, checks: Checks) -> None:
    """Every answered read against the oracle of its point: summaries
    and cold reads by their counts, labels bit for bit, vertex lookups by
    role and clusters.  ``truth(point)`` gives a point's (classified
    roles, membership) for vertex lookups."""
    for item in items:
        oracle = oracles[item.point]
        if item.kind == "labels":
            ok = _labels_match(item.body, oracle)
        elif item.kind == "vertex":
            ok = _vertex_match(item.body, item.vertex, truth(item.point))
        else:
            ok = _summary_match(item.body, oracle)
        checks.expect(ok, f"{item.kind} read at {item.point} differs")


def _latency_metrics(plan, heavy: list[float]) -> dict:
    """``answer_p50_ms`` is the median of the summary reads alone: read
    kinds differ in cost up to tenfold, so a median pooled over them sits
    where one kind's tail meets the next and moves with the mix.
    ``answer_tail_ms`` is the tail of every read."""
    warm = summarize([item.latency for item in plan if item.kind == "summary"])
    answer = summarize([item.latency for item in plan])
    slow = summarize(heavy)
    return {
        "answer_p50_ms": (warm["p50"] * 1e3, "ms"),
        "answer_tail_ms": (answer["tail"] * 1e3, "ms"),
        "heavy_p50_ms": (slow["p50"] * 1e3, "ms"),
        "heavy_tail_ms": (slow["tail"] * 1e3, "ms"),
    }, {"summary": warm, "answer": answer, "heavy": slow}


def _health(report) -> dict:
    lag_p99 = quantile(report.lags, 0.99) * 1e3
    if lag_p99 > LAG_LIMIT_MS or report.backlog_at_end > BACKLOG_LIMIT:
        raise BenchError(
            f"invalid run: generator lag p99 {lag_p99:.1f} ms, backlog "
            f"{report.backlog_at_end} at the end of the window"
        )
    return {"generator_lag_p99_ms": lag_p99, "backlog_at_end": report.backlog_at_end}


async def _warm_up(conn: Connection, fps: dict, checks: Checks) -> list:
    """Read every point as a summary, with labels and for vertex 0, so the
    window's reads find them warm; returns the labels answers."""
    labels = []
    for gi, eps, mu in POINTS:
        base = f"/graphs/{fps[gi]}"
        for target in ("cluster?", "cluster?include=labels&", "vertex/0?"):
            status, body = await conn.request("GET", f"{base}/{target}eps={eps}&mu={mu}")
            checks.expect(status == 200, f"warm-up read answered {status}")
            if "labels" in target:
                labels.append(((gi, eps, mu), body))
    return labels


async def _submit(conn: Connection, body: bytes, checks: Checks) -> tuple[str, float]:
    t0 = time.perf_counter()
    status, raw = await conn.request("POST", "/graphs", body)
    seconds = time.perf_counter() - t0
    checks.expect(status == 201, f"POST /graphs answered {status}")
    return json.loads(raw).get("fingerprint", ""), seconds


def run(work, seed: int, seconds: float, trace: bool) -> dict:
    from repro.cache import graph_fingerprint
    from repro.graph import from_edge_array
    from repro.graph.dynamic import DynamicGraph

    copies = [workload_edges(seed, copy=c) for c in range(COPIES)]
    bodies = [
        [
            json.dumps({"edges": e.tolist(), "label": f"{GRAPHS[gi].name}-{c}"}).encode()
            for gi, e in enumerate(pair)
        ]
        for c, pair in enumerate(copies)
    ]
    graphs = [from_edge_array(e) for e in copies[0]]
    read_graphs = [from_edge_array(e) for e in copies[1]]
    expected_fps = [graph_fingerprint(g) for g in read_graphs]
    oracles, vertex_truth = _point_oracles(read_graphs)
    scans = [ScanOracle(g) for g in read_graphs]
    scripts = [_edit_script(seed, gi) for gi in range(len(GRAPHS))]
    shadows = [DynamicGraph.from_csr(g) for g in graphs]
    fps: dict[int, str] = {}
    read_fps: dict[int, str] = {}
    half = seconds / 2
    plan = _read_plan(seed, half, read_graphs, read_fps)
    side = _side_plan(seed, half, read_graphs, read_fps)

    checks = Checks()
    server = Server(work, trace)
    try:
        starts = _start(server)
        pinning = Pinning(server.proc.pid)
        try:
            state = asyncio.run(
                _drive(
                    server.port, pinning, bodies, scripts, shadows, plan, side, fps,
                    read_fps, half, checks,
                )
            )
        finally:
            pinning.release()
        peak = server.peak_rss_mb()
    finally:
        server.stop()

    # Correctness, outside the timed window.  The read copy: fingerprints,
    # warm-up labels against brute_force_scan, and every read against the
    # oracle of its point.  The fast oracle answers the cold points; it
    # must first agree with brute_force_scan bit for bit at the warm ones.
    for gi, fp in enumerate(expected_fps):
        checks.expect(read_fps.get(gi) == fp, f"{GRAPHS[gi].name} fingerprint differs")
    for key, body in state["read_labels"]:
        checks.expect(_labels_match(body, oracles[key]), f"labels at {key} differ")
    for (gi, eps, mu), oracle in list(oracles.items()):
        checks.expect(
            scans[gi].scan(eps, mu).same_clustering(oracle),
            f"the fast oracle differs from brute_force_scan at {(gi, eps, mu)}",
        )
    for item in plan + side:
        checks.expect(item.status == 200, f"{item.kind} read answered {item.status}")
        if item.kind == "cold" and item.point not in oracles:
            gi, eps, mu = item.point
            oracles[item.point] = scans[gi].scan(eps, mu)
    _check_reads(
        [item for item in plan + side if item.status == 200],
        oracles,
        vertex_truth.get,
        checks,
    )
    # The written copy: every acknowledged state is the client's replay of
    # the script, and the final clusterings are those of the shadow graph
    # (by the fast oracle, checked against brute_force_scan above).
    _check_states(graphs, scripts, state["history"], checks)
    for gi, shadow in enumerate(shadows):
        snapshot = shadow.snapshot()
        checks.expect(
            fps[gi] == graph_fingerprint(snapshot),
            f"{GRAPHS[gi].name} fingerprint differs from the shadow graph",
        )
        final = ScanOracle(snapshot)
        for (key_gi, eps, mu), body in state["labels"]:
            if key_gi == gi:
                oracle = final.scan(eps, mu)
                checks.expect(_labels_match(body, oracle), f"labels at {eps},{mu} differ")
                if oracle.num_clusters < MIN_CLUSTERS:
                    raise BenchError(
                        f"{GRAPHS[gi].name} ({eps}, {mu}): {oracle.num_clusters} clusters"
                    )
    if checks.failed:
        print("repobench: " + "; ".join(checks.notes), file=sys.stderr)

    # A heavy sample is one update batch, scaled to the mean graph:
    # twitter's batches cost about twice friendster's, so a pooled median
    # of raw times would sit between the two.
    updates = state["updates"]
    k = len(GRAPHS)
    latency, samples = _latency_metrics(
        plan, per_case_samples([updates[gi::k] for gi in range(k)])
    )
    health = _health(state["report"])
    _health(state["side_report"])
    result = {
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            "setup_s": (statistics.median(starts), "s"),
            "peak_rss_mb": (peak, "MB"),
            "load_ms": (statistics.median(state["loads"]) * 1e3, "ms"),
            **latency,
        },
        "samples": {
            "setup_s": len(starts),
            "load_ms": len(state["loads"]),
            **samples,
            "by_kind": _by_kind(plan),
            "beside_writes_by_kind": _by_kind(side),
            "heavy_p50_by_graph": [quantile(updates[gi::k], 0.5) for gi in range(k)],
            # Not an end-to-end metric: too unsteady on a shared host.
            "first_update_ms": state["first_update"] * 1e3,
            "client": health,
        },
    }
    if trace:
        result["layers"] = serve_layers(
            server.spans,
            windows={
                "submit": state["submit_window"],
                "first": state["first_window"],
                "read": state["report"].window,
                "write": state["write_window"],
            },
            ops={
                "submit": COPIES * len(GRAPHS),
                "first": len(GRAPHS),
                "read": len(plan),
                "write": len(updates),
            },
            stats=state["stats"],
            client=health,
        )
    return result


def _side_plan(seed: int, seconds: float, graphs, fps: dict) -> list[Planned]:
    """The write half's reads, in a seeded order over the warm points."""
    rng = np.random.default_rng([seed, 78])
    plan = []
    for i, kind in enumerate(_mix_plan(seed, seconds, SIDE_RATE, SIDE_MIX, 2)):
        gi, eps, mu = POINTS[int(rng.integers(len(POINTS)))]
        v = int(rng.integers(graphs[gi].num_vertices)) if kind == "vertex" else None
        plan.append(_read(i / SIDE_RATE, kind, gi, eps, mu, v, fps))
    return plan


def _read_plan(seed: int, seconds: float, graphs, fps: dict) -> list[Planned]:
    """The window's reads, in a seeded order: warm points at random, cold
    points alternating graphs, vertices at random."""
    rng = np.random.default_rng([seed, 77])
    kinds = _mix_plan(seed, seconds, READ_RATE, READ_MIX, 1)
    n_cold = kinds.count("cold")
    cold = {gi: _cold_points(gi, (n_cold + 1) // 2) for gi in range(len(GRAPHS))}
    for gi in cold:
        cold[gi] = [cold[gi][i] for i in rng.permutation(len(cold[gi]))]
    plan = []
    n_cold = 0
    for i, kind in enumerate(kinds):
        if kind == "cold":
            gi = n_cold % len(GRAPHS)
            eps, mu = cold[gi].pop()
            n_cold += 1
        else:
            gi, eps, mu = POINTS[int(rng.integers(len(POINTS)))]
        v = int(rng.integers(graphs[gi].num_vertices)) if kind == "vertex" else None
        plan.append(_read(i / READ_RATE, kind, gi, eps, mu, v, fps))
    return plan


def _edit_script(seed: int, gi: int) -> list[list[list]]:
    """Edit batches (``[["+" or "-", u, v], ...]``) for graph ``gi``.

    Scripted once on the unlabelled graph with a fixed seed, then mapped
    through the run's relabelling, so every seed applies the same edits.
    """
    from repro.graph import from_edge_array
    from repro.streaming.edits import random_edit_script

    edges, n = base_edges(GRAPHS[gi])
    script = random_edit_script(
        from_edge_array(edges, num_vertices=n),
        kind="mixed",
        batches=SCRIPT_BATCHES,
        batch_size=BATCH_EDITS,
        seed=GENERATOR_SEED + gi,
    )
    perm = relabelling(seed, gi)
    return [
        [[sign, int(perm[u]), int(perm[v])] for sign, u, v in batch.as_triples()]
        for batch in script.batches
    ]


def _check_states(graphs, scripts, history, checks) -> None:
    """``history[gi][k]`` is the fingerprint acknowledged after ``k``
    batches on graph ``gi``; each must be that of the submitted graph with
    the first ``k`` batches of the script replayed on it."""
    from repro.cache import graph_fingerprint
    from repro.graph.dynamic import DynamicGraph

    for gi, graph in enumerate(graphs):
        shadow = DynamicGraph.from_csr(graph)
        for k, fp in enumerate(history[gi]):
            if k > 0:
                for sign, u, v in scripts[gi][k - 1]:
                    (shadow.insert_edge if sign == "+" else shadow.remove_edge)(u, v)
            checks.expect(
                graph_fingerprint(shadow.snapshot()) == fp,
                f"{GRAPHS[gi].name}: state {k} has another fingerprint",
            )


async def _drive(
    port, pinning, bodies, scripts, shadows, plan, side, fps, read_fps, half, checks
) -> dict:
    updater = await Connection(HOST, port).open()
    readers = [await Connection(HOST, port).open() for _ in range(os.cpu_count() or 1)]
    cursor = [0] * len(GRAPHS)
    #: Per graph, the fingerprint acknowledged after each batch.
    history: list[list[str]] = [[] for _ in GRAPHS]

    async def update(gi: int) -> float:
        if cursor[gi] >= len(scripts[gi]):
            raise BenchError("edit script exhausted; raise SCRIPT_BATCHES")
        batch = scripts[gi][cursor[gi]]
        cursor[gi] += 1
        body = json.dumps({"edits": batch}).encode()
        pinning.turn(cursor[gi] + gi)
        t0 = time.perf_counter()
        status, raw = await updater.request("POST", f"/graphs/{fps[gi]}/updates", body)
        seconds = time.perf_counter() - t0
        checks.expect(status == 200, f"update answered {status}")
        if status == 200:
            ack = json.loads(raw)
            for sign, u, v in batch:
                (shadows[gi].insert_edge if sign == "+" else shadows[gi].remove_edge)(u, v)
            checks.expect(
                ack["num_edges"] == shadows[gi].num_edges,
                "ack edge count differs from the shadow graph",
            )
            fps[gi] = ack["fingerprint"]
            history[gi].append(fps[gi])
        return seconds

    try:
        t_sub = time.perf_counter()
        loads = []
        for c, pair in enumerate(bodies):
            copy_fps = fps if c == 0 else read_fps if c == 1 else {}
            total = 0.0
            for gi, body in enumerate(pair):
                pinning.turn(c + gi)
                copy_fps[gi], secs = await _submit(updater, body, checks)
                total += secs
            loads.append(total)
            if c > 1:
                for fp in copy_fps.values():
                    status, _ = await updater.request("DELETE", f"/graphs/{fp}")
                    checks.expect(status == 200, f"DELETE answered {status}")
        submit_window = (t_sub, time.perf_counter())
        for gi, fp in fps.items():
            history[gi].append(fp)
        # Every point is warm on both copies: the window's warm reads find
        # them, and each batch repairs them on the written copy.
        await _warm_up(updater, fps, checks)
        read_labels = await _warm_up(readers[0], read_fps, checks)
        alternating = asyncio.create_task(pinning.alternate())
        try:
            with quiet_gc():
                report = await open_loop(readers, plan)
        finally:
            alternating.cancel()
        # The first batch on each graph builds its streaming engine.
        t_first = time.perf_counter()
        first_update = sum([await update(gi) for gi in range(len(GRAPHS))])
        first_window = (t_first, time.perf_counter())

        updates: list[float] = []
        deadline = time.perf_counter() + half

        async def write_loop():
            start = time.perf_counter()
            while time.perf_counter() < deadline:
                for gi in range(len(GRAPHS)):
                    updates.append(await update(gi))
            return start, time.perf_counter()

        with quiet_gc():
            side_report, write_window = await asyncio.gather(
                open_loop(readers[:1], side), write_loop()
            )
        labels = []
        for gi, eps, mu in POINTS:
            status, body = await updater.request(
                "GET", f"/graphs/{fps[gi]}/cluster?eps={eps}&mu={mu}&include=labels"
            )
            checks.expect(status == 200, f"final labels read answered {status}")
            labels.append(((gi, eps, mu), body))
        _, stats = await updater.json("GET", "/stats")
    finally:
        await updater.close()
        for conn in readers:
            await conn.close()
    return {
        "loads": loads,
        "submit_window": submit_window,
        "first_window": first_window,
        "write_window": write_window,
        "first_update": first_update,
        "updates": updates,
        "history": history,
        "labels": labels,
        "read_labels": read_labels,
        "report": report,
        "side_report": side_report,
        "stats": stats,
    }
