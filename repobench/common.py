"""Checkout layout, seeded inputs, statistics and child-process handling.

The benchmark runs from the root of a checkout and touches nothing outside
it: the program is imported from ``src/`` and scratch files go under
``.bench_build/repobench/``.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".bench_build" / "repobench"

#: Structure is fixed by the generator's default seed; the workload seed
#: only relabels vertices and reorders edges and schedules.
GENERATOR_SEED = 42


@dataclass(frozen=True)
class GraphSpec:
    name: str
    scale: float
    points: tuple[tuple[float, int], ...]


#: friendster: 14,000 vertices, 203,000 edges, homogeneous degrees.
#: twitter: 3,000 vertices, 49,500 edges, heavy tail.  Every point gives
#: at least 50 clusters (checked on every run).
GRAPHS = (
    GraphSpec("friendster", 1.0, ((0.15, 2), (0.15, 3))),
    GraphSpec("twitter", 0.5, ((0.3, 2), (0.3, 3))),
)
MIN_CLUSTERS = 50
#: Every (graph index, ε, µ) point, in the fixed order runs visit them.
POINTS = tuple(
    (gi, eps, mu) for gi, spec in enumerate(GRAPHS) for eps, mu in spec.points
)


class BenchError(RuntimeError):
    """A failed correctness check or an invalid run."""


def require_program() -> None:
    """Put the checkout's ``src`` first on the import path, or exit."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"repobench: no program under {SRC} (run from the root of a "
            "checkout)",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@functools.lru_cache(maxsize=None)
def base_edges(spec: GraphSpec) -> tuple[np.ndarray, int]:
    """The stand-in's ``u < v`` edge list with isolated vertices removed
    (so every relabelling has the same vertex count)."""
    from repro.graph.generators import real_world_standin

    graph = real_world_standin(spec.name, scale=spec.scale, seed=GENERATOR_SEED)
    edges = graph.edge_list().astype(np.int64)
    used = np.unique(edges)
    compact = np.full(graph.num_vertices, -1, dtype=np.int64)
    compact[used] = np.arange(used.size)
    edges = compact[edges]
    edges.flags.writeable = False
    return edges, int(used.size)


def relabelling(seed: int, gi: int, copy: int = 0) -> np.ndarray:
    """The vertex permutation of graph ``gi`` in copy ``copy`` of a seed."""
    n = base_edges(GRAPHS[gi])[1]
    return np.random.default_rng([seed, 1000 * copy + gi]).permutation(n)


def workload_edges(seed: int, copy: int = 0) -> list[np.ndarray]:
    """One relabelled edge array per graph in :data:`GRAPHS`: an
    isomorphic copy with permuted ids, shuffled rows and flipped pairs."""
    out = []
    for gi, spec in enumerate(GRAPHS):
        edges = relabelling(seed, gi, copy)[base_edges(spec)[0]]
        rng = np.random.default_rng([seed, 1000 * copy + gi, 1])
        flip = rng.random(len(edges)) < 0.5
        edges[flip] = edges[flip][:, ::-1]
        out.append(edges[rng.permutation(len(edges))])
    return out


# -- statistics -------------------------------------------------------------


def quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=float), q))


def tail_q(n: int) -> float:
    """The highest quantile with at least ten samples beyond it (the
    median when there are fewer than twenty samples)."""
    return max(0.5, 1.0 - 10.0 / n) if n else 0.5


def per_case_samples(groups: list[list[float]]) -> list[float]:
    """Pool timings of operations that differ in cost (one list per case)
    into one sample set: each timing is scaled by its case's median and
    multiplied by the mean of the case medians.  A pooled median of raw
    timings would fall in the gap between cases and jump from run to run;
    scaled, the pool's median is near the mean case and its tail is the
    cases' common dispersion, with enough samples to have one."""
    medians = [statistics.median(g) for g in groups if g]
    if not medians:
        return []
    scale = statistics.fmean(medians)
    return [
        t / statistics.median(g) * scale for g in groups if g for t in g
    ]


def summarize(values) -> dict:
    values = list(values)
    if not values:
        raise BenchError("no samples")
    q = tail_q(len(values))
    return {
        "p50": quantile(values, 0.5),
        "tail": quantile(values, q),
        "tail_q": q,
        "n": len(values),
    }


# -- processes ----------------------------------------------------------------


def child_env() -> dict:
    """The environment of every process under test: the checkout's
    program first on the path, temporary files inside the checkout."""
    env = dict(os.environ)
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def spawn(argv: list[str], **kwargs) -> subprocess.Popen:
    return subprocess.Popen(
        argv,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        **kwargs,
    )


def stop(proc: subprocess.Popen, timeout: float = 20.0) -> int:
    """SIGTERM, wait, then SIGKILL; always reaps the child."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdin, proc.stdout):
        if stream is not None:
            stream.close()
    return proc.returncode


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def fresh_dir(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the one-line result the contract asks for."""
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
