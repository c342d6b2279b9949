"""A minimal HTTP/1.1 keep-alive client and an open-loop request generator.

The generator sends each planned request at its due time over a fixed set
of connections, whatever the server is doing, and times it from that due
time, so a stall also counts against the requests queued behind it.  Its
own health is reported separately: how late it woke for each due time,
and how many requests were due but unanswered when the window closed.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import time
from dataclasses import dataclass, field
from typing import Callable


@contextlib.contextmanager
def quiet_gc():
    """No garbage collection in this process while the window runs.

    The generator holds tens of thousands of objects (schedule, oracles),
    so its full collections pause it for 15-30 ms, and every request in
    flight would be charged for the pause.  Objects allocated before the
    window are frozen out of later collections too.
    """
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


class Connection:
    """One keep-alive connection; one request at a time."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def open(self) -> "Connection":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=1 << 24
        )
        return self

    async def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        head = [f"{method} {path} HTTP/1.1", f"Host: {self.host}"]
        if body:
            head.append("Content-Type: application/json")
        head.append(f"Content-Length: {len(body)}")
        self._writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        await self._writer.drain()
        status_and_headers = await self._reader.readuntil(b"\r\n\r\n")
        lines = status_and_headers.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        payload = await self._reader.readexactly(length) if length else b""
        return status, payload

    async def json(self, method: str, path: str, payload=None) -> tuple[int, dict]:
        body = b"" if payload is None else json.dumps(payload).encode()
        status, raw = await self.request(method, path, body)
        return status, json.loads(raw) if raw else {}

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass


@dataclass
class Planned:
    """One request of the schedule: due ``due`` seconds into the window."""

    due: float
    kind: str
    path: Callable[[], str]
    graph: int = 0
    point: tuple = ()
    vertex: int | None = None
    #: Filled in when answered.
    latency: float = -1.0
    status: int = 0
    body: bytes = b""


@dataclass
class LoopReport:
    lags: list[float] = field(default_factory=list)
    backlog_at_end: int = 0
    window: tuple[float, float] = (0.0, 0.0)


async def open_loop(conns: list[Connection], plan: list[Planned]) -> LoopReport:
    """Send ``plan`` on schedule over ``conns``; fills each :class:`Planned`."""
    queue: asyncio.Queue = asyncio.Queue()
    report = LoopReport()
    in_flight = 0
    t0 = time.perf_counter() + 0.05

    async def worker(conn: Connection) -> None:
        nonlocal in_flight
        while True:
            item = await queue.get()
            if item is None:
                return
            in_flight += 1
            try:
                status, body = await conn.request("GET", item.path())
            finally:
                in_flight -= 1
            item.latency = time.perf_counter() - (t0 + item.due)
            item.status, item.body = status, body

    workers = [asyncio.create_task(worker(conn)) for conn in conns]
    for item in plan:
        delay = t0 + item.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        report.lags.append(time.perf_counter() - (t0 + item.due))
        queue.put_nowait(item)
    report.backlog_at_end = queue.qsize() + in_flight
    report.window = (t0, time.perf_counter())
    for _ in conns:
        queue.put_nowait(None)
    await asyncio.gather(*workers)
    return report
