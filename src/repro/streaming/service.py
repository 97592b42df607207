"""``repro serve`` — an asyncio scheduling daemon over the NDJSON protocol.

The daemon wraps one registry scheduler behind a TCP socket: clients
connect, send ``schedule`` frames (a DAG plus, optionally, the cluster
capacities to plan it on), and receive ``schedule.reply`` frames.
Three design points:

* **batched replanning** — requests are funneled into one queue and a
  single worker drains it in *ticks*: everything queued when the worker
  wakes (capped at ``batch_max``) plans as one batch, so a burst of
  concurrent replans — the crash-recovery thundering herd — is served
  together rather than head-of-line blocking the socket reader.  Each
  reply names its ``batch.tick`` and ``batch.size``; the smoke test and
  the telemetry stream both read them.
* **planning off the event loop** — the batch plans inside
  ``run_in_executor``, so readers keep accepting and queueing frames
  while the CPU-bound planner runs.
* **graceful drain** — a ``drain`` frame stops admission (subsequent
  ``schedule`` frames get an ``error`` reply), waits for every queued
  request to be answered, acknowledges with the final counts, and shuts
  the server down.  Nothing accepted is ever dropped.

Sim-time discipline (``tests/arch/test_sim_time.py`` guards this
package): the daemon never reads a wall clock — ticks are batch sequence
numbers and the times in a reply are the plan's slots.

:func:`run_smoke` runs the full loop in-process — real server, real
sockets on an ephemeral port, concurrent clients, drain — and returns
the frames for CI to assert on.
"""

from __future__ import annotations

import asyncio
import contextlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import ConfigError, ProtocolError, ReproError
from ..schedulers.base import ClusterSnapshot, ScheduleRequest, Scheduler
from ..telemetry import runtime as _telemetry
from ..utils.rng import as_generator
from . import protocol
from .arrivals import layered_job_factory

__all__ = ["SchedulerService", "ServiceStats", "run_serve", "run_smoke"]

_SEED_BOUND = 2**63 - 1


@dataclass
class ServiceStats:
    """Counters one daemon accumulates over its lifetime."""

    accepted: int = 0
    served: int = 0
    errors: int = 0
    batches: int = 0
    max_batch: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "accepted": self.accepted,
            "served": self.served,
            "errors": self.errors,
            "batches": self.batches,
            "max_batch": self.max_batch,
        }


@dataclass
class _Pending:
    """One accepted request waiting for its serving tick."""

    request_id: str
    request: ScheduleRequest
    writer: asyncio.StreamWriter


class SchedulerService:
    """One scheduler served over newline-delimited JSON.

    Args:
        scheduler: any :class:`~repro.schedulers.base.Scheduler` (use
            :func:`repro.schedulers.make_scheduler` to build one from a
            registry spec).
        host: bind address.
        port: bind port; 0 picks an ephemeral port (see
            :attr:`address` after :meth:`start`).
        batch_max: most requests planned in one serving tick.

    Raises:
        ConfigError: on a ``batch_max`` below 1.

    ``serve.*`` events go to the pipeline active at construction: the
    service looks it up once, not per request.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_max: int = 16,
    ) -> None:
        if batch_max < 1:
            raise ConfigError(f"batch_max must be >= 1, got {batch_max}")
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self.batch_max = batch_max
        self.stats = ServiceStats()
        self.address: Tuple[str, int] = (host, port)
        self._tm = _telemetry.active()
        self._queue: asyncio.Queue  # created in start()
        self._server: Optional[asyncio.AbstractServer] = None
        self._worker_task: Optional[asyncio.Task] = None
        self._subscribers: Set[asyncio.StreamWriter] = set()
        self._handlers: Set[asyncio.Task] = set()
        self._draining = False
        self._stopping = False
        self._stopped: asyncio.Event  # created in start()
        self._tick = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> Tuple[str, int]:
        """Bind the socket and start the batch worker; returns the address."""
        self._queue = asyncio.Queue()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        bound = self._server.sockets[0].getsockname()
        self.address = (bound[0], bound[1])
        self._worker_task = asyncio.create_task(self._worker())
        if self._tm.enabled:
            self._tm.event("serve.start", host=self.address[0], port=self.address[1])
        return self.address

    async def serve_until_drained(self) -> None:
        """Block until a client drains the daemon (or :meth:`stop` runs)."""
        await self._stopped.wait()

    async def stop(self) -> None:
        """Tear down: cancel the worker, close the listener, end every live
        connection handler, release waiters.  A second call is a no-op."""
        if self._stopping:
            return
        self._stopping = True
        if self._worker_task is not None:
            self._worker_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._worker_task
            self._worker_task = None
        if self._server is not None:
            self._server.close()
        # A handler left running is only cancelled at loop teardown, which
        # the stream protocol logs.  A draining handler calls this itself.
        live = self._handlers - {asyncio.current_task()}
        for task in live:
            task.cancel()
        if live:
            await asyncio.wait(live)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        if self._tm.enabled:
            self._tm.event("serve.stop", served=self.stats.served)
        self._stopped.set()

    # ------------------------------------------------------------------ #
    # the batch worker
    # ------------------------------------------------------------------ #

    def _plan_batch(
        self, batch: Sequence[_Pending], tick: int
    ) -> List[Tuple[Dict[str, Any], bool]]:
        """Plan one batch (runs in the executor, off the event loop).

        A plan that raises gets an ``error`` reply and the batch goes on:
        a :class:`~repro.errors.ReproError` says what was refused, and any
        other exception (a planner that overflows on a huge runtime, say)
        is named by its type, so one frame cannot stop the worker.
        """
        replies: List[Tuple[Dict[str, Any], bool]] = []
        for pending in batch:
            try:
                schedule = self.scheduler.plan(pending.request)
            except ReproError as exc:
                replies.append(
                    (protocol.error_frame(pending.request_id, str(exc)), False)
                )
                continue
            except Exception as exc:
                message = f"planner failed: {type(exc).__name__}: {exc}"
                replies.append(
                    (protocol.error_frame(pending.request_id, message), False)
                )
                continue
            replies.append(
                (
                    protocol.reply_frame(
                        pending.request_id, schedule, tick, len(batch)
                    ),
                    True,
                )
            )
        return replies

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            head = await self._queue.get()
            batch = [head]
            while len(batch) < self.batch_max:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            self._tick += 1
            tick = self._tick
            try:
                replies = await loop.run_in_executor(
                    None, self._plan_batch, batch, tick
                )
                for pending, (frame, ok) in zip(batch, replies):
                    if ok:
                        self.stats.served += 1
                    else:
                        self.stats.errors += 1
                    await self._send(pending.writer, frame)
            finally:
                for _ in batch:
                    self._queue.task_done()
            self.stats.batches += 1
            self.stats.max_batch = max(self.stats.max_batch, len(batch))
            if self._tm.enabled:
                self._tm.event("serve.batch", tick=tick, size=len(batch))
            await self._publish(
                {
                    "type": protocol.TELEMETRY,
                    "event": "serve.batch",
                    "tick": tick,
                    "size": len(batch),
                }
            )

    # ------------------------------------------------------------------ #
    # connections
    # ------------------------------------------------------------------ #

    async def _send(
        self, writer: asyncio.StreamWriter, frame: Dict[str, Any]
    ) -> None:
        if writer.is_closing():
            return
        try:
            writer.write(protocol.encode_frame(frame))
            await writer.drain()
        except (ConnectionError, RuntimeError):
            self._subscribers.discard(writer)

    async def _publish(self, frame: Dict[str, Any]) -> None:
        for writer in list(self._subscribers):
            await self._send(writer, frame)

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._handlers.add(task)
        try:
            while not self._stopping:
                try:
                    line = await self._read_line(reader)
                    if not line:
                        break
                    if not line.strip():
                        continue
                    frame = protocol.decode_frame(line)
                except ProtocolError as exc:
                    await self._send(writer, protocol.error_frame(None, str(exc)))
                    continue
                ftype = frame["type"]
                if ftype == protocol.SCHEDULE:
                    await self._on_schedule(frame, writer)
                elif ftype == protocol.PING:
                    await self._send(writer, {"type": protocol.PONG})
                elif ftype == protocol.SUBSCRIBE:
                    self._subscribers.add(writer)
                    await self._send(writer, {"type": protocol.SUBSCRIBE_ACK})
                elif ftype == protocol.DRAIN:
                    await self._on_drain(writer)
                    break
                else:
                    await self._send(
                        writer,
                        protocol.error_frame(
                            frame.get("id"), f"unknown frame type {ftype!r}"
                        ),
                    )
        except asyncio.CancelledError:
            # Cancelled by stop(): end normally, so the stream protocol's
            # done-callback (it reads ``task.exception()``) logs nothing.
            if not self._stopping:
                raise
        finally:
            self._handlers.discard(task)
            self._subscribers.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> bytes:
        """The next wire line, ``b""`` at end of stream.

        ``StreamReader.readline`` without its ``ValueError``: a line over
        the stream's limit (asyncio's default, 64 KiB) is dropped up to
        and including its newline — however many reads that takes — and
        reported once.

        Raises:
            ProtocolError: the line was over the limit; the next call
                starts at the line after it.
        """
        dropped = 0
        while True:
            try:
                line = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as exc:
                line = exc.partial
            except asyncio.LimitOverrunError as exc:
                dropped += len(await reader.readexactly(exc.consumed))
                continue
            if dropped:
                raise ProtocolError(
                    f"frame of {dropped + len(line)} bytes is over the line limit"
                )
            return line

    async def _on_schedule(
        self, frame: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        if self._draining:
            await self._send(
                writer,
                protocol.error_frame(frame.get("id"), "service is draining"),
            )
            return
        try:
            request_id, request = protocol.parse_schedule(frame)
        except ProtocolError as exc:
            self.stats.errors += 1
            await self._send(writer, protocol.error_frame(frame.get("id"), str(exc)))
            return
        self.stats.accepted += 1
        if self._tm.enabled:
            self._tm.event(
                "serve.accept",
                request=request_id,
                tasks=request.graph.num_tasks,
                replan=request.cluster is not None,
            )
        await self._queue.put(_Pending(request_id, request, writer))

    async def _on_drain(self, writer: asyncio.StreamWriter) -> None:
        self._draining = True
        await self._queue.join()
        await self._send(
            writer,
            {
                "type": protocol.DRAIN_ACK,
                "served": self.stats.served,
                "errors": self.stats.errors,
                "batches": self.stats.batches,
            },
        )
        await self.stop()


# ---------------------------------------------------------------------- #
# entry points
# ---------------------------------------------------------------------- #


def run_serve(
    scheduler: Scheduler,
    host: str = "127.0.0.1",
    port: int = 0,
    batch_max: int = 16,
    on_ready: Optional[Callable[[Tuple[str, int]], None]] = None,
) -> ServiceStats:
    """Run the daemon until a client drains it; returns the final stats.

    ``on_ready`` is invoked with the bound ``(host, port)`` once the
    socket listens (the CLI uses it to announce the address).
    """

    async def main() -> ServiceStats:
        service = SchedulerService(scheduler, host=host, port=port, batch_max=batch_max)
        address = await service.start()
        if on_ready is not None:
            on_ready(address)
        try:
            await service.serve_until_drained()
        finally:
            await service.stop()
        return service.stats

    return asyncio.run(main())


def run_smoke(
    scheduler: Scheduler,
    requests: int = 3,
    batch_max: int = 8,
    seed: int = 0,
    capacities: Sequence[int] = (20, 20),
) -> Dict[str, Any]:
    """In-process round trip: real server, concurrent clients, drain.

    Starts the daemon on an ephemeral port, submits ``requests``
    concurrent ``schedule`` frames (seeded layered DAGs over a full
    ``capacities`` cluster snapshot) from separate connections, then
    drains.  Returns every frame exchanged, for CI to assert on::

        {"address": [host, port], "replies": [...], "drain": {...},
         "pong": {...}, "stats": {...}}

    Raises:
        ConfigError: on fewer than one request or a ``batch_max`` below 1.
        ProtocolError: when a reply is missing, malformed, or the drain
            acknowledgement does not account for every request.
    """
    if requests < 1:
        raise ConfigError(f"smoke needs at least one request, got {requests}")
    factory = layered_job_factory()
    rng = as_generator(seed)
    frames = []
    snapshot = ClusterSnapshot(capacities=tuple(capacities))
    for index in range(requests):
        graph = factory(index, int(rng.integers(0, _SEED_BOUND)))
        frames.append(
            protocol.schedule_frame(
                f"smoke-{index}", ScheduleRequest(graph=graph, cluster=snapshot)
            )
        )

    async def client(port: int, frame: Dict[str, Any]) -> Dict[str, Any]:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(protocol.encode_frame(frame))
            await writer.drain()
            while True:
                line = await reader.readline()
                if not line:
                    raise ProtocolError(
                        f"connection closed before a reply to {frame['id']!r}"
                    )
                reply = protocol.decode_frame(line)
                if reply["type"] == protocol.TELEMETRY:
                    continue
                return reply
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def drain_client(port: int) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(protocol.encode_frame({"type": protocol.PING}))
            await writer.drain()
            pong = protocol.decode_frame(await reader.readline())
            writer.write(protocol.encode_frame({"type": protocol.DRAIN}))
            await writer.drain()
            ack = protocol.decode_frame(await reader.readline())
            return pong, ack
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def main() -> Dict[str, Any]:
        service = SchedulerService(scheduler, port=0, batch_max=batch_max)
        host, port = await service.start()
        try:
            replies = await asyncio.gather(*(client(port, f) for f in frames))
            pong, ack = await drain_client(port)
            await service.serve_until_drained()
        finally:
            await service.stop()
        return {
            "address": [host, port],
            "replies": sorted(
                replies, key=lambda r: int(str(r.get("id", "-0")).rpartition("-")[2])
            ),
            "pong": pong,
            "drain": ack,
            "stats": service.stats.as_dict(),
        }

    summary = asyncio.run(main())
    for frame, reply in zip(frames, summary["replies"]):
        if reply.get("type") != protocol.REPLY:
            raise ProtocolError(
                f"request {frame['id']!r} got {reply.get('type')!r}: {reply}"
            )
        placements = reply["schedule"]["placements"]
        if len(placements) != len(frame["graph"]["tasks"]):
            raise ProtocolError(
                f"reply to {frame['id']!r} placed {len(placements)} of "
                f"{len(frame['graph']['tasks'])} tasks"
            )
    if summary["pong"].get("type") != protocol.PONG:
        raise ProtocolError(f"ping was not answered: {summary['pong']}")
    ack = summary["drain"]
    if ack.get("type") != protocol.DRAIN_ACK or ack.get("served", 0) + ack.get(
        "errors", 0
    ) < requests:
        raise ProtocolError(f"drain did not account for every request: {ack}")
    return summary
