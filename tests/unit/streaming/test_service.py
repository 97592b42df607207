"""Unit tests for the asyncio scheduling daemon (`repro serve`)."""

import asyncio
import contextlib
import copy

import pytest

from repro.errors import ConfigError
from repro.schedulers import make_scheduler
from repro.streaming import SchedulerService, run_smoke
from repro.streaming import protocol


def test_batch_max_validated():
    with pytest.raises(ConfigError):
        SchedulerService(make_scheduler("tetris"), batch_max=0)


class TestRunSmoke:
    def test_round_trip_three_concurrent_requests(self):
        summary = run_smoke(make_scheduler("tetris"), requests=3, seed=0)
        replies = summary["replies"]
        assert [r["id"] for r in replies] == ["smoke-0", "smoke-1", "smoke-2"]
        assert all(r["type"] == protocol.REPLY for r in replies)
        stats = summary["stats"]
        assert stats["accepted"] == 3 and stats["served"] == 3
        assert stats["errors"] == 0
        assert summary["drain"]["type"] == protocol.DRAIN_ACK
        assert summary["drain"]["served"] == 3

    def test_replies_name_their_batch_tick(self):
        summary = run_smoke(make_scheduler("sjf"), requests=4, seed=1)
        for reply in summary["replies"]:
            batch = reply["batch"]
            assert batch["tick"] >= 1
            assert 1 <= batch["size"] <= 4
        # ticks partition the requests: batch sizes grouped by tick agree
        sizes = {}
        for reply in summary["replies"]:
            sizes.setdefault(reply["batch"]["tick"], []).append(
                reply["batch"]["size"]
            )
        for tick, batch_sizes in sizes.items():
            assert len(set(batch_sizes)) == 1
            assert len(batch_sizes) == batch_sizes[0]

    def test_batch_max_one_serializes_ticks(self):
        summary = run_smoke(make_scheduler("tetris"), requests=3, batch_max=1)
        assert all(r["batch"]["size"] == 1 for r in summary["replies"])
        assert summary["stats"]["batches"] == 3

    def test_needs_at_least_one_request(self):
        with pytest.raises(ConfigError):
            run_smoke(make_scheduler("tetris"), requests=0)


class _Client:
    """Minimal NDJSON test client against a live service."""

    def __init__(self, port):
        self.port = port

    async def __aenter__(self):
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port
        )
        return self

    async def __aexit__(self, *exc):
        self.writer.close()
        with contextlib.suppress(Exception):
            await self.writer.wait_closed()

    async def send(self, frame):
        self.writer.write(protocol.encode_frame(frame))
        await self.writer.drain()

    async def recv(self):
        line = await asyncio.wait_for(self.reader.readline(), timeout=10)
        return protocol.decode_frame(line)


def _serve(coro_factory, scheduler="tetris"):
    """Run one scenario against a started service; always stop it."""

    async def main():
        service = SchedulerService(make_scheduler(scheduler), port=0, batch_max=4)
        _, port = await service.start()
        try:
            return await asyncio.wait_for(coro_factory(service, port), timeout=30)
        finally:
            await service.stop()

    return asyncio.run(main())


class TestServiceProtocol:
    def test_malformed_frame_keeps_connection_alive(self):
        async def scenario(service, port):
            async with _Client(port) as client:
                client.writer.write(b"{broken\n")
                await client.writer.drain()
                error = await client.recv()
                await client.send({"type": protocol.PING})
                pong = await client.recv()
                return error, pong

        error, pong = _serve(scenario)
        assert error["type"] == protocol.ERROR
        assert pong["type"] == protocol.PONG

    @pytest.mark.parametrize(
        "line, reason",
        [
            pytest.param(  # 60 KB: under the line limit, so it reaches the parser
                b'{"type":"x","a":' + b"[" * 30_000 + b"]" * 30_000 + b"}\n",
                "nested too deeply",
                id="nested-30000-deep",
            ),
            pytest.param(
                b'{"type":"x","a":"' + b"a" * 200_000 + b'"}\n',
                "over the line limit",
                id="line-over-64KiB",
            ),
        ],
    )
    def test_hostile_line_gets_one_error_frame_and_the_connection_lives(
        self, line, reason
    ):
        """Each used to end the handler (``RecursionError`` out of
        ``json.loads``, ``ValueError`` out of ``readline``) and so drop
        the connection without a reply."""

        async def scenario(service, port):
            async with _Client(port) as client:
                client.writer.write(line)
                await client.send({"type": protocol.PING})
                return await client.recv(), await client.recv()

        error, pong = _serve(scenario)
        assert error["type"] == protocol.ERROR and reason in error["error"]
        assert pong["type"] == protocol.PONG

    def test_unknown_frame_type_reports_error(self):
        async def scenario(service, port):
            async with _Client(port) as client:
                await client.send({"type": "warp", "id": "x"})
                return await client.recv()

        reply = _serve(scenario)
        assert reply["type"] == protocol.ERROR and reply["id"] == "x"
        assert "warp" in reply["error"]

    def test_bad_schedule_payload_counts_as_error(self):
        async def scenario(service, port):
            async with _Client(port) as client:
                await client.send({"type": protocol.SCHEDULE, "id": "bad"})
                reply = await client.recv()
                return reply, service.stats.errors

        reply, errors = _serve(scenario)
        assert reply["type"] == protocol.ERROR and reply["id"] == "bad"
        assert errors == 1

    @pytest.mark.parametrize(
        "path, value",
        [
            # At the parent: ConfigError, ValueError, OverflowError out of
            # the handler (the client read EOF), then two silent coercions.
            pytest.param(("graph", "tasks", 0, "runtime"), 0, id="runtime-zero"),
            pytest.param(("graph", "tasks", 0, "demands"), [2, -1], id="negative-demand"),
            pytest.param(("graph", "edges"), [[0]], id="edge-one-endpoint"),
            pytest.param(("graph", "tasks", 0, "runtime"), float("nan"), id="runtime-nan"),
            pytest.param(("cluster", "capacities"), [float("inf"), 20], id="capacity-inf"),
            pytest.param(("graph", "tasks", 0, "runtime"), 2.7, id="runtime-float"),
            pytest.param(("cluster", "capacities"), [20.9, 20.9], id="capacity-float"),
        ],
    )
    def test_malformed_number_gets_an_error_frame_on_a_connection_that_lives(
        self, path, value
    ):
        good = protocol.schedule_frame("good", _smoke_request())
        bad = protocol.decode_frame(protocol.encode_frame(good))
        bad["id"] = "bad"
        target = bad
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

        async def scenario(service, port):
            async with _Client(port) as client:
                await client.send(bad)
                error = await client.recv()
                errors = service.stats.errors
                await client.send({"type": protocol.PING})
                pong = await client.recv()
                await client.send(good)
                reply = await client.recv()
                return error, errors, pong, reply, service.stats.as_dict()

        error, errors, pong, reply, stats = _serve(scenario)
        assert error["type"] == protocol.ERROR and error["id"] == "bad"
        assert errors == 1
        assert pong["type"] == protocol.PONG
        assert reply["type"] == protocol.REPLY and reply["id"] == "good"
        assert len(reply["schedule"]["placements"]) == len(good["graph"]["tasks"])
        assert stats["errors"] == 1 and stats["served"] == 1 and stats["accepted"] == 1

    @pytest.mark.parametrize("scheduler", ["tetris", "heft", "graphene"])
    def test_keys_no_planner_reads_leave_the_reply_unchanged(self, scheduler):
        # A frame that also carries frozen/pinned spans, a deadline and
        # the cluster's free slots and clock is answered like the frame
        # without them, byte for byte but the planner's wall time: a
        # plan is made from the DAG and the capacities alone.
        from repro.dag.io import graph_to_dict
        from repro.streaming import layered_job_factory

        bare = {
            "type": protocol.SCHEDULE,
            "id": "job",
            "graph": graph_to_dict(layered_job_factory()(0, 7)),
            "cluster": {"capacities": [16, 16]},
        }
        full = copy.deepcopy(bare)
        full["cluster"].update(available=[9, 4], now=12)
        full.update(frozen={"0": [0, 3]}, pinned={"1": [2, 7]}, deadline=40)

        def reply_to(frame):
            async def scenario(service, port):
                async with _Client(port) as client:
                    await client.send(frame)
                    return await client.recv()

            reply = _serve(scenario, scheduler)
            assert reply["type"] == protocol.REPLY
            del reply["schedule"]["wall_time"]
            return protocol.encode_frame(reply)

        assert reply_to(full) == reply_to(bare)

    @pytest.mark.parametrize("scheduler", ["mcts", "graphene"])
    def test_a_plan_that_raises_gets_an_error_frame_and_the_worker_lives(
        self, scheduler
    ):
        # A 401-digit runtime is a JSON integer the protocol accepts, and
        # these planners overflow converting it to a float.  The worker
        # used to die of the OverflowError: no reply to this frame or to
        # any later one.
        from repro.config import EnvConfig
        from repro.dag.io import graph_to_dict
        from repro.streaming import layered_job_factory

        good = {
            "type": protocol.SCHEDULE,
            "id": "good",
            "graph": graph_to_dict(layered_job_factory()(0, 7)),
        }
        huge = copy.deepcopy(good)
        huge["id"] = "huge"
        huge["graph"]["tasks"][0]["runtime"] = 10**400

        async def main():
            planner = make_scheduler(
                scheduler, EnvConfig(process_until_completion=True)
            )
            service = SchedulerService(planner, port=0)
            _, port = await service.start()
            try:
                async with _Client(port) as client:
                    await client.send(huge)
                    error = await client.recv()
                    await client.send(good)
                    reply = await client.recv()
                return error, reply, service.stats.as_dict()
            finally:
                await asyncio.wait_for(service.stop(), timeout=10)

        error, reply, stats = asyncio.run(asyncio.wait_for(main(), timeout=30))
        assert error["type"] == protocol.ERROR and error["id"] == "huge"
        assert "OverflowError" in error["error"]
        assert reply["type"] == protocol.REPLY and reply["id"] == "good"
        assert stats["errors"] == 1 and stats["served"] == 1

    def test_a_reply_line_is_the_reference_encoding(self):
        # The service renders reply lines itself (protocol.encode_reply);
        # the bytes are encode_frame(reply_frame(...))'s for the schedule
        # the line carries, an id JSON must escape included.
        from repro.metrics.export import schedule_from_dict

        request_id = 'job "1" \\ caf\u00e9 \U0001F600'

        async def scenario(service, port):
            async with _Client(port) as client:
                await client.send(protocol.schedule_frame(request_id, _smoke_request()))
                return await asyncio.wait_for(client.reader.readline(), timeout=10)

        line = _serve(scenario)
        reply = protocol.decode_frame(line)
        assert reply["type"] == protocol.REPLY and reply["id"] == request_id
        schedule = schedule_from_dict(reply["schedule"])
        batch = reply["batch"]
        reference = protocol.reply_frame(
            request_id, schedule, batch["tick"], batch["size"]
        )
        assert line == protocol.encode_frame(reference)

    def test_a_reply_that_cannot_be_written_gets_its_own_error(self):
        # json.loads takes each runtime of a chain of 4 300-digit ones, but
        # the chain's finish slot has more digits than str() may print.
        # The error names the reply, not the planner; the batch goes on.
        from repro.metrics.schedule import Schedule, ScheduledTask
        from repro.streaming.service import _Pending

        schedules = {
            "huge": Schedule((ScheduledTask(0, 0, 10**4300),), "stub"),
            "good": Schedule((ScheduledTask(0, 0, 2),), "stub"),
        }

        class Stub:
            def plan(self, request):
                return schedules[request]

        service = SchedulerService(Stub())
        batch = [_Pending(rid, rid, None) for rid in ("huge", "good")]
        (error, ok_error), (line, ok_line) = service._plan_batch(batch, 3)
        frame = protocol.decode_frame(error)
        assert not ok_error and frame["type"] == protocol.ERROR
        assert frame["id"] == "huge"
        assert frame["error"].startswith("reply could not be written: ValueError:")
        assert ok_line and line == protocol.encode_frame(
            protocol.reply_frame("good", schedules["good"], 3, 2)
        )

    def test_draining_rejects_new_schedules(self):
        async def scenario(service, port):
            service._draining = True
            async with _Client(port) as client:
                frame = protocol.schedule_frame(
                    "late", _smoke_request()
                )
                await client.send(frame)
                return await client.recv()

        reply = _serve(scenario)
        assert reply["type"] == protocol.ERROR
        assert "draining" in reply["error"]

    def test_subscriber_sees_batch_telemetry(self):
        async def scenario(service, port):
            async with _Client(port) as sub, _Client(port) as client:
                await sub.send({"type": protocol.SUBSCRIBE})
                ack = await sub.recv()
                await client.send(
                    protocol.schedule_frame("job", _smoke_request())
                )
                reply = await client.recv()
                telemetry = await sub.recv()
                return ack, reply, telemetry

        ack, reply, telemetry = _serve(scenario)
        assert ack["type"] == protocol.SUBSCRIBE_ACK
        assert reply["type"] == protocol.REPLY
        assert telemetry["type"] == protocol.TELEMETRY
        assert telemetry["event"] == "serve.batch"
        assert telemetry["size"] == 1


class TestStopWithLiveConnection:
    def test_stop_ends_handlers_quietly_and_twice_is_a_noop(self, capsys):
        """``stop()`` with a connected client used to leave the handler
        task for loop teardown, whose cancellation the stream protocol
        logged as ``Exception in callback ... CancelledError``."""
        reported = []

        async def main():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: reported.append(context)
            )
            service = SchedulerService(make_scheduler("tetris"), port=0)
            _, port = await service.start()
            async with _Client(port) as client:
                await client.send({"type": protocol.PING})
                assert (await client.recv())["type"] == protocol.PONG
                await asyncio.wait_for(service.stop(), timeout=10)
                served = service.stats.served
                await asyncio.wait_for(service.stop(), timeout=10)
                assert service.stats.served == served
                # The service hung up: the client reads end-of-stream.
                assert await asyncio.wait_for(client.reader.readline(), 10) == b""

        asyncio.run(main())
        assert reported == []
        assert capsys.readouterr().err == ""


def _smoke_request():
    from repro.schedulers.base import ClusterSnapshot, ScheduleRequest
    from repro.streaming import layered_job_factory

    return ScheduleRequest(
        graph=layered_job_factory()(0, 7),
        cluster=ClusterSnapshot(capacities=(20, 20)),
    )
