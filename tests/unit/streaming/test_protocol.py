"""Unit tests for the NDJSON wire protocol of the scheduling service."""

import copy
import json
import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.dag import Task, TaskGraph
from repro.errors import ProtocolError
from repro.schedulers.base import ClusterSnapshot, ScheduleRequest
from repro.streaming import layered_job_factory
from repro.streaming.protocol import (
    ERROR,
    REPLY,
    SCHEDULE,
    decode_frame,
    encode_frame,
    encode_reply,
    error_frame,
    parse_schedule,
    reply_frame,
    schedule_frame,
)


def _request(with_cluster=True):
    graph = layered_job_factory()(0, 42)
    cluster = None
    if with_cluster:
        cluster = ClusterSnapshot(capacities=(20, 20))
    return ScheduleRequest(graph=graph, cluster=cluster)


class TestFraming:
    def test_encode_is_one_compact_line(self):
        wire = encode_frame({"type": "ping", "z": 1, "a": 2})
        assert wire.endswith(b"\n") and wire.count(b"\n") == 1
        assert b" " not in wire  # compact separators
        assert wire.index(b'"a"') < wire.index(b'"z"')  # sorted keys

    def test_round_trip(self):
        frame = {"type": "ping", "id": "x"}
        assert decode_frame(encode_frame(frame)) == frame

    def test_decode_accepts_str_and_bytes(self):
        assert decode_frame('{"type": "ping"}') == {"type": "ping"}
        assert decode_frame(b'{"type": "ping"}') == {"type": "ping"}

    @pytest.mark.parametrize(
        "line",
        [
            b"\xff\xfe",  # not UTF-8
            b"{not json",  # invalid JSON
            b"[1, 2]",  # not an object
            b"{}",  # no type
            b'{"type": 7}',  # non-string type
            b'{"type": ""}',  # empty type
            pytest.param(  # RecursionError inside json.loads
                b'{"type":"x","a":' + b"[" * 100_000 + b"]" * 100_000 + b"}",
                id="nested-100000-deep",
            ),
        ],
    )
    def test_malformed_lines_rejected(self, line):
        with pytest.raises(ProtocolError):
            decode_frame(line)


class TestScheduleFrames:
    def test_request_round_trip(self):
        request = _request()
        frame = schedule_frame("job-1", request)
        # the frame must survive the wire
        decoded = decode_frame(encode_frame(frame))
        request_id, parsed = parse_schedule(decoded)
        assert request_id == "job-1"
        assert parsed.graph == request.graph
        assert parsed.cluster == request.cluster

    def test_cluster_optional(self):
        frame = schedule_frame("job-2", _request(with_cluster=False))
        assert "cluster" not in frame
        _, parsed = parse_schedule(frame)
        assert parsed.cluster is None

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda f: f.pop("id"),
            lambda f: f.update(id=""),
            lambda f: f.update(type="ping"),
            lambda f: f.pop("graph"),
            lambda f: f.update(graph={"bogus": True}),
            lambda f: f.update(cluster=[1, 2]),
            lambda f: f.update(cluster={"capacities": "nope"}),
        ],
    )
    def test_malformed_schedule_frames_rejected(self, mutate):
        frame = schedule_frame("job-4", _request())
        mutate(frame)
        with pytest.raises(ProtocolError):
            parse_schedule(frame)


# ---------------------------------------------------------------------- #
# hostile numbers: a schedule frame carries JSON integers or is refused
# ---------------------------------------------------------------------- #

NAN, INF = float("nan"), float("inf")


def _full_frame():
    """A valid frame with a number in every place the protocol has one,
    as it comes off the wire."""
    graph = TaskGraph(
        [
            Task(0, 3, (2, 1), name="a"),
            Task(1, 2, (1, 2)),
            Task(2, 4, (3, 3)),
            Task(3, 1, (4, 2)),
        ],
        [(0, 1), (0, 2), (1, 3)],
    )
    request = ScheduleRequest(graph=graph, cluster=ClusterSnapshot((20, 20)))
    return decode_frame(encode_frame(schedule_frame("job", request)))


def _put(frame, path, value):
    """``frame`` with ``value`` at ``path`` (a tuple of keys / indices)."""
    frame = copy.deepcopy(frame)
    target = frame
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return frame


def _wire(frame):
    return decode_frame(encode_frame(frame))


TASK0 = ("graph", "tasks", 0)

#: (path, value): at the parent these left ``parse_schedule`` as
#: ``ConfigError``, ``ValueError`` and ``OverflowError`` — the handler
#: died and the client read EOF.
ESCAPED = [
    pytest.param(TASK0 + ("runtime",), 0, id="runtime-zero"),
    pytest.param(TASK0 + ("id",), -1, id="negative-id"),
    pytest.param(TASK0 + ("demands",), [], id="no-demands"),
    pytest.param(TASK0 + ("demands",), [2, -1], id="negative-demand"),
    pytest.param(TASK0 + ("runtime",), NAN, id="runtime-nan"),
    pytest.param(("graph", "edges"), [[0]], id="edge-one-endpoint"),
    pytest.param(("graph", "edges"), "ab", id="edges-string"),
    pytest.param(("graph", "edges"), [["a", "b"]], id="edge-of-strings"),
    pytest.param(("graph", "edges"), [[0, NAN]], id="edge-nan"),
    pytest.param(TASK0 + ("runtime",), INF, id="runtime-inf"),
    pytest.param(TASK0 + ("demands",), [INF, 1], id="demand-inf"),
    pytest.param(("cluster", "capacities"), [INF, 20], id="capacity-inf"),
]

#: Accepted at the parent, silently: truncated, coerced or misreported.
SILENTLY_WRONG = [
    pytest.param(TASK0 + ("runtime",), 2.7, id="runtime-float"),
    pytest.param(TASK0 + ("demands",), [1.5, 1], id="demand-float"),
    pytest.param(("graph", "edges"), [[0, 0.5]], id="edge-float"),
    pytest.param(("cluster", "capacities"), [20.9, 20.9], id="capacity-float"),
    pytest.param(TASK0 + ("runtime",), True, id="runtime-bool"),
    pytest.param(TASK0 + ("name",), {"a": 1}, id="name-object"),
    pytest.param(TASK0 + ("id",), 0.0, id="id-integral-float"),
    pytest.param(TASK0 + ("runtime",), "3", id="runtime-string"),
    pytest.param(TASK0 + ("demands",), "21", id="demands-string"),
]


class TestHostileNumbers:
    def test_the_full_frame_is_valid(self):
        request_id, request = parse_schedule(_full_frame())
        assert request_id == "job"
        assert request.cluster == ClusterSnapshot((20, 20))
        assert request.graph.task(0) == Task(0, 3, (2, 1))

    @pytest.mark.parametrize("path, value", ESCAPED + SILENTLY_WRONG)
    def test_malformed_number_is_a_protocol_error(self, path, value):
        frame = _put(_full_frame(), path, value)
        with pytest.raises(ProtocolError):
            parse_schedule(frame)
        # And after a trip over the wire (NaN and Infinity survive it).
        with pytest.raises(ProtocolError):
            parse_schedule(_wire(frame))

    def test_an_overflowing_literal_decodes_to_infinity_and_is_refused(self):
        line = encode_frame(_full_frame()).replace(
            b'"capacities":[20,20]', b'"capacities":[1e999,20]'
        )
        frame = decode_frame(line)
        assert math.isinf(frame["cluster"]["capacities"][0])
        with pytest.raises(ProtocolError, match="capacities"):
            parse_schedule(frame)

    def test_name_may_be_null_or_a_string(self):
        for name in (None, "map-0", ""):
            _, request = parse_schedule(_put(_full_frame(), TASK0 + ("name",), name))
            assert request.graph.task(0).name == name

    def test_big_integers_are_integers(self):
        frame = _put(_full_frame(), ("cluster", "capacities"), [10**40, 20])
        assert parse_schedule(_wire(frame))[1].cluster.capacities == (10**40, 20)


#: (path, value) in keys the protocol does not read, because no planner
#: reads them: whatever they hold is ignored.
UNREAD = [
    pytest.param(("cluster", "available"), [12, -INF], id="available-inf"),
    pytest.param(("cluster", "available"), [True, 7], id="available-bool"),
    pytest.param(("cluster", "now"), INF, id="now-inf"),
    pytest.param(("cluster", "now"), 5.0, id="now-integral-float"),
    pytest.param(("deadline",), INF, id="deadline-inf"),
    pytest.param(("deadline",), 40.5, id="deadline-float"),
    pytest.param(("deadline",), "40", id="deadline-string"),
    pytest.param(("deadline",), False, id="deadline-bool"),
    pytest.param(("frozen",), {"7": [0, INF]}, id="frozen-inf"),
    pytest.param(("frozen",), {"7": [0.2, 3]}, id="frozen-float"),
    pytest.param(("frozen",), {"7": ["0", "3"]}, id="frozen-strings"),
    pytest.param(("frozen",), {"x": [1]}, id="frozen-key-not-decimal"),
    pytest.param(("pinned",), {"8": [INF, 9]}, id="pinned-inf"),
    pytest.param(("pinned",), {"8": "49"}, id="pinned-string"),
    pytest.param(("pinned",), {"8": [4, 9, 11]}, id="pinned-three-numbers"),
]


class TestUnreadKeys:
    @pytest.mark.parametrize("path, value", UNREAD)
    def test_a_value_in_an_unread_key_is_ignored(self, path, value):
        frame = _put(_full_frame(), path, value)
        expected = parse_schedule(_full_frame())
        assert parse_schedule(frame) == expected
        assert parse_schedule(_wire(frame)) == expected


def _numeric_paths(node, prefix=()):
    """Every position of the full frame that holds a number, and every
    list of numbers as a whole (``demands``, an edge, a span, ...)."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numeric_paths(value, prefix + (key,))
    elif isinstance(node, list):
        yield prefix
        for index, value in enumerate(node):
            yield from _numeric_paths(value, prefix + (index,))
    elif type(node) is int:
        yield prefix


NUMERIC_PATHS = sorted(_numeric_paths(_full_frame()), key=repr)

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=5),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=8,
)


def _leaves(node):
    if isinstance(node, (list, tuple)):
        for value in node:
            yield from _leaves(value)
    elif isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from _leaves(value)
    else:
        yield node


def _numbers_of_frame(frame):
    graph = frame["graph"]
    cluster = frame["cluster"]
    return {
        "tasks": sorted(
            (t["id"], t["runtime"], tuple(t["demands"])) for t in graph["tasks"]
        ),
        "edges": sorted({(up, down) for up, down in graph["edges"]}),
        "capacities": tuple(cluster["capacities"]),
    }


def _numbers_of_request(request):
    graph = request.graph
    return {
        "tasks": sorted((t.task_id, t.runtime, t.demands) for t in graph),
        "edges": sorted(graph.edges()),
        "capacities": request.cluster.capacities,
    }


class TestArbitraryJsonAtNumericPositions:
    def test_the_positions_cover_the_frame(self):
        paths = set(NUMERIC_PATHS)
        for path in [
            ("graph", "version"),
            ("graph", "tasks"),
            TASK0 + ("id",),
            TASK0 + ("runtime",),
            TASK0 + ("demands",),
            TASK0 + ("demands", 1),
            ("graph", "edges"),
            ("graph", "edges", 2),
            ("graph", "edges", 2, 0),
            ("cluster", "capacities"),
            ("cluster", "capacities", 0),
        ]:
            assert path in paths, path

    @settings(max_examples=600, deadline=None)
    @given(path=st.sampled_from(NUMERIC_PATHS), value=JSON_VALUES, wire=st.booleans())
    def test_outcome_is_the_payloads_numbers_or_a_protocol_error(self, path, value, wire):
        """Nothing but ``ProtocolError`` leaves ``parse_schedule``, and a
        request that comes back says what the payload said: no
        truncation, no coercion, every number an exact ``int``."""
        frame = _put(_full_frame(), path, value)
        if wire:
            frame = _wire(frame)
        try:
            request_id, request = parse_schedule(frame)
        except ProtocolError:
            return
        assert request_id == "job"
        got = _numbers_of_request(request)
        assert got == _numbers_of_frame(frame)
        for leaf in _leaves(list(got.values())):
            assert leaf is None or type(leaf) is int, (path, value, leaf)


class TestReplies:
    def test_reply_carries_schedule_and_batch(self):
        from repro.schedulers import make_scheduler

        request = _request()
        schedule = make_scheduler("tetris").plan(request)
        frame = reply_frame("job-5", schedule, tick=3, batch_size=2)
        assert frame["type"] == REPLY and frame["id"] == "job-5"
        assert frame["batch"] == {"tick": 3, "size": 2}
        payload = json.loads(encode_frame(frame).decode("utf-8"))
        placements = payload["schedule"]["placements"]
        assert len(placements) == len(request.graph.task_ids)

    def test_error_frame_echoes_id_when_present(self):
        assert error_frame("job-6", "boom") == {
            "type": ERROR,
            "id": "job-6",
            "error": "boom",
        }
        assert "id" not in error_frame(None, "boom")

    def test_type_constants_are_wire_values(self):
        assert SCHEDULE == "schedule" and REPLY == "schedule.reply"


# ---------------------------------------------------------------------- #
# encode_reply == encode_frame(reply_frame(...)), byte for byte
# ---------------------------------------------------------------------- #


def _reference_reply(request_id, schedule, tick, batch_size):
    return encode_frame(reply_frame(request_id, schedule, tick, batch_size))


def _outcome(render, *args):
    try:
        return render(*args)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)


#: Strings JSON must escape: a quote, a backslash, control characters,
#: non-ASCII (two- and four-byte UTF-8) and a lone surrogate.
ESCAPED_TEXT = ['a"b', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "caf\u00e9",
                "\u2603\U0001F600", "\ud800", "", "/</script>"]


@st.composite
def schedules(draw):
    from repro.metrics.schedule import Schedule, ScheduledTask

    placements = []
    for tid in draw(st.lists(st.integers(0, 10**6), max_size=12, unique=True)):
        start = draw(st.one_of(st.integers(0, 10**6), st.integers(0, 10**400)))
        duration = draw(st.integers(1, 10**6))
        placements.append(ScheduledTask(tid, start, start + duration))
    return Schedule(
        tuple(placements),
        scheduler=draw(st.one_of(st.text(), st.sampled_from(ESCAPED_TEXT))),
        wall_time=draw(
            st.one_of(
                st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e300]),
                st.floats(allow_nan=True, allow_infinity=True),
            )
        ),
    )


class TestReplyRenderer:
    @settings(max_examples=300, deadline=None)
    @given(
        request_id=st.one_of(st.text(), st.sampled_from(ESCAPED_TEXT)),
        schedule=schedules(),
        tick=st.integers(1, 10**9),
        batch_size=st.integers(1, 64),
    )
    def test_the_bytes_are_the_reference_encoders(
        self, request_id, schedule, tick, batch_size
    ):
        args = (request_id, schedule, tick, batch_size)
        assert encode_reply(*args) == _reference_reply(*args)

    @pytest.mark.parametrize("scheduler", ["tetris", "sjf", "cp", "heft", "graphene"])
    @pytest.mark.parametrize("wall_time", [0.0, 5e-324, 1e300])
    def test_a_planned_schedule_renders_as_the_reference(self, scheduler, wall_time):
        from repro.metrics.schedule import Schedule
        from repro.schedulers import make_scheduler

        planned = make_scheduler(scheduler).plan(_request())
        schedule = Schedule(planned.placements, planned.scheduler, wall_time)
        for request_id in ESCAPED_TEXT + ["job-1"]:
            args = (request_id, schedule, 7, 3)
            assert encode_reply(*args) == _reference_reply(*args)

    def test_an_empty_schedule(self):
        from repro.metrics.schedule import Schedule

        args = ("job", Schedule((), "x"), 1, 1)
        assert encode_reply(*args) == _reference_reply(*args)

    @pytest.mark.parametrize(
        "value",
        [
            pytest.param(True, id="bool"),
            pytest.param(2.0, id="float"),
            pytest.param(float("inf"), id="infinity"),
            pytest.param("np.int64", id="numpy-int"),
        ],
    )
    def test_a_number_that_is_not_an_exact_int_takes_the_reference_path(
        self, value
    ):
        """Bytes equal to the reference's, or the reference's error (JSON
        cannot write a NumPy integer)."""
        import numpy as np

        from repro.metrics.schedule import Schedule, ScheduledTask

        if value == "np.int64":
            value = np.int64(2)
        placements = (ScheduledTask(0, 0, 3), ScheduledTask(1, 0, value))
        args = ("job", Schedule(placements, "x", 0.5), 1, 1)
        assert _outcome(encode_reply, *args) == _outcome(_reference_reply, *args)
