"""Unit tests for the repro.sim discrete-event kernel."""

import pytest

from repro.cluster.sim_adapter import ClusterProcess
from repro.cluster.state import ClusterState
from repro.errors import EnvironmentStateError
from repro.faults.injector import TimelineCursor, TimelineEntry
from repro.sim import Event, EventClass, EventQueue, SimKernel


def ignore(event):
    """A handler for events whose running the test does not observe."""


class TestSimClock:
    def test_starts_at_given_time(self):
        assert SimKernel(start=7).now == 7

    def test_negative_start_rejected(self):
        with pytest.raises(EnvironmentStateError):
            SimKernel(start=-1)

    def test_advance_moves_forward(self):
        kernel = SimKernel()
        kernel.tick_to(5)
        assert kernel.now == 5

    def test_advance_clamps_backwards_jumps(self):
        kernel = SimKernel(start=10)
        kernel.tick_to(3)
        assert kernel.now == 10


class TestEventQueue:
    def test_orders_by_time_then_class_then_seq(self):
        q = EventQueue()
        q.push(5, EventClass.ARRIVAL, ignore, "late")
        q.push(5, EventClass.CRASH, ignore, "crash")
        q.push(3, EventClass.REPLAN, ignore, "early")
        q.push(5, EventClass.CRASH, ignore, "crash2")
        labels = [q.pop().payload for _ in range(4)]
        assert labels == ["early", "crash", "crash2", "late"]

    def test_full_class_table_order_at_one_instant(self):
        q = EventQueue()
        order = [
            EventClass.REPLAN,
            EventClass.STEAL,
            EventClass.ROUTE,
            EventClass.ARRIVAL,
            EventClass.RETRY_READY,
            EventClass.COMPLETION,
            EventClass.RECOVERY,
            EventClass.CRASH,
        ]
        for klass in order:
            q.push(9, klass, ignore)
        popped = [q.pop().klass for _ in range(len(order))]
        assert popped == sorted(order, key=int)

    def test_federation_classes_order_after_arrivals(self):
        # The federation contract: at one instant every arrival is
        # offered before placement runs, placements settle before
        # stealing reads the loads, and replans react last.
        q = EventQueue()
        q.push(7, EventClass.REPLAN, ignore, "replan")
        q.push(7, EventClass.STEAL, ignore, "steal")
        q.push(7, EventClass.ARRIVAL, ignore, "arrival")
        q.push(7, EventClass.ROUTE, ignore, "route")
        labels = [q.pop().payload for _ in range(4)]
        assert labels == ["arrival", "route", "steal", "replan"]

    def test_equal_key_events_pop_in_insertion_order(self):
        q = EventQueue()
        events = [q.push(4, EventClass.COMPLETION, ignore, i) for i in range(50)]
        assert [q.pop().payload for _ in events] == list(range(50))

    def test_negative_time_rejected(self):
        with pytest.raises(EnvironmentStateError):
            EventQueue().push(-1, EventClass.ARRIVAL, ignore)

    def test_pop_empty_raises(self):
        with pytest.raises(EnvironmentStateError):
            EventQueue().pop()

    def test_cancel_tombstones_event(self):
        q = EventQueue()
        doomed = q.push(1, EventClass.ARRIVAL, ignore, "doomed")
        q.push(2, EventClass.ARRIVAL, ignore, "kept")
        q.cancel(doomed)
        assert len(q) == 1
        assert q.peek_time() == 2
        assert q.pop().payload == "kept"
        assert not q

    def test_double_cancel_is_noop(self):
        q = EventQueue()
        event = q.push(1, EventClass.ARRIVAL, ignore)
        q.cancel(event)
        q.cancel(event)
        assert len(q) == 0

    def test_pop_due_respects_now(self):
        q = EventQueue()
        q.push(3, EventClass.ARRIVAL, ignore, "due")
        q.push(8, EventClass.ARRIVAL, ignore, "future")
        assert q.pop_due(5).payload == "due"
        assert q.pop_due(5) is None
        assert len(q) == 1


class TestSimKernel:
    def test_tick_advances_and_drains_in_order(self):
        kernel = SimKernel()
        seen = []

        def record(event):
            seen.append((event.payload, kernel.now))

        kernel.schedule(10, EventClass.ARRIVAL, record, "a")
        kernel.schedule(10, EventClass.CRASH, record, "crash")
        assert kernel.tick() == 10
        assert seen == [("crash", 10), ("a", 10)]

    def test_backlog_event_processes_at_now(self):
        kernel = SimKernel(start=5)
        times = []
        kernel.schedule(
            2, EventClass.ARRIVAL, lambda e: times.append((e.time, kernel.now))
        )
        assert kernel.next_event_time() == 5
        kernel.tick()
        assert times == [(2, 5)]

    def test_tick_returns_none_when_exhausted(self):
        assert SimKernel().tick() is None

    def test_handler_can_schedule_same_instant_followup(self):
        kernel = SimKernel()
        seen = []

        def second(event):
            seen.append("second")

        def first(event):
            seen.append("first")
            kernel.schedule(kernel.now, EventClass.REPLAN, second)

        kernel.schedule(4, EventClass.CRASH, first)
        kernel.tick()
        assert seen == ["first", "second"]

    def test_processes_inject_events_on_advance(self):
        kernel = SimKernel()
        seen = []

        class Pulse:
            def __init__(self):
                self.fired = False

            def next_event_time(self):
                return None if self.fired else 6

            def advance_to(self, now, queue):
                if now >= 6 and not self.fired:
                    self.fired = True
                    queue.push(
                        now, EventClass.COMPLETION, lambda e: seen.append(kernel.now)
                    )

        kernel.add_process(Pulse())
        assert kernel.next_event_time() == 6
        assert kernel.tick() == 6
        assert seen == [6]
        assert kernel.tick() is None


class TestClusterProcess:
    def test_completions_become_kernel_events(self):
        state = ClusterState((4, 4))
        kernel = SimKernel()
        done = []
        kernel.add_process(
            ClusterProcess(state, lambda e: done.append(e.payload.task_id))
        )
        state.start(1, (2, 1), runtime=3)
        state.start(2, (1, 1), runtime=3)
        assert kernel.next_event_time() == 3
        kernel.tick()
        assert done == [1, 2]  # completion order: (finish, task_id)
        assert state.available == (4, 4)
        assert state.now == 3

    def test_capacity_released_before_same_instant_events(self):
        state = ClusterState((4, 4))
        kernel = SimKernel()
        free_at_crash = []
        kernel.add_process(ClusterProcess(state, ignore))
        state.start(1, (4, 4), runtime=2)
        kernel.schedule(
            2, EventClass.CRASH, lambda e: free_at_crash.append(state.available)
        )
        kernel.tick()
        # The crash sees post-release occupancy: the task's slots are
        # free even though crash (class 0) pops before completion (2).
        assert free_at_crash == [(4, 4)]

    def test_idle_cluster_reports_no_event(self):
        kernel = SimKernel()
        kernel.add_process(ClusterProcess(ClusterState((2,)), ignore))
        assert kernel.next_event_time() is None


class TestTimelineCursor:
    def entries(self):
        return [
            TimelineEntry(5, 0, "recovery", 0, (2, 2)),
            TimelineEntry(5, 1, "crash", 1, (3, 3)),
            TimelineEntry(9, 1, "crash", 0, (1, 1)),
        ]

    def test_drains_in_injector_order(self):
        cursor = TimelineCursor(self.entries())
        fired = cursor.drain(5)
        assert [(e.kind, e.machine) for e in fired] == [
            ("recovery", 0),
            ("crash", 1),
        ]
        assert not cursor.exhausted

    def test_second_drain_at_same_instant_is_empty(self):
        cursor = TimelineCursor(self.entries())
        assert cursor.drain(5)
        assert cursor.drain(5) == []
        assert cursor.drain(9) and cursor.exhausted

    def test_pre_history_entries_collapse_onto_now(self):
        cursor = TimelineCursor(self.entries())
        assert len(cursor.drain(100)) == 3


class TestEventRepr:
    def test_describe_mentions_kind_time_class(self):
        from repro.sim.events import describe

        event = Event(time=3, klass=EventClass.CRASH, seq=1, handler=ignore)
        text = describe(event)
        assert ignore.__qualname__ in text and "3" in text and "CRASH" in text
        assert describe(None) == "<no event>"
