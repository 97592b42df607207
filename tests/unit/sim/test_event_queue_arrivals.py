"""EventQueue behaviour under interleaved ARRIVAL events.

The streaming layer leans on two kernel guarantees the closed-batch
engine never stressed: the same-instant class ordering must slot
ARRIVAL events between RETRY_READY and REPLAN (admission reads a fully
settled cluster instant, replanning sees the arrival), and a cancelled
pending arrival (the horizon cut-off's tombstone) must be skipped by
pop/peek without disturbing anything else in the heap.
"""

import pytest

from repro.errors import EnvironmentStateError
from repro.sim import EventClass, EventQueue


def ignore(event):
    """A handler for events whose running the test does not observe."""


class TestSameInstantOrdering:
    def test_arrival_slots_between_retry_and_replan(self):
        q = EventQueue()
        # pushed in deliberately scrambled order, all at t=7
        q.push(7, EventClass.REPLAN, ignore, "replan")
        q.push(7, EventClass.ARRIVAL, ignore, "arrival")
        q.push(7, EventClass.COMPLETION, ignore, "completion")
        q.push(7, EventClass.RETRY_READY, ignore, "retry_ready")
        q.push(7, EventClass.CRASH, ignore, "crash")
        q.push(7, EventClass.RECOVERY, ignore, "recovery")
        labels = [q.pop().payload for _ in range(len(q))]
        assert labels == [
            "crash",
            "recovery",
            "completion",
            "retry_ready",
            "arrival",
            "replan",
        ]

    def test_same_instant_arrivals_pop_in_push_order(self):
        q = EventQueue()
        events = [q.push(3, EventClass.ARRIVAL, ignore, i) for i in range(5)]
        assert [q.pop().payload for _ in range(5)] == [0, 1, 2, 3, 4]
        assert [e.seq for e in events] == sorted(e.seq for e in events)

    def test_earlier_arrival_beats_earlier_pushed_completion(self):
        q = EventQueue()
        q.push(10, EventClass.COMPLETION, ignore, "completion")
        q.push(4, EventClass.ARRIVAL, ignore, "arrival")
        assert q.pop().payload == "arrival"
        assert q.pop().payload == "completion"

    def test_arrival_burst_interleaved_with_completions(self):
        # A burst slot shared by completions and arrivals must settle all
        # completion follow-ups before any admission decision fires.
        q = EventQueue()
        q.push(5, EventClass.ARRIVAL, ignore, ("arrival", "a0"))
        q.push(5, EventClass.COMPLETION, ignore, ("completion", "c0"))
        q.push(5, EventClass.ARRIVAL, ignore, ("arrival", "a1"))
        q.push(5, EventClass.COMPLETION, ignore, ("completion", "c1"))
        popped = [q.pop().payload for _ in range(4)]
        assert popped == [
            ("completion", "c0"),
            ("completion", "c1"),
            ("arrival", "a0"),
            ("arrival", "a1"),
        ]


class TestArrivalTombstones:
    def test_cancelled_arrival_skipped_at_pop(self):
        q = EventQueue()
        pending = q.push(4, EventClass.ARRIVAL, ignore, "shed")
        q.push(9, EventClass.COMPLETION, ignore, "completion")
        q.cancel(pending)
        assert len(q) == 1
        assert q.peek_time() == 9
        assert q.pop().payload == "completion"
        assert not q

    def test_cancel_head_of_same_instant_run(self):
        q = EventQueue()
        first = q.push(2, EventClass.ARRIVAL, ignore, 0)
        q.push(2, EventClass.ARRIVAL, ignore, 1)
        q.push(2, EventClass.ARRIVAL, ignore, 2)
        q.cancel(first)
        assert [q.pop().payload for _ in range(len(q))] == [1, 2]

    def test_double_cancel_is_noop(self):
        q = EventQueue()
        pending = q.push(1, EventClass.ARRIVAL, ignore)
        q.cancel(pending)
        q.cancel(pending)
        assert len(q) == 0 and not q
        with pytest.raises(EnvironmentStateError):
            q.pop()

    def test_cancelled_arrival_invisible_to_pop_due(self):
        q = EventQueue()
        pending = q.push(3, EventClass.ARRIVAL, ignore)
        q.push(6, EventClass.ARRIVAL, ignore, "live")
        q.cancel(pending)
        assert q.pop_due(3) is None
        assert q.peek_time() == 6
        due = q.pop_due(6)
        assert due is not None and due.payload == "live"

    def test_chain_reschedule_pattern(self):
        # The streaming workload keeps exactly one pending arrival: pop
        # it, push the next.  Tombstoning the pending one at cut-off must
        # leave the queue empty even mid-chain.
        q = EventQueue()
        pending = q.push(0, EventClass.ARRIVAL, ignore, 0)
        for nxt in range(1, 4):
            event = q.pop()
            assert event.payload == nxt - 1
            pending = q.push(event.time + 5, EventClass.ARRIVAL, ignore, nxt)
        q.cancel(pending)
        assert len(q) == 0
        assert q.peek_time() is None
