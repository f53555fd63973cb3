"""Unit tests for the event queue."""

from repro.sched import EventQueue


class TestOrdering:
    def test_time_order(self):
        q = EventQueue()
        q.push(5.0, "b")
        q.push(1.0, "a")
        q.push(3.0, "c")
        assert [q.pop().kind for _ in range(3)] == ["a", "c", "b"]

    def test_tie_breaks_by_insertion(self):
        q = EventQueue()
        q.push(1.0, "first")
        q.push(1.0, "second")
        assert q.pop().kind == "first"
        assert q.pop().kind == "second"

    def test_payload_carried(self):
        q = EventQueue()
        q.push(1.0, "x", {"job": 7})
        assert q.pop().payload == {"job": 7}


class TestCancellation:
    def test_cancelled_event_skipped(self):
        q = EventQueue()
        token = q.push(1.0, "a")
        q.push(2.0, "b")
        q.cancel(token)
        assert q.pop().kind == "b"

    def test_cancel_idempotent(self):
        q = EventQueue()
        token = q.push(1.0, "a")
        q.cancel(token)
        q.cancel(token)
        assert len(q) == 0

    def test_len_tracks_live(self):
        q = EventQueue()
        t1 = q.push(1.0, "a")
        q.push(2.0, "b")
        assert len(q) == 2
        q.cancel(t1)
        assert len(q) == 1
        q.pop()
        assert len(q) == 0
        assert not q

    def test_pop_empty_returns_none(self):
        assert EventQueue().pop() is None


class TestTupleHeap:
    def test_equal_times_pop_in_insertion_order_with_unorderable_payloads(self):
        q = EventQueue()
        payloads = [object(), {"a": 1}, object(), [2], None]
        for i, payload in enumerate(payloads):
            q.push(1.0, f"k{i}", payload)
        q.push(0.5, "early", object())
        assert q.pop().kind == "early"
        popped = [q.pop() for _ in payloads]
        assert [e.kind for e in popped] == [f"k{i}" for i in range(5)]
        assert all(e.payload is p for e, p in zip(popped, payloads))

    def test_cancelled_tie_is_skipped_in_order(self):
        q = EventQueue()
        q.push(1.0, "a", object())
        token = q.push(1.0, "b", object())
        q.push(1.0, "c", object())
        q.cancel(token)
        assert [q.pop().kind, q.pop().kind] == ["a", "c"]
        assert q.pop() is None
