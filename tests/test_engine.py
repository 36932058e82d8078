"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.engine import EventQueue, Simulator, Component


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        fired = []
        q.push(5.0, fired.append, "late")
        q.push(1.0, fired.append, "early")
        while True:
            ev = q.pop()
            if ev is None:
                break
            ev.fn(*ev.args)
        assert fired == ["early", "late"]

    def test_fifo_among_equal_times(self):
        q = EventQueue()
        order = []
        for i in range(10):
            q.push(3.0, order.append, i)
        while q.pop() is not None:
            pass
        # pop() returned them; re-test with explicit drain capturing order
        q2 = EventQueue()
        for i in range(10):
            q2.push(3.0, order.append, i)
        out = []
        while True:
            ev = q2.pop()
            if ev is None:
                break
            out.append(ev.args[0])
        assert out == list(range(10))

    def test_cancelled_events_skipped(self):
        q = EventQueue()
        ev = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        ev.cancel()
        first = q.pop()
        assert first is not None and first.time == 2.0

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        ev = q.push(1.0, lambda: None)
        q.push(4.0, lambda: None)
        ev.cancel()
        assert q.peek_time() == 4.0

    def test_len_counts_live_events(self):
        q = EventQueue()
        ev = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        assert len(q) == 2
        ev.cancel()
        assert len(q) == 1

    def test_bool_empty(self):
        q = EventQueue()
        assert not q
        q.push(1.0, lambda: None)
        assert q


class TestSimulator:
    def test_run_executes_in_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "b")
        sim.schedule(1.0, fired.append, "a")
        sim.run()
        assert fired == ["a", "b"]
        assert sim.now == 5.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="kernel must be one of"):
            Simulator(kernel="batch")

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    def test_run_until_stops_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(10.0, fired.append, 2)
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 2]

    def test_events_can_schedule_events(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 3.0

    def test_same_time_insertion_order(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(7.0, fired.append, i)
        sim.run()
        assert fired == [0, 1, 2, 3, 4]


class TestFastPath:
    def test_schedule_interleaves_with_schedule_cancellable(self):
        # Handle-free and handle-returning pushes share one seq counter,
        # so equal-time entries fire in schedule order either way.
        sim = Simulator()
        out = []
        sim.schedule(2.0, out.append, "plain")
        sim.schedule_cancellable(1.0, out.append, "handle")
        sim.schedule_at(1.0, out.append, "plain-tie")
        sim.schedule_at_cancellable(1.0, out.append, "handle-tie")
        sim.run()
        assert out == ["handle", "plain-tie", "handle-tie", "plain"]

    def test_len_is_tracked_incrementally(self):
        sim = Simulator()
        q = sim.queue
        sim.schedule(1.0, lambda: None)
        ev = sim.schedule_cancellable(2.0, lambda: None)
        assert len(q) == 2
        ev.cancel()
        assert len(q) == 1
        ev.cancel()  # double-cancel must not double-count
        assert len(q) == 1
        q.pop()
        assert len(q) == 0 and not q

    def test_bool_does_not_mutate(self):
        q = EventQueue()
        ev = q.push(1.0, lambda: None)
        ev.cancel()
        heap_before = list(q._heap)
        assert not q
        assert q._heap == heap_before  # __bool__ no longer pops

    def test_cancelled_never_fires_via_run(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule_cancellable(1.0, fired.append, "x")
        sim.schedule(2.0, fired.append, "y")
        ev.cancel()
        sim.run()
        assert fired == ["y"]
        assert sim.events_fired == 1

    def test_schedule_at_cancellable(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule_at_cancellable(3.0, fired.append, "x")
        assert ev.time == 3.0
        sim.run()
        assert fired == ["x"]

    def test_cancel_after_pop_is_noop(self):
        q = EventQueue()
        ev = q.pop()
        assert ev is None
        q.push(1.0, lambda: None)
        popped = q.pop()
        popped.cancel()  # handle is off the heap; queue state unchanged
        assert len(q) == 0 and not q._cancelled

    def test_clear(self):
        q = EventQueue()
        q.push(1.0, lambda: None).cancel()
        q.push(2.0, lambda: None)
        q.clear()
        assert len(q) == 0 and q.pop() is None

    def test_run_until_with_cancelled_head(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule_cancellable(10.0, fired.append, "dead")
        sim.schedule(12.0, fired.append, "live")
        ev.cancel()
        sim.run(until=5.0)
        assert fired == [] and sim.now == 5.0
        sim.run()
        assert fired == ["live"] and sim.now == 12.0


class TestComponent:
    def test_bump_accumulates(self):
        sim = Simulator()
        c = Component(sim, "c")
        c.bump("x")
        c.bump("x", 2.5)
        assert c.stats["x"] == 3.5

    def test_reset_zeroes_keys(self):
        sim = Simulator()
        c = Component(sim, "c")
        c.bump("x", 5)
        c.reset_stats()
        assert c.stats["x"] == 0.0
