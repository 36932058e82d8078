"""Production vs reference dispatch loop: ordering, cancellation, equality.

``Simulator.run`` pops heap tuples inline; the reference loop goes
through the ``EventQueue`` API one event at a time. These tests pin the
contract between them: both fire equal-time events in the identical
global ``(time, seq)`` order — including events scheduled at the current
time from inside a callback and cancellables cancelled by an earlier
same-time event — both leave the clock in the same place under ``until``
and cancellation, and a full simulation is bit-identical on both, with
or without observability attached.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.engine.kernel import KERNEL_MODES, Simulator
from repro.exec.spec import TaskSpec
from repro.fuzz.oracles import run_oracle

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def _scenario(sim: Simulator):
    """Script a queue exercising every equal-time edge; returns the log.

    Covers: several events at one timestamp, a same-cycle spawn chain
    (events scheduled at the *current* time from inside a callback), a
    cancellable cancelled by an earlier same-time event, a cancellable
    spawned and cancelled within one timestamp, cross-time scheduling out
    of a same-time group, and a trailing cancelled event that must not
    advance the clock.
    """
    log = []
    handles = {}

    def rec(tag):
        log.append((sim.now, tag))

    def chain(tag, n):
        rec(tag)
        if n > 0:
            sim.schedule(0.0, chain, tag + "+", n - 1)

    def cancel(name):
        handles[name].cancel()
        rec("cancel:" + name)

    def spawn_cancelled(name):
        # Both land at the current time; the canceller has the lower
        # seq, so the cancellable is skipped at fire time.
        rec("spawn:" + name)
        sim.schedule(0.0, cancel, name)
        handles[name] = sim.schedule_cancellable(0.0, rec, name)

    sim.schedule(1.0, rec, "a")
    sim.schedule(1.0, chain, "b", 2)
    sim.schedule(1.0, rec, "c")
    sim.schedule(1.0, cancel, "y")
    handles["y"] = sim.schedule_cancellable(1.0, rec, "y")
    sim.schedule(1.0, lambda: sim.schedule(2.0, rec, "late"))
    sim.schedule(2.0, spawn_cancelled, "z")
    sim.schedule(3.0, rec, "d")
    handles["tick"] = sim.schedule_cancellable(100.0, rec, "tick")
    sim.schedule(3.0, cancel, "tick")
    return log


def _run_all_kernels(drive):
    """``drive(sim)`` once per kernel; returns {kernel: (log, now, fired)}."""
    out = {}
    for kernel in KERNEL_MODES:
        sim = Simulator(kernel=kernel)
        log = _scenario(sim)
        drive(sim)
        out[kernel] = (log, sim.now, sim.events_fired)
    return out


class TestEqualTimeOrdering:
    def test_identical_firing_order_across_kernels(self):
        runs = _run_all_kernels(lambda sim: sim.run())
        logs = {k: v[0] for k, v in runs.items()}
        assert logs["fast"] == logs["reference"]
        # Equal-time events fire in schedule order; the same-cycle chain
        # (b+ / b++) fires after every event already queued at t=1.
        t1 = [tag for t, tag in logs["fast"] if t == 1.0]
        assert t1 == ["a", "b", "c", "cancel:y", "b+", "b++"]
        # The same-time cancellable never fires; its canceller does.
        t2 = [tag for t, tag in logs["fast"] if t == 2.0]
        assert t2 == ["spawn:z", "cancel:z"]
        assert "z" not in [tag for _, tag in logs["fast"]]
        # "late" was scheduled 2.0 ns ahead from a t=1 callback, so it
        # fires at t=3 after the events queued before it.
        t3 = [tag for t, tag in logs["fast"] if t == 3.0]
        assert t3 == ["d", "cancel:tick", "late"]

    def test_cancelled_trailing_event_does_not_advance_clock(self):
        for kernel in KERNEL_MODES:
            sim = Simulator(kernel=kernel)
            _scenario(sim)
            sim.run()
            # The cancelled tick at t=100 must not move the clock.
            assert sim.now == 3.0, kernel
            assert sim.pending() == 0

    def test_events_fired_identical(self):
        runs = _run_all_kernels(lambda sim: sim.run())
        fired = {v[2] for v in runs.values()}
        assert len(fired) == 1

    def test_until_leaves_clock_at_until(self):
        for kernel in KERNEL_MODES:
            sim = Simulator(kernel=kernel)
            log = _scenario(sim)
            sim.run(until=2.5)
            assert sim.now == 2.5, kernel
            assert all(t <= 2.5 for t, _ in log)
            sim.run()
            assert sim.now == 3.0, kernel

    @pytest.mark.parametrize("kernel", KERNEL_MODES)
    def test_until_past_only_cancelled_entries_keeps_clock(self, kernel):
        # Nothing live lies past `until`, so the run ends like an
        # unbounded one: a cancelled entry must not move the clock.
        sim = Simulator(kernel=kernel)
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule_cancellable(10.0, fired.append, "dead").cancel()
        sim.run(until=5.0)
        assert fired == ["a"]
        assert sim.now == 1.0
        assert sim.pending() == 0

    def test_event_hook_sees_each_fired_event_once(self):
        names = {}
        for kernel in KERNEL_MODES:
            sim = Simulator(kernel=kernel)
            _scenario(sim)
            seen = []
            sim.event_hook = seen.append
            sim.run()
            assert len(seen) == sim.events_fired, kernel
            names[kernel] = [fn.__name__ for fn in seen]
        assert names["fast"] == names["reference"]
        # The cancelled entries (y, z, tick) never reach the hook: only a,
        # c, late and d are dispatched as `rec` itself.
        assert names["fast"].count("rec") == 4


class TestBatchSimulationEquality:
    """Full simulations agree bit-for-bit on both dispatch loops."""

    def test_obs_bit_identical_on_both_kernels(self):
        # The sampler's final tick is cancelled when the last core drains;
        # on either loop that entry must move neither clock nor result,
        # and the ticks that fired are not counted as model events.
        from repro.system.config import ALL_CONFIGS
        from repro.system.sim import simulate
        from repro.workloads import get_workload

        cfg, wl = ALL_CONFIGS["coaxial-4x"](), get_workload("stream-copy")
        for kernel in KERNEL_MODES:
            plain = simulate(cfg, wl, ops_per_core=300, seed=1, kernel=kernel)
            seen = simulate(cfg, wl, ops_per_core=300, seed=1, kernel=kernel,
                            obs="on")
            a, b = dataclasses.asdict(plain), dataclasses.asdict(seen)
            assert b["extras"].pop("obs")
            assert a == b, kernel

    @pytest.mark.slow
    @pytest.mark.parametrize("base", ["tiered-static", "tiered-lru",
                                      "tiered-epoch", "cxl-ssd",
                                      "cxl-profiled"])
    def test_tiering_and_device_configs_bit_identical(self, base):
        # The tiering manager routes lazily (no scheduled events) and the
        # profile sampler draws in request-arrival order, so every
        # scenario config must stay inside the two-loop bit-identity
        # contract; the differential oracle does a full-result asdict diff.
        case = TaskSpec(base=base, workload="capacity-churn", ops=400, seed=1)
        assert run_oracle("diff_kernel", case) is None


class TestKernelPlumbing:
    def test_kernel_bench_record(self):
        from repro.exec.perf import kernel_bench_record
        from repro.system.config import ALL_CONFIGS
        from repro.system.sim import simulate
        from repro.workloads import get_workload

        rec = kernel_bench_record(configs=("ddr-baseline",),
                                  workloads=("mcf",), ops=200, repeats=1,
                                  baseline_eps=1000.0)
        # The bench times the same loop simulate() runs.
        plain = simulate(ALL_CONFIGS["ddr-baseline"](), get_workload("mcf"),
                         ops_per_core=200, seed=1)
        assert rec["events"] == plain.extras["events_fired"] > 0
        assert rec["events_per_s"] > 0
        assert rec["ratio_vs_baseline"] > 0
