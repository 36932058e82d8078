"""Tests for the one observer protocol (`repro.observer`).

Covers the shared mode resolver (every spelling the docs name, and a
fail-fast error for anything else), the one component slot and its
fan-out, and the zero-perturbation contract with all three observers —
the invariant checker, the obs collector and the span tracer — live at
once, on both dispatch loops.
"""

import dataclasses

import pytest

from repro.engine.kernel import KERNEL_MODES
from repro.obs import ObsCollector
from repro.observer import ENV, HOOKS, MODES, Fanout, Observer, observer_slot, resolve_mode
from repro.system.builder import build_system
from repro.system.config import ALL_CONFIGS
from repro.system.sim import simulate
from repro.tracing import SpanTracer
from repro.validate import InvariantChecker
from repro.workloads import get_workload


_UNSET = object()


def _case(kind, env, arg, want):
    if arg is not None:
        label = f"arg-{arg}"
    else:
        label = "env-" + ("unset" if env is _UNSET else env or "empty")
    return pytest.param(kind, env, arg, want, id=f"{kind}-{label}")


#: (kind, $ENV value or _UNSET, argument (None = defer to env), mode or
#: None for a ValueError).
RESOLVE_CASES = [
    # validate: an explicit argument wins over the environment.
    _case("validate", "strict", False, "off"),
    _case("validate", "strict", "off", "off"),
    _case("validate", "strict", True, "on"),
    _case("validate", "strict", "strict", "strict"),
    _case("validate", _UNSET, None, "off"),
    *[_case("validate", off, None, "off")
      for off in ("", "0", "off", "false", "no")],
    _case("validate", "1", None, "on"),
    _case("validate", "strict", None, "strict"),
    _case("validate", _UNSET, "verbose", None),
    # Used to turn on collect mode silently.
    _case("validate", "verbose", None, None),
    # tracing
    *[_case("tracing", _UNSET, arg, want) for arg, want in (
        ("off", "off"), ("on", "on"), ("kernel", "kernel"),
        (True, "on"), (False, "off"))],
    _case("tracing", _UNSET, "spans", None),
    *[_case("tracing", env, None, want) for env, want in (
        ("", "off"), ("0", "off"), ("off", "off"), ("false", "off"),
        ("1", "on"), ("on", "on"), ("true", "on"), ("kernel", "kernel"))],
    _case("tracing", "bogus", None, None),
    # obs
    *[_case("obs", _UNSET, arg, want) for arg, want in (
        (True, "on"), (False, "off"), ("profile", "profile"),
        ("2", "profile"), ("0", "off"))],
    _case("obs", _UNSET, None, "off"),
    _case("obs", "1", None, "on"),
    _case("obs", "2", None, "profile"),
    _case("obs", _UNSET, "bogus", None),
    _case("obs", "bogus", None, None),
]


@pytest.mark.parametrize("kind,env,arg,want", RESOLVE_CASES)
def test_resolve_mode(monkeypatch, kind, env, arg, want):
    var = ENV[kind]
    if env is _UNSET:
        monkeypatch.delenv(var, raising=False)
    else:
        monkeypatch.setenv(var, env)
    if want is not None:
        assert resolve_mode(kind, arg) == want
        return
    # The error names the argument (or the variable) and the valid modes.
    name = var if arg is None else kind
    with pytest.raises(ValueError, match=rf"{name} must be one of .*"
                                         rf"{MODES[kind][-1]}"):
        resolve_mode(kind, arg)


class _Recorder(Observer):
    def __init__(self, tag, calls):
        self.tag = tag
        self.calls = calls

    def on_complete(self, req):
        self.calls.append((self.tag, req))


class TestSlot:
    def test_slot_holds_none_one_or_a_fanout(self):
        checker, tracer = InvariantChecker(), SpanTracer()
        collector = ObsCollector()
        # The collector has no request hooks: it never takes the slot.
        assert observer_slot([collector]) is None
        assert observer_slot([checker, collector]) is checker
        fan = observer_slot([checker, collector, tracer])
        assert isinstance(fan, Fanout)
        assert fan.observers == (checker, tracer)

    def test_fanout_calls_every_hook_in_order(self):
        calls = []
        fan = Fanout([_Recorder("a", calls), _Recorder("b", calls)])
        fan.on_complete("req")
        assert calls == [("a", "req"), ("b", "req")]
        for name in HOOKS:       # the rest are inherited no-ops
            assert callable(getattr(fan, name))

    def test_chip_passes_one_slot_to_cores_and_cxl_ports(self):
        _sim, chip = build_system(ALL_CONFIGS["coaxial-4x"]())
        parts = [chip, *chip.cores, *chip.ports]
        assert all(p.observer is None for p in parts)
        ob = Observer()
        chip.set_observer(ob)
        assert all(p.observer is ob for p in parts)
        for p in parts:
            assert not hasattr(p, "checker") and not hasattr(p, "tracer")


@pytest.mark.parametrize("kernel", KERNEL_MODES)
@pytest.mark.parametrize("config", ["ddr-baseline", "coaxial-4x",
                                    "tiered-epoch", "cxl-ssd"])
def test_all_observers_bit_identical(config, kernel):
    cfg, wl = ALL_CONFIGS[config](), get_workload("mcf")
    plain = dataclasses.asdict(
        simulate(cfg, wl, ops_per_core=300, seed=1, kernel=kernel))
    observed = dataclasses.asdict(
        simulate(cfg, wl, ops_per_core=300, seed=1, kernel=kernel,
                 validate="on", obs="on", tracing="on"))
    payloads = {key: observed["extras"].pop(key)
                for key in ("invariant_violations", "obs", "trace")}
    # Every field, events_fired included.
    assert observed == plain
    assert payloads["invariant_violations"]["count"] == 0
    assert payloads["trace"]["requests"] == (
        payloads["invariant_violations"]["checked_requests"])
    assert payloads["obs"]["series"]["t"]
