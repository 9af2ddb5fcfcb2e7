"""Self-time arithmetic and patch lifecycle of the outside-in tracer."""

import importlib

import pytest

import layertrace
from layertrace import TARGETS, Tracer, _owners


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _spans(tracer):
    """Closed spans as {name: [(id, parent id, duration), ...]}."""
    out = {}
    for i, span_id in enumerate(tracer.span_id):
        name = tracer.names[tracer.span_code[i]]
        out.setdefault(name, []).append(
            (span_id, tracer.span_parent[i], tracer.span_dur[i]))
    return out


def test_self_time_of_nested_spans_with_same_layer_recursion():
    clock = FakeClock()
    tracer = Tracer(clock=clock, run_id="r")
    outer = tracer.code("a.outer", "a")
    mid = tracer.code("b.op", "b")
    inner = tracer.code("b.inner", "b")
    tracer.enter(outer)             # t=0
    clock.now = 1.0
    tracer.enter(mid)               # t=1
    clock.now = 2.0
    tracer.enter(inner)             # t=2, same layer as its parent
    clock.now = 4.0
    tracer.exit()                   # inner: 2 s
    clock.now = 5.0
    tracer.exit()                   # mid: 4 s, 2 s self
    clock.now = 6.0
    tracer.enter(inner)             # t=6, directly under outer
    clock.now = 7.0
    tracer.exit()                   # inner: 1 s
    clock.now = 10.0
    tracer.exit()                   # outer: 10 s, 10 - 4 - 1 = 5 s self

    assert tracer.stat("a.outer", "self_s") == 5.0
    assert tracer.stat("b.op", "self_s") == 2.0
    assert tracer.stat("b.inner", "self_s") == 3.0
    assert tracer.stat("b.inner") == 2
    # The layer's self time counts the recursion once: 4 + 1 s of wall.
    assert tracer.layer_self("b") == 5.0
    assert tracer.layer_self("a") + tracer.layer_self("b") == 10.0
    # Only the calls entering layer b from another layer count as entries.
    assert tracer.entries["b"] == 2
    assert tracer.covered_s == 10.0

    spans = _spans(tracer)
    (outer_id, outer_parent, _), = spans["a.outer"]
    (mid_id, mid_parent, _), = spans["b.op"]
    assert outer_parent == 0 and mid_parent == outer_id
    assert sorted(p for _, p, _ in spans["b.inner"]) == sorted([mid_id, outer_id])
    assert len(set(tracer.span_id)) == tracer.span_count == 4


def test_handler_spans_come_from_the_engine_profiler_hook():
    clock = FakeClock()
    tracer = Tracer(clock=clock, run_id="r")
    child = tracer.code("c.op", "c")

    def handler():
        pass

    tracer.enter(tracer.code("sim.run", "sim"))      # t=0
    # Handler 1 (t=1..4) calls one wrapped function (t=2..3).
    clock.now = 1.0
    tracer.clock()
    clock.now = 2.0
    tracer.enter(child)
    clock.now = 3.0
    tracer.exit()
    clock.now = 4.0
    tracer.record(handler, (), 4.0 - 1.0, 0)
    # Handler 2 (t=5..7) calls nothing wrapped.
    clock.now = 5.0
    tracer.clock()
    clock.now = 7.0
    tracer.record(handler, (), 2.0, 0)
    clock.now = 8.0
    tracer.exit()

    handler_name = "other.handler"
    assert tracer.stat(handler_name) == 2
    assert tracer.stat(handler_name, "self_s") == (3.0 - 1.0) + 2.0
    assert tracer.stat("c.op", "self_s") == 1.0
    assert tracer.stat("sim.run", "self_s") == 8.0 - 3.0 - 2.0
    spans = _spans(tracer)
    (run_id, _, _), = spans["sim.run"]
    handler_ids = {i for i, parent, _ in spans[handler_name] if parent == run_id}
    assert len(handler_ids) == 2
    (_, child_parent, _), = spans["c.op"]
    assert child_parent in handler_ids


def test_calibrated_wrapper_costs_come_off_self_times():
    clock = FakeClock()
    tracer = Tracer(clock=clock, run_id="r")
    tracer.inner_cost, tracer.outer_cost = 0.25, 0.5
    outer = tracer.code("a.outer", "a")
    leaf = tracer.code("b.leaf", "b")
    tracer.enter(outer)             # t=0
    for start in (1.0, 3.0):
        clock.now = start
        tracer.enter(leaf)
        clock.now = start + 1.0
        tracer.exit()               # leaf: 1 s, 1 - 0.25 s self
    clock.now = 10.0
    tracer.exit()                   # outer: 10 - 2 - 0.25 - 2 * 0.5 s self

    assert tracer.stat("b.leaf", "self_s") == 2 * 0.75
    assert tracer.stat("a.outer", "self_s") == 10.0 - 2.0 - 0.25 - 1.0
    assert tracer.overhead_removed_s == 3 * 0.25 + 2 * 0.5
    # Durations and coverage stay as measured.
    assert tracer.covered_s == 10.0
    assert list(tracer.span_dur) == [1.0, 1.0, 10.0]


def test_calibration_measures_a_positive_wrapper_cost():
    tracer = Tracer()
    tracer.calibrate(calls=2000, repeats=3)
    assert tracer.outer_cost > 0
    assert tracer.span_count == 0


def _current(target):
    module = importlib.import_module(target.module)
    return [(owner, owner.__dict__[target.attr] if isinstance(owner, type)
             else getattr(owner, target.attr))
            for owner in _owners(module, target)]


def test_every_target_resolves_and_is_restored(tiny_traced):
    before = {t: _current(t) for t in TARGETS}
    # A renamed function in src/ must not make a span name silently vanish.
    assert {t.name for t in TARGETS if before[t]} == {t.name for t in TARGETS}
    tracer = Tracer()
    with tracer.installed():
        during = {t: _current(t) for t in TARGETS}
        for target, pairs in during.items():
            for (owner, fn), (_, original) in zip(pairs, before[target]):
                assert fn is not original
                assert fn.__wrapped__ is original
        tiny_traced(tracer)
    assert {t: _current(t) for t in TARGETS} == before
    assert tracer.span_count > 0


def test_install_failure_restores_what_was_patched():
    tracer = Tracer()
    bad = layertrace.Target("repro.no_such_module", "", "f", "x.f", "x")
    before = {t: _current(t) for t in TARGETS[:3]}
    with pytest.raises(ModuleNotFoundError):
        tracer.install(TARGETS[:3] + (bad,))
    assert {t: _current(t) for t in TARGETS[:3]} == before
