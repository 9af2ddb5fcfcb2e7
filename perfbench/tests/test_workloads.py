"""The benchmark's workloads, its output checks and its BENCHMARK.json."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

import repro.experiments.scenarios as scenarios
import hostspeed
import run
import workloads
from conftest import TINY_GRID
from layertrace import Tracer
from repro.experiments.scenarios import MultiHopScenario, OneHopScenario
from workloads import (PER_LAYER, WORKLOADS, StampedSimulator, end_to_end,
                       run_pass, setup_only)

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

TINY_STAR = OneHopScenario(loss_rate=0.2, receivers=5, image_size=2048, k=8,
                           n=12, seed=3)


@pytest.mark.parametrize("name,scenario", [
    ("grid_tight", MultiHopScenario(**TINY_GRID)),
    ("grid_recorded", MultiHopScenario(**TINY_GRID)),
    ("onehop_lossy", TINY_STAR),
])
def test_traced_pass_has_the_untraced_digest(name, scenario):
    workload = WORKLOADS[name]
    first = run_pass(workload, [scenario])
    again = run_pass(workload, [scenario])
    tracer = Tracer()
    with tracer.installed():
        traced = run_pass(workload, [scenario], tracer)
    assert first.digest == again.digest == traced.digest
    assert all(r.images_ok for r in first.results + traced.results)
    assert first.nodes_failed == traced.nodes_failed == 0
    assert not first.gate_failures and not traced.gate_failures
    metrics = workloads.layer_metrics(tracer, traced, first)
    assert [m for m in metrics] == [name for name, _ in PER_LAYER]
    assert metrics["sim.events"][0] == first.events
    assert metrics["net.radio.frames_aired"][0] > 0
    assert (metrics["obs.sink_calls"][0] > 0) == workload.record


def _tiny(monkeypatch, name, scenario):
    monkeypatch.setitem(WORKLOADS, name, replace(
        WORKLOADS[name], scenarios=lambda seed: [replace(scenario, seed=seed)]))


def _last_json(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_set_up_ends_at_the_first_simulator_run():
    sim = StampedSimulator()
    result = scenarios.run_multihop(MultiHopScenario(**TINY_GRID), sim=sim)
    assert result.images_ok
    assert sim.first_run is not None
    # max_time=0 builds and starts the network but never runs it.
    assert setup_only(WORKLOADS["grid_tight"], [
        replace(MultiHopScenario(**TINY_GRID), max_time=0.0)]) > 0


def test_command_reports_every_end_to_end_metric(monkeypatch, capsys):
    _tiny(monkeypatch, "grid_recorded", MultiHopScenario(**TINY_GRID))
    assert run.main(["--workload", "grid_recorded", "--seed", "5",
                     "--seconds", "0"]) == 0
    lines, result = _last_json(capsys)
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(result["metrics"]) == names
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 9
    assert any(line.split()[:2] == ["nodes_failed_frac", "0.000000"]
               for line in lines)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_command_reports_every_layer_metric(monkeypatch, capsys,
                                                   tmp_path):
    _tiny(monkeypatch, "grid_tight", MultiHopScenario(**TINY_GRID))
    monkeypatch.setattr(run, "SPANS_DIR", tmp_path)
    assert run.main(["--workload", "grid_tight", "--seed", "5",
                     "--trace", "1"]) == 0
    _, result = _last_json(capsys)
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert result["correct"] is True
    assert (tmp_path / "spans-grid_tight.npz").stat().st_size > 0


def test_wrong_image_fails_every_node_and_the_exit_code(monkeypatch, capsys):
    _tiny(monkeypatch, "grid_tight", MultiHopScenario(**TINY_GRID))
    real = scenarios.run_network

    def expect_another_image(*args, **kwargs):
        return real(*args, **{**kwargs, "expected_image": b"not the image"})

    monkeypatch.setattr(scenarios, "run_network", expect_another_image)
    assert run.main(["--workload", "grid_tight", "--seconds", "0"]) == 1
    lines, result = _last_json(capsys)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 9
    assert any(line.split()[:2] == ["nodes_failed_frac", "1.000000"]
               for line in lines)


def test_failed_gate_is_reported(monkeypatch, capsys):
    _tiny(monkeypatch, "grid_recorded", MultiHopScenario(**TINY_GRID))
    monkeypatch.setattr(workloads, "MIN_ATTRIBUTION", 1.5)
    assert run.main(["--workload", "grid_recorded", "--seconds", "0"]) == 1
    lines, result = _last_json(capsys)
    assert result["correct"] is False and result["failed"] == 0
    assert any("min_attribution" in line for line in lines)


def test_benchmark_json_matches_the_code():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(
        PER_LAYER)
    passes = [run_pass(WORKLOADS["onehop_lossy"], [TINY_STAR], probe=True)]
    e2e = end_to_end(passes, [0.5], [0.02], 1.0)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == [
        (name, unit) for name, (_, unit) in e2e.items()]


def test_probe_keeps_the_digest_and_its_loops_out_of_the_pass():
    workload = WORKLOADS["grid_tight"]
    plain = run_pass(workload, [MultiHopScenario(**TINY_GRID)])
    probed = run_pass(workload, [MultiHopScenario(**TINY_GRID)], probe=True)
    assert probed.digest == plain.digest
    assert plain.references == [] and probed.references
    assert 0 < probed.wall_s


def test_host_times_are_scaled_to_the_nominal_host():
    nominal = hostspeed.REFERENCE_S
    probed = run_pass(WORKLOADS["onehop_lossy"], [TINY_STAR], probe=True)
    slow = replace(probed, wall_s=3.0, setup_s=0.2,
                   references=[2 * nominal, 2 * nominal, 9 * nominal])
    fast = replace(probed, wall_s=1.0, setup_s=0.9,
                   references=[nominal / 2])
    e2e = end_to_end([slow, fast, fast], [0.1, 0.3], [nominal / 2] * 4, 1.0)
    # each pass by its own loops: 3.0 / 2 = 1.5 and 1.0 * 2 = 2.0 twice
    assert e2e["run_s"] == (pytest.approx(2.0), "s")
    # median of 0.2, 0.9, 0.9, 0.1, 0.3 = 0.3, on a host twice as fast
    assert e2e["setup_s"] == (pytest.approx(0.6), "s")


def test_workload_seed_derives_distinct_reproducible_scenarios():
    for workload in WORKLOADS.values():
        a, b = workload.scenarios(1), workload.scenarios(2)
        assert a == workload.scenarios(1)
        assert {s.seed for s in a}.isdisjoint({s.seed for s in b})
