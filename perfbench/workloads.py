"""The benchmark's workloads and the passes that run them.

A *pass* runs every scenario of a workload once through the repository's
own ``run_multihop``/``run_one_hop``, with an injected :class:`StampedSimulator`
that notes when set-up ends (its first ``run`` call) and an injected
``TraceRecorder`` (with flight and causal recorders on the recorded
workload).
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.experiments.metrics import RunResult
from repro.experiments.scenarios import (MultiHopScenario, OneHopScenario,
                                         run_multihop, run_one_hop)
from repro.obs.analyze import analyze_events
from repro.obs.causal import attribute_run
from repro.obs.events import EventLog
from repro.obs.flight import CausalRecorder, FlightRecorder
from repro.obs.invariants import check_events
from repro.sim.engine import Simulator
from repro.sim.rng import derive_seed
from repro.sim.trace import TraceRecorder

import hostspeed
from layertrace import Tracer

__all__ = ["Scenario", "Workload", "WORKLOADS", "PassResult", "run_pass",
           "setup_only", "StampedSimulator", "end_to_end", "layer_metrics",
           "PER_LAYER", "MIN_ATTRIBUTION"]

#: The CI causal-smoke gate: every node's completion latency must be at
#: least this share attributed to named wait categories.
MIN_ATTRIBUTION = 0.95

#: Waits reported from the causal attribution (simulated seconds).
CAUSAL_WAITS = ("retransmission", "suppression", "serve_pacing",
                "request_backoff", "mac")

Scenario = Union[MultiHopScenario, OneHopScenario]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenarios: Callable[[int], List[Scenario]]
    record: bool = False


def scenario_seeds(seed: int, count: int) -> List[int]:
    """``count`` scenario seeds derived from the workload seed."""
    return [derive_seed(seed, f"perfbench/{i}") % 2**31 for i in range(count)]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "grid_tight",
        "Table II's tight mica2 spacing with collisions and ambient loss: the "
        "radio and MAC path dominates, erasure coding is minor",
        lambda seed: [MultiHopScenario(topology="tight:10x10",
                                       image_size=4096, k=8, n=12, seed=s)
                      for s in scenario_seeds(seed, 2)],
    ),
    Workload(
        "onehop_lossy",
        "Figs. 4/5 corner (N=40, p=0.4, 20 KiB, k=32, n=48, collisions off): "
        "Reed-Solomon decoding dominates and the collision path is skipped",
        lambda seed: [OneHopScenario(loss_rate=0.4, receivers=40,
                                     image_size=20 * 1024, k=32, n=48, seed=s)
                      for s in scenario_seeds(seed, 2)],
    ),
    Workload(
        "grid_recorded",
        "lossy 7x7 grids with flight and causal recorders on, then invariant "
        "check, attribution and analysis: the only workload where obs works",
        lambda seed: [MultiHopScenario(topology="grid:7x7:3",
                                       image_size=4096, k=8, n=12, seed=s)
                      for s in scenario_seeds(seed, 2)],
        record=True,
    ),
)}


class StampedSimulator(Simulator):
    """A simulator that notes the host time of its first ``run`` call.

    Set-up (topology, keys and signing, preprocessing, network build, node
    start) is everything before that call.  With a tracer, the stamp also
    notes how much traced time set-up covered.  With ``probe``, every
    ``run`` call (the runner calls it once per chunk of simulated time)
    first times one reference loop (``hostspeed``), so the host's speed is
    sampled all through the run; the loops' times are kept apart in
    ``references``.
    """

    def __init__(self, tracer: Optional[Tracer] = None,
                 probe: bool = False) -> None:
        super().__init__()
        self.tracer = tracer
        self.probe = probe
        self.first_run: Optional[float] = None
        self.covered_at_first_run = 0.0
        self.references: List[float] = []
        if tracer is not None:
            self.set_profiler(tracer)

    def run(self, *args: Any, **kwargs: Any) -> int:
        if self.first_run is None:
            self.first_run = time.perf_counter()
            if self.tracer is not None:
                self.covered_at_first_run = self.tracer.covered_s
        if self.probe:
            self.references.append(hostspeed.sample())
        return super().run(*args, **kwargs)


def _runner(sc: Scenario) -> Callable[..., RunResult]:
    return run_one_hop if isinstance(sc, OneHopScenario) else run_multihop


def _recorders(workload: Workload):
    """The trace recorder of one scenario, plus its log and flight recorder."""
    if not workload.record:
        return TraceRecorder(), None, None
    log = EventLog()
    flight = FlightRecorder(log)
    trace = TraceRecorder(sink=log, flight=flight, causal=CausalRecorder(log))
    return trace, log, flight


def _failed_nodes(result: RunResult) -> int:
    """Tracked nodes that did not end with the byte-correct image.

    ``images_ok`` covers every tracked node at once, so a wrong image fails
    them all; a run that stopped short fails the nodes that never completed.
    """
    tracked = result.n_nodes or 0
    if result.images_ok:
        return 0
    if result.completed:
        return tracked
    return tracked - round((result.completion_rate or 0.0) * tracked)


@dataclass
class PassResult:
    """What one pass measured and checked."""

    setup_s: float = 0.0
    wall_s: float = 0.0               # without the reference loops' time
    references: List[float] = field(default_factory=list)
    covered_s: float = 0.0            # traced pass: run time inside spans
    results: List[RunResult] = field(default_factory=list)
    nodes_checked: int = 0
    nodes_failed: int = 0
    gate_failures: List[str] = field(default_factory=list)
    events: int = 0
    compactions: int = 0
    events_recorded: int = 0
    #: counters at the end of the run (the results hold them at completion)
    final_counters: Dict[str, int] = field(default_factory=dict)
    causal_wait: Dict[str, float] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        """sha256 of counters, latency and per-node completion times."""
        blob = json.dumps([r.to_jsonable() for r in self.results],
                          sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    @property
    def run_s(self) -> float:
        """``wall_s`` scaled to the nominal host by this pass's loops."""
        return (self.wall_s * hostspeed.REFERENCE_S
                / statistics.median(self.references))

    def counter(self, name: str) -> int:
        return self.final_counters.get(name, 0)


def setup_only(workload: Workload, scenarios: List[Scenario]) -> float:
    """Seconds to set up every scenario of a pass, without running them.

    With ``max_time=0`` the runner builds and starts the network and
    returns before its first ``Simulator.run`` call.
    """
    start = time.perf_counter()
    for sc in scenarios:
        trace, _, _ = _recorders(workload)
        _runner(sc)(replace(sc, max_time=0.0), sim=StampedSimulator(),
                    trace=trace)
    elapsed = time.perf_counter() - start
    gc.collect()
    return elapsed


def run_pass(workload: Workload, scenarios: List[Scenario],
             tracer: Optional[Tracer] = None,
             probe: bool = False) -> PassResult:
    """Run every scenario once, timing set-up and run apart.

    With ``probe``, the host's speed is sampled through the runs (see
    :class:`StampedSimulator`).
    """
    out = PassResult()
    for sc in scenarios:
        _run_scenario(workload, sc, tracer, probe, out)
        # Networks are reference cycles: free each one now, so the peak
        # memory does not depend on when the collector would have run.
        gc.collect()
    return out


def _run_scenario(workload: Workload, sc: Scenario, tracer: Optional[Tracer],
                  probe: bool, out: PassResult) -> None:
    """One scenario of a pass; its network and trace die when it returns."""
    clock = time.perf_counter

    def span(name: str):
        return tracer.span(name, "obs.analysis") if tracer else nullcontext()

    start = clock()
    sim = StampedSimulator(tracer, probe)
    trace, log, flight = _recorders(workload)
    result = _runner(sc)(sc, sim=sim, trace=trace)
    if log is not None:
        flight.finalize(sim.now)
        log.flush_open_spans(sim.now)
        with span("obs.check_invariants"):
            report = check_events(log)
        with span("obs.attribute_run"):
            attribution = attribute_run(log)
        with span("obs.analyze"):
            analyze_events(log)
    end = clock()
    ready = sim.first_run if sim.first_run is not None else end
    out.setup_s += ready - start
    out.wall_s += end - ready - sum(sim.references)
    out.references += sim.references
    if tracer is not None:
        out.covered_s += tracer.covered_s - sim.covered_at_first_run
    out.results.append(result)
    for name, value in trace.counters.items():
        out.final_counters[name] = out.final_counters.get(name, 0) + value
    out.events += sim.processed_events
    out.compactions += sim.heap_stats()["compactions"]
    out.nodes_checked += result.n_nodes or 0
    out.nodes_failed += _failed_nodes(result)
    if log is None:
        return
    out.events_recorded += len(log)
    if not report.ok:
        out.gate_failures.append(
            f"seed {sc.seed}: {len(report.violations)} invariant "
            f"violation(s), first: {report.violations[0].render()}")
    if attribution["min_attribution"] < MIN_ATTRIBUTION:
        out.gate_failures.append(
            f"seed {sc.seed}: min_attribution "
            f"{attribution['min_attribution']:.3f} < {MIN_ATTRIBUTION}")
    for wait in CAUSAL_WAITS:
        out.causal_wait[wait] = (out.causal_wait.get(wait, 0.0)
                                 + attribution["categories"][wait])


Metrics = Dict[str, Tuple[float, str]]


def end_to_end(passes: List[PassResult], setups: List[float],
               references: List[float], peak_rss_mib: float) -> Metrics:
    """The end-to-end metrics of an untraced run of probed passes.

    Host times are scaled to the nominal host (``hostspeed``).  ``run_s``
    is the median over passes of the measured phase, each scaled by the
    median reference loop time sampled through it.  ``setup_s`` is the
    median over the passes' set-ups plus the set-up-only samples in
    ``setups``, scaled by the median of ``references``, the reference loops
    timed next to the set-up-only builds.  The ``sim_*`` values are the
    same in every pass (the caller checks the digests), so the first pass
    gives them: counts summed over the workload's scenarios, latency
    averaged.
    """
    first = passes[0]
    results = first.results
    return {
        "run_s": (statistics.median(p.run_s for p in passes), "s"),
        "setup_s": (statistics.median([p.setup_s for p in passes] + setups)
                    * hostspeed.REFERENCE_S / statistics.median(references),
                    "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "sim_latency_s": (statistics.fmean(r.latency for r in results), "s"),
        "sim_data_pkts": (sum(r.data_packets for r in results), "count"),
        "sim_snack_pkts": (sum(r.snack_packets for r in results), "count"),
        "sim_adv_pkts": (sum(r.adv_packets for r in results), "count"),
        "sim_total_bytes": (sum(r.total_bytes for r in results), "bytes"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: Per-layer metric names and units, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("sim.events", "count"), ("sim.dispatch_self_s", "s"),
    ("sim.compactions", "count"),
    ("net.radio.frames_aired", "count"),
    ("net.radio.deliveries_attempted", "count"),
    ("net.radio.finish_self_s", "s"), ("net.radio.collision_ratio", "ratio"),
    ("net.radio.delivered_ratio", "ratio"),
    ("net.mac.pump_calls", "count"), ("net.mac.pump_self_s", "s"),
    ("net.mac.backoffs", "count"),
    ("net.channel.should_drop_calls", "count"),
    ("net.channel.should_drop_self_s", "s"),
    ("net.channel.drop_ratio", "ratio"),
    ("protocols.on_receive_calls", "count"),
    ("protocols.on_receive_self_s", "s"), ("protocols.timer_fires", "count"),
    ("protocols.timer_self_s", "s"), ("protocols.frames_sent", "count"),
    ("protocols.data_accept_ratio", "ratio"),
    ("core.scheduler.snack_updates", "count"), ("core.scheduler.self_s", "s"),
    ("core.verify.authenticate_calls", "count"),
    ("core.verify.authenticate_self_s", "s"),
    ("core.verify.complete_unit_calls", "count"),
    ("core.verify.complete_unit_self_s", "s"),
    ("core.verify.handle_signature_self_s", "s"),
    ("core.verify.serving_packets_self_s", "s"),
    ("erasure.decode_calls", "count"), ("erasure.decode_self_s", "s"),
    ("erasure.encode_calls", "count"), ("erasure.encode_self_s", "s"),
    ("erasure.decode_failures", "count"),
    ("crypto.ecdsa_verify_calls", "count"), ("crypto.ecdsa_verify_self_s", "s"),
    ("crypto.hash_calls", "count"), ("crypto.hash_self_s", "s"),
    ("crypto.merkle_verify_calls", "count"),
    ("crypto.merkle_verify_self_s", "s"), ("crypto.puzzle_check_calls", "count"),
    ("core.preprocess.build_s", "s"), ("net.topology.build_s", "s"),
    ("crypto.keygen_sign_s", "s"),
    ("sim.trace.count_calls", "count"), ("sim.trace.count_self_s", "s"),
    ("obs.events_recorded", "count"), ("obs.sink_calls", "count"),
    ("obs.sink_self_s", "s"), ("obs.check_invariants_s", "s"),
    ("obs.attribute_run_s", "s"), ("obs.analyze_s", "s"),
    *((f"causal.wait.{w}_s", "s") for w in CAUSAL_WAITS),
    ("trace.overhead_s", "s"), ("trace.unattributed_s", "s"),
)


def layer_metrics(tracer: Tracer, traced: PassResult,
                  untraced: PassResult) -> Metrics:
    """Per-layer metrics of one traced pass (``untraced`` gives overhead)."""
    t = tracer.stat
    rx = {name: traced.counter(f"rx_{name}") for name in
          ("delivered", "lost", "collision", "halfduplex_miss",
           "fault_dropped")}
    attempted = sum(rx.values())
    drop_calls = tracer.entries["net.channel"]
    values: Dict[str, float] = {
        "sim.events": traced.events,
        "sim.dispatch_self_s": t("sim.run", "self_s"),
        "sim.compactions": traced.compactions,
        "net.radio.frames_aired": t("net.radio.finish"),
        "net.radio.deliveries_attempted": attempted,
        "net.radio.finish_self_s": t("net.radio.finish", "self_s"),
        "net.radio.collision_ratio": _ratio(
            rx["collision"] + rx["halfduplex_miss"], attempted),
        "net.radio.delivered_ratio": _ratio(rx["delivered"], attempted),
        "net.mac.pump_calls": t("net.mac.pump"),
        "net.mac.pump_self_s": tracer.layer_self("net.mac"),
        "net.mac.backoffs": (t("net.mac.channel_busy", "trues")
                             - traced.counter("mac_drop")),
        "net.channel.should_drop_calls": drop_calls,
        "net.channel.should_drop_self_s": tracer.layer_self("net.channel"),
        "net.channel.drop_ratio": _ratio(rx["lost"], drop_calls),
        "protocols.on_receive_calls": t("protocols.on_receive"),
        "protocols.on_receive_self_s": t("protocols.on_receive", "self_s"),
        "protocols.timer_fires": t("protocols.timer"),
        "protocols.timer_self_s": t("protocols.timer", "self_s"),
        "protocols.frames_sent": t("protocols.send"),
        "protocols.data_accept_ratio": _ratio(
            t("core.verify.authenticate", "trues"),
            t("protocols.on_receive", "tallies")),
        "core.scheduler.snack_updates": t("core.scheduler.snack_update"),
        "core.scheduler.self_s": tracer.layer_self("core.scheduler"),
        "erasure.decode_failures": t("erasure.decode", "raised"),
        "crypto.puzzle_check_calls": t("crypto.puzzle_check"),
        "core.preprocess.build_s": t("core.preprocess.build", "self_s"),
        "net.topology.build_s": tracer.layer_self("net.topology"),
        "crypto.keygen_sign_s": (t("crypto.keygen", "self_s")
                                 + t("crypto.sign", "self_s")),
        "sim.trace.count_calls": t("sim.trace.count"),
        "sim.trace.count_self_s": t("sim.trace.count", "self_s"),
        "obs.events_recorded": traced.events_recorded,
        "obs.sink_calls": tracer.entries["obs"],
        "obs.sink_self_s": tracer.layer_self("obs"),
        "obs.check_invariants_s": t("obs.check_invariants", "self_s"),
        "obs.attribute_run_s": t("obs.attribute_run", "self_s"),
        "obs.analyze_s": t("obs.analyze", "self_s"),
        "trace.overhead_s": traced.wall_s - untraced.wall_s,
        "trace.unattributed_s": traced.wall_s - traced.covered_s,
    }
    for op in ("authenticate", "complete_unit"):
        values[f"core.verify.{op}_calls"] = t(f"core.verify.{op}")
    for op in ("authenticate", "complete_unit", "handle_signature",
               "serving_packets"):
        values[f"core.verify.{op}_self_s"] = t(f"core.verify.{op}", "self_s")
    for op in ("decode", "encode"):
        values[f"erasure.{op}_calls"] = t(f"erasure.{op}")
        values[f"erasure.{op}_self_s"] = t(f"erasure.{op}", "self_s")
    for op in ("ecdsa_verify", "hash", "merkle_verify"):
        values[f"crypto.{op}_calls"] = t(f"crypto.{op}")
        values[f"crypto.{op}_self_s"] = t(f"crypto.{op}", "self_s")
    for wait in CAUSAL_WAITS:
        values[f"causal.wait.{wait}_s"] = traced.causal_wait.get(wait, 0.0)
    return {name: (values[name], unit) for name, unit in PER_LAYER}
