"""Shared fixtures for observability tests: flight-recorded smoke runs."""

from __future__ import annotations

import pytest

from repro.experiments.scenarios import OneHopScenario, run_one_hop
from repro.obs.events import EventLog
from repro.obs.flight import CausalRecorder, FlightRecorder
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder


class FlightRun:
    """One finished flight-recorded one-hop dissemination."""

    def __init__(self, result, log, flight, sim, trace):
        self.result = result
        self.log = log
        self.flight = flight
        self.sim = sim
        self.trace = trace


def run_flight(protocol="lr-seluge", receivers=3, loss=0.1, seed=5,
               image_size=3000, k=8, n=12, max_time=3600.0,
               separate_causal=False) -> FlightRun:
    """A flight-recorded run; ``separate_causal`` also attaches a
    :class:`CausalRecorder` (the flight recorder then only introspects)."""
    sim = Simulator()
    log = EventLog()
    flight = FlightRecorder(log)
    causal = CausalRecorder(log) if separate_causal else None
    trace = TraceRecorder(sink=log, flight=flight, causal=causal)
    result = run_one_hop(OneHopScenario(
        protocol=protocol, loss_rate=loss, receivers=receivers,
        image_size=image_size, k=k, n=n, seed=seed, max_time=max_time,
    ), sim=sim, trace=trace)
    flight.finalize(sim.now)
    log.flush_open_spans(sim.now)
    return FlightRun(result, log, flight, sim, trace)


@pytest.fixture
def flight_run():
    return run_flight


class CausalRun:
    """One finished causal-traced dissemination (one-hop or multihop)."""

    def __init__(self, result, log, causal, sim, trace):
        self.result = result
        self.log = log
        self.causal = causal
        self.sim = sim
        self.trace = trace


def run_causal(protocol="lr-seluge", receivers=3, loss=0.1, seed=5,
               image_size=3000, k=8, n=12, max_time=3600.0,
               topology=None) -> CausalRun:
    sim = Simulator()
    log = EventLog()
    causal = CausalRecorder(log)
    trace = TraceRecorder(sink=log, causal=causal)
    if topology is not None:
        from repro.experiments.scenarios import MultiHopScenario, run_multihop

        result = run_multihop(MultiHopScenario(
            protocol=protocol, topology=topology, image_size=image_size,
            k=k, n=n, seed=seed, max_time=max_time,
        ), sim=sim, trace=trace)
    else:
        result = run_one_hop(OneHopScenario(
            protocol=protocol, loss_rate=loss, receivers=receivers,
            image_size=image_size, k=k, n=n, seed=seed, max_time=max_time,
        ), sim=sim, trace=trace)
    log.flush_open_spans(sim.now)
    return CausalRun(result, log, causal, sim, trace)


@pytest.fixture
def causal_run():
    return run_causal
