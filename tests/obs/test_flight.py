"""Flight recorder: the causal stream plus protocol introspection."""

from __future__ import annotations

import pytest

from repro.obs.analyze import hop_distances, link_accounting
from repro.obs.events import EventLog
from repro.obs.flight import LOSS_CAUSES, FlightRecorder
from repro.obs.invariants import check_events
from repro.sim.trace import TraceRecorder
from tests.obs.conftest import run_flight

#: Radio counters with one increment per delivery attempt outcome.
ATTEMPT_COUNTERS = ("rx_delivered", "rx_lost", "rx_collision",
                    "rx_halfduplex_miss", "rx_fault_dropped")


def test_meta_covers_every_node(flight_run):
    run = flight_run(protocol="lr-seluge", receivers=3)
    metas = run.log.of_kind("causal_meta")
    assert len(metas) == 4  # base + 3 receivers
    bases = [e for e in metas if e.detail["base"]]
    assert len(bases) == 1
    assert all(e.detail["secured"] for e in metas)
    assert all(e.detail["protocol"] == "lr-seluge" for e in metas)


def test_deluge_advertises_unsecured(flight_run):
    run = flight_run(protocol="deluge", receivers=2)
    metas = run.log.of_kind("causal_meta")
    assert metas and all(not e.detail["secured"] for e in metas)


def test_link_accounting_matches_event_stream(flight_run):
    run = flight_run(protocol="lr-seluge", receivers=3, loss=0.2)
    tx, matrix = link_accounting(run.log.events)
    assert matrix, "a completed run must have observed deliveries"
    assert sum(row["rx"] for row in matrix.values()) == \
        len(run.log.of_kind("causal_rx")) == run.trace.counters["rx_delivered"]
    assert sum(row["lost"] for row in matrix.values()) == \
        len(run.log.of_kind("causal_loss"))
    assert sum(tx.values()) == len(run.log.of_kind("causal_tx")) == \
        run.trace.counters["tx_total"]
    # Bernoulli loss at 20% must drop something, attributed to the channel.
    lost = run.log.of_kind("causal_loss")
    assert lost and all(e.detail["cause"] in LOSS_CAUSES for e in lost)
    assert any(e.detail["cause"] == "channel" for e in lost)


def test_data_tx_events_carry_the_unit(flight_run):
    run = flight_run(protocol="lr-seluge", receivers=2)
    txs = run.log.of_kind("causal_tx")
    data_txs = [e for e in txs if e.detail["kind"] == "data"]
    assert data_txs and all("unit" in e.detail for e in data_txs)
    adv_txs = [e for e in txs if e.detail["kind"] == "adv"]
    assert adv_txs and all("unit" not in e.detail for e in adv_txs)


def test_finalize_emits_the_observed_adjacency(flight_run):
    run = flight_run(protocol="lr-seluge", receivers=3)
    topo = run.log.of_kind("flight_topology")
    assert len(topo) == 1
    neighbors = {int(n): vs for n, vs in topo[0].detail["neighbors"].items()}
    assert neighbors == {n: sorted(vs) for n, vs in
                         run.flight._radio.topology.neighbors.items()}
    base = next(e.node for e in run.log.of_kind("causal_meta")
                if e.detail["base"])
    hops = hop_distances(neighbors, base)
    assert hops[base] == 0
    assert sorted(h for n, h in hops.items() if n != base) == [1, 1, 1]
    # finalize is idempotent: a second call must not double-emit.
    before = len(run.log)
    run.flight.finalize(run.sim.now)
    assert len(run.log) == before


def test_tracker_snapshots_expose_distances(flight_run):
    run = flight_run(protocol="lr-seluge", receivers=3, loss=0.2)
    snaps = run.log.of_kind("tracker_snapshot")
    assert snaps, "LR-Seluge tracking table must be introspected"
    snack_snaps = [e for e in snaps if e.detail["trigger"] == "snack"]
    assert snack_snaps and all("requester" in e.detail for e in snack_snaps)
    with_state = [e for e in snaps if "distances" in e.detail]
    assert with_state and all("popularity" in e.detail for e in with_state)
    sent = [e for e in snaps if e.detail["trigger"] == "sent"]
    assert sent and all("index" in e.detail for e in sent)


def test_auth_events_track_the_packet_lifecycle(flight_run):
    run = flight_run(protocol="lr-seluge", receivers=2)
    auth_ok = run.log.of_kind("pkt_auth_ok")
    buffered = run.log.of_kind("pkt_buffered")
    assert auth_ok and buffered
    assert len(buffered) <= len(auth_ok)
    keys = lambda events: {
        (e.node, e.detail["version"], e.detail["unit"], e.detail["index"])
        for e in events
    }
    assert keys(buffered) <= keys(auth_ok)


def test_both_recorders_log_each_delivery_attempt_once(flight_run):
    """A separate causal recorder next to a flight recorder adds nothing:
    every delivery attempt is one ``causal_rx``/``causal_loss`` and the log
    has the events a flight recorder alone writes (frame ids differ: they
    come from a process-wide counter)."""
    both = flight_run(protocol="lr-seluge", receivers=3, loss=0.2,
                      separate_causal=True)
    alone = flight_run(protocol="lr-seluge", receivers=3, loss=0.2)
    attempts = sum(both.trace.counters[c] for c in ATTEMPT_COUNTERS)
    outcomes = both.log.of_kind("causal_rx") + both.log.of_kind("causal_loss")
    assert attempts > 0 and len(outcomes) == attempts
    shape = lambda run: [(e.ts, e.kind, e.node) for e in run.log.events]
    assert shape(both) == shape(alone)


def test_flight_record_alone_checks_causal_invariants(flight_run):
    run = flight_run(protocol="lr-seluge", receivers=3, loss=0.2)
    assert run.trace.causal is run.flight
    report = check_events(run.log)
    assert report.ok, report.summary()
    assert report.checked["causal_rx_has_tx"] > 0
    assert report.checked["causal_monotone"] > 0
    assert report.checked["serve_only_decoded"] > 0
    assert report.checked["auth_before_buffer"] > 0


@pytest.mark.parametrize("protocol", ["deluge", "seluge", "lr-seluge"])
def test_flight_recording_does_not_perturb_the_run(protocol):
    """Same seed, same flags: byte-identical outcome with and without flight."""
    from repro.experiments.scenarios import OneHopScenario, run_one_hop
    from repro.sim.engine import Simulator

    scenario = OneHopScenario(protocol=protocol, loss_rate=0.15, receivers=3,
                              image_size=3000, k=8, n=12, seed=9)
    plain_sim = Simulator()
    plain_log = EventLog()
    plain_trace = TraceRecorder(sink=plain_log)
    plain = run_one_hop(scenario, sim=plain_sim, trace=plain_trace)

    flight_sim = Simulator()
    log = EventLog()
    flight_trace = TraceRecorder(sink=log, flight=FlightRecorder(log))
    recorded = run_one_hop(scenario, sim=flight_sim, trace=flight_trace)

    assert plain.latency == recorded.latency
    assert plain.data_packets == recorded.data_packets
    assert plain.snack_packets == recorded.snack_packets
    assert plain.total_bytes == recorded.total_bytes
    assert plain_sim.processed_events == flight_sim.processed_events
    assert plain_trace.registry.snapshot() == flight_trace.registry.snapshot()
    # The recorded events interleave, but the underlying counter/span
    # stream is byte-identical: strip the recorder-only kinds and compare.
    flight_kinds = {
        "link_auth_drop", "link_duplicate", "pkt_auth_ok", "pkt_buffered",
        "tracker_snapshot", "flight_topology",
    }
    stripped = [e for e in log.events if e.kind not in flight_kinds
                and not e.kind.startswith("causal_")]
    assert stripped == plain_log.events
