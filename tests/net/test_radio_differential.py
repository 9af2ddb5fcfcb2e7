"""Differential test: the radio's delivery fast path against a plain scan.

The fast path (``Radio._finish``) gathers the senders that overlapped a frame
once per frame and keeps only the live part of the transmission history.
The reference below is the straightforward model it replaces: for every
receiver, scan every transmission ever put on the air — aborted waveforms
included, nothing ever pruned — for a half-duplex conflict, then for an
audible overlapping sender.  Both radios run the same hypothesis-generated
scenario (directed topologies, mixed frame sizes, mid-frame crashes and
restarts, link flaps, neighbour lists spliced after construction, a tamper
hook) and must produce the same per-delivery outcome sequence.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.net.channel import PerLinkLoss
from repro.net.node import NetworkNode
from repro.net.packet import FrameKind
from repro.net.radio import Radio, RadioConfig
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder

SIZES = (10, 20, 50, 100, 200)


class ReferenceRadio(Radio):
    """Delivery by exhaustive scan over every transmission ever aired."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.aired = []

    def _finish(self, tx):
        self._active.remove(tx)
        self.aired.append(tx)
        if tx.aborted:
            self.trace.count("tx_aborted")
            return
        self._sending[tx.sender] = False
        for receiver in self.neighbors(tx.sender):
            self._attempt_delivery(tx, receiver, None)
        self._pump(tx.sender)

    def _every_transmission(self):
        return self._active + self.aired

    def _was_transmitting(self, node_id, tx):
        for other in self._every_transmission():
            if other.sender != node_id:
                continue
            if other.end <= tx.start or other.start >= tx.end:
                continue
            return True
        return False

    def _overlaps(self, tx, receiver):
        audible = set(self.topology.neighbors.get(receiver, ()))
        for other in self._every_transmission():
            if other is tx or other.sender == tx.sender:
                continue
            if other.end <= tx.start or other.start >= tx.end:
                continue
            if other.sender in audible or other.sender == receiver:
                return True
        return False

    def _attempt_delivery(self, tx, receiver, overlapping):
        if self.config.collisions:
            if self._was_transmitting(receiver, tx):
                return self._lose(tx, receiver, "rx_halfduplex_miss", "halfduplex")
            if self._overlaps(tx, receiver):
                return self._lose(tx, receiver, "rx_collision", "collision")
        # Loss model, tamper hook and delivery are shared with the fast path.
        super()._attempt_delivery(tx, receiver, None)

    def _lose(self, tx, receiver, counter, cause):
        self.trace.count(counter)
        self.trace.causal.on_loss(self.sim.now, tx.sender, receiver, cause,
                                  tx.frame)


class OutcomeLog:
    """Causal-recorder stand-in: one entry per delivery attempt."""

    def __init__(self):
        self.outcomes = []

    def on_enqueue(self, ts, frame):
        pass

    def on_mac_drop(self, frame):
        pass

    def on_air(self, ts, frame, unit):
        pass

    def enter_rx(self, node, frame_id):
        pass

    def exit_rx(self, node):
        pass

    def on_rx(self, ts, src, dst, frame):
        self.outcomes.append((ts, src, dst, "delivered"))

    def on_loss(self, ts, src, dst, cause, frame):
        self.outcomes.append((ts, src, dst, cause))


class Sink(NetworkNode):
    def on_receive(self, frame, sender):
        pass


@st.composite
def scenarios(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    ids = list(range(n))
    pairs = [(u, v) for u in ids for v in ids if u != v]
    links = [p for p in pairs if draw(st.booleans())]
    loss = {p: draw(st.sampled_from((0.0, 0.0, 0.3, 1.0))) for p in links}
    times = st.floats(min_value=0.0, max_value=0.3, allow_nan=False)
    sends = draw(st.lists(
        st.tuples(times, st.sampled_from(ids), st.sampled_from(SIZES)),
        min_size=1, max_size=25))
    faults = draw(st.lists(st.one_of(
        st.tuples(times, st.just("detach"), st.sampled_from(ids)),
        st.tuples(times, st.just("attach"), st.sampled_from(ids)),
        st.tuples(times, st.just("link"), st.sampled_from(pairs), st.booleans()),
        st.tuples(times, st.just("splice"), st.sampled_from(pairs)),
    ), max_size=10))
    # A late joiner wired in after the radio is built, the way the attack
    # engine places an adversary: new position, new links both ways.
    joiner = draw(st.lists(st.sampled_from(ids), unique=True, max_size=n))
    joiner_sends = draw(st.lists(
        st.tuples(times, st.sampled_from(SIZES)), max_size=5)) if joiner else []
    return {
        "n": n, "links": links, "loss": loss, "sends": sends,
        "faults": faults, "joiner": joiner, "joiner_sends": joiner_sends,
        "collisions": draw(st.sampled_from((True, True, False))),
        "tamper_mod": draw(st.sampled_from((0, 3, 5))),
    }


def _run(radio_cls, sc):
    ids = list(range(sc["n"]))
    topo = Topology(positions={i: (float(i), 0.0) for i in ids},
                    neighbors={i: [] for i in ids})
    for u, v in sc["links"]:
        topo.neighbors[u].append(v)
        topo.link_loss[(u, v)] = sc["loss"][(u, v)]
    sim = Simulator()
    rngs = RngRegistry(11)
    log = OutcomeLog()
    trace = TraceRecorder(causal=log)
    radio = radio_cls(sim, topo, PerLinkLoss(topo.link_loss, default=0.5), rngs,
                      trace, config=RadioConfig(collisions=sc["collisions"]))
    nodes = {i: Sink(i, sim, radio, rngs, trace) for i in ids}
    if sc["tamper_mod"]:
        mod = sc["tamper_mod"]
        radio.tamper = lambda frame, s, r: None if (frame.payload + r) % mod == 0 else frame
    if sc["joiner"]:
        new = sc["n"]
        topo.positions[new] = (-1.0, 0.0)
        topo.neighbors[new] = []
        for v in sc["joiner"]:
            for a, b in ((new, v), (v, new)):
                topo.neighbors[a].append(b)
                topo.link_loss[(a, b)] = 0.0
        nodes[new] = Sink(new, sim, radio, rngs, trace)

    def send(node_id, size, tag):
        if not radio.is_detached(node_id):
            nodes[node_id].broadcast(FrameKind.DATA, size, tag)

    def splice(u, v):
        if v not in topo.neighbors[u]:
            topo.neighbors[u].append(v)

    for tag, (t, node_id, size) in enumerate(sc["sends"]):
        sim.schedule(t, send, node_id, size, tag)
    for tag, (t, size) in enumerate(sc["joiner_sends"], start=len(sc["sends"])):
        sim.schedule(t, send, sc["n"], size, tag)
    for t, kind, *args in sc["faults"]:
        if kind == "detach":
            sim.schedule(t, radio.detach, args[0])
        elif kind == "attach":
            sim.schedule(t, radio.attach, args[0])
        elif kind == "link":
            (u, v), up = args
            sim.schedule(t, radio.set_link, u, v, up)
        else:
            sim.schedule(t, splice, *args[0])
    sim.run()
    return log.outcomes, dict(trace.counters)


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_fast_path_matches_reference_scan(sc):
    fast, fast_counters = _run(Radio, sc)
    ref, ref_counters = _run(ReferenceRadio, sc)
    assert fast == ref
    assert fast_counters == ref_counters


def test_reference_sees_every_outcome_kind():
    """The generator reaches each branch the comparison is meant to cover."""
    sc = {
        # 1 -> 2 <- 3 hidden terminal; 2 -> 4 only one way, so 4 transmits
        # over 2's frame; 1 -> 5 always lost, (tag + receiver) % 3 == 0
        # tampered.
        "n": 7,
        "links": [(1, 2), (2, 1), (3, 2), (2, 3), (2, 4), (4, 0), (1, 5), (1, 6)],
        "loss": {(1, 2): 0.0, (2, 1): 0.0, (3, 2): 0.0, (2, 3): 0.0,
                 (2, 4): 0.0, (4, 0): 0.0, (1, 5): 1.0, (1, 6): 0.0},
        "sends": [(0.0, 1, 50), (0.0, 3, 50), (0.1, 2, 100), (0.1, 4, 100)],
        "faults": [], "joiner": [], "joiner_sends": [],
        "collisions": True, "tamper_mod": 3,
    }
    ref, _ = _run(ReferenceRadio, sc)
    assert {cause for *_, cause in ref} == {"halfduplex", "collision", "channel",
                                            "tamper", "delivered"}
    fast, _ = _run(Radio, sc)
    assert fast == ref
