"""Recording attachments: causal provenance plus protocol introspection.

Two recorders hang off :class:`repro.sim.trace.TraceRecorder`, and each
recording hook has exactly one owner:

* :class:`CausalRecorder` (``--causal-trace``, the ``trace.causal``
  attachment) owns the radio and provenance hooks: MAC enqueue and drop,
  the frame going on the air, every delivery outcome, the rx context, node
  start and page decode.  It emits the ``causal_*`` kinds that
  :mod:`repro.obs.causal` rebuilds the dissemination DAG and critical paths
  from.
* :class:`FlightRecorder` (``--flight-record``, the ``trace.flight``
  attachment) is a :class:`CausalRecorder` that adds the protocol
  introspection hooks: per-packet authentication and buffering, auth drops
  and duplicates on a ``(src, dst)`` link, tracker snapshots, and at the
  end of the run the observed radio adjacency (``flight_topology``).  With
  no separate causal recorder, :class:`~repro.sim.trace.TraceRecorder`
  uses it as ``trace.causal`` too, so a flight record alone carries the
  full causal stream; attached next to a :class:`CausalRecorder`, its
  inherited causal hooks are simply never called.

Hot-path call sites guard every hook behind a single ``trace.causal is not
None`` or ``trace.flight is not None`` check, so a run without recording
pays one attribute test per site and nothing else.  Everything a recorder
emits goes through ``sink.instant`` **directly** — never through
``TraceRecorder.record`` — so recording cannot touch the counter store:
the same seed and flags produce byte-identical counter snapshots,
completion times, and RNG draws with and without it.  Every emitted kind is
declared in :mod:`repro.obs.catalog`; the per-link delivery matrix, per-node
transmission counts and hop distances are reduced offline from the stream
by :mod:`repro.obs.analyze`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Frame
    from repro.net.radio import Radio
    from repro.sim.trace import TraceSink

__all__ = ["FlightRecorder", "CausalRecorder", "LOSS_CAUSES"]

#: Delivery-failure causes the radio reports, in the order they are checked.
LOSS_CAUSES: Tuple[str, ...] = ("halfduplex", "collision", "channel", "tamper")


class CausalRecorder:
    """Cross-node causal provenance: who/what triggered every transmission.

    Attached as ``trace.causal`` (see :class:`repro.sim.trace.CausalSink`):
    every hook is guarded by one ``trace.causal is not None`` test at the
    call site, and emissions go through ``sink.instant`` only — never
    through the counter store — so the counter snapshots, RNG draws, and
    non-causal event stream are byte-identical with and without it.

    Emitted kinds (catalogued in :mod:`repro.obs.catalog`, replayed offline
    by :mod:`repro.obs.causal`):

    ``causal_meta``
        Per-node run metadata at ``start()``: protocol, base flag, total
        units, whether the node authenticates packets (``secured``), plus
        the protocol's ``causal_profile`` label for comparison tables.
    ``causal_tx``
        A frame went on the air.  Detail carries the frame id, wire kind,
        MAC enqueue time (``enq`` — the gap to ``ts`` is MAC/carrier-sense
        wait), the payload's unit/index when present, and the protocol's
        ``cause`` stamp: the rx frame, timer arm, or decode that triggered
        this transmission.
    ``causal_rx`` / ``causal_loss``
        One event per delivery attempt outcome at each receiver — the
        cross-node DAG edges.  ``causal_loss`` carries the cause (one of
        :data:`LOSS_CAUSES`) and is what the analyzer charges
        retransmission wait to.
    ``causal_decode``
        A page decoded/verified at a node, parented on the frame whose
        arrival completed it, with the decode geometry (``need`` of ``of``
        packets) so coded and ARQ pages compare directly.

    The recorder also tracks, per node, *which frame is currently being
    handled* (``enter_rx``/``exit_rx`` around ``on_receive`` in the radio):
    protocol code queries :meth:`current_frame` to parent timer arms and
    decodes without threading frame ids through every handler signature.
    """

    def __init__(self, sink: "TraceSink") -> None:
        self.sink = sink
        #: MAC enqueue time per frame id, popped when the frame airs/drops.
        self._enq: Dict[int, float] = {}
        #: Frame currently being dispatched to each node's ``on_receive``.
        self._rx_ctx: Dict[int, int] = {}

    # -- rx context -----------------------------------------------------------

    def enter_rx(self, node: int, frame_id: int) -> None:
        self._rx_ctx[node] = frame_id

    def exit_rx(self, node: int) -> None:
        self._rx_ctx.pop(node, None)

    def current_frame(self, node: int) -> Optional[int]:
        """The frame id ``node`` is handling right now, or None (timer fire)."""
        return self._rx_ctx.get(node)

    # -- radio hooks ----------------------------------------------------------

    def on_enqueue(self, ts: float, frame: "Frame") -> None:
        self._enq[frame.frame_id] = ts

    def on_mac_drop(self, frame: "Frame") -> None:
        # Never aired: no causal_tx, and its enqueue stamp must not leak.
        self._enq.pop(frame.frame_id, None)

    def on_air(self, ts: float, frame: "Frame", unit: Optional[int]) -> None:
        detail: Dict[str, Any] = {
            "frame": frame.frame_id,
            "kind": frame.kind.value,
            "enq": self._enq.pop(frame.frame_id, ts),
        }
        if unit is not None:
            detail["unit"] = unit
        index = getattr(frame.payload, "index", None)
        if index is not None:
            detail["index"] = index
        if frame.dest is not None:
            detail["dest"] = frame.dest
        if frame.cause is not None:
            detail["cause"] = frame.cause
        self.sink.instant(ts, "causal_tx", frame.sender, detail)

    def on_rx(self, ts: float, src: int, dst: int, frame: "Frame") -> None:
        self.sink.instant(ts, "causal_rx", dst,
                          {"frame": frame.frame_id, "src": src})

    def on_loss(self, ts: float, src: int, dst: int, cause: str,
                frame: "Frame") -> None:
        self.sink.instant(ts, "causal_loss", dst, {
            "frame": frame.frame_id, "src": src, "cause": cause,
            "kind": frame.kind.value,
        })

    # -- protocol hooks -------------------------------------------------------

    def on_meta(self, ts: float, node: int, protocol: str, is_base: bool,
                total_units: Optional[int], secured: bool,
                profile: str) -> None:
        self.sink.instant(ts, "causal_meta", node, {
            "protocol": protocol,
            "base": is_base,
            "total_units": total_units,
            "secured": secured,
            "profile": profile,
        })

    def on_decode(self, ts: float, node: int, unit: int,
                  parent: Optional[int], need: Optional[int],
                  of: Optional[int]) -> None:
        detail: Dict[str, Any] = {"unit": unit, "frame": parent}
        if need is not None:
            detail["need"] = need
        if of is not None:
            detail["of"] = of
        self.sink.instant(ts, "causal_decode", node, detail)


class FlightRecorder(CausalRecorder):
    """A causal recorder plus per-packet, per-link and tracker introspection."""

    def __init__(self, sink: "TraceSink") -> None:
        super().__init__(sink)
        self._radio: Optional["Radio"] = None
        self._finalized = False

    def observe_radio(self, radio: "Radio") -> None:
        """Remember the radio whose topology :meth:`finalize` maps."""
        self._radio = radio

    # -- protocol introspection hooks -----------------------------------------

    def on_auth_ok(self, ts: float, node: int, src: int, version: int,
                   unit: int, index: int) -> None:
        """Per-packet authentication succeeded at ``node``."""
        self.sink.instant(ts, "pkt_auth_ok", node, {
            "src": src, "version": version, "unit": unit, "index": index,
        })

    def on_buffered(self, ts: float, node: int, src: int, version: int,
                    unit: int, index: int) -> None:
        """``node`` inserted a data packet into its RX buffer."""
        self.sink.instant(ts, "pkt_buffered", node, {
            "src": src, "version": version, "unit": unit, "index": index,
        })

    def on_auth_drop(self, ts: float, node: int, src: int, version: int,
                     unit: int, index: int) -> None:
        """A data packet failed authentication *before* buffering."""
        self.sink.instant(ts, "link_auth_drop", node, {
            "src": src, "version": version, "unit": unit, "index": index,
        })

    def on_duplicate(self, ts: float, node: int, src: int, version: int,
                     unit: int, index: int) -> None:
        """An already-buffered data packet arrived again."""
        self.sink.instant(ts, "link_duplicate", node, {
            "src": src, "version": version, "unit": unit, "index": index,
        })

    def on_tracker(self, ts: float, node: int, unit: int, trigger: str,
                   state: Optional[Dict[str, Any]],
                   requester: Optional[int] = None,
                   index: Optional[int] = None,
                   via: Optional[int] = None) -> None:
        """TX-policy snapshot after a SNACK fold (``trigger="snack"``) or a
        transmission being accounted (``trigger="sent"``).

        ``requester`` is the *claimed* identity folded into the policy;
        ``via`` the link-layer sender that relayed it — they differ only
        under Sybil/replay attacks, and the ``quarantine_respected``
        invariant keys on ``via``.
        """
        if state is None:
            return  # the policy offers no introspection
        detail: Dict[str, Any] = {"unit": unit, "trigger": trigger}
        if requester is not None:
            detail["requester"] = requester
        if index is not None:
            detail["index"] = index
        if via is not None:
            detail["via"] = via
        detail.update(state)
        self.sink.instant(ts, "tracker_snapshot", node, detail)

    # -- end of run -----------------------------------------------------------

    def finalize(self, ts: float) -> None:
        """Emit the observed radio adjacency as one ``flight_topology``.

        The topology is read at the end of the run, so links an attacker
        spliced in are included.  Idempotent: a second call is a no-op so
        CLI paths that both run and persist a simulation cannot double-emit.
        """
        if self._finalized or self._radio is None:
            return
        self._finalized = True
        neighbors = self._radio.topology.neighbors
        self.sink.instant(ts, "flight_topology", None, {
            "neighbors": {str(n): sorted(neighbors[n])
                          for n in sorted(neighbors)},
        })
