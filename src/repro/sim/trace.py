"""Lightweight counters and trace records for simulations.

Protocols report what happened through a :class:`TraceRecorder`; experiment
code reads the counters afterwards.  Recording full trace entries is optional
(and off by default) because large runs only need the counters.

The recorder is a thin façade over a typed :class:`~repro.obs.registry.
MetricsRegistry`: :attr:`TraceRecorder.counters` *is* the registry's counter
store, so the hot path stays a single dict update while every counter name
can be resolved to its declared spec (kind, unit, help) for reports.  Four
optional extensions hang off it:

* ``max_records`` bounds the in-memory record list as a ring buffer —
  evictions are counted under ``trace_dropped`` so silent loss is visible.
* ``sink`` mirrors records into a structured event log
  (:class:`repro.obs.events.EventLog`-shaped) and enables
  :meth:`span_begin`/:meth:`span_end` for packet/page lifecycle spans; with
  no sink both span calls are near-free no-ops.
* ``causal`` attaches a :class:`CausalSink`-shaped provenance recorder
  (per-frame causal parents, every delivery outcome, decode events); the
  radio and protocol layers check ``trace.causal is not None`` themselves.
* ``flight`` attaches a :class:`FlightSink`-shaped flight recorder, which
  adds protocol introspection (authentication, buffering, tracker
  snapshots, the observed topology) under the same ``trace.flight is not
  None`` discipline.  A flight recorder is itself a causal recorder: with
  no ``causal`` given it is used as both, so a flight record alone carries
  the full causal stream.

Each hook has one owner: radio and provenance hooks are only ever called on
``trace.causal``, introspection hooks only on ``trace.flight``, so a run
with both attached records every outcome once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Protocol, Tuple, Union

from repro.obs.registry import MetricsRegistry

__all__ = ["TraceRecord", "TraceRecorder", "TraceSink", "FlightSink",
           "CausalSink"]


class CausalSink(Protocol):
    """Structural interface of a causal-provenance recorder attachment.

    :class:`repro.obs.flight.CausalRecorder` satisfies this.  Every
    hot-path call site (MAC enqueue and drop, the frame going on the air,
    each delivery outcome, the rx context, node start, page decode) guards
    its hook behind a single ``trace.causal is not None`` check, so a run
    without recording pays one attribute test per site.  Implementations
    write only to their own sink — never to the recorder's counters — so
    the event stream, counter snapshots, and RNG draws stay byte-identical
    with and without recording.

    ``frame`` parameters are :class:`repro.net.packet.Frame` instances,
    typed ``Any`` here so the strict ``repro.sim`` surface does not import
    ``repro.net`` (which imports this module).
    """

    def on_enqueue(self, ts: float, frame: Any) -> None: ...

    def on_air(self, ts: float, frame: Any, unit: Optional[int]) -> None: ...

    def on_mac_drop(self, frame: Any) -> None: ...

    def on_rx(self, ts: float, src: int, dst: int, frame: Any) -> None: ...

    def on_loss(self, ts: float, src: int, dst: int, cause: str,
                frame: Any) -> None: ...

    def enter_rx(self, node: int, frame_id: int) -> None: ...

    def exit_rx(self, node: int) -> None: ...

    def current_frame(self, node: int) -> Optional[int]: ...

    def on_meta(self, ts: float, node: int, protocol: str, is_base: bool,
                total_units: Optional[int], secured: bool,
                profile: str) -> None: ...

    def on_decode(self, ts: float, node: int, unit: int,
                  parent: Optional[int], need: Optional[int],
                  of: Optional[int]) -> None: ...


class FlightSink(CausalSink, Protocol):
    """Structural interface of a flight recorder attachment.

    :class:`repro.obs.flight.FlightRecorder` satisfies this.  It is a
    :class:`CausalSink` (so :class:`TraceRecorder` can use it as ``causal``
    too) and adds the protocol-introspection hooks declared here, which
    call sites guard behind ``trace.flight is not None``.  Implementations
    write only to their own sink, never to the recorder's counters.
    """

    def observe_radio(self, radio: Any) -> None: ...

    def on_auth_ok(self, ts: float, node: int, src: int, version: int,
                   unit: int, index: int) -> None: ...

    def on_buffered(self, ts: float, node: int, src: int, version: int,
                    unit: int, index: int) -> None: ...

    def on_auth_drop(self, ts: float, node: int, src: int, version: int,
                     unit: int, index: int) -> None: ...

    def on_duplicate(self, ts: float, node: int, src: int, version: int,
                     unit: int, index: int) -> None: ...

    def on_tracker(self, ts: float, node: int, unit: int, trigger: str,
                   state: Optional[Dict[str, Any]],
                   requester: Optional[int] = None,
                   index: Optional[int] = None,
                   via: Optional[int] = None) -> None: ...

    def finalize(self, ts: float) -> None: ...


class TraceSink(Protocol):
    """Structural interface a structured-event sink must provide.

    :class:`repro.obs.events.EventLog` satisfies this; the recorder only
    depends on the shape so the strict-typed ``repro.sim`` surface does not
    import the (heavier) events module.
    """

    def instant(self, ts: float, kind: str, node: Optional[int] = None,
                detail: Optional[Dict[str, Any]] = None) -> None: ...

    def begin(self, ts: float, kind: str, node: Optional[int] = None,
              key: Any = None, detail: Optional[Dict[str, Any]] = None) -> None: ...

    def end(self, ts: float, kind: str, node: Optional[int] = None,
            key: Any = None, detail: Optional[Dict[str, Any]] = None) -> None: ...


@dataclass(frozen=True)
class TraceRecord:
    """One timestamped trace entry."""

    time: float
    kind: str
    node: Optional[int]
    detail: Tuple[Tuple[str, Any], ...]

    def get(self, key: str, default: Any = None) -> Any:
        for k, v in self.detail:
            if k == key:
                return v
        return default


class TraceRecorder:
    """Accumulates named counters and (optionally) full trace records."""

    def __init__(
        self,
        keep_records: bool = False,
        max_records: Optional[int] = None,
        sink: Optional[TraceSink] = None,
        registry: Optional[MetricsRegistry] = None,
        flight: Optional[FlightSink] = None,
        causal: Optional[CausalSink] = None,
    ) -> None:
        if max_records is not None and max_records < 1:
            raise ValueError(f"max_records must be >= 1, got {max_records}")
        self.registry: MetricsRegistry = (
            registry if registry is not None else MetricsRegistry()
        )
        # Alias, not copy: incrementing through either view hits the same
        # Counter object, keeping the hot path a single dict update.
        self.counters = self.registry.counters
        self.keep_records = keep_records or max_records is not None
        self.max_records = max_records
        # Unbounded stays a plain list (the established API: tests and
        # callers compare against []); bounded uses a deque ring buffer.
        self.records: Union[List[TraceRecord], Deque[TraceRecord]] = (
            [] if max_records is None else deque(maxlen=max_records)
        )
        self.sink = sink
        # Optional recorders: instrumented call sites check for None
        # themselves so the disabled path costs one attribute read.  A
        # flight recorder doubles as the causal tracer unless one is given.
        self.flight = flight
        self.causal: Optional[CausalSink] = (
            causal if causal is not None else flight)
        self._marks: Dict[str, float] = {}

    def count(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self.counters[name] += amount

    def record(self, time: float, kind: str, node: Optional[int] = None, **detail: Any) -> None:
        """Count ``kind`` and, when enabled, store a full trace record."""
        self.counters[kind] += 1
        if self.keep_records:
            if (
                self.max_records is not None
                and len(self.records) >= self.max_records
            ):
                # deque(maxlen) evicts the oldest on append; make the loss
                # visible instead of silent.
                self.counters["trace_dropped"] += 1
            self.records.append(
                TraceRecord(time, kind, node, tuple(sorted(detail.items())))
            )
        if self.sink is not None:
            self.sink.instant(time, kind, node, dict(detail) if detail else None)

    # -- lifecycle spans (structured sink only) --------------------------------

    def span_begin(self, time: float, kind: str, node: Optional[int] = None,
                   key: Any = None, **detail: Any) -> None:
        """Open a lifecycle span in the structured sink (no-op without one)."""
        if self.sink is not None:
            self.sink.begin(time, kind, node, key, dict(detail) if detail else None)

    def span_end(self, time: float, kind: str, node: Optional[int] = None,
                 key: Any = None, **detail: Any) -> None:
        """Close a lifecycle span; counts one completion of ``kind``."""
        if self.sink is None:
            return
        self.counters[kind] += 1
        self.sink.end(time, kind, node, key, dict(detail) if detail else None)

    def mark(self, name: str, time: float) -> None:
        """Remember a named timestamp (first write wins)."""
        if name not in self._marks:
            self._marks[name] = time

    def get_mark(self, name: str) -> Optional[float]:
        return self._marks.get(name)

    def of_kind(self, kind: str) -> List[TraceRecord]:
        """All stored records of ``kind`` (requires ``keep_records=True``)."""
        return [r for r in self.records if r.kind == kind]

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy of all counters."""
        return dict(self.counters)
