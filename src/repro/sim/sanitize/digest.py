"""Canonical digests for perturbed-run comparison.

Two runs of the same scenario under different tie-break permutations are
*equivalent* when they produce the same final metrics and the same set of
structured trace events — where events sharing a timestamp may legitimately
appear in either order (that reorder is exactly what the perturbation
injects).  The canonical forms here therefore sort events within equal
timestamps by content before hashing, so a digest mismatch always means a
*real* divergence (different counters, different event content, different
timing), never a cosmetic tie reorder.

Floats round-trip through ``json.dumps`` with repr-shortest encoding, so
the digests are bitwise-faithful to the underlying values.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, List, Optional, Protocol, Tuple

__all__ = [
    "DigestPair",
    "canonical_events",
    "event_digest",
    "first_divergence",
    "metrics_digest",
]


class _JsonableResult(Protocol):
    """What the digest needs from a RunResult (structural, no import)."""

    def to_jsonable(self) -> "dict[str, object]": ...


class _EventLike(Protocol):
    """What the digest needs from a TraceEvent."""

    def to_dict(self) -> "dict[str, Any]": ...


class _LogLike(Protocol):
    """What the digest needs from an EventLog."""

    events: "List[Any]"


@dataclass(frozen=True)
class DigestPair:
    """The two digests that identify one run's outcome."""

    metrics: str
    events: str


def _sha256(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def metrics_digest(result: _JsonableResult) -> str:
    """Canonical digest of a RunResult (sorted keys, repr-exact floats)."""
    return _sha256(json.dumps(result.to_jsonable(), sort_keys=True))


def canonical_events(log: _LogLike) -> List[str]:
    """The log's events as canonical JSON strings, tie-order-insensitive.

    Events are serialised with sorted keys and then sorted by
    ``(timestamp, serialised content)``: distinct-time events keep their
    temporal order; same-time events land in a content-defined order that
    every legitimate tie-break permutation agrees on.

    Causal events name frames by id, and ids come from a process-wide
    counter, so equivalent runs number the same frame differently.  Each
    frame id is therefore replaced by where and when the frame aired
    (``"<sender>@<ts>"``, ``None`` for a frame that never aired).
    """
    events = [event.to_dict() for event in log.events]
    aired = {data["detail"]["frame"]: f"{data['node']}@{data['ts']!r}"
             for data in events if data["kind"] == "causal_tx"}
    rendered: List[Tuple[float, str]] = []
    for data in events:
        if data["kind"].startswith("causal_"):
            data = {**data, "detail": _relabel(data["detail"], aired)}
        rendered.append((float(data["ts"]), json.dumps(data, sort_keys=True)))
    rendered.sort()
    return [text for _, text in rendered]


def _relabel(detail: "dict[str, Any]",
             aired: "dict[Any, str]") -> "dict[str, Any]":
    """A causal event's detail with its frame ids replaced by airings."""
    out = dict(detail)
    if "frame" in out:
        out["frame"] = aired.get(out["frame"])
    cause = out.get("cause")
    if isinstance(cause, dict) and "parent" in cause:
        out["cause"] = {**cause, "parent": aired.get(cause["parent"])}
    return out


def event_digest(log: _LogLike) -> str:
    """Canonical digest of a structured event log."""
    return _sha256("\n".join(canonical_events(log)))


def first_divergence(
    baseline: List[str], perturbed: List[str]
) -> Optional[Tuple[int, str, str]]:
    """The first differing canonical event between two runs.

    Returns ``(index, baseline_event, perturbed_event)`` with ``"<absent>"``
    standing in when one log ran out of events, or None when equal — the
    minimal diff a divergence report prints.
    """
    for index, (a, b) in enumerate(zip(baseline, perturbed)):
        if a != b:
            return (index, a, b)
    if len(baseline) != len(perturbed):
        index = min(len(baseline), len(perturbed))
        a = baseline[index] if index < len(baseline) else "<absent>"
        b = perturbed[index] if index < len(perturbed) else "<absent>"
        return (index, a, b)
    return None
