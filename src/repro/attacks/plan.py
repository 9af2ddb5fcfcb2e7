"""Declarative attack plans.

An :class:`AttackPlan` is an ordered list of :class:`AttackSpec` records —
pure data, exactly like :class:`repro.faults.plan.FaultPlan` (both share the
:class:`repro.plan.Plan` container): building a plan
performs no simulation work, so plans can be generated, merged, serialised to
JSON (the ``--attack-plan`` CLI flag), embedded in frozen scenario
dataclasses (stable campaign task keys), and deployed deterministically by an
:class:`~repro.attacks.engine.AttackEngine`.

Each spec names an attack *kind* from the plugin registry
(:data:`repro.attacks.model.ATTACK_KINDS`), its activation window, its firing
period, and a kind-specific parameter mapping passed to the attack model's
constructor.  ``position``/``reach`` control where the engine drops the
attacker into the topology (default: the victim centroid, audible to every
node within the longest legitimate link distance).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

from repro.errors import ConfigError
from repro.plan import Plan

__all__ = ["AttackSpec", "AttackPlan"]


def _frozen_params(params: Optional[Mapping[str, object]]) -> Tuple[Tuple[str, object], ...]:
    if not params:
        return ()
    return tuple(sorted(params.items()))


@dataclass(frozen=True)
class AttackSpec:
    """One attacker: kind, schedule, placement, and model parameters.

    ``params`` is stored as a sorted tuple of ``(name, value)`` pairs so the
    spec stays hashable and canonicalises deterministically inside frozen
    scenario dataclasses; :meth:`kwargs` rebuilds the constructor mapping.
    """

    kind: str
    start: float = 0.1
    period: float = 0.5
    stop: Optional[float] = None
    position: Optional[Tuple[float, float]] = None
    reach: Optional[float] = None
    params: Tuple[Tuple[str, object], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.kind:
            raise ConfigError("attack spec needs a kind")
        if self.start < 0:
            raise ConfigError(f"attack start must be >= 0, got {self.start}")
        if self.period <= 0:
            raise ConfigError(f"attack period must be > 0, got {self.period}")
        if self.stop is not None and self.stop <= self.start:
            raise ConfigError(
                f"attack stop {self.stop} must come after start {self.start}")
        if self.reach is not None and self.reach <= 0:
            raise ConfigError(f"attack reach must be > 0, got {self.reach}")
        if self.position is not None and len(self.position) != 2:
            raise ConfigError("attack position must be an (x, y) pair")
        # Normalise a mapping passed by a caller into the canonical tuple form.
        if isinstance(self.params, Mapping):
            object.__setattr__(self, "params", _frozen_params(self.params))

    def kwargs(self) -> dict:
        """The kind-specific constructor keyword arguments."""
        return dict(self.params)

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "start": self.start, "period": self.period}
        if self.stop is not None:
            out["stop"] = self.stop
        if self.position is not None:
            out["position"] = list(self.position)
        if self.reach is not None:
            out["reach"] = self.reach
        if self.params:
            out["params"] = dict(self.params)
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "AttackSpec":
        if not isinstance(raw, dict) or "kind" not in raw:
            raise ConfigError(f"attack spec missing kind: {raw!r}")
        position = raw.get("position")
        return cls(
            kind=str(raw["kind"]),
            start=float(raw.get("start", 0.1)),
            period=float(raw.get("period", 0.5)),
            stop=(float(raw["stop"]) if raw.get("stop") is not None else None),
            position=(tuple(position) if position is not None else None),
            reach=(float(raw["reach"]) if raw.get("reach") is not None else None),
            params=_frozen_params(raw.get("params")),
        )


class AttackPlan(Plan[AttackSpec]):
    """A buildable, mergeable, JSON-round-trippable list of attack specs."""

    item_type = AttackSpec
    json_key = "attacks"
    noun = "attack"

    def attack(self, kind: str, start: float = 0.1, period: float = 0.5,
               stop: Optional[float] = None,
               position: Optional[Tuple[float, float]] = None,
               reach: Optional[float] = None,
               **params: object) -> "AttackPlan":
        """Append one attacker of ``kind`` with model parameters ``params``."""
        return self.add(AttackSpec(
            kind=kind, start=start, period=period, stop=stop,
            position=position, reach=reach, params=_frozen_params(params),
        ))

    @property
    def specs(self) -> Tuple[AttackSpec, ...]:
        """All specs in insertion order (one attacker node each)."""
        return self._ordered()
