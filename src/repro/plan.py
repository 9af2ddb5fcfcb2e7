"""The shared container behind declarative JSON plans.

:class:`~repro.faults.plan.FaultPlan` and :class:`~repro.attacks.plan.
AttackPlan` are both ordered lists of frozen records that can be built,
merged, compared, and round-tripped through JSON of the form
``{"<key>": [record, ...]}`` (a bare list is accepted on input).  A
:class:`Plan` subclass names its record type, its JSON key, and the noun
its error messages use; it may override :meth:`Plan._ordered` to present
its records in another order than insertion (fault events replay by time).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import (Any, ClassVar, Generic, Iterable, Iterator, List, Tuple,
                    Type, TypeVar, Union)

from repro.errors import ConfigError

__all__ = ["Plan"]

T = TypeVar("T")
P = TypeVar("P", bound="Plan[Any]")


class Plan(Generic[T]):
    """A buildable, mergeable, JSON-round-trippable list of records."""

    #: The record class; it provides ``to_dict()`` and ``from_dict(raw)``.
    item_type: ClassVar[Any]
    #: The JSON object's list key, e.g. ``"events"``.
    json_key: ClassVar[str]
    #: What error messages call the plan, e.g. ``"fault"``.
    noun: ClassVar[str]

    def __init__(self, items: Iterable[T] = ()):
        self._items: List[T] = list(items)

    def add(self: P, item: T) -> P:
        self._items.append(item)
        return self

    def merge(self: P, other: P) -> P:
        """A new plan holding this plan's records followed by ``other``'s."""
        return type(self)(self._items + other._items)

    def _ordered(self) -> Tuple[T, ...]:
        """The records in the order they are iterated, compared and saved."""
        return tuple(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._ordered())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._ordered() == other._ordered()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({len(self._items)} {self.json_key})"

    # -- serialisation -------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {self.json_key: [item.to_dict() for item in self._ordered()]},
            indent=2)

    @classmethod
    def from_json(cls: Type[P], text: str) -> P:
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{cls.noun} plan is not valid JSON: {exc}")
        items = raw.get(cls.json_key) if isinstance(raw, dict) else raw
        if not isinstance(items, list):
            raise ConfigError(f'{cls.noun} plan JSON must be '
                              f'{{"{cls.json_key}": [...]}} or a list')
        return cls(cls.item_type.from_dict(item) for item in items)

    @classmethod
    def from_json_file(cls: Type[P], path: Union[str, Path]) -> P:
        return cls.from_json(Path(path).read_text(encoding="utf-8"))
