"""The typed, scoped event bus — the tracing half of the spine.

Every layer of the reproduction emits :class:`Event` records through a
per-layer :class:`Scope` (``sim``, ``media.<kind>``, ``transport.<node>``,
``kernel.<node>``, ``recorder``, ``recovery``) into one shared
:class:`EventBus`. The bus keeps a single totally ordered stream, which
is what the replay debugger and the determinism tests rely on: two runs
with the same seeds produce bit-identical streams.

Emission is cheap when it matters: a scope caches its enabled flag, so a
disabled scope's ``emit`` is one attribute read and a return — the detail
kwargs are never materialised into an event and nothing is formatted.
An enabled scope formats nothing either: an event keeps the subject and
detail values the emitter handed over (a ``ProcessId``, a ``MessageId``)
and formats them only when read: ``subject``, ``detail``, ``to_dict``.
"""

from __future__ import annotations

import json
from operator import attrgetter
from typing import Any, Callable, Dict, Iterator, List, Optional

#: returned as handed by ``Event.detail``, as are exact lists and tuples
_AS_HANDED = (str, int, float, dict, type(None))


class Event:
    """One event: when, which layer, what happened, to whom. Immutable;
    ``subject`` and ``detail`` format what was stored when read."""

    __slots__ = ("_time", "_scope", "_category", "_subject", "_keys",
                 "_values")
    time = property(attrgetter("_time"))
    scope = property(attrgetter("_scope"))
    category = property(attrgetter("_category"))

    def _fill(self, *fields: Any) -> None:
        (self._time, self._scope, self._category, self._subject,
         self._keys, self._values) = fields

    @property
    def subject(self) -> str:
        return str(self._subject)

    @property
    def detail(self) -> Dict[str, Any]:
        return {k: v if isinstance(v, _AS_HANDED) or type(v) in (list, tuple)
                else str(v) for k, v in zip(self._keys, self._values)}

    def _fields(self) -> tuple:
        return (self.time, self.scope, self.category, self.subject,
                self.detail)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return ("Event(time={!r}, scope={!r}, category={!r}, subject={!r}, "
                "detail={!r})".format(*self._fields()))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        extras = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return (f"[{self.time:10.3f}ms] {self.scope:<14} "
                f"{self.category:<12} {self.subject} {extras}")

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-friendly representation (detail values stringified
        only when they are not already JSON-serializable)."""
        return {"time": self.time, "scope": self.scope,
                "category": self.category, "subject": self.subject,
                "detail": dict(zip(self._keys, map(_jsonable, self._values)))}


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if type(value) in (list, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


class Scope:
    """A named emission point on the bus.

    Scope names are dotted paths; disabling ``"media"`` disables
    ``media.csma`` and every other descendant. The enabled flag is
    recomputed by the bus whenever its configuration changes, so the
    per-emit cost of a disabled scope is a single boolean test.
    """

    __slots__ = ("name", "_bus", "_on")

    def __init__(self, bus: "EventBus", name: str):
        self._bus = bus
        self.name = name
        self._on = bus._scope_enabled(name)

    def emit(self, category: str, subject: Any, **detail: Any) -> None:
        """Append an event stamped with the bus clock's current time."""
        if not self._on:
            return
        bus = self._bus
        event = object.__new__(Event)
        event._fill(bus._clock(), self.name, category, subject,
                    bus._detail_keys.setdefault(keys := tuple(detail), keys),
                    tuple(detail.values()))
        bus.events.append(event)


class EventBus:
    """The shared, totally ordered event stream."""

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock = clock or (lambda: 0.0)
        self.events: List[Event] = []
        self._scopes: Dict[str, Scope] = {}
        self._disabled: set = set()
        self._master_enabled = True
        self._detail_keys: Dict[tuple, tuple] = {}   # one per event shape

    # ------------------------------------------------------------------
    # scopes
    # ------------------------------------------------------------------
    def scope(self, name: str) -> Scope:
        """Get or create the scope with the given dotted name."""
        existing = self._scopes.get(name)
        if existing is None:
            existing = self._scopes[name] = Scope(self, name)
        return existing

    def _scope_enabled(self, name: str) -> bool:
        if not self._master_enabled:
            return False
        for prefix in self._disabled:
            if name == prefix or name.startswith(prefix + "."):
                return False
        return True

    def _refresh(self) -> None:
        for scope in self._scopes.values():
            scope._on = self._scope_enabled(scope.name)

    def disable(self, prefix: str) -> None:
        """Silence a scope and all its descendants."""
        self._disabled.add(prefix)
        self._refresh()

    def enable(self, prefix: str) -> None:
        """Undo a :meth:`disable` of the same prefix."""
        self._disabled.discard(prefix)
        self._refresh()

    @property
    def enabled(self) -> bool:
        """Master switch over every scope."""
        return self._master_enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._master_enabled = bool(value)
        self._refresh()

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def select(self, category: Optional[str] = None,
               subject: Optional[str] = None,
               scope: Optional[str] = None) -> List[Event]:
        """Events matching the filters; ``scope`` matches by prefix."""
        out = []
        for event in self.events:
            if category is not None and event.category != category:
                continue
            if subject is not None and event.subject != subject:
                continue
            if scope is not None and not (
                    event.scope == scope
                    or event.scope.startswith(scope + ".")):
                continue
            out.append(event)
        return out

    def count(self, category: Optional[str] = None,
              subject: Optional[str] = None,
              scope: Optional[str] = None) -> int:
        return len(self.select(category, subject, scope))

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def clear(self) -> None:
        self.events.clear()

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """The stream as JSON lines — one event per line, in order."""
        return "\n".join(json.dumps(e.to_dict(), sort_keys=True)
                         for e in self.events)
