"""Name -> definition registries for the plugin layers.

Stacks (:mod:`repro.stacks`) and fabrics (:mod:`repro.topology`) are
both selected by registry name plus a canonical parameter tuple; each
package keeps one :class:`Registry` instance.  Registration order is
listing order (builtins first), and duplicate names are rejected — two
plugins silently shadowing each other would corrupt cache keys.
"""

from __future__ import annotations

from typing import Any, Generic, Iterable, Mapping, TypeVar, Union

ParamItems = Union[Mapping[str, Any], Iterable[tuple[str, Any]], None]


def canonical_params(params: ParamItems) -> tuple[tuple[str, Any], ...]:
    """Sort parameters into the canonical (key, value) tuple that cache
    keys and specs carry — order-insensitive, picklable, JSON-able."""
    if params is None:
        return ()
    items = params.items() if isinstance(params, Mapping) else params
    return tuple(sorted((str(k), v) for k, v in items))


class UnknownNameError(KeyError):
    """Lookup of a name nobody registered."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:
        return self.message


D = TypeVar("D")


class Registry(Generic[D]):
    """Definitions (anything with a ``name``) by name, in registration
    order; ``kind`` names them in errors, ``error`` is what a lookup of
    an unregistered name raises."""

    def __init__(self, kind: str, error: type[UnknownNameError]) -> None:
        self.kind = kind
        self.error = error
        self._entries: dict[str, D] = {}

    def register(self, definition: D, *, replace: bool = False) -> D:
        """Register ``definition`` under its name; returns it so modules
        can register at import time and keep the handle.  Pass
        ``replace=True`` to override deliberately (tests, interactive
        experimentation)."""
        name = definition.name
        if not name or name.strip() != name:
            raise ValueError(f"invalid {self.kind} name {name!r}")
        if not replace and name in self._entries:
            raise ValueError(
                f"{self.kind} {name!r} is already registered; "
                f"pass replace=True to override")
        self._entries[name] = definition
        return definition

    def unregister(self, name: str) -> None:
        """Remove a registration (primarily for test teardown)."""
        self.get(name)
        del self._entries[name]

    def get(self, name: str) -> D:
        try:
            return self._entries[name]
        except KeyError:
            raise self.error(
                f"unknown {self.kind} {name!r}; available: "
                f"{', '.join(self._entries) or '(none)'}") from None

    def names(self) -> tuple[str, ...]:
        """Registered names, in registration order (builtins first)."""
        return tuple(self._entries)
