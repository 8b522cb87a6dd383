"""Type checks for the fields of a JSON spec file.

``sweep`` and ``nas`` both read a JSON spec whose values must have the
types the command expects; a wrong one is a one-line ``ValueError`` naming
the key (the command line turns it into an argparse error).  The checks
live here, apart from either spec module, so a ``nas`` run does not load
the sweep machinery to validate its spec.
"""

from __future__ import annotations

from typing import Any

__all__ = ["checked_field", "checked_list"]


def _is_a(value: Any, kind: type) -> bool:
    # JSON booleans are Python ints; an integer field rejects them.
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def checked_field(key: str, value: Any, kind: type) -> Any:
    """``value`` if it is a ``kind``; else a one-line ``ValueError`` naming ``key``."""
    if not _is_a(value, kind):
        raise ValueError(f"spec key {key!r} must be {kind.__name__}, got {value!r}")
    return value


def checked_list(key: str, value: Any, kind: type) -> tuple[Any, ...]:
    """``value`` as a tuple if it is a list of ``kind``; else a ``ValueError`` naming ``key``."""
    if not isinstance(value, (list, tuple)) or not all(_is_a(item, kind) for item in value):
        raise ValueError(f"spec key {key!r} must be a list of {kind.__name__}, got {value!r}")
    return tuple(value)
