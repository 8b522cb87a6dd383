"""Shared content-fingerprint helpers.

Networks, workloads, tiling plans, compiled blocks and every cache key
fingerprint themselves the same way: sha256 over the canonical JSON of a
payload, the text ``json.dumps(payload, sort_keys=True, default=str)``
gives for it.  Keeping the incantation in one place guarantees the call
sites can never drift apart — a silent divergence would fragment or
invalidate the evaluation session's on-disk result cache.

The immutable values that many digests share keep their own canonical
JSON memoized on the instance by :func:`memoized_json`: a layer
(:func:`repro.dnn.layers.layer_json`) and a workload's config.  A
composite digest is spliced together from those texts by
:func:`spliced_json` and hashed by :func:`fingerprint_text`, instead of
re-serializing the nested payload: the text, and hence the digest, is the
nested payload's byte for byte.  A NAS mutant therefore serializes only the
layers it changed.  Payloads with no shared member (tiling plans, the
tiling and program keys, a block's layer fingerprint) dump whole through
:func:`fingerprint_payload`, which is as fast for them as splicing.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Mapping, Sequence

__all__ = [
    "canonical_json",
    "fingerprint_payload",
    "fingerprint_text",
    "memoized_json",
    "spliced_json",
]

#: ``json.dumps(value, sort_keys=True, default=str)`` builds exactly this
#: encoder on every call; one shared instance skips the construction.
_ENCODER = json.JSONEncoder(sort_keys=True, default=str)


def canonical_json(value: Any) -> str:
    """The canonical JSON text of a JSON-representable value.

    ``default=str`` covers enum/Path-like leaves; ``sort_keys`` makes the
    text independent of dict insertion order, so equal payloads serialize
    identically in any process on any platform.
    """
    return _ENCODER.encode(value)


def memoized_json(value: Any, build: Callable[[Any], Any]) -> str:
    """The canonical JSON of ``build(value)``, memoized on the frozen ``value``.

    The text lives in the instance ``__dict__``, outside the dataclass
    fields, so equality, hashing, ``asdict`` and ``replace`` ignore it.
    """
    text = value.__dict__.get("_canonical_json")
    if text is None:
        text = _ENCODER.encode(build(value))
        object.__setattr__(value, "_canonical_json", text)
    return text


def spliced_json(values: Mapping[str, Any], /, **texts: str | Sequence[str]) -> str:
    """The canonical JSON text of an object, spliced from serialized members.

    ``values`` holds plain members, serialized here.  Each of ``texts`` is
    a member already serialized by :func:`canonical_json` (or spliced by
    this function), or a sequence of such texts for an array member.  The
    result equals :func:`canonical_json` of the nested object those texts
    stand for: keys sorted, joined with ``json.dumps``'s default ``", "``
    and ``": "`` separators.
    """
    members = {
        key: text if isinstance(text, str) else "[" + ", ".join(text) + "]"
        for key, text in texts.items()
    }
    for key, value in values.items():
        members[key] = _ENCODER.encode(value)
    return (
        "{"
        + ", ".join(
            f"{_ENCODER.encode(key)}: {text}" for key, text in sorted(members.items())
        )
        + "}"
    )


def fingerprint_text(text: str) -> str:
    """The sha256 hex digest of a canonical JSON text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint_payload(payload: dict[str, Any]) -> str:
    """Deterministic sha256 hex digest of a JSON-representable payload."""
    return fingerprint_text(canonical_json(payload))
