"""Segmented pack-file result store: append-only segments + index sidecars.

:class:`~repro.session.cache.ResultCache` persists its entries in a
handful of **append-only pack segments** instead of one file per entry,
so a write is one buffered append and a lookup is a dictionary hit:

* **Record**: a 4-byte big-endian length prefix followed by one compact
  (``sort_keys``, no whitespace) UTF-8 JSON object ``{"key", "kind",
  "payload"}``, so a record is self-delimiting and a truncated tail (a
  writer killed mid-append) is detected and dropped at the next scan
  instead of poisoning the file.
* **Segment**: ``pack-<pid>-<nonce>.seg``, append-only, owned by exactly
  one writer process for its lifetime.  Writers never share a segment, so
  the data path needs no locks, and readers merge all segments at open
  time.
* **Index sidecar**: ``<segment>.idx``, a JSON map of key → (offset,
  length, kind) plus the segment size it describes.  A missing or stale
  sidecar (size mismatch after a crash) degrades to one sequential scan of
  the segment, never an error.  Writers rewrite their own sidecar once per
  :meth:`SegmentedStore.flush`, not once per record.

The merged sidecars are the directory's only index: entry kinds and sizes
(``--cache-info``) are read off it, and nothing else is written beside the
segments.  Records are never deleted or rewritten.  A key is a content
fingerprint, so every record stored under it holds the same result; the
index keeps the last one it scanned or appended.
"""

from __future__ import annotations

import json
import os
import struct
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO, Iterable, Iterator

__all__ = [
    "SEGMENT_SUFFIX",
    "INDEX_SUFFIX",
    "STORE_SCHEMA_VERSION",
    "SegmentedStore",
    "encode_body",
    "encode_record",
    "iter_records",
]

#: Segment files are ``pack-<pid>-<nonce>.seg``; the prefix + suffix pair is
#: what the open-time merge globs for.
SEGMENT_SUFFIX = ".seg"
_SEGMENT_GLOB = f"pack-*{SEGMENT_SUFFIX}"

#: Per-segment index sidecar (``<segment>.idx``).
INDEX_SUFFIX = ".idx"

#: Version of the record/sidecar format; bumped on incompatible changes
#: (readers treat an unknown sidecar schema as stale and rescan).
STORE_SCHEMA_VERSION = 1

#: Length prefix of one record.
_LENGTH = struct.Struct(">I")

#: Sanity cap on one record's body; anything larger is treated as a torn
#: or corrupt tail when scanning.
MAX_RECORD_BYTES = 256 * 1024 * 1024


#: Reused encoder for record bodies: ``json.dumps`` with non-default
#: keyword arguments constructs a fresh ``JSONEncoder`` per call, which is
#: measurable per-record overhead on a sweep's hundreds of puts.
_BODY_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def encode_body(key: str, entry: dict[str, Any]) -> bytes:
    """One record body: compact JSON of the entry plus its key (no prefix)."""
    return _BODY_ENCODER.encode({"key": key, **entry}).encode("utf-8")


def encode_record(key: str, entry: dict[str, Any]) -> bytes:
    """One length-prefixed record: compact JSON of the entry plus its key."""
    body = encode_body(key, entry)
    return _LENGTH.pack(len(body)) + body


def iter_records(data: bytes) -> Iterator[tuple[int, int, dict[str, Any]]]:
    """Yield ``(body_offset, body_length, record)`` from raw segment bytes.

    Stops at the first torn or undecodable record: a writer killed
    mid-append leaves a truncated tail, and everything before it is intact
    by construction (single-writer, append-only).
    """
    position = 0
    total = len(data)
    while position + _LENGTH.size <= total:
        (length,) = _LENGTH.unpack_from(data, position)
        start = position + _LENGTH.size
        if length > MAX_RECORD_BYTES or start + length > total:
            return  # torn tail
        try:
            record = json.loads(data[start : start + length].decode("utf-8"))
            if not isinstance(record, dict) or "key" not in record:
                return
        except (ValueError, UnicodeDecodeError):
            return
        yield start, length, record
        position = start + length


@dataclass
class _Location:
    """Where one live record lives: segment name + body offset/length."""

    segment: str
    offset: int
    length: int
    kind: str


class SegmentedStore:
    """Pack-segment store of cache entries under one directory.

    Opening the store builds the in-memory key index once — each segment's
    sidecar when fresh, a sequential scan otherwise — after which lookups
    and existence probes are dictionary hits instead of per-entry
    filesystem probes.  All mutation goes through this process's own
    segment; other writers' segments are strictly read-only here.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self._index: dict[str, _Location] = {}
        #: Bytes of each segment this store has scanned or appended.
        self._sizes: dict[str, int] = {}
        self._handles: dict[str, BinaryIO] = {}
        self._own_name = f"pack-{os.getpid()}-{uuid.uuid4().hex[:8]}{SEGMENT_SUFFIX}"
        self._own_handle: BinaryIO | None = None
        self._own_dirty = False
        self._load()

    # ------------------------------------------------------------------ #
    # Open-time merge
    # ------------------------------------------------------------------ #
    def _load(self) -> None:
        for path in sorted(self.directory.glob(_SEGMENT_GLOB)):
            try:
                size = path.stat().st_size
            except OSError:
                continue  # deleted between the glob and the stat
            self._sizes[path.name] = size
            entries = self._read_sidecar(path, size)
            if entries is None:
                entries = self._scan_segment(path, size)
                # Best-effort repair so the next open skips the scan; a
                # read-only shared directory still serves reads without it.
                self._write_sidecar(path.name, entries, size)
            for key, (offset, length, kind) in entries.items():
                self._index[key] = _Location(path.name, offset, length, kind)

    def _read_sidecar(
        self, path: Path, size: int
    ) -> dict[str, tuple[int, int, str]] | None:
        """The sidecar's entries, or None when missing/stale/corrupt."""
        try:
            payload = json.loads(
                path.with_name(path.name + INDEX_SUFFIX).read_text(encoding="utf-8")
            )
            if payload.get("schema") != STORE_SCHEMA_VERSION:
                return None
            if int(payload.get("segment_bytes", -1)) != size:
                return None  # the segment grew (or was torn) after this flush
            entries = {
                str(key): (int(offset), int(length), str(kind))
                for key, (offset, length, kind) in payload["entries"].items()
            }
        except (OSError, ValueError, KeyError, TypeError):
            return None
        return entries

    def _scan_segment(self, path: Path, size: int) -> dict[str, tuple[int, int, str]]:
        """Rebuild one segment's entries by a sequential record scan."""
        try:
            data = path.read_bytes()[:size]
        except OSError:
            return {}
        entries: dict[str, tuple[int, int, str]] = {}
        for offset, length, record in iter_records(data):
            entries[str(record["key"])] = (offset, length, str(record.get("kind", "unknown")))
        return entries

    def _write_sidecar(
        self, name: str, entries: dict[str, tuple[int, int, str]], size: int
    ) -> None:
        payload = {
            "schema": STORE_SCHEMA_VERSION,
            "segment_bytes": size,
            # Tuples serialize as JSON arrays directly; no list() rebuild.
            "entries": entries,
        }
        path = self.directory / (name + INDEX_SUFFIX)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(_BODY_ENCODER.encode(payload), encoding="utf-8")
            tmp.replace(path)
        except OSError:
            return  # advisory: the next open rescans instead

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __contains__(self, key: str) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._index)

    def keys(self) -> Iterable[str]:
        return self._index.keys()

    @property
    def segment_count(self) -> int:
        return len(self._sizes)

    def index_entries(self) -> Iterator[tuple[str, int]]:
        """``(kind, record_bytes)`` of every live key, read off the index."""
        for location in self._index.values():
            yield location.kind, location.length

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def _read_handle(self, name: str) -> BinaryIO | None:
        handle = self._handles.get(name)
        if handle is None:
            try:
                handle = open(self.directory / name, "rb")  # noqa: SIM115 — cached
            except OSError:
                return None
            self._handles[name] = handle
        return handle

    def _read_location(self, location: _Location) -> dict[str, Any] | None:
        handle = self._read_handle(location.segment)
        if handle is None:
            return None
        try:
            handle.seek(location.offset)
            body = handle.read(location.length)
            record = json.loads(body.decode("utf-8"))
        except (OSError, ValueError, UnicodeDecodeError):
            return None
        return record if isinstance(record, dict) else None

    def get_record(self, key: str) -> dict[str, Any] | None:
        """One entry record (``{"key", "kind", "payload"}``), or None."""
        location = self._index.get(key)
        if location is None:
            return None
        record = self._read_location(location)
        if record is None:
            # Unreadable (e.g. the segment was deleted underneath a
            # long-lived reader): a miss, never a crash.
            self._index.pop(key, None)
        return record

    # ------------------------------------------------------------------ #
    # Writes (this process's own segment only)
    # ------------------------------------------------------------------ #
    def _writer(self) -> BinaryIO | None:
        if self._own_handle is None:
            try:
                self._own_handle = open(self.directory / self._own_name, "ab")
            except OSError:
                return None  # read-only shared directory: serve reads only
            self._sizes.setdefault(self._own_name, 0)
        return self._own_handle

    def append_encoded(
        self, items: list[tuple[str, str, bytes]]
    ) -> dict[str, int] | None:
        """Append pre-encoded record bodies to this process's segment.

        ``items`` is ``(key, kind, body)`` with ``body`` the compact JSON
        record bytes (:func:`encode_record` without the length prefix).
        Returns ``{key: body_bytes}`` on success, ``None`` when the
        directory is unwritable (callers keep those entries memory-only).
        """
        if not items:
            return {}
        handle = self._writer()
        if handle is None:
            return None
        blob = bytearray()
        placed: list[tuple[str, _Location]] = []
        offset = self._sizes[self._own_name]
        for key, kind, body in items:
            blob += _LENGTH.pack(len(body))
            offset += _LENGTH.size
            placed.append((key, _Location(self._own_name, offset, len(body), kind)))
            blob += body
            offset += len(body)
        try:
            handle.write(bytes(blob))
            handle.flush()
        except OSError:
            return None
        self._sizes[self._own_name] = offset
        self._index.update(placed)
        self._own_dirty = True
        return {key: location.length for key, location in placed}

    def flush(self) -> None:
        """Rewrite the writer segment's index sidecar if records were appended."""
        if not self._own_dirty:
            return
        entries = {
            key: (location.offset, location.length, location.kind)
            for key, location in self._index.items()
            if location.segment == self._own_name
        }
        self._write_sidecar(self._own_name, entries, self._sizes[self._own_name])
        self._own_dirty = False

    def close(self) -> None:
        self.flush()
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()
        if self._own_handle is not None:
            self._own_handle.close()
            self._own_handle = None
