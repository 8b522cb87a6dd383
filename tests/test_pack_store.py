"""Tests for the segmented pack-file artifact store and its cache wiring.

Covers the store format itself (record framing, torn-tail tolerance, index
sidecars), the ``network_result`` record codec (exact round trips, corrupt
rows), the :class:`~repro.session.cache.ResultCache` integration (one
segment per writer, immediate appends, the ``--cache-info`` format line),
directories written by older releases and older store schemas, and the
concurrent-writer model (per-process segments, readers merge at open) —
including a real multi-process stress test.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import subprocess
import sys
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import pytest
from faults import delete_segments
from compiling import layer_cache_key, program_payload, tiling_requests

from repro.baselines.gpu import TEGRA_X2, TITAN_XP
from repro.dnn import models
from repro.harness.runner import format_cache_info, main
from repro.session import (
    EvaluationSession,
    ResultCache,
    SegmentedStore,
    Workload,
    compile_program,
    execute_workload,
    load_network,
    program_cache_key,
    tiling_cache_key,
)
from repro.session.cache import decode_result, encode_result
from repro.session.store import STORE_SCHEMA_VERSION, encode_body
from repro.sim.results import LayerResult, NetworkResult

_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: A record's length prefix, and the head of its body (schema, header length).
_LENGTH = struct.Struct(">I")
_HEAD = struct.Struct(">BI")


def _result(tag: str) -> NetworkResult:
    """A small cacheable result; one-character tags give equal-size entries."""
    layer = LayerResult(
        name="l0",
        macs=1000 + int(tag, 36),
        input_bits=8,
        weight_bits=8,
        compute_cycles=10,
        memory_cycles=20,
    )
    return NetworkResult(
        network_name="net", platform="test", batch_size=1, frequency_mhz=500.0, layers=(layer,)
    )


def _entry(tag: str) -> tuple[str, dict, bytes]:
    """``(kind, header fields, payload)`` of a small record of a foreign kind."""
    return "tiling", {"tag": tag}, tag.encode("utf-8")


def _append(
    store: SegmentedStore, items: list[tuple[str, tuple[str, dict, bytes]]]
) -> dict[str, int] | None:
    """Append ``(key, (kind, header fields, payload))`` records in one segment write."""
    return store.append_encoded(
        [
            (key, kind, encode_body(key, kind, header, payload))
            for key, (kind, header, payload) in items
        ]
    )


def _record(key: str, entry: tuple[str, dict, bytes]) -> bytes:
    """One length-prefixed record, as a segment holds it."""
    body = encode_body(key, *entry)
    return _LENGTH.pack(len(body)) + body


def _record_spans(data: bytes) -> list[tuple[int, int]]:
    """``(body offset, body length)`` of every whole record in raw segment bytes."""
    spans: list[tuple[int, int]] = []
    position = 0
    while position + _LENGTH.size <= len(data):
        (length,) = _LENGTH.unpack_from(data, position)
        start = position + _LENGTH.size
        if start + length > len(data):
            break
        spans.append((start, length))
        position = start + length
    return spans


def _scanned(directory: Path, blob: bytes) -> SegmentedStore:
    """A store over one segment of raw bytes and no sidecar, so opening scans it."""
    (directory / "pack-0-scan.seg").write_bytes(blob)
    return SegmentedStore(directory)


def _live(store: SegmentedStore) -> int:
    """Number of keys the store's index holds."""
    return sum(1 for _ in store.index_entries())


def _tag(store: SegmentedStore, key: str) -> str:
    """The ``tag`` an :func:`_entry` record read back carries in header and payload."""
    header, payload = store.get_record(key)
    assert payload == header["tag"].encode("utf-8")
    return header["tag"]


def _sha256s(directory: Path) -> dict[str, str]:
    """Name -> sha256 of every file in ``directory``."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in directory.iterdir()
    }


def _sidecar_entries(directory: Path) -> dict[str, list]:
    """Key -> (body offset, body length, kind) from a one-segment directory's sidecar."""
    (segment,) = directory.glob("pack-*.seg")
    return json.loads(segment.with_name(segment.name + ".idx").read_text(encoding="utf-8"))[
        "entries"
    ]


class TestSegmentScan:
    """Opening a segment without a usable sidecar rebuilds its index by a scan."""

    def test_scan_indexes_every_record_at_its_body(self, tmp_path):
        blob = _record("k1", _entry("a")) + _record("k2", _entry("b"))
        store = _scanned(tmp_path, blob)
        assert "k1" in store and "k2" in store and _live(store) == 2
        assert (_tag(store, "k1"), _tag(store, "k2")) == ("a", "b")
        # Index lengths address exactly the record bodies within the blob.
        assert sorted(length for _, length in store.index_entries()) == sorted(
            length for _, length in _record_spans(blob)
        )

    def test_torn_tail_is_dropped_not_fatal(self, tmp_path):
        blob = _record("whole", _entry("w")) + _record("torn", _entry("t"))
        store = _scanned(tmp_path, blob[:-7])  # writer killed mid-append
        assert "whole" in store and "torn" not in store

    def test_garbage_length_prefix_stops_the_scan(self, tmp_path):
        blob = _record("whole", _entry("w")) + struct.pack(">I", 2**31) + b"xx"
        store = _scanned(tmp_path, blob)
        assert "whole" in store and _live(store) == 1

    def test_half_a_length_prefix_yields_nothing_more(self, tmp_path):
        store = _scanned(tmp_path, _record("whole", _entry("w")) + b"\x00\x00")
        assert "whole" in store and _live(store) == 1
        assert not list(tmp_path.glob("*.idx"))  # opening writes no sidecar
        assert _live(_scanned(tmp_path, b"\x00")) == 0

    @pytest.mark.parametrize(
        "body",
        [
            b'{"key":"x","kind":"tiling","payload":{}}',
            bytes([STORE_SCHEMA_VERSION + 1]) + encode_body("x", *_entry("x"))[1:],
            bytes([STORE_SCHEMA_VERSION]),
            _HEAD.pack(STORE_SCHEMA_VERSION, 100) + b"{}",
            _HEAD.pack(STORE_SCHEMA_VERSION, 6) + b"[1, 2]",
            _HEAD.pack(STORE_SCHEMA_VERSION, 17) + b'{"kind":"tiling"}',
            _HEAD.pack(STORE_SCHEMA_VERSION, 11) + b'{"key":"x"}',
            _HEAD.pack(STORE_SCHEMA_VERSION, 4) + b"\xff\xfe{}",
            _HEAD.pack(STORE_SCHEMA_VERSION, 9) + b"{not json",
        ],
        ids=[
            "schema-1-json",
            "other-schema",
            "no-head",
            "header-past-the-body",
            "header-not-an-object",
            "no-key",
            "no-kind",
            "not-utf8",
            "not-json",
        ],
    )
    def test_unreadable_body_stops_the_scan(self, tmp_path, body):
        blob = (
            _record("whole", _entry("w"))
            + _LENGTH.pack(len(body))
            + body
            + _record("after", _entry("a"))
        )
        # Nothing past an unreadable record is trusted: its length prefix
        # may be garbage too.
        store = _scanned(tmp_path, blob)
        assert "whole" in store and _live(store) == 1


class TestSegmentedStore:
    def test_append_and_reload_through_sidecar(self, tmp_path):
        writer = SegmentedStore(tmp_path)
        sizes = _append(writer, [("k1", _entry("a")), ("k2", _entry("b"))])
        assert sizes and set(sizes) == {"k1", "k2"}
        writer.flush()
        reader = SegmentedStore(tmp_path)
        assert "k1" in reader and "k2" in reader
        assert _tag(reader, "k1") == "a"
        assert [kind for kind, _ in reader.index_entries()] == ["tiling", "tiling"]

    def test_stale_sidecar_triggers_rescan(self, tmp_path):
        writer = SegmentedStore(tmp_path)
        _append(writer, [("k1", _entry("a"))])
        writer.flush()
        # Grow the segment after the sidecar flush: the sidecar's recorded
        # size no longer matches, so a reader must rescan, not trust it.
        _append(writer, [("k2", _entry("b"))])
        reader = SegmentedStore(tmp_path)
        assert "k1" in reader and "k2" in reader

    def test_missing_sidecar_triggers_rescan_and_repair(self, tmp_path):
        writer = SegmentedStore(tmp_path)
        _append(writer, [("k1", _entry("a"))])
        writer.flush()
        for sidecar in tmp_path.glob("*.idx"):
            sidecar.unlink()
        reader = SegmentedStore(tmp_path)
        assert reader.get_record("k1") is not None
        assert not list(tmp_path.glob("*.idx"))  # opening writes nothing
        reader.close()
        # Closing wrote the rescan's sidecar so the next open skips the scan.
        assert list(tmp_path.glob("*.idx"))

    def test_two_writers_merge_at_open(self, tmp_path):
        a = SegmentedStore(tmp_path)
        b = SegmentedStore(tmp_path)
        _append(a, [("ka", _entry("a"))])
        _append(b, [("kb", _entry("b"))])
        a.flush()
        b.flush()
        # Each writer owns its own segment; neither saw the other's key,
        # but a fresh reader merges both.
        assert "kb" not in a and "ka" not in b
        reader = SegmentedStore(tmp_path)
        assert "ka" in reader and "kb" in reader and _live(reader) == 2
        assert reader.segment_count == 2

    @pytest.mark.parametrize(
        "sidecar",
        [
            "garbage",
            '{"schema": 999, "segment_bytes": 0, "entries": {}}',
            '{"schema": 1, "segment_bytes": SIZE, "entries": {}}',
            '{"schema": SCHEMA, "segment_bytes": SIZE, "entries": {"k1": 7}}',
            '{"schema": SCHEMA, "segment_bytes": SIZE}',
        ],
        ids=["not-json", "unknown-schema", "schema-1", "malformed-entry", "no-entries"],
    )
    def test_unusable_sidecar_triggers_rescan_and_repair(self, tmp_path, sidecar):
        writer = SegmentedStore(tmp_path)
        _append(writer, [("k1", _entry("a")), ("k2", _entry("b"))])
        writer.close()
        (segment,) = tmp_path.glob("pack-*.seg")
        index = segment.with_name(segment.name + ".idx")
        text = sidecar.replace("SIZE", str(segment.stat().st_size))
        index.write_text(text.replace("SCHEMA", str(STORE_SCHEMA_VERSION)), encoding="utf-8")
        reader = SegmentedStore(tmp_path)
        assert "k1" in reader and "k2" in reader
        assert _tag(reader, "k2") == "b"
        reader.close()
        repaired = json.loads(index.read_text(encoding="utf-8"))
        assert repaired["segment_bytes"] == segment.stat().st_size
        assert set(repaired["entries"]) == {"k1", "k2"}

    def test_fresh_sidecar_is_trusted_without_a_scan(self, tmp_path, monkeypatch):
        writer = SegmentedStore(tmp_path)
        _append(writer, [("k1", _entry("a"))])
        writer.close()

        def no_scan(self, path, size):
            raise AssertionError(f"rescanned {path.name} despite a fresh sidecar")

        monkeypatch.setattr(SegmentedStore, "_scan_segment", no_scan)
        assert _tag(SegmentedStore(tmp_path), "k1") == "a"

    def test_torn_segment_tail_is_dropped_at_open(self, tmp_path):
        writer = SegmentedStore(tmp_path)
        _append(writer, [("whole", _entry("w")), ("torn", _entry("t"))])
        writer.close()
        (segment,) = tmp_path.glob("pack-*.seg")
        segment.write_bytes(segment.read_bytes()[:-5])  # writer killed mid-append
        reader = SegmentedStore(tmp_path)
        assert "whole" in reader and _live(reader) == 1
        assert _tag(reader, "whole") == "w"
        assert reader.get_record("torn") is None
        # A later writer appends to its own segment, so the torn tail never
        # corrupts a new record.
        _append(reader, [("torn", _entry("t"))])
        reader.close()
        assert _tag(SegmentedStore(tmp_path), "torn") == "t"

    def test_index_entries_report_record_body_lengths(self, tmp_path):
        items = [("k1", _entry("a")), ("key-two", ("other", {"payload": [1, 2, 3]}, b"rows"))]
        writer = SegmentedStore(tmp_path)
        _append(writer, items)
        writer.close()
        expected = sorted((entry[0], len(encode_body(key, *entry))) for key, entry in items)
        assert sorted(SegmentedStore(tmp_path).index_entries()) == expected

    def test_empty_append_creates_no_segment(self, tmp_path):
        store = SegmentedStore(tmp_path)
        assert store.append_encoded([]) == {}
        store.close()
        assert list(tmp_path.iterdir()) == []

    def test_a_store_that_only_reads_writes_nothing(self, tmp_path):
        writer = SegmentedStore(tmp_path)
        _append(writer, [("k1", _entry("a"))])
        writer.close()
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        reader = SegmentedStore(tmp_path)
        assert reader.get_record("k1") is not None
        reader.flush()
        reader.close()
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_close_writes_the_sidecar_the_next_open_trusts(self, tmp_path):
        writer = SegmentedStore(tmp_path)
        _append(writer, [("k1", _entry("a"))])
        assert not list(tmp_path.glob("*.idx"))  # the sidecar waits for flush/close
        writer.close()
        (segment,) = tmp_path.glob("pack-*.seg")
        sidecar = json.loads(segment.with_name(segment.name + ".idx").read_text(encoding="utf-8"))
        assert sidecar["segment_bytes"] == segment.stat().st_size
        assert set(sidecar["entries"]) == {"k1"}

    def test_unwritable_segment_append_returns_none(self, tmp_path):
        store = SegmentedStore(tmp_path)
        # A directory squatting on the writer's segment name makes the open
        # fail whatever the process's privileges.
        (tmp_path / store._own_name).mkdir()
        assert _append(store, [("k1", _entry("a"))]) is None
        assert "k1" not in store
        store.close()
        assert not list(tmp_path.glob("*.idx"))


class TestPackCache:
    def test_entries_live_in_pack_segments(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("alpha", _result("a"))
        cache.flush()
        assert not list(tmp_path.glob("*.json"))  # no per-entry files
        assert list(tmp_path.glob("pack-*.seg"))

    def test_cache_info_writes_nothing_and_a_run_repairs(self, tmp_path, capsys):
        writer = ResultCache(tmp_path)
        writer.put("alpha", _result("a"))
        writer.close()
        (segment,) = tmp_path.glob("pack-*.seg")
        index = segment.with_name(segment.name + ".idx")
        stale = {"schema": 1, "segment_bytes": segment.stat().st_size, "entries": {}}
        index.write_text(json.dumps(stale), encoding="utf-8")
        before = _sha256s(tmp_path)
        assert main(["--cache-info", "--cache-dir", str(tmp_path)]) == 0
        assert "network_result: 1 entries" in capsys.readouterr().out
        assert _sha256s(tmp_path) == before
        # A run on the directory repairs the stale sidecar when it flushes.
        with EvaluationSession(cache_dir=tmp_path) as session:
            session.run_many([Workload.bitfusion("LeNet-5", batch_size=4)])
        repaired = json.loads(index.read_text(encoding="utf-8"))
        assert repaired["schema"] == STORE_SCHEMA_VERSION
        assert set(repaired["entries"]) == {"alpha"}

    def test_cache_info_reports_the_format_line(self, tmp_path):
        pack = ResultCache(tmp_path)
        pack.put("alpha", _result("a"))
        pack.flush()
        info = format_cache_info(str(tmp_path))
        assert "format: segmented pack (1 segment)" in info

    def test_format_line_counts_one_segment_per_writer(self, tmp_path):
        for tag in ("a", "b"):
            writer = ResultCache(tmp_path)
            writer.put(f"key-{tag}", _result(tag))
            writer.close()
        assert ResultCache(tmp_path).describe_layout() == "segmented pack (2 segments)"

    def test_memory_only_cache_has_no_disk_format(self):
        cache = ResultCache()
        cache.put("alpha", _result("a"))
        assert cache.describe_layout() == "memory-only (no cache directory)"
        assert cache.get("alpha") == _result("a")
        assert cache.entry_summary() == {}

    def test_contains_sees_memory_and_disk_entries(self, tmp_path):
        writer = ResultCache(tmp_path)
        writer.put("on-disk", _result("d"))
        writer.close()
        reader = ResultCache(tmp_path)
        reader.put("in-memory", _result("m"))
        for key in ("in-memory", "on-disk"):
            assert key in reader
        assert "ghost" not in reader
        # The artifact memo is not a result tier: its keys stay invisible.
        reader.memo["memo-only"] = _result("x").layers[0]
        assert "memo-only" not in reader
        assert reader.get("memo-only") is None

    def test_only_network_results_are_accepted(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(TypeError, match="LayerResult"):
            cache.put("layer", _result("a").layers[0])
        cache.close()
        assert ResultCache(tmp_path).entry_summary() == {}

    def test_put_without_flush_is_visible_to_a_fresh_reader(self, tmp_path):
        # A put is on disk before any flush (the segment append is
        # immediate; only the index sidecar waits for the flush).
        writer = ResultCache(tmp_path)
        writer.put("alpha", _result("a"))
        reader = ResultCache(tmp_path)
        assert reader.get("alpha") == _result("a")

    def test_puts_of_one_writer_land_in_one_segment(self, tmp_path):
        cache = ResultCache(tmp_path)
        for index in range(8):
            cache.put(f"key{index}", _result(str(index)))
        cache.flush()
        store = SegmentedStore(tmp_path)
        assert store.segment_count == 1
        assert _live(store) == 8

    def test_a_key_written_twice_resolves_to_one_record(self, tmp_path):
        writer = ResultCache(tmp_path)
        writer.put("alpha", _result("1"))
        writer.put("alpha", _result("2"))
        writer.close()
        reader = ResultCache(tmp_path)
        assert reader.get("alpha") == _result("2")
        assert reader.entry_summary()["network_result"]["entries"] == 1

    def test_segment_deleted_under_an_open_reader_is_a_miss(self, tmp_path):
        writer = ResultCache(tmp_path)
        writer.put("alpha", _result("a"))
        writer.close()
        reader = ResultCache(tmp_path)
        assert "alpha" in reader
        assert delete_segments(tmp_path)
        assert reader.get("alpha") is None
        assert "alpha" not in reader

    def test_get_with_source_reports_disk_then_memory(self, tmp_path):
        writer = ResultCache(tmp_path)
        writer.put("alpha", _result("a"))
        writer.close()
        reader = ResultCache(tmp_path)
        assert reader.get_with_source("alpha") == (_result("a"), "disk")
        assert reader.get_with_source("alpha") == (_result("a"), "memory")
        assert reader.get_with_source("ghost") == (None, "miss")

    def test_garbage_record_body_is_a_miss_and_leaves_the_index(self, tmp_path):
        writer = ResultCache(tmp_path)
        writer.put("alpha", _result("a"))
        writer.put("beta", _result("b"))
        writer.close()
        (segment,) = tmp_path.glob("pack-*.seg")
        data = segment.read_bytes()
        offset, length, _ = _sidecar_entries(tmp_path)["alpha"]
        # Same size, so the sidecar stays fresh and still points at it.
        segment.write_bytes(data[:offset] + b"\xff" * length + data[offset + length :])
        reader = ResultCache(tmp_path)
        assert reader.get("alpha") is None
        assert "alpha" not in reader
        assert reader.get("beta") == _result("b")

    def test_result_record_with_an_unreadable_payload_is_a_miss(self, tmp_path):
        header, rows = encode_result(_result("a"))
        store = SegmentedStore(tmp_path)
        _append(
            store,
            [
                ("empty", ("network_result", {}, b"")),
                ("no-names", ("network_result", dict(header, layers=3), rows)),
                ("short", ("network_result", header, rows[:-1])),
                ("extra-row", ("network_result", header, rows + rows)),
            ],
        )
        store.close()
        cache = ResultCache(tmp_path)
        for key in ("empty", "no-names", "short", "extra-row"):
            assert cache.get(key) is None, key

    def test_unwritable_segment_keeps_the_put_memory_only(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / cache._store._own_name).mkdir()
        cache.put("alpha", _result("a"))
        assert cache.get("alpha") == _result("a")
        cache.close()
        assert ResultCache(tmp_path).entry_summary() == {}

    def test_entry_summary_adds_up_record_body_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        for tag in ("a", "b", "c"):
            cache.put(f"key-{tag}", _result(tag))
        cache.close()
        (segment,) = tmp_path.glob("pack-*.seg")
        lengths = [length for _, length in _record_spans(segment.read_bytes())]
        summary = ResultCache(tmp_path).entry_summary()
        assert summary == {"network_result": {"entries": 3, "bytes": sum(lengths)}}

    def test_corrupt_record_kind_is_a_miss_not_a_crash(self, tmp_path):
        store = SegmentedStore(tmp_path)
        _append(store, [("weird", ("no_such_kind", {}, b""))])
        store.flush()
        cache = ResultCache(tmp_path)
        assert cache.get("weird") is None


def _zoo_result(network: str, platform: str, batch: int) -> NetworkResult:
    workloads = {
        "bitfusion": Workload.bitfusion,
        "eyeriss": Workload.eyeriss,
        "stripes": Workload.stripes,
        "temporal": Workload.temporal,
        "tegra-x2-fp32": lambda name, batch_size: Workload.gpu(
            name, TEGRA_X2, "fp32", batch_size=batch_size
        ),
        "titan-xp-int8": lambda name, batch_size: Workload.gpu(
            name, TITAN_XP, "int8", batch_size=batch_size
        ),
    }
    return execute_workload(workloads[platform](network, batch_size=batch))


def _typed_fields(value, path="result"):
    """``(path, type, value)`` of every leaf field of a (nested) result."""
    if is_dataclass(value):
        for item in fields(value):
            yield from _typed_fields(getattr(value, item.name), f"{path}.{item.name}")
    elif isinstance(value, tuple):
        for index, item in enumerate(value):
            yield from _typed_fields(item, f"{path}[{index}]")
    else:
        yield path, type(value), value


#: Columns of a layer row that the constructors reject when negative.
_VALIDATED_COUNTS = {
    "macs": 0,
    "compute_cycles": 3,
    "memory_cycles": 4,
    "overhead_cycles": 5,
    "dram_read_bits": 6,
    "dram_write_bits": 7,
    "ibuf_read_bits": 8,
    "wbuf_read_bits": 9,
    "obuf_read_bits": 10,
    "obuf_write_bits": 11,
    "register_file_bits": 12,
}


class TestResultRecord:
    @pytest.mark.parametrize("batch", [1, 16])
    @pytest.mark.parametrize(
        "platform",
        ["bitfusion", "eyeriss", "stripes", "temporal", "tegra-x2-fp32", "titan-xp-int8"],
    )
    @pytest.mark.parametrize("network", models.benchmark_names())
    def test_zoo_result_round_trips_with_every_type(self, network, platform, batch):
        result = _zoo_result(network, platform, batch)
        decoded = decode_result(*encode_result(result))
        assert decoded == result
        # Counts stay ints and energies floats: int64/float64 rows are exact.
        assert list(_typed_fields(decoded)) == list(_typed_fields(result))

    def test_every_layer_field_has_a_column(self):
        # A field added to LayerResult, MemoryTraffic or EnergyBreakdown but
        # not to the row would drop out of every stored result.
        layer = _result("a").layers[0]
        leaves = [path for path, _, _ in _typed_fields(layer, "layer")]
        header, rows = encode_result(_result("a"))
        assert len(leaves) == 1 + len(rows) // 8  # the name rides in the header
        assert header["layers"] == ["l0"]

    def test_a_count_beyond_int64_raises_instead_of_truncating(self):
        layer = LayerResult(
            name="huge", macs=2**63, input_bits=8, weight_bits=8, compute_cycles=1, memory_cycles=1
        )
        huge = NetworkResult("net", "test", 1, 500.0, (layer,))
        with pytest.raises(struct.error):
            encode_result(huge)

    @pytest.mark.parametrize("column", sorted(_VALIDATED_COUNTS))
    def test_a_count_flipped_negative_reads_as_a_miss(self, tmp_path, column):
        writer = ResultCache(tmp_path)
        writer.put("alpha", _result("a"))
        writer.put("beta", _result("b"))
        writer.close()
        (segment,) = tmp_path.glob("pack-*.seg")
        data = bytearray(segment.read_bytes())
        offset, _, _ = _sidecar_entries(tmp_path)["alpha"]
        _, header_length = _HEAD.unpack_from(data, offset)
        # The top byte of the little-endian int64 holds the sign bit.
        sign_byte = offset + _HEAD.size + header_length + 8 * _VALIDATED_COUNTS[column] + 7
        data[sign_byte] |= 0x80
        segment.write_bytes(bytes(data))  # same size: the sidecar stays fresh
        rows = bytes(data[offset + _HEAD.size + header_length :][: 8 * 18])
        assert struct.unpack_from("<q", rows, 8 * _VALIDATED_COUNTS[column])[0] < 0
        reader = ResultCache(tmp_path)
        assert reader.get("alpha") is None
        assert reader.get("beta") == _result("b")


def _write_records(directory: Path, schema: int, records: list[tuple[str, str, dict]]) -> None:
    """Write ``(key, kind, fields)`` records as a store of ``schema`` did.

    Schema 1 wrote each record as one keyed JSON object (``fields`` plus
    its key and kind) and a schema-1 sidecar; this release's schema puts
    ``fields`` in the JSON header of a record with no payload.
    """
    if schema == STORE_SCHEMA_VERSION:
        store = SegmentedStore(directory)
        _append(store, [(key, (kind, fields, b"")) for key, kind, fields in records])
        store.close()
        return
    assert schema == 1
    blob = bytearray()
    entries = {}
    for key, kind, fields in records:
        body = json.dumps({"key": key, "kind": kind, **fields}, sort_keys=True).encode("utf-8")
        blob += _LENGTH.pack(len(body))
        entries[key] = [len(blob), len(body), kind]
        blob += body
    segment = directory / "pack-1-schema1.seg"
    segment.write_bytes(bytes(blob))
    sidecar = {"schema": 1, "segment_bytes": len(blob), "entries": entries}
    segment.with_name(segment.name + ".idx").write_text(json.dumps(sidecar), encoding="utf-8")


_SCHEMAS = pytest.mark.parametrize(
    "schema", [STORE_SCHEMA_VERSION, 1], ids=["this-schema", "schema-1"]
)


class TestOldDirectories:
    @_SCHEMAS
    def test_stray_json_and_block_keyed_records_are_ignored(self, tmp_path, schema):
        # A directory written by an older release: an older-schema
        # ``manifest.json``, a block-keyed ``layer_result`` record and a
        # stray per-entry ``<key>.json`` file.  It opens, ignores every
        # leftover (none is read or deleted) and still serves a warm run
        # entirely from its stored result.
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        program = compile_program(workload)
        with EvaluationSession(cache_dir=tmp_path) as cold:
            fresh = cold.run_many([workload])[0]
        old_fields = {"workload": {}, "payload": asdict(fresh.layers[0])}
        _write_records(tmp_path, schema, [("old-block-key", "layer_result", old_fields)])
        # The stray entry shadows a live layer key with a wrong payload: if
        # it were ever read, the warm result would differ.
        stray_payload = dict(old_fields["payload"], name="stray", compute_cycles=1)
        stray = tmp_path / f"{layer_cache_key(program[0], workload.config)}.json"
        stray.write_text(json.dumps({"kind": "layer", "payload": stray_payload}), encoding="utf-8")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"schema_version": 4, "entries": {}}), encoding="utf-8")
        leftover = manifest.read_bytes()

        with EvaluationSession(cache_dir=tmp_path) as warm:
            restored = warm.run_many([workload])[0]
        assert restored == fresh
        assert warm.stats.unique_executions == 0
        assert warm.stats.disk_hits == 1
        assert warm.stats.blocks.lookups == 0 and warm.stats.programs.lookups == 0
        assert stray.exists()
        assert manifest.read_bytes() == leftover
        summary = ResultCache(tmp_path).entry_summary()
        # A record of this schema is listed, never read; one of schema 1 is
        # not even listed.
        listed = summary.get("layer_result", {"entries": 0})["entries"]
        assert listed == (1 if schema == STORE_SCHEMA_VERSION else 0)
        assert summary["network_result"]["entries"] == 1

    @_SCHEMAS
    def test_schema_4_directory_serves_no_stale_entry(self, tmp_path, schema):
        # A directory the previous release wrote: a schema-4 manifest plus
        # program, tiling and layer records under the very keys this
        # release memoizes in process.  The layer payloads are stale on
        # purpose (one cycle off): if any record were served, the result
        # would differ from a fresh run.
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        fresh = execute_workload(workload)
        program = compile_program(workload)
        stale = dict(asdict(fresh.layers[0]), name="")
        stale["compute_cycles"] += 1
        records = [
            (layer_cache_key(block, workload.config), "layer", {"payload": stale})
            for block in program
        ]
        payload = program_payload(program)
        records.append((program_cache_key(workload), "program", {"payload": payload}))
        requests = tiling_requests(workload.config, load_network(workload), workload.batch_size)
        tiling_keys = {tiling_cache_key(gemm, orders, workload.config) for gemm, orders in requests}
        records.extend((key, "tiling", {"payload": {}}) for key in tiling_keys)
        _write_records(tmp_path, schema, records)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"schema_version": 4, "entries": {}}), encoding="utf-8")
        leftover = manifest.read_bytes()

        with EvaluationSession(cache_dir=tmp_path) as session:
            result = session.run_many([workload])[0]
        assert result == fresh
        stats = session.stats
        assert (stats.unique_executions, stats.disk_hits) == (1, 0)
        assert stats.programs.misses == 1
        assert stats.tilings.misses == len(tiling_keys)
        assert stats.blocks.misses == len({key for key, _, _ in records[: len(program)]})
        # The re-run reads the one record this release wrote.
        with EvaluationSession(cache_dir=tmp_path) as rerun:
            again = rerun.run_many([workload])[0]
        assert again == fresh
        assert (rerun.stats.disk_hits, rerun.stats.unique_executions) == (1, 0)
        # The old records and the old manifest are never read or rewritten.
        assert manifest.read_bytes() == leftover
        assert ResultCache(tmp_path).entry_summary()["network_result"]["entries"] == 1

    def test_stray_json_entry_is_invisible_to_the_cache(self, tmp_path):
        stray = tmp_path / "alpha.json"
        stray.write_text(
            json.dumps({"kind": "network_result", "payload": asdict(_result("a"))}),
            encoding="utf-8",
        )
        cache = ResultCache(tmp_path)
        assert "alpha" not in cache
        assert cache.get("alpha") is None
        assert cache.entry_summary() == {}
        cache.put("beta", _result("b"))
        cache.close()
        reader = ResultCache(tmp_path)
        assert "beta" in reader and "alpha" not in reader
        assert reader.entry_summary()["network_result"]["entries"] == 1
        assert set(reader.entry_summary()) == {"network_result"}
        assert stray.exists()

    @_SCHEMAS
    def test_result_record_of_an_older_release_decodes_or_misses(self, tmp_path, schema):
        # Older releases stored a write-only ``"workload"`` description
        # next to each result.  A record of this schema that carries one in
        # its header decodes to exactly the result a record without the
        # field does.  A schema-1 record (a keyed JSON payload) under the
        # very key is a miss, never decoded, and the miss refills the
        # directory with a record of this schema.
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        fresh = execute_workload(workload)
        key = workload.fingerprint()
        description = {"platform": "bitfusion", "network": "LeNet-5", "batch_size": 4}
        if schema == STORE_SCHEMA_VERSION:
            header, rows = encode_result(fresh)
            store = SegmentedStore(tmp_path)
            _append(store, [(key, ("network_result", dict(header, workload=description), rows))])
            store.close()
        else:
            old_fields = {"payload": asdict(fresh), "workload": description}
            _write_records(tmp_path, schema, [(key, "network_result", old_fields)])
        with EvaluationSession(cache_dir=tmp_path) as first:
            restored = first.run_many([workload])[0]
        assert restored == fresh
        expected = (1, 0) if schema == STORE_SCHEMA_VERSION else (0, 1)
        assert (first.stats.disk_hits, first.stats.unique_executions) == expected
        with EvaluationSession(cache_dir=tmp_path) as rerun:
            assert rerun.run_many([workload])[0] == fresh
        assert (rerun.stats.disk_hits, rerun.stats.unique_executions) == (1, 0)
        assert ResultCache(tmp_path).entry_summary()["network_result"]["entries"] == 1


_WRITER_SCRIPT = """
import sys
from repro.session import ResultCache
from repro.sim.results import LayerResult, NetworkResult

directory, prefix, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
cache = ResultCache(directory)
for index in range(count):
    layer = LayerResult(
        name="l0", macs=index, input_bits=8, weight_bits=8, compute_cycles=1, memory_cycles=1
    )
    cache.put(
        f"{prefix}-{index}",
        NetworkResult(
            network_name=prefix, platform="test", batch_size=1, frequency_mhz=500.0,
            layers=(layer,),
        ),
    )
cache.flush()
print("done")
"""


class TestConcurrentWriters:
    def test_two_processes_append_concurrently_without_torn_records(self, tmp_path):
        # Two writer processes append to a shared store
        # simultaneously; a fresh reader sees the exact union, every record
        # intact.
        count = 200
        env = {**os.environ, "PYTHONPATH": _SRC}
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER_SCRIPT, str(tmp_path), prefix, str(count)],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for prefix in ("alpha", "beta")
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert "done" in out
        reader = ResultCache(tmp_path)
        expected = {f"{p}-{i}" for p in ("alpha", "beta") for i in range(count)}
        assert all(key in reader for key in expected)
        assert reader.entry_summary()["network_result"]["entries"] == len(expected)
        # Every single record must decode intact — a torn interleaved write
        # would surface here as a None or a mismatched payload.
        values = {key: reader.get(key) for key in sorted(expected)}
        for key, value in values.items():
            assert value is not None, key
            prefix, index = key.rsplit("-", 1)
            assert value.network_name == prefix
            assert value.layers[0].macs == int(index)
        store = SegmentedStore(tmp_path)
        assert _live(store) == 2 * count
        assert store.segment_count == 2  # one segment per writer process
