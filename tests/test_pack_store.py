"""Tests for the segmented pack-file artifact store and its cache wiring.

Covers the store format itself (record codec, torn-tail tolerance, index
sidecars), the :class:`~repro.session.cache.ResultCache` integration (one
segment per writer, immediate appends, the ``--cache-info`` format line),
directories written by older releases, and the concurrent-writer model
(per-process segments, readers merge at open) — including a real
multi-process stress test.
"""

from __future__ import annotations

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from faults import delete_segments

from repro.harness.runner import format_cache_info
from repro.isa.compiler import FusionCompiler
from repro.session import (
    EvaluationSession,
    ResultCache,
    SegmentedStore,
    Workload,
    compile_program,
    execute_workload,
    layer_cache_key,
    load_network,
    program_cache_key,
    tiling_cache_key,
)
from repro.session.cache import network_result_to_dict
from repro.session.store import encode_body, encode_record, iter_records
from repro.sim.results import LayerResult, NetworkResult, layer_result_to_dict

_SRC = str(Path(__file__).resolve().parent.parent / "src")


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


def _entry(tag: str) -> dict:
    return {"kind": "tiling", "payload": {"tag": tag}}


def _append(store: SegmentedStore, items: list[tuple[str, dict]]) -> dict[str, int] | None:
    """Append raw entry dicts to a store in one segment write."""
    return store.append_encoded(
        [(key, entry["kind"], encode_body(key, entry)) for key, entry in items]
    )


class TestRecordCodec:
    def test_round_trip_through_raw_bytes(self):
        blob = encode_record("k1", _entry("a")) + encode_record("k2", _entry("b"))
        records = list(iter_records(blob))
        assert [r["key"] for _, _, r in records] == ["k1", "k2"]
        assert records[0][2]["payload"] == {"tag": "a"}
        # Offsets/lengths address exactly the JSON body within the blob.
        offset, length, record = records[1]
        assert json.loads(blob[offset : offset + length].decode("utf-8")) == record

    def test_torn_tail_is_dropped_not_fatal(self):
        blob = encode_record("whole", _entry("w")) + encode_record("torn", _entry("t"))
        truncated = blob[:-7]  # writer killed mid-append
        records = list(iter_records(truncated))
        assert [r["key"] for _, _, r in records] == ["whole"]

    def test_garbage_length_prefix_stops_the_scan(self):
        blob = encode_record("whole", _entry("w")) + struct.pack(">I", 2**31) + b"xx"
        assert [r["key"] for _, _, r in iter_records(blob)] == ["whole"]

    def test_half_a_length_prefix_yields_nothing_more(self):
        blob = encode_record("whole", _entry("w")) + b"\x00\x00"
        assert [r["key"] for _, _, r in iter_records(blob)] == ["whole"]
        assert list(iter_records(b"\x00")) == []

    @pytest.mark.parametrize(
        "body",
        [b"[1, 2]", b'{"kind": "tiling"}', b"\xff\xfe{}", b"{not json"],
        ids=["not-an-object", "no-key", "not-utf8", "not-json"],
    )
    def test_unreadable_body_stops_the_scan(self, body):
        blob = (
            encode_record("whole", _entry("w"))
            + struct.pack(">I", len(body))
            + body
            + encode_record("after", _entry("a"))
        )
        # Nothing past an unreadable record is trusted: its length prefix
        # may be garbage too.
        assert [r["key"] for _, _, r in iter_records(blob)] == ["whole"]


class TestSegmentedStore:
    def test_append_and_reload_through_sidecar(self, tmp_path):
        writer = SegmentedStore(tmp_path)
        sizes = _append(writer, [("k1", _entry("a")), ("k2", _entry("b"))])
        assert sizes and set(sizes) == {"k1", "k2"}
        writer.flush()
        reader = SegmentedStore(tmp_path)
        assert set(reader.keys()) == {"k1", "k2"}
        assert reader.get_record("k1")["payload"] == {"tag": "a"}
        assert [kind for kind, _ in reader.index_entries()] == ["tiling", "tiling"]

    def test_stale_sidecar_triggers_rescan(self, tmp_path):
        writer = SegmentedStore(tmp_path)
        _append(writer, [("k1", _entry("a"))])
        writer.flush()
        # Grow the segment after the sidecar flush: the sidecar's recorded
        # size no longer matches, so a reader must rescan, not trust it.
        _append(writer, [("k2", _entry("b"))])
        reader = SegmentedStore(tmp_path)
        assert set(reader.keys()) == {"k1", "k2"}

    def test_missing_sidecar_triggers_rescan_and_repair(self, tmp_path):
        writer = SegmentedStore(tmp_path)
        _append(writer, [("k1", _entry("a"))])
        writer.flush()
        for sidecar in tmp_path.glob("*.idx"):
            sidecar.unlink()
        reader = SegmentedStore(tmp_path)
        assert reader.get_record("k1") is not None
        # The rescan rewrote the sidecar so the next open skips the scan.
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
        assert set(reader.keys()) == {"ka", "kb"}
        assert reader.segment_count == 2

    @pytest.mark.parametrize(
        "sidecar",
        [
            "garbage",
            '{"schema": 999, "segment_bytes": 0, "entries": {}}',
            '{"schema": 1, "segment_bytes": SIZE, "entries": {"k1": 7}}',
            '{"schema": 1, "segment_bytes": SIZE}',
        ],
        ids=["not-json", "unknown-schema", "malformed-entry", "no-entries"],
    )
    def test_unusable_sidecar_triggers_rescan_and_repair(self, tmp_path, sidecar):
        writer = SegmentedStore(tmp_path)
        _append(writer, [("k1", _entry("a")), ("k2", _entry("b"))])
        writer.close()
        (segment,) = tmp_path.glob("pack-*.seg")
        index = segment.with_name(segment.name + ".idx")
        index.write_text(sidecar.replace("SIZE", str(segment.stat().st_size)), encoding="utf-8")
        reader = SegmentedStore(tmp_path)
        assert set(reader.keys()) == {"k1", "k2"}
        assert reader.get_record("k2")["payload"] == {"tag": "b"}
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
        assert SegmentedStore(tmp_path).get_record("k1")["payload"] == {"tag": "a"}

    def test_torn_segment_tail_is_dropped_at_open(self, tmp_path):
        writer = SegmentedStore(tmp_path)
        _append(writer, [("whole", _entry("w")), ("torn", _entry("t"))])
        writer.close()
        (segment,) = tmp_path.glob("pack-*.seg")
        segment.write_bytes(segment.read_bytes()[:-5])  # writer killed mid-append
        reader = SegmentedStore(tmp_path)
        assert set(reader.keys()) == {"whole"}
        assert reader.get_record("whole")["payload"] == {"tag": "w"}
        assert reader.get_record("torn") is None
        # A later writer appends to its own segment, so the torn tail never
        # corrupts a new record.
        _append(reader, [("torn", _entry("t"))])
        reader.close()
        assert SegmentedStore(tmp_path).get_record("torn")["payload"] == {"tag": "t"}

    def test_record_without_a_kind_is_indexed_as_unknown(self, tmp_path):
        (tmp_path / "pack-0-old.seg").write_bytes(encode_record("k1", {"payload": {}}))
        store = SegmentedStore(tmp_path)
        assert list(store.index_entries()) == [("unknown", len(encode_body("k1", {"payload": {}})))]

    def test_index_entries_report_record_body_lengths(self, tmp_path):
        items = [("k1", _entry("a")), ("key-two", {"kind": "other", "payload": [1, 2, 3]})]
        writer = SegmentedStore(tmp_path)
        _append(writer, items)
        writer.close()
        expected = sorted((entry["kind"], len(encode_body(key, entry))) for key, entry in items)
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
        assert cache.disk_keys() == set()
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
        assert ResultCache(tmp_path).disk_keys() == set()

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
        assert len(store) == 8

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
        offset, length, _ = next(iter_records(data))
        # Same size, so the sidecar stays fresh and still points at it.
        segment.write_bytes(data[:offset] + b"\xff" * length + data[offset + length :])
        reader = ResultCache(tmp_path)
        assert reader.get("alpha") is None
        assert "alpha" not in reader
        assert reader.get("beta") == _result("b")

    def test_result_record_with_an_unreadable_payload_is_a_miss(self, tmp_path):
        store = SegmentedStore(tmp_path)
        _append(
            store,
            [
                ("empty", {"kind": "network_result", "payload": {}}),
                ("listed", {"kind": "network_result", "payload": [1, 2]}),
            ],
        )
        store.close()
        cache = ResultCache(tmp_path)
        assert cache.get("empty") is None
        assert cache.get("listed") is None

    def test_unwritable_segment_keeps_the_put_memory_only(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / cache._store._own_name).mkdir()
        cache.put("alpha", _result("a"))
        assert cache.get("alpha") == _result("a")
        cache.close()
        assert ResultCache(tmp_path).disk_keys() == set()

    def test_entry_summary_adds_up_record_body_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        for tag in ("a", "b", "c"):
            cache.put(f"key-{tag}", _result(tag))
        cache.close()
        (segment,) = tmp_path.glob("pack-*.seg")
        lengths = [length for _, length, _ in iter_records(segment.read_bytes())]
        summary = ResultCache(tmp_path).entry_summary()
        assert summary == {"network_result": {"entries": 3, "bytes": sum(lengths)}}

    def test_corrupt_record_kind_is_a_miss_not_a_crash(self, tmp_path):
        store = SegmentedStore(tmp_path)
        _append(store, [("weird", {"kind": "no_such_kind", "payload": {}})])
        store.flush()
        cache = ResultCache(tmp_path)
        assert cache.get("weird") is None


class TestOldDirectories:
    def test_stray_json_and_block_keyed_records_are_ignored(self, tmp_path):
        # A directory written by an older release: an older-schema
        # ``manifest.json``, a block-keyed ``layer_result`` record and a
        # stray per-entry ``<key>.json`` file.  It opens, ignores every
        # leftover (none is read or deleted) and still serves a warm run
        # entirely from its stored result.
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        program = compile_program(workload)
        with EvaluationSession(cache_dir=tmp_path) as cold:
            fresh = cold.run(workload)
        old_record = {
            "kind": "layer_result",
            "workload": {},
            "payload": layer_result_to_dict(fresh.layers[0]),
        }
        store = SegmentedStore(tmp_path)
        _append(store, [("old-block-key", old_record)])
        store.close()
        # The stray entry shadows a live layer key with a wrong payload: if
        # it were ever read, the warm result would differ.
        stray_payload = dict(old_record["payload"], name="stray", compute_cycles=1)
        stray = tmp_path / f"{layer_cache_key(program[0], workload.config)}.json"
        stray.write_text(json.dumps({"kind": "layer", "payload": stray_payload}), encoding="utf-8")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"schema_version": 4, "entries": {}}), encoding="utf-8")
        leftover = manifest.read_bytes()

        with EvaluationSession(cache_dir=tmp_path) as warm:
            restored = warm.run(workload)
        assert network_result_to_dict(restored) == network_result_to_dict(fresh)
        assert warm.stats.unique_executions == 0
        assert warm.stats.disk_hits == 1
        assert warm.stats.blocks.lookups == 0 and warm.stats.programs.lookups == 0
        assert stray.exists()
        assert manifest.read_bytes() == leftover
        summary = ResultCache(tmp_path).entry_summary()
        assert summary["layer_result"]["entries"] == 1  # listed, never read
        assert "unknown" not in summary

    def test_schema_4_directory_serves_no_stale_entry(self, tmp_path):
        # A directory the previous release wrote: a schema-4 manifest plus
        # program, tiling and layer records under the very keys this
        # release memoizes in process.  The layer payloads are stale on
        # purpose (one cycle off): if any record were served, the result
        # would differ from a fresh run.
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        fresh = execute_workload(workload)
        program = compile_program(workload)
        stale = dict(layer_result_to_dict(fresh.layers[0]), name="")
        stale["compute_cycles"] += 1
        records = [
            (layer_cache_key(block, workload.config), {"kind": "layer", "payload": stale})
            for block in program
        ]
        records.append(
            (program_cache_key(workload), {"kind": "program", "payload": program.to_dict()})
        )
        requests = FusionCompiler(workload.config).tiling_requests(
            load_network(workload), batch_size=workload.batch_size
        )
        tiling_keys = {tiling_cache_key(gemm, orders, workload.config) for gemm, orders in requests}
        records.extend((key, {"kind": "tiling", "payload": {}}) for key in tiling_keys)
        store = SegmentedStore(tmp_path)
        _append(store, records)
        store.close()
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"schema_version": 4, "entries": {}}), encoding="utf-8")
        leftover = manifest.read_bytes()

        with EvaluationSession(cache_dir=tmp_path) as session:
            result = session.run(workload)
        assert network_result_to_dict(result) == network_result_to_dict(fresh)
        stats = session.stats
        assert (stats.unique_executions, stats.disk_hits) == (1, 0)
        assert stats.programs.misses == 1
        assert stats.tilings.misses == len(tiling_keys)
        assert stats.blocks.misses == len({key for key, _ in records[: len(program)]})
        # The re-run reads the one record this release wrote.
        with EvaluationSession(cache_dir=tmp_path) as rerun:
            again = rerun.run(workload)
        assert network_result_to_dict(again) == network_result_to_dict(fresh)
        assert (rerun.stats.disk_hits, rerun.stats.unique_executions) == (1, 0)
        # The old records and the old manifest are never read or rewritten.
        assert manifest.read_bytes() == leftover
        assert ResultCache(tmp_path).entry_summary()["network_result"]["entries"] == 1

    def test_stray_json_entry_is_invisible_to_the_cache(self, tmp_path):
        stray = tmp_path / "alpha.json"
        stray.write_text(
            json.dumps({"kind": "network_result", "payload": network_result_to_dict(_result("a"))}),
            encoding="utf-8",
        )
        cache = ResultCache(tmp_path)
        assert "alpha" not in cache
        assert cache.get("alpha") is None
        assert cache.disk_keys() == set()
        cache.put("beta", _result("b"))
        cache.close()
        reader = ResultCache(tmp_path)
        assert reader.disk_keys() == {"beta"}
        assert reader.entry_summary()["network_result"]["entries"] == 1
        assert set(reader.entry_summary()) == {"network_result"}
        assert stray.exists()

    def test_record_with_a_workload_description_decodes_identically(self, tmp_path):
        # Older releases stored a write-only ``"workload"`` description
        # next to each result's payload.  Such a record decodes to exactly
        # the result a record without the field does.
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        fresh = execute_workload(workload)
        key = workload.fingerprint()
        old_record = {
            "kind": "network_result",
            "payload": network_result_to_dict(fresh),
            "workload": {"platform": "bitfusion", "network": "LeNet-5", "batch_size": 4},
        }
        store = SegmentedStore(tmp_path)
        _append(store, [(key, old_record)])
        store.close()
        with EvaluationSession(cache_dir=tmp_path) as warm:
            restored = warm.run(workload)
        assert (warm.stats.disk_hits, warm.stats.unique_executions) == (1, 0)
        assert restored == fresh
        assert network_result_to_dict(restored) == network_result_to_dict(fresh)


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
        assert reader.disk_keys() == expected
        # Every single record must decode intact — a torn interleaved write
        # would surface here as a None or a mismatched payload.
        values = {key: reader.get(key) for key in sorted(expected)}
        for key, value in values.items():
            assert value is not None, key
            prefix, index = key.rsplit("-", 1)
            assert value.network_name == prefix
            assert value.layers[0].macs == int(index)
        store = SegmentedStore(tmp_path)
        assert len(store) == 2 * count
        assert store.segment_count == 2  # one segment per writer process
