"""Tests for the segmented pack-file artifact store and its cache wiring.

Covers the store format itself (record codec, torn-tail tolerance, index
sidecars, compaction), the :class:`~repro.session.cache.ResultCache`
integration (group commits, ``get_many``/``prefetch`` source accounting,
eviction durability, manifest rebuilds), directories written by older
releases, and the concurrent-writer model (per-process segments, readers
merge at open) — including a real multi-process stress test.
"""

from __future__ import annotations

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

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
from repro.session.cache import MANIFEST_SCHEMA_VERSION, network_result_to_dict
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
    return {"kind": "tiling", "workload": {"network": tag}, "payload": {"tag": tag}}


def _append(store: SegmentedStore, items: list[tuple[str, dict]]) -> dict[str, int] | None:
    """Group-commit raw entry dicts into a store."""
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


class TestSegmentedStore:
    def test_append_and_reload_through_sidecar(self, tmp_path):
        writer = SegmentedStore(tmp_path)
        sizes = _append(writer, [("k1", _entry("a")), ("k2", _entry("b"))])
        assert sizes and set(sizes) == {"k1", "k2"}
        writer.flush()
        reader = SegmentedStore(tmp_path)
        assert set(reader.keys()) == {"k1", "k2"}
        assert reader.get_record("k1")["payload"] == {"tag": "a"}
        assert reader.kind("k2") == "tiling"

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

    def test_compaction_rewrites_live_records_and_deletes_the_segment(self, tmp_path):
        writer = SegmentedStore(tmp_path)
        _append(writer, [(f"k{i}", _entry(str(i))) for i in range(4)])
        writer.flush()
        writer.close()
        evictor = SegmentedStore(tmp_path)
        for key in ("k0", "k1", "k2"):
            evictor.discard(key)
        assert evictor.compact() > 0  # dead >= live: the default threshold
        evictor.flush()
        assert evictor.get_record("k3")["payload"] == {"tag": "3"}
        reader = SegmentedStore(tmp_path)
        assert set(reader.keys()) == {"k3"}

    def test_compaction_skips_segments_grown_by_live_writers(self, tmp_path):
        writer = SegmentedStore(tmp_path)
        _append(writer, [("k0", _entry("0")), ("k1", _entry("1"))])
        writer.flush()
        evictor = SegmentedStore(tmp_path)
        evictor.discard("k0")
        # The original writer appends after the evictor scanned: its
        # segment grew, so even an aggressive compaction must leave it be.
        _append(writer, [("k2", _entry("2"))])
        assert evictor.compact(aggressive=True) == 0
        reader = SegmentedStore(tmp_path)
        assert set(reader.keys()) == {"k0", "k1", "k2"}


class TestPackCache:
    def test_entries_live_in_pack_segments(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("alpha", _result("a"))
        cache.flush()
        entry_files = {p.name for p in tmp_path.glob("*.json")}
        assert entry_files == {"manifest.json"}  # no per-entry files
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

    def test_contains_sees_memory_staged_and_disk_entries(self, tmp_path):
        writer = ResultCache(tmp_path)
        writer.put("staged", _result("s"))
        writer.put("on-disk", _result("d"))
        writer.close()
        reader = ResultCache(tmp_path)
        reader.put("in-memory", _result("m"))
        reader.prefetch(["staged"])
        for key in ("in-memory", "staged", "on-disk"):
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
        # immediate; only the advisory sidecar/manifest bookkeeping
        # batches).
        writer = ResultCache(tmp_path)
        writer.put("alpha", _result("a"))
        reader = ResultCache(tmp_path)
        assert reader.get("alpha") == _result("a")

    def test_batched_puts_land_as_one_group_commit(self, tmp_path):
        cache = ResultCache(tmp_path)
        with cache.batch():
            for index in range(8):
                cache.put(f"key{index}", _result(str(index)))
            # Queued but already visible through the owning cache...
            assert cache.get("key0") == _result("0")
        cache.flush()
        # ...and on disk in a single segment once the scope closes.
        store = SegmentedStore(tmp_path)
        assert store.segment_count == 1
        assert len(store) == 8

    def test_get_many_and_prefetch_report_disk_sources_exactly_once(self, tmp_path):
        writer = ResultCache(tmp_path)
        writer.put("k1", _result("1"))
        writer.put("k2", _result("2"))
        writer.flush()
        reader = ResultCache(tmp_path)
        reader.prefetch(["k1", "k2", "ghost"])
        # First access of a prefetched key still counts as a disk hit —
        # the same statistics as one get() per key.
        value, source = reader.get_with_source("k1")
        assert value == _result("1") and source == "disk"
        value, source = reader.get_with_source("k1")
        assert source == "memory"
        assert reader.get_with_source("ghost") == (None, "miss")
        assert reader.get_many(["k2", "ghost"]) == {"k2": _result("2")}

    def test_pack_eviction_is_durable_for_fresh_readers(self, tmp_path):
        writer = ResultCache(tmp_path)
        for index in range(3):
            writer.put(f"key{index}", _result(str(index)))
        writer.flush()
        writer.close()
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        total = sum(entry["bytes"] for entry in manifest["entries"].values())
        evictor = ResultCache(tmp_path, max_bytes=total)
        evictor.put("key3", _result("3"))  # over budget: key0 evicted
        # Without any flush from the evictor, a brand-new reader must not
        # resurrect the evicted record from the old segment.
        reader = ResultCache(tmp_path)
        assert reader.get("key0") is None
        assert reader.get("key3") == _result("3")

    def test_corrupt_record_kind_is_a_miss_not_a_crash(self, tmp_path):
        store = SegmentedStore(tmp_path)
        _append(store, [("weird", {"kind": "no_such_kind", "payload": {}})])
        store.flush()
        cache = ResultCache(tmp_path)
        assert cache.get("weird") is None


class TestManifestRebuildScaling:
    def test_rebuild_time_does_not_scale_with_payload_bytes(self, tmp_path):
        import time

        small_dir, big_dir = tmp_path / "small", tmp_path / "big"
        for directory, payload_digits in ((small_dir, 10), (big_dir, 8 << 20)):
            directory.mkdir()
            store = SegmentedStore(directory)
            _append(
                store,
                [
                    (f"entry{index}", {"kind": "tiling", "payload": "7" * payload_digits})
                    for index in range(8)
                ],
            )
            store.close()

        def rebuild_seconds(directory: Path) -> float:
            started = time.perf_counter()
            ResultCache(directory)
            return time.perf_counter() - started

        small = rebuild_seconds(small_dir)
        big = rebuild_seconds(big_dir)
        # ~64 MiB of payloads vs ~100 bytes: a payload-reading rebuild is
        # tens of times slower; one from the store index is within noise.
        # The 25x margin keeps the test robust on slow CI filesystems while
        # still failing hard if whole payloads are ever read again.
        assert big < small * 25 + 0.05

    def test_pack_rebuild_uses_the_store_index(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("alpha", _result("a"))
        cache.flush()
        cache.close()
        (tmp_path / "manifest.json").write_text("garbage", encoding="utf-8")
        rebuilt = ResultCache(tmp_path)
        assert rebuilt.entry_summary()["network_result"]["entries"] == 1
        assert rebuilt.get("alpha") == _result("a")

    def test_rebuild_recovers_every_kind_a_session_writes(self, tmp_path):
        workloads = [Workload.bitfusion("LeNet-5", batch_size=4), Workload.eyeriss("LeNet-5")]
        with EvaluationSession(cache_dir=tmp_path) as session:
            session.run_many(workloads)
        written = ResultCache(tmp_path).entry_summary()
        (tmp_path / "manifest.json").unlink()
        rebuilt = ResultCache(tmp_path).entry_summary()
        # One composed result per workload, Bit Fusion and baseline alike.
        assert rebuilt == {"network_result": {"entries": 2, "bytes": written["network_result"]["bytes"]}}
        for kind, bucket in written.items():
            assert rebuilt[kind]["entries"] == bucket["entries"]
            assert rebuilt[kind]["bytes"] == bucket["bytes"]


class TestEvictionOrderRegression:
    def test_running_total_preserves_lru_eviction_order(self, tmp_path):
        # The budget check keeps a running byte total instead of re-summing
        # the manifest per put; the observable eviction order (strictly
        # least-recently-used first, the just-written entry protected) must
        # be unchanged.
        writer = ResultCache(tmp_path)
        for index in range(4):
            writer.put(f"key{index}", _result(str(index)))
        writer.flush()
        writer.close()
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        entry_bytes = manifest["entries"]["key0"]["bytes"]

        cache = ResultCache(tmp_path, max_bytes=4 * entry_bytes)
        assert cache.get("key1") is not None  # touch: key1 hottest
        evicted: list[str] = []
        survivors = {f"key{i}" for i in range(4)}
        # Same key/tag widths as the seeds, so every entry is the same size
        # and each over-budget put evicts exactly one victim.
        for extra in range(4, 7):
            cache.put(f"key{extra}", _result(str(extra)))
            survivors.add(f"key{extra}")
            remaining = cache.disk_keys()
            evicted.extend(sorted(survivors - remaining))
            survivors = remaining
        # Exactly one eviction per over-budget put, in LRU order: untouched
        # key0/key2/key3 go first (write order), the touched key1 and every
        # newer entry survive.
        assert evicted == ["key0", "key2", "key3"]
        assert "key1" in survivors

    def test_overwrites_do_not_inflate_the_running_total(self, tmp_path):
        cache = ResultCache(tmp_path)
        for _ in range(5):
            cache.put("same", _result("s"))
        manifest_total = sum(
            int(entry.get("bytes", 0)) for entry in cache._manifest.values()
        )
        assert cache._live_bytes == manifest_total


class TestOldDirectories:
    def test_stray_json_and_block_keyed_records_are_ignored(self, tmp_path):
        # A directory written by an older release: an older-schema
        # manifest, a block-keyed ``layer_result`` record and a stray
        # per-entry ``<key>.json`` file.  It opens, ignores both leftovers
        # (neither read nor deleted) and still serves a warm run entirely
        # from its stored result.
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
        (tmp_path / "manifest.json").write_text(
            json.dumps({"schema_version": MANIFEST_SCHEMA_VERSION - 1, "entries": {}}),
            encoding="utf-8",
        )

        with EvaluationSession(cache_dir=tmp_path) as warm:
            restored = warm.run(workload)
        assert network_result_to_dict(restored) == network_result_to_dict(fresh)
        assert warm.stats.unique_executions == 0
        assert warm.stats.disk_hits == 1
        assert warm.stats.blocks.lookups == 0 and warm.stats.programs.lookups == 0
        assert stray.exists()
        summary = ResultCache(tmp_path).entry_summary()
        assert summary["layer_result"]["entries"] == 1  # ages out under the budget
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
        (tmp_path / "manifest.json").write_text(
            json.dumps({"schema_version": 4, "entries": {}}), encoding="utf-8"
        )

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
        # The old records are never read; they age out under a budget.
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["schema_version"] == MANIFEST_SCHEMA_VERSION == 5
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

    def test_old_block_keyed_records_age_out_first_under_a_budget(self, tmp_path):
        # Measure the footprint of one cold run, then replay it into a
        # directory that already holds an older release's block-keyed
        # record, with exactly that footprint as the budget: the old
        # record is never looked up, so it is the one evicted.
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        reference_dir, old_dir = tmp_path / "reference", tmp_path / "old"
        with EvaluationSession(cache_dir=reference_dir) as reference:
            fresh = reference.run(workload)
        reference_cache = ResultCache(reference_dir)
        budget = sum(bucket["bytes"] for bucket in reference_cache.entry_summary().values())
        store = SegmentedStore(old_dir)
        old_record = {
            "kind": "layer_result",
            "workload": {},
            "payload": layer_result_to_dict(fresh.layers[0]),
        }
        _append(store, [("old-block-key", old_record)])
        store.close()

        with EvaluationSession(cache_dir=old_dir, max_cache_bytes=budget) as cold:
            cold.run(workload)
        assert ResultCache(old_dir).disk_keys() == reference_cache.disk_keys()
        with EvaluationSession(cache_dir=old_dir) as warm:
            warm.run(workload)
        assert warm.stats.blocks.misses == 0
        assert warm.stats.programs.misses == 0


_WRITER_SCRIPT = """
import sys
from repro.session import ResultCache
from repro.sim.results import LayerResult, NetworkResult

directory, prefix, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
cache = ResultCache(directory)
with cache.batch():
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
        # Two writer processes group-commit into a shared store
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
        values = reader.get_many(sorted(expected))
        assert set(values) == expected
        for key, value in values.items():
            prefix, index = key.rsplit("-", 1)
            assert value.network_name == prefix
            assert value.layers[0].macs == int(index)
        store = SegmentedStore(tmp_path)
        assert len(store) == 2 * count
        assert store.segment_count == 2  # one segment per writer process
