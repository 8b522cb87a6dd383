"""Tests for the artifact cache: manifest, eviction, warm sweeps.

Covers the acceptance criteria of the staged-pipeline refactor:

* a batch-size sweep (Figure 16) over a warm cache performs zero
  recompilations and zero block simulations,
* a repeated report against a persistent cache directory reports a 100%
  program-cache hit rate in its footer (the CI smoke job greps for this),
* the on-disk store carries a versioned ``manifest.json`` and enforces an
  LRU size budget, and
* ``run_many`` schedules uncached workloads longest-job-first.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import replace

import pytest
from faults import tear_last_record

from repro.harness.experiments import fig16_batch
from repro.harness.runner import build_report, format_cache_info
from repro.isa.block import InstructionBlock
from repro.isa.instructions import LoopOrder
from repro.isa.program import CompiledBlock
from repro.isa.tiling import GemmWorkload, TilingPlan
from repro.session import (
    EvaluationSession,
    ResultCache,
    Workload,
    audit_workload_cache,
    compile_program,
    estimated_cost,
    layer_cache_key,
    tiling_cache_key,
)
from repro.session.cache import (
    MANIFEST_SCHEMA_VERSION,
    CacheStats,
)
from repro.session.workload import load_network


def _plan(tag: str) -> TilingPlan:
    """A small cacheable artifact; one-character tags give equal-size entries."""
    return TilingPlan(
        workload=GemmWorkload(m=16, n=16, r=16, input_bits=8, weight_bits=8, output_bits=8),
        loop_order=LoopOrder.OUTPUT_STATIONARY,
        tile_m=16,
        tile_n=16,
        tile_r=16,
        dram_weight_bits=1000 + int(tag, 36),
        dram_input_bits=0,
        dram_output_write_bits=0,
        dram_output_read_bits=0,
    )


def _renamed(compiled: CompiledBlock, prefix: str) -> CompiledBlock:
    """The same block content under new block and layer names."""
    return CompiledBlock(
        block=InstructionBlock(f"{prefix}/{compiled.name}", compiled.block.instructions),
        layer=replace(compiled.layer, name=f"{prefix}-layer"),
        tiling=compiled.tiling,
        loop_order=compiled.loop_order,
        fused_layers=tuple(
            replace(layer, name=f"{prefix}-{i}")
            for i, layer in enumerate(compiled.fused_layers)
        ),
    )


def _live_keys(cache_dir) -> set[str]:
    """Keys a fresh reader can resolve from disk (the store index)."""
    return ResultCache(cache_dir).disk_keys()


class TestManifest:
    def test_manifest_written_with_schema_version_and_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("alpha", _plan("a"))
        cache.put("beta", _plan("b"))
        cache.flush()  # manifest updates are batched; flush makes them visible
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["schema_version"] == MANIFEST_SCHEMA_VERSION
        assert set(manifest["entries"]) == {"alpha", "beta"}
        for entry in manifest["entries"].values():
            assert entry["kind"] == "tiling"
            assert entry["bytes"] > 0
            assert entry["seq"] > 0

    def test_missing_manifest_is_rebuilt_from_entry_files(self, tmp_path):
        first = ResultCache(tmp_path)
        first.put("alpha", _plan("a"))
        first.flush()
        (tmp_path / "manifest.json").unlink()
        second = ResultCache(tmp_path)
        assert second.get("alpha") == _plan("a")
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert set(manifest["entries"]) == {"alpha"}

    def test_stale_schema_version_triggers_rebuild(self, tmp_path):
        first = ResultCache(tmp_path)
        first.put("alpha", _plan("a"))
        first.flush()
        manifest_path = tmp_path / "manifest.json"
        payload = json.loads(manifest_path.read_text(encoding="utf-8"))
        payload["schema_version"] = MANIFEST_SCHEMA_VERSION + 1
        payload["entries"] = {"ghost": {"kind": "x", "bytes": 1, "seq": 1}}
        manifest_path.write_text(json.dumps(payload), encoding="utf-8")
        second = ResultCache(tmp_path)
        assert second.get("alpha") == _plan("a")
        rebuilt = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert rebuilt["schema_version"] == MANIFEST_SCHEMA_VERSION
        assert set(rebuilt["entries"]) == {"alpha"}

    def test_malformed_manifest_entry_values_trigger_rebuild(self, tmp_path):
        first = ResultCache(tmp_path)
        first.put("alpha", _plan("a"))
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(
            json.dumps({"schema_version": MANIFEST_SCHEMA_VERSION, "entries": {"abc": 5}}),
            encoding="utf-8",
        )
        second = ResultCache(tmp_path)  # must rebuild, not crash
        assert second.get("alpha") == _plan("a")
        rebuilt = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert set(rebuilt["entries"]) == {"alpha"}

    def test_invalid_max_bytes_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path, max_bytes=0)

    def test_read_only_cache_dir_still_serves_entries(self, tmp_path):
        writer = ResultCache(tmp_path)
        writer.put("alpha", _plan("a"))
        writer.flush()
        # Force the next open to attempt a manifest rebuild, then make the
        # directory read-only: reads must degrade gracefully, not crash.
        (tmp_path / "manifest.json").unlink()
        os.chmod(tmp_path, 0o555)
        try:
            reader = ResultCache(tmp_path)
            assert reader.get("alpha") == _plan("a")
            reader.flush()  # no pending write must escape as an error either
            # A miss that computes fresh data keeps it memory-only instead
            # of crashing on the unwritable entry file.
            reader.put("beta", _plan("b"))
            assert reader.get("beta") == _plan("b")
        finally:
            os.chmod(tmp_path, 0o755)

    def test_non_numeric_manifest_fields_trigger_rebuild(self, tmp_path):
        first = ResultCache(tmp_path)
        first.put("alpha", _plan("a"))
        first.flush()
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(
            json.dumps(
                {
                    "schema_version": MANIFEST_SCHEMA_VERSION,
                    "entries": {"alpha": {"kind": "x", "bytes": 1, "seq": "oops"}},
                }
            ),
            encoding="utf-8",
        )
        second = ResultCache(tmp_path)  # must rebuild, not crash
        assert second.get("alpha") == _plan("a")


class TestLruEviction:
    def test_size_budget_evicts_oldest_entries(self, tmp_path):
        # Probe one entry's stored size in a scratch directory (all the
        # _plan payloads here are the same size by construction).
        probe = ResultCache(tmp_path / "probe")
        probe.put("probe", _plan("p"))
        probe.flush()
        manifest = json.loads(
            (tmp_path / "probe" / "manifest.json").read_text(encoding="utf-8")
        )
        entry_bytes = manifest["entries"]["probe"]["bytes"]

        # Budget for roughly two entries; writing four must keep it bounded.
        cache_dir = tmp_path / "real"
        cache = ResultCache(cache_dir, max_bytes=int(entry_bytes * 2.5))
        for index in range(4):
            cache.put(f"key{index}", _plan(str(index)))
        cache.flush()
        keys = _live_keys(cache_dir)
        assert "key3" in keys  # the newest entry always survives
        assert "key0" not in keys  # the oldest went first
        manifest = json.loads((cache_dir / "manifest.json").read_text(encoding="utf-8"))
        assert set(manifest["entries"]) == keys
        total = sum(entry["bytes"] for entry in manifest["entries"].values())
        assert total <= int(entry_bytes * 2.5)

    def test_recently_read_entries_survive_eviction(self, tmp_path):
        writer = ResultCache(tmp_path)
        for index in range(3):
            writer.put(f"key{index}", _plan(str(index)))
        writer.flush()
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        total = sum(entry["bytes"] for entry in manifest["entries"].values())

        reader = ResultCache(tmp_path, max_bytes=total)
        assert reader.get("key0") is not None  # touch: key0 becomes most recent
        reader.put("key3", _plan("3"))  # over budget: evict LRU, now key1
        keys = _live_keys(tmp_path)
        assert "key0" in keys
        assert "key3" in keys
        assert "key1" not in keys

    def test_memory_hits_touch_recency_so_hot_entries_survive(self, tmp_path):
        # Entries promoted into memory are the hottest ones; a memory hit
        # must refresh their on-disk recency or --cache-max-mb evicts the
        # hottest entries first.
        writer = ResultCache(tmp_path)
        writer.put("key0", _plan("0"))
        writer.put("key1", _plan("1"))
        writer.flush()
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        total = sum(entry["bytes"] for entry in manifest["entries"].values())

        reader = ResultCache(tmp_path, max_bytes=total)
        assert reader.get("key0") is not None  # disk -> memory promotion
        assert reader.get("key1") is not None  # key1 now most recent...
        assert reader.get("key0") is not None  # ...until this memory hit
        reader.put("key2", _plan("2"))  # over budget: evict the LRU entry
        keys = _live_keys(tmp_path)
        assert "key0" in keys  # touched by the memory hit, survives
        assert "key2" in keys
        assert "key1" not in keys  # genuinely least recently used

    def test_eviction_drops_disk_entry_not_correctness(self, tmp_path):
        workload = Workload.bitfusion("LeNet-5", batch_size=2)
        with EvaluationSession(cache_dir=tmp_path, max_cache_bytes=1024) as tight:
            first = tight.run(workload)
            # Everything may have been evicted; a rerun must still be correct.
            tight.cache.clear_memory()
            second = tight.run(workload)
        assert first.total_cycles == second.total_cycles
        assert first.energy.total == second.energy.total


class TestWarmSweeps:
    def test_fig16_batch_sweep_over_warm_cache_recompiles_nothing(self, tmp_path):
        benchmarks = ("LeNet-5",)
        sizes = (1, 4, 16)
        with EvaluationSession(cache_dir=tmp_path) as warm_up:
            fig16_batch.run(batch_sizes=sizes, benchmarks=benchmarks, session=warm_up)
        assert warm_up.stats.programs.misses == len(sizes)

        with EvaluationSession(cache_dir=tmp_path) as warm:
            rows = fig16_batch.run(batch_sizes=sizes, benchmarks=benchmarks, session=warm)
        # Zero recompilations, zero block simulations: every artifact whose
        # cycle/energy inputs are unchanged came from the cache.
        assert warm.stats.programs.misses == 0
        assert warm.stats.blocks.misses == 0
        assert warm.stats.misses == 0
        assert warm.stats.unique_executions == 0
        assert warm.stats.programs.hits == len(sizes)
        assert rows and rows[0].speedup_by_batch[1] == 1.0

    def test_bandwidth_sweep_compiles_one_program_even_cold(self):
        session = EvaluationSession()
        session.sweep(["LeNet-5"], bandwidths=(64, 128, 256, 512))
        assert session.stats.programs.misses == 1
        assert session.stats.programs.hits == 3
        # Bandwidth changes every block's memory cycles, so blocks re-run.
        assert session.stats.blocks.hits == 0

    def test_second_report_over_cache_dir_reports_full_program_hits(self, tmp_path):
        keys = ["fig16", "isa"]
        benchmarks = ("LeNet-5",)
        build_report(keys=keys, benchmarks=benchmarks, cache_dir=str(tmp_path))
        report = build_report(keys=keys, benchmarks=benchmarks, cache_dir=str(tmp_path))
        match = re.search(
            r"program cache: (\d+) hits \((\d+) from disk\), (\d+) compiles "
            r"\(hit rate (\d+)%\)",
            report,
        )
        assert match is not None, report
        hits, disk_hits, compiles, rate = map(int, match.groups())
        assert hits > 0
        assert compiles == 0
        assert rate == 100
        assert "block cache:" in report and "0 block simulations" in report


class TestContentAddressedLayerLevel:
    def test_layer_cache_key_ignores_block_and_layer_names(self):
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        compiled = compile_program(workload)[0]
        renamed = _renamed(compiled, "other")
        # The block-level fingerprint sees the rename; the layer-level
        # content fingerprint (and hence the cache key) does not.
        assert renamed.fingerprint() != compiled.fingerprint()
        assert renamed.layer_fingerprint() == compiled.layer_fingerprint()
        assert layer_cache_key(renamed, workload.config) == layer_cache_key(
            compiled, workload.config
        )
        # But genuinely different content does change the layer key.
        other = compile_program(workload)[1]
        assert layer_cache_key(other, workload.config) != layer_cache_key(
            compiled, workload.config
        )

    def test_layer_records_serve_renamed_twins(self, tmp_path):
        # The cross-network dedupe case: a sibling network whose blocks
        # carry other names but identical content is served the records
        # another network stored — zero simulation, each record renamed to
        # the requesting block.
        from repro.session.engine import lookup_block

        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        with EvaluationSession(cache_dir=tmp_path) as first:
            fresh = first.run(workload)
        reader = ResultCache(tmp_path)
        for compiled, layer in zip(compile_program(workload), fresh.layers):
            twin = _renamed(compiled, "sibling")
            key = layer_cache_key(twin, workload.config)
            value, source = lookup_block(reader, key, twin.name)
            assert source in ("disk", "memory")  # in-network twins share a record
            assert value == replace(layer, name=twin.name)

    def test_audit_counts_blocks_whose_layer_record_is_missing(self, tmp_path):
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        program = compile_program(workload)
        assert audit_workload_cache(workload, ResultCache(tmp_path)).state == "cold"
        with EvaluationSession(cache_dir=tmp_path) as session:
            session.run(workload)
        audit = audit_workload_cache(workload, ResultCache(tmp_path))
        assert (audit.state, audit.missing_blocks) == ("cached", 0)
        torn = tear_last_record(tmp_path)["key"]
        audit = audit_workload_cache(workload, ResultCache(tmp_path))
        sharing = sum(1 for block in program if layer_cache_key(block, workload.config) == torn)
        assert (audit.state, audit.missing_blocks) == ("partial", sharing)
        assert audit.total_blocks == len(program)

    def test_entry_summary_reports_the_layer_kind(self, tmp_path):
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        program = compile_program(workload)
        layer_keys = {layer_cache_key(compiled, workload.config) for compiled in program}
        with EvaluationSession(cache_dir=tmp_path) as session:
            session.run(workload)
        summary = ResultCache(tmp_path).entry_summary()
        # One record per distinct layer and nothing else per block.
        assert set(summary) == {"layer", "program", "tiling"}
        assert summary["layer"]["entries"] == len(layer_keys)
        assert summary["program"]["entries"] == 1
        assert summary["layer"]["bytes"] > 0

    def test_layer_entries_are_stored_name_free(self, tmp_path):
        # The stored layer payload must not depend on which network (or
        # layer name) wrote it first, or the dedupe would leak names.
        # Checked against the raw stored record.
        from repro.session import SegmentedStore

        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        with EvaluationSession(cache_dir=tmp_path) as session:
            session.run(workload)
        key = layer_cache_key(compile_program(workload)[0], workload.config)
        record = SegmentedStore(tmp_path).get_record(key)
        assert record is not None
        assert record["kind"] == "layer"
        assert record["payload"]["name"] == ""

    def test_lookup_block_misses_until_the_layer_record_is_stored(self, tmp_path):
        from repro.session.engine import lookup_block, store_layer_record
        from repro.sim import BitFusionSimulator

        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        config = workload.config
        compiled = compile_program(workload)[0]
        key = layer_cache_key(compiled, config)
        writer = ResultCache(tmp_path)
        assert lookup_block(writer, key, compiled.name) == (None, "miss")
        layer = BitFusionSimulator(config).run_block(compiled)
        store_layer_record(writer, key, compiled.name, layer)
        assert lookup_block(writer, key, compiled.name) == (layer, "memory")
        writer.close()
        # A fresh reader is served from disk, renamed to whichever block asks.
        twin = _renamed(compiled, "twin")
        value, source = lookup_block(ResultCache(tmp_path), key, twin.name)
        assert source == "disk"
        assert value == replace(layer, name=twin.name)

    def test_prefetch_stages_every_layer_record_of_a_program(self, tmp_path):
        from repro.session.engine import lookup_block

        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        program = compile_program(workload)
        keys = [layer_cache_key(block, workload.config) for block in program]
        with EvaluationSession(cache_dir=tmp_path) as session:
            session.run(workload)
        reader = ResultCache(tmp_path)
        reader.prefetch(keys)
        staged_io = reader.io_seconds
        sources = [
            lookup_block(reader, key, block.name)[1] for block, key in zip(program, keys)
        ]
        # Every lookup was served from the staged records: no further reads.
        assert reader.io_seconds == staged_io
        distinct = set(keys)
        assert sources.count("disk") == len(distinct)
        assert sources.count("memory") == len(program) - len(distinct)

    def test_block_stage_counts_every_block_lookup(self, tmp_path):
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        program = compile_program(workload)
        distinct = {layer_cache_key(block, workload.config) for block in program}
        with EvaluationSession(cache_dir=tmp_path) as cold:
            cold.run(workload)
        assert cold.stats.blocks.misses == len(distinct)
        assert cold.stats.blocks.lookups == len(program)
        with EvaluationSession(cache_dir=tmp_path) as warm:
            warm.run(workload)
        assert (warm.stats.blocks.hits, warm.stats.blocks.misses) == (len(program), 0)
        assert not hasattr(warm.stats, "layers")
        assert "layer dedup" not in warm.stats.summary()


class TestLayerRecencyAndReuseStats:
    def test_repeat_block_hits_keep_the_layer_record_hot(self, tmp_path):
        # Every block lookup, memory hits included, touches the layer
        # record that serves it: the hottest shared layers must not look
        # LRU-coldest under --cache-max-mb and be evicted first.
        from repro.session.engine import lookup_block
        from repro.sim import BitFusionSimulator

        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        config = workload.config
        compiled_a, compiled_b = compile_program(workload)[:2]
        simulator = BitFusionSimulator(config)
        key_a = layer_cache_key(compiled_a, config)
        key_b = layer_cache_key(compiled_b, config)
        writer = ResultCache(tmp_path)
        writer.put(key_a, replace(simulator.run_block(compiled_a), name=""))
        writer.put(key_b, replace(simulator.run_block(compiled_b), name=""))
        writer.flush()
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        total = sum(entry["bytes"] for entry in manifest["entries"].values())

        reader = ResultCache(tmp_path, max_bytes=total)
        _, source = lookup_block(reader, key_a, compiled_a.name)
        assert source == "disk"
        assert reader.get(key_b) is not None  # key_b now most recent on disk
        _, source = lookup_block(reader, key_a, "twin")
        assert source == "memory"  # a renamed twin's hit touches key_a too
        reader.put("filler", _plan("f"))  # over budget: evict the LRU entry
        keys = _live_keys(tmp_path)
        assert key_a in keys  # the memory hit kept it hot
        assert key_b not in keys  # genuinely least recently used

    def test_cache_info_reports_layer_reuse_statistics(self, tmp_path):
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        with EvaluationSession(cache_dir=tmp_path) as session:
            session.run(workload)
        key = layer_cache_key(compile_program(workload)[0], workload.config)
        reader = ResultCache(tmp_path)
        for _ in range(3):  # one disk hit, two memory hits — all count
            assert reader.get(key) is not None
        reader.flush()

        summary = ResultCache(tmp_path).entry_summary()
        assert summary["layer"]["refs"] >= 3
        top = ResultCache(tmp_path).top_referenced("layer", limit=2)
        assert top and top[0]["key"] == key
        assert top[0]["refs"] >= 3
        info = format_cache_info(str(tmp_path))
        assert "reuse hits" in info
        assert "layer dedupe ratio" in info
        assert "most-referenced layers" in info
        assert key[:16] in info
        assert "first stored by" in info


class TestLongestJobFirst:
    def test_estimated_cost_scales_with_network_and_batch(self):
        small = Workload.bitfusion("LeNet-5", batch_size=1)
        bigger_batch = Workload.bitfusion("LeNet-5", batch_size=64)
        big_network = Workload.bitfusion("AlexNet", batch_size=1)
        assert estimated_cost(bigger_batch) == 64 * estimated_cost(small)
        assert estimated_cost(big_network) > estimated_cost(small)
        macs = load_network(small).total_macs()
        assert estimated_cost(small) == macs

    def test_run_many_result_order_is_input_order_despite_scheduling(self):
        workloads = [
            Workload.bitfusion("LeNet-5", batch_size=1),
            Workload.bitfusion("AlexNet", batch_size=4),
            Workload.bitfusion("LSTM", batch_size=2),
        ]
        results = EvaluationSession().run_many(workloads)
        for workload, result in zip(workloads, results):
            assert result.batch_size == workload.batch_size
        # Input order is preserved even though AlexNet (the longest job by
        # MAC count x batch) was scheduled first internally.
        assert [r.network_name for r in results] == [
            load_network(w).name for w in workloads
        ]


class TestTilingMemo:
    """Exact hit/miss accounting of the compiler's tiling-plan memo."""

    @staticmethod
    def _search_key_sequence(workload) -> list[str]:
        """The memo keys one compile of ``workload`` looks up, in order."""
        from repro.isa.compiler import FusionCompiler

        keys: list[str] = []

        def recorder(gemm, orders, compute):
            keys.append(tiling_cache_key(gemm, orders, workload.config))
            return compute()

        FusionCompiler(
            workload.config,
            enable_loop_ordering=workload.enable_loop_ordering,
            enable_layer_fusion=workload.enable_layer_fusion,
            plan_resolver=recorder,
        ).compile(load_network(workload), batch_size=workload.batch_size)
        return keys

    @classmethod
    def _unique_search_keys(cls, workload) -> tuple[int, int]:
        """(total searches, unique memo keys) one compile of ``workload`` makes."""
        keys = cls._search_key_sequence(workload)
        return len(keys), len(set(keys))

    def test_resnet_duplicate_shapes_hit_the_memo_exactly(self):
        # ResNet-18's repeated residual blocks: 21 blocks, 12 unique GEMM
        # shapes — the duplicates must be memo hits, never fresh searches.
        workload = Workload.bitfusion("ResNet-18", batch_size=16)
        searches, unique = self._unique_search_keys(workload)
        assert (searches, unique) == (21, 12)
        session = EvaluationSession()
        session.compile_stats(workload)
        assert session.stats.tilings.misses == unique
        assert session.stats.tilings.hits == searches - unique
        assert session.stats.tilings.lookups == searches

    def test_memoized_compile_is_byte_identical(self):
        workload = Workload.bitfusion("ResNet-18", batch_size=16)
        session = EvaluationSession()
        cache, stats = session.cache, session.stats
        from repro.session.engine import program_cache_key

        session.compile_stats(workload)
        memoized = cache.get(program_cache_key(workload))
        assert memoized.fingerprint() == compile_program(workload).fingerprint()

    def test_tiling_plans_shared_across_networks_and_sweep_points(self, tmp_path):
        # Bandwidth/technology-only variations share the program key and
        # never even reach the tiling memo; a buffer variation recompiles
        # but an identical-buffer workload of a *different batch* re-uses
        # nothing (the batch folds into the GEMM R dimension) while a
        # same-shape recompile across sessions hits the memo from disk.
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        with EvaluationSession(cache_dir=tmp_path) as cold:
            cold.run(workload)
            cold_searches = cold.stats.tilings.misses
            assert cold_searches > 0
            assert cold.stats.tilings.hits == 0

        with EvaluationSession(cache_dir=tmp_path) as warm:
            # Same structure, fresh process: the program cache serves the
            # compile outright, so the memo is not consulted at all...
            warm.run(workload)
            assert warm.stats.tilings.lookups == 0
            # ...but a config variation that changes the *sim* key and not
            # the buffers (bandwidth) recompiles nothing either.
            varied = Workload.bitfusion(
                "LeNet-5",
                batch_size=4,
                config=workload.config.with_bandwidth(256),
            )
            warm.run(varied)
            assert warm.stats.programs.misses == 0
            assert warm.stats.tilings.lookups == 0

        with EvaluationSession(cache_dir=tmp_path) as flags:
            # Disabling loop ordering searches a different order tuple:
            # every lookup must miss (no key collision with the optimized
            # plans), then serve later identical compiles.
            ablated = Workload.bitfusion(
                "LeNet-5", batch_size=4, enable_loop_ordering=False
            )
            flags.run(ablated)
            assert flags.stats.tilings.hits == 0
            assert flags.stats.tilings.misses > 0

    def test_warm_disk_memo_serves_recompiles_across_program_keys(self, tmp_path):
        # Toggling layer fusion changes the *program* key (so the second
        # workload genuinely recompiles) but not a GEMM search's inputs —
        # every compute-layer search of the recompile must be served from
        # the on-disk memo, and only the standalone pooling/activation
        # blocks the unfused program adds may search fresh.
        fused = Workload.bitfusion("LeNet-5", batch_size=4)
        unfused = Workload.bitfusion("LeNet-5", batch_size=4, enable_layer_fusion=False)
        fused_keys = self._search_key_sequence(fused)
        unfused_keys = self._search_key_sequence(unfused)
        assert set(unfused_keys) - set(fused_keys)  # unfused adds aux blocks

        # Replay the expected memo traffic exactly: keys already on disk
        # (from the fused compile) hit from disk once then from memory;
        # genuinely new keys miss once then hit from memory.
        expected_misses = expected_hits = expected_disk_hits = 0
        on_disk, in_memory = set(fused_keys), set()
        for key in unfused_keys:
            if key in in_memory:
                expected_hits += 1
            elif key in on_disk:
                expected_hits += 1
                expected_disk_hits += 1
                in_memory.add(key)
            else:
                expected_misses += 1
                on_disk.add(key)
                in_memory.add(key)

        with EvaluationSession(cache_dir=tmp_path) as first:
            first.run(fused)
        with EvaluationSession(cache_dir=tmp_path) as second:
            second.run(unfused)
            assert second.stats.programs.misses == 1
            assert second.stats.tilings.misses == expected_misses
            assert second.stats.tilings.hits == expected_hits
            assert second.stats.tilings.disk_hits == expected_disk_hits

    def test_tiling_entries_persist_with_their_own_kind(self, tmp_path):
        with EvaluationSession(cache_dir=tmp_path) as session:
            session.run(Workload.bitfusion("LeNet-5", batch_size=4))
        summary = ResultCache(tmp_path).entry_summary()
        assert "tiling" in summary
        assert summary["tiling"]["entries"] > 0
        assert summary["tiling"]["bytes"] > 0

    def test_plan_resolver_round_trip_is_lossless(self, tmp_path):
        # A plan served from disk must equal the freshly computed one —
        # that is what makes memoized compilation byte-identical.
        from repro.core.config import BitFusionConfig
        from repro.isa.instructions import LoopOrder
        from repro.isa.tiling import GemmWorkload, search_tiling
        from repro.session.engine import make_plan_resolver

        config = BitFusionConfig.eyeriss_matched(batch_size=16)
        gemm = GemmWorkload(m=64, n=128, r=1024, input_bits=8, weight_bits=4, output_bits=16)
        orders = tuple(LoopOrder)
        fresh = search_tiling(gemm, config, orders)

        cache, stats = ResultCache(tmp_path), CacheStats()
        resolver = make_plan_resolver(config, cache, stats)
        assert resolver(gemm, orders, lambda: fresh) == fresh
        assert stats.tilings.misses == 1

        reread_stats = CacheStats()
        reread = make_plan_resolver(config, ResultCache(tmp_path), reread_stats)
        served = reread(gemm, orders, lambda: pytest.fail("memo should have served"))
        assert served == fresh
        assert reread_stats.tilings.hits == 1
        assert reread_stats.tilings.disk_hits == 1
