"""Tests for the result cache and its memo: the store index, warm sweeps.

Covers the acceptance criteria of the one-record-per-workload design:

* a batch-size sweep (Figure 16) over a warm cache performs zero
  compilations and zero block simulations, reading one stored result per
  workload,
* a repeated report against a persistent cache directory reads every
  workload from disk with no fresh execution (the CI smoke job greps for
  this),
* programs, tiling plans and layer records are in-process memos that
  dedupe work within a run and never reach the disk,
* the on-disk directory holds only pack segments and their index
  sidecars, and still serves reads when it is read-only, and
* ``run_many`` returns results in input order, and Figures 15 and 16
  share their reference points with Figure 13's default workloads.
"""

from __future__ import annotations

import os
import re
from dataclasses import replace
from functools import partial

import pytest
from faults import tear_last_record
from compiling import block_payload, layer_cache_key, program_digest

from repro.core.config import BitFusionConfig
from repro.harness.experiments import fig13_eyeriss, fig15_bandwidth, fig16_batch
from repro.harness.runner import build_report, format_cache_info
from repro.isa.program import CompiledBlock
from repro.session import (
    EvaluationSession,
    ResultCache,
    SegmentedStore,
    Workload,
    compile_program,
    program_cache_key,
    tiling_cache_key,
)
from repro.session import engine
from repro.session.cache import CacheStats
from repro.session.workload import load_network
from repro.sim.results import LayerResult, NetworkResult


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


def _renamed(compiled: CompiledBlock, prefix: str) -> CompiledBlock:
    """The same block content under new block and layer names."""
    return replace(
        compiled,
        name=f"{prefix}/{compiled.name}",
        layer=replace(compiled.layer, name=f"{prefix}-layer"),
        fused_layers=tuple(
            replace(layer, name=f"{prefix}-{i}")
            for i, layer in enumerate(compiled.fused_layers)
        ),
    )


class TestCacheDirectory:
    def test_directory_holds_only_segments_and_sidecars(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("alpha", _result("a"))
        cache.put("beta", _result("b"))
        cache.close()
        names = sorted(path.name for path in tmp_path.iterdir())
        assert len(names) == 2, names
        assert names[0].startswith("pack-") and names[0].endswith(".seg")
        assert names[1] == names[0] + ".idx"
        summary = ResultCache(tmp_path).entry_summary()
        assert summary["network_result"]["entries"] == 2
        assert summary["network_result"]["bytes"] > 0

    def test_read_only_cache_dir_still_serves_entries(self, tmp_path):
        writer = ResultCache(tmp_path)
        writer.put("alpha", _result("a"))
        writer.flush()
        # Force the next open to rescan and attempt a sidecar repair, then
        # make the directory read-only: reads must degrade gracefully, not
        # crash.
        for sidecar in tmp_path.glob("*.idx"):
            sidecar.unlink()
        os.chmod(tmp_path, 0o555)
        try:
            reader = ResultCache(tmp_path)
            assert reader.get("alpha") == _result("a")
            reader.flush()  # no pending write must escape as an error either
            # A miss that computes fresh data keeps it memory-only instead
            # of crashing on the unwritable segment.
            reader.put("beta", _result("b"))
            assert reader.get("beta") == _result("b")
        finally:
            os.chmod(tmp_path, 0o755)


class TestWarmSweeps:
    def test_fig16_batch_sweep_over_warm_cache_recompiles_nothing(self, tmp_path):
        benchmarks = ("LeNet-5",)
        sizes = (1, 4, 16)
        with EvaluationSession(cache_dir=tmp_path) as warm_up:
            fig16_batch.run(batch_sizes=sizes, benchmarks=benchmarks, session=warm_up)
        assert warm_up.stats.programs.misses == len(sizes)

        with EvaluationSession(cache_dir=tmp_path) as warm:
            rows = fig16_batch.run(batch_sizes=sizes, benchmarks=benchmarks, session=warm)
        # Zero compilations, zero block simulations: each workload is one
        # stored result read from disk.
        assert warm.stats.programs.lookups == 0
        assert warm.stats.blocks.lookups == 0
        assert warm.stats.misses == 0
        assert warm.stats.unique_executions == 0
        assert warm.stats.hits == warm.stats.disk_hits == len(sizes)
        assert warm.cache.io_seconds > 0
        assert rows and rows[0].speedup_by_batch[1] == 1.0

    def test_fig16_batches_share_one_config_and_one_set_of_energy_models(self, monkeypatch):
        # The batch is a workload axis, not hardware: all five of Figure
        # 16's batch sizes price their blocks under one configuration and
        # one memoized set of energy models.
        from repro.sim.batched import energy_models

        grids = []
        simulate = engine.simulate_blocks_grid

        def spy(configs, blocks):
            grids.append(configs)
            return simulate(configs, blocks)

        monkeypatch.setattr(engine, "simulate_blocks_grid", spy)
        session = EvaluationSession()
        fig16_batch.run(benchmarks=("LeNet-5",), session=session)
        assert session.stats.programs.misses == len(fig16_batch.DEFAULT_BATCH_SIZES) == 5
        configs = [config for row in grids for config in row]
        assert set(configs) == {BitFusionConfig.eyeriss_matched()}
        assert len({id(energy_models(config)) for config in configs}) == 1

    def test_bandwidth_sweep_compiles_one_program_even_cold(self):
        session = EvaluationSession()
        fig15_bandwidth.run(
            bandwidths=(64, 128, 256, 512), benchmarks=("LeNet-5",), session=session
        )
        assert session.stats.programs.misses == 1
        assert session.stats.programs.hits == 3
        # Bandwidth changes every block's memory cycles, so blocks re-run.
        assert session.stats.blocks.hits == 0

    def test_fig15_and_fig16_reference_points_are_the_default_workloads(self):
        # Figure 15's 128 bits/cycle point and Figure 16's batch-16 point
        # must fingerprint exactly like Figure 13's Bit Fusion workload.
        benchmarks = ("LeNet-5",)
        session = EvaluationSession()
        fig13_eyeriss.run(benchmarks=benchmarks, session=session)
        for run_figure in (
            partial(fig15_bandwidth.run, bandwidths=(64, 128)),
            partial(fig16_batch.run, batch_sizes=(1, 16)),
        ):
            hits, misses = session.stats.hits, session.stats.misses
            run_figure(benchmarks=benchmarks, session=session)
            assert (session.stats.hits - hits, session.stats.misses - misses) == (1, 1)

    def test_second_report_over_cache_dir_reads_every_workload_from_disk(self, tmp_path):
        keys = ["fig16", "isa"]
        benchmarks = ("LeNet-5",)
        cold = build_report(keys=keys, benchmarks=benchmarks, cache_dir=str(tmp_path))
        report = build_report(keys=keys, benchmarks=benchmarks, cache_dir=str(tmp_path))
        match = re.search(
            r"(\d+) workload lookups: (\d+) cache hits \((\d+) from disk\), 0 misses, "
            r"0 in-batch duplicates deduped, 0 unique executions \(hit rate 100%\)",
            report,
        )
        assert match is not None, report
        lookups, hits, disk_hits = map(int, match.groups())
        assert lookups == hits == disk_hits > 0
        assert "0 block simulations" in report
        # The ISA statistics recompile their one program in process.
        assert "program cache: 0 hits, 1 compiles" in report

        def body(text: str) -> str:
            text = text.split("## Evaluation session statistics")[0]
            return re.sub(r"_\(generated in .*\)_", "", text)

        assert body(report) == body(cold)


class TestContentAddressedLayerLevel:
    def test_layer_cache_key_ignores_block_and_layer_names(self):
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        compiled = compile_program(workload)[0]
        renamed = _renamed(compiled, "other")
        # The block payload sees the rename; the layer-level content
        # fingerprint (and hence the cache key) does not.
        assert block_payload(renamed) != block_payload(compiled)
        assert renamed.layer_fingerprint() == compiled.layer_fingerprint()
        assert layer_cache_key(renamed, workload.config) == layer_cache_key(
            compiled, workload.config
        )
        # But genuinely different content does change the layer key.
        other = compile_program(workload)[1]
        assert layer_cache_key(other, workload.config) != layer_cache_key(
            compiled, workload.config
        )

    def test_layer_records_serve_renamed_twins(self):
        # The cross-network dedupe case: a sibling network whose blocks
        # carry other names but identical content is served the records
        # another network memoized — zero simulation, each record renamed
        # to the requesting block.
        from repro.session.engine import lookup_block

        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        with EvaluationSession() as first:
            fresh = first.run_many([workload])[0]
        for compiled, layer in zip(compile_program(workload), fresh.layers):
            twin = _renamed(compiled, "sibling")
            key = layer_cache_key(twin, workload.config)
            assert lookup_block(first.cache, key, twin.name) == replace(layer, name=twin.name)

    def test_workload_is_cached_exactly_when_its_result_record_is_readable(self, tmp_path):
        # What ``sweep --dry-run`` counts: a workload is cached when its
        # composed result can be read back, and cold otherwise.
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        key = workload.fingerprint()
        assert key not in ResultCache(tmp_path)
        with EvaluationSession(cache_dir=tmp_path) as session:
            session.run_many([workload])
        assert key in ResultCache(tmp_path)
        assert tear_last_record(tmp_path)["key"] == key
        assert key not in ResultCache(tmp_path)

    def test_entry_summary_reports_only_network_results(self, tmp_path):
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        with EvaluationSession(cache_dir=tmp_path) as session:
            session.run_many([workload])
        summary = ResultCache(tmp_path).entry_summary()
        # One record per workload and nothing per program, plan or block.
        assert set(summary) == {"network_result"}
        assert summary["network_result"]["entries"] == 1
        assert summary["network_result"]["bytes"] > 0

    def test_layer_records_never_reach_the_disk(self, tmp_path):
        # Layer records are memoized in process only; the stored result is
        # the composition, carrying the requesting network's block names.
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        with EvaluationSession(cache_dir=tmp_path) as session:
            fresh = session.run_many([workload])[0]
        program = compile_program(workload)
        store = SegmentedStore(tmp_path)
        for block in program:
            assert store.get_record(layer_cache_key(block, workload.config)) is None
        header, _ = store.get_record(workload.fingerprint())
        assert header["kind"] == "network_result"
        assert header["layers"] == [layer.name for layer in fresh.layers]

    def test_lookup_block_misses_until_the_layer_record_is_stored(self, tmp_path):
        from repro.session.engine import lookup_block
        from repro.sim.batched import simulate_blocks_grid

        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        config = workload.config
        compiled = compile_program(workload)[0]
        key = layer_cache_key(compiled, config)
        writer = ResultCache(tmp_path)
        assert lookup_block(writer, key, compiled.name) is None
        layer = simulate_blocks_grid([config], [compiled])[0][0]
        writer.memo[key] = layer
        assert lookup_block(writer, key, compiled.name) == layer
        # A record already under the asking block's name is served as is.
        assert lookup_block(writer, key, compiled.name) is layer
        # Served renamed to whichever block asks.
        twin = _renamed(compiled, "twin")
        assert lookup_block(writer, key, twin.name) == replace(layer, name=twin.name)
        writer.close()
        # The memo never reaches the disk: a fresh reader misses.
        assert lookup_block(ResultCache(tmp_path), key, compiled.name) is None
        assert ResultCache(tmp_path).entry_summary() == {}

    def test_block_stage_counts_every_block_lookup(self, tmp_path):
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        program = compile_program(workload)
        distinct = {layer_cache_key(block, workload.config) for block in program}
        with EvaluationSession(cache_dir=tmp_path) as cold:
            cold.run_many([workload])
            assert cold.stats.blocks.misses == len(distinct)
            assert cold.stats.blocks.lookups == len(program)
            # A frequency variant shares every layer key: its stored result
            # misses, so it executes once, reusing the program and planning
            # every block as a memo hit — no block simulates.
            cold.run_many([replace(workload, config=workload.config.with_frequency(250.0))])
            assert (cold.stats.blocks.hits, cold.stats.blocks.misses) == (
                2 * len(program) - len(distinct),
                len(distinct),
            )
            assert (cold.stats.hits, cold.stats.misses) == (0, 2)
            assert cold.stats.unique_executions == 2
            assert (cold.stats.programs.hits, cold.stats.programs.misses) == (1, 1)
        with EvaluationSession(cache_dir=tmp_path) as warm:
            warm.run_many([workload])
        assert warm.stats.blocks.lookups == 0
        assert not hasattr(warm.stats, "layers")
        assert "layer dedup" not in warm.stats.summary()


class TestCacheInfo:
    def test_cache_info_lists_only_network_results(self, tmp_path):
        workloads = [Workload.bitfusion("LeNet-5", batch_size=4), Workload.eyeriss("LeNet-5")]
        with EvaluationSession(cache_dir=tmp_path) as session:
            session.run_many(workloads)
        with EvaluationSession(cache_dir=tmp_path) as warm:
            warm.run_many(workloads)
        info = format_cache_info(str(tmp_path))
        lines = info.splitlines()
        assert lines[2].startswith("network_result: 2 entries, ")
        assert lines[3].startswith("total: 2 entries, ")
        assert len(lines) == 4
        assert "reuse" not in info and "dedupe" not in info and "referenced" not in info
        assert not (tmp_path / "manifest.json").exists()


class TestInputOrder:
    def test_run_many_result_order_is_input_order(self):
        workloads = [
            Workload.bitfusion("LeNet-5", batch_size=1),
            Workload.bitfusion("AlexNet", batch_size=4),
            Workload.bitfusion("LSTM", batch_size=2),
        ]
        results = EvaluationSession().run_many(workloads)
        for workload, result in zip(workloads, results):
            assert result.batch_size == workload.batch_size
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

        def recorder(requests, compute):
            keys.extend(
                tiling_cache_key(gemm, orders, workload.config) for gemm, orders in requests
            )
            return compute(requests)

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
        cache = session.cache
        session.compile_stats(workload)
        memoized = cache.memo[program_cache_key(workload)]
        assert program_digest(memoized) == program_digest(compile_program(workload))

    def test_tiling_plans_shared_across_networks_and_sweep_points(self, tmp_path):
        # Bandwidth/technology-only variations share the program key and
        # never even reach the tiling memo, and a rerun over a cache
        # directory reads the stored result without compiling at all.
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        with EvaluationSession(cache_dir=tmp_path) as cold:
            cold.run_many([workload])
            cold_searches = cold.stats.tilings.misses
            assert cold_searches > 0
            assert cold.stats.tilings.hits == 0
            # A config variation that changes the *sim* key and not the
            # buffers (bandwidth) reuses the memoized program: no search.
            varied = Workload.bitfusion(
                "LeNet-5",
                batch_size=4,
                config=workload.config.with_bandwidth(256),
            )
            cold.run_many([varied])
            assert (cold.stats.programs.misses, cold.stats.programs.hits) == (1, 1)
            assert cold.stats.tilings.lookups == cold_searches

        with EvaluationSession(cache_dir=tmp_path) as warm:
            # Same workloads, fresh process: the stored results serve them
            # outright, so neither memo is consulted at all.
            warm.run_many([workload, varied])
            assert warm.stats.disk_hits == 2
            assert warm.stats.programs.lookups == 0
            assert warm.stats.tilings.lookups == 0

        with EvaluationSession(cache_dir=tmp_path) as flags:
            # Disabling loop ordering searches a different order tuple:
            # every lookup must miss (no key collision with the optimized
            # plans), then serve later identical compiles.
            ablated = Workload.bitfusion(
                "LeNet-5", batch_size=4, enable_loop_ordering=False
            )
            flags.run_many([ablated])
            assert flags.stats.tilings.hits == 0
            assert flags.stats.tilings.misses > 0

    def test_memo_serves_recompiles_across_program_keys(self):
        # Toggling layer fusion changes the *program* key (so the second
        # workload genuinely recompiles) but not a GEMM search's inputs —
        # every compute-layer search of the recompile must be served from
        # the memo, and only the standalone pooling/activation blocks the
        # unfused program adds may search fresh.
        fused = Workload.bitfusion("LeNet-5", batch_size=4)
        unfused = Workload.bitfusion("LeNet-5", batch_size=4, enable_layer_fusion=False)
        fused_keys = self._search_key_sequence(fused)
        unfused_keys = self._search_key_sequence(unfused)
        assert set(unfused_keys) - set(fused_keys)  # unfused adds aux blocks

        # Replay the expected memo traffic exactly: keys the fused compile
        # memoized hit; genuinely new keys miss once, then hit.
        expected_misses = expected_hits = 0
        memoized = set(fused_keys)
        for key in unfused_keys:
            if key in memoized:
                expected_hits += 1
            else:
                expected_misses += 1
                memoized.add(key)

        with EvaluationSession() as session:
            session.run_many([fused])
            before = (session.stats.tilings.hits, session.stats.tilings.misses)
            session.run_many([unfused])
            assert session.stats.programs.misses == 2
            assert session.stats.tilings.misses - before[1] == expected_misses
            assert session.stats.tilings.hits - before[0] == expected_hits

    def test_tiling_plans_are_memoized_not_persisted(self, tmp_path):
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        with EvaluationSession(cache_dir=tmp_path) as session:
            session.run_many([workload])
        search_keys = set(self._search_key_sequence(workload))
        assert search_keys <= set(session.cache.memo)
        assert set(ResultCache(tmp_path).entry_summary()) == {"network_result"}
        store = SegmentedStore(tmp_path)
        assert all(store.get_record(key) is None for key in search_keys)

    def test_plan_resolver_memoizes_within_one_cache_only(self, tmp_path):
        # A plan served from the memo is the freshly computed one — that is
        # what makes memoized compilation byte-identical — and a cache over
        # the same directory in a new process starts with an empty memo.
        from repro.isa.instructions import LoopOrder
        from repro.isa.tiling import GemmWorkload, search_tilings
        from repro.session.engine import make_plan_resolver

        config = BitFusionConfig.eyeriss_matched()
        gemm = GemmWorkload(m=64, n=128, r=1024, input_bits=8, weight_bits=4, output_bits=16)
        orders = tuple(LoopOrder)
        (fresh,) = search_tilings((gemm,), config, orders)

        cache, stats = ResultCache(tmp_path), CacheStats()
        resolver = make_plan_resolver(config, cache, stats)
        assert resolver([(gemm, orders)], lambda requests: [fresh])[0] is fresh
        assert stats.tilings.misses == 1
        again = make_plan_resolver(config, cache, stats)
        served = again([(gemm, orders)], lambda requests: pytest.fail("memo should have served"))
        assert served[0] is fresh
        assert stats.tilings.hits == 1

        reread_stats = CacheStats()
        reread = make_plan_resolver(config, ResultCache(tmp_path), reread_stats)
        assert reread([(gemm, orders)], lambda requests: [fresh])[0] == fresh
        assert (reread_stats.tilings.hits, reread_stats.tilings.misses) == (0, 1)
