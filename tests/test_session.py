"""Tests for the unified evaluation session (workloads, cache, batching).

The acceptance properties the session layer guarantees:

* a cached result is bit-identical to a freshly simulated one (including
  after an on-disk round trip),
* workload fingerprints are stable across processes and change whenever
  anything that affects the simulation changes (compiler flags included),
* ``run_many`` returns results in input order, identical to executing each
  workload on its own,
* a partially-warm batch compiles and simulates only what the cache lacks,
  and in-batch workloads sharing blocks simulate each block once, and
* a full report run simulates each unique workload exactly once.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from faults import tear_last_record
from compiling import layer_cache_key, tiling_requests

from repro.baselines.platform import EYERISS
from repro.core.config import BitFusionConfig
from repro.dnn import models
from repro.fingerprint import fingerprint_payload
from repro.harness.runner import build_report, run_experiments
from repro.session import (
    EvaluationSession,
    ProgramStats,
    ResultCache,
    SegmentedStore,
    Workload,
    compile_program,
    execute_workload,
    fixed_bitwidth_network,
    load_network,
    program_cache_key,
    tiling_cache_key,
)
from repro.session.cache import decode_result, encode_result
from repro.session.store import encode_body

_SRC = str(Path(__file__).resolve().parents[1] / "src")
_FAST = ("LeNet-5", "LSTM")

#: Cache keys of LeNet-5 at batch 16 on the Eyeriss-matched configuration
#: at each node, its first and last block and the first and last tiling
#: search.  The workload key names every stored ``--cache-dir`` result, so
#: a changed byte there turns every shared cache directory cold; the
#: others key the in-process memos.
_GOLDEN_KEYS = {
    "45nm": {
        "workload": "14964e76f0da76925f10f597b7057049c5ac7b1df75e474794d21bb7af0eb88f",
        "program": "9c98ea47d28da398e60738ed4a792115849a5d61e1f9fc12f0710e8a88da98a3",
        "layer": [
            "83e81eef38fbf8204fe05eb224363c7ead893cc9a92f45c03f3c16b3cc80521d",
            "bd604d410cb129f40b8b2d482feabd71f6ce4fcf47e19ab27ba6354edbd76512",
        ],
        "tiling": [
            "d18242222163a1b0f05e50399e3ee676cbe4fea4e1ce99b256eea7375b54bc28",
            "c127b9d959fae6de05de71fb01d2aa618484314810e645557bf0c5e6dd15c7bb",
        ],
    },
    "16nm": {
        "workload": "bead9d4e52b8a5dc8cf60e1782df32785c68478bf70a030c39449a18142a7a5c",
        "program": "9c98ea47d28da398e60738ed4a792115849a5d61e1f9fc12f0710e8a88da98a3",
        "layer": [
            "4fc6cad62f2fd9032998401814c4f0da6a9058860cbe7bd948c54eb64f434965",
            "3601566ecab64cceffc376d3523f318ea22d07a7fad6c63bff1c702f28e73420",
        ],
        "tiling": [
            "d18242222163a1b0f05e50399e3ee676cbe4fea4e1ce99b256eea7375b54bc28",
            "c127b9d959fae6de05de71fb01d2aa618484314810e645557bf0c5e6dd15c7bb",
        ],
    },
}


class TestFingerprints:
    def test_workload_fingerprint_is_deterministic_in_its_config(self):
        a = Workload.bitfusion("LeNet-5", config=BitFusionConfig.eyeriss_matched())
        b = Workload.bitfusion("LeNet-5", config=BitFusionConfig.eyeriss_matched())
        assert a.fingerprint() == b.fingerprint()

    def test_workload_fingerprint_changes_with_a_config_field(self):
        base = BitFusionConfig.eyeriss_matched()
        assert (
            Workload.bitfusion("LeNet-5", config=base).fingerprint()
            != Workload.bitfusion("LeNet-5", config=base.with_bandwidth(256)).fingerprint()
        )

    def test_network_fingerprint_is_deterministic(self):
        assert models.load("LeNet-5").fingerprint() == models.load("LeNet-5").fingerprint()

    def test_network_fingerprint_sees_structure_changes(self):
        network = models.load("LeNet-5")
        assert network.fingerprint() != fixed_bitwidth_network(network, 8).fingerprint()

    def test_workload_fingerprint_stable_across_processes(self):
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        code = (
            "from repro.session import Workload; "
            "print(Workload.bitfusion('LeNet-5', batch_size=4).fingerprint())"
        )
        env = {**os.environ, "PYTHONPATH": _SRC, "PYTHONHASHSEED": "random"}
        outputs = {
            subprocess.run(
                [sys.executable, "-c", code],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
            for _ in range(2)
        }
        assert outputs == {workload.fingerprint()}

    def test_compiler_flags_are_part_of_the_fingerprint(self):
        base = Workload.bitfusion("LeNet-5")
        assert (
            base.fingerprint()
            != Workload.bitfusion("LeNet-5", enable_loop_ordering=False).fingerprint()
        )
        assert (
            base.fingerprint()
            != Workload.bitfusion("LeNet-5", enable_layer_fusion=False).fingerprint()
        )
        assert base.fingerprint() != Workload.bitfusion("LeNet-5", fixed_bits=8).fingerprint()

    def test_variant_and_platform_distinguish_workloads(self):
        fingerprints = {
            Workload.bitfusion("AlexNet").fingerprint(),
            Workload.eyeriss("AlexNet").fingerprint(),
            Workload.stripes("AlexNet").fingerprint(),
            Workload.temporal("AlexNet").fingerprint(),
        }
        assert len(fingerprints) == 4

    def test_unknown_platform_and_benchmark_rejected(self):
        with pytest.raises(ValueError):
            Workload(platform="tpu", network="LeNet-5")
        with pytest.raises(ValueError):
            Workload(platform="bitfusion", network="NoSuchNet")

    def test_network_object_is_rejected_naming_the_argument(self):
        with pytest.raises(TypeError, match=r"^network must be a model-zoo name \(str\), got Network$"):
            Workload.bitfusion(models.load("LeNet-5"))

    def test_config_passed_as_batch_size_is_rejected(self):
        config = BitFusionConfig.eyeriss_matched()
        with pytest.raises(TypeError, match=r"^batch_size must be an int, got BitFusionConfig"):
            Workload.bitfusion("LeNet-5", config, 16)

    @pytest.mark.parametrize("batch_size", [16.0, True], ids=["float", "bool"])
    def test_non_integer_batch_size_is_rejected(self, batch_size):
        with pytest.raises(TypeError, match="^batch_size must be an int"):
            Workload.bitfusion("LeNet-5", batch_size=batch_size)

    def test_gpu_workload_requires_a_device_spec(self):
        with pytest.raises(ValueError, match="device spec"):
            Workload(platform="gpu", network="LeNet-5", gpu_precision="fp32")

    @pytest.mark.parametrize(
        "platform, kwargs",
        [("bitfusion", {}), ("gpu", {"gpu_precision": "fp32"})],
    )
    def test_config_of_another_platform_is_a_one_line_error_naming_config(
        self, platform, kwargs
    ):
        with pytest.raises(ValueError, match=rf"^{platform} workloads need a \w+ as config") as error:
            Workload(platform=platform, network="LeNet-5", config=EYERISS, **kwargs)
        assert "PlatformSpec" in str(error.value)
        assert "\n" not in str(error.value)

    def test_benchmark_aliases_canonicalize_to_one_fingerprint(self):
        canonical = Workload.bitfusion("AlexNet")
        alias = Workload.bitfusion("alexnet")
        assert alias.network == "AlexNet"
        assert alias.fingerprint() == canonical.fingerprint()

    def test_bare_and_named_constructors_share_one_fingerprint(self):
        bare = Workload(platform="bitfusion", network="LeNet-5", batch_size=4)
        named = Workload.bitfusion("LeNet-5", batch_size=4)
        assert bare.fingerprint() == named.fingerprint()
        assert bare.config == named.config

    @pytest.mark.parametrize("technology", sorted(_GOLDEN_KEYS))
    def test_cache_keys_are_pinned(self, technology):
        golden = _GOLDEN_KEYS[technology]
        config = BitFusionConfig.eyeriss_matched().with_technology(technology)
        workload = Workload.bitfusion("LeNet-5", config=config)
        program = compile_program(workload)
        requests = tiling_requests(config, load_network(workload), workload.batch_size)
        assert workload.fingerprint() == golden["workload"]
        assert program_cache_key(workload) == golden["program"]
        assert [layer_cache_key(program[i], config) for i in (0, -1)] == golden["layer"]
        assert [
            tiling_cache_key(*requests[i], config) for i in (0, -1)
        ] == golden["tiling"]

    def test_layer_cache_key_hashes_the_nested_payload(self):
        # The key is spliced together from memoized strings; it must equal
        # the digest of the documented nested payload on every sim axis.
        # Buffer sizes are floats, as every config constructor makes them.
        base = BitFusionConfig.eyeriss_matched()
        compiled = compile_program(Workload.bitfusion("LeNet-5", batch_size=4))[1]
        for config in (
            base,
            base.with_array(32, 32),
            base.with_buffers(16.0, 32.0, 8.0),
            base.with_technology("16nm").with_bandwidth(256),
        ):
            sim = {
                "rows": config.rows,
                "columns": config.columns,
                "ibuf_kb": config.ibuf_kb,
                "wbuf_kb": config.wbuf_kb,
                "obuf_kb": config.obuf_kb,
                "dram_bandwidth_bits_per_cycle": config.dram_bandwidth_bits_per_cycle,
                "buffer_access_bits": config.buffer_access_bits,
                "technology": asdict(config.technology),
            }
            expected = fingerprint_payload(
                {"artifact": "layer", "layer": compiled.layer_fingerprint(), "sim": sim}
            )
            assert layer_cache_key(compiled, config) == expected

    def test_workload_fingerprint_memo_is_invisible(self):
        fresh = Workload.bitfusion("LeNet-5", batch_size=4)
        memoized = Workload.bitfusion("LeNet-5", batch_size=4)
        digest = memoized.fingerprint()
        assert memoized.fingerprint() is digest  # the second call is a memo hit
        assert memoized == fresh
        assert hash(memoized) == hash(fresh)
        assert asdict(memoized) == asdict(fresh)
        restored = pickle.loads(pickle.dumps(memoized))
        assert restored == fresh
        assert restored.fingerprint() == digest == fresh.fingerprint()

    def test_replaced_workload_gets_a_fresh_fingerprint(self):
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        workload.fingerprint()
        bigger = replace(workload, batch_size=8)
        assert bigger.fingerprint() != workload.fingerprint()
        unmemoized = replace(Workload.bitfusion("LeNet-5", batch_size=4), batch_size=8)
        assert bigger.fingerprint() == unmemoized.fingerprint()

    def test_temporal_workload_rejects_a_config(self):
        with pytest.raises(ValueError, match="temporal"):
            Workload(
                platform="temporal",
                network="LeNet-5",
                config=BitFusionConfig.eyeriss_matched(),
            )


class TestResultCache:
    def test_cached_result_is_bit_identical_to_fresh(self):
        session = EvaluationSession()
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        cached = session.run_many([workload])[0]
        fresh = execute_workload(workload)
        assert cached == fresh

    def test_disk_round_trip_is_bit_identical(self, tmp_path):
        workload = Workload.bitfusion("LSTM", batch_size=4)
        with EvaluationSession(cache_dir=tmp_path) as first:
            fresh = first.run_many([workload])[0]
        with EvaluationSession(cache_dir=tmp_path) as second:
            restored = second.run_many([workload])[0]
        assert second.stats.disk_hits == 1
        assert second.stats.unique_executions == 0
        assert restored == fresh
        assert restored.latency_per_inference_s == fresh.latency_per_inference_s
        assert restored.energy.total == fresh.energy.total

    def test_serialization_round_trip_preserves_every_field(self):
        result = execute_workload(Workload.eyeriss("LeNet-5", batch_size=2))
        assert decode_result(*encode_result(result)) == result

    def test_cache_rejects_unknown_payloads(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(TypeError):
            cache.put("key", object())

    def test_torn_result_record_is_a_miss_and_gets_rewritten(self, tmp_path):
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        with EvaluationSession(cache_dir=tmp_path) as first:
            fresh = first.run_many([workload])[0]
        program = compile_program(workload)
        # The only record written is the workload's composed result;
        # tearing it leaves nothing that could serve the workload back.
        torn = tear_last_record(tmp_path)
        assert torn["kind"] == "network_result"
        assert torn["key"] == workload.fingerprint()
        with EvaluationSession(cache_dir=tmp_path) as second:
            recovered = second.run_many([workload])[0]
        assert second.stats.misses == 1
        assert second.stats.unique_executions == 1
        # The workload was recompiled and every block re-simulated in
        # process: nothing but the result is ever read from disk.
        assert second.stats.programs.misses == 1
        assert second.stats.blocks.misses == len(program)
        assert second.stats.blocks.hits == 0
        assert recovered == fresh
        # The fresh simulation repaired the on-disk entry.
        with EvaluationSession(cache_dir=tmp_path) as third:
            third.run_many([workload])
            assert third.stats.disk_hits == 1
            assert third.stats.unique_executions == 0

    @pytest.mark.parametrize(
        "leftover",
        [
            "garbage",
            '{"schema_version": 5, "entries": {"ghost": {"kind": "network_result", '
            '"bytes": 1, "seq": 1}}}',
        ],
        ids=["garbage", "older-release"],
    )
    def test_leftover_manifest_is_neither_read_nor_deleted(self, tmp_path, leftover):
        # Older releases kept a ``manifest.json`` index beside the pack
        # segments.  Whatever it holds, it is never read, rewritten or
        # deleted, and every record is still served from the store.
        workloads = [Workload.bitfusion("LeNet-5", batch_size=4), Workload.eyeriss("LeNet-5")]
        with EvaluationSession(cache_dir=tmp_path) as first:
            fresh = first.run_many(workloads)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(leftover, encoding="utf-8")
        with EvaluationSession(cache_dir=tmp_path) as second:
            restored = second.run_many(workloads)
            assert "ghost" not in second.cache
        assert second.stats.unique_executions == 0
        assert second.stats.disk_hits == len(workloads)
        assert restored == fresh
        assert manifest.read_text(encoding="utf-8") == leftover
        assert set(ResultCache(tmp_path).entry_summary()) == {"network_result"}

    def test_compile_stats_is_memoized_and_stores_nothing(self, tmp_path):
        workload = Workload.bitfusion("LeNet-5")
        with EvaluationSession(cache_dir=tmp_path) as first:
            fresh = first.compile_stats(workload)
            again = first.compile_stats(workload)
        assert fresh == again == ProgramStats.from_program(compile_program(workload))
        assert (first.stats.programs.misses, first.stats.programs.hits) == (1, 1)
        # Program statistics are no workload result: nothing is looked up,
        # executed or written.
        assert first.stats.lookups == 0 and first.stats.unique_executions == 0
        assert ResultCache(tmp_path).entry_summary() == {}
        with EvaluationSession(cache_dir=tmp_path) as second:
            restored = second.compile_stats(workload)
        assert restored == fresh
        assert second.stats.programs.misses == 1

    def test_program_stats_is_not_a_cache_kind(self, tmp_path):
        # compile_stats derives its ProgramStats from the cached program;
        # the summary itself is never stored, and a record of that retired
        # kind reads as a miss.
        workload = Workload.bitfusion("LeNet-5")
        cache = ResultCache(tmp_path)
        with pytest.raises(TypeError):
            cache.put("stats", ProgramStats.from_program(compile_program(workload)))
        store = SegmentedStore(tmp_path)
        store.append_encoded(
            [("old", "program_stats", encode_body("old", "program_stats", {}, b""))]
        )
        store.close()
        assert ResultCache(tmp_path).get("old") is None

    def test_memo_entries_stay_in_memory(self, tmp_path):
        workload = Workload.bitfusion("LeNet-5", batch_size=2)
        with EvaluationSession(cache_dir=tmp_path) as session:
            result = session.run_many([workload])[0]
        program = session.cache.memo[program_cache_key(workload)]
        layer_keys = {layer_cache_key(block, workload.config) for block in program}
        assert layer_keys <= set(session.cache.memo)
        # The composed result is the one record on disk; the program, its
        # tiling plans and its layer records never leave the process.
        reader = ResultCache(tmp_path)
        assert workload.fingerprint() in reader
        assert reader.entry_summary()["network_result"]["entries"] == 1
        assert reader.memo == {}
        assert reader.get(workload.fingerprint()) == result
        assert all(reader.get(key) is None for key in layer_keys)


class TestEvaluationSession:
    def test_second_run_is_a_hit_not_a_simulation(self):
        session = EvaluationSession()
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        first = session.run_many([workload])[0]
        second = session.run_many([workload])[0]
        assert first is second
        assert session.stats.hits == 1
        assert session.stats.misses == 1
        assert session.stats.unique_executions == 1

    def test_run_many_matches_serial_order(self):
        workloads = [Workload.bitfusion(name, batch_size=4) for name in _FAST]
        workloads += [Workload.eyeriss(name, batch_size=4) for name in _FAST]
        workloads += [
            Workload.stripes("LeNet-5", batch_size=4),
            Workload.temporal("LeNet-5", batch_size=4),
        ]
        batch = EvaluationSession().run_many(workloads)
        serial = [execute_workload(w) for w in workloads]
        assert batch == serial

    def test_duplicate_workloads_in_one_batch_simulate_once(self):
        session = EvaluationSession()
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        results = session.run_many([workload, workload, workload])
        assert session.stats.unique_executions == 1
        assert results[0] is results[1] is results[2]

    def test_duplicate_of_pending_workload_is_dedup_not_hit(self):
        # A duplicate of a workload that is queued but not yet executed was
        # served by deduplication, not by the cache: counting it as a hit
        # would inflate the reported hit rate.
        session = EvaluationSession()
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        session.run_many([workload, workload, workload])
        assert session.stats.misses == 1
        assert session.stats.hits == 0
        assert session.stats.deduped == 2
        assert session.stats.hit_rate == 0.0
        # Duplicates of an already-cached workload, by contrast, are hits.
        session.run_many([workload, workload])
        assert session.stats.hits == 2
        assert session.stats.misses == 1
        assert session.stats.deduped == 2
        assert session.stats.unique_executions == 1

    def test_flag_change_invalidates_cached_result(self):
        session = EvaluationSession()
        session.run_many([Workload.bitfusion("LeNet-5", batch_size=4)])
        session.run_many(
            [Workload.bitfusion("LeNet-5", batch_size=4, enable_loop_ordering=False)]
        )
        assert session.stats.misses == 2
        assert session.stats.hits == 0
        assert session.stats.unique_executions == 2

    def test_baseline_variant_runs_regular_model(self):
        network = load_network(Workload.eyeriss("AlexNet"))
        assert network.fingerprint() == models.load_baseline_variant("AlexNet").fingerprint()


class TestReportAcceptance:
    def test_full_report_simulates_each_unique_workload_exactly_once(self):
        session = EvaluationSession()
        run_experiments(benchmarks=_FAST, session=session)
        assert session.stats.unique_executions > 0
        # The headline guarantee: no workload is ever simulated twice...
        assert max(session.stats.executions.values()) == 1
        assert session.stats.unique_executions == session.stats.misses
        # ...and the figures genuinely share workloads through the cache.
        assert session.stats.hits > 0

    def test_report_header_and_statistics(self):
        import repro

        report = build_report(keys=["tab02"], benchmarks=("LeNet-5",))
        assert f"_repro {repro.__version__}_" in report
        assert "## Evaluation session statistics" in report


class TestPartiallyWarmRuns:
    def test_partially_warm_run_compiles_only_new_networks(self, tmp_path):
        seed = Workload.bitfusion("LeNet-5", batch_size=4)
        with EvaluationSession(cache_dir=tmp_path) as warmup:
            warmup.run_many([seed])

        superset = [
            seed,
            Workload.bitfusion("LSTM", batch_size=4),
            Workload.bitfusion("LeNet-5", batch_size=2),
        ]
        with EvaluationSession(cache_dir=tmp_path) as warm:
            results = warm.run_many(superset)

        assert list(results) == list(execute_workload(w) for w in superset)
        # The seeded workload was read straight from its stored result...
        assert warm.stats.hits == 1 and warm.stats.disk_hits == 1
        assert warm.stats.misses == 2
        # ...compilations happened exactly once per genuinely new network
        # (LSTM b4 and LeNet-5 b2; the seeded program was never needed)...
        assert warm.stats.programs.misses == 2
        assert warm.stats.programs.hits == 0
        # ...and exactly the new workloads' blocks were simulated.
        assert warm.stats.blocks.misses == len(compile_program(superset[1])) + len(
            compile_program(superset[2])
        )

    def test_fully_warm_rerun_does_no_work(self, tmp_path):
        workloads = [
            Workload.bitfusion("LeNet-5", batch_size=4),
            Workload.bitfusion("LSTM", batch_size=4),
        ]
        with EvaluationSession(cache_dir=tmp_path) as cold:
            first = cold.run_many(workloads)
        with EvaluationSession(cache_dir=tmp_path) as warm:
            second = warm.run_many(workloads)
        assert list(first) == list(second)
        assert warm.stats.unique_executions == 0
        assert warm.stats.programs.misses == 0
        assert warm.stats.blocks.misses == 0

    def test_in_batch_shared_blocks_simulate_once(self):
        # Two workloads differing only in frequency share every block key
        # (frequency is composition metadata); the second must defer to the
        # first instead of simulating the same blocks twice.
        base = BitFusionConfig.eyeriss_matched()
        workloads = [
            Workload.bitfusion("LeNet-5", batch_size=4, config=base),
            Workload.bitfusion("LeNet-5", batch_size=4, config=base.with_frequency(250.0)),
        ]
        with EvaluationSession() as session:
            results = session.run_many(workloads)
        assert list(results) == list(execute_workload(w) for w in workloads)
        assert session.stats.programs.misses == 1
        assert session.stats.programs.hits == 1
        blocks = len(compile_program(workloads[0]))
        assert session.stats.blocks.misses == blocks
        # The deferred workload read every block back from the claimant.
        assert session.stats.blocks.hits == blocks
        # One footer line counts every block lookup.
        footer = session.stats.summary()
        assert f"block cache: {blocks} hits, {blocks} block simulations" in footer
        assert "layer dedup" not in footer

    def test_in_batch_identical_layer_content_defers_not_resimulates(self):
        # Two blocks with identical layer *content* but different names
        # share one layer key: they simulate once in a batch, and the twin
        # is served that one record under its own name.
        from dataclasses import replace as dc_replace

        from repro.isa.program import Program
        from repro.session.engine import program_cache_key

        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        original = compile_program(workload)[0]
        renamed = dc_replace(
            original,
            name="renamed-twin",
            layer=dc_replace(original.layer, name="renamed-twin"),
            fused_layers=tuple(
                dc_replace(layer, name=f"renamed-{i}")
                for i, layer in enumerate(original.fused_layers)
            ),
        )
        filler = Workload.bitfusion("LSTM", batch_size=4)
        with EvaluationSession() as session:
            session.cache.memo[program_cache_key(workload)] = Program("LeNet-5", [original, renamed])
            twins, _ = session.run_many([workload, filler])
        assert session.stats.blocks.misses == 1 + len(compile_program(filler))
        assert session.stats.blocks.hits == 1
        first, second = twins.layers
        assert (first.name, second.name) == (original.name, "renamed-twin")
        assert dc_replace(second, name=original.name) == first

    def test_partially_warm_experiments_match_cold(self, tmp_path):
        with EvaluationSession() as reference:
            cold = [
                rendered for _, rendered, _ in run_experiments(benchmarks=_FAST, session=reference)
            ]
        with EvaluationSession(cache_dir=tmp_path) as warmup:
            run_experiments(keys=["fig16"], benchmarks=_FAST, session=warmup)
        with EvaluationSession(cache_dir=tmp_path) as warm:
            rerun = [
                rendered for _, rendered, _ in run_experiments(benchmarks=_FAST, session=warm)
            ]
        assert rerun == cold
        # The warm-started report reused the seeded artifacts and never
        # executed any workload twice.
        assert max(warm.stats.executions.values()) == 1
