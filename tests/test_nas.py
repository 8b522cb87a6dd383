"""Tests for the NAS subsystem: surrogate estimator, mutations, search.

The load-bearing guarantee is exactness: the cache-composition estimator
must return results byte-identical to ``BitFusionAccelerator.evaluate`` on
any network — cold (everything simulates), warm (nothing simulates) and
partially warm — while simulating each never-before-seen layer exactly
once.  The hypothesis test pins the exact simulated/deduped/composed
accounting over randomly mutated GEMM shapes.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from faults import InjectedSimulatorFault, faulty_simulators
from repro.core.accelerator import BitFusionAccelerator
from repro.core.config import BitFusionConfig
from repro.dnn import models
from repro.dnn.layers import ConvLayer, FCLayer
from repro.dnn.network import Network
from repro.harness.runner import main
from repro.isa.compiler import FusionCompiler
from repro.nas.estimator import Estimator
from repro.nas.mutations import (
    MUTATION_AXES,
    mutate,
    mutate_bits,
    mutate_depth,
    mutate_kernel,
    mutate_width,
)
from repro.nas.search import SearchSpec, run_search
from repro.session import EvaluationSession, ResultCache, Workload
from repro.session.cache import network_result_to_dict
from repro.session.workload import load_network


def _config() -> BitFusionConfig:
    return BitFusionConfig.eyeriss_matched()


class TestEstimatorExactness:
    @pytest.mark.parametrize("name", ["LeNet-5", "Cifar-10", "LSTM"])
    def test_cold_estimate_matches_evaluate(self, name):
        config = _config()
        network = models.load(name)
        estimate = Estimator(config).estimate(network)
        reference = BitFusionAccelerator(config).evaluate(network, 16)
        # Frozen dataclasses all the way down: == is byte-identity over
        # every field, including each per-layer record.
        assert estimate == reference

    def test_warm_estimate_is_identical_and_simulation_free(self):
        config = _config()
        network = models.load("Cifar-10")
        estimator = Estimator(config)
        cold = estimator.estimate(network)
        simulated = estimator.stats.layers_simulated
        compiled = estimator.stats.programs_compiled
        warm = estimator.estimate(network)
        assert warm == cold == BitFusionAccelerator(config).evaluate(network, 16)
        assert estimator.stats.layers_simulated == simulated
        assert estimator.stats.programs_compiled == compiled
        assert estimator.stats.programs_reused == 1

    def test_partially_warm_estimate_matches_evaluate(self):
        config = _config()
        estimator = Estimator(config)
        base = models.load("Cifar-10")
        estimator.estimate(base)
        simulated_before = estimator.stats.layers_simulated
        mutant = mutate(base, random.Random(3))
        estimate = estimator.estimate(mutant)
        assert estimate == BitFusionAccelerator(config).evaluate(mutant, 16)
        # A single mutation leaves most layers shared with the base — only
        # the genuinely novel ones may simulate.
        novel = estimator.stats.layers_simulated - simulated_before
        assert novel < len(list(mutant.compute_layers()))

    def test_mutant_compiles_only_its_changed_block(self, monkeypatch):
        # One compiler serves the whole search: pricing a bits mutant after
        # its base lowers only the re-quantized layer, and stays exact.
        config = _config()
        estimator = Estimator(config)
        base = models.load("ResNet-18")
        estimator.estimate(base)
        mutant = mutate_bits(base, random.Random(5))
        reference = BitFusionAccelerator(config).evaluate(mutant, 16)
        built: list[str] = []
        original = FusionCompiler._emit_compute_block

        def counting(self, layer, *args, **kwargs):
            built.append(layer.name)
            return original(self, layer, *args, **kwargs)

        monkeypatch.setattr(FusionCompiler, "_emit_compute_block", counting)
        assert estimator.estimate(mutant) == reference
        changed = [a.name for a, b in zip(base, mutant) if a != b]
        assert len(changed) == 1
        assert built == changed
        assert estimator.stats.programs_compiled == 2

    def test_session_warmed_cache_prices_without_simulation(self):
        # A report/sweep run and the estimator share the cache's memo in
        # one process: pricing the same workload afterwards is pure
        # composition.
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        with EvaluationSession() as session:
            session_result = session.run(workload)
        estimator = Estimator(workload.config, session.cache, batch_size=workload.batch_size)
        estimate = estimator.estimate(load_network(workload))
        assert estimator.stats.layers_simulated == 0
        assert estimator.stats.programs_compiled == 0
        assert estimator.stats.programs_reused == 1
        assert estimate == session_result

    def test_warm_cache_dir_prices_every_candidate_from_disk(self, tmp_path):
        spec = SearchSpec(base_network="LeNet-5", population=4, generations=3, seed=5)
        cold_estimator = Estimator(_config(), ResultCache(tmp_path))
        cold = run_search(spec, estimator=cold_estimator)
        assert cold_estimator.stats.layers_simulated > 0
        assert cold_estimator.stats.results_read == 0
        # The cache directory holds one composed result per priced
        # candidate and nothing else.
        summary = ResultCache(tmp_path).entry_summary()
        assert summary == {
            "network_result": {
                "entries": len(cold.candidates),
                "bytes": summary["network_result"]["bytes"],
            }
        }
        warm_estimator = Estimator(_config(), ResultCache(tmp_path))
        warm = run_search(spec, estimator=warm_estimator)
        stats = warm_estimator.stats
        unique = stats.networks - stats.networks_deduped
        assert stats.results_read == stats.results_from_disk == unique
        assert unique == len(warm.candidates)
        assert stats.layer_lookups == 0 and stats.layers_simulated == 0
        assert stats.programs_compiled == stats.programs_reused == 0
        assert [c.objectives for c in warm.candidates] == [c.objectives for c in cold.candidates]
        assert [c.fingerprint for c in warm.frontier] == [c.fingerprint for c in cold.frontier]

    def test_stored_results_are_keyed_by_everything_composition_reads(self, tmp_path):
        # Frequency and the config name change only composition metadata
        # (they share every program and layer key), yet each must key its
        # own stored result: a cross-served record would carry the wrong
        # latency or platform name.
        network = models.load("LeNet-5")
        base = _config()
        Estimator(base, ResultCache(tmp_path)).estimate(network)
        for config in (base.with_frequency(250.0), replace(base, name="renamed")):
            estimator = Estimator(config, ResultCache(tmp_path))
            estimate = estimator.estimate(network)
            assert estimate == BitFusionAccelerator(config).evaluate(network, 16)
            assert estimator.stats.results_read == 0
        rerun = Estimator(base.with_frequency(250.0), ResultCache(tmp_path))
        rerun.estimate(network)
        assert rerun.stats.results_from_disk == 1

    def test_memory_only_estimator_stores_no_results(self):
        estimator = Estimator(_config())
        network = models.load("LeNet-5")
        first = estimator.estimate(network)
        composed = estimator.stats.layers_composed
        # Re-pricing composes every block from the layer memo; no result
        # is stored or looked up.
        assert estimator.estimate(network) == first
        blocks = len(FusionCompiler(_config()).compile(network, 16))
        assert estimator.stats.layers_composed - composed == blocks
        assert len(estimator.cache) == 0
        assert estimator.stats.results_read == 0

    def test_renamed_clone_prices_through_layer_dedupe(self):
        # The content-addressed layer level is name-free: a candidate that
        # renames the network and every layer costs zero simulations.
        config = _config()
        estimator = Estimator(config)
        base = models.load("LeNet-5")
        estimator.estimate(base)
        simulated = estimator.stats.layers_simulated
        from dataclasses import replace

        clone = Network(
            "lenet-clone",
            [replace(layer, name=f"renamed-{i}") for i, layer in enumerate(base)],
        )
        estimate = estimator.estimate(clone)
        assert estimator.stats.layers_simulated == simulated
        assert estimate == BitFusionAccelerator(config).evaluate(clone, 16)
        # Every block lookup lands in the one block counter.
        blocks = estimator.cache_stats.blocks
        assert blocks.misses == estimator.stats.layers_simulated
        assert blocks.hits == estimator.stats.layers_composed + estimator.stats.deduped

    def test_estimate_many_dedupes_identical_candidates(self):
        config = _config()
        estimator = Estimator(config)
        network = models.load("LeNet-5")
        twin = models.load("LeNet-5")
        results = estimator.estimate_many([network, twin, network])
        assert estimator.stats.networks == 3
        assert estimator.stats.networks_deduped == 2
        assert estimator.stats.programs_compiled == 1
        assert results[0] is results[1] is results[2]

    def test_rejects_non_positive_batch_size(self):
        with pytest.raises(ValueError, match="batch size"):
            Estimator(_config(), batch_size=0)


class TestEstimatorClaimRelease:
    def test_failed_batch_releases_claims(self):
        # Regression: a raising batched simulation must leave no in-flight
        # block claims behind, or every later estimate defers to a
        # claimant that never stored anything and dies at compose time.
        estimator = Estimator()
        network = models.load("LeNet-5")
        first_block = FusionCompiler(estimator.config).compile(network, 16).blocks[0].name
        with faulty_simulators([first_block]):
            with pytest.raises(InjectedSimulatorFault):
                estimator.estimate(network)
        # Same estimator, faults removed: must price cleanly (no
        # deferred-block RuntimeError from leaked claims).
        result = estimator.estimate(network)
        fresh = Estimator().estimate(network)
        assert network_result_to_dict(result) == network_result_to_dict(fresh)


class TestExactSimulationAccounting:
    """Only never-seen layer shapes simulate — exact counts, per batch."""

    @settings(max_examples=30, deadline=None)
    @given(
        batches=st.lists(
            st.lists(
                st.tuples(
                    st.integers(min_value=4, max_value=24),
                    st.integers(min_value=4, max_value=24),
                ),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_simulated_and_deduped_counts_are_exact(self, batches):
        config = _config()
        estimator = Estimator(config)
        seen: set[tuple[int, int]] = set()
        for batch_index, shapes in enumerate(batches):
            network = Network(
                f"fc-net-{batch_index}-{shapes}",
                [
                    FCLayer(name=f"fc{i}", in_features=n, out_features=m)
                    for i, (n, m) in enumerate(shapes)
                ],
            )
            composed = estimator.stats.layers_composed
            simulated = estimator.stats.layers_simulated
            deduped = estimator.stats.deduped
            estimate = estimator.estimate(network)

            # Mirror the claim protocol: cached shapes compose, the first
            # unseen occurrence simulates, in-flight repeats defer.
            expect_composed = expect_simulated = expect_deduped = 0
            claimed: set[tuple[int, int]] = set()
            for shape in shapes:
                if shape in seen:
                    expect_composed += 1
                elif shape in claimed:
                    expect_deduped += 1
                else:
                    claimed.add(shape)
                    expect_simulated += 1
            seen |= claimed
            assert estimator.stats.layers_composed - composed == expect_composed
            assert estimator.stats.layers_simulated - simulated == expect_simulated
            assert estimator.stats.deduped - deduped == expect_deduped
            # Exactness holds regardless of which path served each layer.
            assert estimate == BitFusionAccelerator(config).evaluate(network, 16)


class TestMutations:
    def test_mutants_are_valid_and_compile(self):
        rng = random.Random(0)
        base = models.load("ResNet-18")
        accelerator = BitFusionAccelerator(_config())
        for index in range(30):
            mutant = mutate(base, rng)
            assert len(mutant) > 0
            assert mutant.compute_layers()
            assert mutant.name.startswith("ResNet-18")
            if index < 3:  # full pipeline is slow; spot-check a few
                accelerator.evaluate(mutant, 16)

    def test_chained_mutations_stay_valid(self):
        rng = random.Random(1)
        network = models.load("Cifar-10")
        for _ in range(20):
            network = mutate(network, rng)
            assert network.compute_layers()
        BitFusionAccelerator(_config()).evaluate(network, 16)

    def test_mutation_is_deterministic_under_a_seed(self):
        base = models.load("Cifar-10")
        first = [mutate(base, random.Random(9)).fingerprint() for _ in range(1)]
        second = [mutate(base, random.Random(9)).fingerprint() for _ in range(1)]
        assert first == second

    def test_identical_architectures_share_names(self):
        # Content-derived names: the same mutation landing twice produces
        # fingerprint-identical candidates (shared cache entries).
        base = models.load("Cifar-10")
        a = mutate_bits(base, random.Random(4))
        b = mutate_bits(base, random.Random(4))
        assert a is not None and b is not None
        assert a.name == b.name
        assert a.fingerprint() == b.fingerprint()

    def test_operators_do_not_mutate_the_input(self):
        base = models.load("LeNet-5")
        fingerprint = base.fingerprint()
        rng = random.Random(2)
        for operator in (mutate_bits, mutate_width, mutate_depth):
            for _ in range(10):
                operator(base, rng)
        assert base.fingerprint() == fingerprint

    def test_unknown_axis_raises(self):
        with pytest.raises(ValueError, match="unknown mutation axes"):
            mutate(models.load("LeNet-5"), random.Random(0), axes=("nope",))
        with pytest.raises(ValueError, match="at least one"):
            mutate(models.load("LeNet-5"), random.Random(0), axes=())


class TestKernelMutation:
    def test_kernel_mutation_preserves_output_dims(self):
        network = models.load("AlexNet")
        rng = random.Random(11)
        seen_changes = 0
        for _ in range(32):
            candidate = mutate_kernel(network, rng)
            if candidate is None:
                continue
            assert len(candidate) == len(network)
            for before, after in zip(network, candidate):
                if not isinstance(before, ConvLayer):
                    assert before == after
                    continue
                assert after.padding >= 0
                assert after.out_height == before.out_height
                assert after.out_width == before.out_width
                if after.kernel != before.kernel:
                    seen_changes += 1
                    assert after.kernel in (3, 5, 7)
                    assert after.padding - before.padding == (
                        after.kernel - before.kernel
                    ) // 2
        assert seen_changes > 0

    def test_kernel_mutation_is_deterministic(self):
        network = models.load("LeNet-5")
        first = mutate_kernel(network, random.Random(3))
        second = mutate_kernel(network, random.Random(3))
        assert first is not None and second is not None
        assert first.fingerprint() == second.fingerprint()

    def test_kernel_mutation_skips_conv_free_networks(self):
        network = models.load("LSTM")
        assert mutate_kernel(network, random.Random(0)) is None
        # mutate() with only the kernel axis then returns the input network.
        assert mutate(network, random.Random(0), axes=("kernel",)) is network

    def test_kernel_axis_is_registered(self):
        assert "kernel" in MUTATION_AXES
        candidate = mutate(
            models.load("AlexNet"), random.Random(1), axes=("kernel",)
        )
        assert "/nas-" in candidate.name


class TestNetworkFingerprintMemo:
    def test_fingerprint_invalidates_on_add(self):
        network = Network("memo-check", [FCLayer(name="fc0")])
        before = network.fingerprint()
        assert network.fingerprint() == before  # memoized repeat
        network.add(FCLayer(name="fc1"))
        after = network.fingerprint()
        assert after != before
        rebuilt = Network("memo-check", [FCLayer(name="fc0"), FCLayer(name="fc1")])
        assert rebuilt.fingerprint() == after


class TestSearch:
    def _spec(self, **overrides) -> SearchSpec:
        payload = {
            "name": "test search",
            "base_network": "Cifar-10",
            "population": 6,
            "generations": 2,
            "seed": 11,
            "objectives": ["latency", "energy"],
        }
        payload.update(overrides)
        return SearchSpec.from_dict(payload)

    def test_search_is_deterministic(self):
        first = run_search(self._spec())
        second = run_search(self._spec())
        assert [c.fingerprint for c in first.candidates] == [
            c.fingerprint for c in second.candidates
        ]
        assert [c.objectives for c in first.frontier] == [
            c.objectives for c in second.frontier
        ]

    def test_each_fingerprint_is_priced_exactly_once(self):
        estimator = Estimator(_config())
        result = run_search(self._spec(generations=3), estimator=estimator)
        assert estimator.stats.networks == len(result.candidates)
        assert estimator.stats.networks_deduped == 0
        fingerprints = [candidate.fingerprint for candidate in result.candidates]
        assert len(fingerprints) == len(set(fingerprints))

    def test_frontier_is_nondominated_and_includes_generation_zero_base(self):
        result = run_search(self._spec())
        from repro.dse.pareto import pareto_indices

        vectors = [candidate.objectives for candidate in result.candidates]
        expected = {result.candidates[i].fingerprint for i in pareto_indices(vectors)}
        assert {c.fingerprint for c in result.frontier} == expected
        base_fingerprint = models.load("Cifar-10").fingerprint()
        assert base_fingerprint in {c.fingerprint for c in result.candidates}

    def test_area_objective_is_constant_but_reported(self):
        result = run_search(self._spec(objectives=["latency", "energy", "area"]))
        areas = {candidate.objectives[2] for candidate in result.candidates}
        assert len(areas) == 1
        assert next(iter(areas)) > 0

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown nas spec key"):
            SearchSpec.from_dict({"base_network": "LeNet-5", "axis": []})
        with pytest.raises(ValueError, match="'base_network'"):
            SearchSpec.from_dict({"population": 4})
        with pytest.raises(ValueError, match="unknown mutation axis"):
            self._spec(axes=["widths"])
        with pytest.raises(ValueError, match="unknown objective"):
            self._spec(objectives=["latency", "speed"])
        with pytest.raises(ValueError, match="population"):
            self._spec(population=1)
        with pytest.raises(ValueError, match="generations"):
            self._spec(generations=0)
        with pytest.raises(KeyError):
            self._spec(base_network="not-a-network")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("population", True),
            ("seed", "3"),
            ("batch_size", 4.0),
            ("axes", "width"),
        ],
    )
    def test_mistyped_field_is_rejected_naming_the_key(self, key, value):
        with pytest.raises(ValueError, match=f"spec key {key!r}"):
            self._spec(**{key: value})

    def test_spec_accepts_zoo_aliases_and_files(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"base_network": "lenet5"}), encoding="utf-8")
        spec = SearchSpec.from_file(path)
        assert spec.base_network == "LeNet-5"
        assert spec.axes == ("width", "depth", "bits")

    def test_estimator_and_config_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            run_search(self._spec(), config=_config(), estimator=Estimator(_config()))


class TestNasCli:
    def _write_spec(self, tmp_path) -> str:
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "name": "cli smoke",
                    "base_network": "LeNet-5",
                    "population": 4,
                    "generations": 2,
                    "seed": 2,
                    "objectives": ["latency", "energy"],
                }
            ),
            encoding="utf-8",
        )
        return str(path)

    def test_nas_subcommand_writes_report(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path)
        out = tmp_path / "report.md"
        assert main(["nas", spec, "--output", str(out)]) == 0
        report = out.read_text(encoding="utf-8")
        assert "NAS candidate search" in report
        assert "estimator:" in report
        assert "candidates/second:" in report
        assert "layer hit rate" in report

    def test_nas_subcommand_warm_cache_simulates_nothing(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path)
        cache_dir = tmp_path / "cache"
        assert main(["nas", spec, "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["nas", spec, "--cache-dir", str(cache_dir)]) == 0
        warm = capsys.readouterr().out
        assert "0 simulated fresh" in warm
        assert "programs: 0 reused, 0 compiled" in warm
        priced = re.search(r"estimator: (\d+) candidates priced \(0 in-batch", warm)
        assert priced is not None, warm
        count = priced.group(1)
        assert f"results: {count} stored results read ({count} from disk)" in warm

    def test_nas_subcommand_rejects_bad_spec(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"population": 4}), encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["nas", str(path)])
