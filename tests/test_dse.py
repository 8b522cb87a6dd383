"""Tests for the design-space exploration subsystem (repro.dse) and its CLI.

Covered properties:

* a SweepSpec expands to the full, deterministically ordered grid and each
  axis lands on the right configuration/workload field,
* Pareto extraction is exact on synthetic objective vectors (dominated
  points dropped, ties and duplicates kept, input order preserved),
* a sweep along non-compile axes (technology node) reuses one compiled
  program for the whole grid, and a warm sweep reads one stored result per
  unique workload with no compile or simulation,
* equal-cost workloads schedule in a stable fingerprint order regardless
  of input order, and
* the ``sweep`` subcommand and ``--cache-info`` work end to end, with the
  cache summary matching the store's segment index.
"""

from __future__ import annotations

import json
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from repro.dse.pareto import dominates, pareto_front, pareto_indices
from repro.dse.report import format_sweep_report
from repro.dse.runner import run_sweep
from repro.dse.spec import BASE_CONFIGS, CONFIG_AXES, DesignPoint, SweepSpec
from repro.harness.runner import format_cache_info, main
from repro.session import EvaluationSession, Workload
from repro.session import cache as cache_module
from repro.spec_fields import checked_field, checked_list


def small_spec(**overrides):
    payload = {
        "name": "test sweep",
        "networks": ["LeNet-5"],
        "batch_sizes": [16],
        "axes": {"technology": ["45nm", "16nm"]},
    }
    payload.update(overrides)
    return SweepSpec.from_dict(payload)


class TestSpecExpansion:
    def test_grid_size_is_the_cartesian_product(self):
        spec = small_spec(
            networks=["LeNet-5", "LSTM"],
            batch_sizes=[1, 16],
            axes={"array": [[16, 16], [32, 16]], "technology": ["45nm", "16nm", "65nm"]},
        )
        assert spec.grid_size() == 2 * 2 * 2 * 3
        points = spec.expand()
        assert len(points) == spec.grid_size()

    def test_expansion_is_deterministic_and_declaration_ordered(self):
        spec = small_spec(axes={"bandwidth": [64, 128], "technology": ["45nm", "16nm"]})
        first = [point.workload.fingerprint() for point in spec.expand()]
        second = [point.workload.fingerprint() for point in spec.expand()]
        assert first == second
        assert spec.axis_names == ("bandwidth", "technology")
        # The last axis varies fastest, like itertools.product.
        settings = [dict(point.settings) for point in spec.expand()]
        assert [s["technology"] for s in settings[:2]] == ["45nm", "16nm"]
        assert settings[0]["bandwidth"] == settings[1]["bandwidth"] == 64

    def test_expansion_equals_a_naive_per_point_build_and_shares_configs(self):
        spec = small_spec(
            networks=["LeNet-5", "LSTM", "AlexNet"],
            batch_sizes=[1, 16],
            axes={
                "array": [[16, 16], [32, 16]],
                "bandwidth": [64, 128],
                "fixed_bits": [None, 8],
                "layer_fusion": [True, False],
            },
        )
        naive = []
        for network, batch in product(spec.networks, spec.batch_sizes):
            for combination in product(*(values for _, values in spec.axes)):
                settings = tuple(zip(spec.axis_names, combination))
                values = dict(settings)
                config = BASE_CONFIGS[spec.base_config]
                for axis in ("array", "bandwidth"):
                    config = CONFIG_AXES[axis](config, values[axis])
                workload = Workload.bitfusion(
                    network,
                    batch_size=batch,
                    config=config,
                    fixed_bits=values["fixed_bits"],
                    enable_layer_fusion=values["layer_fusion"],
                )
                naive.append(DesignPoint(network, batch, settings, workload))
        points = spec.expand()
        assert points == naive
        assert [point.workload.fingerprint() for point in points] == [
            point.workload.fingerprint() for point in naive
        ]
        shared: dict[tuple, list] = {}
        for point in points:
            shared.setdefault((point.batch_size, point.settings), []).append(
                point.workload.config
            )
        assert len(shared) == 2 * 2 * 2 * 2 * 2
        for configs in shared.values():
            assert len(configs) == len(spec.networks)
            assert all(config is configs[0] for config in configs)
        # The batch is not part of the config: every batch shares it too.
        by_settings: dict[tuple, set] = {}
        for point in points:
            by_settings.setdefault(point.settings, set()).add(id(point.workload.config))
        assert len(by_settings) == 2 * 2 * 2 * 2
        assert all(len(ids) == 1 for ids in by_settings.values())

    def test_axes_land_on_the_right_config_fields(self):
        spec = small_spec(
            axes={
                "array": [[8, 4]],
                "buffers": [[16, 32, 8]],
                "technology": ["16nm"],
                "bandwidth": [256],
                "frequency": [250],
                "fixed_bits": [8],
                "loop_ordering": [False],
            }
        )
        (point,) = spec.expand()
        config = point.workload.config
        assert (config.rows, config.columns) == (8, 4)
        assert (config.ibuf_kb, config.wbuf_kb, config.obuf_kb) == (16, 32, 8)
        assert config.technology.name == "16nm"
        assert config.dram_bandwidth_bits_per_cycle == 256
        assert config.frequency_mhz == 250
        assert point.workload.fixed_bits == 8
        assert point.workload.enable_loop_ordering is False
        assert point.workload.enable_layer_fusion is True

    def test_network_aliases_canonicalize(self):
        spec = small_spec(networks=["lenet5"])
        assert spec.expand()[0].network == "LeNet-5"

    def test_unknown_axis_and_base_config_raise(self):
        with pytest.raises(ValueError, match="unknown sweep axis"):
            small_spec(axes={"voltage": [1.0]})
        with pytest.raises(ValueError, match="unknown base_config"):
            small_spec(base_config="tpu")
        with pytest.raises(ValueError, match="unknown sweep spec key"):
            SweepSpec.from_dict({"networks": ["LeNet-5"], "axis": {}})

    def test_checked_field_rejects_booleans_where_an_integer_is_due(self):
        assert checked_field("seed", 3, int) == 3
        assert checked_field("name", "grid", str) == "grid"
        with pytest.raises(ValueError, match="spec key 'seed' must be int, got True"):
            checked_field("seed", True, int)
        with pytest.raises(ValueError, match="spec key 'name' must be str, got 5"):
            checked_field("name", 5, str)

    def test_checked_list_returns_a_tuple_and_rejects_bare_strings(self):
        assert checked_list("networks", ["LeNet-5", "LSTM"], str) == ("LeNet-5", "LSTM")
        assert checked_list("batch_sizes", (1, 16), int) == (1, 16)
        with pytest.raises(ValueError, match="spec key 'networks' must be a list of str"):
            checked_list("networks", "LeNet-5", str)
        with pytest.raises(ValueError, match="spec key 'batch_sizes' must be a list of int"):
            checked_list("batch_sizes", [16, False], int)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("networks", "LeNet-5"),
            ("batch_sizes", [16.0]),
            ("objectives", [1]),
            ("base_config", ["eyeriss"]),
            ("name", None),
        ],
    )
    def test_mistyped_sweep_field_is_rejected_naming_the_key(self, key, value):
        with pytest.raises(ValueError, match=f"spec key {key!r}"):
            small_spec(**{key: value})

    def test_from_file_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps({"networks": ["LeNet-5"], "axes": {"bandwidth": [64, 128]}}),
            encoding="utf-8",
        )
        spec = SweepSpec.from_file(path)
        assert spec.grid_size() == 2


class TestPareto:
    def test_dominated_points_are_dropped(self):
        vectors = [(1.0, 1.0), (2.0, 2.0), (0.5, 3.0), (3.0, 0.5)]
        assert pareto_indices(vectors) == [0, 2, 3]

    def test_equal_vectors_both_survive(self):
        vectors = [(1.0, 1.0), (1.0, 1.0), (2.0, 2.0)]
        assert pareto_indices(vectors) == [0, 1]

    def test_single_objective_keeps_all_minima(self):
        assert pareto_indices([(2.0,), (1.0,), (1.0,)]) == [1, 2]

    def test_dominates_requires_strict_improvement_somewhere(self):
        assert not dominates((1.0, 1.0), (1.0, 1.0))
        assert dominates((1.0, 0.5), (1.0, 1.0))
        assert not dominates((0.5, 2.0), (1.0, 1.0))

    def test_pareto_front_preserves_input_order(self):
        items = [{"v": (3.0, 0.5)}, {"v": (1.0, 1.0)}, {"v": (2.0, 2.0)}]
        front = pareto_front(items, [lambda item: item["v"][0], lambda item: item["v"][1]])
        assert front == [items[0], items[1]]


class TestParetoSortBasedEquivalence:
    """The sort-based frontier must agree exactly with the quadratic oracle."""

    @settings(max_examples=300, deadline=None)
    @given(
        width=st.integers(min_value=1, max_value=4),
        data=st.data(),
    )
    def test_matches_quadratic_reference(self, width, data):
        from repro.dse.pareto import pareto_indices_quadratic

        values = st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
        )
        vectors = data.draw(
            st.lists(
                st.tuples(*([values] * width)),
                min_size=0,
                max_size=60,
            )
        )
        assert pareto_indices(vectors) == pareto_indices_quadratic(vectors)

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
    )
    def test_matches_quadratic_on_tie_heavy_grids(self, data):
        # Small integer coordinates force many exact ties and duplicate
        # vectors — the cases where a sloppy sort-based scan goes wrong.
        from repro.dse.pareto import pareto_indices_quadratic

        width = data.draw(st.integers(min_value=1, max_value=3))
        coords = st.integers(min_value=0, max_value=3).map(float)
        vectors = data.draw(
            st.lists(st.tuples(*([coords] * width)), min_size=0, max_size=40)
        )
        assert pareto_indices(vectors) == pareto_indices_quadratic(vectors)

    def test_mismatched_vector_lengths_raise(self):
        from repro.dse.pareto import pareto_indices_quadratic

        with pytest.raises(ValueError):
            pareto_indices([(1.0, 2.0), (1.0,)])
        with pytest.raises(ValueError):
            pareto_indices_quadratic([(1.0, 2.0), (1.0,)])

    def test_nan_objectives_match_quadratic_semantics(self):
        # A NaN-carrying point neither dominates nor is dominated under the
        # oracle's comparisons, so it always survives; the fast path must
        # agree instead of silently dropping it.
        from repro.dse.pareto import pareto_indices_quadratic

        nan = float("nan")
        for vectors in (
            [(1.0, nan)],
            [(1.0, nan), (0.5, 0.5)],
            [(nan,), (1.0,), (2.0,)],
            [(1.0, 2.0, 3.0), (nan, 0.1, 0.1), (1.0, 2.0, 3.0)],
        ):
            assert pareto_indices(vectors) == pareto_indices_quadratic(vectors)

    def test_large_frontier_scales(self):
        # A diagonal grid where every point is on the frontier — the worst
        # case for the frontier-scan fallback — still reduces instantly.
        points = [(float(i), float(2000 - i), 1.0) for i in range(2000)]
        assert pareto_indices(points) == list(range(2000))


class TestParetoArchive:
    def test_incremental_extend_matches_one_shot_reduction(self):
        from repro.dse.pareto import ParetoArchive

        vectors = [(3.0, 1.0), (1.0, 3.0), (2.0, 2.0), (0.5, 4.0), (4.0, 0.5)]
        archive = ParetoArchive()
        for index, vector in enumerate(vectors):
            archive.extend([(index, vector)])
        expected = pareto_indices(vectors)
        assert sorted(archive.items) == expected

    def test_dominated_entry_is_displaced_later(self):
        from repro.dse.pareto import ParetoArchive

        archive = ParetoArchive()
        archive.extend([("worse", (2.0, 2.0))])
        assert archive.items == ["worse"]
        archive.extend([("better", (1.0, 1.0))])
        assert archive.items == ["better"]

    def test_equal_vectors_both_survive(self):
        from repro.dse.pareto import ParetoArchive

        archive = ParetoArchive()
        archive.extend([("a", (1.0, 1.0))])
        archive.extend([("b", (1.0, 1.0))])
        assert archive.items == ["a", "b"]

    def test_empty_extend_is_a_noop(self):
        from repro.dse.pareto import ParetoArchive

        archive = ParetoArchive()
        archive.extend([])
        assert archive.items == []

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_batched_feeding_equals_global_frontier(self, data):
        # Transitivity of dominance makes the incremental frontier equal
        # the frontier of everything ever fed, no matter how the stream is
        # chopped into batches.
        from repro.dse.pareto import ParetoArchive, pareto_indices_quadratic

        coords = st.integers(min_value=0, max_value=4).map(float)
        vectors = data.draw(
            st.lists(st.tuples(coords, coords), min_size=0, max_size=40)
        )
        archive = ParetoArchive()
        position = 0
        while position < len(vectors):
            size = data.draw(st.integers(min_value=1, max_value=8))
            batch = vectors[position : position + size]
            archive.extend(list(enumerate(batch, start=position)))
            position += size
        expected = pareto_indices_quadratic(vectors)
        assert sorted(archive.items) == expected


class TestSweepExecution:
    def test_technology_sweep_compiles_each_network_once(self):
        spec = small_spec(
            axes={"array": [[16, 16], [32, 16]], "technology": ["45nm", "16nm"]}
        )
        with EvaluationSession() as session:
            result = run_sweep(spec, session)
        assert len(result) == 4
        # Neither axis reaches the compiler: one compile for the whole grid.
        assert session.stats.programs.misses == 1
        assert session.stats.programs.hits == 3

    def test_warm_sweep_reads_one_result_per_unique_workload(self, tmp_path, monkeypatch):
        spec = small_spec(
            networks=["LeNet-5", "LSTM"],
            axes={"bandwidth": [64, 128], "technology": ["45nm", "16nm"]},
        )
        with EvaluationSession(cache_dir=tmp_path) as cold_session:
            cold = run_sweep(spec, cold_session)
        unique = {point.workload.fingerprint() for point in spec.expand()}
        assert cold_session.stats.unique_executions == len(unique) == 8

        decoded: list[str] = []
        decode = cache_module.decode_result

        def counting_decode(header, rows):
            result = decode(header, rows)
            decoded.append(result.network_name)
            return result

        monkeypatch.setattr(cache_module, "decode_result", counting_decode)
        with EvaluationSession(cache_dir=tmp_path) as warm_session:
            warm = run_sweep(spec, warm_session)
        stats = warm_session.stats
        assert stats.unique_executions == 0 and stats.misses == 0
        assert stats.programs.lookups == 0 and stats.tilings.lookups == 0
        assert stats.blocks.lookups == 0
        # Exactly one network_result record read per unique workload.
        assert stats.disk_hits == len(decoded) == len(unique)
        assert format_sweep_report(warm) == format_sweep_report(cold)

    def test_buffer_axis_compiles_per_value(self):
        spec = small_spec(axes={"buffers": [[32, 64, 16], [16, 32, 8]]})
        with EvaluationSession() as session:
            run_sweep(spec, session)
        assert session.stats.programs.misses == 2

    def test_pareto_marks_match_report(self):
        spec = small_spec()
        with EvaluationSession() as session:
            result = run_sweep(spec, session)
        report = format_sweep_report(result)
        assert "Pareto frontier" in report
        frontier = result.pareto()
        assert frontier  # at least one non-dominated point
        starred = [row for row in result.rows() if row["pareto"] == "*"]
        assert len(starred) == len(frontier)


class TestCli:
    @pytest.fixture()
    def spec_path(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "name": "cli sweep",
                    "networks": ["LeNet-5"],
                    "axes": {"technology": ["45nm", "16nm"]},
                }
            ),
            encoding="utf-8",
        )
        return path

    def test_sweep_subcommand_cold_then_warm(self, tmp_path, spec_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["sweep", str(spec_path), "--cache-dir", str(cache_dir)]) == 0
        cold = capsys.readouterr().out
        assert "Pareto frontier" in cold
        assert "design points" in cold
        assert main(["sweep", str(spec_path), "--cache-dir", str(cache_dir)]) == 0
        warm = capsys.readouterr().out
        assert (
            "2 workload lookups: 2 cache hits (2 from disk), 0 misses, "
            "0 in-batch duplicates deduped, 0 unique executions (hit rate 100%)"
        ) in warm
        assert "program cache: 0 hits, 0 compiles" in warm
        assert "block cache: 0 hits, 0 block simulations" in warm
        section = "## Evaluation session statistics"
        assert warm.split(section)[0] == cold.split(section)[0]

    def test_cache_info_matches_the_store_index(self, tmp_path, spec_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["sweep", str(spec_path), "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["--cache-info", "--cache-dir", str(cache_dir)]) == 0
        info = capsys.readouterr().out
        # The segment sidecars are the only index: (offset, length, kind)
        # per key.
        kinds: dict[str, list[int]] = {}
        for sidecar in cache_dir.glob("pack-*.seg.idx"):
            entries = json.loads(sidecar.read_text(encoding="utf-8"))["entries"]
            for _, length, kind in entries.values():
                kinds.setdefault(kind, []).append(length)
        assert set(kinds) == {"network_result"}
        for kind, lengths in kinds.items():
            assert f"{kind}: {len(lengths)} entries, {sum(lengths) / 1024:.1f} KiB" in info
        total = sum(len(lengths) for lengths in kinds.values())
        assert f"total: {total} entries" in info
        # format_cache_info is the same path main() prints.
        assert format_cache_info(str(cache_dir)) == info.strip()

    def test_cache_info_requires_cache_dir(self):
        with pytest.raises(SystemExit):
            main(["--cache-info"])

    def test_sweep_rejects_missing_spec(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", str(tmp_path / "missing.json")])

    def test_dry_run_reports_cold_then_fully_cached(self, tmp_path, spec_path, capsys):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        assert main(["sweep", str(spec_path), "--dry-run", "--cache-dir", str(cache_dir)]) == 0
        cold = capsys.readouterr().out
        assert "dry run" in cold
        assert "cold: 2 workloads" in cold
        assert "planned grid already cached: 0/2 points (0%)" in cold
        # Nothing executed: opening the cache directory writes nothing.
        assert list(cache_dir.iterdir()) == []

    def test_dry_run_after_real_sweep_sees_everything_cached(
        self, tmp_path, spec_path, capsys
    ):
        cache_dir = tmp_path / "cache"
        assert main(["sweep", str(spec_path), "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["sweep", str(spec_path), "--dry-run", "--cache-dir", str(cache_dir)]) == 0
        warm = capsys.readouterr().out
        assert "cached: 2 workloads (result stored, no fresh work)" in warm
        assert "cold: 0 workloads" in warm
        assert "planned grid already cached: 2/2 points (100%)" in warm
        # The cache summary lists the one persisted kind.
        assert "network_result: 2 entries" in warm
        assert "partial" not in warm and "tiling" not in warm

    def test_dry_run_without_cache_dir_counts_everything_cold(self, spec_path, capsys):
        assert main(["sweep", str(spec_path), "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "cold: 2 workloads" in out
        assert "(no --cache-dir given: every workload counts as cold)" in out

    def test_dry_run_rejects_missing_cache_dir(self, tmp_path, spec_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "sweep",
                    str(spec_path),
                    "--dry-run",
                    "--cache-dir",
                    str(tmp_path / "nope"),
                ]
            )
