"""Tests for the experiment harness (one runner per paper table/figure).

Full-suite experiment runs are exercised by the benchmark harness under
``benchmarks/``; these tests run reduced benchmark subsets so the unit suite
stays fast, and check the structural and qualitative properties each figure
relies on.
"""

from __future__ import annotations

import pytest

from repro.harness import paper_data, reporting
from repro.harness.experiments import (
    ablations,
    fig01_bitwidths,
    fig10_fusion_unit,
    fig13_eyeriss,
    fig14_breakdown,
    fig15_bandwidth,
    fig16_batch,
    fig17_gpu,
    fig18_stripes,
    isa_stats,
    tab02_benchmarks,
    tab03_platforms,
)

_FAST_SUBSET = ("LeNet-5", "LSTM")


class TestReporting:
    def test_format_table_aligns_rows(self):
        rows = [{"name": "a", "value": 1.0}, {"name": "b", "value": 12.5}]
        table = reporting.format_table(rows, title="demo")
        assert "demo" in table
        assert "name" in table and "value" in table

    def test_format_table_accepts_dataclass_rows(self):
        rows = fig01_bitwidths.run(benchmarks=("LeNet-5",))
        assert "LeNet-5" in reporting.format_table(rows)

    def test_format_table_rejects_unknown_row_type(self):
        with pytest.raises(TypeError):
            reporting.format_table([object()])


class TestFigure1AndTable2:
    def test_bitwidth_rows_cover_requested_benchmarks(self):
        rows = fig01_bitwidths.run(benchmarks=_FAST_SUBSET)
        assert [row.benchmark for row in rows] == list(_FAST_SUBSET)
        for row in rows:
            assert sum(row.mac_fraction_by_bits.values()) == pytest.approx(1.0)
            assert row.mac_op_fraction > 0.99

    def test_table2_rows_include_paper_reference(self):
        rows = tab02_benchmarks.run(benchmarks=_FAST_SUBSET)
        for row in rows:
            assert row.paper_macs_mops == paper_data.TABLE2_MACS_MOPS[row.benchmark]
            assert row.macs_mops > 0
        assert "Table II" in tab02_benchmarks.format_table(rows)


class TestTable3AndFigure10:
    def test_platform_table_covers_all_platforms(self):
        rows = tab03_platforms.run()
        platforms = {row.platform for row in rows}
        assert any("Eyeriss" in p for p in platforms)
        assert any("Stripes" in p for p in platforms)
        assert any("Titan" in p for p in platforms)
        assert sum("Bit Fusion" in p for p in platforms) == 3

    @pytest.mark.parametrize("attribute", ["TEGRA_X2", "TITAN_XP"])
    def test_each_gpu_row_reads_its_spec(self, monkeypatch, attribute):
        from dataclasses import replace

        spec = replace(
            getattr(tab03_platforms, attribute),
            cuda_cores=1234,
            clock_mhz=999.0,
            device_memory="3 GB HBM",
            technology="7nm",
        )
        monkeypatch.setattr(tab03_platforms, attribute, spec)
        (row,) = [row for row in tab03_platforms.run() if row.platform == spec.name]
        assert row.compute_units == "1,234 CUDA cores"
        assert row.frequency_mhz == 999.0
        assert row.on_chip_memory == "3 GB HBM (device memory)"
        assert row.technology == "7nm"
        assert row.precision.startswith("FP32")
        assert ("INT8" in row.precision) == (spec.peak_int8_gops > 0)

    def test_fusion_unit_rows_reproduce_figure10(self):
        rows = fig10_fusion_unit.run()
        totals = {
            (row.metric, row.component): row.reduction
            for row in rows
            if row.component == "total"
        }
        assert totals[("area (um^2)", "total")] == pytest.approx(3.5, rel=0.05)
        assert totals[("power (nW)", "total")] == pytest.approx(3.2, rel=0.05)

    def test_same_area_throughput_advantage(self):
        rows = fig10_fusion_unit.run_throughput_advantage()
        assert all(row["advantage"] > 1.0 for row in rows)


class TestAcceleratorComparisons:
    def test_eyeriss_comparison_wins_everywhere(self):
        summary = fig13_eyeriss.run(benchmarks=_FAST_SUBSET)
        assert all(row.speedup > 1.0 for row in summary.rows)
        assert all(row.energy_reduction > 1.0 for row in summary.rows)
        assert summary.geomean_speedup > 1.0
        assert "Eyeriss" in fig13_eyeriss.format_table(summary)

    def test_alexnet_per_layer_groups(self):
        rows = fig13_eyeriss.run_alexnet_per_layer()
        groups = {row["layer group"] for row in rows}
        assert "conv 8/8-bit" in groups
        assert "conv 4/1-bit" in groups
        low_precision = next(row for row in rows if row["layer group"] == "conv 4/1-bit")
        full_precision = next(row for row in rows if row["layer group"] == "conv 8/8-bit")
        assert low_precision["speedup"] > full_precision["speedup"]

    def test_stripes_comparison_wins_everywhere(self):
        summary = fig18_stripes.run(benchmarks=_FAST_SUBSET)
        assert all(row.speedup >= 1.0 for row in summary.rows)
        assert summary.geomean_energy_reduction > 1.0

    def test_gpu_comparison_ordering(self):
        summary = fig17_gpu.run(benchmarks=("LeNet-5", "VGG-7"))
        assert summary.geomean_titanx_fp32 > 1.0
        assert summary.geomean_bitfusion > 1.0
        assert "Tegra" in fig17_gpu.format_table(summary)


class TestEnergyBreakdownExperiment:
    def test_breakdown_rows_for_both_platforms(self):
        rows = fig14_breakdown.run(benchmarks=("LeNet-5",))
        platforms = {row.platform for row in rows}
        assert platforms == {"bitfusion", "eyeriss"}
        for row in rows:
            total = row.compute + row.buffers + row.register_file + row.dram
            assert total == pytest.approx(1.0)
            assert row.memory_fraction > 0.5

    def test_bitfusion_has_no_register_file_energy(self):
        rows = fig14_breakdown.run(benchmarks=("LeNet-5",))
        bitfusion = next(row for row in rows if row.platform == "bitfusion")
        eyeriss = next(row for row in rows if row.platform == "eyeriss")
        assert bitfusion.register_file == 0.0
        assert eyeriss.register_file > 0.2


class TestSensitivitySweeps:
    def test_bandwidth_sweep_normalized_to_reference(self):
        rows = fig15_bandwidth.run(benchmarks=("LSTM",), bandwidths=(64, 128, 256))
        row = rows[0]
        assert row.speedup_by_bandwidth[128] == pytest.approx(1.0)
        assert row.speedup_by_bandwidth[256] > row.speedup_by_bandwidth[64]

    def test_bandwidth_sweep_requires_reference_point(self):
        with pytest.raises(ValueError):
            fig15_bandwidth.run(benchmarks=("LSTM",), bandwidths=(64, 256))

    def test_recurrent_networks_scale_with_bandwidth(self):
        rows = fig15_bandwidth.run(benchmarks=("LSTM",), bandwidths=(64, 128, 256))
        lstm = rows[0].speedup_by_bandwidth
        assert lstm[256] / lstm[128] > 1.5

    def test_batch_sweep_normalized_to_batch_one(self):
        rows = fig16_batch.run(batch_sizes=(1, 16), benchmarks=_FAST_SUBSET)
        for row in rows:
            assert row.speedup_by_batch[1] == pytest.approx(1.0)
            assert row.speedup_by_batch[16] >= 1.0

    def test_batch_sweep_requires_batch_one(self):
        with pytest.raises(ValueError):
            fig16_batch.run(batch_sizes=(4, 16))

    def test_recurrent_networks_gain_most_from_batching(self):
        rows = fig16_batch.run(batch_sizes=(1, 64), benchmarks=("LSTM", "LeNet-5"))
        gains = {row.benchmark: row.speedup_by_batch[64] for row in rows}
        assert gains["LSTM"] > gains["LeNet-5"]
        assert gains["LSTM"] > 5.0


class TestIsaStatsAndAblations:
    def test_isa_stats_rows(self):
        rows = isa_stats.run(benchmarks=_FAST_SUBSET)
        for row in rows:
            assert row.min_instructions >= 10
            assert row.max_instructions <= 100
            assert row.binary_bytes == row.total_instructions * 4

    def test_ablations_show_each_mechanism_helps(self):
        rows = ablations.run(benchmarks=("LeNet-5",))
        row = rows[0]
        assert row.fixed_8bit_slowdown > 1.5
        assert row.no_layer_fusion_slowdown >= 1.0
        assert row.no_loop_ordering_slowdown >= 1.0

    def test_ablation_geomean_summary(self):
        rows = ablations.run(benchmarks=_FAST_SUBSET)
        summary = ablations.geomean_summary(rows)
        assert summary["fixed_8bit_slowdown"] > 1.0
        assert set(summary) == {
            "no_loop_ordering_slowdown",
            "no_layer_fusion_slowdown",
            "fixed_8bit_slowdown",
            "no_loop_ordering_energy_increase",
            "no_layer_fusion_energy_increase",
            "fixed_8bit_energy_increase",
        }
