"""Figure 14 — energy breakdown of Bit Fusion and Eyeriss by component."""

from __future__ import annotations

from repro.harness.experiments import fig14_breakdown


def test_fig14_energy_breakdown(benchmark, bench_once, capsys):
    rows = bench_once(benchmark, fig14_breakdown.run)

    with capsys.disabled():
        print()
        print(fig14_breakdown.format_table(rows))

    bitfusion_rows = [row for row in rows if row.platform == "bitfusion"]
    eyeriss_rows = [row for row in rows if row.platform == "eyeriss"]
    assert len(bitfusion_rows) == 8
    assert len(eyeriss_rows) == 8

    for row in bitfusion_rows:
        # Bit Fusion's systolic organization has no per-PE register files...
        assert row.register_file == 0.0
        # ...and memory accesses dominate its energy (paper: ~90% incl. buffers).
        assert row.buffers + row.dram > 0.75
        assert row.dram > row.compute

    for row in eyeriss_rows:
        # Eyeriss spends most of its energy moving data, with the register
        # file as the single largest consumer for the compute-heavy CNNs.
        assert row.buffers + row.register_file + row.dram > 0.7
        assert row.register_file > 0.1
    cnn_rows = [row for row in eyeriss_rows if row.benchmark in ("AlexNet", "Cifar-10", "VGG-7")]
    assert all(row.register_file > row.compute for row in cnn_rows)
