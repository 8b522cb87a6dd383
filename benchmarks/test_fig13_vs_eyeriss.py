"""Figure 13 — Bit Fusion speedup and energy reduction over Eyeriss.

Shape checks: Bit Fusion wins on every benchmark, the binary networks
(Cifar-10, SVHN) gain the most, the recurrent and 8-bit-heavy networks gain
the least, and the geometric means land in the multi-x band the paper
reports (3.9x / 5.1x).  Absolute factors from this analytical simulator
overshoot the paper's RTL-validated numbers; the report's Figure 13 table
prints both side by side.
"""

from __future__ import annotations

from repro.harness.experiments import fig13_eyeriss


def test_fig13_speedup_and_energy_vs_eyeriss(benchmark, bench_once, capsys):
    summary = bench_once(benchmark, fig13_eyeriss.run)

    with capsys.disabled():
        print()
        print(fig13_eyeriss.format_table(summary))

    rows = {row.benchmark: row for row in summary.rows}
    assert len(rows) == 8

    # Who wins: Bit Fusion, everywhere, on both axes.
    assert all(row.speedup > 1.0 for row in summary.rows)
    assert all(row.energy_reduction > 1.0 for row in summary.rows)

    # Where the big and small wins fall (Figure 13 shape).
    assert rows["Cifar-10"].speedup == max(row.speedup for row in summary.rows)
    assert rows["Cifar-10"].speedup > rows["AlexNet"].speedup
    assert rows["SVHN"].speedup > rows["LSTM"].speedup
    assert rows["AlexNet"].speedup == min(
        rows[name].speedup for name in ("AlexNet", "Cifar-10", "SVHN", "VGG-7")
    )

    # Roughly what factor: clearly multi-x geomeans, same direction as 3.9x/5.1x.
    assert summary.geomean_speedup > 2.0
    assert summary.geomean_energy_reduction > 2.0
