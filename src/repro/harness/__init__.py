"""Experiment harness: one runner per table/figure of the paper's evaluation.

Each experiment module exposes a ``run(...)`` function that returns plain
data rows (dataclasses) plus a ``format_table(...)`` helper that renders the
same rows the paper reports.  The benchmark suite under ``benchmarks/``
wraps these runners with ``pytest-benchmark`` so that regenerating every
figure is a single ``pytest benchmarks/ --benchmark-only`` invocation, and
``python -m repro.harness`` renders every table next to the paper's numbers.

Experiment index
----------------
==================================  =============================================
Module                              Paper artifact
==================================  =============================================
``experiments.fig01_bitwidths``     Figure 1 — bitwidth distributions
``experiments.tab02_benchmarks``    Table II — benchmark characteristics
``experiments.tab03_platforms``     Table III — evaluated platforms
``experiments.fig10_fusion_unit``   Figure 10 — Fusion Unit vs temporal design
``experiments.fig13_eyeriss``       Figure 13 — speedup / energy vs Eyeriss
``experiments.fig14_breakdown``     Figure 14 — energy breakdown
``experiments.fig15_bandwidth``     Figure 15 — bandwidth sensitivity
``experiments.fig16_batch``         Figure 16 — batch-size sensitivity
``experiments.fig17_gpu``           Figure 17 — comparison with GPUs
``experiments.fig18_stripes``       Figure 18 — speedup / energy vs Stripes
``experiments.isa_stats``           Section IV — instructions per block
``experiments.ablations``           Section IV-B — compiler-optimization ablations
==================================  =============================================
"""

from repro.harness.reporting import format_table, markdown_table
from repro.harness import paper_data

__all__ = ["format_table", "markdown_table", "paper_data"]
