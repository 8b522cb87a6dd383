"""Baseline platform models the paper compares Bit Fusion against.

Section V of the paper evaluates Bit Fusion against four classes of
baselines; each has a model here that produces the same
:class:`~repro.sim.results.NetworkResult` records as the Bit Fusion
simulator so the experiment harness can compute speedups and energy ratios
uniformly:

* :mod:`repro.baselines.platform` — the fixed-function platforms as
  parameter sets priced by one per-layer path: the 168-PE row-stationary
  Eyeriss at 16 bits (Figures 13, 14), the bit-serial Stripes with 16-bit
  inputs and serial weights (Figure 18), and the same-area temporal design
  (Section III-C).
* :mod:`repro.baselines.temporal` — the Figure 10 area/power comparison of
  the Fusion Unit against the temporal unit, and same-area throughput.
* :mod:`repro.baselines.gpu`      — roofline models of the Tegra X2 and
  Titan Xp GPUs in FP32 and INT8 modes (Figure 17).
"""
