"""Cycle-level performance and energy simulator for Bit Fusion.

The paper drives its evaluation with a cycle-accurate simulator that
executes Fusion-ISA instruction blocks and reports cycle counts plus the
number of accesses to the on-chip buffers and off-chip memory; energy comes
from multiplying those counts by synthesis / CACTI / DRAM per-access
energies.  This package is the equivalent component of the reproduction:

* :mod:`repro.sim.results`  — per-layer and per-network result records,
  and the composition of block results into a network result.
* :mod:`repro.sim.batched`  — the simulator proper, vectorized: prices
  whole ``(config, block)`` grids of compiled blocks in numpy passes with
  each configuration's energy models
  (:func:`~repro.sim.batched.energy_models`).  It is the only cycle,
  traffic and buffer-access model of Bit Fusion in ``src/``.  It does not
  compile;
  :class:`~repro.core.accelerator.BitFusionAccelerator` compiles, simulates
  and composes in one call.
* :mod:`repro.sim.stats`    — the geometric mean the experiment harness
  summarizes with; speedups and energy ratios are
  :meth:`~repro.sim.results.NetworkResult.speedup_over` and
  :meth:`~repro.sim.results.NetworkResult.energy_reduction_over`.

The package namespace re-exports nothing; import from the modules.
"""
