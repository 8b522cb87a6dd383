"""Cycle-level performance and energy simulator for Bit Fusion.

The paper drives its evaluation with a cycle-accurate simulator that
executes Fusion-ISA instruction blocks and reports cycle counts plus the
number of accesses to the on-chip buffers and off-chip memory; energy comes
from multiplying those counts by synthesis / CACTI / DRAM per-access
energies.  This package is the equivalent component of the reproduction:

* :mod:`repro.sim.results`  — per-layer and per-network result records.
* :mod:`repro.sim.executor` — the simulator proper: one configuration's
  energy models, executing a :class:`~repro.isa.program.Program` compiled
  at a given batch size and producing a
  :class:`~repro.sim.results.NetworkResult`.  It does not compile;
  :class:`~repro.core.accelerator.BitFusionAccelerator` compiles and
  simulates in one call.
* :mod:`repro.sim.batched`  — the block model itself, vectorized: evaluates
  whole ``(sim-config, block)`` grids in numpy passes.  It is the only
  cycle, traffic and buffer-access model of Bit Fusion in ``src/``.
* :mod:`repro.sim.stats`    — the geometric mean the experiment harness
  summarizes with; speedups and energy ratios are
  :meth:`~repro.sim.results.NetworkResult.speedup_over` and
  :meth:`~repro.sim.results.NetworkResult.energy_reduction_over`.

The package namespace re-exports nothing; import from the modules.
"""
