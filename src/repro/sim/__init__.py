"""Cycle-level performance and energy simulator for Bit Fusion.

The paper drives its evaluation with a cycle-accurate simulator that
executes Fusion-ISA instruction blocks and reports cycle counts plus the
number of accesses to the on-chip buffers and off-chip memory; energy comes
from multiplying those counts by synthesis / CACTI / DRAM per-access
energies.  This package is the equivalent component of the reproduction:

* :mod:`repro.sim.results`  — per-layer and per-network result records.
* :mod:`repro.sim.executor` — the simulator proper: one configuration's
  energy models, executing a compiled :class:`~repro.isa.program.Program`
  and producing a :class:`~repro.sim.results.NetworkResult`.
* :mod:`repro.sim.batched`  — the block model itself, vectorized: evaluates
  whole ``(sim-config, block)`` grids in numpy passes.
* :mod:`repro.sim.stats`    — aggregation helpers (geometric means,
  speedups, energy ratios) shared by the experiment harness.

The package namespace re-exports nothing; import from the modules.
"""
