"""Cycle-level performance and energy simulator for Bit Fusion.

The paper drives its evaluation with a cycle-accurate simulator that
executes Fusion-ISA instruction blocks and reports cycle counts plus the
number of accesses to the on-chip buffers and off-chip memory; energy comes
from multiplying those counts by synthesis / CACTI / DRAM per-access
energies.  This package is the equivalent component of the reproduction:

* :mod:`repro.sim.results`     — per-layer and per-network result records.
* :mod:`repro.sim.memory`      — scratchpad and DRAM traffic accounting.
* :mod:`repro.sim.cycle_model` — compute-cycle model of the systolic array
  executing one tiled GEMM at a given fusion configuration.
* :mod:`repro.sim.executor`    — the simulator proper: executes a compiled
  :class:`~repro.isa.program.Program` block by block and produces a
  :class:`~repro.sim.results.NetworkResult`.
* :mod:`repro.sim.batched`     — the vectorized block executor: evaluates
  whole batches of ``(sim-config, block)`` pairs in numpy passes,
  bit-identical to the scalar ``run_block`` oracle.
* :mod:`repro.sim.stats`       — aggregation helpers (geometric means,
  speedups, energy ratios) shared by the experiment harness.
"""

from repro.sim.results import LayerResult, MemoryTraffic, NetworkResult
from repro.sim.memory import ScratchpadBuffer, DramChannel
from repro.sim.cycle_model import GemmCycleModel, CycleEstimate
from repro.sim.batched import simulate_blocks_grid
from repro.sim.executor import BitFusionSimulator, simulate_network
from repro.sim.stats import geometric_mean, speedup, energy_reduction

__all__ = [
    "LayerResult",
    "MemoryTraffic",
    "NetworkResult",
    "ScratchpadBuffer",
    "DramChannel",
    "GemmCycleModel",
    "CycleEstimate",
    "BitFusionSimulator",
    "simulate_network",
    "simulate_blocks_grid",
    "geometric_mean",
    "speedup",
    "energy_reduction",
]
