"""The Bit Fusion simulator: executes compiled programs block by block.

For every :class:`~repro.isa.program.CompiledBlock` the simulator
(:func:`repro.sim.batched.simulate_blocks_grid`)

1. reads the fusion configuration the block's operand bitwidths select,
2. estimates the compute-phase cycles of the tiled GEMM on the systolic
   array,
3. derives the off-chip traffic from the block's tiling plan and converts it
   to transfer cycles at the configured bandwidth,
4. counts on-chip buffer traffic from the systolic data flow (inputs are
   broadcast along rows, weights are private per Fusion Unit, partial sums
   accumulate down columns into the output buffer),
5. prices the counts with the compute / SRAM / DRAM energy models bound
   here, per configuration.

The block's latency is ``max(compute, memory) + overheads`` because the ISA
decouples on-chip execution from off-chip transfers (double-buffered
scratchpads, Section IV-A); the per-block overhead covers instruction
fetch/decode and array fill/drain.

Pooling and activation layers that were *not* fused into a compute block are
charged their data movement (they are always memory-bound) and the pooling
comparisons are assumed to hide entirely under the transfer time, matching
the paper's treatment of the per-column units.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import BitFusionConfig
from repro.energy.cacti import SramEnergyModel
from repro.energy.components import ComputeEnergyModel
from repro.energy.dram import DramEnergyModel
from repro.isa.program import Program
from repro.sim.batched import simulate_blocks_grid
from repro.sim.results import LayerResult, NetworkResult, compose_network_result

__all__ = ["BitFusionSimulator"]


@dataclass(frozen=True)
class _EnergyModels:
    """The per-component energy models bound to one accelerator configuration."""

    compute: ComputeEnergyModel
    ibuf: SramEnergyModel
    wbuf: SramEnergyModel
    obuf: SramEnergyModel
    dram: DramEnergyModel


class BitFusionSimulator:
    """Cycle and energy simulator for one Bit Fusion configuration.

    :meth:`run_blocks` simulates a whole program through the vectorized
    :mod:`repro.sim.batched` executor; the session engine hands whole
    ``(simulator, block)`` grids to the same executor.

    Parameters
    ----------
    config:
        The accelerator configuration to simulate.
    """

    def __init__(self, config: BitFusionConfig) -> None:
        self.config = config
        scale = config.technology.energy_scale
        # The weight buffer is physically distributed: one small bank per
        # Fusion Unit (Figure 3), which is what makes its per-access energy
        # register-file-like.  The input/output buffers are banked per
        # row/column; energy is modelled per bank.
        wbuf_bank_kb = max(config.wbuf_kb / config.fusion_units, 1.0 / 16.0)
        ibuf_bank_kb = max(config.ibuf_kb / config.rows, 0.25)
        obuf_bank_kb = max(config.obuf_kb / config.columns, 0.25)
        self._energy = _EnergyModels(
            compute=ComputeEnergyModel(technology=config.technology),
            ibuf=SramEnergyModel(capacity_kb=ibuf_bank_kb, access_bits=config.buffer_access_bits),
            wbuf=SramEnergyModel(capacity_kb=wbuf_bank_kb, access_bits=config.buffer_access_bits),
            obuf=SramEnergyModel(capacity_kb=obuf_bank_kb, access_bits=config.buffer_access_bits),
            # The 45 nm DRAM reference, scaled by the technology node.
            dram=DramEnergyModel(pj_per_bit=DramEnergyModel().pj_per_bit * scale),
        )

    def run_blocks(self, program: Program) -> list[LayerResult]:
        """Simulate every block of a program independently (pipeline stage 2).

        Each block's result depends only on the block itself and the
        simulation-affecting configuration parameters, never on neighbouring
        blocks — which is what lets the evaluation session cache and reuse
        per-block results individually.
        """
        return simulate_blocks_grid([self], program.blocks)[0]

    def run_program(self, program: Program, batch_size: int) -> NetworkResult:
        """Simulate a program compiled at ``batch_size`` and compose its blocks."""
        return compose_network_result(
            network_name=program.network_name,
            platform=self.config.name,
            batch_size=batch_size,
            frequency_mhz=self.config.frequency_mhz,
            layers=self.run_blocks(program),
        )
