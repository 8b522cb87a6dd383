"""The Bit Fusion simulator: executes compiled programs block by block.

For every :class:`~repro.isa.program.CompiledBlock` the simulator

1. reads the fusion configuration from the block's ``setup`` instruction,
2. estimates the compute-phase cycles of the tiled GEMM on the systolic
   array (:class:`~repro.sim.cycle_model.GemmCycleModel`),
3. derives the off-chip traffic from the block's tiling plan and converts it
   to transfer cycles at the configured bandwidth,
4. counts on-chip buffer traffic from the systolic data flow (inputs are
   broadcast along rows, weights are private per Fusion Unit, partial sums
   accumulate down columns into the output buffer),
5. prices the counts with the compute / SRAM / DRAM energy models.

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
from math import ceil

from repro.core.config import BitFusionConfig
from repro.core.fusion_unit import FusionConfig
from repro.dnn.network import Network
from repro.energy.breakdown import EnergyBreakdown
from repro.energy.cacti import SramEnergyModel
from repro.energy.components import ComputeEnergyModel
from repro.energy.dram import DramEnergyModel
from repro.isa.compiler import FusionCompiler
from repro.isa.program import CompiledBlock, Program
from repro.sim.batched import simulate_blocks_grid
from repro.sim.cycle_model import GemmCycleModel
from repro.sim.results import (
    LayerResult,
    MemoryTraffic,
    NetworkResult,
    compose_network_result,
)

__all__ = ["BitFusionSimulator", "simulate_network"]

#: Partial sums accumulate at 32 bits in the output buffer (Figure 4).
_PARTIAL_SUM_BITS = 32


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

    :meth:`run_block` is the scalar reference for one block;
    :meth:`run_blocks` simulates a whole program through the vectorized
    :mod:`repro.sim.batched` executor, bit-identical to calling
    :meth:`run_block` on every block.

    Parameters
    ----------
    config:
        The accelerator configuration to simulate.
    """

    def __init__(self, config: BitFusionConfig) -> None:
        self.config = config
        self.cycle_model = GemmCycleModel(config)
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

    # ------------------------------------------------------------------ #
    # Block execution
    # ------------------------------------------------------------------ #
    def _buffer_traffic(
        self, block: CompiledBlock, fusion: FusionConfig, reduction_passes: int
    ) -> MemoryTraffic:
        """On-chip traffic implied by the systolic data flow for one block."""
        workload = block.tiling.workload
        macs = workload.macs

        input_lane_bits = fusion.input_lane_bits * fusion.temporal_passes
        weight_lane_bits = fusion.weight_lane_bits * fusion.temporal_passes

        # Weights are private to each Fused-PE: every multiply-accumulate
        # pulls its weight operand from the unit's weight buffer.
        wbuf_read_bits = macs * weight_lane_bits
        # Inputs are broadcast along rows: the same operand feeds every
        # column, so the input buffer is read once per column group.
        ibuf_read_bits = ceil(macs / self.config.columns) * input_lane_bits
        # Each output element visits the column accumulator / output buffer
        # once per pass over the reduction dimension.
        outputs = workload.m * workload.r
        obuf_write_bits = outputs * _PARTIAL_SUM_BITS * max(1, reduction_passes)
        obuf_read_bits = outputs * _PARTIAL_SUM_BITS * max(0, reduction_passes - 1)

        tiling = block.tiling
        return MemoryTraffic(
            dram_read_bits=int(
                tiling.dram_weight_bits
                + tiling.dram_input_bits
                + tiling.dram_output_read_bits
            ),
            dram_write_bits=int(tiling.dram_output_write_bits),
            ibuf_read_bits=int(ibuf_read_bits),
            wbuf_read_bits=int(wbuf_read_bits),
            obuf_read_bits=int(obuf_read_bits),
            obuf_write_bits=int(obuf_write_bits),
        )

    def _energy_breakdown(
        self, fusion: FusionConfig, macs: int, traffic: MemoryTraffic
    ) -> EnergyBreakdown:
        """Price the block's operation and traffic counts."""
        models = self._energy
        scale = self.config.technology.energy_scale
        compute_j = models.compute.fusion_energy_for_macs_j(fusion, macs)
        buffers_j = (
            models.ibuf.energy_for_bits_j(traffic.ibuf_read_bits)
            + models.wbuf.energy_for_bits_j(traffic.wbuf_read_bits)
            + models.obuf.energy_for_bits_j(
                traffic.obuf_read_bits + traffic.obuf_write_bits
            )
        ) * scale
        dram_j = models.dram.energy_for_bits_j(traffic.dram_total_bits)
        return EnergyBreakdown(
            compute=compute_j, buffers=buffers_j, register_file=0.0, dram=dram_j
        )

    def run_block(self, block: CompiledBlock) -> LayerResult:
        """Simulate one compiled block and return its layer result."""
        workload = block.tiling.workload
        fusion = self.cycle_model.fusion_config(workload.input_bits, workload.weight_bits)

        if block.layer.has_gemm():
            estimate = self.cycle_model.estimate(block.tiling)
            compute_cycles = estimate.compute_cycles
            overhead_cycles = estimate.fill_drain_cycles + len(block.block)
            utilization = estimate.utilization
            macs = workload.macs
            reduction_passes = max(1, block.tiling.n_tiles)
        else:
            # Standalone pooling/activation: the per-column units keep up
            # with the streaming rate, so the block is purely memory-bound.
            compute_cycles = 0
            overhead_cycles = len(block.block)
            utilization = 0.0
            macs = 0
            reduction_passes = 1

        traffic = self._buffer_traffic(block, fusion, reduction_passes)
        memory_cycles = ceil(
            traffic.dram_total_bits / self.config.dram_bandwidth_bits_per_cycle
        )
        energy = self._energy_breakdown(fusion, macs, traffic)

        return LayerResult(
            name=block.name,
            macs=macs,
            input_bits=workload.input_bits,
            weight_bits=workload.weight_bits,
            compute_cycles=int(compute_cycles),
            memory_cycles=int(memory_cycles),
            overhead_cycles=int(overhead_cycles),
            traffic=traffic,
            energy=energy,
            utilization=utilization,
        )

    # ------------------------------------------------------------------ #
    # Program / network execution
    # ------------------------------------------------------------------ #
    def run_blocks(self, program: Program) -> list[LayerResult]:
        """Simulate every block of a program independently (pipeline stage 2).

        Each block's result depends only on the block itself and the
        simulation-affecting configuration parameters, never on neighbouring
        blocks — which is what lets the evaluation session cache and reuse
        per-block results individually.
        """
        return simulate_blocks_grid([self], program.blocks)[0]

    def run_program(self, program: Program, batch_size: int | None = None) -> NetworkResult:
        """Simulate a compiled program and compose the per-block results."""
        batch = self.config.batch_size if batch_size is None else batch_size
        return compose_network_result(
            network_name=program.network_name,
            platform=self.config.name,
            batch_size=batch,
            frequency_mhz=self.config.frequency_mhz,
            layers=self.run_blocks(program),
        )

    def run_network(
        self,
        network: Network,
        batch_size: int | None = None,
        enable_loop_ordering: bool = True,
        enable_layer_fusion: bool = True,
    ) -> NetworkResult:
        """Compile and simulate a network in one call."""
        compiler = FusionCompiler(
            self.config,
            enable_loop_ordering=enable_loop_ordering,
            enable_layer_fusion=enable_layer_fusion,
        )
        program = compiler.compile(network, batch_size=batch_size)
        return self.run_program(program, batch_size=batch_size)


def simulate_network(
    network: Network, config: BitFusionConfig, batch_size: int | None = None
) -> NetworkResult:
    """Convenience wrapper: compile and simulate ``network`` on ``config``."""
    return BitFusionSimulator(config).run_network(network, batch_size=batch_size)
