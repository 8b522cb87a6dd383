"""Scalar block simulator: cycles, traffic and energy of one compiled block.

:func:`repro.sim.batched.simulate_blocks_grid` evaluates the same model for
whole ``(sim-config, block)`` grids in numpy passes; row ``i`` of its
result must equal ``[run_block(simulators[i], b) for b in blocks]`` field
for field, float bits included, for every block under its int64 guard.

For one block :func:`run_block`

1. reads the fusion configuration the block's operand bitwidths select,
2. estimates the compute-phase cycles of the tiled GEMM on the systolic
   array (:class:`GemmCycleModel`),
3. derives the off-chip traffic from the block's tiling plan and converts
   it to transfer cycles at the configured bandwidth,
4. counts on-chip buffer traffic from the systolic data flow (inputs are
   broadcast along rows, weights are private per Fusion Unit, partial sums
   accumulate down columns into the output buffer),
5. prices the counts with the simulator's compute / SRAM / DRAM models.

The cycle model maps every ``(M-tile, N-tile, R-tile)`` combination onto
the array: the tile's reduction dimension fills the logical rows, its
output neurons the columns, one column of partial sums retires per cycle
per temporal pass.  Partially filled tiles cost the same cycles as full
ones (the utilization loss that keeps small layers below peak), and each
output tile pays an array fill/drain of ``rows + columns`` cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from repro.core.config import BitFusionConfig
from repro.core.fusion_unit import PARTIAL_SUM_BITS, FusionConfig, fusion_config_for
from repro.energy.breakdown import EnergyBreakdown
from repro.isa.program import CompiledBlock
from repro.isa.tiling import TilingPlan
from repro.sim.executor import BitFusionSimulator
from repro.sim.results import LayerResult, MemoryTraffic

__all__ = ["CycleEstimate", "GemmCycleModel", "run_block"]


@dataclass(frozen=True)
class CycleEstimate:
    """Compute-phase cycle estimate of one block.

    Attributes
    ----------
    compute_cycles:
        Cycles the systolic array spends issuing multiply-accumulates.
    fill_drain_cycles:
        Pipeline fill/drain cycles across all output tiles.
    ideal_cycles:
        Cycles a perfectly utilized array would need (``MACs / peak rate``).
    """

    compute_cycles: int
    fill_drain_cycles: int
    ideal_cycles: int

    @property
    def total_cycles(self) -> int:
        return self.compute_cycles + self.fill_drain_cycles

    @property
    def utilization(self) -> float:
        """Achieved fraction of the array's peak throughput (0..1)."""
        if self.total_cycles == 0:
            return 0.0
        return min(1.0, self.ideal_cycles / self.total_cycles)


def _tiled_quotient_sum(extent: int, tile: int, divisor: int) -> int:
    """Sum of ``ceil(tile_size / divisor)`` over the tiles covering ``extent``.

    Edge tiles are smaller than ``tile``; this helper accounts for them
    exactly instead of multiplying the full-tile cost by the tile count.
    """
    if extent <= 0 or tile <= 0 or divisor <= 0:
        raise ValueError(
            f"extent, tile and divisor must be positive, got {extent}, {tile}, {divisor}"
        )
    full_tiles, remainder = divmod(extent, tile)
    total = full_tiles * ceil(tile / divisor)
    if remainder:
        total += ceil(remainder / divisor)
    return total


class GemmCycleModel:
    """Maps tiled GEMMs onto the systolic array and reports cycle counts."""

    def __init__(self, config: BitFusionConfig) -> None:
        self.config = config

    def fusion_config(self, input_bits: int, weight_bits: int) -> FusionConfig:
        """Fusion configuration the ``setup`` instruction establishes."""
        return fusion_config_for(input_bits, weight_bits)

    def estimate(self, tiling: TilingPlan) -> CycleEstimate:
        """Cycle estimate for executing one tiled GEMM on the array."""
        workload = tiling.workload
        fusion = self.fusion_config(workload.input_bits, workload.weight_bits)

        rows = self.config.rows
        columns = self.config.columns
        logical_rows = rows * fusion.fused_pes

        # Reduction dimension: each pass through the array covers
        # ``logical_rows`` elements of N; output dimension: ``columns``
        # neurons per pass.  Edge tiles are accounted exactly.
        reduction_passes = _tiled_quotient_sum(workload.n, tiling.tile_n, logical_rows)
        output_passes = _tiled_quotient_sum(workload.m, tiling.tile_m, columns)

        compute_cycles = (
            reduction_passes * output_passes * workload.r * fusion.temporal_passes
        )

        # One fill/drain per output tile per R tile (outputs stream through
        # the column accumulators once per input-column group).
        output_tiles = tiling.m_tiles * tiling.r_tiles
        fill_drain_cycles = output_tiles * (rows + columns)

        peak_macs_per_cycle = rows * columns * fusion.fused_pes / fusion.temporal_passes
        ideal_cycles = ceil(workload.macs / peak_macs_per_cycle)

        return CycleEstimate(
            compute_cycles=int(compute_cycles),
            fill_drain_cycles=int(fill_drain_cycles),
            ideal_cycles=int(ideal_cycles),
        )

    def buffer_accesses_per_compute_cycle(self, fusion: FusionConfig) -> dict[str, int]:
        """Data-array accesses per active compute cycle, by scratchpad.

        The systolic data flow reads one input word per row per cycle
        (shared across the row's Fusion Units), one weight word per Fusion
        Unit per cycle (private WBUF) and accumulates one partial-sum word
        per column per cycle in the output buffer (read + write).
        """
        del fusion  # access counts are set by the array geometry, not the bitwidth
        return {
            "ibuf_reads": self.config.rows,
            "wbuf_reads": self.config.fusion_units,
            "obuf_reads": self.config.columns,
            "obuf_writes": self.config.columns,
        }


def _buffer_traffic(
    simulator: BitFusionSimulator,
    block: CompiledBlock,
    fusion: FusionConfig,
    reduction_passes: int,
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
    ibuf_read_bits = ceil(macs / simulator.config.columns) * input_lane_bits
    # Each output element visits the column accumulator / output buffer
    # once per pass over the reduction dimension.
    outputs = workload.m * workload.r
    obuf_write_bits = outputs * PARTIAL_SUM_BITS * max(1, reduction_passes)
    obuf_read_bits = outputs * PARTIAL_SUM_BITS * max(0, reduction_passes - 1)

    tiling = block.tiling
    return MemoryTraffic(
        dram_read_bits=int(
            tiling.dram_weight_bits + tiling.dram_input_bits + tiling.dram_output_read_bits
        ),
        dram_write_bits=int(tiling.dram_output_write_bits),
        ibuf_read_bits=int(ibuf_read_bits),
        wbuf_read_bits=int(wbuf_read_bits),
        obuf_read_bits=int(obuf_read_bits),
        obuf_write_bits=int(obuf_write_bits),
    )


def _energy_breakdown(
    simulator: BitFusionSimulator, fusion: FusionConfig, macs: int, traffic: MemoryTraffic
) -> EnergyBreakdown:
    """Price the block's operation and traffic counts."""
    models = simulator._energy
    scale = simulator.config.technology.energy_scale
    compute_j = models.compute.fusion_energy_for_macs_j(fusion, macs)
    buffers_j = (
        models.ibuf.energy_for_bits_j(traffic.ibuf_read_bits)
        + models.wbuf.energy_for_bits_j(traffic.wbuf_read_bits)
        + models.obuf.energy_for_bits_j(traffic.obuf_read_bits + traffic.obuf_write_bits)
    ) * scale
    dram_j = models.dram.energy_for_bits_j(traffic.dram_total_bits)
    return EnergyBreakdown(compute=compute_j, buffers=buffers_j, register_file=0.0, dram=dram_j)


def run_block(simulator: BitFusionSimulator, block: CompiledBlock) -> LayerResult:
    """Simulate one compiled block on ``simulator``'s configuration."""
    config = simulator.config
    cycle_model = GemmCycleModel(config)
    workload = block.tiling.workload
    fusion = cycle_model.fusion_config(workload.input_bits, workload.weight_bits)

    if block.layer.has_gemm():
        estimate = cycle_model.estimate(block.tiling)
        compute_cycles = estimate.compute_cycles
        overhead_cycles = estimate.fill_drain_cycles + len(block.block)
        utilization = estimate.utilization
        macs = workload.macs
        reduction_passes = max(1, block.tiling.n_tiles)
    else:
        # Standalone pooling/activation: the per-column units keep up with
        # the streaming rate, so the block is purely memory-bound.
        compute_cycles = 0
        overhead_cycles = len(block.block)
        utilization = 0.0
        macs = 0
        reduction_passes = 1

    traffic = _buffer_traffic(simulator, block, fusion, reduction_passes)
    memory_cycles = ceil(traffic.dram_total_bits / config.dram_bandwidth_bits_per_cycle)
    energy = _energy_breakdown(simulator, fusion, macs, traffic)

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
