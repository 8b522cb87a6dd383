"""Scalar tiling search: the pure-Python double loop over tile candidates.

:func:`repro.isa.tiling.search_tilings` scores the same (tile_m x tile_n x
loop_order) grid with numpy and must return plans bit-identical to
:func:`search_tiling_scalar` on every input its int64 guard admits.
"""

from __future__ import annotations

from math import ceil

from repro.core.config import BitFusionConfig
from repro.core.fusion_unit import PARTIAL_SUM_BITS
from repro.isa.instructions import LoopOrder
from repro.isa.tiling import (
    GemmWorkload,
    TilingPlan,
    _no_feasible_tiling,
    _traffic,
    tile_candidates,
)

__all__ = ["plan_tiling_scalar", "search_tiling_scalar"]


def plan_tiling_scalar(
    workload: GemmWorkload,
    config: BitFusionConfig,
    loop_order: LoopOrder = LoopOrder.OUTPUT_STATIONARY,
) -> TilingPlan:
    """Minimum-traffic tiling of ``workload`` for one loop order.

    The search enumerates power-of-two tile sizes for the ``M`` and ``N``
    loops, derives the largest ``R`` tile the input and output scratchpads
    allow, discards combinations that overflow the weight scratchpad, and
    keeps the candidate with the least total off-chip traffic (ties broken
    towards fewer, larger tiles).
    """
    ibuf_bits = int(config.ibuf_kb * 1024 * 8)
    wbuf_bits = int(config.wbuf_kb * 1024 * 8)
    obuf_bits = int(config.obuf_kb * 1024 * 8)

    best: TilingPlan | None = None
    best_key: tuple[int, int] | None = None

    for tile_m in tile_candidates(workload.m):
        for tile_n in tile_candidates(workload.n):
            if tile_m * tile_n * workload.weight_bits > wbuf_bits:
                continue
            # Largest R tile the input and output scratchpads both allow.
            r_by_ibuf = ibuf_bits // max(1, tile_n * workload.input_bits)
            r_by_obuf = obuf_bits // max(1, tile_m * PARTIAL_SUM_BITS)
            # Loop trip counts are encoded in 16-bit immediates (Table I),
            # so a single tile never spans more than 65535 input columns.
            tile_r = min(workload.r, r_by_ibuf, r_by_obuf, (1 << 16) - 1)
            if tile_r <= 0:
                continue

            m_tiles = ceil(workload.m / tile_m)
            n_tiles = ceil(workload.n / tile_n)
            r_tiles = ceil(workload.r / tile_r)
            weights, inputs, out_writes, out_reads = _traffic(
                workload, loop_order, m_tiles, n_tiles, r_tiles
            )
            plan = TilingPlan(
                workload=workload,
                loop_order=loop_order,
                tile_m=tile_m,
                tile_n=tile_n,
                tile_r=tile_r,
                dram_weight_bits=weights,
                dram_input_bits=inputs,
                dram_output_write_bits=out_writes,
                dram_output_read_bits=out_reads,
            )
            key = (plan.total_dram_bits, plan.tile_count)
            if best_key is None or key < best_key:
                best, best_key = plan, key

    if best is None:
        raise _no_feasible_tiling(workload, config)
    return best


def search_tiling_scalar(
    workload: GemmWorkload,
    config: BitFusionConfig,
    orders: tuple[LoopOrder, ...],
) -> TilingPlan:
    """Best scalar plan over ``orders``.

    Ties between orders break towards the earliest order in ``orders``,
    matching Python ``min`` over per-order winners.
    """
    if not orders:
        raise ValueError("at least one loop order must be considered")
    plans = [plan_tiling_scalar(workload, config, loop_order=order) for order in orders]
    return min(plans, key=lambda plan: (plan.total_dram_bits, plan.tile_count))
