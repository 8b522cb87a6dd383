"""The block simulator, vectorized over ``(sim-config, block)`` grids.

One numpy pass per configuration row prices every block of a batch:
compute cycles of the tiled GEMM on the systolic array, DRAM traffic from
the block's tiling plan and its conversion to transfer cycles, on-chip
buffer traffic from the systolic data flow, and the energy of all of it
(see :mod:`repro.sim.executor` for the model).  The per-block
structure-of-arrays extraction is done once and broadcast across every
configuration row, which is what makes bandwidth and geometry sweeps cheap.

The model's readable scalar spec — one block at a time in plain Python —
lives with the tests (``tests/reference/simulator.py``), and the tests
hold this module to it field for field, float bits included:

* all integer quantities (cycles, traffic bits) are computed in ``int64``
  with the spec's formulas; where the spec takes ``math.ceil`` of a true
  division, so does this module;
* the scalar spec's float operations are true divisions of integers
  (``math.ceil(a / b)``, ``ideal / total``) and the energy pricing
  products.  IEEE-754 division and multiplication are deterministic, and
  an integer below ``2**53`` converts to ``float64`` exactly, so for such
  operands ``np.float64`` reproduces the Python ``float`` bit for bit.
  Past ``2**53`` the operands round before dividing; the tests then hold
  floats to a relative ``1e-12``;
* energy formulas keep the spec's association order
  (``(bits * pj_per_bit) * 1e-12``, buffer terms summed left to right, the
  sum scaled last), and the per-configuration scalars (peak MAC rate, MAC
  energy, per-bit SRAM/DRAM prices) come *from the simulator's own energy
  models*, never recomputed.

A block whose counts could overflow ``int64`` — bounded by the tiling
search's :data:`~repro.isa.tiling._INT64_SAFE_BOUND` — is rejected with a
one-line :class:`ValueError` that names it.  No in-zoo workload comes near
the bound.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.fusion_unit import PARTIAL_SUM_BITS, FusionConfig, fusion_config_for
from repro.energy.breakdown import EnergyBreakdown
from repro.isa.program import CompiledBlock
from repro.isa.tiling import _INT64_SAFE_BOUND
from repro.sim.results import LayerResult, MemoryTraffic

if TYPE_CHECKING:  # pragma: no cover - annotation-only import (cycle guard)
    from repro.sim.executor import BitFusionSimulator

__all__ = ["simulate_blocks_grid"]


def _tiled_quotient_sum(
    extent: np.ndarray, tile: np.ndarray, divisor: np.ndarray
) -> np.ndarray:
    """Sum of ``ceil(tile_size / divisor)`` over the tiles covering ``extent``.

    Edge tiles are smaller than ``tile`` and are accounted exactly: an
    integer ``divmod`` plus ``ceil`` of *true divisions* (as the scalar
    spec divides Python ints).  ``ceil(0 / d) == 0`` so the empty-remainder
    case needs no mask.
    """
    full = extent // tile
    remainder = extent - full * tile
    divisor_f = divisor.astype(np.float64)
    per_full = np.ceil(tile.astype(np.float64) / divisor_f).astype(np.int64)
    per_rem = np.ceil(remainder.astype(np.float64) / divisor_f).astype(np.int64)
    return full * per_full + per_rem


def _ceil_div(numerator_f: np.ndarray, divisor_f) -> np.ndarray:
    """``math.ceil(a / b)`` replayed on float64 arrays, returned as int64."""
    return np.ceil(numerator_f / divisor_f).astype(np.int64)


def _materialize(
    name: str,
    macs: int,
    input_bits: int,
    weight_bits: int,
    compute_cycles: int,
    memory_cycles: int,
    overhead_cycles: int,
    dram_read_bits: int,
    dram_write_bits: int,
    ibuf_read_bits: int,
    wbuf_read_bits: int,
    obuf_read_bits: int,
    obuf_write_bits: int,
    compute_j: float,
    buffers_j: float,
    dram_j: float,
    utilization: float,
) -> LayerResult:
    """Construct a :class:`LayerResult` without re-running field validation.

    The batched path produces values the validating constructors would
    accept; skipping ``__post_init__`` here keeps materialization from
    dominating the vectorized win.  The frozen
    dataclasses are not slotted, so populating the instance ``__dict__``
    in one assignment is both legal and the fastest construction path;
    field-based equality, hashing and ``asdict`` serialization are
    unaffected.
    """
    set_ = object.__setattr__
    traffic = MemoryTraffic.__new__(MemoryTraffic)
    set_(
        traffic,
        "__dict__",
        {
            "dram_read_bits": dram_read_bits,
            "dram_write_bits": dram_write_bits,
            "ibuf_read_bits": ibuf_read_bits,
            "wbuf_read_bits": wbuf_read_bits,
            "obuf_read_bits": obuf_read_bits,
            "obuf_write_bits": obuf_write_bits,
            "register_file_bits": 0,
        },
    )
    energy = EnergyBreakdown.__new__(EnergyBreakdown)
    set_(
        energy,
        "__dict__",
        {
            "compute": compute_j,
            "buffers": buffers_j,
            "register_file": 0.0,
            "dram": dram_j,
        },
    )
    result = LayerResult.__new__(LayerResult)
    set_(
        result,
        "__dict__",
        {
            "name": name,
            "macs": macs,
            "input_bits": input_bits,
            "weight_bits": weight_bits,
            "compute_cycles": compute_cycles,
            "memory_cycles": memory_cycles,
            "overhead_cycles": overhead_cycles,
            "traffic": traffic,
            "energy": energy,
            "utilization": utilization,
        },
    )
    return result


def simulate_blocks_grid(
    simulators: Sequence["BitFusionSimulator"], blocks: Sequence[CompiledBlock]
) -> list[list[LayerResult]]:
    """Simulate a ``(sim-config, block)`` grid in one vectorized pass.

    ``simulators`` are rows, ``blocks`` are columns; row ``i`` holds one
    :class:`LayerResult` per block, in block order, priced at
    ``simulators[i]``'s configuration.  This is the 2-D entry point the
    session engine uses for sweeps that vary only simulation parameters
    (bandwidth, frequency, array geometry).

    Raises :class:`ValueError` for a block whose counts could overflow
    ``int64`` or whose GEMM has a non-positive tile.  The overflow bound
    covers every intermediate this function materializes:

    * traffic bits are at most ``32 * macs`` per structure and the energy
      model sums output-buffer reads and writes (``<= 64 * macs``),
    * compute cycles are at most ``4 * macs`` (``temporal_passes <= 4``)
      and fill/drain is at most ``m * r * (rows + columns)``, so their sum
      bounds total/overhead cycles (``max_fill`` uses the largest array
      among the configuration rows),
    * the memory-cycle conversion divides the summed DRAM traffic.
    """
    blocks = list(blocks)
    if not blocks:
        return [[] for _ in simulators]
    max_fill = max(sim.config.rows + sim.config.columns for sim in simulators)
    limit = _INT64_SAFE_BOUND

    # ---- structure-of-arrays extraction (shared across all config rows) --
    # One tuple per block, transposed into columns afterwards: a single
    # ``append`` per block beats one list per field by a wide margin, and
    # this loop is the sequential floor of the batched path.
    fusion_index: dict[tuple[int, int], int] = {}
    fusions: list[FusionConfig] = []
    lanes: list[tuple] = []
    append = lanes.append
    for block in blocks:
        tiling = block.tiling
        workload = tiling.workload
        m_v = workload.m
        n_v = workload.n
        r_v = workload.r
        macs_v = m_v * n_v * r_v
        dram_read_v = int(
            tiling.dram_weight_bits
            + tiling.dram_input_bits
            + tiling.dram_output_read_bits
        )
        dram_write_v = int(tiling.dram_output_write_bits)
        gemm = block.layer.has_gemm()
        tm, tn, tr = tiling.tile_m, tiling.tile_n, tiling.tile_r
        if (
            64 * macs_v >= limit
            or 4 * macs_v + m_v * r_v * max_fill >= limit
            or dram_read_v + dram_write_v >= limit
        ):
            raise ValueError(
                f"block {block.name!r} is too large to simulate: its counts "
                f"({macs_v} MACs, {dram_read_v + dram_write_v} DRAM bits) "
                f"could overflow int64 (bound 2**62)"
            )
        if gemm and (tm <= 0 or tn <= 0 or tr <= 0):
            raise ValueError(
                f"block {block.name!r} has a non-positive GEMM tile {tm}x{tn}x{tr}"
            )
        key = (workload.input_bits, workload.weight_bits)
        fusion = fusion_index.get(key)
        if fusion is None:
            fusion = len(fusions)
            fusion_index[key] = fusion
            fusions.append(fusion_config_for(*key))
        if not gemm:
            # Sanitized tile extents keep the (masked-out) vector lanes of
            # the cycle model free of divisions by zero.
            tm = tm if tm > 0 else 1
            tn = tn if tn > 0 else 1
            tr = tr if tr > 0 else 1
        append(
            (
                block.name,
                key[0],
                key[1],
                fusion,
                m_v,
                n_v,
                r_v,
                macs_v,
                gemm,
                tm,
                tn,
                tr,
                dram_read_v,
                dram_write_v,
                len(block.block),
            )
        )

    count = len(lanes)
    (
        names,
        ib_list,
        wb_list,
        fi_l,
        m_l,
        n_l,
        r_l,
        macs_l,
        gemm_l,
        tile_m_l,
        tile_n_l,
        tile_r_l,
        dram_read_list,
        dram_write_list,
        block_len_l,
    ) = zip(*lanes)
    fi = np.array(fi_l, dtype=np.int64)
    m = np.array(m_l, dtype=np.int64)
    n = np.array(n_l, dtype=np.int64)
    r = np.array(r_l, dtype=np.int64)
    macs = np.array(macs_l, dtype=np.int64)
    tile_m = np.array(tile_m_l, dtype=np.int64)
    tile_n = np.array(tile_n_l, dtype=np.int64)
    tile_r = np.array(tile_r_l, dtype=np.int64)
    dram_read = np.array(dram_read_list, dtype=np.int64)
    dram_write = np.array(dram_write_list, dtype=np.int64)
    block_len = np.array(block_len_l, dtype=np.int64)
    is_gemm = np.array(gemm_l, dtype=bool)

    # Per-fusion, configuration-independent lane widths and pass counts.
    temporal = np.array([f.temporal_passes for f in fusions], dtype=np.int64)
    fused_pes = np.array([f.fused_pes for f in fusions], dtype=np.int64)
    input_lane = np.array(
        [f.input_lane_bits * f.temporal_passes for f in fusions], dtype=np.int64
    )
    weight_lane = np.array(
        [f.weight_lane_bits * f.temporal_passes for f in fusions], dtype=np.int64
    )

    m_f = m.astype(np.float64)
    r_f = r.astype(np.float64)
    macs_f = macs.astype(np.float64)
    temporal_b = temporal[fi]
    input_lane_b = input_lane[fi]
    weight_lane_b = weight_lane[fi]

    # Tile counts are float-ceil of true divisions (TilingPlan properties).
    m_tiles = _ceil_div(m_f, tile_m.astype(np.float64))
    n_tiles = _ceil_div(n.astype(np.float64), tile_n.astype(np.float64))
    r_tiles = _ceil_div(r_f, tile_r.astype(np.float64))
    reduction_passes = np.where(is_gemm, np.maximum(1, n_tiles), 1)

    # Traffic shared across configuration rows except the ibuf column term.
    outputs = m * r
    wbuf_bits = macs * weight_lane_b
    obuf_write_bits = outputs * PARTIAL_SUM_BITS * np.maximum(1, reduction_passes)
    obuf_read_bits = outputs * PARTIAL_SUM_BITS * np.maximum(0, reduction_passes - 1)
    obuf_total_f = (obuf_read_bits + obuf_write_bits).astype(np.float64)
    dram_total = dram_read + dram_write
    dram_total_f = dram_total.astype(np.float64)
    wbuf_f = wbuf_bits.astype(np.float64)

    wbuf_list = wbuf_bits.tolist()
    obuf_read_list = obuf_read_bits.tolist()
    obuf_write_list = obuf_write_bits.tolist()

    rows_out: list[list[LayerResult]] = []
    for sim in simulators:
        config = sim.config
        models = sim._energy
        rows = config.rows
        columns = config.columns
        scale = config.technology.energy_scale
        bandwidth = float(config.dram_bandwidth_bits_per_cycle)
        ibuf_pj = models.ibuf.energy_per_bit_pj
        wbuf_pj = models.wbuf.energy_per_bit_pj
        obuf_pj = models.obuf.energy_per_bit_pj
        dram_pj = models.dram.pj_per_bit
        # Per-fusion scalars computed through the simulator's own models so
        # the float values are the scalar spec's, bit for bit.
        logical_rows = rows * fused_pes
        peak = np.array(
            [
                rows * columns * f.fused_pes / f.temporal_passes
                for f in fusions
            ],
            dtype=np.float64,
        )
        mac_pj = np.array(
            [models.compute.fusion_mac_energy_pj(f) for f in fusions],
            dtype=np.float64,
        )

        # ---- cycle model (GemmCycleModel.estimate, vectorized) ----------
        red = _tiled_quotient_sum(n, tile_n, logical_rows[fi])
        out_passes = _tiled_quotient_sum(m, tile_m, np.full(count, columns, dtype=np.int64))
        compute = red * out_passes * r * temporal_b
        fill_drain = m_tiles * r_tiles * (rows + columns)
        ideal = _ceil_div(macs_f, peak[fi])
        total = compute + fill_drain
        utilization = np.where(
            total > 0,
            np.minimum(
                1.0, ideal.astype(np.float64) / np.maximum(total, 1).astype(np.float64)
            ),
            0.0,
        )

        compute_out = np.where(is_gemm, compute, 0)
        overhead_out = np.where(is_gemm, fill_drain + block_len, block_len)
        util_out = np.where(is_gemm, utilization, 0.0)
        macs_out = np.where(is_gemm, macs, 0)

        # ---- traffic + memory cycles (_buffer_traffic + conversion) -----
        ibuf_bits = _ceil_div(macs_f, float(columns)) * input_lane_b
        memory = _ceil_div(dram_total_f, bandwidth)

        # ---- energy pricing (_energy_breakdown, association preserved) --
        compute_j = macs_out.astype(np.float64) * mac_pj[fi] * 1e-12
        buffers_j = (
            ibuf_bits.astype(np.float64) * ibuf_pj * 1e-12
            + wbuf_f * wbuf_pj * 1e-12
            + obuf_total_f * obuf_pj * 1e-12
        ) * scale
        dram_j = dram_total_f * dram_pj * 1e-12

        lanes = zip(
            names,
            macs_out.tolist(),
            ib_list,
            wb_list,
            compute_out.tolist(),
            memory.tolist(),
            overhead_out.tolist(),
            dram_read_list,
            dram_write_list,
            ibuf_bits.tolist(),
            wbuf_list,
            obuf_read_list,
            obuf_write_list,
            compute_j.tolist(),
            buffers_j.tolist(),
            dram_j.tolist(),
            util_out.tolist(),
        )
        rows_out.append([_materialize(*values) for values in lanes])
    return rows_out
