"""Loop tiling against the on-chip scratchpad capacities (Section IV-B).

The Fusion-ISA expresses each layer as a nest of ``loop`` instructions; the
compiler partitions those loops into *tiles* sized so that the data touched
by one tile fits in the input, weight and output scratchpads.  Tiling, and
the loop *order* wrapped around it, together determine how many times each
tensor is re-fetched from off-chip memory — the dominant term of the energy
and (for bandwidth-bound layers) performance model.

Every compute layer lowers to the GEMM ``out[M, R] = W[M, N] @ X[N, R]``
where ``R`` counts input columns (spatial output positions × timesteps ×
batch).  For a given tile choice ``(tile_m, tile_n, tile_r)`` the off-chip
traffic of the three dataflow orders is:

* **output-stationary** — partial sums stay in OBUF across the whole
  reduction; weights are re-fetched once per ``R``-tile, inputs once per
  ``M``-tile, outputs written exactly once.
* **weight-stationary** — each weight tile is fetched exactly once; inputs
  are re-fetched once per ``M``-tile and 32-bit partial sums spill to DRAM
  once per extra ``N``-tile.
* **input-stationary** — each input tile is fetched exactly once; weights
  are re-fetched once per ``R``-tile and partial sums spill as above.

:func:`search_tilings` performs an exhaustive search over tile sizes and
the given loop orders for many GEMMs at once; the compiler calls it once
per program.  The search is deterministic, and since the candidate space
is a dense (tile_m x tile_n x loop_order) grid it is scored *vectorized*:
numpy broadcasts the buffer-feasibility masks, the traffic formulas and
the ``(total_dram_bits, tile_count)`` tie-break key over the whole grid of
every GEMM in the batch.  The readable pure-Python double loop over the
same grid lives with the tests (``tests/reference/tiling.py``), which hold
this search to it plan for plan.  A GEMM whose traffic could overflow 64-bit arithmetic is rejected
with a one-line :class:`ValueError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Sequence

import numpy as np

from repro.core.config import BitFusionConfig
from repro.core.fusion_unit import PARTIAL_SUM_BITS, SUPPORTED_BITWIDTHS
from repro.fingerprint import fingerprint_payload
from repro.isa.instructions import LoopOrder

__all__ = ["GemmWorkload", "TilingPlan", "search_tilings", "tile_candidates"]

#: Loop trip counts are 16-bit immediates (Table I), so one tile never spans
#: more input columns than this.
_MAX_TILE_R = (1 << 16) - 1

#: A GEMM's output may also be written back at the full partial-sum width.
_OUTPUT_BITWIDTHS = (*SUPPORTED_BITWIDTHS, PARTIAL_SUM_BITS)


@dataclass(frozen=True)
class GemmWorkload:
    """The GEMM a layer lowers to, with operand bitwidths.

    ``out[M, R] = W[M, N] @ X[N, R]`` — ``R`` already includes spatial
    repeats, timesteps and the batch dimension.
    """

    m: int
    n: int
    r: int
    input_bits: int
    weight_bits: int
    output_bits: int

    def __post_init__(self) -> None:
        for label, value in (("m", self.m), ("n", self.n), ("r", self.r)):
            if value <= 0:
                raise ValueError(f"GEMM dimension {label} must be positive, got {value}")
        for label, value, widths in (
            ("input_bits", self.input_bits, SUPPORTED_BITWIDTHS),
            ("weight_bits", self.weight_bits, SUPPORTED_BITWIDTHS),
            ("output_bits", self.output_bits, _OUTPUT_BITWIDTHS),
        ):
            if value not in widths:
                raise ValueError(f"{label} must be a supported bitwidth, got {value}")

    @property
    def macs(self) -> int:
        return self.m * self.n * self.r

    def to_dict(self) -> dict[str, int]:
        """JSON-compatible payload (every field is an int); equals ``asdict``."""
        return {
            "m": self.m,
            "n": self.n,
            "r": self.r,
            "input_bits": self.input_bits,
            "weight_bits": self.weight_bits,
            "output_bits": self.output_bits,
        }

    @property
    def weight_footprint_bits(self) -> int:
        return self.m * self.n * self.weight_bits

    @property
    def input_footprint_bits(self) -> int:
        return self.n * self.r * self.input_bits

    @property
    def output_footprint_bits(self) -> int:
        return self.m * self.r * self.output_bits


@dataclass(frozen=True)
class TilingPlan:
    """A concrete tiling of one GEMM plus its off-chip traffic.

    Traffic numbers are totals in bits for executing the whole GEMM once
    (i.e. one batch worth of work when ``R`` includes the batch).
    """

    workload: GemmWorkload
    loop_order: LoopOrder
    tile_m: int
    tile_n: int
    tile_r: int
    dram_weight_bits: int
    dram_input_bits: int
    dram_output_write_bits: int
    dram_output_read_bits: int

    @property
    def m_tiles(self) -> int:
        return ceil(self.workload.m / self.tile_m)

    @property
    def n_tiles(self) -> int:
        return ceil(self.workload.n / self.tile_n)

    @property
    def r_tiles(self) -> int:
        return ceil(self.workload.r / self.tile_r)

    @property
    def tile_count(self) -> int:
        return self.m_tiles * self.n_tiles * self.r_tiles

    @property
    def total_dram_bits(self) -> int:
        return (
            self.dram_weight_bits
            + self.dram_input_bits
            + self.dram_output_write_bits
            + self.dram_output_read_bits
        )

    def to_dict(self) -> dict[str, object]:
        """JSON-compatible payload of the plan (workload nested, enum by value)."""
        return {
            "workload": self.workload.to_dict(),
            "loop_order": self.loop_order.value,
            "tile_m": self.tile_m,
            "tile_n": self.tile_n,
            "tile_r": self.tile_r,
            "dram_weight_bits": self.dram_weight_bits,
            "dram_input_bits": self.dram_input_bits,
            "dram_output_write_bits": self.dram_output_write_bits,
            "dram_output_read_bits": self.dram_output_read_bits,
        }

    def fingerprint(self) -> str:
        """Stable content hash of the plan (tile choice plus traffic totals).

        Tiling plans carry no names — a plan is the same plan no matter
        which network's layer produced it — so this digest is what lets the
        content-addressed *layer* cache level recognize identical
        (layer, tiling) pairs across different networks in a model-family
        sweep.

        The digest is memoized on the (frozen) instance: plans ride along
        every block-cache lookup, so re-serializing the plan for each lookup
        would tax the warm path for no reason.  The memo lives outside the
        dataclass fields, so equality, ``asdict`` and pickling are unchanged.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            cached = fingerprint_payload(self.to_dict())
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    def with_output_store_bits(self, output_write_bits: int) -> "TilingPlan":
        """Copy of this plan with a different output-store traffic total.

        Used by layer fusion: when a pooling/activation layer is folded into
        the block, the stored output shrinks to the fused layer's output.
        """
        if output_write_bits < 0:
            raise ValueError(f"output traffic must be non-negative, got {output_write_bits}")
        return TilingPlan(
            workload=self.workload,
            loop_order=self.loop_order,
            tile_m=self.tile_m,
            tile_n=self.tile_n,
            tile_r=self.tile_r,
            dram_weight_bits=self.dram_weight_bits,
            dram_input_bits=self.dram_input_bits,
            dram_output_write_bits=output_write_bits,
            dram_output_read_bits=self.dram_output_read_bits,
        )


def tile_candidates(extent: int, max_candidates: int = 16) -> list[int]:
    """Candidate tile sizes for a loop of the given extent.

    Powers of two up to the extent plus the extent itself, largest first.
    Keeping the candidate list short bounds the search while still finding
    tiles within a factor of two of the best.
    """
    if extent <= 0:
        raise ValueError(f"loop extent must be positive, got {extent}")
    candidates = {extent}
    size = 1
    while size < extent:
        candidates.add(size)
        size *= 2
    ordered = sorted(candidates, reverse=True)
    return ordered[:max_candidates]


def _traffic(
    workload: GemmWorkload,
    order: LoopOrder,
    m_tiles: int,
    n_tiles: int,
    r_tiles: int,
) -> tuple[int, int, int, int]:
    """Off-chip traffic (weights, inputs, output writes, output reads) in bits."""
    weight_bits = workload.weight_footprint_bits
    input_bits = workload.input_footprint_bits
    output_bits = workload.output_footprint_bits
    partial_bits = workload.m * workload.r * PARTIAL_SUM_BITS

    # A tensor that fits on chip in its entirety is fetched exactly once,
    # regardless of how the loops around it iterate.
    weight_refetch = 1 if (m_tiles == 1 and n_tiles == 1) else r_tiles
    input_refetch = 1 if (n_tiles == 1 and r_tiles == 1) else m_tiles

    if order is LoopOrder.OUTPUT_STATIONARY:
        return (
            weight_bits * weight_refetch,
            input_bits * input_refetch,
            output_bits,
            0,
        )
    if order is LoopOrder.WEIGHT_STATIONARY:
        spills = max(0, n_tiles - 1)
        return (
            weight_bits,
            input_bits * input_refetch,
            output_bits + partial_bits * spills,
            partial_bits * spills,
        )
    if order is LoopOrder.INPUT_STATIONARY:
        spills = max(0, n_tiles - 1)
        return (
            weight_bits * weight_refetch,
            input_bits,
            output_bits + partial_bits * spills,
            partial_bits * spills,
        )
    raise ValueError(f"unknown loop order {order}")  # pragma: no cover


def _no_feasible_tiling(workload: GemmWorkload, config: BitFusionConfig) -> ValueError:
    return ValueError(
        f"no feasible tiling for GEMM {workload.m}x{workload.n}x{workload.r} "
        f"at {workload.input_bits}/{workload.weight_bits} bits within buffers "
        f"IBUF={config.ibuf_kb}KB WBUF={config.wbuf_kb}KB OBUF={config.obuf_kb}KB"
    )


#: Grid traffic totals are scored in ``int64``; a workload whose worst-case
#: candidate traffic could exceed this bound is rejected.  The margin of 2
#: bits absorbs the final four-term sum.  The block simulator
#: (:mod:`repro.sim.batched`) guards its counts with the same bound.
_INT64_SAFE_BOUND = 1 << 62


def _int64_safe(workload: GemmWorkload) -> bool:
    """Whether every candidate's traffic terms provably fit in ``int64``.

    Worst cases over the whole grid: weights re-fetched once per ``R`` tile
    (at most ``r`` of them), inputs once per ``M`` tile (at most ``m``),
    partial sums spilled once per extra ``N`` tile (at most ``n``), and the
    tile count bounded by ``m * n * r``.
    """
    partial_bits = workload.m * workload.r * PARTIAL_SUM_BITS
    worst = max(
        workload.weight_footprint_bits * workload.r,
        workload.input_footprint_bits * workload.m,
        workload.output_footprint_bits + 2 * partial_bits * workload.n,
        workload.m * workload.n * workload.r,
    )
    return 4 * worst < _INT64_SAFE_BOUND


def _too_large_to_tile(workload: GemmWorkload) -> ValueError:
    return ValueError(
        f"GEMM {workload.m}x{workload.n}x{workload.r} at "
        f"{workload.input_bits}/{workload.weight_bits} bits is too large to "
        f"tile: its traffic could overflow int64 (bound 2**62)"
    )


#: Stands in for a tile_n whose input-buffer column does not fit: larger
#: than any ``max_tile_n``, which never exceeds the weight buffer's bits.
_NEVER_FITS = 1 << 62

_INT64_MAX = np.iinfo(np.int64).max


def _m_rows(
    workload: GemmWorkload, tiles: list[int], wbuf_bits: int, obuf_bits: int
) -> tuple[list[int], list[int], list[int]]:
    """Per tile_m candidate: the widest tile_n the weight buffer admits
    beside it (0 when the output buffer cannot hold one of its columns),
    its ``R`` tile cap and its ``M`` tile count."""
    max_tile_n, r_caps, m_tiles = [], [], []
    for tile in tiles:
        r_by_obuf = obuf_bits // (tile * PARTIAL_SUM_BITS)
        max_tile_n.append(wbuf_bits // (tile * workload.weight_bits) if r_by_obuf else 0)
        r_caps.append(max(1, min(r_by_obuf, workload.r, _MAX_TILE_R)))
        m_tiles.append(-(-workload.m // tile))
    return max_tile_n, r_caps, m_tiles


def _n_rows(
    workload: GemmWorkload, tiles: list[int], ibuf_bits: int
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Per tile_n candidate: its weight-fit key (the tile, or
    :data:`_NEVER_FITS` when the input buffer cannot hold one of its
    columns), the ``R`` tile the input buffer allows, its ``N`` tile count
    and the partial-sum bits its extra reduction passes spill and reload."""
    spill_per_pass = 2 * workload.m * workload.r * PARTIAL_SUM_BITS
    fit_keys, r_by_ibuf, n_tiles, spilled = [], [], [], []
    for tile in tiles:
        rows = ibuf_bits // (tile * workload.input_bits)
        passes = -(-workload.n // tile)
        fit_keys.append(tile if rows else _NEVER_FITS)
        r_by_ibuf.append(max(1, rows))
        n_tiles.append(passes)
        spilled.append(spill_per_pass * (passes - 1))
    return fit_keys, r_by_ibuf, n_tiles, spilled


#: What pads each field of :func:`_m_rows` and :func:`_n_rows` up to the
#: widest GEMM's candidate count: cells that are never feasible.
_M_PADDING = (0, 1, 1)
_N_PADDING = (_NEVER_FITS, 1, 1, 0)


def _padded(
    sides: list[tuple[list[int], ...]], fills: tuple[int, ...]
) -> np.ndarray:
    """``(field, gemm, candidate)`` array of per-GEMM rows padded to one width."""
    width = max(len(side[0]) for side in sides)
    return np.array(
        [
            [row + [fill] * (width - len(row)) for row, fill in zip(side, fills)]
            for side in sides
        ],
        dtype=np.int64,
    ).transpose(1, 0, 2)


def search_tilings(
    workloads: Sequence[GemmWorkload],
    config: BitFusionConfig,
    orders: tuple[LoopOrder, ...],
) -> list[TilingPlan]:
    """Vectorized search of many GEMMs' (loop_order x tile_m x tile_n) grids.

    What depends on one tile size alone — the widest tile beside it that
    fits the weight buffer, the ``R`` tile the other buffers allow, tile
    counts, spilled partial sums — is derived per candidate with Python
    integers.  numpy then scores every cell of a ``(gemm, order, tile_m,
    tile_n)`` grid in a handful of broadcast operations: the feasibility
    mask, the ``R`` tile, the per-order traffic formulas and the
    ``(total_dram_bits, tile_count)`` key.  A GEMM with fewer candidates
    than the widest is padded with cells that are never feasible.  Each
    GEMM's winner is its first cell (in the reference double loop's order —
    orders outermost, then tile_m and tile_n descending) achieving its
    minimal key.  The winner's ``R`` tile and traffic are re-derived with
    exact Python-integer arithmetic, so vectorization decides *which*
    candidate wins but never touches the numbers stored in the plan.

    A GEMM too large for ``int64`` scoring, or with no feasible tiling,
    raises a one-line :class:`ValueError` naming it; of several, the first
    in ``workloads`` is named, as searching them one at a time would.
    """
    if not orders:
        raise ValueError("at least one loop order must be considered")
    if not workloads:
        return []

    ibuf_bits = int(config.ibuf_kb * 1024 * 8)
    wbuf_bits = int(config.wbuf_kb * 1024 * 8)
    obuf_bits = int(config.obuf_kb * 1024 * 8)

    # Per GEMM, in order, so the first failing one is named.
    m_candidates, n_candidates, m_side, n_side = [], [], [], []
    for workload in workloads:
        if not _int64_safe(workload):
            raise _too_large_to_tile(workload)
        m_tiles = tile_candidates(workload.m)
        n_tiles = tile_candidates(workload.n)
        m_rows = _m_rows(workload, m_tiles, wbuf_bits, obuf_bits)
        n_rows = _n_rows(workload, n_tiles, ibuf_bits)
        # Some cell fits iff the narrowest fitting tile_n fits beside the
        # tile_m that admits the widest.
        if min(n_rows[0]) > max(m_rows[0]):
            raise _no_feasible_tiling(workload, config)
        m_candidates.append(m_tiles)
        n_candidates.append(n_tiles)
        m_side.append(m_rows)
        n_side.append(n_rows)
    max_tile_n, r_cap, m_tiles = _padded(m_side, _M_PADDING)[:, :, :, None]
    fit_key, r_by_ibuf, n_tiles, spilled = _padded(n_side, _N_PADDING)[:, :, None, :]
    r_less_one, weights, inputs, outputs, weights_outputs, inputs_outputs = np.array(
        [
            (
                w.r - 1,
                w.weight_footprint_bits,
                w.input_footprint_bits,
                w.output_footprint_bits,
                w.weight_footprint_bits + w.output_footprint_bits,
                w.input_footprint_bits + w.output_footprint_bits,
            )
            for w in workloads
        ],
        dtype=np.int64,
    ).T[:, :, None, None]

    # Shape (gemm, tile_m, tile_n) from here on.
    infeasible = fit_key > max_tile_n
    tile_r = np.minimum(r_cap, r_by_ibuf)
    r_tiles = r_less_one // tile_r + 1
    mn_tiles = m_tiles * n_tiles
    nr_tiles = n_tiles * r_tiles
    tile_count = mn_tiles * r_tiles
    # A tensor that fits on chip whole is fetched once (see _traffic).
    refetched_weights = weights * np.where(mn_tiles == 1, 1, r_tiles)
    refetched_inputs = inputs * np.where(nr_tiles == 1, 1, m_tiles)

    count = len(workloads)
    totals = np.empty((count, len(orders)) + infeasible.shape[1:], dtype=np.int64)
    for index, order in enumerate(orders):
        out = totals[:, index]
        if order is LoopOrder.OUTPUT_STATIONARY:
            np.add(refetched_weights, refetched_inputs, out=out)
            out += outputs
        elif order is LoopOrder.WEIGHT_STATIONARY:
            np.add(refetched_inputs, spilled, out=out)
            out += weights_outputs
        elif order is LoopOrder.INPUT_STATIONARY:
            np.add(refetched_weights, spilled, out=out)
            out += inputs_outputs
        else:  # pragma: no cover - mirrors _traffic's guard
            raise ValueError(f"unknown loop order {order}")

    # Lexicographic argmin over (total_dram_bits, tile_count) per GEMM,
    # first occurrence in C order — exactly the reference double loop's
    # "first strictly smaller key wins" semantics with orders outermost
    # (argmin returns the first of equal minima).  The ufunc and method
    # forms skip numpy's Python-level wrappers, which dominate at this size.
    np.copyto(totals, _INT64_MAX, where=infeasible[:, None])
    flat_totals = totals.reshape(count, -1)
    on_best_total = flat_totals == np.minimum.reduce(flat_totals, axis=1, keepdims=True)
    winners = (
        np.where(on_best_total.reshape(totals.shape), tile_count[:, None], _INT64_MAX)
        .reshape(count, -1)
        .argmin(axis=1)
        .tolist()
    )

    # Re-derive each winner with exact integer arithmetic so the stored
    # plan holds Python ints, never numpy scalars.
    m_width, n_width = max_tile_n.shape[1], fit_key.shape[2]
    cells = m_width * n_width
    plans: list[TilingPlan] = []
    for workload, winner, m_row, n_row in zip(workloads, winners, m_candidates, n_candidates):
        order_index, cell = divmod(winner, cells)
        m_index, n_index = divmod(cell, n_width)
        chosen_m, chosen_n = m_row[m_index], n_row[n_index]
        chosen_r = min(
            ibuf_bits // (chosen_n * workload.input_bits),
            obuf_bits // (chosen_m * PARTIAL_SUM_BITS),
            workload.r,
            _MAX_TILE_R,
        )
        order = orders[order_index]
        traffic = _traffic(
            workload,
            order,
            ceil(workload.m / chosen_m),
            ceil(workload.n / chosen_n),
            ceil(workload.r / chosen_r),
        )
        plans.append(
            TilingPlan(workload, order, chosen_m, chosen_n, chosen_r, *traffic)
        )
    return plans
