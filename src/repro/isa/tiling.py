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

:func:`plan_tiling` performs an exhaustive search over tile sizes for one
order; :func:`~repro.isa.optimizations.choose_loop_order` compares the
orders.  The search is deterministic, and since the candidate space is a
dense (tile_m x tile_n x loop_order) grid it is scored *vectorized*: numpy
broadcasts the buffer-feasibility masks, the traffic formulas and the
``(total_dram_bits, tile_count)`` tie-break key over the whole grid and a
single argmin picks the winner (:func:`search_tiling`).  The original
pure-Python double loop survives as :func:`search_tiling_scalar` /
:func:`plan_tiling_scalar` — the reference oracle the vectorized path is
property-tested against, and the fallback when a pathological GEMM would
overflow 64-bit traffic arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from repro.core.config import BitFusionConfig
from repro.fingerprint import fingerprint_payload
from repro.isa.instructions import LoopOrder

__all__ = [
    "GemmWorkload",
    "TilingPlan",
    "plan_tiling",
    "plan_tiling_scalar",
    "search_tiling",
    "search_tiling_scalar",
    "tile_candidates",
]

#: Partial sums travel at 32 bits (Figure 4); spilled partials use this width.
PARTIAL_SUM_BITS = 32


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
        for label, value in (
            ("input_bits", self.input_bits),
            ("weight_bits", self.weight_bits),
            ("output_bits", self.output_bits),
        ):
            if value not in (1, 2, 4, 8, 16, 32):
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

    @property
    def fits_on_chip(self) -> bool:
        """Whether the whole GEMM fits in the scratchpads as a single tile."""
        return self.tile_count == 1

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


def plan_tiling_scalar(
    workload: GemmWorkload,
    config: BitFusionConfig,
    loop_order: LoopOrder = LoopOrder.OUTPUT_STATIONARY,
) -> TilingPlan:
    """Reference search: the pure-Python double loop over tile candidates.

    This is the oracle the vectorized :func:`search_tiling` is tested
    against (the two must agree plan-for-plan on every input), and the
    fallback for GEMMs so large that grid traffic arithmetic would overflow
    ``int64``.  The search enumerates power-of-two tile sizes for the ``M``
    and ``N`` loops, derives the largest ``R`` tile the input and output
    scratchpads allow, discards combinations that overflow the weight
    scratchpad, and keeps the candidate with the least total off-chip
    traffic (ties broken towards fewer, larger tiles).
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
    """Reference multi-order search: best scalar plan over ``orders``.

    Ties between orders break towards the earliest order in ``orders``,
    matching Python ``min`` over per-order winners.
    """
    if not orders:
        raise ValueError("at least one loop order must be considered")
    plans = [plan_tiling_scalar(workload, config, loop_order=order) for order in orders]
    return min(plans, key=lambda plan: (plan.total_dram_bits, plan.tile_count))


#: Grid traffic totals are scored in ``int64``; a workload whose worst-case
#: candidate traffic could exceed this bound falls back to the scalar search
#: (Python ints never overflow).  The margin of 2 bits absorbs the final
#: four-term sum.
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


def search_tiling(
    workload: GemmWorkload,
    config: BitFusionConfig,
    orders: tuple[LoopOrder, ...],
) -> TilingPlan:
    """Vectorized search over the full (tile_m x tile_n x loop_order) grid.

    Scores every candidate cell at once with numpy: the buffer-feasibility
    mask, the derived ``R`` tile, the per-order traffic formulas and the
    ``(total_dram_bits, tile_count)`` tie-break key are all arrays, and the
    winner is the first cell (in the scalar search's iteration order —
    orders outermost, then tile_m and tile_n descending) achieving the
    minimal key.  The returned plan is bit-identical to
    :func:`search_tiling_scalar`: the winning cell's traffic is re-derived
    with exact Python-integer arithmetic, so vectorization decides *which*
    candidate wins but never touches the numbers stored in the plan.
    """
    if not orders:
        raise ValueError("at least one loop order must be considered")
    if not _int64_safe(workload):
        return search_tiling_scalar(workload, config, orders)

    ibuf_bits = int(config.ibuf_kb * 1024 * 8)
    wbuf_bits = int(config.wbuf_kb * 1024 * 8)
    obuf_bits = int(config.obuf_kb * 1024 * 8)

    tile_m = np.asarray(tile_candidates(workload.m), dtype=np.int64)[:, None]
    tile_n = np.asarray(tile_candidates(workload.n), dtype=np.int64)[None, :]

    feasible = tile_m * tile_n * workload.weight_bits <= wbuf_bits
    # Largest R tile the input and output scratchpads both allow (the
    # divisors are >= 1 by construction: tile sizes and bitwidths are
    # positive, and PARTIAL_SUM_BITS is a constant 32).
    r_by_ibuf = ibuf_bits // (tile_n * workload.input_bits)
    r_by_obuf = obuf_bits // (tile_m * PARTIAL_SUM_BITS)
    tile_r = np.minimum(
        np.minimum(r_by_ibuf, r_by_obuf), min(workload.r, (1 << 16) - 1)
    )
    feasible &= tile_r > 0
    if not feasible.any():
        raise _no_feasible_tiling(workload, config)

    m_tiles = -(-workload.m // tile_m)
    n_tiles = -(-workload.n // tile_n)
    r_tiles = -(-workload.r // np.maximum(tile_r, 1))
    tile_count = m_tiles * n_tiles * r_tiles

    weight_bits = workload.weight_footprint_bits
    input_bits = workload.input_footprint_bits
    output_bits = workload.output_footprint_bits
    partial_bits = workload.m * workload.r * PARTIAL_SUM_BITS
    weight_refetch = np.where((m_tiles == 1) & (n_tiles == 1), 1, r_tiles)
    input_refetch = np.where((n_tiles == 1) & (r_tiles == 1), 1, m_tiles)
    spilled = 2 * partial_bits * np.maximum(0, n_tiles - 1)

    totals = np.empty((len(orders),) + feasible.shape, dtype=np.int64)
    for index, order in enumerate(orders):
        if order is LoopOrder.OUTPUT_STATIONARY:
            total = weight_bits * weight_refetch + input_bits * input_refetch + output_bits
        elif order is LoopOrder.WEIGHT_STATIONARY:
            total = weight_bits + input_bits * input_refetch + output_bits + spilled
        elif order is LoopOrder.INPUT_STATIONARY:
            total = weight_bits * weight_refetch + input_bits + output_bits + spilled
        else:  # pragma: no cover - mirrors _traffic's guard
            raise ValueError(f"unknown loop order {order}")
        totals[index] = total

    # Lexicographic argmin over (total_dram_bits, tile_count), first
    # occurrence in C order — exactly the scalar search's "first strictly
    # smaller key wins" semantics with orders outermost.
    infinity = np.iinfo(np.int64).max
    masked_totals = np.where(feasible[None, :, :], totals, infinity)
    best_total = masked_totals.min()
    on_best_total = masked_totals == best_total
    masked_counts = np.where(
        on_best_total, np.broadcast_to(tile_count[None, :, :], totals.shape), infinity
    )
    best_count = masked_counts.min()
    winner = int(np.argmax(on_best_total & (masked_counts == best_count)))
    order_index, m_index, n_index = np.unravel_index(winner, totals.shape)

    # Re-derive the winner with exact integer arithmetic so the stored plan
    # is bit-for-bit the scalar search's.
    order = orders[order_index]
    chosen_m = int(tile_m[m_index, 0])
    chosen_n = int(tile_n[0, n_index])
    chosen_r = int(tile_r[m_index, n_index])
    chosen_m_tiles = ceil(workload.m / chosen_m)
    chosen_n_tiles = ceil(workload.n / chosen_n)
    chosen_r_tiles = ceil(workload.r / chosen_r)
    weights, inputs, out_writes, out_reads = _traffic(
        workload, order, chosen_m_tiles, chosen_n_tiles, chosen_r_tiles
    )
    return TilingPlan(
        workload=workload,
        loop_order=order,
        tile_m=chosen_m,
        tile_n=chosen_n,
        tile_r=chosen_r,
        dram_weight_bits=weights,
        dram_input_bits=inputs,
        dram_output_write_bits=out_writes,
        dram_output_read_bits=out_reads,
    )


def plan_tiling(
    workload: GemmWorkload,
    config: BitFusionConfig,
    loop_order: LoopOrder = LoopOrder.OUTPUT_STATIONARY,
) -> TilingPlan:
    """Find the minimum-traffic tiling of ``workload`` for one loop order.

    Vectorized grid search (see :func:`search_tiling`); bit-identical to
    :func:`plan_tiling_scalar`, the pure-Python reference oracle.
    """
    return search_tiling(workload, config, (loop_order,))
