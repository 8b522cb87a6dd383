"""The Fusion-ISA compiler: DNN layers to instruction blocks (Section IV).

The compiler lowers every compute layer (convolution, fully-connected,
recurrent) to one instruction block:

1. The layer's GEMM shape and the batch size define the
   :class:`~repro.isa.tiling.GemmWorkload`.
2. The loop-ordering optimization picks the dataflow (output-, weight- or
   input-stationary) and the loop-tiling optimization picks tile sizes that
   fit the scratchpads.  A whole program's searches run as one batch
   (:func:`~repro.isa.tiling.search_tilings`), after every block is lowered.
3. The layer-fusion optimization folds trailing pooling/activation layers
   into the block (:func:`~repro.isa.optimizations.fuse_layers`).

A compile stops there: each block is its plan, a
:class:`~repro.isa.program.CompiledBlock` holding the layer, its fused
followers, the tiling (loop order included) and the block's instruction count,
which is all the simulator prices.  The instructions themselves are emitted
on first read of :attr:`CompiledBlock.block
<repro.isa.program.CompiledBlock.block>` (:func:`emit_block`): a ``setup``
fixing the fusion configuration, the outer (memory-level) tile loops with
their ``gen-addr`` and ``ld-mem``/``st-mem`` instructions, the inner
(buffer-level) loops with ``rd-buf``/``compute``/``wr-buf``, and the
closing ``block-end``.  Each emitter has its instruction count beside it,
and every emission checks the block it built against the plan's count.

Standalone pooling/activation layers (ones with no preceding compute layer
to fuse into) compile to 14-instruction blocks that exercise only the
per-column pooling/activation units and the input/output scratchpads.

At the paper's configuration the compute blocks of the evaluated layers
hold 28-37 instructions, in line with the paper's reported 30-86
instructions per block.
"""

from __future__ import annotations

from typing import Callable

from repro.core.config import BitFusionConfig
from repro.dnn.layers import (
    ActivationLayer,
    ConvLayer,
    Layer,
    LSTMLayer,
    PoolLayer,
    RNNLayer,
)
from repro.dnn.network import Network
from repro.isa.block import InstructionBlock
from repro.isa.instructions import (
    BlockEnd,
    Compute,
    ComputeFn,
    GenAddr,
    Instruction,
    LdMem,
    Loop,
    LoopOrder,
    RdBuf,
    ScratchpadType,
    Setup,
    StMem,
    WrBuf,
)
from repro.isa.optimizations import fuse_layers
from repro.isa.program import CompiledBlock, Program
from repro.isa.tiling import GemmWorkload, TilingPlan, search_tilings

__all__ = ["FusionCompiler", "PlanResolver", "TilingRequest", "emit_block"]

#: One tiling search a compilation needs: the GEMM and the loop orders the
#: search may consider.
TilingRequest = tuple[GemmWorkload, tuple[LoopOrder, ...]]

#: Hook the evaluation session uses to memoize tiling searches across
#: compilations: ``(requests, compute) -> plans``, one plan per request in
#: order, where ``compute`` searches a list of requests.  A resolver may
#: serve plans from a cache and pass only the rest to ``compute``; every
#: plan it returns must be exactly what ``compute`` would have produced
#: (plans serialize losslessly, so a cache round-trip preserves this).
PlanResolver = Callable[
    [list[TilingRequest], Callable[[list[TilingRequest]], list[TilingPlan]]],
    list[TilingPlan],
]

_MAX_IMMEDIATE = (1 << 16) - 1

#: Loop identifiers of the outer (memory-level) tile loops.
_LOOP_M_TILE = 0
_LOOP_N_TILE = 1
_LOOP_R_TILE = 2

#: Loop identifiers of the inner (buffer-level) loops.
_LOOP_INNER_R = 8
_LOOP_INNER_M = 9
_LOOP_INNER_N = 10
_LOOP_KERNEL_Y = 11
_LOOP_KERNEL_X = 12
_LOOP_GATE = 13
_LOOP_CHANNEL = 14

#: First loop identifier available to fused pooling/activation followers.
_LOOP_FUSED_BASE = 24

#: Outer tile loops from outermost in, per dataflow: the stationary
#: tensor's loop sits outermost so its tile is re-used across the inner
#: tile loops.
_TILE_LOOP_NEST = {
    LoopOrder.OUTPUT_STATIONARY: (_LOOP_M_TILE, _LOOP_R_TILE, _LOOP_N_TILE),
    LoopOrder.WEIGHT_STATIONARY: (_LOOP_M_TILE, _LOOP_N_TILE, _LOOP_R_TILE),
    LoopOrder.INPUT_STATIONARY: (_LOOP_N_TILE, _LOOP_R_TILE, _LOOP_M_TILE),
}


# Instructions whose fields never vary, built (and validated) once and
# shared by every block; instructions are frozen, so sharing is safe.

#: Unit-stride address generators, by (scratchpad, loop id).
_UNIT_STEP = {
    (scratchpad, loop_id): GenAddr(scratchpad=scratchpad, loop_id=loop_id, stride=1)
    for scratchpad, loop_id in (
        (ScratchpadType.WBUF, _LOOP_N_TILE),
        (ScratchpadType.IBUF, _LOOP_R_TILE),
        (ScratchpadType.OBUF, _LOOP_R_TILE),
        (ScratchpadType.IBUF, _LOOP_INNER_R),
        (ScratchpadType.OBUF, _LOOP_INNER_R),
        (ScratchpadType.IBUF, _LOOP_KERNEL_X),
        (ScratchpadType.WBUF, _LOOP_KERNEL_X),
        (ScratchpadType.IBUF, _LOOP_INNER_N),
        (ScratchpadType.WBUF, _LOOP_INNER_N),
    )
}

_COMPUTE = {fn: Compute(fn=fn) for fn in ComputeFn}
_IBUF_READ = RdBuf(scratchpad=ScratchpadType.IBUF)
_OBUF_WRITE = WrBuf(scratchpad=ScratchpadType.OBUF)
_BLOCK_END = BlockEnd(next_block=0)

#: The multiply-accumulate step closing every compute block's inner loops.
_MACC_TAIL = (
    _IBUF_READ,
    RdBuf(scratchpad=ScratchpadType.WBUF),
    RdBuf(scratchpad=ScratchpadType.OBUF),
    _COMPUTE[ComputeFn.MACC],
    _OBUF_WRITE,
)


def _clamp_iterations(value: int) -> int:
    """Clamp a loop trip count into the 16-bit immediate field."""
    return max(1, min(int(value), _MAX_IMMEDIATE))


def _clamp_stride(value: int) -> int:
    return max(0, min(int(value), _MAX_IMMEDIATE))


class FusionCompiler:
    """Compiles networks into Fusion-ISA programs.

    Parameters
    ----------
    config:
        The accelerator configuration (scratchpad sizes) the tiling
        decisions target; the batch size is an argument of every compile.
    enable_loop_ordering:
        When ``False``, the compiler always uses the output-stationary order
        instead of searching (used by the ablation benchmarks).
    enable_layer_fusion:
        When ``False``, pooling/activation layers get their own blocks and
        their intermediate tensors travel through DRAM.
    plan_resolver:
        Optional :data:`PlanResolver` consulted before tiling searches, once
        per compiled program with every search the program needs.  The
        evaluation session installs one backed by its artifact cache, so
        duplicate GEMM shapes — within a network, across networks, and
        across sweep points that share buffer geometry — skip the search
        entirely.  ``None`` (the default) searches unconditionally.  A
        resolver that ignores ``compute`` may plan with any search of the
        same signature; the tests compile through the pure-Python
        reference search that way.
    """

    def __init__(
        self,
        config: BitFusionConfig,
        enable_loop_ordering: bool = True,
        enable_layer_fusion: bool = True,
        plan_resolver: PlanResolver | None = None,
    ) -> None:
        self.config = config
        self.enable_loop_ordering = enable_loop_ordering
        self.enable_layer_fusion = enable_layer_fusion
        self.plan_resolver = plan_resolver
        # Blocks already planned, keyed by (head layer, fused followers,
        # batch size): see :meth:`compile`.
        self._blocks: dict[tuple[Layer, tuple[Layer, ...], int], CompiledBlock] = {}

    def _plan_tilings(self, requests: list[TilingRequest]) -> list[TilingPlan]:
        """Search (or resolve from the memo) the tilings of ``requests``.

        Each request's ``orders`` names the dataflows its search may
        consider — the full tuple when loop ordering is enabled, just
        ``OUTPUT_STATIONARY`` otherwise (and always for auxiliary layers) —
        and is part of the resolver's memo key, so ablation runs never
        share plans with optimized ones.
        """
        if self.plan_resolver is not None:
            return self.plan_resolver(requests, self._search_tilings)
        return self._search_tilings(requests)

    def _search_tilings(self, requests: list[TilingRequest]) -> list[TilingPlan]:
        """Search ``requests``: one batched search per distinct ``orders``."""
        plans: dict[int, TilingPlan] = {}
        batches: dict[tuple[LoopOrder, ...], list[int]] = {}
        for index, (_, orders) in enumerate(requests):
            batches.setdefault(orders, []).append(index)
        try:
            for orders, indices in batches.items():
                found = search_tilings([requests[i][0] for i in indices], self.config, orders)
                for index, plan in zip(indices, found):
                    plans[index] = plan
        except ValueError:
            # Name the first failing GEMM in program order, as compiling
            # one layer at a time would.
            for gemm, orders in requests:
                search_tilings((gemm,), self.config, orders)
            raise
        return [plans[index] for index in range(len(requests))]

    # ------------------------------------------------------------------ #
    # Workload lowering
    # ------------------------------------------------------------------ #
    def gemm_workload(self, layer: Layer, batch_size: int) -> GemmWorkload:
        """The GEMM a compute layer lowers to, with the batch folded into R."""
        if not layer.has_gemm():
            raise ValueError(f"layer {layer.name!r} does not lower to a GEMM")
        if batch_size <= 0:
            raise ValueError(f"batch size must be positive, got {batch_size}")
        shape = layer.gemm_shape()
        return GemmWorkload(
            m=shape.m,
            n=shape.n,
            r=shape.repeats * batch_size,
            input_bits=layer.input_bits,
            weight_bits=layer.weight_bits,
            output_bits=layer.output_bits,
        )

    def gemm_orders(self) -> tuple[LoopOrder, ...]:
        """The loop orders a compute-layer tiling search may consider.

        Part of the tiling memo key — an ablation run (loop ordering
        disabled) never shares plans with an optimized one.
        """
        if self.enable_loop_ordering:
            return tuple(LoopOrder)
        return (LoopOrder.OUTPUT_STATIONARY,)

    def auxiliary_gemm_workload(self, layer: Layer, batch_size: int) -> GemmWorkload:
        """The degenerate GEMM a pooling/activation layer lowers to.

        The data still flows as a (1, 1, elements x batch) workload so the
        simulator can charge its DRAM traffic.
        """
        if batch_size <= 0:
            raise ValueError(f"batch size must be positive, got {batch_size}")
        return GemmWorkload(
            m=1,
            n=1,
            r=max(1, layer.input_elements() * batch_size),
            input_bits=layer.input_bits,
            weight_bits=layer.weight_bits,
            output_bits=layer.output_bits,
        )

    def _tiling_request(self, head: Layer, batch_size: int) -> TilingRequest:
        """The tiling search the block headed by ``head`` needs."""
        if head.has_gemm():
            return self.gemm_workload(head, batch_size), self.gemm_orders()
        return (
            self.auxiliary_gemm_workload(head, batch_size),
            (LoopOrder.OUTPUT_STATIONARY,),
        )

    # ------------------------------------------------------------------ #
    # Block planning
    # ------------------------------------------------------------------ #
    def _plan_compute_block(
        self,
        layer: Layer,
        fused: tuple[Layer, ...],
        batch_size: int,
        tiling: TilingPlan,
    ) -> CompiledBlock:
        """Plan the block of a GEMM-shaped layer whose tiling is searched."""
        if fused:
            final = fused[-1]
            tiling = tiling.with_output_store_bits(
                final.output_elements() * batch_size * final.output_bits
            )
        name = layer.name if not fused else f"{layer.name}+{'+'.join(l.name for l in fused)}"
        return CompiledBlock(
            name=name,
            layer=layer,
            tiling=tiling,
            instruction_count=_compute_block_count(layer, fused, tiling),
            fused_layers=fused,
        )

    def _plan_auxiliary_block(
        self, layer: Layer, batch_size: int, tiling: TilingPlan
    ) -> CompiledBlock:
        """Plan the block of a pooling/activation layer whose tiling is searched."""
        return CompiledBlock(
            name=layer.name,
            layer=layer,
            tiling=tiling.with_output_store_bits(
                layer.output_elements() * batch_size * layer.output_bits
            ),
            instruction_count=_AUXILIARY_BLOCK_COUNT,
        )

    # ------------------------------------------------------------------ #
    # Network compilation
    # ------------------------------------------------------------------ #
    def compile(self, network: Network, batch_size: int) -> Program:
        """Compile a whole network into an ordered program of blocks.

        Each fusion group is planned once per compiler: a block's plan
        depends only on its head layer, fused followers and batch size (plus
        this compiler's config, flags and resolver), and every block ends in
        ``block-end 0``, so its position in the network never enters its
        instructions.  A group seen before — a NAS mutant's unchanged layers, say —
        returns the same :class:`CompiledBlock` object, with its memoized
        fingerprint and, once read, its emitted instructions.  Layers
        compare as dataclasses, so two layers differing only in name or
        concrete class never share a block.

        The groups not planned yet are lowered first, and their tiling
        searches go to the plan resolver in one call, in program order (a
        network's layer names are unique, so no group repeats within it).
        No instruction is emitted here: a block emits on first read of
        :attr:`CompiledBlock.block <repro.isa.program.CompiledBlock.block>`.
        """
        decision = fuse_layers(network.layers, enable=self.enable_layer_fusion)
        keys = [(group[0], group[1:], batch_size) for group in decision.groups]
        blocks = [self._blocks.get(key) for key in keys]
        new_keys = [key for key, block in zip(keys, blocks) if block is None]
        if new_keys:
            plans = self._plan_tilings(
                [self._tiling_request(head, batch_size) for head, _, _ in new_keys]
            )
            for key, tiling in zip(new_keys, plans):
                head, followers, _ = key
                if head.has_gemm():
                    self._blocks[key] = self._plan_compute_block(
                        head, followers, batch_size, tiling
                    )
                else:
                    # A non-compute group never has followers (fusion only
                    # attaches pool/activation layers to a preceding compute
                    # layer).
                    self._blocks[key] = self._plan_auxiliary_block(head, batch_size, tiling)
        return Program(
            network.name,
            [
                block if block is not None else self._blocks[key]
                for key, block in zip(keys, blocks)
            ],
        )


# ---------------------------------------------------------------------- #
# Instruction emission, level by level, each emitter beside its count
# ---------------------------------------------------------------------- #
def _loop(loop_id: int, trips: int, level: int) -> Loop:
    return Loop(loop_id=loop_id, iterations=_clamp_iterations(trips), level=level)


def _gen_addr(scratchpad: ScratchpadType, loop_id: int, stride: int) -> GenAddr:
    return GenAddr(scratchpad=scratchpad, loop_id=loop_id, stride=_clamp_stride(stride))


def _memory_level(tiling: TilingPlan, fused_output_words: int | None) -> list[Instruction]:
    """Outer tile loops, address generators and DRAM transfer instructions."""
    trips = {
        _LOOP_M_TILE: tiling.m_tiles,
        _LOOP_N_TILE: tiling.n_tiles,
        _LOOP_R_TILE: tiling.r_tiles,
    }
    instructions: list[Instruction] = [
        _loop(loop_id, trips[loop_id], 0) for loop_id in _TILE_LOOP_NEST[tiling.loop_order]
    ]
    # Address generation at tile granularity: tiles of each tensor are
    # laid out row-major in its address space, so the outer loop's stride
    # is the inner tile count and the inner loop's stride is one tile.
    instructions += [
        _gen_addr(ScratchpadType.WBUF, _LOOP_M_TILE, trips[_LOOP_N_TILE]),
        _UNIT_STEP[ScratchpadType.WBUF, _LOOP_N_TILE],
        _gen_addr(ScratchpadType.IBUF, _LOOP_N_TILE, trips[_LOOP_R_TILE]),
        _UNIT_STEP[ScratchpadType.IBUF, _LOOP_R_TILE],
        _gen_addr(ScratchpadType.OBUF, _LOOP_M_TILE, trips[_LOOP_R_TILE]),
        _UNIT_STEP[ScratchpadType.OBUF, _LOOP_R_TILE],
    ]
    weight_words = _clamp_iterations(tiling.tile_m * tiling.tile_n)
    input_words = _clamp_iterations(tiling.tile_n * tiling.tile_r)
    output_words = _clamp_iterations(
        fused_output_words if fused_output_words is not None else tiling.tile_m * tiling.tile_r
    )
    instructions.append(LdMem(scratchpad=ScratchpadType.WBUF, num_words=weight_words))
    instructions.append(LdMem(scratchpad=ScratchpadType.IBUF, num_words=input_words))
    if tiling.dram_output_read_bits > 0:
        instructions.append(LdMem(scratchpad=ScratchpadType.OBUF, num_words=output_words))
    instructions.append(StMem(scratchpad=ScratchpadType.OBUF, num_words=output_words))
    return instructions


def _memory_level_count(tiling: TilingPlan) -> int:
    """Length of :func:`_memory_level`: three tile loops, six address
    generators, the weight and input loads, an output reload when the plan
    reads partial sums back, and the output store."""
    return 3 + 6 + 2 + (1 if tiling.dram_output_read_bits > 0 else 0) + 1


def _inner_level(layer: Layer, tiling: TilingPlan) -> list[Instruction]:
    """Buffer-level loops, address generators and compute instructions."""
    loops = [_loop(_LOOP_INNER_R, tiling.tile_r, 1), _loop(_LOOP_INNER_M, tiling.tile_m, 1)]
    gen_addrs = [
        _gen_addr(ScratchpadType.IBUF, _LOOP_INNER_R, tiling.tile_n),
        _gen_addr(ScratchpadType.WBUF, _LOOP_INNER_M, tiling.tile_n),
        _UNIT_STEP[ScratchpadType.OBUF, _LOOP_INNER_R],
        _gen_addr(ScratchpadType.OBUF, _LOOP_INNER_M, tiling.tile_r),
    ]
    if isinstance(layer, ConvLayer):
        window = layer.kernel * layer.kernel
        inner_channels = max(1, tiling.tile_n // max(1, window))
        loops += [
            _loop(_LOOP_KERNEL_Y, layer.kernel, 1),
            _loop(_LOOP_KERNEL_X, layer.kernel, 1),
            _loop(_LOOP_CHANNEL, inner_channels, 1),
        ]
        gen_addrs += [
            _gen_addr(ScratchpadType.IBUF, _LOOP_KERNEL_Y, layer.in_width),
            _UNIT_STEP[ScratchpadType.IBUF, _LOOP_KERNEL_X],
            _gen_addr(ScratchpadType.IBUF, _LOOP_CHANNEL, layer.in_height * layer.in_width),
            _gen_addr(ScratchpadType.WBUF, _LOOP_KERNEL_Y, layer.kernel),
            _UNIT_STEP[ScratchpadType.WBUF, _LOOP_KERNEL_X],
            _gen_addr(ScratchpadType.WBUF, _LOOP_CHANNEL, window),
        ]
    elif isinstance(layer, (LSTMLayer, RNNLayer)):
        loops.append(_loop(_LOOP_GATE, layer.gates, 1))
        gen_addrs += [
            _gen_addr(ScratchpadType.WBUF, _LOOP_GATE, layer.hidden_size),
            _gen_addr(ScratchpadType.OBUF, _LOOP_GATE, layer.hidden_size),
        ]
    else:
        # Fully-connected layers walk the reduction dimension explicitly.
        loops.append(_loop(_LOOP_INNER_N, tiling.tile_n, 1))
        gen_addrs += [
            _UNIT_STEP[ScratchpadType.IBUF, _LOOP_INNER_N],
            _UNIT_STEP[ScratchpadType.WBUF, _LOOP_INNER_N],
        ]
    return [*loops, *gen_addrs, *_MACC_TAIL]


def _inner_level_count(layer: Layer) -> int:
    """Length of :func:`_inner_level`: the R and M loops with their four
    address generators, the layer kind's own walk, and the MACC tail."""
    if isinstance(layer, ConvLayer):
        walk = 3 + 6  # kernel-row, kernel-column and channel loops; six generators
    else:
        walk = 1 + 2  # one gate or reduction loop; two generators
    return 2 + 4 + walk + len(_MACC_TAIL)


def _fused_followers(fused: tuple[Layer, ...]) -> list[Instruction]:
    """Compute instructions for pooling/activation layers fused into a block."""
    instructions: list[Instruction] = []
    for index, layer in enumerate(fused):
        if isinstance(layer, PoolLayer):
            instructions += [
                _loop(_LOOP_FUSED_BASE + index, layer.kernel * layer.kernel, 1),
                _COMPUTE[ComputeFn.MAX if layer.mode == "max" else ComputeFn.ADD],
            ]
        elif isinstance(layer, ActivationLayer):
            instructions.append(_COMPUTE[ComputeFn.ACTIVATION])
    return instructions


def _fused_followers_count(fused: tuple[Layer, ...]) -> int:
    """Length of :func:`_fused_followers`: a loop and a compute per pooling
    layer, one compute per activation."""
    return sum(
        2 if isinstance(layer, PoolLayer) else 1 if isinstance(layer, ActivationLayer) else 0
        for layer in fused
    )


# ---------------------------------------------------------------------- #
# Block emission
# ---------------------------------------------------------------------- #
def _compute_block_count(layer: Layer, fused: tuple[Layer, ...], tiling: TilingPlan) -> int:
    """Length of :func:`_compute_block`: ``setup``, the two levels, the
    fused followers and ``block-end``."""
    memory, inner = _memory_level_count(tiling), _inner_level_count(layer)
    return 1 + memory + inner + _fused_followers_count(fused) + 1


def _compute_block(
    layer: Layer, fused: tuple[Layer, ...], tiling: TilingPlan
) -> list[Instruction]:
    """The instructions of a GEMM-shaped layer's block."""
    fused_output_words: int | None = None
    if fused:
        # The plan's output store is the last follower's output tensor.
        stored_elements = tiling.dram_output_write_bits // fused[-1].output_bits
        fused_output_words = max(1, stored_elements // max(1, tiling.tile_count))
    return [
        Setup(input_bits=layer.input_bits, weight_bits=layer.weight_bits),
        *_memory_level(tiling, fused_output_words),
        *_inner_level(layer, tiling),
        *_fused_followers(fused),
        _BLOCK_END,
    ]


#: Length of :func:`_auxiliary_block`, whatever the layer.
_AUXILIARY_BLOCK_COUNT = 14


def _auxiliary_block(layer: Layer, tiling: TilingPlan) -> list[Instruction]:
    """The instructions of a standalone pooling/activation layer's block."""
    if isinstance(layer, PoolLayer):
        inner_fn = ComputeFn.MAX if layer.mode == "max" else ComputeFn.ADD
        window = layer.kernel * layer.kernel
    else:
        inner_fn = ComputeFn.ACTIVATION
        window = 1
    return [
        Setup(input_bits=layer.input_bits, weight_bits=layer.weight_bits),
        _loop(_LOOP_R_TILE, tiling.r_tiles, 0),
        _UNIT_STEP[ScratchpadType.IBUF, _LOOP_R_TILE],
        _UNIT_STEP[ScratchpadType.OBUF, _LOOP_R_TILE],
        LdMem(scratchpad=ScratchpadType.IBUF, num_words=_clamp_iterations(tiling.tile_r)),
        _loop(_LOOP_INNER_R, tiling.tile_r // max(1, window), 1),
        _loop(_LOOP_CHANNEL, window, 1),
        _UNIT_STEP[ScratchpadType.IBUF, _LOOP_INNER_R],
        _UNIT_STEP[ScratchpadType.OBUF, _LOOP_INNER_R],
        _IBUF_READ,
        _COMPUTE[inner_fn],
        _OBUF_WRITE,
        StMem(
            scratchpad=ScratchpadType.OBUF,
            num_words=_clamp_iterations(max(1, tiling.tile_r // max(1, window))),
        ),
        _BLOCK_END,
    ]


def emit_block(compiled: CompiledBlock) -> InstructionBlock:
    """Emit a planned block's instructions (what ``compiled.block`` reads).

    The instructions are a pure function of the plan: the layer and its
    fused followers and the tiling (output store and loop order included).
    Every :class:`~repro.isa.instructions.Instruction` and the
    :class:`~repro.isa.block.InstructionBlock` validate as they are built,
    and the block must hold the plan's ``instruction_count``, the count the
    simulator charges fetch/decode for; a mismatch is a one-line
    :class:`ValueError` naming the block.
    """
    layer = compiled.layer
    if layer.has_gemm():
        instructions = _compute_block(layer, compiled.fused_layers, compiled.tiling)
    else:
        instructions = _auxiliary_block(layer, compiled.tiling)
    block = InstructionBlock(compiled.name, instructions)
    if len(block) != compiled.instruction_count:
        raise ValueError(
            f"block {compiled.name!r} emitted {len(block)} instructions, "
            f"its plan counts {compiled.instruction_count}"
        )
    return block
