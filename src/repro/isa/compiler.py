"""The Fusion-ISA compiler: DNN layers to instruction blocks (Section IV).

The compiler lowers every compute layer (convolution, fully-connected,
recurrent) to one instruction block:

1. The layer's GEMM shape and the batch size define the
   :class:`~repro.isa.tiling.GemmWorkload`.
2. The loop-ordering optimization picks the dataflow (output-, weight- or
   input-stationary) and the loop-tiling optimization picks tile sizes that
   fit the scratchpads.  A whole program's searches run as one batch
   (:func:`~repro.isa.tiling.search_tilings`), after every block is lowered
   and before any is emitted.
3. The layer-fusion optimization folds trailing pooling/activation layers
   into the block (:func:`~repro.isa.optimizations.fuse_layers`).
4. The block's instructions are emitted: a ``setup`` fixing the fusion
   configuration, the outer (memory-level) tile loops with their ``gen-addr``
   and ``ld-mem``/``st-mem`` instructions, the inner (buffer-level) loops
   with ``rd-buf``/``compute``/``wr-buf``, and the closing ``block-end``.

Standalone pooling/activation layers (ones with no preceding compute layer
to fuse into) compile to small blocks that exercise only the per-column
pooling/activation units and the input/output scratchpads.

The emitted blocks land in the 25-60 instruction range for the evaluated
layers, consistent with the paper's reported 30-86 instructions per block.
"""

from __future__ import annotations

from typing import Callable

from repro.core.config import BitFusionConfig
from repro.dnn.layers import (
    ActivationLayer,
    ConvLayer,
    FCLayer,
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

__all__ = [
    "FusionCompiler",
    "PlanResolver",
    "TilingRequest",
    "compile_layer",
    "compile_network",
]

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
    """Compiles layers and networks into Fusion-ISA programs.

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
        # Blocks already built, keyed by (head layer, fused followers,
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
        """The tiling search the block headed by ``head`` needs.

        Shared by :meth:`compile`, the single-layer entry points and
        :meth:`tiling_requests`, so the search a request predicts is
        exactly the search compilation runs.
        """
        if head.has_gemm():
            return self.gemm_workload(head, batch_size), self.gemm_orders()
        return (
            self.auxiliary_gemm_workload(head, batch_size),
            (LoopOrder.OUTPUT_STATIONARY,),
        )

    def tiling_requests(self, network: Network, batch_size: int) -> list[TilingRequest]:
        """The ``(gemm, orders)`` tiling searches compiling ``network`` would run.

        Derivable without searching or emitting a single instruction: fusion
        grouping plus GEMM-shape lowering only.  The keys built from these
        pairs are exactly the keys a fresh compiler's :meth:`compile` would
        hand its plan resolver, in program order.
        """
        decision = fuse_layers(network.layers, enable=self.enable_layer_fusion)
        return [self._tiling_request(group[0], batch_size) for group in decision.groups]

    # ------------------------------------------------------------------ #
    # Instruction emission
    # ------------------------------------------------------------------ #
    def _emit_memory_level(
        self, tiling: TilingPlan, fused_output_words: int | None
    ) -> list[Instruction]:
        """Outer tile loops, address generators and DRAM transfer instructions."""
        trips = {
            _LOOP_M_TILE: tiling.m_tiles,
            _LOOP_N_TILE: tiling.n_tiles,
            _LOOP_R_TILE: tiling.r_tiles,
        }
        instructions: list[Instruction] = [
            Loop(loop_id=loop_id, iterations=_clamp_iterations(trips[loop_id]), level=0)
            for loop_id in _TILE_LOOP_NEST[tiling.loop_order]
        ]

        # Address generation at tile granularity: tiles of each tensor are
        # laid out row-major in its address space, so the outer loop's stride
        # is the inner tile count and the inner loop's stride is one tile.
        instructions.extend(
            [
                GenAddr(
                    scratchpad=ScratchpadType.WBUF,
                    loop_id=_LOOP_M_TILE,
                    stride=_clamp_stride(trips[_LOOP_N_TILE]),
                ),
                _UNIT_STEP[ScratchpadType.WBUF, _LOOP_N_TILE],
                GenAddr(
                    scratchpad=ScratchpadType.IBUF,
                    loop_id=_LOOP_N_TILE,
                    stride=_clamp_stride(trips[_LOOP_R_TILE]),
                ),
                _UNIT_STEP[ScratchpadType.IBUF, _LOOP_R_TILE],
                GenAddr(
                    scratchpad=ScratchpadType.OBUF,
                    loop_id=_LOOP_M_TILE,
                    stride=_clamp_stride(trips[_LOOP_R_TILE]),
                ),
                _UNIT_STEP[ScratchpadType.OBUF, _LOOP_R_TILE],
            ]
        )

        weight_words = _clamp_iterations(tiling.tile_m * tiling.tile_n)
        input_words = _clamp_iterations(tiling.tile_n * tiling.tile_r)
        output_words = _clamp_iterations(
            fused_output_words
            if fused_output_words is not None
            else tiling.tile_m * tiling.tile_r
        )
        instructions.append(LdMem(scratchpad=ScratchpadType.WBUF, num_words=weight_words))
        instructions.append(LdMem(scratchpad=ScratchpadType.IBUF, num_words=input_words))
        if tiling.dram_output_read_bits > 0:
            instructions.append(
                LdMem(scratchpad=ScratchpadType.OBUF, num_words=output_words)
            )
        instructions.append(StMem(scratchpad=ScratchpadType.OBUF, num_words=output_words))
        return instructions

    def _emit_inner_level(self, layer: Layer, tiling: TilingPlan) -> list[Instruction]:
        """Buffer-level loops, address generators and compute instructions."""
        instructions: list[Instruction] = [
            Loop(
                loop_id=_LOOP_INNER_R,
                iterations=_clamp_iterations(tiling.tile_r),
                level=1,
            ),
            Loop(
                loop_id=_LOOP_INNER_M,
                iterations=_clamp_iterations(tiling.tile_m),
                level=1,
            ),
        ]
        gen_addrs: list[GenAddr] = [
            GenAddr(
                scratchpad=ScratchpadType.IBUF,
                loop_id=_LOOP_INNER_R,
                stride=_clamp_stride(tiling.tile_n),
            ),
            GenAddr(
                scratchpad=ScratchpadType.WBUF,
                loop_id=_LOOP_INNER_M,
                stride=_clamp_stride(tiling.tile_n),
            ),
            _UNIT_STEP[ScratchpadType.OBUF, _LOOP_INNER_R],
            GenAddr(
                scratchpad=ScratchpadType.OBUF,
                loop_id=_LOOP_INNER_M,
                stride=_clamp_stride(tiling.tile_r),
            ),
        ]

        if isinstance(layer, ConvLayer):
            inner_channels = max(
                1, tiling.tile_n // max(1, layer.kernel * layer.kernel)
            )
            instructions.extend(
                [
                    Loop(
                        loop_id=_LOOP_KERNEL_Y,
                        iterations=_clamp_iterations(layer.kernel),
                        level=1,
                    ),
                    Loop(
                        loop_id=_LOOP_KERNEL_X,
                        iterations=_clamp_iterations(layer.kernel),
                        level=1,
                    ),
                    Loop(
                        loop_id=_LOOP_CHANNEL,
                        iterations=_clamp_iterations(inner_channels),
                        level=1,
                    ),
                ]
            )
            gen_addrs.extend(
                [
                    GenAddr(
                        scratchpad=ScratchpadType.IBUF,
                        loop_id=_LOOP_KERNEL_Y,
                        stride=_clamp_stride(layer.in_width),
                    ),
                    _UNIT_STEP[ScratchpadType.IBUF, _LOOP_KERNEL_X],
                    GenAddr(
                        scratchpad=ScratchpadType.IBUF,
                        loop_id=_LOOP_CHANNEL,
                        stride=_clamp_stride(layer.in_height * layer.in_width),
                    ),
                    GenAddr(
                        scratchpad=ScratchpadType.WBUF,
                        loop_id=_LOOP_KERNEL_Y,
                        stride=_clamp_stride(layer.kernel),
                    ),
                    _UNIT_STEP[ScratchpadType.WBUF, _LOOP_KERNEL_X],
                    GenAddr(
                        scratchpad=ScratchpadType.WBUF,
                        loop_id=_LOOP_CHANNEL,
                        stride=_clamp_stride(layer.kernel * layer.kernel),
                    ),
                ]
            )
        elif isinstance(layer, (LSTMLayer, RNNLayer)):
            instructions.append(
                Loop(
                    loop_id=_LOOP_GATE,
                    iterations=_clamp_iterations(layer.gates),
                    level=1,
                )
            )
            gen_addrs.extend(
                [
                    GenAddr(
                        scratchpad=ScratchpadType.WBUF,
                        loop_id=_LOOP_GATE,
                        stride=_clamp_stride(layer.hidden_size),
                    ),
                    GenAddr(
                        scratchpad=ScratchpadType.OBUF,
                        loop_id=_LOOP_GATE,
                        stride=_clamp_stride(layer.hidden_size),
                    ),
                ]
            )
        else:
            # Fully-connected layers walk the reduction dimension explicitly.
            instructions.append(
                Loop(
                    loop_id=_LOOP_INNER_N,
                    iterations=_clamp_iterations(tiling.tile_n),
                    level=1,
                )
            )
            gen_addrs.extend(
                [
                    _UNIT_STEP[ScratchpadType.IBUF, _LOOP_INNER_N],
                    _UNIT_STEP[ScratchpadType.WBUF, _LOOP_INNER_N],
                ]
            )

        instructions.extend(gen_addrs)
        instructions.extend(_MACC_TAIL)
        return instructions

    def _emit_fused_followers(self, fused: tuple[Layer, ...]) -> list[Instruction]:
        """Compute instructions for pooling/activation layers fused into a block."""
        instructions: list[Instruction] = []
        for index, layer in enumerate(fused):
            if isinstance(layer, PoolLayer):
                instructions.extend(
                    [
                        Loop(
                            loop_id=_LOOP_FUSED_BASE + index,
                            iterations=_clamp_iterations(layer.kernel * layer.kernel),
                            level=1,
                        ),
                        _COMPUTE[ComputeFn.MAX if layer.mode == "max" else ComputeFn.ADD],
                    ]
                )
            elif isinstance(layer, ActivationLayer):
                instructions.append(_COMPUTE[ComputeFn.ACTIVATION])
        return instructions

    # ------------------------------------------------------------------ #
    # Layer compilation
    # ------------------------------------------------------------------ #
    def compile_compute_layer(
        self,
        layer: Layer,
        batch_size: int,
        fused: tuple[Layer, ...] = (),
    ) -> CompiledBlock:
        """Compile one GEMM-shaped layer (plus fused followers) to a block."""
        workload = self.gemm_workload(layer, batch_size)
        (tiling,) = self._plan_tilings([(workload, self.gemm_orders())])
        return self._emit_compute_block(layer, fused, batch_size, tiling)

    def _emit_compute_block(
        self,
        layer: Layer,
        fused: tuple[Layer, ...],
        batch_size: int,
        tiling: TilingPlan,
    ) -> CompiledBlock:
        """Emit the block of a GEMM-shaped layer whose tiling is planned."""
        fused_output_words: int | None = None
        if fused:
            final = fused[-1]
            stored_elements = final.output_elements() * batch_size
            tiling = tiling.with_output_store_bits(stored_elements * final.output_bits)
            fused_output_words = max(1, stored_elements // max(1, tiling.tile_count))

        instructions: list[Instruction] = [
            Setup(input_bits=layer.input_bits, weight_bits=layer.weight_bits)
        ]
        instructions.extend(self._emit_memory_level(tiling, fused_output_words))
        instructions.extend(self._emit_inner_level(layer, tiling))
        instructions.extend(self._emit_fused_followers(fused))
        instructions.append(_BLOCK_END)

        name = layer.name if not fused else f"{layer.name}+{'+'.join(l.name for l in fused)}"
        return CompiledBlock(
            block=InstructionBlock(name, instructions),
            layer=layer,
            tiling=tiling,
            loop_order=tiling.loop_order,
            fused_layers=fused,
        )

    def compile_auxiliary_layer(self, layer: Layer, batch_size: int) -> CompiledBlock:
        """Compile a standalone pooling/activation layer to its own block.

        The data still lowers to a (degenerate) workload so the simulator can
        charge its DRAM traffic; the compute happens on the per-column units.
        """
        if layer.has_gemm():
            raise ValueError(
                f"layer {layer.name!r} lowers to a GEMM; use compile_compute_layer"
            )
        (tiling,) = self._plan_tilings([self._tiling_request(layer, batch_size)])
        return self._emit_auxiliary_block(layer, batch_size, tiling)

    def _emit_auxiliary_block(
        self, layer: Layer, batch_size: int, tiling: TilingPlan
    ) -> CompiledBlock:
        """Emit the block of a pooling/activation layer whose tiling is planned."""
        tiling = tiling.with_output_store_bits(
            layer.output_elements() * batch_size * layer.output_bits
        )

        if isinstance(layer, PoolLayer):
            inner_fn = ComputeFn.MAX if layer.mode == "max" else ComputeFn.ADD
            window = layer.kernel * layer.kernel
        else:
            inner_fn = ComputeFn.ACTIVATION
            window = 1

        instructions: list[Instruction] = [
            Setup(input_bits=layer.input_bits, weight_bits=layer.weight_bits),
            Loop(loop_id=_LOOP_R_TILE, iterations=_clamp_iterations(tiling.r_tiles), level=0),
            _UNIT_STEP[ScratchpadType.IBUF, _LOOP_R_TILE],
            _UNIT_STEP[ScratchpadType.OBUF, _LOOP_R_TILE],
            LdMem(
                scratchpad=ScratchpadType.IBUF,
                num_words=_clamp_iterations(tiling.tile_r),
            ),
            Loop(
                loop_id=_LOOP_INNER_R,
                iterations=_clamp_iterations(tiling.tile_r // max(1, window)),
                level=1,
            ),
            Loop(loop_id=_LOOP_CHANNEL, iterations=_clamp_iterations(window), level=1),
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
        return CompiledBlock(
            block=InstructionBlock(layer.name, instructions),
            layer=layer,
            tiling=tiling,
            loop_order=LoopOrder.OUTPUT_STATIONARY,
            fused_layers=(),
        )

    # ------------------------------------------------------------------ #
    # Network compilation
    # ------------------------------------------------------------------ #
    def compile(self, network: Network, batch_size: int) -> Program:
        """Compile a whole network into an ordered program of blocks.

        Each fusion group is built once per compiler: a block's instructions
        depend only on its head layer, fused followers and batch size (plus
        this compiler's config, flags and resolver), and every block ends in
        ``block-end 0``, so its position in the network never enters the
        image.  A group seen before — a NAS mutant's unchanged layers, say —
        returns the same :class:`CompiledBlock` object, with its memoized
        fingerprints.  Layers compare as dataclasses, so two layers differing
        only in name or concrete class never share a block.

        The groups not built yet are lowered first, and their tiling
        searches go to the plan resolver in one call, in program order (a
        network's layer names are unique, so no group repeats within it);
        only then are their blocks emitted.
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
                    self._blocks[key] = self._emit_compute_block(
                        head, followers, batch_size, tiling
                    )
                else:
                    # A non-compute group never has followers (fusion only
                    # attaches pool/activation layers to a preceding compute
                    # layer).
                    self._blocks[key] = self._emit_auxiliary_block(head, batch_size, tiling)
        return Program(
            network.name,
            [
                block if block is not None else self._blocks[key]
                for key, block in zip(keys, blocks)
            ],
        )


def compile_layer(layer: Layer, config: BitFusionConfig, batch_size: int) -> CompiledBlock:
    """Convenience wrapper: compile a single layer with default optimizations."""
    compiler = FusionCompiler(config)
    if layer.has_gemm():
        return compiler.compile_compute_layer(layer, batch_size)
    return compiler.compile_auxiliary_layer(layer, batch_size)


def compile_network(network: Network, config: BitFusionConfig, batch_size: int) -> Program:
    """Convenience wrapper: compile a network with default optimizations."""
    return FusionCompiler(config).compile(network, batch_size)
