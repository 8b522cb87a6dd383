"""The Fusion-ISA compiler: DNN layers to instruction blocks (Section IV).

The compiler lowers every compute layer (convolution, fully-connected,
recurrent) to one instruction block:

1. The layer's GEMM shape and the batch size define the
   :class:`~repro.isa.tiling.GemmWorkload`.
2. The loop-ordering optimization picks the dataflow (output-, weight- or
   input-stationary) and the loop-tiling optimization picks tile sizes that
   fit the scratchpads (:func:`~repro.isa.optimizations.choose_loop_order`).
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

from dataclasses import dataclass
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
from repro.isa.optimizations import choose_loop_order, choose_loop_order_scalar, fuse_layers
from repro.isa.program import CompiledBlock, Program
from repro.isa.tiling import GemmWorkload, TilingPlan

__all__ = ["FusionCompiler", "PlanResolver", "compile_layer", "compile_network"]

#: Hook the evaluation session uses to memoize tiling searches across
#: compilations: ``(gemm, orders, compute)`` where ``compute`` runs the
#: actual search.  A resolver may serve the plan from a cache instead of
#: calling ``compute``; the plan it returns must be exactly what ``compute``
#: would have produced (plans serialize losslessly, so a cache round-trip
#: preserves this).
PlanResolver = Callable[
    [GemmWorkload, tuple[LoopOrder, ...], Callable[[], TilingPlan]], TilingPlan
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


def _clamp_iterations(value: int) -> int:
    """Clamp a loop trip count into the 16-bit immediate field."""
    return max(1, min(int(value), _MAX_IMMEDIATE))


def _clamp_stride(value: int) -> int:
    return max(0, min(int(value), _MAX_IMMEDIATE))


@dataclass(frozen=True)
class _GemmLowering:
    """Intermediate result of lowering one compute layer."""

    workload: GemmWorkload
    tiling: TilingPlan


class FusionCompiler:
    """Compiles layers and networks into Fusion-ISA programs.

    Parameters
    ----------
    config:
        The accelerator configuration (scratchpad sizes, batch size) the
        tiling decisions target.
    enable_loop_ordering:
        When ``False``, the compiler always uses the output-stationary order
        instead of searching (used by the ablation benchmarks).
    enable_layer_fusion:
        When ``False``, pooling/activation layers get their own blocks and
        their intermediate tensors travel through DRAM.
    plan_resolver:
        Optional :data:`PlanResolver` consulted before every tiling search.
        The evaluation session installs one backed by its artifact cache, so
        duplicate GEMM shapes — within a network, across networks, and
        across sweep points that share buffer geometry — skip the search
        entirely.  ``None`` (the default) searches unconditionally.
    vectorized_search:
        When ``False``, tiling searches run the pure-Python reference
        implementation instead of the vectorized grid scorer.  The two are
        bit-identical by contract (tested); the flag exists so the perf
        suite and the oracle tests can compile whole networks both ways.
    """

    def __init__(
        self,
        config: BitFusionConfig,
        enable_loop_ordering: bool = True,
        enable_layer_fusion: bool = True,
        plan_resolver: PlanResolver | None = None,
        vectorized_search: bool = True,
    ) -> None:
        self.config = config
        self.enable_loop_ordering = enable_loop_ordering
        self.enable_layer_fusion = enable_layer_fusion
        self.plan_resolver = plan_resolver
        self.vectorized_search = vectorized_search
        # Blocks already built, keyed by (head layer, fused followers,
        # batch size): see :meth:`compile`.
        self._blocks: dict[tuple[Layer, tuple[Layer, ...], int | None], CompiledBlock] = {}

    def _plan_tiling(
        self, workload: GemmWorkload, orders: tuple[LoopOrder, ...]
    ) -> TilingPlan:
        """Search (or resolve from the memo) the tiling for one GEMM.

        ``orders`` names the dataflows the search may consider — the full
        tuple when loop ordering is enabled, just ``OUTPUT_STATIONARY``
        otherwise (and always for auxiliary layers) — and is part of the
        resolver's memo key, so ablation runs never share plans with
        optimized ones.
        """
        search = choose_loop_order if self.vectorized_search else choose_loop_order_scalar

        def compute() -> TilingPlan:
            return search(workload, self.config, orders)

        if self.plan_resolver is not None:
            return self.plan_resolver(workload, orders, compute)
        return compute()

    # ------------------------------------------------------------------ #
    # Workload lowering
    # ------------------------------------------------------------------ #
    def gemm_workload(self, layer: Layer, batch_size: int | None = None) -> GemmWorkload:
        """The GEMM a compute layer lowers to, with the batch folded into R."""
        if not layer.has_gemm():
            raise ValueError(f"layer {layer.name!r} does not lower to a GEMM")
        batch = self.config.batch_size if batch_size is None else batch_size
        if batch <= 0:
            raise ValueError(f"batch size must be positive, got {batch}")
        shape = layer.gemm_shape()
        return GemmWorkload(
            m=shape.m,
            n=shape.n,
            r=shape.repeats * batch,
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

    def auxiliary_gemm_workload(
        self, layer: Layer, batch_size: int | None = None
    ) -> GemmWorkload:
        """The degenerate GEMM a pooling/activation layer lowers to.

        The data still flows as a (1, 1, elements x batch) workload so the
        simulator can charge its DRAM traffic; shared between
        :meth:`compile_auxiliary_layer` and :meth:`tiling_requests` so the
        search a request predicts is exactly the search compilation runs.
        """
        batch = self.config.batch_size if batch_size is None else batch_size
        if batch <= 0:
            raise ValueError(f"batch size must be positive, got {batch}")
        return GemmWorkload(
            m=1,
            n=1,
            r=max(1, layer.input_elements() * batch),
            input_bits=layer.input_bits,
            weight_bits=layer.weight_bits,
            output_bits=layer.output_bits,
        )

    def tiling_requests(
        self, network: Network, batch_size: int | None = None
    ) -> list[tuple[GemmWorkload, tuple[LoopOrder, ...]]]:
        """The ``(gemm, orders)`` tiling searches compiling ``network`` would run.

        Derivable without searching or emitting a single instruction: fusion
        grouping plus GEMM-shape lowering only.  The keys built from these
        pairs are exactly the keys :meth:`~FusionCompiler.compile` would
        consult through its plan resolver, in program order.
        """
        decision = fuse_layers(network.layers, enable=self.enable_layer_fusion)
        requests: list[tuple[GemmWorkload, tuple[LoopOrder, ...]]] = []
        for group in decision.groups:
            head = group[0]
            if head.has_gemm():
                requests.append((self.gemm_workload(head, batch_size), self.gemm_orders()))
            else:
                requests.append(
                    (
                        self.auxiliary_gemm_workload(head, batch_size),
                        (LoopOrder.OUTPUT_STATIONARY,),
                    )
                )
        return requests

    def _lower_gemm(self, layer: Layer, batch_size: int | None = None) -> _GemmLowering:
        workload = self.gemm_workload(layer, batch_size)
        return _GemmLowering(
            workload=workload, tiling=self._plan_tiling(workload, self.gemm_orders())
        )

    # ------------------------------------------------------------------ #
    # Instruction emission
    # ------------------------------------------------------------------ #
    def _emit_memory_level(
        self, tiling: TilingPlan, fused_output_words: int | None
    ) -> list[Instruction]:
        """Outer tile loops, address generators and DRAM transfer instructions."""
        instructions: list[Instruction] = []

        # The stationary tensor's loop sits outermost so its tile is re-used
        # across the inner tile loops; the declaration order encodes that.
        order_to_loops = {
            LoopOrder.OUTPUT_STATIONARY: (
                (_LOOP_M_TILE, tiling.m_tiles),
                (_LOOP_R_TILE, tiling.r_tiles),
                (_LOOP_N_TILE, tiling.n_tiles),
            ),
            LoopOrder.WEIGHT_STATIONARY: (
                (_LOOP_M_TILE, tiling.m_tiles),
                (_LOOP_N_TILE, tiling.n_tiles),
                (_LOOP_R_TILE, tiling.r_tiles),
            ),
            LoopOrder.INPUT_STATIONARY: (
                (_LOOP_N_TILE, tiling.n_tiles),
                (_LOOP_R_TILE, tiling.r_tiles),
                (_LOOP_M_TILE, tiling.m_tiles),
            ),
        }
        for loop_id, trips in order_to_loops[tiling.loop_order]:
            instructions.append(
                Loop(loop_id=loop_id, iterations=_clamp_iterations(trips), level=0)
            )

        # Address generation at tile granularity: tiles of each tensor are
        # laid out row-major in its address space, so the outer loop's stride
        # is the inner tile count and the inner loop's stride is one tile.
        instructions.extend(
            [
                GenAddr(
                    scratchpad=ScratchpadType.WBUF,
                    loop_id=_LOOP_M_TILE,
                    stride=_clamp_stride(tiling.n_tiles),
                ),
                GenAddr(scratchpad=ScratchpadType.WBUF, loop_id=_LOOP_N_TILE, stride=1),
                GenAddr(
                    scratchpad=ScratchpadType.IBUF,
                    loop_id=_LOOP_N_TILE,
                    stride=_clamp_stride(tiling.r_tiles),
                ),
                GenAddr(scratchpad=ScratchpadType.IBUF, loop_id=_LOOP_R_TILE, stride=1),
                GenAddr(
                    scratchpad=ScratchpadType.OBUF,
                    loop_id=_LOOP_M_TILE,
                    stride=_clamp_stride(tiling.r_tiles),
                ),
                GenAddr(scratchpad=ScratchpadType.OBUF, loop_id=_LOOP_R_TILE, stride=1),
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
            GenAddr(scratchpad=ScratchpadType.OBUF, loop_id=_LOOP_INNER_R, stride=1),
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
                    GenAddr(scratchpad=ScratchpadType.IBUF, loop_id=_LOOP_KERNEL_X, stride=1),
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
                    GenAddr(scratchpad=ScratchpadType.WBUF, loop_id=_LOOP_KERNEL_X, stride=1),
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
                    GenAddr(scratchpad=ScratchpadType.IBUF, loop_id=_LOOP_INNER_N, stride=1),
                    GenAddr(scratchpad=ScratchpadType.WBUF, loop_id=_LOOP_INNER_N, stride=1),
                ]
            )

        instructions.extend(gen_addrs)
        instructions.extend(
            [
                RdBuf(scratchpad=ScratchpadType.IBUF),
                RdBuf(scratchpad=ScratchpadType.WBUF),
                RdBuf(scratchpad=ScratchpadType.OBUF),
                Compute(fn=ComputeFn.MACC),
                WrBuf(scratchpad=ScratchpadType.OBUF),
            ]
        )
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
                        Compute(fn=ComputeFn.MAX if layer.mode == "max" else ComputeFn.ADD),
                    ]
                )
            elif isinstance(layer, ActivationLayer):
                instructions.append(Compute(fn=ComputeFn.ACTIVATION))
        return instructions

    # ------------------------------------------------------------------ #
    # Layer compilation
    # ------------------------------------------------------------------ #
    def compile_compute_layer(
        self,
        layer: Layer,
        fused: tuple[Layer, ...] = (),
        batch_size: int | None = None,
    ) -> CompiledBlock:
        """Compile one GEMM-shaped layer (plus fused followers) to a block."""
        lowering = self._lower_gemm(layer, batch_size)
        tiling = lowering.tiling
        batch = self.config.batch_size if batch_size is None else batch_size

        fused_output_words: int | None = None
        if fused:
            final = fused[-1]
            stored_elements = final.output_elements() * batch
            tiling = tiling.with_output_store_bits(stored_elements * final.output_bits)
            fused_output_words = max(1, stored_elements // max(1, tiling.tile_count))

        instructions: list[Instruction] = [
            Setup(input_bits=layer.input_bits, weight_bits=layer.weight_bits)
        ]
        instructions.extend(self._emit_memory_level(tiling, fused_output_words))
        instructions.extend(self._emit_inner_level(layer, tiling))
        instructions.extend(self._emit_fused_followers(fused))
        instructions.append(BlockEnd(next_block=0))

        name = layer.name if not fused else f"{layer.name}+{'+'.join(l.name for l in fused)}"
        return CompiledBlock(
            block=InstructionBlock(name, instructions),
            layer=layer,
            tiling=tiling,
            loop_order=tiling.loop_order,
            fused_layers=fused,
        )

    def compile_auxiliary_layer(
        self, layer: Layer, batch_size: int | None = None
    ) -> CompiledBlock:
        """Compile a standalone pooling/activation layer to its own block.

        The data still lowers to a (degenerate) workload so the simulator can
        charge its DRAM traffic; the compute happens on the per-column units.
        """
        if layer.has_gemm():
            raise ValueError(
                f"layer {layer.name!r} lowers to a GEMM; use compile_compute_layer"
            )
        batch = self.config.batch_size if batch_size is None else batch_size
        workload = self.auxiliary_gemm_workload(layer, batch_size)
        tiling = self._plan_tiling(workload, (LoopOrder.OUTPUT_STATIONARY,))
        tiling = tiling.with_output_store_bits(
            layer.output_elements() * batch * layer.output_bits
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
            GenAddr(scratchpad=ScratchpadType.IBUF, loop_id=_LOOP_R_TILE, stride=1),
            GenAddr(scratchpad=ScratchpadType.OBUF, loop_id=_LOOP_R_TILE, stride=1),
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
            GenAddr(scratchpad=ScratchpadType.IBUF, loop_id=_LOOP_INNER_R, stride=1),
            GenAddr(scratchpad=ScratchpadType.OBUF, loop_id=_LOOP_INNER_R, stride=1),
            RdBuf(scratchpad=ScratchpadType.IBUF),
            Compute(fn=inner_fn),
            WrBuf(scratchpad=ScratchpadType.OBUF),
            StMem(
                scratchpad=ScratchpadType.OBUF,
                num_words=_clamp_iterations(max(1, tiling.tile_r // max(1, window))),
            ),
            BlockEnd(next_block=0),
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
    def compile(self, network: Network, batch_size: int | None = None) -> Program:
        """Compile a whole network into an ordered program of blocks.

        Each fusion group is built once per compiler: a block's instructions
        depend only on its head layer, fused followers and batch size (plus
        this compiler's config, flags and resolver), and every block ends in
        ``block-end 0``, so its position in the network never enters the
        image.  A group seen before — a NAS mutant's unchanged layers, say —
        returns the same :class:`CompiledBlock` object, with its memoized
        fingerprints.  Layers compare as dataclasses, so two layers differing
        only in name or concrete class never share a block.
        """
        decision = fuse_layers(network.layers, enable=self.enable_layer_fusion)
        program = Program(network.name)
        for group in decision.groups:
            head, followers = group[0], group[1:]
            key = (head, followers, batch_size)
            compiled = self._blocks.get(key)
            if compiled is None:
                if head.has_gemm():
                    compiled = self.compile_compute_layer(
                        head, fused=followers, batch_size=batch_size
                    )
                else:
                    # A non-compute group never has followers (fusion only
                    # attaches pool/activation layers to a preceding compute
                    # layer).
                    compiled = self.compile_auxiliary_layer(head, batch_size=batch_size)
                self._blocks[key] = compiled
            program.append(compiled)
        return program


def compile_layer(
    layer: Layer, config: BitFusionConfig, batch_size: int | None = None
) -> CompiledBlock:
    """Convenience wrapper: compile a single layer with default optimizations."""
    compiler = FusionCompiler(config)
    if layer.has_gemm():
        return compiler.compile_compute_layer(layer, batch_size=batch_size)
    return compiler.compile_auxiliary_layer(layer, batch_size=batch_size)


def compile_network(
    network: Network, config: BitFusionConfig, batch_size: int | None = None
) -> Program:
    """Convenience wrapper: compile a network with default optimizations."""
    return FusionCompiler(config).compile(network, batch_size=batch_size)
