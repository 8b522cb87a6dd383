"""Compiled programs: the ordered instruction blocks of one network.

A :class:`Program` is what the compiler produces for a whole DNN and what
the simulator prices.  Each entry is a :class:`CompiledBlock`, the block's
plan: the layer it implements, any fused follow-on layers, its tiling plan
(which carries the chosen loop order) and its instruction count —
everything the simulator reads.  The block's
:class:`~repro.isa.block.InstructionBlock` is emitted from the plan on
first read and kept on the instance.

The evaluation session keys per-block simulation results on the name-free
:meth:`CompiledBlock.layer_fingerprint`, which hashes the plan (layer,
fused layers, tiling, loop order), never the instructions: they are a pure
function of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from repro.dnn.layers import Layer, layer_to_dict
from repro.fingerprint import fingerprint_payload
from repro.isa.block import InstructionBlock
from repro.isa.instructions import INSTRUCTION_BYTES
from repro.isa.tiling import TilingPlan

__all__ = ["CompiledBlock", "Program"]


@dataclass(frozen=True)
class CompiledBlock:
    """One instruction block's plan: everything the simulator consumes.

    Attributes
    ----------
    name:
        The block's name: its layer's, joined with any fused followers'.
    layer:
        The compute layer the block implements.
    tiling:
        The tiling plan (tile sizes, off-chip traffic and the dataflow
        loop order the search picked) chosen for it, with the output
        store of any fused followers already applied.
    instruction_count:
        The number of instructions the block holds, ``setup`` and
        ``block-end`` included: the simulator charges one fetch/decode
        cycle each.  Emission checks the instructions against it.
    fused_layers:
        Pooling/activation layers folded into this block by layer fusion;
        their intermediate tensors never travel to DRAM.
    """

    name: str
    layer: Layer
    tiling: TilingPlan
    instruction_count: int
    fused_layers: tuple[Layer, ...] = field(default_factory=tuple)

    @property
    def block(self) -> InstructionBlock:
        """The validated instruction block, emitted on first read.

        Emission (:func:`repro.isa.compiler.emit_block`) runs once per
        instance; the block is kept outside the dataclass fields, so
        equality and ``asdict`` are unaffected.
        """
        block = self.__dict__.get("_block")
        if block is None:
            # The compiler builds CompiledBlocks, so it imports this module.
            from repro.isa.compiler import emit_block

            block = emit_block(self)
            object.__setattr__(self, "_block", block)
        return block

    # ------------------------------------------------------------------ #
    # Fingerprinting
    # ------------------------------------------------------------------ #
    def layer_content_dict(self) -> dict[str, Any]:
        """The block's plan with every name stripped: pure layer content.

        Block and layer names carry no simulation-affecting information —
        they only label results — so this payload identifies *what the block
        computes*: the layer shape and bitwidths, the tiling plan, the loop
        order and any fused follow-on layers, which determine the
        instructions (:func:`repro.isa.compiler.emit_block`).
        """

        def _nameless(layer: Layer) -> dict[str, Any]:
            return {k: v for k, v in layer_to_dict(layer).items() if k != "name"}

        return {
            "layer": _nameless(self.layer),
            "tiling": self.tiling.fingerprint(),
            "loop_order": self.tiling.loop_order.value,
            "fused_layers": [_nameless(layer) for layer in self.fused_layers],
        }

    def layer_fingerprint(self) -> str:
        """Name-free content hash: identical layers collapse across networks.

        This digest ignores the block and layer names, so the same (layer
        shape, bitwidths, tiling, loop order, fused layers) appearing in two
        different networks — the model-family case — hashes identically.
        It keys the session's simulated-block records
        (:func:`repro.session.engine.plan_program`); a record found through
        it is renamed to the requesting block before use.

        Memoized on the (frozen) instance, outside the dataclass fields.
        The payload is dumped whole: a compiler hands back the block it
        already planned for an unchanged layer, so no layer text would be
        reused by memoizing it.
        """
        cached = self.__dict__.get("_layer_fingerprint")
        if cached is None:
            cached = fingerprint_payload(self.layer_content_dict())
            object.__setattr__(self, "_layer_fingerprint", cached)
        return cached


class Program:
    """The ordered list of compiled blocks for one network.

    A program is the unit the compile stage of the evaluation pipeline
    caches, under the structure-only
    :func:`~repro.session.engine.program_cache_key` over the compiler's
    inputs: the key identifies what went in, never what came out.
    """

    def __init__(self, network_name: str, blocks: Sequence[CompiledBlock] = ()) -> None:
        if not network_name:
            raise ValueError("program network name must be non-empty")
        self.network_name = network_name
        self._blocks: list[CompiledBlock] = list(blocks)
        self._layer_fingerprints: tuple[str, ...] | None = None

    @property
    def blocks(self) -> list[CompiledBlock]:
        return list(self._blocks)

    def __iter__(self) -> Iterator[CompiledBlock]:
        return iter(self._blocks)

    def __len__(self) -> int:
        return len(self._blocks)

    def __getitem__(self, index: int) -> CompiledBlock:
        return self._blocks[index]

    # ------------------------------------------------------------------ #
    # Fingerprinting
    # ------------------------------------------------------------------ #
    def layer_fingerprints(self) -> tuple[str, ...]:
        """Every block's :meth:`CompiledBlock.layer_fingerprint`, in order (memoized)."""
        if self._layer_fingerprints is None:
            self._layer_fingerprints = tuple(
                compiled.layer_fingerprint() for compiled in self._blocks
            )
        return self._layer_fingerprints

    # ------------------------------------------------------------------ #
    # Aggregate statistics
    # ------------------------------------------------------------------ #
    def total_instructions(self) -> int:
        """Total instruction count over all blocks (emitting each)."""
        return sum(len(compiled.block) for compiled in self)

    def total_binary_bytes(self) -> int:
        """Total binary footprint of the compiled program."""
        return self.total_instructions() * INSTRUCTION_BYTES

    def summary(self) -> str:
        """Human-readable per-block summary."""
        lines = [f"Program for {self.network_name}: {len(self)} blocks"]
        header = (
            f"{'block':28s} {'instrs':>7s} {'loops':>6s} {'in/wt bits':>10s} "
            f"{'order':>18s} {'fused':>6s}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for compiled in self:
            block = compiled.block
            lines.append(
                f"{compiled.name:28s} {len(block):7d} {len(block.loops()):6d} "
                f"{block.input_bits:>4d}/{block.weight_bits:<5d} "
                f"{compiled.tiling.loop_order.value:>18s} {len(compiled.fused_layers):6d}"
            )
        return "\n".join(lines)
