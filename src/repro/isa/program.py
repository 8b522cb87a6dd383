"""Compiled programs: the ordered instruction blocks of one network.

A :class:`Program` is what the compiler produces for a whole DNN and what
the cycle-accurate simulator executes.  Each entry pairs an
:class:`~repro.isa.block.InstructionBlock` with the compilation metadata the
simulator needs (the layer it implements, its tiling plan, the chosen loop
order and any fused follow-on layers).

Programs (and their blocks) serialize deterministically to JSON-compatible
dictionaries — instructions through the Table I binary encoding, layers and
tiling plans field by field — and fingerprint themselves over that payload.
The evaluation session memoizes programs in process, reuses them across
sweep points that only vary simulation parameters, and keys per-block
simulation results on the name-free block fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from repro.dnn.layers import Layer, layer_to_dict
from repro.fingerprint import fingerprint_payload
from repro.isa.block import InstructionBlock
from repro.isa.instructions import LoopOrder
from repro.isa.tiling import TilingPlan

__all__ = ["CompiledBlock", "Program"]


@dataclass(frozen=True)
class CompiledBlock:
    """One instruction block plus the metadata the simulator consumes.

    Attributes
    ----------
    block:
        The validated instruction block.
    layer:
        The compute layer the block implements.
    tiling:
        The tiling plan (tile sizes and off-chip traffic) chosen for it.
    loop_order:
        The dataflow ordering picked by the loop-ordering optimization.
    fused_layers:
        Pooling/activation layers folded into this block by layer fusion;
        their intermediate tensors never travel to DRAM.
    """

    block: InstructionBlock
    layer: Layer
    tiling: TilingPlan
    loop_order: LoopOrder
    fused_layers: tuple[Layer, ...] = field(default_factory=tuple)

    @property
    def name(self) -> str:
        return self.block.name

    # ------------------------------------------------------------------ #
    # Serialization and fingerprinting
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible payload carrying everything the simulator reads."""
        return {
            "block": self.block.to_dict(),
            "layer": layer_to_dict(self.layer),
            "tiling": self.tiling.to_dict(),
            "loop_order": self.loop_order.value,
            "fused_layers": [layer_to_dict(layer) for layer in self.fused_layers],
        }

    def fingerprint(self) -> str:
        """Stable content hash over the serialized block payload.

        Two blocks with identical instructions, layer, tiling and fusion
        metadata hash the same in any process; the batched simulation
        executor uses this digest to recognize identical block batches
        across sweep points.

        Memoized on the (frozen) instance: serializing the instruction
        image anew for each call was a measurable share of the warm path.
        The memo is stored outside the dataclass fields, so equality,
        ``asdict`` and pickling are unaffected.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            cached = fingerprint_payload(self.to_dict())
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    def layer_content_dict(self) -> dict[str, Any]:
        """The block's payload with every name stripped: pure layer content.

        Block and layer names carry no simulation-affecting information —
        they only label results — so this payload identifies *what the block
        computes*: the binary instruction image, the layer shape and
        bitwidths, the tiling plan and any fused follow-on layers.
        """

        def _nameless(layer: Layer) -> dict[str, Any]:
            return {k: v for k, v in layer_to_dict(layer).items() if k != "name"}

        return {
            "image": self.block.to_dict()["image"],
            "layer": _nameless(self.layer),
            "tiling": self.tiling.fingerprint(),
            "loop_order": self.loop_order.value,
            "fused_layers": [_nameless(layer) for layer in self.fused_layers],
        }

    def layer_fingerprint(self) -> str:
        """Name-free content hash: identical layers collapse across networks.

        Unlike :meth:`fingerprint`, this digest ignores the block and layer
        names, so the same (layer shape, bitwidths, tiling, instruction
        image) appearing in two different networks — the model-family case —
        hashes identically.  It keys the result cache's simulated-block
        records (:func:`repro.session.engine.layer_cache_key`); a record
        found through it is renamed to the requesting block before use.

        Memoized like :meth:`fingerprint` (the layer key is derived on
        every block lookup).
        """
        cached = self.__dict__.get("_layer_fingerprint")
        if cached is None:
            cached = fingerprint_payload(self.layer_content_dict())
            object.__setattr__(self, "_layer_fingerprint", cached)
        return cached


class Program:
    """The ordered list of compiled blocks for one network.

    A program is the unit the compile stage of the evaluation pipeline
    caches.  Its identity is purely content-based: :meth:`fingerprint`
    hashes the serialized payload of every block (instructions through the
    Table I binary encoding, plus layer, tiling, loop order and fusion
    metadata), so two compilations that emit identical code collapse onto
    one cache entry, and any compiler change that alters the emitted code
    automatically invalidates cached programs.  Note the *cache key* the
    session stores programs under is not this fingerprint but the
    structure-only :func:`~repro.session.engine.program_cache_key` over the
    compiler's inputs — the program fingerprint identifies what came out,
    the cache key what went in.
    """

    def __init__(self, network_name: str, blocks: Sequence[CompiledBlock] = ()) -> None:
        if not network_name:
            raise ValueError("program network name must be non-empty")
        self.network_name = network_name
        self._blocks: list[CompiledBlock] = list(blocks)
        self._fingerprint: str | None = None

    @property
    def blocks(self) -> list[CompiledBlock]:
        return list(self._blocks)

    def __iter__(self) -> Iterator[CompiledBlock]:
        return iter(self._blocks)

    def __len__(self) -> int:
        return len(self._blocks)

    def __getitem__(self, index: int) -> CompiledBlock:
        return self._blocks[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Program({self.network_name!r}, {len(self)} blocks)"

    # ------------------------------------------------------------------ #
    # Serialization and fingerprinting
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible payload of the whole program."""
        return {
            "network_name": self.network_name,
            "blocks": [compiled.to_dict() for compiled in self],
        }

    def fingerprint(self) -> str:
        """Stable content hash over the serialized program payload.

        Memoized: a program's blocks are fixed when it is built.
        """
        if self._fingerprint is None:
            self._fingerprint = fingerprint_payload(self.to_dict())
        return self._fingerprint

    # ------------------------------------------------------------------ #
    # Aggregate statistics
    # ------------------------------------------------------------------ #
    def total_instructions(self) -> int:
        """Total instruction count over all blocks."""
        return sum(len(compiled.block) for compiled in self)

    def total_binary_bytes(self) -> int:
        """Total binary footprint of the compiled program."""
        return sum(compiled.block.stats().binary_bytes for compiled in self)

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
            stats = compiled.block.stats()
            lines.append(
                f"{compiled.name:28s} {stats.instruction_count:7d} {stats.loop_count:6d} "
                f"{compiled.block.input_bits:>4d}/{compiled.block.weight_bits:<5d} "
                f"{compiled.loop_order.value:>18s} {len(compiled.fused_layers):6d}"
            )
        return "\n".join(lines)
