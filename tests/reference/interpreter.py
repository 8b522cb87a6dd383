"""Tile-level interpreter for Fusion-ISA instruction blocks.

The cycle simulator computes traffic and cycles in closed form from a
block's tiling plan; this module is the complementary *operational* view:
it walks the block's memory-level loop nest iteration by iteration,
applies the ``gen-addr`` semantics of Equation 4
(``address = base + Σ loop_iterator[id] × stride[id]``) and emits one event
per ``ld-mem``/``st-mem`` execution.

The tests use it to prove that the ``gen-addr`` strides the compiler emits
generate exactly one distinct tile address per tile of each tensor (the
number of unique addresses per scratchpad equals the tiling plan's tile
counts).  The trace also shows which tile of which tensor a block touches
at every step, the easiest way to read a compiled program.

Only the memory-level (level-0) loops are walked literally; the inner
buffer-level loops repeat identically inside every tile and are summarized
per event, keeping traces small even for ImageNet-scale layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from repro.isa.block import InstructionBlock
from repro.isa.instructions import GenAddr, LdMem, Loop, ScratchpadType, StMem

__all__ = ["MemoryEvent", "BlockTrace", "interpret_block"]


@dataclass(frozen=True)
class MemoryEvent:
    """One executed ``ld-mem`` or ``st-mem`` instruction.

    Attributes
    ----------
    direction:
        ``"load"`` or ``"store"``.
    scratchpad:
        Target on-chip buffer.
    address:
        Tile-granular address computed from the loop iterators and the
        block's ``gen-addr`` strides (Equation 4), with base 0.
    words:
        The instruction's ``num-words`` operand.
    iteration:
        The memory-loop iterator values (in loop-declaration order) at which
        the event fired.
    """

    direction: str
    scratchpad: ScratchpadType
    address: int
    words: int
    iteration: tuple[int, ...]


@dataclass(frozen=True)
class BlockTrace:
    """The full memory-level trace of one instruction block."""

    block_name: str
    events: tuple[MemoryEvent, ...]

    def events_for(self, scratchpad: ScratchpadType, direction: str | None = None) -> list[MemoryEvent]:
        """Events touching one scratchpad, optionally filtered by direction."""
        return [
            event
            for event in self.events
            if event.scratchpad is scratchpad
            and (direction is None or event.direction == direction)
        ]

    def total_words(self, scratchpad: ScratchpadType, direction: str | None = None) -> int:
        """Total words moved for one scratchpad (and optional direction)."""
        return sum(event.words for event in self.events_for(scratchpad, direction))

    def unique_addresses(self, scratchpad: ScratchpadType) -> set[int]:
        """Distinct tile addresses touched in one scratchpad."""
        return {event.address for event in self.events_for(scratchpad)}

    @property
    def event_count(self) -> int:
        return len(self.events)


def _equation4_address(
    strides: dict[int, int], iterators: dict[int, int], base: int = 0
) -> int:
    """Equation 4: ``address = base + Σ_id loop_iterator[id] × stride[id]``."""
    return base + sum(iterators.get(loop_id, 0) * stride for loop_id, stride in strides.items())


def interpret_block(block: InstructionBlock, max_events: int = 1_000_000) -> BlockTrace:
    """Walk a block's memory-level loop nest and collect its transfer events.

    Parameters
    ----------
    block:
        A compiled instruction block.
    max_events:
        Safety bound on the trace length; blocks whose memory loop nest
        would emit more events raise :class:`ValueError` (the caller should
        trace a smaller configuration instead).
    """
    memory_loops: list[Loop] = [loop for loop in block.loops() if loop.level == 0]
    loop_ids = [loop.loop_id for loop in memory_loops]

    # gen-addr strides per scratchpad, restricted to the memory-level loops.
    strides: dict[ScratchpadType, dict[int, int]] = {pad: {} for pad in ScratchpadType}
    for instruction in block:
        if isinstance(instruction, GenAddr) and instruction.loop_id in loop_ids:
            strides[instruction.scratchpad][instruction.loop_id] = instruction.stride

    transfers: list[tuple[str, ScratchpadType, int]] = []
    for instruction in block:
        if isinstance(instruction, LdMem):
            transfers.append(("load", instruction.scratchpad, instruction.num_words))
        elif isinstance(instruction, StMem):
            transfers.append(("store", instruction.scratchpad, instruction.num_words))

    trip_counts = [loop.iterations for loop in memory_loops]
    total_iterations = 1
    for trips in trip_counts:
        total_iterations *= trips
    if total_iterations * max(1, len(transfers)) > max_events:
        raise ValueError(
            f"block {block.name!r} would emit more than {max_events} events "
            f"({total_iterations} iterations x {len(transfers)} transfers); "
            "trace a smaller configuration"
        )

    events: list[MemoryEvent] = []
    iteration_spaces = [range(trips) for trips in trip_counts] or [range(1)]
    for iteration in product(*iteration_spaces):
        iterators = dict(zip(loop_ids, iteration))
        for direction, scratchpad, words in transfers:
            events.append(
                MemoryEvent(
                    direction=direction,
                    scratchpad=scratchpad,
                    address=_equation4_address(strides[scratchpad], iterators),
                    words=words,
                    iteration=tuple(iteration),
                )
            )
    return BlockTrace(block_name=block.name, events=tuple(events))
