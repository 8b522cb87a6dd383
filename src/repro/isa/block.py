"""Instruction blocks: the unit of execution of the Fusion-ISA.

A block implements one DNN layer (or one group of fused layers).  It starts
with a ``setup`` instruction that fixes the fusion configuration, contains
the loop / address-generation / memory / compute instructions that express
the layer's walk, and ends with ``block-end``.  Instructions in a block are
fetched and decoded once, then iterated according to the loop semantics —
this is how the ISA amortizes the von Neumann overhead (Section IV-A).

:class:`InstructionBlock` validates the structural invariants (exactly one
``setup`` at the start, exactly one ``block-end`` at the end, unique loop
identifiers, address generators referencing declared loops) and exposes the
statistics the paper reports (instruction counts per block — 30 to 86 for
the evaluated layers — and binary footprint).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.isa.encoding import (
    INSTRUCTION_BYTES,
    encode_block,
    encode_block_hex,
)
from repro.isa.instructions import (
    BlockEnd,
    Compute,
    GenAddr,
    Instruction,
    LdMem,
    Loop,
    Opcode,
    RdBuf,
    Setup,
    StMem,
    WrBuf,
)

__all__ = ["BlockStats", "InstructionBlock"]


@dataclass(frozen=True)
class BlockStats:
    """Summary statistics of one instruction block.

    Attributes
    ----------
    instruction_count:
        Total instructions in the block, including ``setup``/``block-end``.
    counts_by_opcode:
        Mapping from mnemonic to the number of instructions with that opcode.
    loop_count, memory_instruction_count, buffer_instruction_count:
        Convenience totals used by the ISA-statistics experiment.
    binary_bytes:
        Size of the encoded block image.
    """

    instruction_count: int
    counts_by_opcode: dict[str, int]
    loop_count: int
    memory_instruction_count: int
    buffer_instruction_count: int
    binary_bytes: int


class InstructionBlock:
    """A validated Fusion-ISA instruction block for one layer.

    Parameters
    ----------
    name:
        Identifier of the layer (or fused layer group) the block implements.
    instructions:
        The full instruction sequence, including ``setup`` and ``block-end``.
    """

    def __init__(self, name: str, instructions: Sequence[Instruction]) -> None:
        if not name:
            raise ValueError("instruction block name must be non-empty")
        self.name = name
        self._instructions = tuple(instructions)
        self._image: str | None = None
        self._validate()

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def _validate(self) -> None:
        instructions = self._instructions
        if len(instructions) < 2:
            raise ValueError(
                f"block {self.name!r} must contain at least setup and block-end"
            )
        if not isinstance(instructions[0], Setup):
            raise ValueError(f"block {self.name!r} must begin with a setup instruction")
        if not isinstance(instructions[-1], BlockEnd):
            raise ValueError(f"block {self.name!r} must end with a block-end instruction")
        body = instructions[1:-1]
        if any(isinstance(instr, (Setup, BlockEnd)) for instr in body):
            raise ValueError(
                f"block {self.name!r} contains nested setup/block-end instructions"
            )

        declared_loops: set[int] = set()
        for instr in body:
            if isinstance(instr, Loop):
                if instr.loop_id in declared_loops:
                    raise ValueError(
                        f"block {self.name!r} declares loop id {instr.loop_id} twice"
                    )
                declared_loops.add(instr.loop_id)
            elif isinstance(instr, GenAddr) and instr.loop_id not in declared_loops:
                raise ValueError(
                    f"block {self.name!r} has a gen-addr referencing undeclared loop "
                    f"id {instr.loop_id}"
                )

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #
    @property
    def instructions(self) -> tuple[Instruction, ...]:
        return self._instructions

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __len__(self) -> int:
        return len(self._instructions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InstructionBlock({self.name!r}, {len(self)} instructions)"

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def setup(self) -> Setup:
        """The block's ``setup`` instruction (fusion configuration)."""
        setup = self._instructions[0]
        assert isinstance(setup, Setup)
        return setup

    @property
    def block_end(self) -> BlockEnd:
        """The block's terminating ``block-end`` instruction."""
        end = self._instructions[-1]
        assert isinstance(end, BlockEnd)
        return end

    @property
    def input_bits(self) -> int:
        return self.setup.input_bits

    @property
    def weight_bits(self) -> int:
        return self.setup.weight_bits

    def loops(self) -> list[Loop]:
        """Loop instructions in declaration order."""
        return [instr for instr in self if isinstance(instr, Loop)]

    def loops_at_level(self, level: int) -> list[Loop]:
        """Loop instructions declared at the given nesting level."""
        return [loop for loop in self.loops() if loop.level == level]

    def address_generators(self) -> list[GenAddr]:
        return [instr for instr in self if isinstance(instr, GenAddr)]

    def memory_instructions(self) -> list[Instruction]:
        """The ``ld-mem``/``st-mem`` instructions of the block."""
        return [instr for instr in self if isinstance(instr, (LdMem, StMem))]

    def buffer_instructions(self) -> list[Instruction]:
        """The ``rd-buf``/``wr-buf`` instructions of the block."""
        return [instr for instr in self if isinstance(instr, (RdBuf, WrBuf))]

    def compute_instructions(self) -> list[Compute]:
        return [instr for instr in self if isinstance(instr, Compute)]

    # ------------------------------------------------------------------ #
    # Statistics and encoding
    # ------------------------------------------------------------------ #
    def encode(self) -> bytes:
        """Binary image of the block."""
        return encode_block(self._instructions)

    def to_dict(self) -> dict[str, str]:
        """JSON-compatible payload: the block name plus its hex binary image.

        The instruction encoder/decoder pair round-trips every instruction
        kind exactly (see :mod:`repro.isa.encoding`), so the image
        identifies the instruction sequence.

        The hex image is encoded once and memoized (the instructions are an
        immutable tuple), so a compiled block's payload, fingerprint and
        name-free layer fingerprint share one encoding.
        """
        if self._image is None:
            self._image = encode_block_hex(self._instructions)
        return {"name": self.name, "image": self._image}

    def stats(self) -> BlockStats:
        """Per-block statistics (instruction counts, binary footprint)."""
        counts = Counter(instr.mnemonic for instr in self)
        return BlockStats(
            instruction_count=len(self),
            counts_by_opcode=dict(counts),
            loop_count=len(self.loops()),
            memory_instruction_count=len(self.memory_instructions()),
            buffer_instruction_count=len(self.buffer_instructions()),
            binary_bytes=len(self) * INSTRUCTION_BYTES,
        )
