"""Instruction blocks: the unit of execution of the Fusion-ISA.

A block implements one DNN layer (or one group of fused layers).  It starts
with a ``setup`` instruction that fixes the fusion configuration, contains
the loop / address-generation / memory / compute instructions that express
the layer's walk, and ends with ``block-end``.  Instructions in a block are
fetched and decoded once, then iterated according to the loop semantics —
this is how the ISA amortizes the von Neumann overhead (Section IV-A).

:class:`InstructionBlock` validates the structural invariants (exactly one
``setup`` at the start, exactly one ``block-end`` at the end, unique loop
identifiers, address generators referencing declared loops).  Its length is
the instruction count the paper reports: 30 to 86 for the evaluated layers.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.isa.instructions import BlockEnd, GenAddr, Instruction, Loop, Setup

__all__ = ["InstructionBlock"]


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
    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __len__(self) -> int:
        return len(self._instructions)

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
    def input_bits(self) -> int:
        return self.setup.input_bits

    @property
    def weight_bits(self) -> int:
        return self.setup.weight_bits

    def loops(self) -> list[Loop]:
        """Loop instructions in declaration order."""
        return [instr for instr in self if isinstance(instr, Loop)]
