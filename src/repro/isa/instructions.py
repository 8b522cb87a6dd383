"""Fusion-ISA instruction definitions (paper Table I).

Every instruction is a frozen dataclass whose fields mirror the operand
specification of Table I: a 5-bit opcode, followed by (depending on the
opcode) a scratchpad type, operand bitwidths, loop identifiers, iteration
counts, strides and immediates.  Field widths are validated on construction
so that a block that encodes also decodes to the same instructions.

The instruction classes are deliberately free of behaviour: semantics live
in the compiler (which emits them) and the simulator (which consumes the
block structure).  The Table I encoder and decoder are test oracles
(``tests/reference/encoding.py``); the report reads only the word size,
:data:`INSTRUCTION_BYTES`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum, unique

from repro.core.fusion_unit import SUPPORTED_BITWIDTHS

__all__ = [
    "Opcode",
    "ScratchpadType",
    "ComputeFn",
    "LoopOrder",
    "Instruction",
    "Setup",
    "BlockEnd",
    "Loop",
    "GenAddr",
    "Compute",
    "LdMem",
    "StMem",
    "RdBuf",
    "WrBuf",
    "OPCODE_BITS",
    "SCRATCHPAD_BITS",
    "BITWIDTH_FIELD_BITS",
    "LOOP_ID_BITS",
    "IMMEDIATE_BITS",
    "INSTRUCTION_BYTES",
]

#: Field widths of the 32-bit instruction word (Table I).
OPCODE_BITS = 5
SCRATCHPAD_BITS = 2
BITWIDTH_FIELD_BITS = 5
LOOP_ID_BITS = 6
IMMEDIATE_BITS = 16

#: Every Fusion-ISA instruction occupies one 32-bit word.
INSTRUCTION_BYTES = 4


@unique
class Opcode(IntEnum):
    """Operation codes of the Fusion-ISA (Table I)."""

    SETUP = 0
    BLOCK_END = 1
    LOOP = 2
    GEN_ADDR = 3
    COMPUTE = 4
    LD_MEM = 5
    ST_MEM = 6
    RD_BUF = 7
    WR_BUF = 8


@unique
class ScratchpadType(IntEnum):
    """On-chip scratchpad selector used by memory and buffer instructions."""

    IBUF = 0
    OBUF = 1
    WBUF = 2


@unique
class ComputeFn(Enum):
    """Function selector of the ``compute`` instruction."""

    MACC = "macc"
    MAX = "max"
    ADD = "add"
    ACTIVATION = "activation"


@unique
class LoopOrder(Enum):
    """Dataflow orderings the loop-ordering optimization chooses between.

    The names follow the paper's terminology (Section IV-B): the
    "stationary" tensor is the one kept resident on chip across the longest-
    running loop, minimizing its off-chip re-fetches.
    """

    OUTPUT_STATIONARY = "output-stationary"
    WEIGHT_STATIONARY = "weight-stationary"
    INPUT_STATIONARY = "input-stationary"


def _check_field(value: int, bits: int, name: str) -> int:
    if not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value < 0 or value >= (1 << bits):
        raise ValueError(f"{name}={value} does not fit in a {bits}-bit field")
    return value


def _check_bitwidth(bits: int, name: str) -> int:
    if bits not in SUPPORTED_BITWIDTHS:
        raise ValueError(f"{name} must be one of {SUPPORTED_BITWIDTHS}, got {bits}")
    return bits


@dataclass(frozen=True)
class Instruction:
    """Base class for all Fusion-ISA instructions."""

    @property
    def opcode(self) -> Opcode:
        raise NotImplementedError

    @property
    def mnemonic(self) -> str:
        """Assembly mnemonic, e.g. ``ld-mem`` or ``block-end``."""
        return self.opcode.name.lower().replace("_", "-")


@dataclass(frozen=True)
class Setup(Instruction):
    """Start a block: fix the fusion configuration for all its instructions.

    ``input_bits``/``weight_bits`` define how the BitBricks fuse into
    Fused-PEs for the duration of the block (Section IV-A).
    """

    input_bits: int
    weight_bits: int

    def __post_init__(self) -> None:
        _check_bitwidth(self.input_bits, "input_bits")
        _check_bitwidth(self.weight_bits, "weight_bits")

    @property
    def opcode(self) -> Opcode:
        return Opcode.SETUP


@dataclass(frozen=True)
class BlockEnd(Instruction):
    """End a block and name the address of the next instruction block."""

    next_block: int = 0

    def __post_init__(self) -> None:
        _check_field(self.next_block, IMMEDIATE_BITS, "next_block")

    @property
    def opcode(self) -> Opcode:
        return Opcode.BLOCK_END


@dataclass(frozen=True)
class Loop(Instruction):
    """Declare an iterative loop with a block-unique identifier.

    ``level`` distinguishes the outer (memory/tile) loop nest from the inner
    (buffer/compute) loop nest; the simulator and the address generators use
    the identifier, the iteration count is the loop's trip count.
    """

    loop_id: int
    iterations: int
    level: int = 0

    def __post_init__(self) -> None:
        _check_field(self.loop_id, LOOP_ID_BITS, "loop_id")
        _check_field(self.level, SCRATCHPAD_BITS, "level")
        if self.iterations <= 0:
            raise ValueError(f"loop iterations must be positive, got {self.iterations}")
        _check_field(self.iterations, IMMEDIATE_BITS, "iterations")

    @property
    def opcode(self) -> Opcode:
        return Opcode.LOOP


@dataclass(frozen=True)
class GenAddr(Instruction):
    """Attach an address-generation stride to a loop for one scratchpad.

    The generated address follows Equation 4 of the paper:
    ``address = base + Σ_id loop_iterator[id] × stride[id]``.
    """

    scratchpad: ScratchpadType
    loop_id: int
    stride: int

    def __post_init__(self) -> None:
        _check_field(self.loop_id, LOOP_ID_BITS, "loop_id")
        if self.stride < 0:
            raise ValueError(f"stride must be non-negative, got {self.stride}")
        _check_field(self.stride, IMMEDIATE_BITS, "stride")

    @property
    def opcode(self) -> Opcode:
        return Opcode.GEN_ADDR


@dataclass(frozen=True)
class Compute(Instruction):
    """Perform the block's arithmetic for the current loop iteration."""

    fn: ComputeFn = ComputeFn.MACC

    @property
    def opcode(self) -> Opcode:
        return Opcode.COMPUTE


@dataclass(frozen=True)
class LdMem(Instruction):
    """Load ``num_words`` variable-bitwidth words from DRAM into a scratchpad."""

    scratchpad: ScratchpadType
    num_words: int

    def __post_init__(self) -> None:
        if self.num_words <= 0:
            raise ValueError(f"num_words must be positive, got {self.num_words}")
        _check_field(self.num_words, IMMEDIATE_BITS, "num_words")

    @property
    def opcode(self) -> Opcode:
        return Opcode.LD_MEM


@dataclass(frozen=True)
class StMem(Instruction):
    """Store ``num_words`` variable-bitwidth words from a scratchpad to DRAM."""

    scratchpad: ScratchpadType
    num_words: int

    def __post_init__(self) -> None:
        if self.num_words <= 0:
            raise ValueError(f"num_words must be positive, got {self.num_words}")
        _check_field(self.num_words, IMMEDIATE_BITS, "num_words")

    @property
    def opcode(self) -> Opcode:
        return Opcode.ST_MEM


@dataclass(frozen=True)
class RdBuf(Instruction):
    """Read one fusion-configuration-sized operand group from a scratchpad."""

    scratchpad: ScratchpadType

    @property
    def opcode(self) -> Opcode:
        return Opcode.RD_BUF


@dataclass(frozen=True)
class WrBuf(Instruction):
    """Write one fusion-configuration-sized result group to a scratchpad."""

    scratchpad: ScratchpadType

    @property
    def opcode(self) -> Opcode:
        return Opcode.WR_BUF
