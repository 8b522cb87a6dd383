"""Binary encoding of Fusion-ISA instructions.

Table I describes the instruction word as a 5-bit opcode followed by an
operand specification whose interpretation depends on the opcode
(scratchpad selectors, operand bitwidths, loop identifiers and 16-bit
immediates).  This module packs every instruction into a single 32-bit word
and unpacks it again; the encoder/decoder pair is exercised by round-trip
tests over every instruction kind.

Word layout (most-significant bit first)::

    [31:27] opcode
    [26:..] opcode-specific fields (see the per-opcode packers below)
    [15:0]  16-bit immediate (iterations / stride / num-words / next block)

A compiled block's binary image is simply the concatenation of its
instruction words; :func:`encode_block` returns it as ``bytes`` so tests can
check the footprint claims of Section IV (tens of instructions — a few
hundred bytes — per DNN layer).
"""

from __future__ import annotations

import struct

from repro.isa.instructions import (
    BITWIDTH_FIELD_BITS,
    IMMEDIATE_BITS,
    LOOP_ID_BITS,
    OPCODE_BITS,
    SCRATCHPAD_BITS,
    BlockEnd,
    Compute,
    ComputeFn,
    GenAddr,
    Instruction,
    LdMem,
    Loop,
    Opcode,
    RdBuf,
    ScratchpadType,
    Setup,
    StMem,
    WrBuf,
)

__all__ = [
    "INSTRUCTION_BYTES",
    "encode_instruction",
    "decode_instruction",
    "encode_block",
    "decode_block",
    "encode_block_hex",
    "decode_block_hex",
]

#: Every Fusion-ISA instruction occupies one 32-bit word.
INSTRUCTION_BYTES = 4

_OPCODE_SHIFT = 32 - OPCODE_BITS  # 27
_IMMEDIATE_MASK = (1 << IMMEDIATE_BITS) - 1

# Field positions below the opcode.
_FIELD_A_SHIFT = _OPCODE_SHIFT - BITWIDTH_FIELD_BITS  # 22
_FIELD_B_SHIFT = _FIELD_A_SHIFT - BITWIDTH_FIELD_BITS  # 17
_SCRATCHPAD_SHIFT = _OPCODE_SHIFT - SCRATCHPAD_BITS  # 25
_LOOP_ID_SHIFT = _OPCODE_SHIFT - LOOP_ID_BITS  # 21
_LEVEL_SHIFT = _LOOP_ID_SHIFT - SCRATCHPAD_BITS  # 19
_GENADDR_LOOP_SHIFT = _SCRATCHPAD_SHIFT - LOOP_ID_BITS  # 19

_COMPUTE_FNS = tuple(ComputeFn)


def _mask(bits: int) -> int:
    return (1 << bits) - 1


def encode_instruction(instruction: Instruction) -> int:
    """Pack one instruction into its 32-bit word."""
    word = int(instruction.opcode) << _OPCODE_SHIFT

    if isinstance(instruction, Setup):
        word |= instruction.input_bits << _FIELD_A_SHIFT
        word |= instruction.weight_bits << _FIELD_B_SHIFT
    elif isinstance(instruction, BlockEnd):
        word |= instruction.next_block & _IMMEDIATE_MASK
    elif isinstance(instruction, Loop):
        word |= instruction.loop_id << _LOOP_ID_SHIFT
        word |= instruction.level << _LEVEL_SHIFT
        word |= instruction.iterations & _IMMEDIATE_MASK
    elif isinstance(instruction, GenAddr):
        word |= int(instruction.scratchpad) << _SCRATCHPAD_SHIFT
        word |= instruction.loop_id << _GENADDR_LOOP_SHIFT
        word |= instruction.stride & _IMMEDIATE_MASK
    elif isinstance(instruction, Compute):
        word |= _COMPUTE_FNS.index(instruction.fn) << _SCRATCHPAD_SHIFT
    elif isinstance(instruction, (LdMem, StMem)):
        word |= int(instruction.scratchpad) << _SCRATCHPAD_SHIFT
        word |= instruction.num_words & _IMMEDIATE_MASK
    elif isinstance(instruction, (RdBuf, WrBuf)):
        word |= int(instruction.scratchpad) << _SCRATCHPAD_SHIFT
    else:  # pragma: no cover - exhaustiveness guard
        raise TypeError(f"cannot encode unknown instruction type {type(instruction)}")
    return word


def decode_instruction(word: int) -> Instruction:
    """Unpack a 32-bit word back into its instruction dataclass."""
    if word < 0 or word >= (1 << 32):
        raise ValueError(f"instruction word {word:#x} is not a 32-bit value")
    opcode = Opcode((word >> _OPCODE_SHIFT) & _mask(OPCODE_BITS))
    immediate = word & _IMMEDIATE_MASK

    if opcode is Opcode.SETUP:
        return Setup(
            input_bits=(word >> _FIELD_A_SHIFT) & _mask(BITWIDTH_FIELD_BITS),
            weight_bits=(word >> _FIELD_B_SHIFT) & _mask(BITWIDTH_FIELD_BITS),
        )
    if opcode is Opcode.BLOCK_END:
        return BlockEnd(next_block=immediate)
    if opcode is Opcode.LOOP:
        return Loop(
            loop_id=(word >> _LOOP_ID_SHIFT) & _mask(LOOP_ID_BITS),
            level=(word >> _LEVEL_SHIFT) & _mask(SCRATCHPAD_BITS),
            iterations=immediate,
        )
    if opcode is Opcode.GEN_ADDR:
        return GenAddr(
            scratchpad=ScratchpadType((word >> _SCRATCHPAD_SHIFT) & _mask(SCRATCHPAD_BITS)),
            loop_id=(word >> _GENADDR_LOOP_SHIFT) & _mask(LOOP_ID_BITS),
            stride=immediate,
        )
    if opcode is Opcode.COMPUTE:
        return Compute(fn=_COMPUTE_FNS[(word >> _SCRATCHPAD_SHIFT) & _mask(SCRATCHPAD_BITS)])
    if opcode is Opcode.LD_MEM:
        return LdMem(
            scratchpad=ScratchpadType((word >> _SCRATCHPAD_SHIFT) & _mask(SCRATCHPAD_BITS)),
            num_words=immediate,
        )
    if opcode is Opcode.ST_MEM:
        return StMem(
            scratchpad=ScratchpadType((word >> _SCRATCHPAD_SHIFT) & _mask(SCRATCHPAD_BITS)),
            num_words=immediate,
        )
    if opcode is Opcode.RD_BUF:
        return RdBuf(
            scratchpad=ScratchpadType((word >> _SCRATCHPAD_SHIFT) & _mask(SCRATCHPAD_BITS))
        )
    if opcode is Opcode.WR_BUF:
        return WrBuf(
            scratchpad=ScratchpadType((word >> _SCRATCHPAD_SHIFT) & _mask(SCRATCHPAD_BITS))
        )
    raise ValueError(f"unknown opcode {opcode}")  # pragma: no cover


def encode_block(instructions: list[Instruction]) -> bytes:
    """Encode a sequence of instructions into its binary image."""
    return b"".join(
        struct.pack(">I", encode_instruction(instruction)) for instruction in instructions
    )


def encode_block_hex(instructions: list[Instruction]) -> str:
    """Binary image of a block as a lowercase hex string.

    The hex form is the JSON-friendly face of :func:`encode_block`; it is
    what a compiled block's payload (and hence its fingerprints) carries,
    and :func:`decode_block_hex` recovers the instruction sequence
    bit-for-bit.
    """
    return encode_block(instructions).hex()


def decode_block_hex(image_hex: str) -> list[Instruction]:
    """Decode a hex image produced by :func:`encode_block_hex`."""
    return decode_block(bytes.fromhex(image_hex))


def decode_block(image: bytes) -> list[Instruction]:
    """Decode a binary image produced by :func:`encode_block`."""
    if len(image) % INSTRUCTION_BYTES:
        raise ValueError(
            f"binary image length {len(image)} is not a multiple of {INSTRUCTION_BYTES}"
        )
    words = struct.unpack(f">{len(image) // INSTRUCTION_BYTES}I", image)
    return [decode_instruction(word) for word in words]
