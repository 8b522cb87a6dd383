"""The Table I binary encoding of Fusion-ISA instructions, and its decoder.

Table I describes the instruction word as a 5-bit opcode followed by an
operand specification whose interpretation depends on the opcode
(scratchpad selectors, operand bitwidths, loop identifiers and 16-bit
immediates).  This module packs every instruction into one 32-bit word and
unpacks it again, one ``isinstance`` branch per instruction kind.  No
command encodes: the report counts instructions and prices a block's
bytes as ``len(block) * INSTRUCTION_BYTES``.  The tests hold the compiler
to this encoding: every emitted block round-trips through it, and the
golden program digests (``tests/compiling.py``'s ``program_digest``) hash
its images.

Word layout (most-significant bit first)::

    [31:27] opcode
    [26:..] opcode-specific fields (see the shifts below)
    [15:0]  16-bit immediate (iterations / stride / num-words / next block)

A block's binary image is the concatenation of its instruction words.
"""

from __future__ import annotations

import struct
from typing import Iterable

from repro.isa.instructions import (
    BITWIDTH_FIELD_BITS,
    IMMEDIATE_BITS,
    INSTRUCTION_BYTES,
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
    "decode_block",
    "decode_block_hex",
    "decode_instruction",
    "encode_block",
    "encode_block_hex",
    "encode_instruction",
]

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


def _field(word: int, shift: int, bits: int) -> int:
    return (word >> shift) & ((1 << bits) - 1)


def encode_instruction(instruction: Instruction) -> int:
    """Pack one instruction into its 32-bit word."""
    if isinstance(instruction, Setup):
        fields = (
            instruction.input_bits << _FIELD_A_SHIFT
            | instruction.weight_bits << _FIELD_B_SHIFT
        )
    elif isinstance(instruction, BlockEnd):
        fields = instruction.next_block & _IMMEDIATE_MASK
    elif isinstance(instruction, Loop):
        fields = (
            instruction.loop_id << _LOOP_ID_SHIFT
            | instruction.level << _LEVEL_SHIFT
            | instruction.iterations & _IMMEDIATE_MASK
        )
    elif isinstance(instruction, GenAddr):
        fields = (
            int(instruction.scratchpad) << _SCRATCHPAD_SHIFT
            | instruction.loop_id << _GENADDR_LOOP_SHIFT
            | instruction.stride & _IMMEDIATE_MASK
        )
    elif isinstance(instruction, Compute):
        fields = _COMPUTE_FNS.index(instruction.fn) << _SCRATCHPAD_SHIFT
    elif isinstance(instruction, (LdMem, StMem)):
        fields = (
            int(instruction.scratchpad) << _SCRATCHPAD_SHIFT
            | instruction.num_words & _IMMEDIATE_MASK
        )
    elif isinstance(instruction, (RdBuf, WrBuf)):
        fields = int(instruction.scratchpad) << _SCRATCHPAD_SHIFT
    else:
        raise TypeError(f"cannot encode unknown instruction type {type(instruction)}")
    return int(instruction.opcode) << _OPCODE_SHIFT | fields


def decode_instruction(word: int) -> Instruction:
    """Unpack a 32-bit word back into its instruction dataclass."""
    if word < 0 or word >= (1 << 32):
        raise ValueError(f"instruction word {word:#x} is not a 32-bit value")
    opcode = Opcode(_field(word, _OPCODE_SHIFT, OPCODE_BITS))
    immediate = word & _IMMEDIATE_MASK
    scratchpad = _field(word, _SCRATCHPAD_SHIFT, SCRATCHPAD_BITS)

    if opcode is Opcode.SETUP:
        return Setup(
            input_bits=_field(word, _FIELD_A_SHIFT, BITWIDTH_FIELD_BITS),
            weight_bits=_field(word, _FIELD_B_SHIFT, BITWIDTH_FIELD_BITS),
        )
    if opcode is Opcode.BLOCK_END:
        return BlockEnd(next_block=immediate)
    if opcode is Opcode.LOOP:
        return Loop(
            loop_id=_field(word, _LOOP_ID_SHIFT, LOOP_ID_BITS),
            level=_field(word, _LEVEL_SHIFT, SCRATCHPAD_BITS),
            iterations=immediate,
        )
    if opcode is Opcode.GEN_ADDR:
        return GenAddr(
            scratchpad=ScratchpadType(scratchpad),
            loop_id=_field(word, _GENADDR_LOOP_SHIFT, LOOP_ID_BITS),
            stride=immediate,
        )
    if opcode is Opcode.COMPUTE:
        return Compute(fn=_COMPUTE_FNS[scratchpad])
    if opcode is Opcode.LD_MEM:
        return LdMem(scratchpad=ScratchpadType(scratchpad), num_words=immediate)
    if opcode is Opcode.ST_MEM:
        return StMem(scratchpad=ScratchpadType(scratchpad), num_words=immediate)
    if opcode is Opcode.RD_BUF:
        return RdBuf(scratchpad=ScratchpadType(scratchpad))
    return WrBuf(scratchpad=ScratchpadType(scratchpad))


def encode_block(instructions: Iterable[Instruction]) -> bytes:
    """A block's binary image: its instruction words, big-endian."""
    return b"".join(
        struct.pack(">I", encode_instruction(instruction)) for instruction in instructions
    )


def decode_block(image: bytes) -> list[Instruction]:
    """Decode a binary image produced by :func:`encode_block`."""
    if len(image) % INSTRUCTION_BYTES:
        raise ValueError(
            f"binary image length {len(image)} is not a multiple of {INSTRUCTION_BYTES}"
        )
    words = struct.unpack(f">{len(image) // INSTRUCTION_BYTES}I", image)
    return [decode_instruction(word) for word in words]


def encode_block_hex(instructions: Iterable[Instruction]) -> str:
    """A block's binary image as a lowercase hex string (its JSON form)."""
    return encode_block(instructions).hex()


def decode_block_hex(image_hex: str) -> list[Instruction]:
    """Decode a hex image produced by :func:`encode_block_hex`."""
    return decode_block(bytes.fromhex(image_hex))
