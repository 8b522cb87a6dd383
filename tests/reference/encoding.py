"""Scalar instruction encoder: one ``isinstance`` branch per instruction kind.

:func:`repro.isa.encoding.encode_instruction` dispatches through a type ->
packer table and :func:`repro.isa.encoding.encode_block` packs a whole block
in one ``struct.pack``; both must produce exactly the words and images this
readable chain does.
"""

from __future__ import annotations

import struct

from repro.isa.encoding import (
    _COMPUTE_FNS,
    _FIELD_A_SHIFT,
    _FIELD_B_SHIFT,
    _GENADDR_LOOP_SHIFT,
    _IMMEDIATE_MASK,
    _LEVEL_SHIFT,
    _LOOP_ID_SHIFT,
    _OPCODE_SHIFT,
    _SCRATCHPAD_SHIFT,
)
from repro.isa.instructions import (
    BlockEnd,
    Compute,
    GenAddr,
    Instruction,
    LdMem,
    Loop,
    RdBuf,
    Setup,
    StMem,
    WrBuf,
)

__all__ = ["encode_block_scalar", "encode_instruction_scalar"]


def encode_instruction_scalar(instruction: Instruction) -> int:
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
    else:
        raise TypeError(f"cannot encode unknown instruction type {type(instruction)}")
    return word


def encode_block_scalar(instructions) -> bytes:
    """A block's binary image, one ``struct.pack`` per word."""
    return b"".join(
        struct.pack(">I", encode_instruction_scalar(instruction))
        for instruction in instructions
    )
