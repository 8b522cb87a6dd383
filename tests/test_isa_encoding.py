"""Round-trip tests for the 32-bit binary encoding of the Fusion-ISA (Table I).

The encoder is :mod:`reference.encoding`; no command encodes, so these
tests are what hold the compiler's instructions to Table I's word layout.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.config import BitFusionConfig
from repro.dnn import models
from repro.isa.compiler import FusionCompiler
from repro.isa.instructions import (
    INSTRUCTION_BYTES,
    BlockEnd,
    Compute,
    ComputeFn,
    GenAddr,
    Instruction,
    LdMem,
    Loop,
    RdBuf,
    ScratchpadType,
    Setup,
    StMem,
    WrBuf,
)

from reference.encoding import (
    decode_block,
    decode_instruction,
    encode_block,
    encode_instruction,
)

_SAMPLE_INSTRUCTIONS = [
    Setup(input_bits=4, weight_bits=1),
    Setup(input_bits=16, weight_bits=16),
    BlockEnd(next_block=0),
    BlockEnd(next_block=65535),
    Loop(loop_id=0, iterations=1, level=0),
    Loop(loop_id=63, iterations=65535, level=1),
    GenAddr(scratchpad=ScratchpadType.IBUF, loop_id=2, stride=0),
    GenAddr(scratchpad=ScratchpadType.WBUF, loop_id=63, stride=65535),
    Compute(fn=ComputeFn.MACC),
    Compute(fn=ComputeFn.MAX),
    Compute(fn=ComputeFn.ACTIVATION),
    LdMem(scratchpad=ScratchpadType.IBUF, num_words=1),
    LdMem(scratchpad=ScratchpadType.WBUF, num_words=65535),
    StMem(scratchpad=ScratchpadType.OBUF, num_words=128),
    RdBuf(scratchpad=ScratchpadType.IBUF),
    RdBuf(scratchpad=ScratchpadType.WBUF),
    WrBuf(scratchpad=ScratchpadType.OBUF),
]


class TestInstructionRoundTrip:
    @pytest.mark.parametrize("instruction", _SAMPLE_INSTRUCTIONS, ids=repr)
    def test_encode_decode_roundtrip(self, instruction):
        word = encode_instruction(instruction)
        assert 0 <= word < (1 << 32)
        assert decode_instruction(word) == instruction

    def test_distinct_instructions_get_distinct_words(self):
        words = [encode_instruction(instruction) for instruction in _SAMPLE_INSTRUCTIONS]
        assert len(set(words)) == len(words)

    def test_decode_rejects_out_of_range_word(self):
        with pytest.raises(ValueError):
            decode_instruction(1 << 32)
        with pytest.raises(ValueError):
            decode_instruction(-1)

    def test_decode_rejects_unknown_opcode(self):
        with pytest.raises(ValueError):
            decode_instruction(31 << 27)

    @given(
        loop_id=st.integers(min_value=0, max_value=63),
        iterations=st.integers(min_value=1, max_value=65535),
        level=st.integers(min_value=0, max_value=3),
    )
    def test_loop_roundtrip_property(self, loop_id, iterations, level):
        loop = Loop(loop_id=loop_id, iterations=iterations, level=level)
        assert decode_instruction(encode_instruction(loop)) == loop

    @given(
        scratchpad=st.sampled_from(list(ScratchpadType)),
        num_words=st.integers(min_value=1, max_value=65535),
    )
    def test_ldmem_roundtrip_property(self, scratchpad, num_words):
        instruction = LdMem(scratchpad=scratchpad, num_words=num_words)
        assert decode_instruction(encode_instruction(instruction)) == instruction


class TestBlockEncoding:
    def test_block_image_size(self):
        image = encode_block(_SAMPLE_INSTRUCTIONS)
        assert len(image) == len(_SAMPLE_INSTRUCTIONS) * INSTRUCTION_BYTES

    def test_block_roundtrip(self):
        image = encode_block(_SAMPLE_INSTRUCTIONS)
        assert decode_block(image) == _SAMPLE_INSTRUCTIONS

    def test_decode_block_rejects_truncated_image(self):
        image = encode_block(_SAMPLE_INSTRUCTIONS)
        with pytest.raises(ValueError):
            decode_block(image[:-1])

    def test_empty_block(self):
        assert encode_block([]) == b""
        assert decode_block(b"") == []


#: Every instruction kind of Table I.
_KINDS = (Setup, BlockEnd, Loop, GenAddr, Compute, LdMem, StMem, RdBuf, WrBuf)


class TestEveryKindAndBlock:
    """Every instruction kind, and every block the compiler emits, round-trips."""

    def test_kinds_are_every_instruction_class(self):
        assert set(_KINDS) == set(Instruction.__subclasses__())

    @pytest.mark.parametrize("kind", _KINDS, ids=lambda kind: kind.__name__)
    def test_every_kind_round_trips(self, kind):
        samples = [sample for sample in _SAMPLE_INSTRUCTIONS if type(sample) is kind]
        assert samples, kind
        words = [encode_instruction(instruction) for instruction in samples]
        assert {word >> 27 for word in words} == {int(samples[0].opcode)}
        assert [decode_instruction(word) for word in words] == samples

    @pytest.mark.parametrize("batch_size", (1, 16))
    @pytest.mark.parametrize("name", models.benchmark_names())
    def test_every_zoo_block_decodes_to_its_instructions(self, name, batch_size):
        for fusion in (True, False):
            compiler = FusionCompiler(BitFusionConfig.eyeriss_matched(), enable_layer_fusion=fusion)
            for compiled in compiler.compile(models.load(name), batch_size):
                image = encode_block(compiled.block)
                assert len(image) == len(compiled.block) * INSTRUCTION_BYTES
                assert decode_block(image) == list(compiled.block), compiled.name

    def test_unknown_instruction_type_is_a_type_error(self):
        with pytest.raises(TypeError, match="unknown instruction type"):
            encode_instruction(Instruction())
