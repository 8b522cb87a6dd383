"""Tests for instruction blocks, their validation and compiled programs."""

from __future__ import annotations

import pytest

from repro.dnn.layers import FCLayer
from repro.isa.block import InstructionBlock
from repro.isa.compiler import FusionCompiler
from repro.isa.instructions import (
    INSTRUCTION_BYTES,
    BlockEnd,
    Compute,
    GenAddr,
    LdMem,
    Loop,
    LoopOrder,
    RdBuf,
    ScratchpadType,
    Setup,
    StMem,
    WrBuf,
)
from repro.isa.program import CompiledBlock, Program

from compiling import compile_alone
from reference.encoding import decode_block, encode_block


def _minimal_block(name: str = "layer") -> InstructionBlock:
    return InstructionBlock(
        name,
        [
            Setup(input_bits=4, weight_bits=2),
            Loop(loop_id=0, iterations=8, level=0),
            GenAddr(scratchpad=ScratchpadType.IBUF, loop_id=0, stride=1),
            LdMem(scratchpad=ScratchpadType.IBUF, num_words=16),
            RdBuf(scratchpad=ScratchpadType.IBUF),
            Compute(),
            WrBuf(scratchpad=ScratchpadType.OBUF),
            StMem(scratchpad=ScratchpadType.OBUF, num_words=8),
            BlockEnd(next_block=1),
        ],
    )


class TestInstructionBlockValidation:
    def test_valid_block(self):
        block = _minimal_block()
        assert len(block) == 9
        assert block.input_bits == 4
        assert block.weight_bits == 2
        assert tuple(block)[-1] == BlockEnd(next_block=1)

    def test_requires_setup_first(self):
        with pytest.raises(ValueError):
            InstructionBlock("bad", [Compute(), BlockEnd()])

    def test_requires_block_end_last(self):
        with pytest.raises(ValueError):
            InstructionBlock("bad", [Setup(4, 4), Compute()])

    def test_rejects_nested_setup(self):
        with pytest.raises(ValueError):
            InstructionBlock("bad", [Setup(4, 4), Setup(8, 8), BlockEnd()])

    def test_rejects_duplicate_loop_ids(self):
        with pytest.raises(ValueError):
            InstructionBlock(
                "bad",
                [Setup(4, 4), Loop(1, 2), Loop(1, 3), BlockEnd()],
            )

    def test_rejects_gen_addr_for_undeclared_loop(self):
        with pytest.raises(ValueError):
            InstructionBlock(
                "bad",
                [Setup(4, 4), GenAddr(ScratchpadType.IBUF, 7, 1), BlockEnd()],
            )

    def test_rejects_empty_name_and_empty_body(self):
        with pytest.raises(ValueError):
            InstructionBlock("", [Setup(4, 4), BlockEnd()])
        with pytest.raises(ValueError):
            InstructionBlock("bad", [Setup(4, 4)])


class TestInstructionBlockAccessors:
    def test_loop_queries(self):
        block = _minimal_block()
        assert block.loops() == [Loop(loop_id=0, iterations=8, level=0)]

    def test_encoding_roundtrips_through_bytes(self):
        block = _minimal_block()
        assert decode_block(encode_block(block)) == list(block)

    def test_iteration_protocol(self):
        block = _minimal_block()
        assert list(block)[0] == block.setup


class TestProgram:
    def _compiled_block(self, config, name="fc") -> CompiledBlock:
        layer = FCLayer(name=name, in_features=64, out_features=32, input_bits=4, weight_bits=2)
        return compile_alone(FusionCompiler(config), layer, 2)

    def test_construction_and_iteration(self, small_config):
        program = Program("net", [self._compiled_block(small_config)])
        assert len(program) == 1
        assert program[0].name == "fc"
        assert [compiled.name for compiled in program] == ["fc"]

    def test_total_statistics(self, small_config):
        program = Program(
            "net", [self._compiled_block(small_config, "a"), self._compiled_block(small_config, "b")]
        )
        assert program.total_instructions() == sum(len(c.block) for c in program)
        assert program.total_binary_bytes() == program.total_instructions() * 4

    def test_summary_mentions_every_block(self, small_config):
        program = Program("net", [self._compiled_block(small_config, "layer_x")])
        assert "layer_x" in program.summary()

    def test_summary_counts_instructions_and_loops(self, small_config):
        compiled = self._compiled_block(small_config, "layer_x")
        row = Program("net", [compiled]).summary().splitlines()[3].split()
        block = compiled.block
        assert row[:4] == ["layer_x", str(len(block)), str(len(block.loops())), "4/2"]

    def test_binary_bytes_are_the_encoded_images(self, small_config):
        program = Program(
            "net", [self._compiled_block(small_config, "a"), self._compiled_block(small_config, "b")]
        )
        images = [encode_block(compiled.block) for compiled in program]
        assert program.total_binary_bytes() == sum(map(len, images))
        assert program.total_binary_bytes() == INSTRUCTION_BYTES * sum(
            compiled.instruction_count for compiled in program
        )

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            Program("")

    def test_compiled_block_metadata(self, small_config):
        compiled = self._compiled_block(small_config)
        assert compiled.tiling.loop_order in tuple(LoopOrder)
        assert compiled.fused_layers == ()
        assert compiled.tiling.workload.m == 32
