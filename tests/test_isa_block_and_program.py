"""Tests for instruction blocks, their validation and compiled programs."""

from __future__ import annotations

import pytest

from repro.dnn.layers import FCLayer
from repro.isa.block import InstructionBlock
from repro.isa.compiler import FusionCompiler
from repro.isa.instructions import (
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
from repro.isa.tiling import GemmWorkload, plan_tiling


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
        assert block.block_end.next_block == 1

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
        assert len(block.loops()) == 1
        assert block.loops_at_level(0)[0].iterations == 8
        assert block.loops_at_level(1) == []

    def test_instruction_category_queries(self):
        block = _minimal_block()
        assert len(block.memory_instructions()) == 2
        assert len(block.buffer_instructions()) == 2
        assert len(block.compute_instructions()) == 1
        assert len(block.address_generators()) == 1

    def test_stats(self):
        stats = _minimal_block().stats()
        assert stats.instruction_count == 9
        assert stats.loop_count == 1
        assert stats.memory_instruction_count == 2
        assert stats.buffer_instruction_count == 2
        assert stats.binary_bytes == 9 * 4
        assert stats.counts_by_opcode["compute"] == 1

    def test_encoding_roundtrips_through_bytes(self):
        from repro.isa.encoding import decode_block

        block = _minimal_block()
        assert decode_block(block.encode()) == list(block.instructions)

    def test_iteration_protocol(self):
        block = _minimal_block()
        assert list(block)[0] == block.setup


class TestProgram:
    def _compiled_block(self, config, name="fc") -> CompiledBlock:
        layer = FCLayer(name=name, in_features=64, out_features=32, input_bits=4, weight_bits=2)
        return FusionCompiler(config).compile_compute_layer(layer, batch_size=2)

    def test_append_and_iteration(self, small_config):
        program = Program("net")
        program.append(self._compiled_block(small_config))
        assert len(program) == 1
        assert program[0].name == "fc"
        assert [compiled.name for compiled in program] == ["fc"]

    def test_total_statistics(self, small_config):
        program = Program("net")
        program.append(self._compiled_block(small_config, "a"))
        program.append(self._compiled_block(small_config, "b"))
        assert program.total_instructions() == sum(len(c.block) for c in program)
        assert program.total_binary_bytes() == program.total_instructions() * 4
        assert set(program.instruction_counts()) == {"a", "b"}

    def test_summary_mentions_every_block(self, small_config):
        program = Program("net", [self._compiled_block(small_config, "layer_x")])
        assert "layer_x" in program.summary()

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            Program("")

    def test_compiled_block_metadata(self, small_config):
        compiled = self._compiled_block(small_config)
        assert compiled.loop_order in tuple(LoopOrder)
        assert not compiled.is_fused
        assert compiled.tiling.workload.m == 32

    def test_compiled_block_fused_flag(self, small_config):
        workload = GemmWorkload(m=8, n=8, r=4, input_bits=4, weight_bits=4, output_bits=4)
        tiling = plan_tiling(workload, small_config)
        block = _minimal_block("conv+pool")
        layer = FCLayer(name="conv", in_features=8, out_features=8)
        pool = FCLayer(name="pool", in_features=8, out_features=8)
        compiled = CompiledBlock(
            block=block, layer=layer, tiling=tiling,
            loop_order=LoopOrder.OUTPUT_STATIONARY, fused_layers=(pool,),
        )
        assert compiled.is_fused
