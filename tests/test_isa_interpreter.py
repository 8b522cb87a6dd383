"""Tests for the tile-level Fusion-ISA interpreter (Equation 4 semantics)."""

from __future__ import annotations

import pytest

from repro.core.config import BitFusionConfig
from repro.dnn.layers import ConvLayer, FCLayer
from repro.isa.block import InstructionBlock
from repro.isa.compiler import FusionCompiler
from repro.isa.instructions import (
    BlockEnd,
    GenAddr,
    LdMem,
    Loop,
    ScratchpadType,
    Setup,
    StMem,
)

from compiling import compile_alone
from reference.interpreter import interpret_block


@pytest.fixture
def tight_config() -> BitFusionConfig:
    """A configuration with small buffers so realistic layers need many tiles."""
    return BitFusionConfig(
        rows=8,
        columns=8,
        ibuf_kb=2.0,
        wbuf_kb=4.0,
        obuf_kb=1.0,
        dram_bandwidth_bits_per_cycle=64,
        name="tight",
    )


class TestHandWrittenBlock:
    def _block(self) -> InstructionBlock:
        return InstructionBlock(
            "demo",
            [
                Setup(input_bits=4, weight_bits=4),
                Loop(loop_id=0, iterations=3, level=0),
                Loop(loop_id=1, iterations=2, level=0),
                GenAddr(scratchpad=ScratchpadType.WBUF, loop_id=0, stride=10),
                GenAddr(scratchpad=ScratchpadType.WBUF, loop_id=1, stride=1),
                GenAddr(scratchpad=ScratchpadType.OBUF, loop_id=0, stride=1),
                LdMem(scratchpad=ScratchpadType.WBUF, num_words=5),
                StMem(scratchpad=ScratchpadType.OBUF, num_words=2),
                BlockEnd(),
            ],
        )

    def test_event_count_covers_every_iteration(self):
        trace = interpret_block(self._block())
        # 3 x 2 iterations x 2 memory instructions.
        assert trace.event_count == 12

    def test_equation4_addresses(self):
        trace = interpret_block(self._block())
        wbuf_addresses = {event.address for event in trace.events_for(ScratchpadType.WBUF)}
        # address = i * 10 + j * 1 for i in 0..2, j in 0..1
        assert wbuf_addresses == {0, 1, 10, 11, 20, 21}
        obuf_addresses = {event.address for event in trace.events_for(ScratchpadType.OBUF)}
        assert obuf_addresses == {0, 1, 2}

    def test_words_and_directions(self):
        trace = interpret_block(self._block())
        assert trace.total_words(ScratchpadType.WBUF, "load") == 6 * 5
        assert trace.total_words(ScratchpadType.OBUF, "store") == 6 * 2
        assert trace.total_words(ScratchpadType.IBUF) == 0

    def test_iteration_tuples_recorded(self):
        trace = interpret_block(self._block())
        iterations = {event.iteration for event in trace.events}
        assert iterations == {(i, j) for i in range(3) for j in range(2)}


class TestCompiledBlocks:
    def test_unique_addresses_match_tile_counts_fc(self, tight_config):
        layer = FCLayer(name="fc", in_features=2048, out_features=1024,
                        input_bits=4, weight_bits=4)
        compiled = compile_alone(FusionCompiler(tight_config), layer, 4)
        trace = interpret_block(compiled.block)
        tiling = compiled.tiling
        assert len(trace.unique_addresses(ScratchpadType.WBUF)) == tiling.m_tiles * tiling.n_tiles
        assert len(trace.unique_addresses(ScratchpadType.IBUF)) == tiling.n_tiles * tiling.r_tiles
        assert len(trace.unique_addresses(ScratchpadType.OBUF)) == tiling.m_tiles * tiling.r_tiles

    def test_unique_addresses_match_tile_counts_conv(self, tight_config):
        layer = ConvLayer(name="conv", in_channels=16, out_channels=32, in_height=14,
                          in_width=14, kernel=3, padding=1, input_bits=2, weight_bits=2)
        compiled = compile_alone(FusionCompiler(tight_config), layer, 4)
        trace = interpret_block(compiled.block)
        tiling = compiled.tiling
        assert len(trace.unique_addresses(ScratchpadType.WBUF)) == tiling.m_tiles * tiling.n_tiles
        assert len(trace.unique_addresses(ScratchpadType.IBUF)) == tiling.n_tiles * tiling.r_tiles

    def test_every_iteration_loads_weights_and_inputs(self, tight_config):
        layer = FCLayer(name="fc", in_features=512, out_features=256)
        compiled = compile_alone(FusionCompiler(tight_config), layer, 4)
        trace = interpret_block(compiled.block)
        loads = trace.events_for(ScratchpadType.WBUF, "load")
        total_iterations = 1
        for loop in compiled.block.loops():
            if loop.level == 0:
                total_iterations *= loop.iterations
        assert len(loads) == total_iterations

    def test_store_words_are_positive(self, tight_config):
        layer = FCLayer(name="fc", in_features=256, out_features=128)
        compiled = compile_alone(FusionCompiler(tight_config), layer, 4)
        trace = interpret_block(compiled.block)
        assert trace.total_words(ScratchpadType.OBUF, "store") > 0

    def test_event_limit_guard(self, tight_config):
        layer = FCLayer(name="fc", in_features=2048, out_features=2048)
        compiled = compile_alone(FusionCompiler(tight_config), layer, 4)
        with pytest.raises(ValueError):
            interpret_block(compiled.block, max_events=4)
