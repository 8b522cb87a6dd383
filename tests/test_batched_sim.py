"""The batched simulation executor against its scalar ``run_block`` oracle.

The contract under test: :func:`~repro.sim.batched.simulate_blocks_grid`
(one configuration row, or a 2-D grid of them) produces
:class:`~repro.sim.results.LayerResult`\\ s *bit-identical* to looping
``reference.simulator.run_block`` — every integer and every float64, field
for field.  Covered:

* every in-zoo network under several buffer/array geometries and both
  compiler flag settings (mirroring ``tests/test_vectorized_tiling.py``),
* 2-D config x block grids (the bandwidth-sweep fast path),
* randomized FC (GEMM) and pooling blocks, edge tiles and mixed bitwidths
  (hypothesis),
* the int64 guard: blocks whose counts pass ``2**53`` but stay under the
  guard still match the oracle (integers exactly, floats to 1e-12), and
  blocks past the guard are rejected with a one-line error.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import BitFusionConfig
from repro.dnn import models
from repro.dnn.layers import FCLayer, PoolLayer
from repro.isa.compiler import FusionCompiler
from repro.isa.program import CompiledBlock
from repro.isa.instructions import LoopOrder
from repro.isa.tiling import GemmWorkload, search_tilings
from repro.sim.batched import simulate_blocks_grid

from compiling import compile_alone
from reference.simulator import run_block

_BASE = BitFusionConfig.eyeriss_matched()

#: Geometries mirroring the tiling-oracle suite: the paper default plus
#: smaller and skewed scratchpads (multi-tile plans) and a different array.
_GEOMETRIES = (
    _BASE,
    _BASE.with_buffers(16.0, 32.0, 8.0),
    _BASE.with_buffers(4.0, 8.0, 2.0),
    _BASE.with_buffers(64.0, 16.0, 4.0).with_array(32, 16),
    BitFusionConfig.stripes_matched(),
)

#: Largest integer range a float64 mantissa holds exactly.  Zoo blocks
#: stay under it, so the oracle comparison stays bit-exact on every float.
_FLOAT_EXACT_LIMIT = 1 << 53

_GEOMETRY_IDS = lambda c: f"{c.ibuf_kb:g}/{c.wbuf_kb:g}/{c.obuf_kb:g}KB"  # noqa: E731


def _assert_bit_identical(batched, scalar):
    """Field-for-field equality, floats compared through their exact values."""
    assert len(batched) == len(scalar)
    for got, want in zip(batched, scalar):
        assert got == want
        assert dataclasses.asdict(got) == dataclasses.asdict(want)


class TestZooOracle:
    @pytest.mark.parametrize("config", _GEOMETRIES, ids=_GEOMETRY_IDS)
    @pytest.mark.parametrize("network", models.BENCHMARKS)
    def test_zoo_blocks_bit_identical(self, network, config):
        program = FusionCompiler(config).compile(models.load(network), batch_size=16)
        batched = simulate_blocks_grid([config], program.blocks)[0]
        scalar = [run_block(config, b) for b in program]
        _assert_bit_identical(batched, scalar)

    def test_compiler_flags_bit_identical(self):
        net = models.load("SVHN")
        for loop_ordering in (True, False):
            for layer_fusion in (True, False):
                program = FusionCompiler(
                    _BASE,
                    enable_loop_ordering=loop_ordering,
                    enable_layer_fusion=layer_fusion,
                ).compile(net, batch_size=16)
                batched = simulate_blocks_grid([_BASE], program.blocks)[0]
                scalar = [run_block(_BASE, b) for b in program]
                _assert_bit_identical(batched, scalar)

    def test_zoo_blocks_stay_under_the_exactness_guard(self):
        # The guard must never kick in for realistic shapes — otherwise the
        # batched win silently evaporates into per-block fallbacks.
        for network in models.BENCHMARKS:
            program = FusionCompiler(_BASE).compile(models.load(network), batch_size=16)
            for block in program:
                workload = block.tiling.workload
                assert 64 * workload.macs < _FLOAT_EXACT_LIMIT
                tiling = block.tiling
                dram_total = int(
                    tiling.dram_weight_bits
                    + tiling.dram_input_bits
                    + tiling.dram_output_read_bits
                    + tiling.dram_output_write_bits
                )
                assert dram_total < _FLOAT_EXACT_LIMIT


class TestGridOracle:
    def test_grid_rows_match_scalar(self):
        program = FusionCompiler(_BASE).compile(models.load("CIFAR-10"), batch_size=16)
        configs = [
            _BASE,
            _BASE.with_bandwidth(128),
            _BASE.with_bandwidth(512),
            _BASE.with_buffers(16.0, 32.0, 8.0),
            _BASE.with_array(32, 16),
        ]
        rows = simulate_blocks_grid(configs, program.blocks)
        assert len(rows) == len(configs)
        for config, row in zip(configs, rows):
            _assert_bit_identical(row, [run_block(config, b) for b in program])

    def test_empty_block_batch(self):
        assert simulate_blocks_grid([_BASE, _BASE], []) == [[], []]


class TestRandomizedOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        in_features=st.integers(min_value=1, max_value=2048),
        out_features=st.integers(min_value=1, max_value=2048),
        batch=st.integers(min_value=1, max_value=64),
        input_bits=st.sampled_from((1, 2, 4, 8, 16)),
        weight_bits=st.sampled_from((1, 2, 4, 8, 16)),
        ibuf_kb=st.sampled_from((1.0, 4.0, 32.0)),
        wbuf_kb=st.sampled_from((2.0, 16.0, 64.0)),
        obuf_kb=st.sampled_from((0.5, 2.0, 16.0)),
    )
    def test_random_gemm_blocks_match_oracle(
        self, in_features, out_features, batch, input_bits, weight_bits, ibuf_kb, wbuf_kb, obuf_kb
    ):
        # Random FC shapes produce GEMMs with edge tiles (dims not divisible
        # by the chosen tile sizes) and mixed-bitwidth fusion configs.
        config = _BASE.with_buffers(ibuf_kb, wbuf_kb, obuf_kb)
        layer = FCLayer(
            name="fc",
            in_features=in_features,
            out_features=out_features,
            input_bits=input_bits,
            weight_bits=weight_bits,
        )
        try:
            block = compile_alone(FusionCompiler(config), layer, batch)
        except ValueError:
            return  # no feasible tiling under a tiny scratchpad: nothing to simulate
        _assert_bit_identical(
            simulate_blocks_grid([config], [block])[0], [run_block(config, block)]
        )

    @settings(max_examples=60, deadline=None)
    @given(
        channels=st.integers(min_value=1, max_value=64),
        height=st.integers(min_value=2, max_value=32),
        kernel=st.integers(min_value=1, max_value=3),
        batch=st.integers(min_value=1, max_value=16),
        mode=st.sampled_from(("max", "avg")),
    )
    def test_random_pooling_blocks_match_oracle(self, channels, height, kernel, batch, mode):
        layer = PoolLayer(
            name="pool",
            channels=channels,
            in_height=height,
            in_width=height,
            kernel=min(kernel, height),
            stride=1,
            mode=mode,
        )
        block = compile_alone(FusionCompiler(_BASE), layer, batch)
        _assert_bit_identical(
            simulate_blocks_grid([_BASE], [block])[0], [run_block(_BASE, block)]
        )

    @settings(max_examples=40, deadline=None)
    @given(
        in_features=st.integers(min_value=1, max_value=512),
        out_features=st.integers(min_value=1, max_value=512),
        channels=st.integers(min_value=1, max_value=32),
        bits=st.sampled_from((2, 4, 8)),
    )
    def test_mixed_gemm_and_pooling_batch(self, in_features, out_features, channels, bits):
        fc = compile_alone(
            FusionCompiler(_BASE),
            FCLayer(
                name="fc",
                in_features=in_features,
                out_features=out_features,
                input_bits=bits,
                weight_bits=bits,
            ),
            8,
        )
        pool = compile_alone(
            FusionCompiler(_BASE),
            PoolLayer(name="pool", channels=channels, in_height=8, in_width=8),
            8,
        )
        blocks = [fc, pool, fc]
        _assert_bit_identical(
            simulate_blocks_grid([_BASE], blocks)[0],
            [run_block(_BASE, block) for block in blocks],
        )


def _synthetic_block(workload: GemmWorkload, tiling=None) -> CompiledBlock:
    """An FC block whose tiling is replaced by a plan for ``workload``."""
    base = compile_alone(
        FusionCompiler(_BASE), FCLayer(name="fc", in_features=64, out_features=64), 8
    )
    if tiling is None:
        tiling = search_tilings((workload,), _BASE, tuple(LoopOrder))[0]
    return dataclasses.replace(base, tiling=tiling)


def _assert_close(got, want):
    """Integers equal exactly, floats to a relative 1e-12."""
    got_fields = dataclasses.asdict(got)
    want_fields = dataclasses.asdict(want)
    for group in ("traffic", "energy"):
        for key, value in want_fields.pop(group).items():
            _assert_field(got_fields[group][key], value, f"{group}.{key}")
        got_fields.pop(group)
    for key, value in want_fields.items():
        _assert_field(got_fields[key], value, key)


def _assert_field(got, want, label):
    assert type(got) is type(want), label
    if isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-12), label
    else:
        assert got == want, label


class TestPastFloatExactness:
    """Blocks past ``2**53`` but under the int64 guard still simulate."""

    @pytest.mark.parametrize(
        "m, n, r, input_bits, weight_bits",
        [
            (200_003, 300_007, 200_009, 2, 2),
            (1_000_003, 4_099, 3_000_017, 8, 8),
            (65_537, 1_048_583, 150_001, 16, 8),
        ],
    )
    def test_block_matches_oracle(self, m, n, r, input_bits, weight_bits):
        workload = GemmWorkload(
            m=m, n=n, r=r, input_bits=input_bits, weight_bits=weight_bits, output_bits=16
        )
        assert workload.macs > _FLOAT_EXACT_LIMIT
        block = _synthetic_block(workload)
        configs = [_BASE, _BASE.with_bandwidth(128)]
        rows = simulate_blocks_grid(configs, [block])
        for config, row in zip(configs, rows):
            _assert_close(row[0], run_block(config, block))


class TestOverflowGuard:
    def _overflow_block(self) -> CompiledBlock:
        """A block whose counts could overflow int64 arithmetic."""
        base = compile_alone(
            FusionCompiler(_BASE), FCLayer(name="fc", in_features=64, out_features=64), 8
        )
        huge = GemmWorkload(
            m=1 << 20,
            n=1 << 20,
            r=1 << 18,
            input_bits=8,
            weight_bits=8,
            output_bits=16,
        )
        return _synthetic_block(huge, dataclasses.replace(base.tiling, workload=huge))

    def test_overflow_scale_block_is_rejected_by_name(self):
        normal = compile_alone(
            FusionCompiler(_BASE), FCLayer(name="small", in_features=32, out_features=32), 8
        )
        with pytest.raises(ValueError, match=r"^block 'fc' is too large to simulate") as error:
            simulate_blocks_grid([_BASE], [normal, self._overflow_block(), normal])
        assert "\n" not in str(error.value)

    def test_overflow_guard_covers_every_grid_row(self):
        with pytest.raises(ValueError, match="could overflow int64"):
            simulate_blocks_grid([_BASE, _BASE.with_bandwidth(128)], [self._overflow_block()])

    def test_non_positive_gemm_tile_is_rejected(self):
        block = compile_alone(
            FusionCompiler(_BASE), FCLayer(name="fc", in_features=64, out_features=64), 8
        )
        broken = _synthetic_block(
            block.tiling.workload, dataclasses.replace(block.tiling, tile_n=0)
        )
        with pytest.raises(ValueError, match="block 'fc' has a non-positive GEMM tile"):
            simulate_blocks_grid([_BASE], [broken])
