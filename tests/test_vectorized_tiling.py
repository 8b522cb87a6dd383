"""The vectorized tiling search against its scalar reference oracle.

The contract under test: :func:`~repro.isa.tiling.search_tilings` (the
numpy grid scorer the compiler runs) returns plans *bit-identical* to
``reference.tiling.search_tiling_scalar`` (the readable pure-Python
double loop) on every input the int64 guard admits — same tile sizes, same
loop order, same traffic totals, and therefore byte-identical compiled
programs.  Covered:

* every in-zoo network, compiled whole under several
  ``BitFusionConfig.with_*`` buffer/array geometries and both compiler
  flag settings (program digests must match),
* every individual GEMM the zoo lowers to, for both the full-order search
  and each single order,
* randomized GEMM shapes and buffer geometries (hypothesis),
* the int64-overflow guard and infeasible-search error parity,
* many GEMMs in one search: every zoo GEMM at batches 1, 16 and 256 in
  one call, and randomized ragged
  batches, plan for plan against single searches and the scalar oracle,
  and the GEMM a failing batch names.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import BitFusionConfig
from repro.dnn import models
from repro.isa.compiler import FusionCompiler
from repro.isa.instructions import LoopOrder
from repro.isa.tiling import (
    GemmWorkload,
    _int64_safe,
    search_tilings,
)

from compiling import program_digest, program_payload
from reference.tiling import plan_tiling_scalar, search_tiling_scalar

_BASE = BitFusionConfig.eyeriss_matched()

#: Buffer/array geometries the oracle tests sweep — the paper default plus
#: smaller and skewed scratchpads that force multi-tile plans and different
#: winning orders.
_GEOMETRIES = (
    _BASE,
    _BASE.with_buffers(16.0, 32.0, 8.0),
    _BASE.with_buffers(4.0, 8.0, 2.0),
    _BASE.with_buffers(64.0, 16.0, 4.0).with_array(32, 16),
    BitFusionConfig.stripes_matched(),
)


def _zoo_gemms(config: BitFusionConfig, batch_size: int = 16) -> list[GemmWorkload]:
    compiler = FusionCompiler(config)
    gemms: list[GemmWorkload] = []
    for name in models.BENCHMARKS:
        for layer in models.load(name):
            if layer.has_gemm():
                gemms.append(compiler.gemm_workload(layer, batch_size=batch_size))
    return gemms


def _scalar_compiler(config: BitFusionConfig, **flags) -> FusionCompiler:
    """A compiler whose every tiling search runs the pure-Python reference."""
    return FusionCompiler(
        config,
        plan_resolver=lambda requests, compute: [
            search_tiling_scalar(gemm, config, orders) for gemm, orders in requests
        ],
        **flags,
    )


class TestZooOracle:
    @pytest.mark.parametrize("config", _GEOMETRIES, ids=lambda c: f"{c.ibuf_kb:g}/{c.wbuf_kb:g}/{c.obuf_kb:g}KB")
    @pytest.mark.parametrize("network", models.BENCHMARKS)
    def test_compiled_programs_byte_identical(self, network, config):
        net = models.load(network)
        vectorized = FusionCompiler(config).compile(net, batch_size=16)
        scalar = _scalar_compiler(config).compile(net, batch_size=16)
        assert program_digest(vectorized) == program_digest(scalar)
        assert program_payload(vectorized) == program_payload(scalar)

    def test_compiler_flags_byte_identical(self):
        net = models.load("SVHN")
        for loop_ordering in (True, False):
            for layer_fusion in (True, False):
                vectorized = FusionCompiler(
                    _BASE,
                    enable_loop_ordering=loop_ordering,
                    enable_layer_fusion=layer_fusion,
                ).compile(net, batch_size=16)
                scalar = _scalar_compiler(
                    _BASE,
                    enable_loop_ordering=loop_ordering,
                    enable_layer_fusion=layer_fusion,
                ).compile(net, batch_size=16)
                assert program_digest(vectorized) == program_digest(scalar)

    @pytest.mark.parametrize("config", _GEOMETRIES[:3], ids=lambda c: f"{c.ibuf_kb:g}/{c.wbuf_kb:g}/{c.obuf_kb:g}KB")
    def test_every_zoo_gemm_every_order(self, config):
        orders = tuple(LoopOrder)
        for gemm in _zoo_gemms(config):
            assert search_tilings((gemm,), config, orders)[0] == search_tiling_scalar(
                gemm, config, orders
            )
            for order in orders:
                assert search_tilings((gemm,), config, (order,))[0] == plan_tiling_scalar(
                    gemm, config, order
                )


class TestRandomizedOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=5000),
        n=st.integers(min_value=1, max_value=5000),
        r=st.integers(min_value=1, max_value=200_000),
        input_bits=st.sampled_from((1, 2, 4, 8, 16)),
        weight_bits=st.sampled_from((1, 2, 4, 8, 16)),
        output_bits=st.sampled_from((8, 16, 32)),
        ibuf_kb=st.sampled_from((1.0, 4.0, 32.0, 128.0)),
        wbuf_kb=st.sampled_from((2.0, 16.0, 64.0, 256.0)),
        obuf_kb=st.sampled_from((0.5, 2.0, 16.0, 64.0)),
    )
    def test_random_gemm_shapes_match_oracle(
        self, m, n, r, input_bits, weight_bits, output_bits, ibuf_kb, wbuf_kb, obuf_kb
    ):
        gemm = GemmWorkload(
            m=m,
            n=n,
            r=r,
            input_bits=input_bits,
            weight_bits=weight_bits,
            output_bits=output_bits,
        )
        config = _BASE.with_buffers(ibuf_kb, wbuf_kb, obuf_kb)
        orders = tuple(LoopOrder)
        try:
            expected = search_tiling_scalar(gemm, config, orders)
        except ValueError:
            with pytest.raises(ValueError):
                search_tilings((gemm,), config, orders)
            return
        assert search_tilings((gemm,), config, orders)[0] == expected

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=3000),
        n=st.integers(min_value=1, max_value=3000),
        r=st.integers(min_value=1, max_value=100_000),
        order=st.sampled_from(tuple(LoopOrder)),
    )
    def test_single_order_matches_oracle(self, m, n, r, order):
        gemm = GemmWorkload(
            m=m, n=n, r=r, input_bits=8, weight_bits=8, output_bits=16
        )
        assert search_tilings((gemm,), _BASE, (order,))[0] == plan_tiling_scalar(
            gemm, _BASE, order
        )


class TestEdgeParity:
    def test_overflow_guard_rejects_the_gemm(self):
        # Large enough that int64 traffic arithmetic could overflow: the
        # guard must reject it with a one-line error naming the GEMM.
        gemm = GemmWorkload(
            m=1 << 20, n=1 << 20, r=1 << 18, input_bits=16, weight_bits=16, output_bits=32
        )
        assert not _int64_safe(gemm)
        config = _BASE.with_buffers(1024.0, 4096.0, 1024.0)
        with pytest.raises(ValueError, match=r"^GEMM 1048576x1048576x262144 .* too large") as error:
            search_tilings((gemm,), config, tuple(LoopOrder))
        assert "\n" not in str(error.value)

    def test_zoo_workloads_are_int64_safe(self):
        # The guard must never kick in for realistic shapes — otherwise the
        # vectorized win silently evaporates.
        for gemm in _zoo_gemms(_BASE):
            assert _int64_safe(gemm)

    def test_infeasible_search_raises_like_scalar(self):
        gemm = GemmWorkload(m=64, n=64, r=64, input_bits=16, weight_bits=16, output_bits=32)
        tiny = _BASE.with_buffers(0.001, 0.001, 0.001)
        with pytest.raises(ValueError, match="no feasible tiling"):
            search_tiling_scalar(gemm, tiny, tuple(LoopOrder))
        with pytest.raises(ValueError, match="no feasible tiling"):
            search_tilings((gemm,), tiny, tuple(LoopOrder))

    def test_empty_orders_rejected(self):
        gemm = GemmWorkload(m=8, n=8, r=8, input_bits=8, weight_bits=8, output_bits=16)
        with pytest.raises(ValueError):
            search_tilings((gemm,), _BASE, ())
        with pytest.raises(ValueError):
            search_tiling_scalar(gemm, _BASE, ())


#: Order tuples the batched search is exercised with: the compiler's two
#: (every order; output-stationary only), each other single order, and the
#: full set reversed (ties then break towards a different order).
_ORDER_TUPLES = (
    tuple(LoopOrder),
    (LoopOrder.OUTPUT_STATIONARY,),
    (LoopOrder.WEIGHT_STATIONARY,),
    (LoopOrder.INPUT_STATIONARY,),
    tuple(reversed(LoopOrder)),
)

_geometry_id = lambda c: f"{c.ibuf_kb:g}/{c.wbuf_kb:g}/{c.obuf_kb:g}KB"  # noqa: E731


class TestBatchedSearch:
    @pytest.mark.parametrize("batch_size", (1, 16, 256))
    @pytest.mark.parametrize("config", _GEOMETRIES, ids=_geometry_id)
    def test_zoo_batch_equals_single_and_scalar_searches(self, config, batch_size):
        # Every zoo GEMM in one call, duplicates included (ResNet-18's
        # repeated blocks), against one search per GEMM and the oracle.
        gemms = _zoo_gemms(config, batch_size)
        orders = tuple(LoopOrder)
        batched = search_tilings(gemms, config, orders)
        assert batched == [search_tilings((gemm,), config, orders)[0] for gemm in gemms]
        scalar = {
            gemm: search_tiling_scalar(gemm, config, orders) for gemm in dict.fromkeys(gemms)
        }
        assert batched == [scalar[gemm] for gemm in gemms]

    @settings(max_examples=80, deadline=None)
    @given(
        shapes=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=1 << 12),
                st.integers(min_value=1, max_value=1 << 12),
                st.integers(min_value=1, max_value=1 << 12),
                st.sampled_from((1, 2, 4, 8, 16)),
                st.sampled_from((1, 2, 4, 8, 16)),
            ),
            min_size=1,
            max_size=6,
        ),
        orders=st.sampled_from(_ORDER_TUPLES),
        config=st.sampled_from(_GEOMETRIES),
    )
    def test_ragged_batches_match_the_oracle(self, shapes, orders, config):
        # Extents from 1 to 2**12 give each GEMM its own number of tile
        # candidates, so the grid is padded.
        gemms = [
            GemmWorkload(
                m=m, n=n, r=r, input_bits=input_bits, weight_bits=weight_bits, output_bits=16
            )
            for m, n, r, input_bits, weight_bits in shapes
        ]
        assert search_tilings(gemms, config, orders) == [
            search_tiling_scalar(gemm, config, orders) for gemm in gemms
        ]

    def test_empty_batch(self):
        assert search_tilings([], _BASE, tuple(LoopOrder)) == []
        with pytest.raises(ValueError, match="at least one loop order"):
            search_tilings([], _BASE, ())

    def test_infeasible_gemm_in_a_batch_is_named(self):
        # An 8-bit input buffer holds no 16-bit operand.
        config = _BASE.with_buffers(0.001, 64.0, 64.0)
        fits = GemmWorkload(m=4, n=4, r=4, input_bits=8, weight_bits=8, output_bits=16)
        bad = GemmWorkload(m=3, n=5, r=7, input_bits=16, weight_bits=8, output_bits=16)
        search_tilings([fits, fits], config, tuple(LoopOrder))
        with pytest.raises(ValueError, match=r"^no feasible tiling for GEMM 3x5x7 at 16/8 bits") as error:
            search_tilings([fits, bad, fits], config, tuple(LoopOrder))
        assert "\n" not in str(error.value)
        with pytest.raises(ValueError, match="no feasible tiling") as scalar:
            search_tiling_scalar(bad, config, tuple(LoopOrder))
        assert str(scalar.value) == str(error.value)

    def test_first_failing_gemm_is_named(self):
        # The batch reports the GEMM a one-at-a-time search would fail on
        # first, whichever way it fails.
        config = _BASE.with_buffers(0.001, 64.0, 64.0)
        infeasible = GemmWorkload(m=3, n=5, r=7, input_bits=16, weight_bits=8, output_bits=16)
        huge = GemmWorkload(
            m=1 << 20, n=1 << 20, r=1 << 18, input_bits=8, weight_bits=8, output_bits=32
        )
        fits = GemmWorkload(m=4, n=4, r=4, input_bits=8, weight_bits=8, output_bits=16)
        orders = tuple(LoopOrder)
        with pytest.raises(ValueError, match="^no feasible tiling for GEMM 3x5x7"):
            search_tilings([fits, infeasible, huge], config, orders)
        with pytest.raises(ValueError, match=r"^GEMM 1048576x1048576x262144 .* too large"):
            search_tilings([fits, huge, infeasible], config, orders)
