"""Physical invariants the Bit Fusion simulator obeys across its config space.

Every zoo network runs through the evaluation session (the path reports
and sweeps take) on the three paper configurations (Eyeriss-matched,
Stripes-matched and the 16 nm GPU-scaled one), at batch sizes 1 and 16,
and at off-chip bandwidths from 32 to 1024 bits per cycle.  Each test
checks one invariant on one network over that whole grid:

* total cycles never rise as bandwidth rises;
* per-layer cycles, traffic and energy sum exactly to the network totals;
* each layer's cycles cover both its compute and its memory cycles;
* each GEMM block reads at least its compulsory footprint (all weights
  and all inputs once) from DRAM.
"""

from __future__ import annotations

import pytest

from repro.core.config import BitFusionConfig
from repro.dnn import models
from repro.session import EvaluationSession, Workload, compile_program

_CONFIGS = (
    BitFusionConfig.eyeriss_matched,
    BitFusionConfig.stripes_matched,
    BitFusionConfig.gpu_scaled_16nm,
)
_BATCHES = (1, 16)
_BANDWIDTHS = (32, 64, 128, 256, 512, 1024)


@pytest.fixture(scope="module")
def grid():
    """``{network: [(program, [result per bandwidth, ascending])]}``.

    One entry per (configuration, batch size) pair; the program is the
    compiled one the results priced (bandwidth does not change it).
    """
    points = {}
    workloads = []
    for network in models.BENCHMARKS:
        for make_config in _CONFIGS:
            for batch in _BATCHES:
                base = make_config(batch_size=batch)
                sweep = [
                    Workload.bitfusion(
                        network, batch_size=batch, config=base.with_bandwidth(bandwidth)
                    )
                    for bandwidth in _BANDWIDTHS
                ]
                points.setdefault(network, []).append((compile_program(sweep[0]), sweep))
                workloads.extend(sweep)
    with EvaluationSession() as session:
        results = dict(zip(workloads, session.run_many(workloads)))
    return {
        network: [(program, [results[w] for w in sweep]) for program, sweep in entries]
        for network, entries in points.items()
    }


def _results(grid, network):
    for _, sweep in grid[network]:
        yield from sweep


@pytest.mark.parametrize("network", models.BENCHMARKS)
def test_cycles_never_rise_with_bandwidth(grid, network):
    for _, sweep in grid[network]:
        cycles = [result.total_cycles for result in sweep]
        assert cycles == sorted(cycles, reverse=True), (sweep[0].platform, cycles)


@pytest.mark.parametrize("network", models.BENCHMARKS)
def test_layers_sum_exactly_to_network_totals(grid, network):
    for result in _results(grid, network):
        layers = result.layers
        assert result.total_cycles == sum(
            max(layer.compute_cycles, layer.memory_cycles) + layer.overhead_cycles
            for layer in layers
        )
        assert result.compute_cycles == sum(layer.compute_cycles for layer in layers)
        assert result.memory_cycles == sum(layer.memory_cycles for layer in layers)
        assert result.total_macs == sum(layer.macs for layer in layers)
        assert result.traffic.dram_total_bits == sum(
            layer.traffic.dram_total_bits for layer in layers
        )
        for component in ("compute", "buffers", "register_file", "dram"):
            assert getattr(result.energy, component) == sum(
                getattr(layer.energy, component) for layer in layers
            ), component


@pytest.mark.parametrize("network", models.BENCHMARKS)
def test_layer_cycles_cover_compute_and_memory(grid, network):
    for result in _results(grid, network):
        for layer in result.layers:
            assert layer.total_cycles >= layer.compute_cycles, layer.name
            assert layer.total_cycles >= layer.memory_cycles, layer.name


@pytest.mark.parametrize("network", models.BENCHMARKS)
def test_gemm_blocks_read_their_compulsory_footprint(grid, network):
    for program, sweep in grid[network]:
        for result in sweep:
            for block, layer in zip(program.blocks, result.layers, strict=True):
                assert block.name == layer.name
                if not block.layer.has_gemm():
                    continue
                gemm = block.tiling.workload
                compulsory = gemm.weight_footprint_bits + gemm.input_footprint_bits
                assert layer.traffic.dram_read_bits >= compulsory, layer.name
