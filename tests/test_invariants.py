"""Physical invariants every priced platform obeys across its config space.

Every zoo network runs through the evaluation session (the path reports
and sweeps take) on the three paper Bit Fusion configurations
(Eyeriss-matched, Stripes-matched and the 16 nm GPU-scaled one) and on the
Eyeriss, Stripes and temporal platform specs, at batch sizes 1 and 16, and
at off-chip bandwidths from 32 to 1024 bits per cycle.  Each test checks
one invariant on one network over that whole grid:

* total cycles never rise as bandwidth rises;
* per-layer cycles, traffic and energy sum exactly to the network totals;
* each layer's cycles cover both its compute and its memory cycles;
* each GEMM layer reads at least its compulsory footprint (all weights
  and all inputs once, at the platform's operand bits) from DRAM.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.baselines.platform import EYERISS, STRIPES, TEMPORAL, PlatformModel
from repro.core.config import BitFusionConfig
from repro.dnn import models
from repro.session import EvaluationSession, Workload, compile_program
from repro.session.workload import load_network

_CONFIGS = (
    BitFusionConfig.eyeriss_matched,
    BitFusionConfig.stripes_matched,
    BitFusionConfig.gpu_scaled_16nm,
)
_PLATFORMS = (
    (Workload.eyeriss, EYERISS),
    (Workload.stripes, STRIPES),
    (Workload.temporal, TEMPORAL),
)
_BATCHES = (1, 16)
_BANDWIDTHS = (32, 64, 128, 256, 512, 1024)
_UNBOUNDED_KB = (1e12, 1e12, 1e12)


def _bitfusion_entry(network, make_config, batch):
    base = make_config()
    sweep = [
        Workload.bitfusion(network, batch_size=batch, config=base.with_bandwidth(bandwidth))
        for bandwidth in _BANDWIDTHS
    ]
    gemms = [
        (block.name, block.tiling.workload if block.layer.has_gemm() else None)
        for block in compile_program(sweep[0]).blocks
    ]
    return None, gemms, sweep


def _platform_entry(network, make_workload, spec, batch):
    sweep = [
        make_workload(
            network,
            batch_size=batch,
            config=replace(spec, dram_bandwidth_bits_per_cycle=bandwidth),
        )
        for bandwidth in _BANDWIDTHS
    ]
    model = PlatformModel(spec)
    gemms = [
        (layer.name, model.gemm_workload(layer, batch) if layer.has_gemm() else None)
        for layer in load_network(sweep[0])
    ]
    return spec, gemms, sweep


@pytest.fixture(scope="module")
def grid():
    """``{network: [(spec, gemms, [result per bandwidth, ascending])]}``.

    One entry per (platform configuration, batch size) pair.  ``gemms``
    pairs each layer's name with the GEMM the results priced at the
    platform's operand bits (``None`` for a layer without one); bandwidth
    does not change it.  ``spec`` is the platform spec, ``None`` for Bit
    Fusion.
    """
    points = {}
    for network in models.BENCHMARKS:
        entries = points.setdefault(network, [])
        for batch in _BATCHES:
            entries.extend(_bitfusion_entry(network, config, batch) for config in _CONFIGS)
            entries.extend(
                _platform_entry(network, make_workload, spec, batch)
                for make_workload, spec in _PLATFORMS
            )
    workloads = [w for entries in points.values() for _, _, sweep in entries for w in sweep]
    with EvaluationSession() as session:
        results = dict(zip(workloads, session.run_many(workloads)))
    return {
        network: [(spec, gemms, [results[w] for w in sweep]) for spec, gemms, sweep in entries]
        for network, entries in points.items()
    }


def _results(grid, network):
    for _, _, sweep in grid[network]:
        yield from sweep


@pytest.mark.parametrize("network", models.BENCHMARKS)
def test_cycles_never_rise_with_bandwidth(grid, network):
    for _, _, sweep in grid[network]:
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
    for spec, gemms, sweep in grid[network]:
        for result in sweep:
            for (name, gemm), layer in zip(gemms, result.layers, strict=True):
                assert name == layer.name
                if gemm is None:
                    continue
                compulsory = gemm.weight_footprint_bits + gemm.input_footprint_bits
                assert layer.traffic.dram_read_bits >= compulsory, layer.name
        if spec is not None:
            # buffers_kb=None is the closed form of the tiled rule's
            # unbounded-buffer limit.
            closed = PlatformModel(replace(spec, buffers_kb=None))
            tiled = PlatformModel(replace(spec, buffers_kb=_UNBOUNDED_KB))
            planned = [g for _, g in gemms if g]
            assert closed.dram_bits(planned) == tiled.dram_bits(planned), spec.name
