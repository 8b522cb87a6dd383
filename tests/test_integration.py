"""Integration tests spanning the compiler, simulator, energy models and baselines.

These tests check cross-module invariants that no single unit test sees:
conservation between the tiling plans and the simulator's traffic, the
monotonicity of performance/energy in bitwidth, bandwidth and batch size,
and end-to-end consistency of the public API paths.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.accelerator import BitFusionAccelerator
from repro.core.config import BitFusionConfig
from repro.dnn import models
from repro.dnn.layers import ConvLayer, FCLayer
from repro.dnn.network import Network
from repro.isa.compiler import FusionCompiler
from repro.sim.batched import simulate_blocks_grid


class TestTrafficConservation:
    def test_simulated_dram_traffic_matches_tiling_plans(self, default_config):
        """The simulator charges exactly the off-chip traffic the compiler planned."""
        network = models.load("VGG-7")
        compiler = FusionCompiler(default_config)
        program = compiler.compile(network, 16)
        (layers,) = simulate_blocks_grid([default_config], program.blocks)
        for compiled, layer_result in zip(program, layers):
            expected = compiled.tiling.total_dram_bits
            assert layer_result.traffic.dram_total_bits == expected

    def test_dram_traffic_at_least_model_footprint(self, default_config):
        """Off-chip reads can never be less than one fetch of the model weights."""
        for name in ("Cifar-10", "LSTM"):
            network = models.load(name)
            result = BitFusionAccelerator(default_config).run(network, 16)
            weight_bits = sum(layer.weight_bits_total() for layer in network)
            assert sum(layer.traffic.dram_read_bits for layer in result.layers) >= weight_bits

    def test_buffer_traffic_exceeds_dram_traffic_for_compute_heavy_nets(self, default_config):
        """On-chip reuse means the buffers see far more traffic than DRAM."""
        result = BitFusionAccelerator(default_config).run(models.load("Cifar-10"), 16)
        buffer_bits = sum(
            layer.traffic.ibuf_read_bits
            + layer.traffic.wbuf_read_bits
            + layer.traffic.obuf_read_bits
            + layer.traffic.obuf_write_bits
            for layer in result.layers
        )
        assert buffer_bits > sum(layer.traffic.dram_total_bits for layer in result.layers)


class TestMonotonicity:
    def _single_layer_network(self, bits: int) -> Network:
        return Network(
            f"fc{bits}",
            [FCLayer(name="fc", in_features=2048, out_features=2048,
                     input_bits=bits, weight_bits=bits, output_bits=bits)],
        )

    def test_latency_monotonic_in_bitwidth(self, default_config):
        accelerator = BitFusionAccelerator(default_config)
        latencies = [
            accelerator.run(self._single_layer_network(bits), 16).total_cycles
            for bits in (2, 4, 8, 16)
        ]
        assert latencies == sorted(latencies)

    def test_energy_monotonic_in_bitwidth(self, default_config):
        accelerator = BitFusionAccelerator(default_config)
        energies = [
            accelerator.run(self._single_layer_network(bits), 16).energy.total
            for bits in (2, 4, 8, 16)
        ]
        assert energies == sorted(energies)

    def test_latency_non_increasing_in_bandwidth(self):
        network = models.load("RNN")
        cycles = []
        for bandwidth in (32, 64, 128, 256, 512):
            config = BitFusionConfig.eyeriss_matched(bandwidth_bits_per_cycle=bandwidth)
            cycles.append(BitFusionAccelerator(config).run(network, 16).total_cycles)
        assert all(later <= earlier for earlier, later in zip(cycles, cycles[1:]))

    def test_per_inference_latency_non_increasing_in_batch(self):
        network = models.load("LSTM")
        accelerator = BitFusionAccelerator(BitFusionConfig.eyeriss_matched())
        latencies = []
        for batch in (1, 4, 16, 64):
            result = accelerator.run(network, batch_size=batch)
            latencies.append(result.latency_per_inference_s)
        assert all(later <= earlier * 1.001 for earlier, later in zip(latencies, latencies[1:]))

    def test_more_fusion_units_never_slower(self):
        network = models.load("SVHN")
        small = BitFusionConfig(rows=16, columns=8, name="small")
        large = BitFusionConfig(rows=64, columns=16, name="large")
        small_cycles = BitFusionAccelerator(small).run(network, 16).total_cycles
        large_cycles = BitFusionAccelerator(large).run(network, 16).total_cycles
        assert large_cycles <= small_cycles


class TestCompilerSimulatorConsistency:
    def test_fusion_configuration_follows_layer_bitwidths(self, default_config):
        network = models.load("AlexNet")
        program = FusionCompiler(default_config).compile(network, 16)
        for compiled in program:
            assert compiled.block.input_bits == compiled.layer.input_bits
            assert compiled.block.weight_bits == compiled.layer.weight_bits

    def test_macs_accounted_once_per_compute_layer(self, default_config):
        network = models.load("LeNet-5")
        result = BitFusionAccelerator(default_config).run(network, 16)
        expected = network.total_macs() * 16
        assert result.total_macs == expected

    def test_wider_model_takes_longer_on_same_hardware(self, default_config):
        accelerator = BitFusionAccelerator(default_config)
        wide = accelerator.run(models.load("ResNet-18"), 16)
        regular_net = models.load_baseline_variant("ResNet-18")
        # Execute the regular model at the wide model's bitwidths for a fair
        # hardware-only comparison.
        regular = accelerator.run(
            Network(
                "ResNet-18-regular-2bit",
                [
                    replace(layer, input_bits=2, weight_bits=2, output_bits=2)
                    if layer.has_gemm()
                    else layer
                    for layer in regular_net
                ],
            ),
            16,
        )
        assert wide.total_cycles > regular.total_cycles


class TestPublicApiPaths:
    @pytest.mark.parametrize(
        ("stride", "padding", "input_bits", "weight_bits"),
        [(1, 1, 4, 2), (2, 1, 8, 4), (1, 0, 2, 2)],
    )
    def test_functional_lowering_is_the_gemm_the_simulator_prices(
        self, rng, stride, padding, input_bits, weight_bits
    ):
        from repro.core.bitbrick import fused_matmul, im2col, random_operands

        layer = ConvLayer(name="c", in_channels=2, out_channels=3, in_height=5, in_width=5,
                          kernel=3, stride=stride, padding=padding,
                          input_bits=input_bits, weight_bits=weight_bits)
        result = BitFusionAccelerator().run(Network("tiny", [layer]), 16)
        (layer_result,) = result.layers
        assert layer_result.name == layer.name
        assert layer_result.input_bits == input_bits

        inputs = random_operands(rng, (2, 5, 5), input_bits)
        kernels = random_operands(rng, (3, 2 * 3 * 3), weight_bits)
        columns = im2col(inputs, layer.kernel, stride, padding)
        gemm = layer.gemm_shape()
        assert (kernels.shape[0], *columns.shape) == (gemm.m, gemm.n, gemm.repeats)
        fused = fused_matmul(kernels, columns, weight_bits=weight_bits, input_bits=input_bits)
        np.testing.assert_array_equal(fused, kernels @ columns)

    def test_all_three_paper_configurations_run_all_benchmarks(self):
        configs = (
            BitFusionConfig.eyeriss_matched(),
            BitFusionConfig.stripes_matched(),
            BitFusionConfig.gpu_scaled_16nm(),
        )
        for config in configs:
            accelerator = BitFusionAccelerator(config)
            for name in ("LeNet-5", "LSTM"):
                result = accelerator.run(models.load(name), 16)
                assert result.total_cycles > 0
                assert result.energy.total > 0
