"""Tests for the Bit Fusion simulator (compile + execute networks)."""

from __future__ import annotations

import pytest

from repro.core.accelerator import BitFusionAccelerator
from repro.core.config import BitFusionConfig
from repro.dnn import models
from repro.dnn.layers import ConvLayer, FCLayer, PoolLayer
from repro.dnn.network import Network
from repro.isa.compiler import FusionCompiler
from repro.sim.batched import simulate_blocks_grid
from repro.sim.executor import BitFusionSimulator


@pytest.fixture
def simulator(default_config) -> BitFusionSimulator:
    return BitFusionSimulator(default_config)


@pytest.fixture
def accelerator(default_config) -> BitFusionAccelerator:
    return BitFusionAccelerator(default_config)


def _fc_network(input_bits=4, weight_bits=4, in_features=1024, out_features=1024) -> Network:
    return Network(
        "fc-net",
        [FCLayer(name="fc", in_features=in_features, out_features=out_features,
                 input_bits=input_bits, weight_bits=weight_bits)],
    )


def _run_block(simulator: BitFusionSimulator, block):
    return simulate_blocks_grid([simulator], [block])[0][0]


class TestRunBlock:
    def test_block_result_fields(self, simulator, default_config):
        compiler = FusionCompiler(default_config)
        block = compiler.compile_compute_layer(
            FCLayer(name="fc", in_features=512, out_features=256, input_bits=4, weight_bits=2), 16
        )
        result = _run_block(simulator, block)
        assert result.name == "fc"
        assert result.macs == 512 * 256 * 16
        assert result.compute_cycles > 0
        assert result.memory_cycles > 0
        assert result.energy.total > 0
        assert 0 < result.utilization <= 1.0

    def test_auxiliary_block_is_memory_bound(self, simulator, default_config):
        compiler = FusionCompiler(default_config)
        block = compiler.compile_auxiliary_layer(
            PoolLayer(name="pool", channels=64, in_height=32, in_width=32, kernel=2, stride=2), 16
        )
        result = _run_block(simulator, block)
        assert result.macs == 0
        assert result.compute_cycles == 0
        assert result.memory_cycles > 0
        assert result.is_memory_bound

    def test_buffer_traffic_scales_with_work(self, simulator, default_config):
        compiler = FusionCompiler(default_config)
        small = _run_block(
            simulator,
            compiler.compile_compute_layer(
                FCLayer(name="s", in_features=128, out_features=128), 16
            ),
        )
        large = _run_block(
            simulator,
            compiler.compile_compute_layer(
                FCLayer(name="l", in_features=1024, out_features=1024), 16
            ),
        )
        assert large.traffic.wbuf_read_bits > small.traffic.wbuf_read_bits
        assert large.traffic.dram_total_bits > small.traffic.dram_total_bits

    def test_no_register_file_energy(self, simulator, default_config):
        compiler = FusionCompiler(default_config)
        block = compiler.compile_compute_layer(
            FCLayer(name="fc", in_features=256, out_features=64), 16
        )
        result = _run_block(simulator, block)
        assert result.energy.register_file == 0.0


class TestRunNetwork:
    def test_network_result_aggregates_blocks(self, accelerator):
        result = accelerator.run(models.load("LeNet-5"), 16)
        assert result.network_name == "LeNet-5"
        assert result.platform == accelerator.config.name
        assert len(result.layers) >= 4
        assert result.total_cycles == sum(layer.total_cycles for layer in result.layers)

    def test_total_macs_scale_with_batch(self, default_config):
        network = models.load("LeNet-5")
        small = BitFusionAccelerator(default_config).run(network, batch_size=1)
        large = BitFusionAccelerator(default_config).run(network, batch_size=8)
        assert large.total_macs == 8 * small.total_macs

    def test_run_network_compiles_and_simulates(self, default_config):
        result = BitFusionAccelerator(default_config).run(models.load("LSTM"), 16)
        assert result.total_macs > 0

    def test_lower_bitwidth_network_runs_faster(self, accelerator):
        wide = accelerator.run(_fc_network(8, 8), 16)
        narrow = accelerator.run(_fc_network(2, 2), 16)
        assert narrow.total_cycles < wide.total_cycles
        assert narrow.energy.total < wide.energy.total

    def test_recurrent_networks_are_memory_bound_at_small_batch(self, default_config):
        result = BitFusionAccelerator(default_config).run(models.load("RNN"), batch_size=1)
        assert result.memory_cycles > result.compute_cycles

    def test_bandwidth_increase_helps_memory_bound_networks(self):
        network = models.load("LSTM")
        slow = BitFusionAccelerator(BitFusionConfig.eyeriss_matched(bandwidth_bits_per_cycle=32))
        fast = BitFusionAccelerator(BitFusionConfig.eyeriss_matched(bandwidth_bits_per_cycle=512))
        assert fast.run(network, 16).total_cycles < slow.run(network, 16).total_cycles

    def test_batching_amortizes_weight_traffic(self):
        network = models.load("LSTM")
        accelerator = BitFusionAccelerator(BitFusionConfig.eyeriss_matched())
        batch1 = accelerator.run(network, batch_size=1)
        batch64 = accelerator.run(network, batch_size=64)
        assert batch64.latency_per_inference_s < batch1.latency_per_inference_s / 5

    def test_disabling_layer_fusion_increases_traffic(self, default_config):
        network = models.load("LeNet-5")
        fused = BitFusionAccelerator(default_config, enable_layer_fusion=True).run(network, 16)
        unfused = BitFusionAccelerator(default_config, enable_layer_fusion=False).run(network, 16)
        assert unfused.traffic.dram_total_bits > fused.traffic.dram_total_bits

    def test_energy_is_dominated_by_memory(self, accelerator):
        """Figure 14: more than 80% of Bit Fusion energy is data movement."""
        result = accelerator.run(models.load("Cifar-10"), 16)
        fractions = result.energy.fractions()
        assert fractions["buffers"] + fractions["dram"] > 0.8
        assert fractions["register_file"] == 0.0

    def test_every_benchmark_simulates(self, accelerator):
        for name in models.benchmark_names():
            result = accelerator.run(models.load(name), 16)
            assert result.total_cycles > 0
            assert result.energy.total > 0

    def test_technology_scaling_reduces_energy(self):
        network = models.load("SVHN")
        at_45 = BitFusionAccelerator(BitFusionConfig.eyeriss_matched()).run(network, 16)
        at_16 = BitFusionAccelerator(BitFusionConfig.gpu_scaled_16nm()).run(network, 16)
        assert at_16.energy_per_inference_j < at_45.energy_per_inference_j
