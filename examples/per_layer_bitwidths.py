#!/usr/bin/env python3
"""Exploring per-layer bitwidths: how fusion configuration drives performance.

The central claim of Bit Fusion is that matching the compute fabric to each
layer's operand bitwidths buys near-quadratic gains.  This example makes
that concrete on a single convolutional layer:

* sweep the layer's (input, weight) bitwidths over every configuration the
  Fusion Unit supports,
* report the fused-PE count, peak throughput, simulated latency and energy
  at each configuration,
* then run the real AlexNet bitwidth profile (8/8 entry layer, 4/1 middle,
  8/8 classifier) against a hypothetical fixed-8-bit accelerator to show
  where the whole-network gains come from.

Run with::

    python examples/per_layer_bitwidths.py
"""

from __future__ import annotations

from dataclasses import replace

from repro import BitFusionAccelerator, BitFusionConfig
from repro.core.fusion_unit import fusion_config_for
from repro.dnn import models
from repro.dnn.layers import ConvLayer
from repro.dnn.network import Network


def sweep_single_layer() -> None:
    """Sweep one convolution over every supported bitwidth pair."""
    accelerator = BitFusionAccelerator(BitFusionConfig.eyeriss_matched())
    base_layer = ConvLayer(
        name="conv",
        in_channels=128,
        out_channels=128,
        in_height=28,
        in_width=28,
        kernel=3,
        padding=1,
    )

    print("single 128x128 3x3 convolution on 28x28, batch 16")
    print(f"{'bits (in/wt)':>12s} {'F-PEs/unit':>11s} {'peak GOPS':>10s} {'ms/batch':>9s} {'uJ/batch':>9s}")
    for input_bits in (1, 2, 4, 8, 16):
        for weight_bits in (1, 2, 4, 8, 16):
            if weight_bits > input_bits:
                continue  # keep the table compact; the matrix is symmetric in spirit
            layer = replace(base_layer, input_bits=input_bits, weight_bits=weight_bits)
            network = Network(f"conv-{input_bits}x{weight_bits}", [layer])
            result = accelerator.run(network, batch_size=16)
            fusion = fusion_config_for(input_bits, weight_bits)
            print(
                f"{input_bits:>5d}/{weight_bits:<6d} {fusion.fused_pes:>11d} "
                f"{accelerator.peak_throughput_gops(input_bits, weight_bits):>10.0f} "
                f"{result.batch_latency_s * 1e3:>9.3f} {result.energy.total * 1e6:>9.1f}"
            )
    print()


def alexnet_vs_fixed_8bit() -> None:
    """Compare the quantized AlexNet against a fixed-8-bit execution of it."""
    accelerator = BitFusionAccelerator(BitFusionConfig.eyeriss_matched())
    flexible = models.load("AlexNet")

    fixed = Network("AlexNet-fixed8", [
        replace(layer, input_bits=8, weight_bits=8, output_bits=8) for layer in flexible
    ])

    flexible_result = accelerator.run(flexible, batch_size=16)
    fixed_result = accelerator.run(fixed, batch_size=16)
    speedup = fixed_result.latency_per_inference_s / flexible_result.latency_per_inference_s
    energy = fixed_result.energy_per_inference_j / flexible_result.energy_per_inference_j
    print("AlexNet: bit-flexible execution vs the same fabric locked to 8-bit/8-bit")
    print(f"  bit-flexible : {flexible_result.latency_per_inference_s * 1e3:7.2f} ms/inference")
    print(f"  fixed 8-bit  : {fixed_result.latency_per_inference_s * 1e3:7.2f} ms/inference")
    print(f"  -> {speedup:.2f}x faster and {energy:.2f}x less energy from bit-level fusion alone")


def main() -> None:
    sweep_single_layer()
    alexnet_vs_fixed_8bit()


if __name__ == "__main__":
    main()
