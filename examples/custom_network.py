#!/usr/bin/env python3
"""Bringing your own quantized network to Bit Fusion.

The benchmark suite covers the paper's eight networks, but the library is
meant to be used with arbitrary quantized models.  This example builds a
small mixed-precision CNN from scratch (the kind of per-layer bitwidth
assignment a quantization-aware training flow produces), then

* inspects its bitwidth profile (the Figure 1 style histogram),
* compiles it and prints the Fusion-ISA block for one layer instruction by
  instruction,
* simulates it at two hardware scale points and reports where the design is
  compute- versus bandwidth-bound,
* verifies a slice of one of its convolutions bit-exactly against NumPy
  (the script exits 1 if they differ).

Run with::

    python examples/custom_network.py
"""

from __future__ import annotations

import sys

import numpy as np

from repro import BitFusionAccelerator, BitFusionConfig
from repro.core.bitbrick import fused_matmul, im2col, random_operands
from repro.dnn.layers import ActivationLayer, ConvLayer, FCLayer, PoolLayer
from repro.dnn.network import Network


def build_custom_network() -> Network:
    """A small mixed-precision CNN for 64x64 RGB inputs."""
    net = Network("custom-mixed-precision")
    net.add(
        ConvLayer(
            name="stem",
            in_channels=3,
            out_channels=32,
            in_height=64,
            in_width=64,
            kernel=3,
            padding=1,
            input_bits=8,
            weight_bits=8,
            output_bits=4,
        )
    )
    net.add(PoolLayer(name="pool1", channels=32, in_height=64, in_width=64, kernel=2, stride=2,
                      input_bits=4, weight_bits=4, output_bits=4))
    net.add(
        ConvLayer(
            name="block1",
            in_channels=32,
            out_channels=64,
            in_height=32,
            in_width=32,
            kernel=3,
            padding=1,
            input_bits=4,
            weight_bits=2,
            output_bits=4,
        )
    )
    net.add(PoolLayer(name="pool2", channels=64, in_height=32, in_width=32, kernel=2, stride=2,
                      input_bits=4, weight_bits=2, output_bits=4))
    net.add(
        ConvLayer(
            name="block2",
            in_channels=64,
            out_channels=128,
            in_height=16,
            in_width=16,
            kernel=3,
            padding=1,
            input_bits=2,
            weight_bits=2,
            output_bits=2,
        )
    )
    net.add(PoolLayer(name="pool3", channels=128, in_height=16, in_width=16, kernel=2, stride=2,
                      input_bits=2, weight_bits=2, output_bits=2))
    net.add(FCLayer(name="head", in_features=128 * 8 * 8, out_features=256,
                    input_bits=2, weight_bits=2, output_bits=4))
    net.add(ActivationLayer(name="head_relu", elements=256, input_bits=4, weight_bits=2,
                            output_bits=4))
    net.add(FCLayer(name="classifier", in_features=256, out_features=100,
                    input_bits=4, weight_bits=4, output_bits=8))
    return net


def main() -> int:
    network = build_custom_network()
    print(network.summary())
    print()

    profile = network.bitwidth_profile()
    print("multiply-add distribution by (input, weight) bitwidth:")
    for (input_bits, weight_bits), fraction in sorted(profile.mac_fraction.items()):
        print(f"  {input_bits}b x {weight_bits}b : {fraction:6.1%}")
    print()

    # Compile and show the Fusion-ISA for the mixed-precision block1 layer.
    accelerator = BitFusionAccelerator(BitFusionConfig.eyeriss_matched())
    program = accelerator.compile(network, batch_size=16)
    block = next(compiled for compiled in program if compiled.name.startswith("block1"))
    print(f"Fusion-ISA block for {block.name!r} ({len(block.block)} instructions):")
    for instruction in block.block:
        print(f"  {instruction.mnemonic:10s} {instruction}")
    print()

    # Simulate at two scale points.
    for config in (BitFusionConfig.eyeriss_matched(), BitFusionConfig.gpu_scaled_16nm()):
        result = BitFusionAccelerator(config).run(network, batch_size=16)
        bound = "memory" if result.memory_cycles > result.compute_cycles else "compute"
        print(
            f"{config.name:28s}: {result.latency_per_inference_s * 1e6:8.1f} us/inference, "
            f"{result.energy_per_inference_j * 1e6:8.1f} uJ/inference, {bound}-bound"
        )
    print()

    # Bit-exact check of the ternary-weight convolution on a slice of block2
    # (8 of its output channels over a 4x4 crop of its input): its im2col
    # GEMM through 2-bit BitBrick slices against NumPy's integer product.
    conv = network["block2"]
    rng = np.random.default_rng(11)
    inputs = random_operands(rng, (conv.in_channels, 4, 4), conv.input_bits)
    kernel_shape = (8, conv.in_channels, conv.kernel, conv.kernel)
    kernels = random_operands(rng, kernel_shape, conv.weight_bits).reshape(8, -1)
    columns = im2col(inputs, conv.kernel, conv.stride, conv.padding)
    fused = fused_matmul(
        kernels, columns, weight_bits=conv.weight_bits, input_bits=conv.input_bits
    )
    error = int(np.max(np.abs(fused - kernels @ columns)))
    print(
        f"functional check on '{conv.name}[:8, :4, :4]': matches NumPy = {error == 0} "
        f"(max |error| = {error})"
    )
    return 0 if error == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
