#!/usr/bin/env python3
"""Quickstart: run a quantized DNN on the Bit Fusion accelerator.

This example walks through the complete public API in a few steps:

1. build a Bit Fusion accelerator with the paper's default configuration
   (the 45 nm, Eyeriss-area-matched configuration of Table III),
2. load one of the eight benchmark networks (binarized Cifar-10),
3. compile it to a Fusion-ISA program and inspect the instruction blocks,
4. simulate it to obtain cycle counts, utilization and an energy breakdown,
5. prove the bit-level fusion arithmetic is lossless by running a small
   fully-connected layer both through the BitBrick datapath and through
   plain NumPy integer arithmetic (the script exits 1 if they differ).

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import sys

import numpy as np

from repro import BitFusionAccelerator, BitFusionConfig
from repro.core.bitbrick import fused_matmul, random_operands
from repro.dnn import models


def main() -> int:
    # 1. Configure the accelerator (Table III, Eyeriss-matched, 45 nm).
    accelerator = BitFusionAccelerator(BitFusionConfig.eyeriss_matched())
    print(accelerator.describe())
    print()

    # 2. Load a benchmark network: the binarized Cifar-10 CNN.
    network = models.load("Cifar-10")
    print(network.summary())
    print()

    # 3. Compile to a Fusion-ISA program.  One block per (fused) layer; the
    #    `setup` instruction of each block fixes the fusion configuration.
    program = accelerator.compile(network, batch_size=16)
    print(program.summary())
    print()

    # 4. Simulate: cycles, bandwidth boundedness, energy breakdown.
    result = accelerator.run(network, batch_size=16)
    print(result.summary())
    print()
    fractions = result.energy.fractions()
    print(
        "energy breakdown: "
        f"compute {fractions['compute']:.1%}, buffers {fractions['buffers']:.1%}, "
        f"DRAM {fractions['dram']:.1%}"
    )
    print(
        f"throughput: {result.throughput_inferences_per_s:,.0f} inferences/s at batch "
        f"{result.batch_size}, {result.effective_throughput_gops:,.0f} GOPS delivered"
    )
    print()

    # 5. Bit-exactness: a small 2-bit fully-connected layer executed through
    #    the BitBrick decomposition matches NumPy exactly.
    rng = np.random.default_rng(7)
    inputs = random_operands(rng, (64,), bits=2)
    weights = random_operands(rng, (16, 64), bits=2)
    fused = fused_matmul(weights, inputs, weight_bits=2, input_bits=2)
    error = int(np.max(np.abs(fused - weights @ inputs)))
    print(f"bit-exact check on a 2-bit FC layer: matches={error == 0}, max |error|={error}")
    return 0 if error == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
