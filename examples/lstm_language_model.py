#!/usr/bin/env python3
"""Recurrent workloads on Bit Fusion: the Penn TreeBank LSTM benchmark.

Recurrent networks stress a different part of the design than CNNs: their
fully-connected gate GEMMs have no spatial weight reuse, so performance is
bounded by off-chip bandwidth unless batching amortizes the weight traffic.
This example

1. runs the quantized LSTM language model across batch sizes 1-256 and
   reproduces the >20x batching gain of Figure 16,
2. sweeps the off-chip bandwidth at the default batch to reproduce the
   near-linear scaling of Figure 15,
3. runs one functional LSTM step (integer gate GEMM through the BitBrick
   fabric, float nonlinearities on the host) to show end-to-end use of the
   functional API on a recurrent cell.

Run with::

    python examples/lstm_language_model.py
"""

from __future__ import annotations

import numpy as np

from repro import BitFusionAccelerator, BitFusionConfig
from repro.core.bitbrick import fused_matmul, random_operands
from repro.dnn import models


def batching_sweep() -> None:
    network = models.load("LSTM")
    print("LSTM per-inference latency vs batch size (Figure 16 behaviour)")
    baseline = None
    accelerator = BitFusionAccelerator(BitFusionConfig.eyeriss_matched())
    for batch in (1, 4, 16, 64, 256):
        result = accelerator.run(network, batch_size=batch)
        latency_us = result.latency_per_inference_s * 1e6
        if baseline is None:
            baseline = latency_us
        bound = "memory-bound" if result.memory_cycles > result.compute_cycles else "compute-bound"
        print(
            f"  batch {batch:>3d}: {latency_us:8.1f} us/inference "
            f"({baseline / latency_us:5.2f}x vs batch 1, {bound})"
        )
    print()


def bandwidth_sweep() -> None:
    network = models.load("LSTM")
    print("LSTM throughput vs off-chip bandwidth at batch 16 (Figure 15 behaviour)")
    for bandwidth in (32, 64, 128, 256, 512):
        config = BitFusionConfig.eyeriss_matched(bandwidth_bits_per_cycle=bandwidth)
        result = BitFusionAccelerator(config).run(network, batch_size=16)
        print(
            f"  {bandwidth:>3d} bits/cycle: {result.throughput_inferences_per_s:10,.0f} inferences/s"
        )
    print()


def sigmoid(values: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-values))


def functional_step() -> None:
    print("one functional LSTM step through the quantized gate GEMM")
    hidden_size = 64
    rng = np.random.default_rng(3)
    inputs = random_operands(rng, (hidden_size,), bits=4)
    hidden = random_operands(rng, (hidden_size,), bits=4)
    weights = random_operands(rng, (4 * hidden_size, 2 * hidden_size), bits=4)
    cell = np.zeros(hidden_size)
    # The four gate pre-activations are one 4-bit GEMM on the fabric; the
    # host dequantizes them and applies the nonlinearities.
    concat = np.concatenate([inputs, hidden])
    gates = fused_matmul(weights, concat, weight_bits=4, input_bits=4) * (1.0 / 128.0)
    i_gate, f_gate, g_gate, o_gate = np.split(gates, 4)
    new_cell = sigmoid(f_gate) * cell + sigmoid(i_gate) * np.tanh(g_gate)
    new_hidden = sigmoid(o_gate) * np.tanh(new_cell)
    print(f"  hidden state norm after one step : {np.linalg.norm(new_hidden):.3f}")
    print(f"  cell state norm after one step   : {np.linalg.norm(new_cell):.3f}")
    print(f"  hidden state range               : [{new_hidden.min():.3f}, {new_hidden.max():.3f}]")


def main() -> None:
    batching_sweep()
    bandwidth_sweep()
    functional_step()


if __name__ == "__main__":
    main()
