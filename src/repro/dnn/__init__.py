"""Quantized DNN substrate.

Bit Fusion's evaluation runs eight real-world quantized DNNs.  This package
provides the substrate those experiments need:

* :mod:`repro.dnn.layers` — the layer IR (convolution, fully-connected,
  pooling, activation, LSTM, vanilla RNN) with per-layer operand bitwidths
  and GEMM lowering.
* :mod:`repro.dnn.network` — a network is an ordered list of layers with
  aggregate statistics (MACs, weight footprint, bitwidth distribution).
* :mod:`repro.dnn.models` — the eight benchmark networks of Table II with
  the bitwidth assignments of Figure 1.

The package namespace re-exports nothing; import from the modules.
"""
