"""Published numbers from the paper's evaluation, for side-by-side reporting.

The report runner (``python -m repro.harness``) prints each reproduced
table/figure next to the numbers the paper reports, so paper-vs-measured
reads at a glance.  Everything here is transcribed from the paper (figures 1 and
13-18, tables II and III, and the embedded data tables in the arXiv
source); nothing in the simulator reads these values.
"""

from __future__ import annotations

__all__ = [
    "BENCHMARK_ORDER",
    "TABLE2_MACS_MOPS",
    "TABLE2_WEIGHTS_MB",
    "FIG1_DOMINANT_BITWIDTHS",
    "FIG13_SPEEDUP_OVER_EYERISS",
    "FIG13_ENERGY_REDUCTION_OVER_EYERISS",
    "FIG13_GEOMEAN",
    "FIG13_ALEXNET_PER_LAYER",
    "FIG14_BITFUSION_FRACTIONS",
    "FIG14_EYERISS_FRACTIONS",
    "FIG15_BANDWIDTH_SPEEDUP",
    "FIG16_BATCH_SPEEDUP",
    "FIG17_SPEEDUP_OVER_TX2",
    "FIG18_SPEEDUP_OVER_STRIPES",
    "FIG18_ENERGY_REDUCTION_OVER_STRIPES",
    "FIG18_GEOMEAN",
    "FIG10_FUSION_VS_TEMPORAL",
    "ISA_BLOCK_INSTRUCTION_RANGE",
]

#: Benchmark ordering used across all of the paper's figures.
BENCHMARK_ORDER = (
    "AlexNet",
    "Cifar-10",
    "LSTM",
    "LeNet-5",
    "ResNet-18",
    "RNN",
    "SVHN",
    "VGG-7",
)

#: Table II: multiply-add operations per inference (millions).
TABLE2_MACS_MOPS = {
    "AlexNet": 2678,
    "Cifar-10": 617,
    "LSTM": 13,
    "LeNet-5": 16,
    "ResNet-18": 4269,
    "RNN": 17,
    "SVHN": 158,
    "VGG-7": 317,
}

#: Table II: model weights (megabytes, as published).
TABLE2_WEIGHTS_MB = {
    "AlexNet": 116.3,
    "Cifar-10": 3.3,
    "LSTM": 6.2,
    "LeNet-5": 0.5,
    "ResNet-18": 13.0,
    "RNN": 8.0,
    "SVHN": 0.8,
    "VGG-7": 2.7,
}

#: Figure 1(a): the (input, weight) bitwidth pair carrying most multiply-adds.
FIG1_DOMINANT_BITWIDTHS = {
    "AlexNet": (4, 1),
    "Cifar-10": (1, 1),
    "LSTM": (4, 4),
    "LeNet-5": (2, 2),
    "ResNet-18": (2, 2),
    "RNN": (4, 4),
    "SVHN": (1, 1),
    "VGG-7": (2, 2),
}

#: Figure 13: Bit Fusion speedup over Eyeriss (same area, frequency, 45 nm).
FIG13_SPEEDUP_OVER_EYERISS = {
    "AlexNet": 1.9,
    "Cifar-10": 13.0,
    "LSTM": 2.4,
    "LeNet-5": 2.7,
    "ResNet-18": 1.9,
    "RNN": 2.7,
    "SVHN": 8.6,
    "VGG-7": 7.7,
}

#: Figure 13: Bit Fusion energy reduction over Eyeriss.
FIG13_ENERGY_REDUCTION_OVER_EYERISS = {
    "AlexNet": 1.5,
    "Cifar-10": 14.0,
    "LSTM": 4.8,
    "LeNet-5": 4.3,
    "ResNet-18": 1.9,
    "RNN": 5.1,
    "SVHN": 10.0,
    "VGG-7": 9.9,
}

#: Figure 13 geometric means: (speedup, energy reduction).
FIG13_GEOMEAN = (3.9, 5.1)

#: Embedded per-layer AlexNet data accompanying Figure 13:
#: layer group -> (speedup over Eyeriss, energy reduction over Eyeriss).
FIG13_ALEXNET_PER_LAYER = {
    "conv 8/8-bit": (1.67, 6.50),
    "conv 4/1-bit": (6.39, 16.84),
    "fc 4/1-bit": (3.31, 30.74),
    "fc 8/8-bit": (1.01, 10.29),
}

#: Figure 14: Bit Fusion energy fractions (compute, buffers, register file, DRAM).
FIG14_BITFUSION_FRACTIONS = {
    "AlexNet": (0.111, 0.211, 0.0, 0.678),
    "Cifar-10": (0.089, 0.172, 0.0, 0.738),
    "LSTM": (0.093, 0.233, 0.0, 0.675),
    "LeNet-5": (0.113, 0.134, 0.0, 0.754),
    "ResNet-18": (0.079, 0.199, 0.0, 0.722),
    "RNN": (0.067, 0.191, 0.0, 0.742),
    "SVHN": (0.097, 0.233, 0.0, 0.670),
    "VGG-7": (0.094, 0.248, 0.0, 0.658),
}

#: Figure 14: Eyeriss energy fractions (compute, buffers, register file, DRAM).
FIG14_EYERISS_FRACTIONS = {
    "AlexNet": (0.156, 0.011, 0.559, 0.274),
    "Cifar-10": (0.163, 0.009, 0.577, 0.251),
    "LSTM": (0.171, 0.007, 0.616, 0.206),
    "LeNet-5": (0.136, 0.015, 0.461, 0.388),
    "ResNet-18": (0.165, 0.010, 0.566, 0.259),
    "RNN": (0.156, 0.008, 0.576, 0.260),
    "SVHN": (0.068, 0.021, 0.219, 0.692),
    "VGG-7": (0.069, 0.029, 0.218, 0.684),
}

#: Figure 15: speedup relative to the default 128 bits/cycle, keyed by
#: benchmark then bandwidth (bits/cycle).
FIG15_BANDWIDTH_SPEEDUP = {
    "AlexNet": {32: 0.27, 64: 0.55, 128: 1.00, 256: 1.66, 512: 2.22},
    "Cifar-10": {32: 0.25, 64: 0.50, 128: 1.00, 256: 2.00, 512: 2.46},
    "LSTM": {32: 0.25, 64: 0.50, 128: 1.00, 256: 2.00, 512: 4.00},
    "LeNet-5": {32: 0.26, 64: 0.53, 128: 1.00, 256: 1.67, 512: 2.50},
    "ResNet-18": {32: 0.25, 64: 0.50, 128: 1.00, 256: 2.00, 512: 2.87},
    "RNN": {32: 0.25, 64: 0.50, 128: 1.00, 256: 2.00, 512: 4.00},
    "SVHN": {32: 0.25, 64: 0.50, 128: 1.00, 256: 1.96, 512: 2.56},
    "VGG-7": {32: 0.25, 64: 0.50, 128: 1.00, 256: 2.00, 512: 2.77},
}

#: Figure 16: speedup relative to batch size 1, keyed by benchmark then batch.
FIG16_BATCH_SPEEDUP = {
    "AlexNet": {1: 1.0, 4: 1.33, 16: 1.41, 64: 1.41, 256: 1.42},
    "Cifar-10": {1: 1.0, 4: 1.29, 16: 1.41, 64: 1.43, 256: 1.44},
    "LSTM": {1: 1.0, 4: 3.95, 16: 14.80, 64: 21.14, 256: 21.14},
    "LeNet-5": {1: 1.0, 4: 1.40, 16: 1.50, 64: 1.53, 256: 1.53},
    "ResNet-18": {1: 1.0, 4: 1.02, 16: 1.04, 64: 1.04, 256: 1.04},
    "RNN": {1: 1.0, 4: 3.95, 16: 15.12, 64: 21.41, 256: 21.42},
    "SVHN": {1: 1.0, 4: 1.18, 16: 1.24, 64: 1.24, 256: 1.25},
    "VGG-7": {1: 1.0, 4: 1.30, 16: 1.43, 64: 1.44, 256: 1.45},
}

#: Figure 17: speedup over the Tegra X2 FP32 baseline (per benchmark).
FIG17_SPEEDUP_OVER_TX2 = {
    "AlexNet": {"titanx-fp32": 12.0, "titanx-int8": 23.0, "bitfusion": 3.2},
    "Cifar-10": {"titanx-fp32": 13.0, "titanx-int8": 29.0, "bitfusion": 34.0},
    "LSTM": {"titanx-fp32": 6.4, "titanx-int8": 6.7, "bitfusion": 38.0},
    "LeNet-5": {"titanx-fp32": 20.0, "titanx-int8": 27.0, "bitfusion": 11.0},
    "ResNet-18": {"titanx-fp32": 13.0, "titanx-int8": 31.0, "bitfusion": 5.0},
    "RNN": {"titanx-fp32": 6.9, "titanx-int8": 7.2, "bitfusion": 39.0},
    "SVHN": {"titanx-fp32": 14.0, "titanx-int8": 21.0, "bitfusion": 14.0},
    "VGG-7": {"titanx-fp32": 14.0, "titanx-int8": 30.0, "bitfusion": 48.0},
    "geomean": {"titanx-fp32": 12.0, "titanx-int8": 19.0, "bitfusion": 16.0},
}

#: Figure 18: Bit Fusion speedup over Stripes.
FIG18_SPEEDUP_OVER_STRIPES = {
    "AlexNet": 1.8,
    "Cifar-10": 4.0,
    "LSTM": 2.1,
    "LeNet-5": 5.2,
    "ResNet-18": 2.6,
    "RNN": 2.0,
    "SVHN": 1.8,
    "VGG-7": 2.9,
}

#: Figure 18: Bit Fusion energy reduction over Stripes.
FIG18_ENERGY_REDUCTION_OVER_STRIPES = {
    "AlexNet": 2.7,
    "Cifar-10": 6.0,
    "LSTM": 3.1,
    "LeNet-5": 7.8,
    "ResNet-18": 4.4,
    "RNN": 3.0,
    "SVHN": 2.7,
    "VGG-7": 4.4,
}

#: Figure 18 geometric means: (speedup, energy reduction).
FIG18_GEOMEAN = (2.6, 3.9)

#: Figure 10: (area reduction, power reduction) of the hybrid Fusion Unit
#: over the temporal design at equal BitBrick count.
FIG10_FUSION_VS_TEMPORAL = (3.5, 3.2)

#: Section IV-A: instructions per block for the evaluated DNN layers.
ISA_BLOCK_INSTRUCTION_RANGE = (30, 86)
