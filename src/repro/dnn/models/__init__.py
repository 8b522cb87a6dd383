"""The eight benchmark DNNs of the Bit Fusion evaluation (Table II).

Each model module builds a :class:`~repro.dnn.network.Network` whose layer
shapes and per-layer operand bitwidths follow the quantized models the paper
takes from the deep-learning literature (Section V-A, Figure 1):

=============  =====  ======================  ==================  ============
Benchmark      Type   Domain                  Dominant bitwidth   Quantization
=============  =====  ======================  ==================  ============
AlexNet        CNN    ImageNet classification 4-bit/1-bit         WRPN 2× wide
Cifar-10       CNN    object recognition      1-bit/1-bit         QNN
LSTM           RNN    language modelling      4-bit/4-bit         QNN
LeNet-5        CNN    character recognition   2-bit/2-bit         TWN ternary
ResNet-18      CNN    ImageNet classification 2-bit/2-bit         WRPN wide
RNN            RNN    language modelling      4-bit/4-bit         QNN
SVHN           CNN    character recognition   1-bit/1-bit         QNN
VGG-7          CNN    object recognition      2-bit/2-bit         TWN ternary
=============  =====  ======================  ==================  ============

Because no public quantized checkpoints ship with this reproduction, the
models carry *shapes and bitwidths only*; the simulator needs nothing else,
and functional tests materialize random tensors at the declared bitwidths.

``AlexNet`` and ``ResNet-18`` additionally have *regular* (non-widened)
variants used for the Eyeriss and GPU baselines, matching the paper's
methodology ("We use the regular AlexNet and ResNet-18 models for Eyeriss
and the GPU baselines, and use their 2× wide quantized models for Bit Fusion
and Stripes").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.dnn.models.alexnet import build_alexnet
from repro.dnn.models.cifar10 import build_cifar10
from repro.dnn.models.lenet5 import build_lenet5
from repro.dnn.models.lstm import build_lstm
from repro.dnn.models.resnet18 import build_resnet18
from repro.dnn.models.rnn import build_rnn
from repro.dnn.models.svhn import build_svhn
from repro.dnn.models.vgg7 import build_vgg7
from repro.dnn.network import Network

__all__ = [
    "BenchmarkInfo",
    "BENCHMARKS",
    "benchmark_names",
    "canonical_name",
    "load",
    "load_baseline_variant",
    "build_alexnet",
    "build_cifar10",
    "build_lenet5",
    "build_lstm",
    "build_resnet18",
    "build_rnn",
    "build_svhn",
    "build_vgg7",
]


@dataclass(frozen=True)
class BenchmarkInfo:
    """Registry entry for one benchmark DNN.

    Attributes
    ----------
    name:
        Canonical benchmark name as used in the paper's figures.
    kind:
        ``"CNN"`` or ``"RNN"``.
    domain:
        Application domain (Table II).
    dataset:
        Dataset of the original model (Table II); informational only.
    build:
        Factory producing the quantized network evaluated on Bit Fusion.
    build_baseline:
        Factory producing the variant evaluated on Eyeriss / the GPUs.  For
        most benchmarks this is the same network; AlexNet and ResNet-18 use
        their regular (non-widened) topologies.
    """

    name: str
    kind: str
    domain: str
    dataset: str
    build: Callable[[], Network]
    build_baseline: Callable[[], Network]


BENCHMARKS: dict[str, BenchmarkInfo] = {
    "AlexNet": BenchmarkInfo(
        name="AlexNet",
        kind="CNN",
        domain="Image Classification",
        dataset="ImageNet",
        build=lambda: build_alexnet(wide=True),
        build_baseline=lambda: build_alexnet(wide=False),
    ),
    "Cifar-10": BenchmarkInfo(
        name="Cifar-10",
        kind="CNN",
        domain="Object Recognition",
        dataset="CIFAR-10",
        build=build_cifar10,
        build_baseline=build_cifar10,
    ),
    "LSTM": BenchmarkInfo(
        name="LSTM",
        kind="RNN",
        domain="Language Modeling",
        dataset="Penn TreeBank",
        build=build_lstm,
        build_baseline=build_lstm,
    ),
    "LeNet-5": BenchmarkInfo(
        name="LeNet-5",
        kind="CNN",
        domain="Optical Character Recognition",
        dataset="MNIST",
        build=build_lenet5,
        build_baseline=build_lenet5,
    ),
    "ResNet-18": BenchmarkInfo(
        name="ResNet-18",
        kind="CNN",
        domain="Image Classification",
        dataset="ImageNet",
        build=lambda: build_resnet18(wide=True),
        build_baseline=lambda: build_resnet18(wide=False),
    ),
    "RNN": BenchmarkInfo(
        name="RNN",
        kind="RNN",
        domain="Language Modeling",
        dataset="Penn TreeBank",
        build=build_rnn,
        build_baseline=build_rnn,
    ),
    "SVHN": BenchmarkInfo(
        name="SVHN",
        kind="CNN",
        domain="Optical Character Recognition",
        dataset="SVHN",
        build=build_svhn,
        build_baseline=build_svhn,
    ),
    "VGG-7": BenchmarkInfo(
        name="VGG-7",
        kind="CNN",
        domain="Object Recognition",
        dataset="CIFAR-10",
        build=build_vgg7,
        build_baseline=build_vgg7,
    ),
}


def benchmark_names() -> list[str]:
    """Canonical names of the eight benchmarks, in the paper's ordering."""
    return list(BENCHMARKS.keys())


def _lookup(name: str) -> BenchmarkInfo:
    if name in BENCHMARKS:
        return BENCHMARKS[name]
    # Accept case/punctuation-insensitive aliases such as "alexnet" or "cifar10".
    folded = name.replace("-", "").replace("_", "").lower()
    for info in BENCHMARKS.values():
        if info.name.replace("-", "").lower() == folded:
            return info
    raise KeyError(
        f"unknown benchmark {name!r}; available: {', '.join(benchmark_names())}"
    )


def canonical_name(name: str) -> str:
    """Resolve a benchmark name or alias to its canonical paper name.

    Accepts the same case/punctuation-insensitive aliases as :func:`load`
    (e.g. ``"alexnet"`` or ``"cifar10"``) and raises ``KeyError`` for
    unknown names.
    """
    return _lookup(name).name


def load(name: str) -> Network:
    """Build the quantized benchmark network evaluated on Bit Fusion."""
    return _lookup(name).build()


def load_baseline_variant(name: str) -> Network:
    """Build the model variant evaluated on Eyeriss and the GPUs.

    AlexNet and ResNet-18 return their regular (non-widened) topologies;
    every other benchmark returns the same network as :func:`load`.
    """
    return _lookup(name).build_baseline()
