"""Layer intermediate representation.

Every DNN the paper evaluates is, for the accelerator's purposes, a sequence
of layers that each lower to a GEMM (convolution via im2col, fully-connected
directly, recurrent layers as a gate GEMM repeated over timesteps) plus
lightweight pooling/activation stages handled by the per-column units of the
systolic array.

Each layer carries its own operand bitwidths — this is the property Bit
Fusion exploits (Figure 1): the compiler emits one instruction block per
layer, whose ``setup`` instruction fixes the fusion configuration for that
layer.

The layer classes expose

* ``macs()`` — multiply-accumulate count per input sample,
* ``weight_count()`` / ``weight_bits_total()`` — parameter footprint,
* ``input_elements()`` / ``output_elements()`` — activation footprints,
* ``gemm_shape()`` — the ``(M, N, repeats)`` GEMM the layer lowers to,
  where ``repeats`` counts spatial positions or timesteps per sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.core.fusion_unit import SUPPORTED_BITWIDTHS
from repro.fingerprint import memoized_json

__all__ = [
    "GemmShape",
    "Layer",
    "ConvLayer",
    "FCLayer",
    "PoolLayer",
    "ActivationLayer",
    "LSTMLayer",
    "RNNLayer",
    "layer_json",
    "layer_to_dict",
]


def _check_bits(bits: int, label: str) -> int:
    if bits not in SUPPORTED_BITWIDTHS:
        raise ValueError(f"{label} must be one of {SUPPORTED_BITWIDTHS}, got {bits}")
    return bits


def _check_positive(value: int, label: str) -> int:
    if value <= 0:
        raise ValueError(f"{label} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class GemmShape:
    """GEMM a layer lowers to: ``out[M, repeats] = W[M, N] @ x[N, repeats]``.

    ``repeats`` is the number of independent input vectors per sample
    (spatial output positions for a convolution, timesteps for a recurrent
    layer, 1 for a fully-connected layer).
    """

    m: int
    n: int
    repeats: int = 1

    @property
    def macs(self) -> int:
        return self.m * self.n * self.repeats


@dataclass(frozen=True)
class Layer:
    """Base class for all layers.

    Attributes
    ----------
    name:
        Layer identifier used in reports and per-layer results.
    input_bits, weight_bits, output_bits:
        Encoded operand bitwidths for this layer.  Layers without weights
        (pooling, activation) only use ``input_bits``/``output_bits``.
    """

    name: str
    input_bits: int = 8
    weight_bits: int = 8
    output_bits: int = 8

    def __post_init__(self) -> None:
        _check_bits(self.input_bits, "input_bits")
        _check_bits(self.weight_bits, "weight_bits")
        _check_bits(self.output_bits, "output_bits")

    # -- interface -------------------------------------------------------- #
    @property
    def kind(self) -> str:
        return type(self).__name__.replace("Layer", "").lower()

    def macs(self) -> int:
        """Multiply-accumulates per input sample."""
        return self.gemm_shape().macs if self.has_gemm() else 0

    def has_gemm(self) -> bool:
        return True

    def gemm_shape(self) -> GemmShape:
        raise NotImplementedError

    def weight_count(self) -> int:
        return 0

    def weight_bits_total(self) -> int:
        """Weight storage footprint in bits at the layer's encoded bitwidth."""
        return self.weight_count() * self.weight_bits

    def input_elements(self) -> int:
        raise NotImplementedError

    def output_elements(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class ConvLayer(Layer):
    """2-D convolution, lowered to GEMM via im2col.

    Geometry follows the usual convention: input is ``in_channels ×
    in_height × in_width``; the kernel is ``kernel × kernel``; ``stride``
    and ``padding`` apply symmetrically.
    """

    in_channels: int = 3
    out_channels: int = 64
    in_height: int = 224
    in_width: int = 224
    kernel: int = 3
    stride: int = 1
    padding: int = 1
    groups: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_positive(self.in_channels, "in_channels")
        _check_positive(self.out_channels, "out_channels")
        _check_positive(self.in_height, "in_height")
        _check_positive(self.in_width, "in_width")
        _check_positive(self.kernel, "kernel")
        _check_positive(self.stride, "stride")
        _check_positive(self.groups, "groups")
        if self.padding < 0:
            raise ValueError(f"padding must be non-negative, got {self.padding}")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ValueError(
                "in_channels and out_channels must be divisible by groups "
                f"(got {self.in_channels}, {self.out_channels}, groups={self.groups})"
            )
        if self.out_height <= 0 or self.out_width <= 0:
            raise ValueError(
                f"convolution {self.name!r} produces an empty output "
                f"({self.out_height}x{self.out_width})"
            )

    @property
    def out_height(self) -> int:
        return (self.in_height + 2 * self.padding - self.kernel) // self.stride + 1

    @property
    def out_width(self) -> int:
        return (self.in_width + 2 * self.padding - self.kernel) // self.stride + 1

    def gemm_shape(self) -> GemmShape:
        n = (self.in_channels // self.groups) * self.kernel * self.kernel
        return GemmShape(
            m=self.out_channels,
            n=n,
            repeats=self.out_height * self.out_width,
        )

    def weight_count(self) -> int:
        return (
            self.out_channels
            * (self.in_channels // self.groups)
            * self.kernel
            * self.kernel
        )

    def input_elements(self) -> int:
        return self.in_channels * self.in_height * self.in_width

    def output_elements(self) -> int:
        return self.out_channels * self.out_height * self.out_width


@dataclass(frozen=True)
class FCLayer(Layer):
    """Fully-connected (inner-product) layer."""

    in_features: int = 1024
    out_features: int = 1024

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_positive(self.in_features, "in_features")
        _check_positive(self.out_features, "out_features")

    def gemm_shape(self) -> GemmShape:
        return GemmShape(m=self.out_features, n=self.in_features, repeats=1)

    def weight_count(self) -> int:
        return self.in_features * self.out_features

    def input_elements(self) -> int:
        return self.in_features

    def output_elements(self) -> int:
        return self.out_features


@dataclass(frozen=True)
class PoolLayer(Layer):
    """Max/average pooling, executed by the per-column pooling units."""

    channels: int = 64
    in_height: int = 56
    in_width: int = 56
    kernel: int = 2
    stride: int = 2
    mode: str = "max"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_positive(self.channels, "channels")
        _check_positive(self.in_height, "in_height")
        _check_positive(self.in_width, "in_width")
        _check_positive(self.kernel, "kernel")
        _check_positive(self.stride, "stride")
        if self.mode not in ("max", "avg"):
            raise ValueError(f"pool mode must be 'max' or 'avg', got {self.mode!r}")

    @property
    def out_height(self) -> int:
        return (self.in_height - self.kernel) // self.stride + 1

    @property
    def out_width(self) -> int:
        return (self.in_width - self.kernel) // self.stride + 1

    def has_gemm(self) -> bool:
        return False

    def gemm_shape(self) -> GemmShape:  # pragma: no cover - guarded by has_gemm
        raise ValueError(f"pooling layer {self.name!r} does not lower to a GEMM")

    def comparisons(self) -> int:
        """Comparison/add operations performed by the pooling unit."""
        return self.output_elements() * (self.kernel * self.kernel - 1)

    def input_elements(self) -> int:
        return self.channels * self.in_height * self.in_width

    def output_elements(self) -> int:
        return self.channels * self.out_height * self.out_width


@dataclass(frozen=True)
class ActivationLayer(Layer):
    """Element-wise activation, executed by the per-column activation units."""

    elements: int = 4096
    function: str = "relu"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_positive(self.elements, "elements")
        if self.function not in ("relu", "sigmoid", "tanh"):
            raise ValueError(
                f"activation must be relu/sigmoid/tanh, got {self.function!r}"
            )

    def has_gemm(self) -> bool:
        return False

    def gemm_shape(self) -> GemmShape:  # pragma: no cover - guarded by has_gemm
        raise ValueError(f"activation layer {self.name!r} does not lower to a GEMM")

    def input_elements(self) -> int:
        return self.elements

    def output_elements(self) -> int:
        return self.elements


@dataclass(frozen=True)
class _RecurrentLayer(Layer):
    """Shared geometry for recurrent layers (gate GEMM repeated per timestep)."""

    input_size: int = 256
    hidden_size: int = 256
    timesteps: int = 1
    gates: int = field(default=1, init=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_positive(self.input_size, "input_size")
        _check_positive(self.hidden_size, "hidden_size")
        _check_positive(self.timesteps, "timesteps")

    def gemm_shape(self) -> GemmShape:
        return GemmShape(
            m=self.gates * self.hidden_size,
            n=self.input_size + self.hidden_size,
            repeats=self.timesteps,
        )

    def weight_count(self) -> int:
        return self.gates * self.hidden_size * (self.input_size + self.hidden_size)

    def input_elements(self) -> int:
        return self.timesteps * self.input_size

    def output_elements(self) -> int:
        return self.timesteps * self.hidden_size


@dataclass(frozen=True)
class LSTMLayer(_RecurrentLayer):
    """Long Short-Term Memory layer: four gate matrices per cell."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", 4)
        super().__post_init__()


@dataclass(frozen=True)
class RNNLayer(_RecurrentLayer):
    """Vanilla (Elman) recurrent layer: a single gate matrix."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", 1)
        super().__post_init__()


# ---------------------------------------------------------------------- #
# Serialization
# ---------------------------------------------------------------------- #
#: Field names of each layer class, in declaration order (filled on first use).
_FIELD_NAMES: dict[type[Layer], tuple[str, ...]] = {}


def layer_to_dict(layer: Layer) -> dict[str, object]:
    """JSON-compatible payload of a layer: a type tag plus every field value.

    Every layer field is an int or str, so the payload survives JSON
    unchanged.  Compiled :class:`~repro.isa.program.Program` payloads
    (which embed the layer each block implements) and :func:`layer_json`,
    the text network fingerprints splice, build on it.

    Equal to ``{"type": ..., **dataclasses.asdict(layer)}`` but built from a
    per-class tuple of field names: ``asdict`` recurses and deep-copies every
    leaf.
    """
    cls = type(layer)
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = _FIELD_NAMES[cls] = tuple(f.name for f in fields(cls))
    payload: dict[str, object] = {"type": cls.__name__}
    for name in names:
        payload[name] = getattr(layer, name)
    return payload


def layer_json(layer: Layer) -> str:
    """The canonical JSON of :func:`layer_to_dict`, memoized on the layer.

    Network fingerprints and NAS candidate names splice it.  Layers are
    frozen, and a NAS mutant shares every layer it did not change with its
    parent, so each layer serializes once however many candidates carry
    it.  The memo lives outside the dataclass fields, so equality, hashing
    and ``replace`` ignore it.
    """
    return memoized_json(layer, layer_to_dict)
