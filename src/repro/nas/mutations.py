"""Mutation operators over the width / depth / bit-width axes of a network.

Candidate generators for the NAS search loop (:mod:`repro.nas.search`).
Every operator takes a :class:`~repro.dnn.network.Network` and a seeded
``random.Random`` and returns a *new* network (inputs are never mutated), or
``None`` when the operator does not apply to the layer it drew (the caller
draws again).  The axes mirror the knobs a hardware-aware search actually
explores on Bit Fusion:

* **bits** — re-quantize one compute layer to a different
  ``(input_bits, weight_bits)`` pair.  This is the axis the accelerator
  exists for: the fusion configuration, and hence cycles and energy, follow
  the operand widths (paper Figure 1 / Section III).
* **width** — scale one compute layer's output dimension (conv channels, FC
  features, recurrent hidden size) and patch the next compute layer's input
  dimension — plus any pooling/activation layers in between — so the chain
  stays shape-consistent.
* **depth** — duplicate a compute layer (the copy's input geometry is the
  original's output geometry, so it slots in consistently) or remove one.
* **kernel** — resize one convolution's kernel within 3↔5↔7, patching its
  padding by ``(new - old) // 2`` so the output spatial dims are exactly
  preserved — nothing downstream needs re-shaping.

Candidate networks are named by the *content* of their layer list
(``base/nas-<digest>``): two mutation paths that land on the same
architecture produce fingerprint-identical networks, so the search archive
and the estimator's in-batch dedupe collapse them — and the
content-addressed layer cache dedupes everything else, because layer
fingerprints are name-free.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Callable, Sequence

from repro.dnn.layers import (
    ActivationLayer,
    ConvLayer,
    FCLayer,
    Layer,
    LSTMLayer,
    PoolLayer,
    RNNLayer,
    layer_to_dict,
)
from repro.dnn.network import Network
from repro.fingerprint import fingerprint_payload

__all__ = [
    "MUTATION_AXES",
    "mutate",
    "mutate_bits",
    "mutate_depth",
    "mutate_kernel",
    "mutate_width",
]

#: Bit-width choices for the bits axis.  BitBricks are 2-bit, so fused
#: execution covers 2/4/8/16; the paper's networks live in this set.
_BIT_CHOICES = (2, 4, 8, 16)

#: Width scale factors; chosen so channel/feature counts stay integral for
#: the power-of-two-heavy shapes the zoo uses.
_WIDTH_FACTORS = (0.5, 0.75, 1.5, 2.0)

#: Kernel sizes the kernel axis moves between.  Odd sizes only: the padding
#: patch ``(new - old) // 2`` is exact for odd↔odd transitions, which is
#: what keeps the output spatial dims bit-identical.
_KERNEL_CHOICES = (3, 5, 7)


def _base_name(name: str) -> str:
    """Strip a previous candidate suffix so names do not nest."""
    return name.split("/nas-", 1)[0]


def candidate_name(base: str, layers: Sequence[Layer]) -> str:
    """Deterministic content-derived candidate name.

    Derived from the layer list alone, so any two candidates with identical
    architectures share a name — and therefore a network fingerprint and a
    program-cache entry — no matter which mutation path produced them.
    """
    digest = fingerprint_payload({"layers": [layer_to_dict(layer) for layer in layers]})
    return f"{_base_name(base)}/nas-{digest[:12]}"


def _build(base: Network, layers: Sequence[Layer]) -> Network:
    return Network(candidate_name(base.name, layers), layers)


def _compute_indices(layers: Sequence[Layer]) -> list[int]:
    return [index for index, layer in enumerate(layers) if layer.has_gemm()]


def mutate_bits(network: Network, rng: random.Random) -> Network | None:
    """Re-quantize one compute layer to a different operand-bitwidth pair."""
    layers = list(network)
    compute = _compute_indices(layers)
    if not compute:
        return None
    index = rng.choice(compute)
    layer = layers[index]
    choices = [
        (input_bits, weight_bits)
        for input_bits in _BIT_CHOICES
        for weight_bits in _BIT_CHOICES
        if (input_bits, weight_bits) != (layer.input_bits, layer.weight_bits)
    ]
    input_bits, weight_bits = rng.choice(choices)
    layers[index] = replace(layer, input_bits=input_bits, weight_bits=weight_bits)
    return _build(network, layers)


def _scaled(value: int, factor: float) -> int:
    return max(1, int(round(value * factor)))


def _patch_interstitials(
    layers: list[Layer], start: int, stop: int, old_channels: int, new_channels: int
) -> None:
    """Rescale pool/activation layers between two mutated compute layers."""
    for index in range(start + 1, stop):
        layer = layers[index]
        if isinstance(layer, PoolLayer) and layer.channels == old_channels:
            layers[index] = replace(layer, channels=new_channels)
        elif isinstance(layer, ActivationLayer) and layer.elements % old_channels == 0:
            layers[index] = replace(
                layer, elements=layer.elements // old_channels * new_channels
            )


def mutate_width(network: Network, rng: random.Random) -> Network | None:
    """Scale one compute layer's output dimension; patch the next layer's input.

    Applies to conv→conv (channels), FC→FC / FC-last (features) and
    recurrent layers (hidden size, when not feeding another compute layer);
    grouped convolutions are skipped (channel scaling would break the group
    divisibility constraint).  Returns ``None`` when the drawn layer has no
    consistently-patchable successor.
    """
    layers = list(network)
    compute = _compute_indices(layers)
    if not compute:
        return None
    index = rng.choice(compute)
    position = compute.index(index)
    successor = compute[position + 1] if position + 1 < len(compute) else None
    layer = layers[index]
    factor = rng.choice(_WIDTH_FACTORS)

    if isinstance(layer, ConvLayer):
        if layer.groups != 1:
            return None
        next_layer = layers[successor] if successor is not None else None
        if next_layer is not None and not (
            isinstance(next_layer, ConvLayer) and next_layer.groups == 1
        ):
            return None  # conv feeding FC/recurrent: input patch is non-local
        new_channels = _scaled(layer.out_channels, factor)
        if new_channels == layer.out_channels:
            return None
        layers[index] = replace(layer, out_channels=new_channels)
        if successor is not None:
            _patch_interstitials(
                layers, index, successor, layer.out_channels, new_channels
            )
            layers[successor] = replace(next_layer, in_channels=new_channels)
        else:
            _patch_interstitials(
                layers, index, len(layers), layer.out_channels, new_channels
            )
        return _build(network, layers)

    if isinstance(layer, FCLayer):
        next_layer = layers[successor] if successor is not None else None
        if next_layer is not None and not isinstance(next_layer, FCLayer):
            return None
        new_features = _scaled(layer.out_features, factor)
        if new_features == layer.out_features:
            return None
        layers[index] = replace(layer, out_features=new_features)
        if next_layer is not None:
            layers[successor] = replace(next_layer, in_features=new_features)
        return _build(network, layers)

    if isinstance(layer, (LSTMLayer, RNNLayer)):
        if successor is not None:
            return None  # recurrent stacks: hidden-size chains are non-local
        new_hidden = _scaled(layer.hidden_size, factor)
        if new_hidden == layer.hidden_size:
            return None
        layers[index] = replace(layer, hidden_size=new_hidden)
        return _build(network, layers)

    return None


def _duplicate_layer(layer: Layer, name: str) -> Layer | None:
    """A copy of ``layer`` whose input geometry is ``layer``'s output geometry."""
    if isinstance(layer, ConvLayer):
        kernel = layer.kernel if layer.kernel <= min(layer.out_height, layer.out_width) else 1
        return ConvLayer(
            name=name,
            input_bits=layer.input_bits,
            weight_bits=layer.weight_bits,
            output_bits=layer.output_bits,
            in_channels=layer.out_channels,
            out_channels=layer.out_channels,
            in_height=layer.out_height,
            in_width=layer.out_width,
            kernel=kernel,
            stride=1,
            padding=kernel // 2,
            groups=1,
        )
    if isinstance(layer, FCLayer):
        return replace(layer, name=name, in_features=layer.out_features)
    if isinstance(layer, (LSTMLayer, RNNLayer)):
        return replace(layer, name=name, input_size=layer.hidden_size)
    return None


def _unique_name(base: str, taken: set[str]) -> str:
    counter = 1
    name = f"{base}~dup"
    while name in taken:
        counter += 1
        name = f"{base}~dup{counter}"
    return name


def mutate_depth(network: Network, rng: random.Random) -> Network | None:
    """Duplicate one compute layer in place, or remove one.

    Removal needs at least two compute layers (a network must keep a GEMM);
    a duplicated layer is inserted directly after its original with input
    geometry equal to the original's output geometry.
    """
    layers = list(network)
    compute = _compute_indices(layers)
    if not compute:
        return None
    if len(compute) >= 2 and rng.random() < 0.5:
        del layers[rng.choice(compute)]
        return _build(network, layers)
    index = rng.choice(compute)
    taken = {layer.name for layer in layers}
    duplicate = _duplicate_layer(layers[index], _unique_name(layers[index].name, taken))
    if duplicate is None:
        return None
    layers.insert(index + 1, duplicate)
    return _build(network, layers)


def mutate_kernel(network: Network, rng: random.Random) -> Network | None:
    """Resize one convolution's kernel within 3↔5↔7, preserving output dims.

    The padding is patched by ``(new_kernel - kernel) // 2`` — exact for
    odd↔odd kernel transitions — so ``out = (in + 2p - k) // s + 1`` is
    unchanged and no downstream layer needs re-shaping.  Returns ``None``
    when the drawn layer is not a convolution, the patched padding would go
    negative, or the new kernel would not fit the padded input.
    """
    layers = list(network)
    conv = [
        index for index, layer in enumerate(layers) if isinstance(layer, ConvLayer)
    ]
    if not conv:
        return None
    index = rng.choice(conv)
    layer = layers[index]
    choices = [size for size in _KERNEL_CHOICES if size != layer.kernel]
    if not choices:
        return None
    new_kernel = rng.choice(choices)
    new_padding = layer.padding + (new_kernel - layer.kernel) // 2
    if new_padding < 0:
        return None
    if new_kernel > layer.in_height + 2 * new_padding:
        return None
    if new_kernel > layer.in_width + 2 * new_padding:
        return None
    layers[index] = replace(layer, kernel=new_kernel, padding=new_padding)
    return _build(network, layers)


MUTATION_AXES: dict[str, Callable[[Network, random.Random], Network | None]] = {
    "bits": mutate_bits,
    "depth": mutate_depth,
    "kernel": mutate_kernel,
    "width": mutate_width,
}


def mutate(
    network: Network,
    rng: random.Random,
    axes: Sequence[str] = ("width", "depth", "bits"),
    attempts: int = 8,
) -> Network:
    """One random mutation of ``network`` along the enabled axes.

    Draws an axis and applies its operator, retrying (fresh axis, fresh
    layer) when the operator does not apply; after ``attempts`` failures the
    input network is returned unchanged (the search's fingerprint dedupe
    absorbs it).  Unknown axis names raise.
    """
    unknown = [axis for axis in axes if axis not in MUTATION_AXES]
    if unknown:
        raise ValueError(f"unknown mutation axes {unknown}; available: {sorted(MUTATION_AXES)}")
    if not axes:
        raise ValueError("at least one mutation axis is required")
    for _ in range(attempts):
        operator = MUTATION_AXES[rng.choice(list(axes))]
        candidate = operator(network, rng)
        if candidate is not None:
            return candidate
    return network
