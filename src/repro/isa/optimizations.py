"""Compiler code optimizations for the Fusion-ISA (Section IV-B).

The paper describes three optimizations the compiler applies when lowering
DNN layers to instruction blocks:

* **Loop ordering** — choose between output-, weight- and input-stationary
  dataflows to minimize off-chip (and on-chip) accesses for each layer.
* **Loop tiling** — partition the loops so each tile's data fits in the
  scratchpads.  Both are one search over (loop order, tile sizes),
  :func:`~repro.isa.tiling.search_tilings`; ties between orders break
  towards the earliest order considered.
* **Layer fusion** — when consecutive layers use mutually exclusive on-chip
  resources (the systolic array for convolution/FC, the per-column pooling
  and activation units for pooling/activation), merge them into one block so
  the intermediate tensor never travels to DRAM.

These passes are pure functions over layers and tiling plans so they can be
tested in isolation and ablated by the benchmark harness (the ablation
benches disable them one at a time).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dnn.layers import ActivationLayer, Layer, PoolLayer

__all__ = ["FusionDecision", "fuse_layers"]


@dataclass(frozen=True)
class FusionDecision:
    """Grouping of a network's layers into fusable execution groups.

    Each group starts with a compute (GEMM) layer and may absorb the
    pooling/activation layers that immediately follow it.  Layers that
    cannot be fused (e.g. a pooling layer with no preceding compute layer)
    form their own single-layer group.
    """

    groups: tuple[tuple[Layer, ...], ...]


def _is_fusable_follower(layer: Layer) -> bool:
    """Whether a layer can ride along in the preceding compute layer's block.

    Pooling and activation execute on the per-column units of the systolic
    array (Figure 3), which are idle while the array performs the preceding
    layer's GEMM — exactly the "mutually exclusive on-chip resources"
    condition of Section IV-B.
    """
    return isinstance(layer, (PoolLayer, ActivationLayer))


def fuse_layers(layers: list[Layer], enable: bool = True) -> FusionDecision:
    """Group layers for layer fusion.

    With ``enable=False`` every layer forms its own group, which is the
    configuration the ablation benchmarks use to quantify the benefit of
    fusion.
    """
    groups: list[tuple[Layer, ...]] = []
    current: list[Layer] = []
    for layer in layers:
        if enable and current and current[0].has_gemm() and _is_fusable_follower(layer):
            current.append(layer)
            continue
        if current:
            groups.append(tuple(current))
        current = [layer]
    if current:
        groups.append(tuple(current))
    return FusionDecision(groups=tuple(groups))
