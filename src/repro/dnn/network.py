"""Network container: an ordered list of layers plus aggregate statistics.

A :class:`Network` is the unit the compiler consumes (one instruction block
per layer) and the experiment harness reports on.  It exposes the aggregate
quantities the paper's Table II and Figure 1 use: total multiply-adds,
weight footprint, and the distribution of multiply-adds / weights over
operand-bitwidth combinations.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.dnn.layers import Layer, layer_json
from repro.fingerprint import fingerprint_text, spliced_json

__all__ = ["Network", "BitwidthProfile"]


@dataclass(frozen=True)
class BitwidthProfile:
    """Distribution of work and storage over operand-bitwidth pairs.

    ``mac_fraction`` maps ``(input_bits, weight_bits)`` to the fraction of
    the network's multiply-adds executed at that precision (Figure 1(a));
    ``weight_fraction`` maps ``weight_bits`` to the fraction of weights
    stored at that precision (Figure 1(b)).
    """

    mac_fraction: dict[tuple[int, int], float] = field(default_factory=dict)
    weight_fraction: dict[int, float] = field(default_factory=dict)

    def macs_at_or_below(self, bits: int) -> float:
        """Fraction of multiply-adds whose *both* operands are <= ``bits`` wide."""
        return sum(
            fraction
            for (ib, wb), fraction in self.mac_fraction.items()
            if ib <= bits and wb <= bits
        )


class Network:
    """An ordered, named collection of layers."""

    def __init__(self, name: str, layers: Iterable[Layer] = ()) -> None:
        if not name:
            raise ValueError("network name must be non-empty")
        self.name = name
        self._layers: "OrderedDict[str, Layer]" = OrderedDict()
        self._fingerprint: str | None = None
        for layer in layers:
            self.add(layer)

    # ------------------------------------------------------------------ #
    # Construction / container protocol
    # ------------------------------------------------------------------ #
    def add(self, layer: Layer) -> "Network":
        """Append a layer; layer names must be unique within the network."""
        if layer.name in self._layers:
            raise ValueError(
                f"duplicate layer name {layer.name!r} in network {self.name!r}"
            )
        self._layers[layer.name] = layer
        self._fingerprint = None
        return self

    @property
    def layers(self) -> list[Layer]:
        return list(self._layers.values())

    def __iter__(self) -> Iterator[Layer]:
        return iter(self._layers.values())

    def __len__(self) -> int:
        return len(self._layers)

    def __getitem__(self, name: str) -> Layer:
        return self._layers[name]

    # ------------------------------------------------------------------ #
    # Aggregate statistics (Table II / Figure 1)
    # ------------------------------------------------------------------ #
    def compute_layers(self) -> list[Layer]:
        """Layers that lower to GEMMs (convolution, FC, recurrent)."""
        return [layer for layer in self if layer.has_gemm()]

    def total_macs(self) -> int:
        """Multiply-accumulates per input sample."""
        return sum(layer.macs() for layer in self.compute_layers())

    def total_operations(self) -> int:
        """All operations: MACs plus pooling comparisons and activations."""
        total = self.total_macs()
        for layer in self:
            if layer.has_gemm():
                continue
            comparisons = getattr(layer, "comparisons", None)
            if callable(comparisons):
                total += comparisons()
            else:
                total += layer.output_elements()
        return total

    def mac_fraction(self) -> float:
        """Fraction of all operations that are multiply-adds (Figure 1 table)."""
        ops = self.total_operations()
        if ops == 0:
            return 0.0
        return self.total_macs() / ops

    def total_weight_count(self) -> int:
        return sum(layer.weight_count() for layer in self)

    def total_weight_bytes(self) -> float:
        """Model size in bytes at each layer's encoded weight bitwidth."""
        return sum(layer.weight_bits_total() for layer in self) / 8.0

    def bitwidth_profile(self) -> BitwidthProfile:
        """Distribution of MACs and weights over bitwidths (Figure 1)."""
        mac_hist: dict[tuple[int, int], float] = {}
        weight_hist: dict[int, float] = {}
        total_macs = self.total_macs()
        total_weights = self.total_weight_count()

        for layer in self.compute_layers():
            key = (layer.input_bits, layer.weight_bits)
            mac_hist[key] = mac_hist.get(key, 0.0) + layer.macs()
        for layer in self:
            if layer.weight_count():
                weight_hist[layer.weight_bits] = (
                    weight_hist.get(layer.weight_bits, 0.0) + layer.weight_count()
                )

        if total_macs:
            mac_hist = {k: v / total_macs for k, v in mac_hist.items()}
        if total_weights:
            weight_hist = {k: v / total_weights for k, v in weight_hist.items()}
        return BitwidthProfile(mac_fraction=mac_hist, weight_fraction=weight_hist)

    def fingerprint(self) -> str:
        """Deterministic content hash of the network structure.

        The digest of ``{"name": ..., "layers": [layer_to_dict(layer),
        ...]}``: the network name plus every layer's concrete type and
        field values, so two structurally identical networks fingerprint
        the same in any process while any shape or bitwidth change
        invalidates cached simulation results keyed on the digest.  Spliced
        from each layer's memoized :func:`~repro.dnn.layers.layer_json`.

        Memoized (and invalidated by :meth:`add`): warm-cache estimator
        lookups are dominated by this hash, so repeated pricing of the same
        candidate must not re-serialize the layer list.
        """
        if self._fingerprint is None:
            self._fingerprint = fingerprint_text(
                spliced_json({"name": self.name}, layers=[layer_json(layer) for layer in self])
            )
        return self._fingerprint

    def summary(self) -> str:
        """Human-readable per-layer summary table."""
        lines = [f"Network {self.name}: {len(self)} layers"]
        header = f"{'layer':24s} {'kind':10s} {'MACs':>14s} {'weights':>12s} {'in/wt bits':>10s}"
        lines.append(header)
        lines.append("-" * len(header))
        for layer in self:
            macs = layer.macs() if layer.has_gemm() else 0
            lines.append(
                f"{layer.name:24s} {layer.kind:10s} {macs:14,d} "
                f"{layer.weight_count():12,d} {layer.input_bits:>4d}/{layer.weight_bits:<4d}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"{'total':24s} {'':10s} {self.total_macs():14,d} "
            f"{self.total_weight_count():12,d}"
        )
        return "\n".join(lines)
