"""Fusion Unit: 16 BitBricks that fuse spatially into Fused-PEs.

A Fusion Unit (paper Figures 2 and 9) is a 4×4 physical grid of BitBricks.
At run time the bricks *logically* fuse into Fused Processing Engines
(Fused-PEs) that match the operand bitwidths of the current DNN layer:

====================  =====================  ======================
Configuration          BitBricks per F-PE     F-PEs per Fusion Unit
====================  =====================  ======================
2-bit × 2-bit          1                      16
2-bit × 4-bit          2                      8
4-bit × 4-bit          4                      4
2-bit × 8-bit          4                      4
4-bit × 8-bit          8                      2
8-bit × 8-bit          16                     1
====================  =====================  ======================

Spatial fusion covers operands up to 8 bits; 16-bit operands use the hybrid
spatio-temporal scheme of Section III-C — the unit runs in its 8-bit spatial
configuration and iterates over the 8-bit halves of the wide operand across
cycles (2 passes for 16×8, 4 passes for 16×16).

The :class:`FusionUnit` class is both a *functional* model (it really
multiplies and accumulates through per-brick 2-bit multiplies so the
arithmetic can be checked bit-exactly against NumPy) and a *performance*
model (it reports how many multiply-accumulates it retires per cycle in a
given configuration, which the systolic-array cycle model consumes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "FusionConfig",
    "fusion_config_for",
    "FusionUnit",
    "BITBRICKS_PER_FUSION_UNIT",
    "MAX_SPATIAL_OPERAND_BITS",
    "MAX_OPERAND_BITS",
    "supported_configurations",
]

#: Number of BitBricks physically present in one Fusion Unit.
BITBRICKS_PER_FUSION_UNIT = 16

#: Largest operand bitwidth handled purely spatially (one cycle).
MAX_SPATIAL_OPERAND_BITS = 8

#: Largest operand bitwidth supported at all (via temporal iteration).
MAX_OPERAND_BITS = 16

#: Partial sums are carried at 32 bits to avoid accumulation error (Fig. 4).
PARTIAL_SUM_BITS = 32

_VALID_BITS = (1, 2, 4, 8, 16)


def _effective_bits(bits: int) -> int:
    """Encoded bitwidth an operand occupies on the fabric (1-bit rides a 2-bit lane)."""
    return max(2, bits)


@dataclass(frozen=True)
class FusionConfig:
    """Resolved fusion configuration for one ``(input_bits, weight_bits)`` pair.

    Attributes
    ----------
    input_bits, weight_bits:
        Requested operand bitwidths (1, 2, 4, 8 or 16).
    spatial_input_bits, spatial_weight_bits:
        Bitwidths handled spatially per temporal pass (capped at 8).
    bricks_per_fpe:
        BitBricks consumed by one Fused-PE in the spatial configuration.
    fused_pes:
        Fused-PEs formed inside one Fusion Unit.
    temporal_passes:
        Cycles needed per multiply-accumulate due to >8-bit operands.
    """

    input_bits: int
    weight_bits: int
    spatial_input_bits: int
    spatial_weight_bits: int
    bricks_per_fpe: int
    fused_pes: int
    temporal_passes: int

    @property
    def macs_per_cycle(self) -> float:
        """Multiply-accumulates one Fusion Unit retires per cycle."""
        return self.fused_pes / self.temporal_passes

    @property
    def parallelism_vs_8bit(self) -> float:
        """Speedup factor relative to the 8-bit × 8-bit configuration."""
        return self.macs_per_cycle / 1.0

    @property
    def input_lane_bits(self) -> int:
        """Bits of input data one Fused-PE consumes per cycle."""
        return _effective_bits(min(self.input_bits, MAX_SPATIAL_OPERAND_BITS))

    @property
    def weight_lane_bits(self) -> int:
        """Bits of weight data one Fused-PE consumes per cycle."""
        return _effective_bits(min(self.weight_bits, MAX_SPATIAL_OPERAND_BITS))


def fusion_config_for(input_bits: int, weight_bits: int) -> FusionConfig:
    """Resolve the fusion configuration for a pair of operand bitwidths.

    Raises :class:`ValueError` for bitwidths outside {1, 2, 4, 8, 16}.
    """
    if input_bits not in _VALID_BITS:
        raise ValueError(
            f"input bitwidth must be one of {_VALID_BITS}, got {input_bits}"
        )
    if weight_bits not in _VALID_BITS:
        raise ValueError(
            f"weight bitwidth must be one of {_VALID_BITS}, got {weight_bits}"
        )

    spatial_in = min(_effective_bits(input_bits), MAX_SPATIAL_OPERAND_BITS)
    spatial_wt = min(_effective_bits(weight_bits), MAX_SPATIAL_OPERAND_BITS)

    bricks_per_fpe = (spatial_in // 2) * (spatial_wt // 2)
    fused_pes = BITBRICKS_PER_FUSION_UNIT // bricks_per_fpe

    temporal_in = _effective_bits(input_bits) // spatial_in
    temporal_wt = _effective_bits(weight_bits) // spatial_wt
    temporal_passes = temporal_in * temporal_wt

    return FusionConfig(
        input_bits=input_bits,
        weight_bits=weight_bits,
        spatial_input_bits=spatial_in,
        spatial_weight_bits=spatial_wt,
        bricks_per_fpe=bricks_per_fpe,
        fused_pes=fused_pes,
        temporal_passes=temporal_passes,
    )


def supported_configurations() -> list[FusionConfig]:
    """Enumerate every fusion configuration the fabric supports."""
    configs = []
    for ib in _VALID_BITS:
        for wb in _VALID_BITS:
            configs.append(fusion_config_for(ib, wb))
    return configs


class FusionUnit:
    """Functional + performance model of a single Fusion Unit.

    The unit is configured once per instruction block (per layer) via
    :meth:`configure`, mirroring the ``setup`` instruction of the
    Fusion-ISA.  After configuration it accepts vectors of inputs and
    weights sized to its current parallelism and produces the dot-product
    contribution it would add to the incoming partial sum.
    """

    def __init__(self) -> None:
        self._config: FusionConfig | None = None
        self.total_brick_multiplies = 0
        self.total_macs = 0

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #
    def configure(self, input_bits: int, weight_bits: int) -> FusionConfig:
        """Fuse the BitBricks for the given operand bitwidths."""
        self._config = fusion_config_for(input_bits, weight_bits)
        return self._config

    @property
    def config(self) -> FusionConfig:
        if self._config is None:
            raise RuntimeError(
                "FusionUnit is not configured; call configure(input_bits, weight_bits) first"
            )
        return self._config

    @property
    def is_configured(self) -> bool:
        return self._config is not None

    # ------------------------------------------------------------------ #
    # Functional execution
    # ------------------------------------------------------------------ #
    def _check_operand(self, value: int, bits: int, signed: bool, name: str) -> None:
        if signed:
            lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        else:
            lo, hi = 0, (1 << bits) - 1
        if not lo <= value <= hi:
            kind = "signed" if signed else "unsigned"
            raise ValueError(
                f"{name}={value} out of range for {kind} {bits}-bit operand [{lo}, {hi}]"
            )

    def multiply_accumulate(
        self,
        inputs: Sequence[int],
        weights: Sequence[int],
        partial_sum: int = 0,
        signed_inputs: bool = True,
        signed_weights: bool = True,
    ) -> int:
        """Compute ``partial_sum + Σ inputs[i] * weights[i]`` through BitBricks.

        ``inputs`` and ``weights`` must have exactly ``config.fused_pes``
        elements — one multiply per Fused-PE, exactly what the unit retires
        per temporal-pass group.  Every multiply is executed by decomposing
        the operands onto 2-bit bricks and shift-adding the brick products,
        so the result is provably identical to the integer dot product while
        exercising the real fusion datapath.
        """
        # Imported here: the simulator and the energy model need only
        # ``FusionConfig``, so start-up never loads the functional brick model.
        from repro.core.decompose import decompose_multiply, recompose_product

        cfg = self.config
        if len(inputs) != cfg.fused_pes or len(weights) != cfg.fused_pes:
            raise ValueError(
                f"expected {cfg.fused_pes} input/weight pairs for the "
                f"{cfg.input_bits}x{cfg.weight_bits} configuration, got "
                f"{len(inputs)} inputs and {len(weights)} weights"
            )

        a_bits = _effective_bits(cfg.input_bits)
        w_bits = _effective_bits(cfg.weight_bits)

        acc = int(partial_sum)
        for x, w in zip(inputs, weights):
            x = int(x)
            w = int(w)
            self._check_operand(x, a_bits, signed_inputs, "input")
            self._check_operand(w, w_bits, signed_weights, "weight")
            decomposition = decompose_multiply(
                x, w, a_bits, w_bits, a_signed=signed_inputs, b_signed=signed_weights
            )
            acc += recompose_product(decomposition)
            self.total_brick_multiplies += decomposition.brick_count
            self.total_macs += 1

        self._check_partial_sum(acc)
        return acc

    @staticmethod
    def _check_partial_sum(value: int) -> None:
        lo = -(1 << (PARTIAL_SUM_BITS - 1))
        hi = (1 << (PARTIAL_SUM_BITS - 1)) - 1
        if not lo <= value <= hi:
            raise OverflowError(
                f"partial sum {value} exceeds the {PARTIAL_SUM_BITS}-bit accumulator"
            )

    def dot_product(
        self,
        inputs: Iterable[int],
        weights: Iterable[int],
        signed_inputs: bool = True,
        signed_weights: bool = True,
    ) -> int:
        """Dot product of arbitrary-length vectors, chunked by Fused-PE count.

        Vectors whose length is not a multiple of the Fused-PE count are
        zero-padded, matching how the compiler pads the innermost loop.
        """
        cfg = self.config
        xs = [int(v) for v in inputs]
        ws = [int(v) for v in weights]
        if len(xs) != len(ws):
            raise ValueError(
                f"input and weight vectors must have equal length, got {len(xs)} and {len(ws)}"
            )
        acc = 0
        step = cfg.fused_pes
        for start in range(0, len(xs), step):
            chunk_x = xs[start : start + step]
            chunk_w = ws[start : start + step]
            pad = step - len(chunk_x)
            if pad:
                chunk_x = chunk_x + [0] * pad
                chunk_w = chunk_w + [0] * pad
            acc = self.multiply_accumulate(
                chunk_x,
                chunk_w,
                partial_sum=acc,
                signed_inputs=signed_inputs,
                signed_weights=signed_weights,
            )
        return acc

    # ------------------------------------------------------------------ #
    # Performance accounting
    # ------------------------------------------------------------------ #
    def cycles_for_macs(self, mac_count: int) -> int:
        """Cycles this unit needs to retire ``mac_count`` multiply-accumulates."""
        if mac_count < 0:
            raise ValueError(f"mac_count must be non-negative, got {mac_count}")
        cfg = self.config
        if mac_count == 0:
            return 0
        groups = -(-mac_count // cfg.fused_pes)  # ceil division
        return groups * cfg.temporal_passes

    def reset_counters(self) -> None:
        """Zero the functional-execution statistics."""
        self.total_brick_multiplies = 0
        self.total_macs = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._config is None:
            return "FusionUnit(unconfigured)"
        cfg = self._config
        return (
            f"FusionUnit({cfg.input_bits}x{cfg.weight_bits}, "
            f"{cfg.fused_pes} F-PEs, {cfg.temporal_passes} passes)"
        )
