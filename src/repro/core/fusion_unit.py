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

This module is the unit's *performance* model: :func:`fusion_config_for`
resolves how many multiply-accumulates a unit retires per cycle, which the
simulator and the energy model read.  That the fused arithmetic is exact is
modelled and checked in :mod:`repro.core.bitbrick`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "FusionConfig",
    "fusion_config_for",
    "BITBRICKS_PER_FUSION_UNIT",
    "MAX_SPATIAL_OPERAND_BITS",
    "PARTIAL_SUM_BITS",
    "SUPPORTED_BITWIDTHS",
]

#: Number of BitBricks physically present in one Fusion Unit.
BITBRICKS_PER_FUSION_UNIT = 16

#: Largest operand bitwidth handled purely spatially (one cycle).
MAX_SPATIAL_OPERAND_BITS = 8

#: Partial sums are carried at 32 bits to avoid accumulation error (Fig. 4).
PARTIAL_SUM_BITS = 32

#: Operand bitwidths the fabric supports (1-bit operands ride a 2-bit lane).
SUPPORTED_BITWIDTHS = (1, 2, 4, 8, 16)


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
    if input_bits not in SUPPORTED_BITWIDTHS:
        raise ValueError(
            f"input bitwidth must be one of {SUPPORTED_BITWIDTHS}, got {input_bits}"
        )
    if weight_bits not in SUPPORTED_BITWIDTHS:
        raise ValueError(
            f"weight bitwidth must be one of {SUPPORTED_BITWIDTHS}, got {weight_bits}"
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
