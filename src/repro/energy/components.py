"""Compute-energy and area constants (synthesis-anchored, Figure 10 / Table III).

The paper implements the Fusion Unit in Verilog and synthesizes it with a
commercial 45 nm standard-cell library; Figure 10 publishes the resulting
area and power split between the BitBricks, the shift-add tree and the
accumulation register, for both the hybrid spatio-temporal Fusion Unit and a
purely temporal reference design.  Those published numbers are reproduced
here verbatim as constants (the proprietary synthesis flow is the one piece
of the methodology this reproduction cannot re-run) and everything derived
from them — compute energy per multiply-accumulate at each fusion
configuration, Fusion Units per mm², Eyeriss per-PE energy — is computed by
:class:`ComputeEnergyModel`.

Anchoring: a full 16-BitBrick Fusion Unit retiring one 8-bit × 8-bit
multiply-accumulate per cycle is assigned ``FUSION_UNIT_MAC_8x8_PJ``;
narrower configurations consume energy in proportion to the BitBricks a
Fused-PE activates per multiply (the shift-add tree and register are shared
and accounted in the same per-brick figure), which is exactly the quadratic
compute-energy saving the paper's first insight describes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import BitFusionConfig, TechnologyNode
from repro.core.fusion_unit import BITBRICKS_PER_FUSION_UNIT, FusionConfig

__all__ = [
    "FUSION_UNIT_AREA_UM2",
    "TEMPORAL_UNIT_AREA_UM2",
    "FUSION_UNIT_POWER_NW",
    "TEMPORAL_UNIT_POWER_NW",
    "FUSION_UNIT_MAC_8x8_PJ",
    "EYERISS_MAC_16BIT_PJ",
    "EYERISS_RF_ACCESS_PJ_PER_BIT",
    "STRIPES_SERIAL_BIT_OP_PJ",
    "fusion_unit_area_breakdown",
    "temporal_unit_area_breakdown",
    "fusion_unit_power_breakdown",
    "temporal_unit_power_breakdown",
    "units_in_area",
    "ComputeEnergyModel",
    "accelerator_area_mm2",
]

# --------------------------------------------------------------------------- #
# Synthesis constants published in Figure 10 (45 nm, 16 BitBricks per unit).
# --------------------------------------------------------------------------- #

#: Area of the hybrid (spatial fusion + temporal 16-bit) Fusion Unit, µm².
FUSION_UNIT_AREA_UM2 = 1394.0

#: Area of the purely temporal reference design with 16 2-bit multipliers, µm².
TEMPORAL_UNIT_AREA_UM2 = 4905.0

#: Switching power of the hybrid Fusion Unit as reported in Figure 10, nW/MHz-class units.
FUSION_UNIT_POWER_NW = 538.0

#: Switching power of the temporal reference design, same units as above.
TEMPORAL_UNIT_POWER_NW = 1712.0

_FUSION_UNIT_AREA_SPLIT_UM2 = {"bitbricks": 369.0, "shift_add": 934.0, "register": 91.0}
_TEMPORAL_UNIT_AREA_SPLIT_UM2 = {"bitbricks": 463.0, "shift_add": 2989.0, "register": 1454.0}
_FUSION_UNIT_POWER_SPLIT_NW = {"bitbricks": 46.0, "shift_add": 424.0, "register": 69.0}
_TEMPORAL_UNIT_POWER_SPLIT_NW = {"bitbricks": 60.0, "shift_add": 550.0, "register": 1103.0}


def units_in_area(area_mm2: float, unit_area_um2: float) -> int:
    """Whole units of ``unit_area_um2`` that fit in ``area_mm2`` of silicon."""
    return int(area_mm2 * 1e6 // unit_area_um2)


def fusion_unit_area_breakdown() -> dict[str, float]:
    """Figure 10 area split of the hybrid Fusion Unit (µm², 45 nm)."""
    return dict(_FUSION_UNIT_AREA_SPLIT_UM2)


def temporal_unit_area_breakdown() -> dict[str, float]:
    """Figure 10 area split of the temporal reference design (µm², 45 nm)."""
    return dict(_TEMPORAL_UNIT_AREA_SPLIT_UM2)


def fusion_unit_power_breakdown() -> dict[str, float]:
    """Figure 10 power split of the hybrid Fusion Unit (nW, 45 nm)."""
    return dict(_FUSION_UNIT_POWER_SPLIT_NW)


def temporal_unit_power_breakdown() -> dict[str, float]:
    """Figure 10 power split of the temporal reference design (nW, 45 nm)."""
    return dict(_TEMPORAL_UNIT_POWER_SPLIT_NW)


# --------------------------------------------------------------------------- #
# Per-operation energy anchors (45 nm).
# --------------------------------------------------------------------------- #

#: Energy of one 8-bit x 8-bit multiply-accumulate on a fully-fused Fusion
#: Unit (all 16 BitBricks plus the shift-add tree and accumulator), pJ.
FUSION_UNIT_MAC_8x8_PJ = 0.36

#: Energy of one 16-bit multiply-accumulate in an Eyeriss PE datapath, pJ.
EYERISS_MAC_16BIT_PJ = 1.2

#: Eyeriss per-PE register-file access energy, pJ per bit (512 B scratch RF).
EYERISS_RF_ACCESS_PJ_PER_BIT = 0.065

#: Energy of one bit-serial AND-accumulate step in a Stripes SIP, pJ.  One
#: 16-bit-input x w-bit-weight multiply-accumulate costs w of these.
STRIPES_SERIAL_BIT_OP_PJ = 0.11


@dataclass(frozen=True)
class ComputeEnergyModel:
    """Per-operation compute energy, with technology scaling applied.

    Parameters
    ----------
    technology:
        Process node; dynamic energy scales with
        :attr:`~repro.core.config.TechnologyNode.energy_scale` relative to
        the 45 nm synthesis reference.
    """

    technology: TechnologyNode

    @property
    def _scale(self) -> float:
        return self.technology.energy_scale

    # -- Bit Fusion ------------------------------------------------------- #
    def fusion_mac_energy_pj(self, config: FusionConfig) -> float:
        """Energy of one multiply-accumulate at the given fusion configuration.

        The energy is proportional to the BitBricks a Fused-PE activates per
        retired multiply-accumulate, including the temporal passes a 16-bit
        operand requires.
        """
        bricks_per_mac = config.bricks_per_fpe * config.temporal_passes
        fraction = bricks_per_mac / BITBRICKS_PER_FUSION_UNIT
        return FUSION_UNIT_MAC_8x8_PJ * fraction * self._scale

    # -- Eyeriss ---------------------------------------------------------- #
    def eyeriss_mac_energy_pj(self) -> float:
        """Energy of one 16-bit multiply-accumulate in an Eyeriss PE."""
        return EYERISS_MAC_16BIT_PJ * self._scale

    def eyeriss_rf_energy_per_mac_pj(self, accesses_per_mac: float = 4.0) -> float:
        """Register-file energy charged per multiply-accumulate in Eyeriss.

        The row-stationary dataflow reads the input, filter and partial sum
        from the per-PE register file and writes the partial sum back —
        roughly four 16-bit accesses per multiply-accumulate.
        """
        if accesses_per_mac < 0:
            raise ValueError(
                f"accesses_per_mac must be non-negative, got {accesses_per_mac}"
            )
        return accesses_per_mac * 16 * EYERISS_RF_ACCESS_PJ_PER_BIT * self._scale

    # -- Stripes ---------------------------------------------------------- #
    def stripes_mac_energy_pj(self, weight_bits: int) -> float:
        """Energy of one 16-bit-input multiply-accumulate at ``weight_bits`` serial bits."""
        if weight_bits <= 0:
            raise ValueError(f"weight_bits must be positive, got {weight_bits}")
        return STRIPES_SERIAL_BIT_OP_PJ * weight_bits * self._scale

    # -- Area ------------------------------------------------------------- #
    def fusion_unit_area_mm2(self) -> float:
        """Area of one Fusion Unit at the model's technology node, mm²."""
        return FUSION_UNIT_AREA_UM2 * 1e-6 * self.technology.area_scale


def accelerator_area_mm2(config: "BitFusionConfig") -> float:
    """Silicon area of a configured Bit Fusion instance, in mm².

    Compute area (Fusion Units at the synthesis-anchored Figure 10 figure)
    plus on-chip SRAM (the CACTI-inspired density model), both scaled to the
    configuration's technology node.  This is the area objective the
    design-space Pareto frontier trades against performance and energy;
    interconnect and pad overheads are outside the model, so treat the
    number as a comparison metric rather than a floorplan.
    """
    from repro.energy.cacti import sram_area_mm2

    compute = config.fusion_units * ComputeEnergyModel(config.technology).fusion_unit_area_mm2()
    sram = sram_area_mm2(config.total_sram_kb, config.technology)
    return compute + sram
