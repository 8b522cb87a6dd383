"""The temporal variable-bitwidth design's Figure 10 comparison.

Section III-C contrasts Bit Fusion's *spatial fusion* with a *temporal*
design in which each 2-bit multiplier iterates over the operand slices
across cycles, accumulating shifted partial products in a private register.
The temporal approach also offers bitwidth flexibility, but its per-unit
shifter and wide accumulator dominate area and power once 16-bit operands
must be supported — Figure 10 reports the synthesized comparison at equal
BitBrick count (3.5x more area, 3.2x more power than the hybrid Fusion
Unit).

* :class:`TemporalDesignComparison` reproduces the Figure 10 table from the
  published synthesis constants.
* :class:`TemporalDesignModel` answers the follow-on question the figure
  implies: in the *same silicon area*, how much throughput does a temporal
  design deliver relative to Bit Fusion?  The temporal unit packs 3.5x
  fewer units per mm² and needs
  :meth:`~repro.baselines.platform.PlatformSpec.cycles_per_mac` of
  :data:`~repro.baselines.platform.TEMPORAL` per multiply-accumulate.

The whole-network temporal platform is
:data:`~repro.baselines.platform.TEMPORAL`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.platform import LANES_PER_TEMPORAL_UNIT, SAME_AREA_MM2, TEMPORAL
from repro.energy.components import (
    FUSION_UNIT_AREA_UM2,
    FUSION_UNIT_POWER_NW,
    TEMPORAL_UNIT_AREA_UM2,
    TEMPORAL_UNIT_POWER_NW,
    fusion_unit_area_breakdown,
    fusion_unit_power_breakdown,
    temporal_unit_area_breakdown,
    temporal_unit_power_breakdown,
    units_in_area,
)

__all__ = ["TemporalDesignComparison", "TemporalDesignModel"]


@dataclass(frozen=True)
class TemporalDesignComparison:
    """The Figure 10 area/power comparison at 16 BitBricks per unit."""

    fusion_area_um2: float = FUSION_UNIT_AREA_UM2
    temporal_area_um2: float = TEMPORAL_UNIT_AREA_UM2
    fusion_power_nw: float = FUSION_UNIT_POWER_NW
    temporal_power_nw: float = TEMPORAL_UNIT_POWER_NW

    def area_rows(self) -> list[dict[str, float | str]]:
        """Per-component area rows of the Figure 10 table (µm²)."""
        return _component_rows(
            "um2",
            temporal_unit_area_breakdown(),
            fusion_unit_area_breakdown(),
            (self.temporal_area_um2, self.fusion_area_um2),
        )

    def power_rows(self) -> list[dict[str, float | str]]:
        """Per-component power rows of the Figure 10 table (nW)."""
        return _component_rows(
            "nw",
            temporal_unit_power_breakdown(),
            fusion_unit_power_breakdown(),
            (self.temporal_power_nw, self.fusion_power_nw),
        )


def _component_rows(
    unit: str,
    temporal: dict[str, float],
    fusion: dict[str, float],
    totals: tuple[float, float],
) -> list[dict[str, float | str]]:
    """One Figure 10 row per component, then the total row."""
    parts = ("bitbricks", "shift_add", "register")
    values = [(part, temporal[part], fusion[part]) for part in parts] + [("total", *totals)]
    return [
        {
            "component": component,
            f"temporal_{unit}": temporal_value,
            f"fusion_{unit}": fusion_value,
            "reduction": temporal_value / fusion_value,
        }
        for component, temporal_value, fusion_value in values
    ]


class TemporalDesignModel:
    """Same-area throughput comparison between temporal and spatial fusion.

    Parameters
    ----------
    compute_area_mm2:
        Silicon area available for compute units (the paper's budget is
        1.1 mm²).
    """

    def __init__(self, compute_area_mm2: float = SAME_AREA_MM2) -> None:
        if compute_area_mm2 <= 0:
            raise ValueError(f"compute area must be positive, got {compute_area_mm2}")
        self.compute_area_mm2 = compute_area_mm2
        self.comparison = TemporalDesignComparison()

    @property
    def fusion_units_in_area(self) -> int:
        """Hybrid Fusion Units that fit in the compute-area budget."""
        return units_in_area(self.compute_area_mm2, FUSION_UNIT_AREA_UM2)

    @property
    def temporal_units_in_area(self) -> int:
        """Temporal units (16 2-bit multipliers each) that fit in the budget."""
        return units_in_area(self.compute_area_mm2, TEMPORAL_UNIT_AREA_UM2)

    def temporal_macs_per_cycle(self, input_bits: int, weight_bits: int) -> float:
        """Same-area temporal throughput: 16 lanes per unit, serialized per MAC."""
        lanes = self.temporal_units_in_area * LANES_PER_TEMPORAL_UNIT
        return lanes / TEMPORAL.cycles_per_mac(input_bits, weight_bits)

    def fusion_macs_per_cycle(self, input_bits: int, weight_bits: int) -> float:
        """Same-area Bit Fusion throughput at the given bitwidths."""
        from repro.core.fusion_unit import fusion_config_for

        config = fusion_config_for(input_bits, weight_bits)
        return self.fusion_units_in_area * config.macs_per_cycle

    def throughput_advantage(self, input_bits: int, weight_bits: int) -> float:
        """Bit Fusion speedup over the temporal design in the same area."""
        return self.fusion_macs_per_cycle(input_bits, weight_bits) / self.temporal_macs_per_cycle(
            input_bits, weight_bits
        )
