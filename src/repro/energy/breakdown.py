"""Per-component energy breakdown (compute / buffers / register file / DRAM).

Figure 14 of the paper breaks the energy of Bit Fusion and Eyeriss into four
components; every accelerator model in this reproduction reports the same
four so the breakdown experiment and the energy-comparison experiments can
treat them uniformly.  All values are in joules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = ["EnergyBreakdown"]


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy in joules split by hardware component.

    Attributes
    ----------
    compute:
        Arithmetic (BitBricks / PE datapaths / SIPs / CUDA cores).
    buffers:
        On-chip SRAM scratchpads (IBUF, OBUF, WBUF or their equivalents).
    register_file:
        Per-PE register files (zero for Bit Fusion, whose systolic
        organization has none).
    dram:
        Off-chip memory accesses.
    """

    compute: float = 0.0
    buffers: float = 0.0
    register_file: float = 0.0
    dram: float = 0.0

    def __post_init__(self) -> None:
        for label, value in self.as_dict().items():
            if value < 0:
                raise ValueError(f"{label} energy must be non-negative, got {value}")

    @property
    def total(self) -> float:
        """Total energy in joules."""
        return self.compute + self.buffers + self.register_file + self.dram

    def as_dict(self) -> dict[str, float]:
        """The four components as a plain dictionary (in joules)."""
        return {
            "compute": self.compute,
            "buffers": self.buffers,
            "register_file": self.register_file,
            "dram": self.dram,
        }

    def fractions(self) -> dict[str, float]:
        """Each component's share of the total (all zero for an empty breakdown)."""
        total = self.total
        if total == 0.0:
            return {key: 0.0 for key in self.as_dict()}
        return {key: value / total for key, value in self.as_dict().items()}

    @staticmethod
    def sum(breakdowns: Iterable["EnergyBreakdown"]) -> "EnergyBreakdown":
        """Component-wise sum, validated once.

        Folds each component left to right from zero, so the floats do not
        depend on how the breakdowns are grouped.
        """
        compute = buffers = register_file = dram = 0.0
        for breakdown in breakdowns:
            compute += breakdown.compute
            buffers += breakdown.buffers
            register_file += breakdown.register_file
            dram += breakdown.dram
        return EnergyBreakdown(compute, buffers, register_file, dram)
