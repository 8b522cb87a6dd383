"""Off-chip DRAM access-energy model.

Both the paper and the accelerator literature it builds on (Eyeriss, EIE,
Tetris) agree that DRAM accesses dominate accelerator energy once on-chip
reuse is exploited; the absolute per-bit energy they assume is in the
15-25 pJ/bit range for DDR3/LPDDR-class interfaces at 45 nm-era systems.
This module uses 20 pJ/bit as the 45 nm reference value and exposes it as a
model object so experiments can sweep it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DramEnergyModel", "DRAM_PJ_PER_BIT_45NM"]

#: Reference DRAM access energy at the 45 nm system node, pJ per bit.
DRAM_PJ_PER_BIT_45NM = 20.0


@dataclass(frozen=True)
class DramEnergyModel:
    """Energy model for off-chip memory traffic.

    Parameters
    ----------
    pj_per_bit:
        Access energy per bit transferred.  The default is the 45 nm
        reference value; callers apply technology scaling for other nodes
        (only the interface/IO portion scales, which the simple model folds
        into the same factor).
    """

    pj_per_bit: float = DRAM_PJ_PER_BIT_45NM

    def __post_init__(self) -> None:
        if self.pj_per_bit <= 0:
            raise ValueError(f"pj_per_bit must be positive, got {self.pj_per_bit}")

    def energy_for_bits_j(self, bits: int | float) -> float:
        """Total DRAM energy in joules for ``bits`` of traffic."""
        if bits < 0:
            raise ValueError(f"bit count must be non-negative, got {bits}")
        return bits * self.pj_per_bit * 1e-12
