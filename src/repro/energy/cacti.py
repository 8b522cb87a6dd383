"""CACTI-P-inspired SRAM access-energy and area model.

The paper models on-chip buffer energy with CACTI-P [48].  The external
CACTI binary is not available offline, so this module provides an analytical
stand-in with the property that matters for the reproduction: access energy
grows with array capacity (roughly with the square root, dominated by
bit-line/word-line length) and linearly with the number of bits moved per
access.  The coefficients are anchored so that

* a tiny per-Fusion-Unit weight buffer (~128 B) costs register-file-like
  energy per bit,
* a tens-of-kilobytes shared input/output buffer costs a few picojoules per
  32-bit access,
* a megabyte-class array (the Stripes eDRAM stand-in) costs tens of
  picojoules per access,

which reproduces the relative buffer-versus-DRAM-versus-compute shares of
Figure 14.  All energies are at the 45 nm reference node; technology scaling
is applied by the caller via :class:`~repro.core.config.TechnologyNode`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (config imports nothing here)
    from repro.core.config import TechnologyNode

__all__ = ["SramEnergyModel", "sram_access_energy_pj", "sram_area_mm2"]

#: Fixed per-access decoder/sense overhead, pJ per bit moved (45 nm).
_BASE_PJ_PER_BIT = 0.010

#: Capacity-dependent term, pJ per bit per sqrt(KB) (45 nm).
_CAPACITY_PJ_PER_BIT_PER_SQRT_KB = 0.012

#: Leakage-free SRAM area density at 45 nm, mm^2 per KB (6T cells + periphery).
_AREA_MM2_PER_KB = 0.0045


def sram_access_energy_pj(capacity_kb: float, bits_per_access: int) -> float:
    """Energy of one access to an SRAM of ``capacity_kb`` moving ``bits_per_access``.

    Returns picojoules at the 45 nm reference node.
    """
    if capacity_kb <= 0:
        raise ValueError(f"SRAM capacity must be positive, got {capacity_kb}")
    if bits_per_access <= 0:
        raise ValueError(f"bits per access must be positive, got {bits_per_access}")
    per_bit = _BASE_PJ_PER_BIT + _CAPACITY_PJ_PER_BIT_PER_SQRT_KB * sqrt(capacity_kb)
    return per_bit * bits_per_access


def sram_area_mm2(
    capacity_kb: float, technology: "TechnologyNode | None" = None
) -> float:
    """Silicon area of an SRAM array, in mm².

    Reported at the 45 nm reference node by default; passing a
    :class:`~repro.core.config.TechnologyNode` scales the array by its
    :attr:`~repro.core.config.TechnologyNode.area_scale` (the node-scaling
    hook the design-space area objective uses).
    """
    if capacity_kb <= 0:
        raise ValueError(f"SRAM capacity must be positive, got {capacity_kb}")
    area = _AREA_MM2_PER_KB * capacity_kb
    if technology is not None:
        area *= technology.area_scale
    return area


@dataclass(frozen=True)
class SramEnergyModel:
    """Access-energy model bound to one physical SRAM array.

    Parameters
    ----------
    capacity_kb:
        Capacity of the array (one bank).
    access_bits:
        Width of one data-array access (32 bits for the Bit Fusion buffers,
        Section II-B).
    """

    capacity_kb: float
    access_bits: int = 32

    def __post_init__(self) -> None:
        if self.capacity_kb <= 0:
            raise ValueError(f"capacity_kb must be positive, got {self.capacity_kb}")
        if self.access_bits <= 0:
            raise ValueError(f"access_bits must be positive, got {self.access_bits}")

    @property
    def energy_per_access_pj(self) -> float:
        """Energy of one data-array access in picojoules (45 nm)."""
        return sram_access_energy_pj(self.capacity_kb, self.access_bits)

    @property
    def energy_per_bit_pj(self) -> float:
        """Energy per bit moved, in picojoules (45 nm)."""
        return self.energy_per_access_pj / self.access_bits

    def energy_for_bits_j(self, bits: int | float) -> float:
        """Total energy in joules for moving a number of bits."""
        if bits < 0:
            raise ValueError(f"bit count must be non-negative, got {bits}")
        return bits * self.energy_per_bit_pj * 1e-12
