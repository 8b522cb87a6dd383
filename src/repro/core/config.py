"""Accelerator configuration for the Bit Fusion reproduction.

The paper evaluates three principal configurations of the Bit Fusion
accelerator:

* **Eyeriss-matched** (Section V-A, Table III): 45 nm, 500 MHz, the same
  1.1 mm² compute-area budget as Eyeriss' 168 PEs, a 5.87 mm² chip and
  112 KB of on-chip SRAM split across the input, weight and output buffers,
  and a default off-chip bandwidth of 128 bits/cycle.
  The 1.1 mm² budget packs 512 Fusion Units (8192 BitBricks).
* **Stripes-matched** (Section V-B4): the same 512-Fusion-Unit systolic
  array dropped into each of Stripes' 16 tiles with Stripes' frequency.
* **GPU-scaled 16 nm** (Section V-B3): the design scaled to 16 nm with
  4096 Fusion Units, 896 KB of SRAM, a 5.93 mm² chip and 895 mW, still at
  500 MHz.

:class:`BitFusionConfig` captures every parameter the compiler, the cycle
model and the energy model need; the named constructors build the three
paper configurations.  The batch size is not hardware: it is an argument
of every compile, simulate and evaluate call (and a field of the session's
``Workload``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["TechnologyNode", "BitFusionConfig"]


@dataclass(frozen=True)
class TechnologyNode:
    """Process-technology parameters used for scaling area and energy.

    Scaling follows the methodology the paper cites (Esmaeilzadeh et al.,
    "Dark silicon and the end of multicore scaling"): moving from the
    45 nm reference to a smaller node scales voltage by ``voltage_scale``
    and switched capacitance by ``capacitance_scale``; dynamic energy
    scales as ``voltage_scale² × capacitance_scale`` and area scales
    roughly with the square of the feature-size ratio.
    """

    name: str
    feature_nm: float
    voltage_scale: float = 1.0
    capacitance_scale: float = 1.0

    @property
    def energy_scale(self) -> float:
        """Dynamic-energy multiplier relative to the 45 nm reference node."""
        return self.voltage_scale**2 * self.capacitance_scale

    @property
    def area_scale(self) -> float:
        """Area multiplier relative to the 45 nm reference node."""
        return (self.feature_nm / 45.0) ** 2

    @staticmethod
    def nm45() -> "TechnologyNode":
        """The 45 nm synthesis node used for the Eyeriss/Stripes comparisons."""
        return TechnologyNode(name="45nm", feature_nm=45.0)

    @staticmethod
    def nm16() -> "TechnologyNode":
        """The 16 nm node used for the GPU comparison (0.86× V, 0.42× C)."""
        return TechnologyNode(
            name="16nm", feature_nm=16.0, voltage_scale=0.86, capacitance_scale=0.42
        )

    @staticmethod
    def by_name(name: str) -> "TechnologyNode":
        """Look up one of the paper's nodes by name (``"45nm"``/``"16nm"``/``"65nm"``).

        This is the string form design-space sweep specifications use for
        their technology axis; unknown names raise with the valid choices.
        """
        nodes = {
            "45nm": TechnologyNode.nm45,
            "16nm": TechnologyNode.nm16,
            # The node Stripes' power tools reported in (scaled up from 45 nm).
            "65nm": lambda: TechnologyNode(
                name="65nm", feature_nm=65.0, voltage_scale=1.1, capacitance_scale=1.4
            ),
        }
        try:
            return nodes[name]()
        except KeyError:
            raise ValueError(
                f"unknown technology node {name!r}; expected one of {sorted(nodes)}"
            ) from None


@dataclass(frozen=True)
class BitFusionConfig:
    """Complete configuration of a Bit Fusion accelerator instance.

    Attributes
    ----------
    rows, columns:
        Geometry of the systolic array of Fusion Units.  Inputs are shared
        along rows, partial sums accumulate down columns (Figure 3).
    frequency_mhz:
        Operating frequency.
    ibuf_kb, wbuf_kb, obuf_kb:
        Capacities of the input, weight and output scratchpad buffers.
    dram_bandwidth_bits_per_cycle:
        Off-chip bandwidth available to the accelerator.
    technology:
        Process node, used by the energy/area models.
    buffer_access_bits:
        Width of one SRAM data-array access; the data-infusion register
        splits this row into operand lanes (Section II-B).
    """

    rows: int = 32
    columns: int = 16
    frequency_mhz: float = 500.0
    ibuf_kb: float = 32.0
    wbuf_kb: float = 64.0
    obuf_kb: float = 16.0
    dram_bandwidth_bits_per_cycle: int = 128
    technology: TechnologyNode = field(default_factory=TechnologyNode.nm45)
    buffer_access_bits: int = 32
    name: str = "bitfusion"

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.columns <= 0:
            raise ValueError(
                f"systolic array must have positive dimensions, got {self.rows}x{self.columns}"
            )
        if self.frequency_mhz <= 0:
            raise ValueError(f"frequency must be positive, got {self.frequency_mhz}")
        if self.dram_bandwidth_bits_per_cycle <= 0:
            raise ValueError(
                "dram bandwidth must be positive, got "
                f"{self.dram_bandwidth_bits_per_cycle}"
            )
        for label, value in (
            ("ibuf_kb", self.ibuf_kb),
            ("wbuf_kb", self.wbuf_kb),
            ("obuf_kb", self.obuf_kb),
        ):
            if value <= 0:
                raise ValueError(f"{label} must be positive, got {value}")
            # Canonical float: equal configs built with 16 and 16.0 compare and
            # hash equal, so they must also serialize to the same key bytes.
            object.__setattr__(self, label, float(value))

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def fusion_units(self) -> int:
        """Total Fusion Units in the array."""
        return self.rows * self.columns

    @property
    def bitbricks(self) -> int:
        """Total BitBricks in the array (16 per Fusion Unit)."""
        from repro.core.fusion_unit import BITBRICKS_PER_FUSION_UNIT

        return self.fusion_units * BITBRICKS_PER_FUSION_UNIT

    @property
    def total_sram_kb(self) -> float:
        """Aggregate on-chip scratchpad capacity."""
        return self.ibuf_kb + self.wbuf_kb + self.obuf_kb

    def peak_macs_per_cycle(self, input_bits: int, weight_bits: int) -> float:
        """Peak multiply-accumulates per cycle at the given bitwidths."""
        from repro.core.fusion_unit import fusion_config_for

        return self.fusion_units * fusion_config_for(input_bits, weight_bits).macs_per_cycle

    def peak_throughput_gops(self, input_bits: int = 8, weight_bits: int = 8) -> float:
        """Peak throughput in GOPS (one MAC counted as two operations)."""
        return (
            2.0
            * self.peak_macs_per_cycle(input_bits, weight_bits)
            * self.frequency_mhz
            * 1e6
            / 1e9
        )

    # ------------------------------------------------------------------ #
    # Named paper configurations
    # ------------------------------------------------------------------ #
    @staticmethod
    def eyeriss_matched(bandwidth_bits_per_cycle: int = 128) -> "BitFusionConfig":
        """The 45 nm configuration area-matched to Eyeriss (Table III)."""
        return BitFusionConfig(
            rows=32,
            columns=16,
            frequency_mhz=500.0,
            ibuf_kb=32.0,
            wbuf_kb=64.0,
            obuf_kb=16.0,
            dram_bandwidth_bits_per_cycle=bandwidth_bits_per_cycle,
            technology=TechnologyNode.nm45(),
            name="bitfusion-eyeriss-matched",
        )

    @staticmethod
    def stripes_matched() -> "BitFusionConfig":
        """The 45 nm configuration matched to Stripes' area and frequency.

        The paper replaces the 4096 SIPs in *each* of Stripes' 16 tiles with
        a 512-Fusion-Unit systolic array, so the chip-level comparison pits
        16 x 512 = 8192 Fusion Units at Stripes' 980 MHz against 65,536 SIPs,
        with Stripes' (much larger) on-chip storage budget shared equally.
        """
        return BitFusionConfig(
            rows=128,
            columns=64,
            frequency_mhz=980.0,
            ibuf_kb=512.0,
            wbuf_kb=1024.0,
            obuf_kb=256.0,
            dram_bandwidth_bits_per_cycle=256,
            technology=TechnologyNode.nm45(),
            name="bitfusion-stripes-matched",
        )

    @staticmethod
    def gpu_scaled_16nm() -> "BitFusionConfig":
        """The 16 nm, 4096-Fusion-Unit configuration used against the GPUs."""
        return BitFusionConfig(
            rows=64,
            columns=64,
            frequency_mhz=500.0,
            ibuf_kb=256.0,
            wbuf_kb=512.0,
            obuf_kb=128.0,
            dram_bandwidth_bits_per_cycle=1024,
            technology=TechnologyNode.nm16(),
            name="bitfusion-16nm",
        )

    def with_bandwidth(self, bits_per_cycle: int) -> "BitFusionConfig":
        """Copy of this configuration with a different off-chip bandwidth."""
        return replace(self, dram_bandwidth_bits_per_cycle=bits_per_cycle)

    # ------------------------------------------------------------------ #
    # Design-space variation points
    # ------------------------------------------------------------------ #
    # Each returns a validated copy varying one axis of the design space;
    # the repro.dse sweep engine composes them to expand a SweepSpec into
    # concrete configurations.
    def with_array(self, rows: int, columns: int) -> "BitFusionConfig":
        """Copy of this configuration with a different systolic-array geometry."""
        return replace(self, rows=rows, columns=columns)

    def with_buffers(
        self, ibuf_kb: float, wbuf_kb: float, obuf_kb: float
    ) -> "BitFusionConfig":
        """Copy of this configuration with different scratchpad capacities.

        Buffer capacities are compile-affecting (the tiling search targets
        them), so workloads varied along this axis compile distinct
        programs — unlike the bandwidth/technology/array axes.
        """
        return replace(self, ibuf_kb=ibuf_kb, wbuf_kb=wbuf_kb, obuf_kb=obuf_kb)

    def with_technology(self, technology: "TechnologyNode | str") -> "BitFusionConfig":
        """Copy of this configuration at a different process node.

        Accepts a :class:`TechnologyNode` or one of the paper's node names
        (``"45nm"``/``"16nm"``/``"65nm"``).  Technology only affects energy
        and area scaling, never the compiled program.
        """
        if isinstance(technology, str):
            technology = TechnologyNode.by_name(technology)
        return replace(self, technology=technology)

    def with_frequency(self, frequency_mhz: float) -> "BitFusionConfig":
        """Copy of this configuration at a different operating frequency."""
        return replace(self, frequency_mhz=frequency_mhz)
