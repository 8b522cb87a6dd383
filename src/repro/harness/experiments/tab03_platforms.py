"""Table III — the evaluated ASIC and GPU platforms.

The table summarizes the hardware configurations used throughout the
evaluation: Eyeriss and Stripes (the ASIC baselines), the two GPUs, and the
Bit Fusion configurations matched to each comparison.  The reproduction
assembles the same table from the configuration objects so any drift between
the models and the documented setup is visible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.gpu import TEGRA_X2, TITAN_XP, GpuPrecision, GpuSpec
from repro.baselines.platform import (
    EYERISS,
    LANES_PER_TEMPORAL_UNIT,
    SAME_AREA_MM2,
    STRIPES,
    STRIPES_TILES,
    TEMPORAL,
)
from repro.core.config import BitFusionConfig
from repro.session import EvaluationSession

__all__ = ["PlatformRow", "render", "run", "format_table"]


@dataclass(frozen=True)
class PlatformRow:
    """One platform of Table III."""

    platform: str
    compute_units: str
    frequency_mhz: float
    on_chip_memory: str
    technology: str
    precision: str

    def as_row(self) -> dict[str, object]:
        return {
            "platform": self.platform,
            "compute units": self.compute_units,
            "freq (MHz)": self.frequency_mhz,
            "on-chip memory": self.on_chip_memory,
            "technology": self.technology,
            "precision": self.precision,
        }


def _gpu_row(spec: GpuSpec) -> PlatformRow:
    """A GPU's row, read from its spec (peaks shown for the INT8 path only)."""
    precision = "FP32"
    if spec.supports(GpuPrecision.INT8):
        precision += f" / INT8 ({spec.peak_int8_gops / 1e3:.0f} TOPS peak)"
    return PlatformRow(
        platform=spec.name,
        compute_units=f"{spec.cuda_cores:,} CUDA cores",
        frequency_mhz=spec.clock_mhz,
        on_chip_memory=f"{spec.device_memory} (device memory)",
        technology=spec.technology,
        precision=precision,
    )


def run(session: EvaluationSession | None = None) -> list[PlatformRow]:
    """Assemble the Table III platform rows from the configuration objects.

    ``session`` is accepted for harness uniformity; the table reads static
    configuration objects, so no simulation is cached.
    """
    del session
    bf_eyeriss = BitFusionConfig.eyeriss_matched()
    bf_stripes = BitFusionConfig.stripes_matched()
    bf_gpu = BitFusionConfig.gpu_scaled_16nm()

    return [
        PlatformRow(
            platform="Eyeriss",
            compute_units=f"{EYERISS.mac_lanes} PEs",
            frequency_mhz=EYERISS.frequency_mhz,
            on_chip_memory=f"{EYERISS.on_chip_kb:.1f} KB",
            technology=EYERISS.technology.name,
            precision=f"{EYERISS.input_bits}-bit fixed",
        ),
        PlatformRow(
            platform="Stripes",
            compute_units=f"{STRIPES_TILES}x{STRIPES.mac_lanes // STRIPES_TILES} SIPs",
            frequency_mhz=STRIPES.frequency_mhz,
            on_chip_memory=f"{STRIPES.on_chip_kb / 1024:.0f} MB eDRAM + 16 KB SRAM",
            technology=STRIPES.technology.name,
            precision=f"{STRIPES.input_bits}-bit inputs x serial weights",
        ),
        _gpu_row(TEGRA_X2),
        _gpu_row(TITAN_XP),
        PlatformRow(
            platform="Temporal bit-serial (same area)",
            compute_units=(
                f"{TEMPORAL.mac_lanes // LANES_PER_TEMPORAL_UNIT} units "
                f"({TEMPORAL.mac_lanes} lanes)"
            ),
            frequency_mhz=TEMPORAL.frequency_mhz,
            on_chip_memory=f"n/a ({SAME_AREA_MM2} mm2 area-matched)",
            technology=TEMPORAL.technology.name,
            precision=f"{TEMPORAL.input_slice_bits}-bit serial slices",
        ),
        PlatformRow(
            platform="Bit Fusion (Eyeriss-matched)",
            compute_units=f"{bf_eyeriss.fusion_units} Fusion Units ({bf_eyeriss.bitbricks} BitBricks)",
            frequency_mhz=bf_eyeriss.frequency_mhz,
            on_chip_memory=f"{bf_eyeriss.total_sram_kb:.0f} KB",
            technology=bf_eyeriss.technology.name,
            precision="2-16 bit fused",
        ),
        PlatformRow(
            platform="Bit Fusion (Stripes-matched)",
            compute_units=f"{bf_stripes.fusion_units} Fusion Units",
            frequency_mhz=bf_stripes.frequency_mhz,
            on_chip_memory=f"{bf_stripes.total_sram_kb:.0f} KB",
            technology=bf_stripes.technology.name,
            precision="2-16 bit fused",
        ),
        PlatformRow(
            platform="Bit Fusion (16 nm, GPU comparison)",
            compute_units=f"{bf_gpu.fusion_units} Fusion Units",
            frequency_mhz=bf_gpu.frequency_mhz,
            on_chip_memory=f"{bf_gpu.total_sram_kb:.0f} KB",
            technology=bf_gpu.technology.name,
            precision="2-16 bit fused",
        ),
    ]


def format_table(rows: list[PlatformRow]) -> str:
    from repro.harness.reporting import format_table as _format

    return _format(rows, title="Table III - evaluated platforms")


def render(benchmarks: tuple[str, ...] | None = None) -> str:
    """The report section: the platform table (independent of ``benchmarks``)."""
    del benchmarks
    return format_table(run())
