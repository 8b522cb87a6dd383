"""Figure 17 — performance comparison with GPUs.

Bit Fusion is scaled to the GPUs' 16 nm node (4,096 Fusion Units, same
500 MHz clock) and compared against the Tegra X2 (FP32) and the Titan Xp in
both FP32 and INT8 modes, all normalized to the Tegra X2.  The regular
(non-widened) AlexNet and ResNet-18 models run on the GPUs, mirroring the
Eyeriss methodology.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import BitFusionConfig
from repro.baselines.gpu import GpuPrecision, TEGRA_X2, TITAN_XP
from repro.dnn import models
from repro.harness import paper_data
from repro.session import EvaluationSession, Workload, resolve_session
from repro.session.workload import DEFAULT_BATCH_SIZE
from repro.sim.stats import geometric_mean

__all__ = ["GpuComparisonRow", "GpuComparisonSummary", "render", "run", "format_table"]


@dataclass(frozen=True)
class GpuComparisonRow:
    """Speedups over the Tegra X2 baseline for one benchmark."""

    benchmark: str
    titanx_fp32: float
    titanx_int8: float
    bitfusion: float
    paper_titanx_fp32: float | None
    paper_titanx_int8: float | None
    paper_bitfusion: float | None
    bitfusion_power_w: float

    def as_row(self) -> dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "TitanX FP32": self.titanx_fp32,
            "TitanX INT8": self.titanx_int8,
            "Bit Fusion": self.bitfusion,
            "paper FP32": self.paper_titanx_fp32,
            "paper INT8": self.paper_titanx_int8,
            "paper BF": self.paper_bitfusion,
            "BF power (W)": self.bitfusion_power_w,
        }


@dataclass(frozen=True)
class GpuComparisonSummary:
    """Per-benchmark rows plus geometric means over the Tegra X2 baseline."""

    rows: tuple[GpuComparisonRow, ...]
    geomean_titanx_fp32: float
    geomean_titanx_int8: float
    geomean_bitfusion: float


def run(
    batch_size: int = DEFAULT_BATCH_SIZE,
    benchmarks: tuple[str, ...] | None = None,
    session: EvaluationSession | None = None,
) -> GpuComparisonSummary:
    """Run the GPU comparison at the 16 nm Bit Fusion scale point."""
    names = benchmarks if benchmarks is not None else tuple(models.benchmark_names())
    session = resolve_session(session)
    per_name = [
        (
            Workload.gpu(name, TEGRA_X2, GpuPrecision.FP32, batch_size=batch_size),
            Workload.gpu(name, TITAN_XP, GpuPrecision.FP32, batch_size=batch_size),
            Workload.gpu(name, TITAN_XP, GpuPrecision.INT8, batch_size=batch_size),
            Workload.bitfusion(
                name, batch_size=batch_size, config=BitFusionConfig.gpu_scaled_16nm()
            ),
        )
        for name in names
    ]
    results = session.run_many([w for group in per_name for w in group])

    rows: list[GpuComparisonRow] = []
    for index, name in enumerate(names):
        tx2_result, fp32_result, int8_result, bf_result = results[4 * index : 4 * index + 4]
        paper = paper_data.FIG17_SPEEDUP_OVER_TX2.get(name, {})
        rows.append(
            GpuComparisonRow(
                benchmark=name,
                titanx_fp32=fp32_result.speedup_over(tx2_result),
                titanx_int8=int8_result.speedup_over(tx2_result),
                bitfusion=bf_result.speedup_over(tx2_result),
                paper_titanx_fp32=paper.get("titanx-fp32"),
                paper_titanx_int8=paper.get("titanx-int8"),
                paper_bitfusion=paper.get("bitfusion"),
                bitfusion_power_w=bf_result.average_power_w,
            )
        )

    return GpuComparisonSummary(
        rows=tuple(rows),
        geomean_titanx_fp32=geometric_mean([row.titanx_fp32 for row in rows]),
        geomean_titanx_int8=geometric_mean([row.titanx_int8 for row in rows]),
        geomean_bitfusion=geometric_mean([row.bitfusion for row in rows]),
    )


def format_table(summary: GpuComparisonSummary) -> str:
    from repro.harness.reporting import format_table as _format

    paper = paper_data.FIG17_SPEEDUP_OVER_TX2["geomean"]
    table = _format(summary.rows, title="Figure 17 - speedup over Tegra X2")
    return (
        f"{table}\n"
        f"geomean: TitanX FP32 {summary.geomean_titanx_fp32:.1f}x "
        f"(paper {paper['titanx-fp32']:.0f}x), "
        f"TitanX INT8 {summary.geomean_titanx_int8:.1f}x (paper {paper['titanx-int8']:.0f}x), "
        f"Bit Fusion {summary.geomean_bitfusion:.1f}x (paper {paper['bitfusion']:.0f}x)"
    )


def render(benchmarks: tuple[str, ...] | None = None) -> str:
    """The report section: the Figure 17 GPU comparison over ``benchmarks``."""
    return format_table(run(benchmarks=benchmarks))
