"""Figure 13 — Bit Fusion performance and energy improvements over Eyeriss.

Methodology (Section V-A/V-B1): both accelerators get the same compute-area
budget, the same 500 MHz clock and the same 45 nm node; AlexNet and
ResNet-18 run their regular models on Eyeriss and their widened quantized
models on Bit Fusion (which is why those two see the smallest gains).  The
experiment also reproduces the per-layer AlexNet breakdown embedded in the
figure's data (convolution and fully-connected layers grouped by bitwidth).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import BitFusionConfig
from repro.dnn import models
from repro.harness import paper_data
from repro.session import EvaluationSession, Workload, resolve_session
from repro.sim.results import NetworkResult
from repro.sim.stats import geometric_mean

__all__ = [
    "EyerissComparisonRow",
    "ComparisonSummary",
    "render",
    "run",
    "run_alexnet_per_layer",
    "format_table",
]


@dataclass(frozen=True)
class EyerissComparisonRow:
    """Per-benchmark speedup and energy reduction over Eyeriss."""

    benchmark: str
    speedup: float
    paper_speedup: float
    energy_reduction: float
    paper_energy_reduction: float
    bitfusion_ms_per_inference: float
    eyeriss_ms_per_inference: float

    def as_row(self) -> dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "speedup": self.speedup,
            "paper speedup": self.paper_speedup,
            "energy reduction": self.energy_reduction,
            "paper energy red.": self.paper_energy_reduction,
            "BF ms/inf": self.bitfusion_ms_per_inference,
            "Eyeriss ms/inf": self.eyeriss_ms_per_inference,
        }


@dataclass(frozen=True)
class ComparisonSummary:
    """Rows plus geometric means for one accelerator-vs-accelerator figure."""

    rows: tuple[EyerissComparisonRow, ...]
    geomean_speedup: float
    geomean_energy_reduction: float
    paper_geomean_speedup: float
    paper_geomean_energy_reduction: float


def run(
    batch_size: int = 16,
    benchmarks: tuple[str, ...] | None = None,
    config: BitFusionConfig | None = None,
    session: EvaluationSession | None = None,
) -> ComparisonSummary:
    """Run every benchmark on Bit Fusion and Eyeriss and compare."""
    names = benchmarks if benchmarks is not None else tuple(models.benchmark_names())
    session = resolve_session(session)
    workloads = [
        Workload.bitfusion(name, batch_size=batch_size, config=config) for name in names
    ] + [Workload.eyeriss(name, batch_size=batch_size) for name in names]
    results = session.run_many(workloads)
    bf_results, ey_results = results[: len(names)], results[len(names) :]

    rows: list[EyerissComparisonRow] = []
    for name, bf_result, ey_result in zip(names, bf_results, ey_results):
        rows.append(
            EyerissComparisonRow(
                benchmark=name,
                speedup=bf_result.speedup_over(ey_result),
                paper_speedup=paper_data.FIG13_SPEEDUP_OVER_EYERISS[name],
                energy_reduction=bf_result.energy_reduction_over(ey_result),
                paper_energy_reduction=paper_data.FIG13_ENERGY_REDUCTION_OVER_EYERISS[name],
                bitfusion_ms_per_inference=bf_result.latency_per_inference_s * 1e3,
                eyeriss_ms_per_inference=ey_result.latency_per_inference_s * 1e3,
            )
        )

    paper_speed, paper_energy = paper_data.FIG13_GEOMEAN
    return ComparisonSummary(
        rows=tuple(rows),
        geomean_speedup=geometric_mean([row.speedup for row in rows]),
        geomean_energy_reduction=geometric_mean([row.energy_reduction for row in rows]),
        paper_geomean_speedup=paper_speed,
        paper_geomean_energy_reduction=paper_energy,
    )


def run_alexnet_per_layer(
    batch_size: int = 16, session: EvaluationSession | None = None
) -> list[dict[str, object]]:
    """Per-layer-group AlexNet improvement over Eyeriss (Figure 13 aux data).

    Layers are grouped the way the paper's embedded table groups them: the
    8-bit convolution (conv1), the 4-bit/1-bit convolutions, the 4-bit/1-bit
    fully-connected layers, and the 8-bit classifier.
    """
    session = resolve_session(session)
    bf_result, ey_result = session.run_many(
        [
            Workload.bitfusion("AlexNet", batch_size=batch_size),
            Workload.eyeriss("AlexNet", batch_size=batch_size),
        ]
    )

    def _group(result: NetworkResult, wide: bool) -> dict[str, tuple[float, float]]:
        groups: dict[str, tuple[float, float]] = {}
        for layer in result.layers:
            base_name = layer.name.split("+")[0]
            if base_name.startswith("conv"):
                kind = "conv"
            elif base_name.startswith("fc"):
                kind = "fc"
            else:
                continue
            if wide:
                bits = "8/8-bit" if layer.input_bits == 8 else "4/1-bit"
            else:
                bits = "8/8-bit" if base_name in ("conv1", "fc8") else "4/1-bit"
            key = f"{kind} {bits}"
            cycles, energy = groups.get(key, (0.0, 0.0))
            groups[key] = (cycles + layer.total_cycles, energy + layer.energy.total)
        return groups

    bf_groups = _group(bf_result, wide=True)
    ey_groups = _group(ey_result, wide=False)

    rows: list[dict[str, object]] = []
    for key in ("conv 8/8-bit", "conv 4/1-bit", "fc 4/1-bit", "fc 8/8-bit"):
        if key not in bf_groups or key not in ey_groups:
            continue
        bf_cycles, bf_energy = bf_groups[key]
        ey_cycles, ey_energy = ey_groups[key]
        bf_time = bf_cycles / (bf_result.frequency_mhz * 1e6)
        ey_time = ey_cycles / (ey_result.frequency_mhz * 1e6)
        paper_speed, paper_energy = paper_data.FIG13_ALEXNET_PER_LAYER.get(key, (None, None))
        rows.append(
            {
                "layer group": key,
                "speedup": ey_time / bf_time if bf_time else float("inf"),
                "paper speedup": paper_speed,
                "energy reduction": ey_energy / bf_energy if bf_energy else float("inf"),
                "paper energy red.": paper_energy,
            }
        )
    return rows


def format_table(summary: ComparisonSummary) -> str:
    from repro.harness.reporting import format_table as _format

    table = _format(summary.rows, title="Figure 13 - improvement over Eyeriss")
    return (
        f"{table}\n"
        f"geomean speedup {summary.geomean_speedup:.2f} (paper {summary.paper_geomean_speedup:.1f}), "
        f"geomean energy reduction {summary.geomean_energy_reduction:.2f} "
        f"(paper {summary.paper_geomean_energy_reduction:.1f})"
    )


def render(benchmarks: tuple[str, ...] | None = None) -> str:
    """The report section: the Figure 13 summary plus AlexNet per layer group."""
    from repro.harness.reporting import format_table as _format

    summary = run(benchmarks=benchmarks)
    per_layer = _format(
        run_alexnet_per_layer(),
        title="AlexNet per-layer improvement over Eyeriss",
    )
    return f"{format_table(summary)}\n\n{per_layer}"
