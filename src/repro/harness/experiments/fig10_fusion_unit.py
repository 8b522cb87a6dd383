"""Figure 10 — Fusion Unit versus temporal design, area and power.

The figure compares the synthesized area and power of the hybrid
spatio-temporal Fusion Unit against a purely temporal design with the same
number of 2-bit multipliers.  The reproduction reports the published
synthesis constants (the proprietary flow cannot be re-run) and, on top of
them, the derived same-area throughput advantage of spatial fusion that
motivates the design choice.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.temporal import TemporalDesignComparison, TemporalDesignModel
from repro.harness import paper_data
from repro.session import EvaluationSession

__all__ = ["FusionUnitRow", "render", "run", "run_throughput_advantage", "format_table"]


@dataclass(frozen=True)
class FusionUnitRow:
    """One component row of the Figure 10 comparison."""

    metric: str
    component: str
    temporal: float
    fusion_unit: float
    reduction: float

    def as_row(self) -> dict[str, object]:
        return {
            "metric": self.metric,
            "component": self.component,
            "temporal": self.temporal,
            "fusion unit": self.fusion_unit,
            "reduction": self.reduction,
        }


def run(session: EvaluationSession | None = None) -> list[FusionUnitRow]:
    """Build the Figure 10 area and power rows.

    ``session`` is accepted for harness uniformity; the rows derive from
    published synthesis constants, so no simulation is cached.
    """
    del session
    comparison = TemporalDesignComparison()
    rows: list[FusionUnitRow] = []
    for entry in comparison.area_rows():
        rows.append(
            FusionUnitRow(
                metric="area (um^2)",
                component=str(entry["component"]),
                temporal=float(entry["temporal_um2"]),
                fusion_unit=float(entry["fusion_um2"]),
                reduction=float(entry["reduction"]),
            )
        )
    for entry in comparison.power_rows():
        rows.append(
            FusionUnitRow(
                metric="power (nW)",
                component=str(entry["component"]),
                temporal=float(entry["temporal_nw"]),
                fusion_unit=float(entry["fusion_nw"]),
                reduction=float(entry["reduction"]),
            )
        )
    return rows


def run_throughput_advantage(
    compute_area_mm2: float = 1.1,
    bit_pairs: tuple[tuple[int, int], ...] = ((2, 2), (4, 4), (8, 8), (16, 16)),
) -> list[dict[str, float | str]]:
    """Same-area throughput of spatial fusion versus the temporal design."""
    model = TemporalDesignModel(compute_area_mm2=compute_area_mm2)
    rows: list[dict[str, float | str]] = []
    for input_bits, weight_bits in bit_pairs:
        rows.append(
            {
                "bitwidth": f"{input_bits}x{weight_bits}",
                "temporal MACs/cycle": model.temporal_macs_per_cycle(input_bits, weight_bits),
                "fusion MACs/cycle": model.fusion_macs_per_cycle(input_bits, weight_bits),
                "advantage": model.throughput_advantage(input_bits, weight_bits),
            }
        )
    return rows


def format_table(rows: list[FusionUnitRow]) -> str:
    from repro.harness.reporting import format_table as _format

    paper_area, paper_power = paper_data.FIG10_FUSION_VS_TEMPORAL
    table = _format(rows, title="Figure 10 - Fusion Unit vs temporal design")
    return (
        f"{table}\n"
        f"paper totals: {paper_area:.1f}x area reduction, {paper_power:.1f}x power reduction"
    )


def render(benchmarks: tuple[str, ...] | None = None) -> str:
    """The report section: area/power rows plus the same-area throughput table.

    The rows derive from synthesis constants, so ``benchmarks`` is ignored.
    """
    from repro.harness.reporting import format_table as _format

    del benchmarks
    advantage = _format(
        run_throughput_advantage(),
        title="Same-area throughput: spatial fusion vs temporal design",
    )
    return f"{format_table(run())}\n\n{advantage}"
