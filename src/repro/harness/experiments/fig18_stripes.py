"""Figure 18 — Bit Fusion performance and energy improvements over Stripes.

Methodology (Section V-B4): the 4,096 bit-serial SIPs in each of Stripes'
16 tiles are replaced by a 512-Fusion-Unit systolic array in the same
compute-area budget, at Stripes' 980 MHz clock and with the same on-chip
storage.  Stripes exploits reduced precision only for weights (its inputs
stay at 16 bits), so benchmarks with low *input* bitwidths are where Bit
Fusion pulls ahead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import BitFusionConfig
from repro.dnn import models
from repro.harness import paper_data
from repro.session import EvaluationSession, Workload, resolve_session
from repro.session.workload import DEFAULT_BATCH_SIZE
from repro.sim.stats import geometric_mean

__all__ = ["StripesComparisonRow", "StripesComparisonSummary", "render", "run", "format_table"]


@dataclass(frozen=True)
class StripesComparisonRow:
    """Per-benchmark speedup and energy reduction over Stripes."""

    benchmark: str
    speedup: float
    paper_speedup: float
    energy_reduction: float
    paper_energy_reduction: float

    def as_row(self) -> dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "speedup": self.speedup,
            "paper speedup": self.paper_speedup,
            "energy reduction": self.energy_reduction,
            "paper energy red.": self.paper_energy_reduction,
        }


@dataclass(frozen=True)
class StripesComparisonSummary:
    rows: tuple[StripesComparisonRow, ...]
    geomean_speedup: float
    geomean_energy_reduction: float
    paper_geomean_speedup: float
    paper_geomean_energy_reduction: float


def run(
    batch_size: int = DEFAULT_BATCH_SIZE,
    benchmarks: tuple[str, ...] | None = None,
    session: EvaluationSession | None = None,
) -> StripesComparisonSummary:
    """Run every benchmark on the Stripes-matched Bit Fusion and on Stripes."""
    names = benchmarks if benchmarks is not None else tuple(models.benchmark_names())
    session = resolve_session(session)
    stripes_matched = BitFusionConfig.stripes_matched()
    results = session.run_many(
        [
            Workload.bitfusion(name, batch_size=batch_size, config=stripes_matched)
            for name in names
        ]
        + [Workload.stripes(name, batch_size=batch_size) for name in names]
    )
    bf_results, stripes_results = results[: len(names)], results[len(names) :]

    rows: list[StripesComparisonRow] = []
    for name, bf_result, stripes_result in zip(names, bf_results, stripes_results):
        rows.append(
            StripesComparisonRow(
                benchmark=name,
                speedup=bf_result.speedup_over(stripes_result),
                paper_speedup=paper_data.FIG18_SPEEDUP_OVER_STRIPES[name],
                energy_reduction=bf_result.energy_reduction_over(stripes_result),
                paper_energy_reduction=paper_data.FIG18_ENERGY_REDUCTION_OVER_STRIPES[name],
            )
        )

    paper_speed, paper_energy = paper_data.FIG18_GEOMEAN
    return StripesComparisonSummary(
        rows=tuple(rows),
        geomean_speedup=geometric_mean([row.speedup for row in rows]),
        geomean_energy_reduction=geometric_mean([row.energy_reduction for row in rows]),
        paper_geomean_speedup=paper_speed,
        paper_geomean_energy_reduction=paper_energy,
    )


def format_table(summary: StripesComparisonSummary) -> str:
    from repro.harness.reporting import format_table as _format

    table = _format(summary.rows, title="Figure 18 - improvement over Stripes")
    return (
        f"{table}\n"
        f"geomean speedup {summary.geomean_speedup:.2f} "
        f"(paper {summary.paper_geomean_speedup:.1f}), "
        f"geomean energy reduction {summary.geomean_energy_reduction:.2f} "
        f"(paper {summary.paper_geomean_energy_reduction:.1f})"
    )


def render(benchmarks: tuple[str, ...] | None = None) -> str:
    """The report section: the Figure 18 Stripes comparison over ``benchmarks``."""
    return format_table(run(benchmarks=benchmarks))
