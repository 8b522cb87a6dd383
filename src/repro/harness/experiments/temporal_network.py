"""Section III-C — whole-network comparison against the temporal design.

Figure 10 compares the spatial Fusion Unit against the temporal bit-serial
unit at the level of one multiply-accumulate (area, power, and same-area
peak throughput).  This experiment extends the comparison to the full
benchmark networks: the whole-network temporal platform,
:data:`~repro.baselines.platform.TEMPORAL`, is priced by the same
per-layer path as Eyeriss and Stripes and runs through the same cached
evaluation session as every other platform, and the table
reports how much faster (and more energy-efficient) the Eyeriss-matched
Bit Fusion design is than a same-area temporal design on each benchmark.

Because both designs execute layers at their quantized bitwidths, the gap
here isolates the cost of *temporal* bit-flexibility itself — the per-unit
shifter and wide accumulator that spatial fusion amortizes across the
BitBrick array.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dnn import models
from repro.session import EvaluationSession, Workload, resolve_session
from repro.session.workload import DEFAULT_BATCH_SIZE
from repro.sim.stats import geometric_mean

__all__ = ["TemporalComparisonRow", "TemporalComparisonSummary", "render", "run", "format_table"]


@dataclass(frozen=True)
class TemporalComparisonRow:
    """Per-benchmark comparison of Bit Fusion against the temporal design."""

    benchmark: str
    temporal_latency_ms: float
    bitfusion_latency_ms: float
    speedup: float
    energy_reduction: float

    def as_row(self) -> dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "temporal ms/inf": self.temporal_latency_ms,
            "bitfusion ms/inf": self.bitfusion_latency_ms,
            "speedup": self.speedup,
            "energy reduction": self.energy_reduction,
        }


@dataclass(frozen=True)
class TemporalComparisonSummary:
    rows: tuple[TemporalComparisonRow, ...]
    geomean_speedup: float
    geomean_energy_reduction: float


def run(
    batch_size: int = DEFAULT_BATCH_SIZE,
    benchmarks: tuple[str, ...] | None = None,
    session: EvaluationSession | None = None,
) -> TemporalComparisonSummary:
    """Run every benchmark on the temporal design and on Bit Fusion.

    Both platforms go through one :meth:`~repro.session.session.
    EvaluationSession.run_many` batch, so the Bit Fusion points dedupe
    against the other experiments' default workloads and the temporal runs
    are cached for any future comparison.
    """
    names = benchmarks if benchmarks is not None else tuple(models.benchmark_names())
    session = resolve_session(session)
    results = session.run_many(
        [Workload.temporal(name, batch_size=batch_size) for name in names]
        + [Workload.bitfusion(name, batch_size=batch_size) for name in names]
    )
    temporal_results, bf_results = results[: len(names)], results[len(names) :]

    rows = tuple(
        TemporalComparisonRow(
            benchmark=name,
            temporal_latency_ms=temporal.latency_per_inference_s * 1e3,
            bitfusion_latency_ms=bitfusion.latency_per_inference_s * 1e3,
            speedup=bitfusion.speedup_over(temporal),
            energy_reduction=bitfusion.energy_reduction_over(temporal),
        )
        for name, temporal, bitfusion in zip(names, temporal_results, bf_results)
    )
    return TemporalComparisonSummary(
        rows=rows,
        geomean_speedup=geometric_mean([row.speedup for row in rows]),
        geomean_energy_reduction=geometric_mean([row.energy_reduction for row in rows]),
    )


def format_table(summary: TemporalComparisonSummary) -> str:
    from repro.harness.reporting import format_table as _format

    table = _format(
        summary.rows,
        title="Section III-C - whole-network comparison vs the temporal design",
    )
    return (
        f"{table}\n"
        f"geomean speedup {summary.geomean_speedup:.2f}, "
        f"geomean energy reduction {summary.geomean_energy_reduction:.2f} "
        f"(same-area temporal design, quantized bitwidths on both platforms)"
    )


def render(benchmarks: tuple[str, ...] | None = None) -> str:
    """The report section: the whole-network temporal comparison over ``benchmarks``."""
    return format_table(run(benchmarks=benchmarks))
