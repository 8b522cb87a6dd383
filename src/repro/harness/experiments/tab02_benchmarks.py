"""Table II — benchmark characteristics (multiply-adds and model size).

The table lists, for each of the eight benchmarks, its type, domain,
dataset, the number of multiply-add operations per inference and the model
weight footprint.  The reproduction reports the same columns from the model
zoo and places the paper's published numbers alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dnn import models
from repro.harness import paper_data
from repro.session import EvaluationSession

__all__ = ["BenchmarkRow", "render", "run", "format_table"]


@dataclass(frozen=True)
class BenchmarkRow:
    """One row of Table II, measured and published."""

    benchmark: str
    kind: str
    domain: str
    dataset: str
    macs_mops: float
    paper_macs_mops: float
    weights_mb: float
    paper_weights_mb: float
    layer_count: int

    def as_row(self) -> dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "type": self.kind,
            "dataset": self.dataset,
            "MACs (Mops)": self.macs_mops,
            "paper MACs": self.paper_macs_mops,
            "weights (MB)": self.weights_mb,
            "paper weights": self.paper_weights_mb,
            "layers": self.layer_count,
        }


def run(
    benchmarks: tuple[str, ...] | None = None,
    session: EvaluationSession | None = None,
) -> list[BenchmarkRow]:
    """Build the Table II rows from the model zoo.

    ``session`` is accepted for harness uniformity; the table is pure
    network statistics, so no simulation is cached.
    """
    del session
    names = benchmarks if benchmarks is not None else tuple(models.benchmark_names())
    rows: list[BenchmarkRow] = []
    for name in names:
        info = models.BENCHMARKS[name]
        network = info.build()
        rows.append(
            BenchmarkRow(
                benchmark=name,
                kind=info.kind,
                domain=info.domain,
                dataset=info.dataset,
                macs_mops=network.total_macs() / 1e6,
                paper_macs_mops=float(paper_data.TABLE2_MACS_MOPS[name]),
                weights_mb=network.total_weight_bytes() / 1e6,
                paper_weights_mb=paper_data.TABLE2_WEIGHTS_MB[name],
                layer_count=len(network),
            )
        )
    return rows


def format_table(rows: list[BenchmarkRow]) -> str:
    from repro.harness.reporting import format_table as _format

    return _format(rows, title="Table II - evaluated CNN/RNN benchmarks")


def render(benchmarks: tuple[str, ...] | None = None) -> str:
    """The report section: the Table II rows of ``benchmarks``."""
    return format_table(run(benchmarks=benchmarks))
