"""Figure 16 — sensitivity of Bit Fusion performance to batch size.

Batching amortizes weight reads across inputs.  The paper sweeps batch sizes
1 through 256 (default 16) and observes that the bandwidth-bound recurrent
benchmarks gain more than 20x while the convolutional benchmarks, which
already reuse weights across spatial positions, gain less than 1.6x; gains
flatten beyond batch 64 once the bandwidth suffices to keep the Fusion Units
busy.

The scan is one :meth:`~repro.session.session.EvaluationSession.run_many`
batch of default ``Workload.bitfusion`` points, one per (benchmark, batch
size); the batch-16 point is the other experiments' default workload.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dnn import models
from repro.harness import paper_data
from repro.session import EvaluationSession, Workload, resolve_session

__all__ = ["BatchRow", "DEFAULT_BATCH_SIZES", "render", "run", "format_table"]

#: Batch sizes swept by the paper.
DEFAULT_BATCH_SIZES = (1, 4, 16, 64, 256)


@dataclass(frozen=True)
class BatchRow:
    """One benchmark's per-inference speedup across the batch sweep."""

    benchmark: str
    speedup_by_batch: dict[int, float]
    paper_speedup_by_batch: dict[int, float]

    def as_row(self) -> dict[str, object]:
        row: dict[str, object] = {"benchmark": self.benchmark}
        for batch, value in sorted(self.speedup_by_batch.items()):
            row[f"batch {batch}"] = value
        return row


def run(
    batch_sizes: tuple[int, ...] = DEFAULT_BATCH_SIZES,
    benchmarks: tuple[str, ...] | None = None,
    session: EvaluationSession | None = None,
) -> list[BatchRow]:
    """Sweep the batch size and normalize per-inference latency to batch 1.

    One :meth:`EvaluationSession.run_many` batch over every (benchmark,
    batch size) point; the batch-16 points are the other experiments'
    default workloads, so the shared session cache serves them.
    """
    if 1 not in batch_sizes:
        raise ValueError("the sweep must include batch size 1 (the normalization baseline)")
    names = benchmarks if benchmarks is not None else tuple(models.benchmark_names())
    workloads = [
        Workload.bitfusion(name, batch_size=batch) for name in names for batch in batch_sizes
    ]
    results = iter(resolve_session(session).run_many(workloads))

    rows: list[BatchRow] = []
    for name in names:
        latency_by_batch = {
            batch: next(results).latency_per_inference_s for batch in batch_sizes
        }
        reference = latency_by_batch[1]
        rows.append(
            BatchRow(
                benchmark=name,
                speedup_by_batch={
                    batch: reference / latency for batch, latency in latency_by_batch.items()
                },
                paper_speedup_by_batch=dict(paper_data.FIG16_BATCH_SPEEDUP.get(name, {})),
            )
        )
    return rows


def format_table(rows: list[BatchRow]) -> str:
    from repro.harness.reporting import format_table as _format

    return _format(rows, title="Figure 16 - speedup vs batch size (normalized to batch 1)")


def render(benchmarks: tuple[str, ...] | None = None) -> str:
    """The report section: the Figure 16 batch sweep over ``benchmarks``."""
    return format_table(run(benchmarks=benchmarks))
