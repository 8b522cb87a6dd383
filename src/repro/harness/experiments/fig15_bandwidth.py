"""Figure 15 — sensitivity of Bit Fusion performance to off-chip bandwidth.

The default configuration provides 128 bits/cycle; the sweep scales it from
0.25x to 4x.  In the paper every benchmark is still bandwidth-bound at 128
bits/cycle: doubling it to 256 speeds the CNNs up 1.66-2.00x (four of six
read at least 1.96x), and only past 256 do they fall behind the recurrent
benchmarks (LSTM, RNN), which scale linearly all the way to 512.  Our CNNs
saturate earlier, so their rows above 128 bits/cycle sit below the
paper's; ROADMAP item 1 traces that gap to Bit Fusion's own memory model.

The scan is one :meth:`~repro.session.session.EvaluationSession.run_many`
batch of ``Workload.bitfusion`` points whose configurations are
``BitFusionConfig.eyeriss_matched(bandwidth)``; the 128
bits/cycle point fingerprints exactly like Figure 13's default workload.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import BitFusionConfig
from repro.dnn import models
from repro.harness import paper_data
from repro.session import EvaluationSession, Workload, resolve_session
from repro.session.workload import DEFAULT_BATCH_SIZE

__all__ = ["BandwidthRow", "DEFAULT_BANDWIDTHS", "render", "run", "format_table"]

#: Bandwidths swept by the paper, in bits per cycle.
DEFAULT_BANDWIDTHS = (32, 64, 128, 256, 512)

#: The baseline bandwidth all speedups are normalized to.
REFERENCE_BANDWIDTH = 128


@dataclass(frozen=True)
class BandwidthRow:
    """One benchmark's normalized performance across the bandwidth sweep."""

    benchmark: str
    speedup_by_bandwidth: dict[int, float]
    paper_speedup_by_bandwidth: dict[int, float]

    def as_row(self) -> dict[str, object]:
        row: dict[str, object] = {"benchmark": self.benchmark}
        for bandwidth, value in sorted(self.speedup_by_bandwidth.items()):
            row[f"{bandwidth} b/c"] = value
        return row


def run(
    batch_size: int = DEFAULT_BATCH_SIZE,
    bandwidths: tuple[int, ...] = DEFAULT_BANDWIDTHS,
    benchmarks: tuple[str, ...] | None = None,
    session: EvaluationSession | None = None,
) -> list[BandwidthRow]:
    """Sweep the off-chip bandwidth and normalize to the 128 bits/cycle default.

    The scan is one :meth:`EvaluationSession.run_many` batch over every
    (benchmark, bandwidth) point; the 128 bits/cycle points are Figure 13's
    default workloads, so the session serves them from its cache when
    another experiment already ran them.
    """
    if REFERENCE_BANDWIDTH not in bandwidths:
        raise ValueError(
            f"the sweep must include the reference bandwidth {REFERENCE_BANDWIDTH}"
        )
    names = benchmarks if benchmarks is not None else tuple(models.benchmark_names())
    workloads = [
        Workload.bitfusion(
            name,
            batch_size=batch_size,
            config=BitFusionConfig.eyeriss_matched(bandwidth),
        )
        for name in names
        for bandwidth in bandwidths
    ]
    results = iter(resolve_session(session).run_many(workloads))

    rows: list[BandwidthRow] = []
    for name in names:
        latency_by_bandwidth = {
            bandwidth: next(results).latency_per_inference_s for bandwidth in bandwidths
        }
        reference = latency_by_bandwidth[REFERENCE_BANDWIDTH]
        rows.append(
            BandwidthRow(
                benchmark=name,
                speedup_by_bandwidth={
                    bandwidth: reference / latency
                    for bandwidth, latency in latency_by_bandwidth.items()
                },
                paper_speedup_by_bandwidth=dict(
                    paper_data.FIG15_BANDWIDTH_SPEEDUP.get(name, {})
                ),
            )
        )
    return rows


def format_table(rows: list[BandwidthRow]) -> str:
    from repro.harness.reporting import format_table as _format

    return _format(
        rows, title="Figure 15 - speedup vs off-chip bandwidth (normalized to 128 bits/cycle)"
    )


def render(benchmarks: tuple[str, ...] | None = None) -> str:
    """The report section: the Figure 15 bandwidth sweep over ``benchmarks``."""
    return format_table(run(benchmarks=benchmarks))
