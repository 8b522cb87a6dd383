"""Figure 14 — energy breakdown of Bit Fusion and Eyeriss.

The figure splits each accelerator's energy per benchmark into compute,
on-chip buffers, register file and DRAM.  Two properties carry the paper's
argument and are what the acceptance checks look for:

* memory (buffers + DRAM) dominates both accelerators (>80% of energy), and
* Eyeriss spends over half its energy in per-PE register files, a component
  Bit Fusion's systolic organization eliminates entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dnn import models
from repro.harness import paper_data
from repro.session import EvaluationSession, Workload, resolve_session
from repro.session.workload import DEFAULT_BATCH_SIZE

__all__ = ["BreakdownRow", "render", "run", "format_table"]


@dataclass(frozen=True)
class BreakdownRow:
    """Energy fractions of one platform on one benchmark."""

    benchmark: str
    platform: str
    compute: float
    buffers: float
    register_file: float
    dram: float
    paper_compute: float | None = None
    paper_buffers: float | None = None
    paper_register_file: float | None = None
    paper_dram: float | None = None

    def as_row(self) -> dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "platform": self.platform,
            "compute": self.compute,
            "buffers": self.buffers,
            "register file": self.register_file,
            "DRAM": self.dram,
        }


def run(
    batch_size: int = DEFAULT_BATCH_SIZE,
    benchmarks: tuple[str, ...] | None = None,
    session: EvaluationSession | None = None,
) -> list[BreakdownRow]:
    """Compute the per-component energy fractions for both accelerators."""
    names = benchmarks if benchmarks is not None else tuple(models.benchmark_names())
    session = resolve_session(session)
    results = session.run_many(
        [Workload.bitfusion(name, batch_size=batch_size) for name in names]
        + [Workload.eyeriss(name, batch_size=batch_size) for name in names]
    )
    bf_results, ey_results = results[: len(names)], results[len(names) :]

    rows: list[BreakdownRow] = []
    for name, bf_result, ey_result in zip(names, bf_results, ey_results):
        bf_fraction = bf_result.energy.fractions()
        ey_fraction = ey_result.energy.fractions()
        paper_bf = paper_data.FIG14_BITFUSION_FRACTIONS.get(name)
        paper_ey = paper_data.FIG14_EYERISS_FRACTIONS.get(name)
        rows.append(
            BreakdownRow(
                benchmark=name,
                platform="bitfusion",
                compute=bf_fraction["compute"],
                buffers=bf_fraction["buffers"],
                register_file=bf_fraction["register_file"],
                dram=bf_fraction["dram"],
                paper_compute=paper_bf[0] if paper_bf else None,
                paper_buffers=paper_bf[1] if paper_bf else None,
                paper_register_file=paper_bf[2] if paper_bf else None,
                paper_dram=paper_bf[3] if paper_bf else None,
            )
        )
        rows.append(
            BreakdownRow(
                benchmark=name,
                platform="eyeriss",
                compute=ey_fraction["compute"],
                buffers=ey_fraction["buffers"],
                register_file=ey_fraction["register_file"],
                dram=ey_fraction["dram"],
                paper_compute=paper_ey[0] if paper_ey else None,
                paper_buffers=paper_ey[1] if paper_ey else None,
                paper_register_file=paper_ey[2] if paper_ey else None,
                paper_dram=paper_ey[3] if paper_ey else None,
            )
        )
    return rows


def format_table(rows: list[BreakdownRow]) -> str:
    from repro.harness.reporting import format_table as _format

    return _format(rows, title="Figure 14 - energy breakdown (fractions of total)")


def render(benchmarks: tuple[str, ...] | None = None) -> str:
    """The report section: the Figure 14 breakdown over ``benchmarks``."""
    return format_table(run(benchmarks=benchmarks))
