"""Section IV — Fusion-ISA instruction-block statistics.

The paper claims that blocks of 30-86 instructions suffice to express the
LSTM, CNN, pooling and fully-connected layers of the evaluated benchmarks,
which keeps the von Neumann overhead negligible because each block is
fetched and decoded once per layer.  This experiment compiles every
benchmark and reports per-block instruction counts and binary footprints.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import BitFusionConfig
from repro.dnn import models
from repro.harness import paper_data
from repro.session import EvaluationSession, Workload, resolve_session

__all__ = ["IsaStatsRow", "render", "run", "format_table"]


@dataclass(frozen=True)
class IsaStatsRow:
    """Instruction-count statistics for one compiled benchmark."""

    benchmark: str
    blocks: int
    min_instructions: int
    max_instructions: int
    mean_instructions: float
    total_instructions: int
    binary_bytes: int

    def as_row(self) -> dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "blocks": self.blocks,
            "min instrs": self.min_instructions,
            "max instrs": self.max_instructions,
            "mean instrs": self.mean_instructions,
            "total instrs": self.total_instructions,
            "binary bytes": self.binary_bytes,
        }


def run(
    batch_size: int = 16,
    benchmarks: tuple[str, ...] | None = None,
    config: BitFusionConfig | None = None,
    session: EvaluationSession | None = None,
) -> list[IsaStatsRow]:
    """Compile every benchmark and collect per-block instruction statistics.

    Compilation goes through the session's :meth:`~repro.session.session.
    EvaluationSession.compile_stats`, so a report that already simulated a
    benchmark reuses its memoized program instead of recompiling it.
    """
    names = benchmarks if benchmarks is not None else tuple(models.benchmark_names())
    session = resolve_session(session)
    rows: list[IsaStatsRow] = []
    for name in names:
        stats = session.compile_stats(
            Workload.bitfusion(name, batch_size=batch_size, config=config)
        )
        counts = stats.block_instruction_counts
        rows.append(
            IsaStatsRow(
                benchmark=name,
                blocks=stats.blocks,
                min_instructions=min(counts),
                max_instructions=max(counts),
                mean_instructions=sum(counts) / len(counts),
                total_instructions=stats.total_instructions,
                binary_bytes=stats.binary_bytes,
            )
        )
    return rows


def format_table(rows: list[IsaStatsRow]) -> str:
    from repro.harness.reporting import format_table as _format

    low, high = paper_data.ISA_BLOCK_INSTRUCTION_RANGE
    table = _format(rows, title="Fusion-ISA block statistics (Section IV)")
    return f"{table}\npaper: {low}-{high} instructions per block for the evaluated layers"


def render(benchmarks: tuple[str, ...] | None = None) -> str:
    """The report section: the ISA block statistics of ``benchmarks``."""
    return format_table(run(benchmarks=benchmarks))
