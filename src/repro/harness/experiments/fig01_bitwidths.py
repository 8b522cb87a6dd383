"""Figure 1 — bitwidth variation across the benchmark DNNs.

Figure 1(a) plots, for each benchmark, the fraction of multiply-add
operations at each (input, weight) bitwidth pair; Figure 1(b) plots the
fraction of weights stored at each bitwidth; the embedded table reports the
fraction of all operations that are multiply-adds (>99% everywhere).  All
three derive directly from the model zoo's layer shapes and per-layer
bitwidth declarations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dnn import models
from repro.session import EvaluationSession

__all__ = ["BitwidthRow", "render", "run", "format_table"]


@dataclass(frozen=True)
class BitwidthRow:
    """One benchmark's bitwidth profile.

    Attributes
    ----------
    benchmark:
        Benchmark name.
    mac_fraction_by_bits:
        ``{(input_bits, weight_bits): fraction}`` of multiply-adds.
    weight_fraction_by_bits:
        ``{weight_bits: fraction}`` of stored weights.
    dominant_bits:
        The (input, weight) pair carrying the largest multiply-add share.
    macs_at_or_below_4bit:
        Fraction of multiply-adds whose operands are both four bits or fewer.
    mac_op_fraction:
        Fraction of all operations that are multiply-adds (Figure 1 table).
    """

    benchmark: str
    mac_fraction_by_bits: dict[tuple[int, int], float]
    weight_fraction_by_bits: dict[int, float]
    dominant_bits: tuple[int, int]
    macs_at_or_below_4bit: float
    mac_op_fraction: float

    def as_row(self) -> dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "dominant (in/wt)": f"{self.dominant_bits[0]}/{self.dominant_bits[1]}",
            "MACs <= 4 bits": self.macs_at_or_below_4bit,
            "MAC share of ops": self.mac_op_fraction,
        }


def run(
    benchmarks: tuple[str, ...] | None = None,
    session: EvaluationSession | None = None,
) -> list[BitwidthRow]:
    """Compute the Figure 1 bitwidth profiles for the selected benchmarks.

    ``session`` is accepted for harness uniformity; this experiment derives
    everything from the network structures and performs no simulation, so
    there is nothing for the session to cache.
    """
    del session
    names = benchmarks if benchmarks is not None else tuple(models.benchmark_names())
    rows: list[BitwidthRow] = []
    for name in names:
        network = models.load(name)
        profile = network.bitwidth_profile()
        dominant = max(profile.mac_fraction, key=profile.mac_fraction.get)
        rows.append(
            BitwidthRow(
                benchmark=name,
                mac_fraction_by_bits=dict(profile.mac_fraction),
                weight_fraction_by_bits=dict(profile.weight_fraction),
                dominant_bits=dominant,
                macs_at_or_below_4bit=profile.macs_at_or_below(4),
                mac_op_fraction=network.mac_fraction(),
            )
        )
    return rows


def format_table(rows: list[BitwidthRow]) -> str:
    """Render the Figure 1 summary as a text table."""
    from repro.harness.reporting import format_table as _format

    return _format(rows, title="Figure 1 - bitwidth variation across benchmarks")


def render(benchmarks: tuple[str, ...] | None = None) -> str:
    """The report section: the Figure 1 table over ``benchmarks``."""
    return format_table(run(benchmarks=benchmarks))
