"""Ablations of the design choices DESIGN.md calls out.

The paper motivates three mechanisms beyond raw bit-level fusion; these
ablations quantify each one on the reproduction's simulator:

* **Loop ordering** (Section IV-B) — disable the output/weight/input
  stationary search and always use the naive output-stationary order.
* **Layer fusion** (Section IV-B) — give every pooling/activation layer its
  own block so intermediate activations round-trip through DRAM.
* **Bit-level fusion itself** — force every layer to execute at a fixed
  8-bit/8-bit configuration, which is what a fixed-bitwidth accelerator with
  the same systolic fabric would do.  The gap between this and the
  bit-flexible run is the paper's headline claim, isolated from the
  baseline-accelerator modelling.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dnn import models
from repro.session import EvaluationSession, Workload, resolve_session
from repro.sim.stats import geometric_mean

__all__ = ["AblationRow", "render", "run", "format_table"]


@dataclass(frozen=True)
class AblationRow:
    """Effect of disabling one mechanism, for one benchmark."""

    benchmark: str
    baseline_ms: float
    no_loop_ordering_slowdown: float
    no_layer_fusion_slowdown: float
    fixed_8bit_slowdown: float
    no_loop_ordering_energy_increase: float
    no_layer_fusion_energy_increase: float
    fixed_8bit_energy_increase: float

    def as_row(self) -> dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "flexible ms/inf": self.baseline_ms,
            "no loop-order (perf x)": self.no_loop_ordering_slowdown,
            "no fusion (perf x)": self.no_layer_fusion_slowdown,
            "fixed 8-bit (perf x)": self.fixed_8bit_slowdown,
            "no loop-order (energy x)": self.no_loop_ordering_energy_increase,
            "no fusion (energy x)": self.no_layer_fusion_energy_increase,
            "fixed 8-bit (energy x)": self.fixed_8bit_energy_increase,
        }


def run(
    batch_size: int = 16,
    benchmarks: tuple[str, ...] | None = None,
    fixed_bits: int = 8,
    session: EvaluationSession | None = None,
) -> list[AblationRow]:
    """Measure the slowdown and energy increase from disabling each mechanism.

    Each ablation is a declarative workload variation — compiler flags or a
    fixed-bitwidth network transform — so the whole experiment is one
    deduplicated batch, and the flexible baseline runs are shared with every
    other experiment that simulates the default configuration.
    """
    names = benchmarks if benchmarks is not None else tuple(models.benchmark_names())
    session = resolve_session(session)
    per_name = [
        (
            Workload.bitfusion(name, batch_size=batch_size),
            Workload.bitfusion(name, batch_size=batch_size, enable_loop_ordering=False),
            Workload.bitfusion(name, batch_size=batch_size, enable_layer_fusion=False),
            Workload.bitfusion(name, batch_size=batch_size, fixed_bits=fixed_bits),
        )
        for name in names
    ]
    results = session.run_many([w for group in per_name for w in group])

    rows: list[AblationRow] = []
    for index, name in enumerate(names):
        base, without_ordering, without_fusion, fixed = results[4 * index : 4 * index + 4]

        rows.append(
            AblationRow(
                benchmark=name,
                baseline_ms=base.latency_per_inference_s * 1e3,
                no_loop_ordering_slowdown=without_ordering.latency_per_inference_s
                / base.latency_per_inference_s,
                no_layer_fusion_slowdown=without_fusion.latency_per_inference_s
                / base.latency_per_inference_s,
                fixed_8bit_slowdown=fixed.latency_per_inference_s
                / base.latency_per_inference_s,
                no_loop_ordering_energy_increase=without_ordering.energy_per_inference_j
                / base.energy_per_inference_j,
                no_layer_fusion_energy_increase=without_fusion.energy_per_inference_j
                / base.energy_per_inference_j,
                fixed_8bit_energy_increase=fixed.energy_per_inference_j
                / base.energy_per_inference_j,
            )
        )
    return rows


def geomean_summary(rows: list[AblationRow]) -> dict[str, float]:
    """Geometric means of every ablation's slowdown / energy increase."""
    return {
        "no_loop_ordering_slowdown": geometric_mean(
            [row.no_loop_ordering_slowdown for row in rows]
        ),
        "no_layer_fusion_slowdown": geometric_mean(
            [row.no_layer_fusion_slowdown for row in rows]
        ),
        "fixed_8bit_slowdown": geometric_mean([row.fixed_8bit_slowdown for row in rows]),
        "no_loop_ordering_energy_increase": geometric_mean(
            [row.no_loop_ordering_energy_increase for row in rows]
        ),
        "no_layer_fusion_energy_increase": geometric_mean(
            [row.no_layer_fusion_energy_increase for row in rows]
        ),
        "fixed_8bit_energy_increase": geometric_mean(
            [row.fixed_8bit_energy_increase for row in rows]
        ),
    }


def format_table(rows: list[AblationRow]) -> str:
    from repro.harness.reporting import format_table as _format

    return _format(rows, title="Compiler / fusion ablations (slowdown and energy vs full Bit Fusion)")


def render(benchmarks: tuple[str, ...] | None = None) -> str:
    """The report section: the ablation table plus each knob's geomean impact."""
    rows = run(benchmarks=benchmarks)
    lines = [format_table(rows), "", "geomean impact:"]
    lines.extend(f"  {key}: {value:.2f}x" for key, value in geomean_summary(rows).items())
    return "\n".join(lines)
