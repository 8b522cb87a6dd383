"""Design-space exploration: declarative multi-axis sweeps with Pareto reporting.

The paper arrives at its 16x16, 8-bit-fused Bit Fusion configuration by
exploring a design space — array geometry, buffer sizing, technology node,
off-chip bandwidth.  This subsystem makes that exploration a first-class,
declarative operation on top of the evaluation session:

* :class:`~repro.dse.spec.SweepSpec` — a plain-data description of the
  space (networks x batches x any combination of hardware/compiler axes),
  loadable from JSON/YAML, expanding to a fingerprinted
  :class:`~repro.session.workload.Workload` grid.
* :func:`~repro.dse.runner.run_sweep` — executes the grid through an
  :class:`~repro.session.session.EvaluationSession`, so the staged
  artifact cache applies: axes that do not affect compilation (technology
  node, bandwidth, frequency, array geometry) compile each network exactly
  once, and warm re-runs skip simulation entirely.
* :mod:`~repro.dse.pareto` — exact, deterministic Pareto-frontier
  extraction over the minimized objectives (latency, energy, area).
* :mod:`~repro.dse.report` — table rendering shared by ``python -m
  repro.harness sweep`` and the full report's ``dse`` section.

See ``docs/sweeps.md`` for the spec schema and a worked example, and
``examples/design_space_sweep.py`` for a runnable two-axis exploration.
"""

from repro.dse.pareto import (
    OBJECTIVES,
    dominates,
    pareto_front,
    pareto_indices,
    pareto_indices_quadratic,
)
from repro.dse.report import format_pareto_table, format_sweep_report
from repro.dse.runner import DesignSpaceResult, EvaluatedPoint, run_sweep
from repro.dse.spec import (
    BASE_CONFIGS,
    CONFIG_AXES,
    WORKLOAD_AXES,
    DesignPoint,
    SweepSpec,
    format_axis_value,
)

__all__ = [
    "BASE_CONFIGS",
    "CONFIG_AXES",
    "OBJECTIVES",
    "WORKLOAD_AXES",
    "DesignPoint",
    "DesignSpaceResult",
    "EvaluatedPoint",
    "SweepSpec",
    "dominates",
    "format_axis_value",
    "format_pareto_table",
    "format_sweep_report",
    "pareto_front",
    "pareto_indices",
    "pareto_indices_quadratic",
    "run_sweep",
]
