"""Design-space exploration section of the report (``dse``).

The paper's 16x16, 8-bit-fused configuration is the product of a design
space exploration (Section V); this section reproduces a small slice of it:
a built-in :class:`~repro.dse.spec.SweepSpec` crossing systolic-array
geometry with technology node over the two fastest benchmarks, reduced to a
latency/energy/area Pareto frontier.  Larger explorations run the same
machinery from a spec file via ``python -m repro.harness sweep`` (see
``docs/sweeps.md``).
"""

from __future__ import annotations

from repro.dse.report import format_sweep_report
from repro.dse.runner import DesignSpaceResult, run_sweep
from repro.dse.spec import SweepSpec
from repro.session import EvaluationSession, resolve_session
from repro.session.workload import DEFAULT_BATCH_SIZE

__all__ = ["DEFAULT_NETWORKS", "default_spec", "render", "run", "format_table"]

#: Benchmarks the built-in exploration sweeps (the two cheapest to
#: simulate, so the section stays a small fraction of the full report).
DEFAULT_NETWORKS = ("LeNet-5", "LSTM")


def default_spec(benchmarks: tuple[str, ...] | None = None) -> SweepSpec:
    """The report's built-in two-axis exploration (array x technology node)."""
    return SweepSpec.from_dict(
        {
            "name": "array geometry x technology node",
            "networks": list(benchmarks or DEFAULT_NETWORKS),
            "batch_sizes": [DEFAULT_BATCH_SIZE],
            "axes": {
                "array": [[16, 16], [32, 16], [32, 32]],
                "technology": ["45nm", "16nm"],
            },
            "objectives": ["latency", "energy", "area"],
        }
    )


def run(
    benchmarks: tuple[str, ...] | None = None,
    session: EvaluationSession | None = None,
) -> DesignSpaceResult:
    """Run the built-in exploration through the shared evaluation session.

    The 32x16 / 45 nm points are the paper's Eyeriss-matched configuration,
    so they deduplicate against every other experiment in the report that
    already simulated it.
    """
    return run_sweep(default_spec(benchmarks), resolve_session(session))


def format_table(result: DesignSpaceResult) -> str:
    """Render the exploration as the report section body."""
    return format_sweep_report(result)


def render(benchmarks: tuple[str, ...] | None = None) -> str:
    """The report section: the built-in exploration over ``benchmarks``."""
    return format_table(run(benchmarks=benchmarks))
