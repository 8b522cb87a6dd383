"""Sweep execution: expand a spec, run it through a session, reduce to tables.

:func:`run_sweep` is the whole subsystem end to end: a
:class:`~repro.dse.spec.SweepSpec` expands to its fingerprinted workload
grid, the grid executes through an
:class:`~repro.session.session.EvaluationSession` (and therefore through
the staged artifact cache — a technology/bandwidth/array sweep compiles
each network exactly once), and every point is distilled into an
:class:`EvaluatedPoint` carrying the minimized objective metrics.  The
:class:`DesignSpaceResult` holds the full grid plus its Pareto frontier,
extracted from the whole grid once the batch has run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.dse.pareto import OBJECTIVES, pareto_front
from repro.dse.spec import DesignPoint, SweepSpec, format_axis_value
from repro.energy.components import accelerator_area_mm2
from repro.session.session import EvaluationSession, resolve_session
from repro.sim.results import NetworkResult

__all__ = ["EvaluatedPoint", "DesignSpaceResult", "run_sweep"]


@dataclass(frozen=True)
class EvaluatedPoint:
    """One design point together with its simulated result and metrics."""

    point: DesignPoint
    result: NetworkResult

    @property
    def latency_ms(self) -> float:
        """Latency per inference, milliseconds (minimized objective)."""
        return self.result.latency_per_inference_s * 1e3

    @property
    def energy_mj(self) -> float:
        """Energy per inference, millijoules (minimized objective)."""
        return self.result.energy_per_inference_j * 1e3

    @property
    def area_mm2(self) -> float:
        """Accelerator area at the point's technology node, mm² (minimized)."""
        return accelerator_area_mm2(self.point.workload.config)

    @property
    def throughput_gops(self) -> float:
        """Delivered throughput, GOPS (reported, not an objective)."""
        return self.result.effective_throughput_gops

    def as_row(self, on_frontier: bool | None = None) -> dict[str, Any]:
        """Table row: one column per axis, then the metric columns."""
        row: dict[str, Any] = {
            "network": self.point.network,
            "batch": self.point.batch_size,
        }
        for axis, value in self.point.settings:
            row[axis] = format_axis_value(axis, value)
        # Three significant digits as strings: the metrics span microjoules
        # (LeNet-5) to millijoules (AlexNet), which fixed two-decimal float
        # formatting would collapse to 0.00.
        row["latency (ms)"] = f"{self.latency_ms:.3g}"
        row["energy (mJ)"] = f"{self.energy_mj:.3g}"
        row["area (mm2)"] = f"{self.area_mm2:.3g}"
        row["GOPS"] = f"{self.throughput_gops:.4g}"
        if on_frontier is not None:
            row["pareto"] = "*" if on_frontier else ""
        return row


class DesignSpaceResult:
    """The evaluated grid of one sweep plus its Pareto frontier."""

    def __init__(self, spec: SweepSpec, points: list[EvaluatedPoint]) -> None:
        self.spec = spec
        self.points = tuple(points)
        self._frontier: list[EvaluatedPoint] | None = None
        for name in spec.objectives:
            if name not in OBJECTIVES:
                raise ValueError(
                    f"unknown objective {name!r}; expected one of {sorted(OBJECTIVES)}"
                )

    def __iter__(self) -> Iterator[EvaluatedPoint]:
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def pareto(self) -> list[EvaluatedPoint]:
        """The non-dominated points under the spec's objectives, per network.

        Frontiers are extracted within each (network, batch) group — a small
        network would otherwise dominate a large one on every objective and
        collapse the frontier to the easiest benchmark.  Extraction is the
        sort-based :func:`~repro.dse.pareto.pareto_indices` (O(n log n) for
        up to two objectives); the result is memoized (points are immutable
        after construction) so a full report pays for it once.
        """
        if self._frontier is not None:
            return list(self._frontier)
        frontier: list[EvaluatedPoint] = []
        extractors = [OBJECTIVES[name].extract for name in self.spec.objectives]
        for network, batch in {
            (point.point.network, point.point.batch_size): None for point in self.points
        }:
            group = [
                point
                for point in self.points
                if point.point.network == network and point.point.batch_size == batch
            ]
            frontier.extend(pareto_front(group, extractors))
        self._frontier = frontier
        return list(frontier)

    def rows(self) -> list[dict[str, Any]]:
        """All grid rows, frontier members marked in the ``pareto`` column."""
        on_frontier = {id(point) for point in self.pareto()}
        return [point.as_row(id(point) in on_frontier) for point in self.points]

    def pareto_rows(self) -> list[dict[str, Any]]:
        """Rows of the Pareto frontier only."""
        return [point.as_row() for point in self.pareto()]


def run_sweep(
    spec: SweepSpec, session: EvaluationSession | None = None
) -> DesignSpaceResult:
    """Expand and execute a sweep spec; returns the evaluated design space.

    All points go through :meth:`EvaluationSession.run_many
    <repro.session.session.EvaluationSession.run_many>` in one batch, so
    duplicate points collapse onto one simulation and the per-stage
    artifact cache (programs keyed structure-only, simulated blocks keyed
    by name-free layer content) is shared with every other
    experiment the session ran.  The simulation stage is batched: the
    missing blocks of *every* point in the batch go through the vectorized
    executor in as few numpy passes as possible
    (:func:`~repro.session.engine.simulate_planned_blocks`), and points
    that differ only in simulation parameters (bandwidth, frequency,
    technology — same compiled blocks) collapse into one 2-D
    configs × blocks grid evaluation.

    The Pareto frontier is extracted from the whole grid once the batch
    has run (:meth:`DesignSpaceResult.pareto`).  A failing point raises
    the session's :class:`~repro.session.engine.WorkloadExecutionError`.
    """
    points = spec.expand()
    results = resolve_session(session).run_many([point.workload for point in points])
    return DesignSpaceResult(
        spec,
        [EvaluatedPoint(point=point, result=result) for point, result in zip(points, results)],
    )
