"""EvaluationSession: the shared, cached workload engine.

One session backs one report (or one interactive study).  Every experiment
routes its simulations through :meth:`EvaluationSession.run_many` (a
single workload is a batch of one), so a full-report invocation simulates
each unique (platform config, network, batch, compiler flags) point exactly
once regardless of how many figures need it, and the missing blocks of a
whole batch of workloads simulate together through the vectorized executor.
A scan over one axis (Figures 15 and 16) is a list of workloads passed to
:meth:`~EvaluationSession.run_many`; multi-axis design-space sweeps are
:mod:`repro.dse` spec files.

A module-level *default session* lets experiment modules be called directly
(as the pytest-benchmark harness does) while still sharing a cache; the
report runner installs its own session for the duration of a report via
:func:`use_session`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.session.cache import CacheStats, ProgramStats, ResultCache
from repro.session.engine import (
    WorkloadExecutionError,
    WorkPlan,
    compile_program,
    compose_plan,
    describe_workload_error,
    execute_workload,
    obtain_program,
    plan_workload,
    program_cache_key,
    simulate_planned_blocks,
)
from repro.session.workload import Workload
from repro.sim.results import LayerResult, NetworkResult

__all__ = [
    "EvaluationSession",
    "get_default_session",
    "set_default_session",
    "resolve_session",
    "use_session",
]

@contextmanager
def _attributed(workload: Workload) -> Iterator[None]:
    """Re-raise any failure inside the scope as one naming ``workload``."""
    try:
        yield
    except Exception as error:
        raise WorkloadExecutionError(describe_workload_error(workload, error)) from error


class EvaluationSession:
    """Cached executor of evaluation workloads.

    Parameters
    ----------
    cache_dir:
        Optional directory for the persistent result store (the segmented
        pack-file layout of :mod:`repro.session.store`); ``None`` keeps the
        cache in memory only.
    """

    def __init__(self, cache_dir: str | Path | None = None) -> None:
        self.cache = ResultCache(cache_dir)
        self.stats = CacheStats()

    def close(self) -> None:
        """Flush the cache's index sidecar and release its file handles.

        Idempotent; cached entries themselves are untouched.
        """
        self.cache.close()

    def __enter__(self) -> "EvaluationSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Core execution
    # ------------------------------------------------------------------ #
    def run_many(self, workloads: Iterable[Workload]) -> list[NetworkResult]:
        """Run a batch of workloads, in input order.

        The batch is deduplicated by fingerprint and resolved against the
        cache in two steps: whole results from memory or disk, then fresh
        execution, which plans each Bit Fusion workload against the
        memoized programs and layer records.  In-batch duplicates of a
        still-pending workload count as deduplication wins
        (``stats.deduped``), not cache hits — no cached value existed when
        they were looked up.  Genuinely new
        workloads plan, compose and commit in first-occurrence input order,
        and results are returned in input order.  Each unique workload is
        simulated at most once per session lifetime.

        Execution is fail-fast: the first workload whose planning,
        simulation or composition raises stops the batch with a
        :class:`~repro.session.engine.WorkloadExecutionError` naming it.
        Workloads committed before it stay cached; it leaves no result.
        Simulation is deterministic, so a retry would only fail again.
        """
        ordered = list(workloads)
        keys = [workload.fingerprint() for workload in ordered]
        resolved: dict[str, NetworkResult] = {}
        pending: dict[str, Workload] = {}
        for key, workload in zip(keys, ordered):
            if key in pending:
                # Duplicate of work that is queued but not done: a dedup
                # win, not a cache hit (nothing cached served it).
                self.stats.deduped += 1
                continue
            if key in resolved:
                self.stats.hits += 1
                continue
            value, source = self.cache.get_with_source(key)
            if value is None:
                self.stats.misses += 1
                pending[key] = workload
                continue
            self.stats.hits += 1
            if source == "disk":
                self.stats.disk_hits += 1
            resolved[key] = value
        if pending:
            try:
                self._execute(pending, resolved)
            finally:
                # One segment-index write per executed batch, not one per
                # result — also when a workload fails.
                self.cache.flush()
        return [resolved[key] for key in keys]

    def _execute(
        self,
        pending: dict[str, Workload],
        resolved: dict[str, NetworkResult],
    ) -> None:
        """Execute the pending workloads, committing each in input order.

        Every Bit Fusion workload of the batch is planned against the memo
        first (compile through the program memo, per-block resolution
        through the layer key, in-batch duplicate blocks deferred to their
        claimant).  The genuinely missing blocks of *all* plans then
        simulate through as few vectorized calls as possible
        (:func:`~repro.session.engine.simulate_planned_blocks` — a sweep
        varying only simulation parameters collapses into one 2-D grid
        pass) before each workload composes and commits in input order,
        so deferred blocks resolve from their claimant's memoized records.
        Baseline workloads (no compile stage) execute whole.

        Each result is appended to the store as its workload commits, so a
        failing workload leaves every result committed before it stored
        (one small record each: buffering the batch's records would only
        raise peak memory).  If the all-plans batched call raises, every
        plan simulates on its own instead, which attributes the fault to
        the workload that owns it.
        """
        claimed: set[str] = set()
        plans: list[WorkPlan] = []
        for workload in pending.values():
            with _attributed(workload):
                plans.append(plan_workload(workload, self.cache, self.stats, claimed))
        batched: Sequence[dict[int, LayerResult] | None]
        try:
            started = time.perf_counter()
            batched = simulate_planned_blocks(plans)
            self.stats.sim_seconds += time.perf_counter() - started
        except Exception:
            # One faulting block aborted the whole batched call; each plan
            # simulates on its own in ``_finish_plan`` instead.
            batched = [None] * len(plans)
        for (key, workload), plan, layers in zip(pending.items(), plans, batched):
            with _attributed(workload):
                result = self._finish_plan(workload, plan, layers)
            self.stats.record_execution(key)
            self.cache.put(key, result)
            resolved[key] = result

    def _finish_plan(
        self,
        workload: Workload,
        plan: WorkPlan,
        layers: dict[int, LayerResult] | None,
    ) -> NetworkResult:
        """Finish one planned workload: simulate what is missing, compose.

        ``layers`` holds the plan's freshly simulated blocks, or ``None``
        to simulate them here.  Baseline workloads (no program) run whole.
        """
        stats = self.stats
        started = time.perf_counter()
        if plan.program is None:
            result = execute_workload(workload)
            stats.sim_seconds += time.perf_counter() - started
            return result
        if layers is None:
            layers = simulate_planned_blocks([plan])[0]
            stats.sim_seconds += time.perf_counter() - started
            started = time.perf_counter()
        result = compose_plan(plan, layers, self.cache, stats)
        stats.compose_seconds += time.perf_counter() - started
        return result

    def compile_stats(self, workload: Workload) -> ProgramStats:
        """Compile a Bit Fusion workload (memoized) and return program stats.

        The statistics are derived from the program memo — the same
        compiled programs the simulation pipeline uses — so a report that
        already simulated a benchmark in this process never recompiles it
        just to count instructions.  Only the ``programs`` stage counters
        move: no workload result is looked up or stored.
        """
        program = obtain_program(
            program_cache_key(workload),
            partial(compile_program, workload, self.cache, self.stats),
            self.cache,
            self.stats,
        )
        return ProgramStats.from_program(program)


# ---------------------------------------------------------------------- #
# Default-session management
# ---------------------------------------------------------------------- #
_DEFAULT_SESSION: EvaluationSession | None = None


def get_default_session() -> EvaluationSession:
    """The process-wide shared session, created lazily on first use."""
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        _DEFAULT_SESSION = EvaluationSession()
    return _DEFAULT_SESSION


def set_default_session(session: EvaluationSession | None) -> EvaluationSession | None:
    """Install a new default session; returns the previous one."""
    global _DEFAULT_SESSION
    previous = _DEFAULT_SESSION
    _DEFAULT_SESSION = session
    return previous


def resolve_session(session: EvaluationSession | None = None) -> EvaluationSession:
    """The explicit session if given, else the shared default."""
    return session if session is not None else get_default_session()


@contextmanager
def use_session(session: EvaluationSession) -> Iterator[EvaluationSession]:
    """Scope ``session`` as the default for the duration of a ``with`` block."""
    previous = set_default_session(session)
    try:
        yield session
    finally:
        set_default_session(previous)
