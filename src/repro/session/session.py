"""EvaluationSession: the shared, cached workload engine.

One session backs one report (or one interactive study).  Every experiment
routes its simulations through :meth:`EvaluationSession.run` /
:meth:`~EvaluationSession.run_many`, so a full-report invocation simulates
each unique (platform config, network, batch, compiler flags) point exactly
once regardless of how many figures need it, and the missing blocks of a
whole batch of workloads simulate together through the vectorized executor.

:meth:`EvaluationSession.sweep` is the declarative face of the engine:
bandwidth, batch-size and benchmark scans (Figures 15/16 and any new
scenario scan) are one call each instead of a hand-written experiment loop.

A module-level *default session* lets experiment modules be called directly
(as the pytest-benchmark harness does) while still sharing a cache; the
report runner installs its own session for the duration of a report via
:func:`use_session`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from repro.core.config import BitFusionConfig
from repro.session.cache import CacheStats, ProgramStats, ResultCache
from repro.session.engine import (
    WorkloadExecutionError,
    WorkPlan,
    compose_plan,
    describe_workload_error,
    execute_workload,
    obtain_program,
    plan_workload,
    simulate_planned_blocks,
    try_compose_from_cache,
)
from repro.session.workload import Workload, estimated_cost
from repro.sim.results import LayerResult, NetworkResult

__all__ = [
    "EvaluationSession",
    "SweepPoint",
    "SweepResult",
    "get_default_session",
    "set_default_session",
    "resolve_session",
    "use_session",
]

#: Callback fired once per unique workload the moment its result is known
#: (cache hit at lookup, or commit after fresh execution) — the streaming
#: seam incremental Pareto reduction hangs off.
ResultCallback = Callable[[Workload, NetworkResult], None]


@contextmanager
def _attributed(workload: Workload) -> Iterator[None]:
    """Re-raise any failure inside the scope as one naming ``workload``."""
    try:
        yield
    except Exception as error:
        raise WorkloadExecutionError(describe_workload_error(workload, error)) from error


@dataclass(frozen=True)
class SweepPoint:
    """One (network, batch, bandwidth) point of a sweep and its result."""

    network: str
    batch_size: int
    bandwidth: int | None
    workload: Workload
    result: NetworkResult


class SweepResult:
    """Results of a declarative sweep, addressable by axis values."""

    def __init__(self, points: Iterable[SweepPoint]) -> None:
        self.points = tuple(points)

    def __iter__(self) -> Iterator[SweepPoint]:
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def select(
        self,
        network: str | None = None,
        batch_size: int | None = None,
        bandwidth: int | None = None,
    ) -> list[SweepPoint]:
        """All points matching the given axis values (None matches any)."""
        return [
            point
            for point in self.points
            if (network is None or point.network == network)
            and (batch_size is None or point.batch_size == batch_size)
            and (bandwidth is None or point.bandwidth == bandwidth)
        ]

    def result(
        self,
        network: str | None = None,
        batch_size: int | None = None,
        bandwidth: int | None = None,
    ) -> NetworkResult:
        """The unique result at the given axis values; KeyError otherwise."""
        matches = self.select(network=network, batch_size=batch_size, bandwidth=bandwidth)
        if len(matches) != 1:
            raise KeyError(
                f"expected exactly one sweep point for network={network!r} "
                f"batch_size={batch_size!r} bandwidth={bandwidth!r}, found {len(matches)}"
            )
        return matches[0].result

    def latency(self, **axes: object) -> float:
        """Per-inference latency (seconds) of the unique matching point."""
        return self.result(**axes).latency_per_inference_s  # type: ignore[arg-type]


class EvaluationSession:
    """Cached executor of evaluation workloads.

    Parameters
    ----------
    cache_dir:
        Optional directory for the persistent result store (the segmented
        pack-file layout of :mod:`repro.session.store`); ``None`` keeps the
        cache in memory only.
    cache:
        Pre-built :class:`ResultCache` to share between sessions (mutually
        exclusive with ``cache_dir``).
    max_cache_bytes:
        Optional size budget for the on-disk store (least-recently-used
        entries are evicted past it); only meaningful with ``cache_dir``.
    """

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        cache: ResultCache | None = None,
        max_cache_bytes: int | None = None,
    ) -> None:
        if cache is not None and cache_dir is not None:
            raise ValueError("pass either cache or cache_dir, not both")
        if cache is not None and max_cache_bytes is not None:
            raise ValueError("max_cache_bytes only applies when the session owns its cache")
        self.cache = cache if cache is not None else ResultCache(cache_dir, max_cache_bytes)
        self.stats = CacheStats()

    def close(self) -> None:
        """Flush cache bookkeeping.

        Idempotent; cached entries themselves are untouched (only batched
        manifest recency updates are written out).
        """
        self.cache.close()

    def __enter__(self) -> "EvaluationSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Core execution
    # ------------------------------------------------------------------ #
    def run(self, workload: Workload) -> NetworkResult:
        """Run one workload, serving it from the cache when possible."""
        return self.run_many([workload])[0]

    def run_many(
        self,
        workloads: Iterable[Workload],
        on_result: ResultCallback | None = None,
    ) -> list[NetworkResult]:
        """Run a batch of workloads, in input order.

        The batch is deduplicated by fingerprint and resolved against the
        cache in three steps: whole results from memory or disk, Bit Fusion
        results composed from memoized program and layer artifacts, and
        only then fresh execution.  In-batch duplicates of a still-pending
        workload count as deduplication wins (``stats.deduped``), not cache hits —
        no cached value existed when they were looked up.  Genuinely new
        workloads are scheduled longest-job-first (estimated by network MAC
        count x batch size, ties broken by workload fingerprint so the
        schedule never depends on input order) and results are returned in
        input order.  Each unique workload is simulated at most once per
        session lifetime.

        Execution is fail-fast: the first workload whose planning,
        simulation or composition raises stops the batch with a
        :class:`~repro.session.engine.WorkloadExecutionError` naming it.
        Workloads committed before it stay cached; it leaves no result.
        Simulation is deterministic, so a retry would only fail again.

        ``on_result`` (when given) fires once per unique workload the moment
        its result is known — at cache-lookup time for warm workloads, at
        commit time for fresh ones — so callers can stream incremental
        reductions (the sweep runner's Pareto archive) while the batch runs.
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
                value = try_compose_from_cache(workload, self.cache, self.stats)
                if value is not None:
                    self.cache.put(key, value, workload.describe())
            if value is None:
                self.stats.misses += 1
                pending[key] = workload
                continue
            self.stats.hits += 1
            if source == "disk":
                self.stats.disk_hits += 1
            resolved[key] = value
            if on_result is not None:
                on_result(workload, value)
        if pending:
            # Longest job first.  Equal-cost workloads tie-break on their
            # (stable, content-based) fingerprint rather than input order,
            # so the schedule — and with it which in-batch workload claims
            # a shared block — is identical no matter how the calling
            # experiments ordered their workloads.
            items = sorted(
                pending.items(),
                key=lambda item: (-estimated_cost(item[1]), item[0]),
            )
            try:
                self._execute(items, resolved, on_result)
            finally:
                # One manifest (and one segment-index) write per executed
                # batch, not one per artifact — also when a workload fails.
                self.cache.flush()
        return [resolved[key] for key in keys]

    def _execute(
        self,
        items: list[tuple[str, Workload]],
        resolved: dict[str, NetworkResult],
        on_result: ResultCallback | None,
    ) -> None:
        """Execute the pending schedule, committing each workload in order.

        Every Bit Fusion workload of the batch is planned against the memo
        first (compile through the program memo, per-block resolution
        through the layer key, in-batch duplicate blocks deferred to their
        claimant).  The genuinely missing blocks of *all* plans then
        simulate through as few vectorized calls as possible
        (:func:`~repro.session.engine.simulate_planned_blocks` — a sweep
        varying only simulation parameters collapses into one 2-D grid
        pass) before each workload composes and commits in schedule order,
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
        for _, workload in items:
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
        for (key, workload), plan, layers in zip(items, plans, batched):
            with _attributed(workload):
                result = self._finish_plan(workload, plan, layers)
            self.stats.record_execution(key)
            self.cache.put(key, result, workload.describe())
            resolved[key] = result
            if on_result is not None:
                on_result(workload, result)

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
        return ProgramStats.from_program(obtain_program(workload, self.cache, self.stats))

    # ------------------------------------------------------------------ #
    # Declarative sweeps
    # ------------------------------------------------------------------ #
    def sweep(
        self,
        networks: Iterable[str],
        batch_sizes: Iterable[int] = (16,),
        bandwidths: Iterable[int | None] = (None,),
        platform: str = "bitfusion",
        base_config: BitFusionConfig | None = None,
        fixed_bits: int | None = None,
        enable_loop_ordering: bool = True,
        enable_layer_fusion: bool = True,
    ) -> SweepResult:
        """Run the cartesian product of networks x batch sizes x bandwidths.

        The bandwidth axis applies to Bit Fusion only (it maps to
        ``BitFusionConfig.with_bandwidth``); baseline platforms accept the
        default ``(None,)`` axis and use their paper configuration at each
        batch size.  GPU workloads need a device spec and precision, so they
        go through :meth:`run_many` with explicit workloads instead.
        """
        network_list = list(networks)
        batch_list = list(batch_sizes)
        bandwidth_list = list(bandwidths)
        if platform != "bitfusion":
            if bandwidth_list != [None]:
                raise ValueError(
                    f"the bandwidth axis only applies to bitfusion, not {platform!r}"
                )
            if (
                base_config is not None
                or fixed_bits is not None
                or not enable_loop_ordering
                or not enable_layer_fusion
            ):
                raise ValueError(
                    "base_config, fixed_bits and the compiler flags only apply to "
                    f"bitfusion sweeps, not {platform!r}"
                )

        workloads: list[Workload] = []
        axes: list[tuple[str, int, int | None]] = []
        for network, batch, bandwidth in product(network_list, batch_list, bandwidth_list):
            if platform == "bitfusion":
                config = (
                    base_config.with_batch_size(batch)
                    if base_config is not None
                    else BitFusionConfig.eyeriss_matched(batch_size=batch)
                )
                if bandwidth is not None:
                    config = config.with_bandwidth(bandwidth)
                workload = Workload.bitfusion(
                    network,
                    batch_size=batch,
                    config=config,
                    fixed_bits=fixed_bits,
                    enable_loop_ordering=enable_loop_ordering,
                    enable_layer_fusion=enable_layer_fusion,
                )
            elif platform == "eyeriss":
                workload = Workload.eyeriss(network, batch_size=batch)
            elif platform == "stripes":
                workload = Workload.stripes(network, batch_size=batch)
            elif platform == "temporal":
                workload = Workload.temporal(network, batch_size=batch)
            else:
                raise ValueError(
                    f"sweep supports bitfusion/eyeriss/stripes/temporal, not {platform!r}"
                )
            workloads.append(workload)
            axes.append((network, batch, bandwidth))

        results = self.run_many(workloads)
        return SweepResult(
            SweepPoint(
                network=network,
                batch_size=batch,
                bandwidth=bandwidth,
                workload=workload,
                result=result,
            )
            for (network, batch, bandwidth), workload, result in zip(axes, workloads, results)
        )


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
