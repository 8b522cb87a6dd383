"""Unified evaluation session: cached, batched workload engine.

This subsystem is the single entry point every experiment and baseline
comparison routes through:

* :class:`~repro.session.workload.Workload` — one (platform, network,
  batch, compiler-flags) evaluation point with a stable content
  fingerprint.
* :mod:`~repro.session.engine` — the staged compile → simulate-blocks →
  compose pipeline, with a memoized artifact at every seam (compiled
  programs keyed structure-only; per-block results keyed by the name-free
  layer fingerprint + simulation-affecting config).  It is the only
  planner and composer: session batches and the NAS estimator
  (:mod:`repro.nas`) both price networks through it.
* :class:`~repro.session.cache.ResultCache` — fingerprint-keyed store of
  composed results, in-memory with an optional on-disk layer (a segmented
  pack-file store — :class:`~repro.session.store.SegmentedStore`,
  append-only segments whose index sidecars are the only index), plus the
  in-process artifact memo.
* :class:`~repro.session.session.EvaluationSession` — ``run_many`` (one
  batched simulation pass per batch, committed in input order) with
  per-stage cache-hit accounting.

Cache keys and invalidation
---------------------------
Four fingerprint families key the cache, each hashing exactly the inputs
that determine its artifact — so invalidation is automatic: change an
input and the key changes, leaving the stale entry unreferenced on disk.
Only the workload key reaches the disk; the other three key the
in-process memo.

* **Workload key** (:meth:`Workload.fingerprint
  <repro.session.workload.Workload.fingerprint>`): platform, resolved
  network *structure*, batch size, variant/bitwidth transforms, the full
  platform configuration and the compiler flags.  Anything that could
  change a result changes this key; it keys the composed result.
* **Program key** (:func:`~repro.session.engine.program_cache_key`):
  *structure-only* — network structure, batch size, scratchpad capacities
  and compiler flags, the only inputs the compiler reads.  Bandwidth,
  array geometry, frequency and technology node are deliberately excluded,
  so sweeps along those axes reuse one compiled program.
* **Layer key** (derived per block by
  :func:`~repro.session.engine.plan_program`): one simulated block's
  *name-free* plan fingerprint (layer shape and bitwidths, fused layers,
  tiling, loop order — the instructions are a pure function of these,
  so pricing never emits it) plus the simulation-affecting configuration
  (array geometry, buffer capacities and access width, bandwidth,
  technology node).  Frequency and the configuration name are excluded —
  they only affect composition metadata.  Identical (layer, tiling) pairs
  therefore share one record across networks in model-family sweeps.
* **Tiling key** (:func:`~repro.session.engine.tiling_cache_key`): one
  tiling search's inputs — GEMM shape and bitwidths, the loop orders
  considered, and the scratchpad capacities.  The compiler consults this
  memo (via :func:`~repro.session.engine.make_plan_resolver`) before every
  search, so duplicate GEMM shapes — within a network, across networks,
  and across sweep points that share buffer geometry — plan once.

Execution is warm-artifact aware, in two steps: the session reads stored
results first; every other workload executes — it compiles through the
program memo, resolves memoized blocks, simulates only the missing blocks
of the whole batch in one vectorized pass and composes — so within one
process nothing is compiled or simulated twice.  The first failing
workload stops the batch with a
:class:`~repro.session.engine.WorkloadExecutionError` naming it.

See ``python -m repro.harness --help`` for the report runner built on top
(``--cache-dir`` maps directly onto a session),
``python -m repro.harness sweep`` / :mod:`repro.dse` for
declarative design-space sweeps over the same cache, and
``docs/architecture.md`` for the full pipeline walkthrough.
"""

from repro.session.cache import (
    CacheStats,
    ProgramStats,
    ResultCache,
    StageStats,
)
from repro.session.engine import (
    WorkloadExecutionError,
    describe_workload_error,
    build_model,
    compile_program,
    execute_workload,
    make_plan_resolver,
    program_cache_key,
    tiling_cache_key,
)
from repro.session.store import SegmentedStore
from repro.session.session import (
    EvaluationSession,
    get_default_session,
    resolve_session,
    set_default_session,
    use_session,
)
from repro.session.workload import (
    PLATFORMS,
    Workload,
    fixed_bitwidth_network,
    load_network,
    network_digest,
)

__all__ = [
    "CacheStats",
    "EvaluationSession",
    "PLATFORMS",
    "ProgramStats",
    "ResultCache",
    "SegmentedStore",
    "StageStats",
    "Workload",
    "WorkloadExecutionError",
    "build_model",
    "compile_program",
    "describe_workload_error",
    "execute_workload",
    "fixed_bitwidth_network",
    "get_default_session",
    "load_network",
    "make_plan_resolver",
    "network_digest",
    "program_cache_key",
    "tiling_cache_key",
    "resolve_session",
    "set_default_session",
    "use_session",
]
