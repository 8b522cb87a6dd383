"""Staged workload execution: compile → simulate-blocks → compose.

This module is the seam between :class:`~repro.session.session.
EvaluationSession` and the platform models.  Bit Fusion workloads run
through an explicit three-stage pipeline with a memoized artifact at every
seam (:attr:`ResultCache.memo <repro.session.cache.ResultCache.memo>`,
in-process only):

1. **compile** — lower the network to a Fusion-ISA
   :class:`~repro.isa.program.Program`.  The artifact is keyed by a
   *structure-only* fingerprint (:func:`program_cache_key`): network
   structure, batch size, scratchpad capacities and compiler flags — the
   only inputs the compiler reads.  A sweep that varies off-chip bandwidth
   (or any other simulation-only parameter) therefore reuses one compiled
   program across all its points.
2. **simulate-blocks** — run each instruction block independently through
   :class:`~repro.sim.executor.BitFusionSimulator` into a
   :class:`~repro.sim.results.LayerResult`, keyed by the *name-free* layer
   fingerprint plus the simulation-affecting configuration
   (:func:`layer_cache_key`).  Blocks whose cycle/energy inputs are
   unchanged are never re-simulated, and identical (layer, tiling) pairs
   share one record across networks in model-family sweeps; a record is
   renamed to the requesting block on use, so composition stays
   byte-identical.
3. **compose** — assemble the per-block results into a
   :class:`~repro.sim.results.NetworkResult`
   (:func:`~repro.sim.results.compose_network_result`).  Composition is
   pure, so a result composed from memoized artifacts is byte-identical to
   a fresh monolithic simulation.  The composed result is what the session
   stores — and, with a cache directory, persists.

Baseline platforms (Eyeriss, Stripes, GPUs, the temporal design) have no
compile stage; they run as a single simulate step.

This module is the only planner and composer of priced networks.  The
session plans each workload whose result is not stored
(:func:`plan_workload`: compile through the program memo, exactly once per
network and batch, then :func:`plan_program`); the NAS estimator
(:mod:`repro.nas.estimator`) plans each candidate through the same
:func:`obtain_program` and :func:`plan_program`.  Planning resolves every
block the memo already holds.  The genuinely missing blocks of a whole
batch of plans then simulate together (:func:`simulate_planned_blocks`),
and each plan composes from memoized plus fresh records, memoizing the
fresh ones (:func:`compose_plan`).  In a session, the first failing
workload stops the batch with a :class:`WorkloadExecutionError` naming it.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial
from typing import Any, Callable, Sequence

from repro.baselines.gpu import GpuModel, GpuPrecision
from repro.baselines.platform import PLATFORM_SPECS, PlatformModel
from repro.core.accelerator import BitFusionAccelerator
from repro.core.config import BitFusionConfig
from repro.fingerprint import fingerprint_payload
from repro.isa.compiler import FusionCompiler, PlanResolver, TilingRequest
from repro.isa.instructions import LoopOrder
from repro.isa.program import CompiledBlock, Program
from repro.isa.tiling import GemmWorkload, TilingPlan
from repro.session.cache import CacheStats, ResultCache
from repro.session.workload import Workload, load_network, network_digest
from repro.sim.batched import simulate_blocks_grid
from repro.sim.executor import BitFusionSimulator
from repro.sim.results import LayerResult, NetworkResult, compose_network_result

__all__ = [
    "WorkPlan",
    "WorkloadExecutionError",
    "build_model",
    "compile_program",
    "compose_plan",
    "describe_workload_error",
    "execute_workload",
    "layer_cache_key",
    "make_plan_resolver",
    "obtain_program",
    "plan_program",
    "plan_workload",
    "program_cache_key",
    "program_content_key",
    "simulate_planned_blocks",
    "simulator_for",
    "tiling_cache_key",
]


def build_model(workload: Workload) -> PlatformModel | GpuModel | BitFusionAccelerator:
    """Instantiate the platform model a workload targets."""
    # Workload.__post_init__ guarantees config is resolved, so what the
    # fingerprint hashed is exactly what runs here.
    if workload.platform == "bitfusion":
        return BitFusionAccelerator(
            workload.config,
            enable_loop_ordering=workload.enable_loop_ordering,
            enable_layer_fusion=workload.enable_layer_fusion,
        )
    if workload.platform in PLATFORM_SPECS:
        return PlatformModel(workload.config)
    if workload.platform == "gpu":
        return GpuModel(workload.config, GpuPrecision(workload.gpu_precision))
    raise ValueError(f"unknown platform {workload.platform!r}")


def execute_workload(workload: Workload) -> NetworkResult:
    """Run one workload end to end through the monolithic ``evaluate`` path.

    This is the uncached reference implementation the staged pipeline is
    checked against: for every workload, the staged result must be
    byte-identical to this one.
    """
    network = load_network(workload)
    model = build_model(workload)
    return model.evaluate(network, batch_size=workload.batch_size)


# ---------------------------------------------------------------------- #
# Stage 1: compile
# ---------------------------------------------------------------------- #
def _require_bitfusion(workload: Workload) -> None:
    if workload.platform != "bitfusion":
        raise ValueError(
            f"only bitfusion workloads compile to Fusion-ISA programs, got {workload.platform!r}"
        )


def tiling_cache_key(
    gemm: GemmWorkload, orders: tuple[LoopOrder, ...], config: BitFusionConfig
) -> str:
    """Cache key of one tiling search: GEMM content + orders + buffer geometry.

    Hashes exactly the search's inputs — the GEMM shape and operand
    bitwidths (:meth:`~repro.isa.tiling.GemmWorkload.to_dict`), the loop
    orders considered (the ``enable_loop_ordering`` flag in disguise, so an
    ablation run never shares plans with an optimized one) and the
    scratchpad capacities the search targets.  Deliberately *excluded*:
    array geometry, bandwidth, technology, frequency, batch size (already
    folded into the GEMM ``R`` dimension) and the network/layer names —
    duplicate GEMM shapes within a network, across networks and across
    sweep points that share buffer geometry all collapse onto one entry.
    """
    return fingerprint_payload(
        {
            "artifact": "tiling",
            "gemm": gemm.to_dict(),
            "orders": [order.value for order in orders],
            "buffers": {
                "ibuf_kb": config.ibuf_kb,
                "wbuf_kb": config.wbuf_kb,
                "obuf_kb": config.obuf_kb,
            },
        }
    )


def make_plan_resolver(
    config: BitFusionConfig, cache: ResultCache, stats: CacheStats
) -> PlanResolver:
    """A compiler plan resolver backed by the cache's in-process memo.

    Installed into :class:`~repro.isa.compiler.FusionCompiler` by
    :func:`compile_program`: each program's tiling searches first consult
    the memo under :func:`tiling_cache_key`, and only the genuine misses
    run (in one ``compute`` call), then are memoized.  Hit/miss traffic
    lands in ``stats.tilings``, one lookup per request: a request repeated
    within one call misses once and hits after, as it would one at a time.
    """
    memo = cache.memo

    def resolve(
        requests: list[TilingRequest],
        compute: Callable[[list[TilingRequest]], list[TilingPlan]],
    ) -> list[TilingPlan]:
        keys = [tiling_cache_key(gemm, orders, config) for gemm, orders in requests]
        plans = [memo.get(key) for key in keys]
        missing: dict[str, int] = {}
        for index, (key, plan) in enumerate(zip(keys, plans)):
            if plan is None and key not in missing:
                missing[key] = index
        stats.tilings.misses += len(missing)
        stats.tilings.hits += len(requests) - len(missing)
        if missing:
            found = compute([requests[index] for index in missing.values()])
            for key, plan in zip(missing, found):
                memo[key] = plan
            plans = [memo[key] if plan is None else plan for key, plan in zip(keys, plans)]
        return plans

    return resolve


def compile_program(
    workload: Workload,
    cache: ResultCache | None = None,
    stats: CacheStats | None = None,
) -> Program:
    """Compile a Bit Fusion workload to its Fusion-ISA program (stage 1).

    With a ``cache`` (and ``stats``), the compiler's tiling searches are
    memoized in the cache's in-process memo — duplicate GEMM shapes skip
    the search entirely.  Memoized and unmemoized compilations emit
    byte-identical programs.
    """
    _require_bitfusion(workload)
    resolver: PlanResolver | None = None
    if cache is not None:
        resolver = make_plan_resolver(workload.config, cache, stats or CacheStats())
    compiler = FusionCompiler(
        workload.config,
        enable_loop_ordering=workload.enable_loop_ordering,
        enable_layer_fusion=workload.enable_layer_fusion,
        plan_resolver=resolver,
    )
    return compiler.compile(load_network(workload), batch_size=workload.batch_size)


def program_content_key(
    network_fingerprint: str,
    batch_size: int,
    config: BitFusionConfig,
    enable_loop_ordering: bool = True,
    enable_layer_fusion: bool = True,
) -> str:
    """Structure-only compile-stage key from its raw inputs.

    The payload is exactly :func:`program_cache_key`'s, but built from a
    network fingerprint instead of a zoo-registered :class:`Workload` — this
    is what lets the NAS estimator (:mod:`repro.nas`) price arbitrary
    candidate networks while sharing memoized programs with ordinary
    session runs: a zoo network keyed here and keyed through a workload
    lands on the same entry by construction.
    """
    return fingerprint_payload(
        {
            "artifact": "program",
            "network": network_fingerprint,
            "batch_size": batch_size,
            "buffers": {
                "ibuf_kb": config.ibuf_kb,
                "wbuf_kb": config.wbuf_kb,
                "obuf_kb": config.obuf_kb,
            },
            "compiler": {
                "enable_loop_ordering": enable_loop_ordering,
                "enable_layer_fusion": enable_layer_fusion,
            },
        }
    )


def program_cache_key(workload: Workload) -> str:
    """Structure-only cache key of the compile stage.

    Hashes exactly the inputs the compiler reads — the network structure,
    the batch size (the batch folds into the GEMM ``R`` dimension and hence
    the tiling), the scratchpad capacities the tiling search targets, and
    the optimization flags.  Deliberately *excluded*: off-chip bandwidth,
    array geometry, technology node, frequency and the configuration name —
    none of them affect the emitted program, so workloads differing only in
    those share one compiled artifact.
    """
    _require_bitfusion(workload)
    return program_content_key(
        network_digest(workload),
        workload.batch_size,
        workload.config,
        workload.enable_loop_ordering,
        workload.enable_layer_fusion,
    )


def obtain_program(
    key: str, compile: Callable[[], Program], cache: ResultCache, stats: CacheStats
) -> Program:
    """The program memoized under ``key``, compiled by ``compile`` on a miss.

    A miss compiles (timed into ``stats.compile_seconds``) and memoizes the
    program under ``key`` — :func:`program_cache_key` for a workload,
    :func:`program_content_key` for a NAS candidate.
    """
    program = cache.memo.get(key)
    if program is not None:
        stats.programs.hits += 1
        return program
    stats.programs.misses += 1
    started = time.perf_counter()
    program = compile()
    stats.compile_seconds += time.perf_counter() - started
    cache.memo[key] = program
    return program


# ---------------------------------------------------------------------- #
# Stage 2: simulate-blocks
# ---------------------------------------------------------------------- #
@lru_cache(maxsize=None)
def simulator_for(config: BitFusionConfig) -> BitFusionSimulator:
    """The (memoized) simulator instance for one configuration.

    Building a :class:`~repro.sim.executor.BitFusionSimulator` re-derives
    the per-component energy models (SRAM bank sizing, technology scaling)
    every time; memoizing per configuration means the session stops
    rebuilding identical model state once per workload.
    ``BitFusionConfig`` is frozen/hashable and the simulator is stateless,
    so sharing instances is safe.
    """
    return BitFusionSimulator(config)


@lru_cache(maxsize=None)
def _sim_config_json(config: BitFusionConfig) -> str:
    """Canonical JSON of the configuration parameters one block's simulation reads.

    Everything the block simulator
    (:func:`~repro.sim.batched.simulate_blocks_grid`) reads: array geometry
    (cycle model and buffer-traffic counts), scratchpad capacities and
    access width (SRAM energy), off-chip bandwidth (transfer cycles) and
    technology node (energy scaling).  Deliberately
    excluded: frequency and the configuration name (composition metadata
    only) and the batch size (already folded into the block's tiling).

    Dumped exactly as :func:`~repro.fingerprint.fingerprint_payload` dumps a
    nested payload, and memoized per configuration (``BitFusionConfig`` is
    frozen, hence hashable): the string is spliced into every layer key and
    groups plans by simulation config in :func:`simulate_planned_blocks`.
    """
    payload = {
        "rows": config.rows,
        "columns": config.columns,
        "ibuf_kb": config.ibuf_kb,
        "wbuf_kb": config.wbuf_kb,
        "obuf_kb": config.obuf_kb,
        "dram_bandwidth_bits_per_cycle": config.dram_bandwidth_bits_per_cycle,
        "buffer_access_bits": config.buffer_access_bits,
        "technology": asdict(config.technology),
    }
    return json.dumps(payload, sort_keys=True, default=str)


@lru_cache(maxsize=None)
def _layer_content_key(layer_fingerprint: str, sim_config_json: str) -> str:
    # The exact text fingerprint_payload({"artifact": "layer", "layer": ...,
    # "sim": ...}) hashes (sorted keys, default separators), built from the
    # memoized config JSON instead of re-dumping the nested payload.  Keyed
    # on two strings, whose hashes Python caches: keying on the config
    # would re-hash the whole dataclass on every block lookup.
    text = (
        f'{{"artifact": "layer", "layer": "{layer_fingerprint}", '
        f'"sim": {sim_config_json}}}'
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def layer_cache_key(compiled: CompiledBlock, config: BitFusionConfig) -> str:
    """Content-addressed cache key of one simulated layer.

    Hashes the block's *name-free* content (:meth:`~repro.isa.program.
    CompiledBlock.layer_fingerprint`) plus the simulation-affecting
    configuration: identical (layer shape, bitwidths, tiling, instruction
    image) pairs collapse onto one key no matter which network — or which
    layer name within a network — produced them, which is what dedupes
    simulations across the model-family sweeps the paper's benchmark suite
    is full of.  The digest is ``fingerprint_payload({"artifact": "layer",
    "layer": <layer fingerprint>, "sim": <sim config>})``, so keys written by
    earlier releases stay valid.  Memoized: the layer fingerprint on the
    block instance, the config JSON per config and the key on
    (fingerprint, config JSON).  :func:`plan_program` derives each block's
    key once and passes it on (:attr:`WorkPlan.layer_keys`).
    """
    return _layer_content_key(compiled.layer_fingerprint(), _sim_config_json(config))


def lookup_block(cache: ResultCache, key: str, name: str) -> LayerResult | None:
    """The memoized result under layer ``key``, renamed to block ``name``.

    None on a miss.  No statistics are recorded here; callers account for
    hits and misses in their own stage counters.  Records are memoized
    with ``cache.memo[key] = layer`` (:func:`compose_plan`).  A record
    already under ``name`` is returned as is (records are frozen).
    """
    value = cache.memo.get(key)
    if value is None or value.name == name:
        return value
    return value.renamed(name)


# ---------------------------------------------------------------------- #
# Failure reporting, planning, batched simulation and composition
# ---------------------------------------------------------------------- #
class WorkloadExecutionError(RuntimeError):
    """A workload of a batch failed to plan, simulate or compose.

    Raised by :meth:`EvaluationSession.run_many
    <repro.session.session.EvaluationSession.run_many>` for the first
    failing workload; the message is :func:`describe_workload_error`'s and
    the original exception is chained as ``__cause__``.
    """


def describe_workload_error(workload: Workload, error: BaseException) -> str:
    """The labelled one-line error message a failed workload reports."""
    return f"workload {workload.label()}: {type(error).__name__}: {error}"


@dataclass(frozen=True)
class WorkPlan:
    """The cache-resolution plan of one program (a workload or a NAS candidate).

    ``program`` is the compiled program, priced under ``config`` at
    ``batch_size``; baseline workloads (no compile stage) plan with
    ``program=None`` and nothing else to resolve.
    ``layer_keys`` holds every block's :func:`layer_cache_key`, derived
    once at plan time and reused by every later lookup and store;
    ``cached_layers`` maps block index → result resolved at plan time;
    ``simulate_indices`` are the blocks that must be simulated;
    ``deferred_indices`` are blocks whose key an earlier plan of the same
    batch already claimed — their results are read from the memo at
    compose time, after the claiming plan has been composed.
    """

    program: Program | None
    #: The platform configuration: a ``BitFusionConfig`` whenever
    #: ``program`` is set.
    config: Any
    batch_size: int
    layer_keys: tuple[str, ...] = ()
    cached_layers: dict[int, LayerResult] = field(default_factory=dict)
    simulate_indices: tuple[int, ...] = ()
    deferred_indices: tuple[int, ...] = ()


def plan_workload(
    workload: Workload, cache: ResultCache, stats: CacheStats, claimed: set[str]
) -> WorkPlan:
    """Plan one pending workload: compile through the memo, then :func:`plan_program`.

    Compilation goes through the program memo (structure-only key), so a
    batch sharing a network compiles it exactly once.
    """
    if workload.platform != "bitfusion":
        return WorkPlan(program=None, config=workload.config, batch_size=workload.batch_size)
    program = obtain_program(
        program_cache_key(workload),
        partial(compile_program, workload, cache, stats),
        cache,
        stats,
    )
    return plan_program(program, workload.config, workload.batch_size, cache, stats, claimed)


def plan_program(
    program: Program,
    config: BitFusionConfig,
    batch_size: int,
    cache: ResultCache,
    stats: CacheStats,
    claimed: set[str],
) -> WorkPlan:
    """Resolve every block of ``program`` against the memo.

    Each block is looked up through its layer key; only genuinely missing
    blocks are scheduled for simulation.  ``claimed`` tracks layer keys
    already scheduled by earlier blocks of the same batch — duplicates
    (identical layer content under any name) are deferred to compose time
    instead of being simulated twice.  Plan-time hits count in
    ``stats.blocks.hits``, scheduled simulations in ``stats.blocks.misses``.
    """
    # layer_cache_key per block, with the config's JSON looked up once.
    sim_config_json = _sim_config_json(config)
    keys = tuple(
        _layer_content_key(compiled.layer_fingerprint(), sim_config_json)
        for compiled in program
    )
    cached: dict[int, LayerResult] = {}
    simulate: list[int] = []
    deferred: list[int] = []
    for index, (compiled, key) in enumerate(zip(program, keys)):
        value = lookup_block(cache, key, compiled.name)
        if value is not None:
            stats.blocks.hits += 1
            cached[index] = value
            continue
        if key in claimed:
            deferred.append(index)
            continue
        claimed.add(key)
        stats.blocks.misses += 1
        simulate.append(index)
    return WorkPlan(
        program=program,
        config=config,
        batch_size=batch_size,
        layer_keys=keys,
        cached_layers=cached,
        simulate_indices=tuple(simulate),
        deferred_indices=tuple(deferred),
    )


def compose_plan(
    plan: WorkPlan,
    fresh_layers: dict[int, LayerResult],
    cache: ResultCache,
    stats: CacheStats,
) -> NetworkResult:
    """Assemble a planned program's result from memoized + fresh blocks.

    ``fresh_layers`` maps block index → result simulated for this plan
    (:func:`simulate_planned_blocks`).  Fresh results are memoized under
    their layer keys as they are composed.  Deferred blocks (claimed by an
    earlier plan of the batch) are read from the memo, counting one block
    hit each: the claiming plan composed, and so memoized them, first.
    The result is composed under ``plan.config`` at ``plan.batch_size``.
    """
    program = plan.program
    assert program is not None
    layers: list[LayerResult] = []
    for index, (compiled, key) in enumerate(zip(program, plan.layer_keys)):
        if index in plan.cached_layers:
            layers.append(plan.cached_layers[index])
            continue
        if index in fresh_layers:
            layer = cache.memo[key] = fresh_layers[index]
            layers.append(layer)
            continue
        value = lookup_block(cache, key, compiled.name)
        if value is None:
            raise RuntimeError(f"deferred block {compiled.name!r} has no stored record")
        stats.blocks.hits += 1
        layers.append(value)
    return compose_network_result(
        network_name=program.network_name,
        platform=plan.config.name,
        batch_size=plan.batch_size,
        frequency_mhz=plan.config.frequency_mhz,
        layers=layers,
    )


def simulate_planned_blocks(plans: Sequence[WorkPlan]) -> list[dict[int, LayerResult]]:
    """Simulate every planned-but-missing block across ``plans``, batched.

    The missing blocks of *all* in-flight plans are gathered into as few
    :func:`~repro.sim.batched.simulate_blocks_grid` calls as possible.  Plans are grouped by their simulation-affecting
    configuration (:func:`_sim_config_json` — so e.g. a frequency sweep
    shares one group), and groups whose ordered block
    fingerprints are identical are merged into one 2-D grid call: the same
    block batch evaluated under every distinct sim config in one numpy
    pass.  That is the bandwidth/frequency-sweep fast path — ``N`` sweep
    points of a ``B``-block network cost one ``N × B`` grid instead of
    ``N`` separate passes.

    Returns one ``{block index → LayerResult}`` dict per plan, shaped
    exactly like the ``fresh_layers`` argument of :func:`compose_plan`.
    Baseline plans (``program is None``) and plans with nothing to simulate
    get an empty dict.
    """
    out: list[dict[int, LayerResult]] = [{} for _ in plans]
    # sim config JSON -> (config, [(plan idx, block idx, block)])
    by_config: dict[str, tuple[BitFusionConfig, list[tuple[int, int, CompiledBlock]]]] = {}
    for plan_index, plan in enumerate(plans):
        if plan.program is None or not plan.simulate_indices:
            continue
        config = plan.config
        _, items = by_config.setdefault(_sim_config_json(config), (config, []))
        blocks = plan.program.blocks
        items.extend(
            (plan_index, block_index, blocks[block_index])
            for block_index in plan.simulate_indices
        )
    # Merge config groups carrying identical block batches into 2-D grids.
    by_batch: dict[
        tuple[str, ...], list[tuple[BitFusionConfig, list[tuple[int, int, CompiledBlock]]]]
    ] = {}
    for config, items in by_config.values():
        signature = tuple(block.fingerprint() for _, _, block in items)
        by_batch.setdefault(signature, []).append((config, items))
    for groups in by_batch.values():
        simulators = [simulator_for(config) for config, _ in groups]
        # Identical fingerprints mean identical block content, so the first
        # group's blocks stand in for every config row of the grid.
        blocks = [block for _, _, block in groups[0][1]]
        rows = simulate_blocks_grid(simulators, blocks)
        for (_, items), row in zip(groups, rows):
            for (plan_index, block_index, _), layer in zip(items, row):
                out[plan_index][block_index] = layer
    return out
