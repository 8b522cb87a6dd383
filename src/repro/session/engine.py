"""Staged workload execution: compile → simulate-blocks → compose.

This module is the seam between :class:`~repro.session.session.
EvaluationSession` and the platform models.  Bit Fusion workloads run
through an explicit three-stage pipeline with a cacheable artifact at every
seam:

1. **compile** — lower the network to a Fusion-ISA
   :class:`~repro.isa.program.Program`.  The artifact is keyed by a
   *structure-only* fingerprint (:func:`program_cache_key`): network
   structure, batch size, scratchpad capacities and compiler flags — the
   only inputs the compiler reads.  A sweep that varies off-chip bandwidth
   (or any other simulation-only parameter) therefore reuses one compiled
   program across all its points.
2. **simulate-blocks** — run each instruction block independently through
   :class:`~repro.sim.executor.BitFusionSimulator` into a serializable
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
   pure, so a result composed from cached artifacts is byte-identical to a
   fresh monolithic simulation.

Baseline platforms (Eyeriss, Stripes, GPUs, the temporal design) have no
compile stage; they run as a single simulate step and cache whole results.

Execution is **warm-artifact aware**.  The session plans each uncached
workload against the cache (:func:`plan_workload`): it compiles through
the program cache (structure-only keys, exactly-once per network) and
resolves every block whose result is already cached.  The genuinely
missing blocks of a whole batch of plans then simulate together
(:func:`simulate_planned_blocks`), and each plan composes from cached plus
fresh records, storing the fresh ones (:func:`compose_plan`).  The first
failing workload stops the batch with a :class:`WorkloadExecutionError`
naming it.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Any, Callable, NamedTuple, Protocol, Sequence

from repro.baselines.base import AcceleratorModel
from repro.baselines.eyeriss import EyerissModel
from repro.baselines.gpu import GpuModel, GpuPrecision
from repro.baselines.stripes import StripesModel
from repro.baselines.temporal import TemporalAcceleratorModel
from repro.core.accelerator import BitFusionAccelerator
from repro.core.config import BitFusionConfig
from repro.fingerprint import fingerprint_payload
from repro.isa.compiler import FusionCompiler, PlanResolver
from repro.isa.instructions import LoopOrder
from repro.isa.program import CompiledBlock, Program
from repro.isa.tiling import GemmWorkload, TilingPlan
from repro.session.cache import CacheStats, ProgramStats, ResultCache
from repro.session.workload import Workload, load_network, network_digest
from repro.sim.batched import simulate_blocks_grid
from repro.sim.executor import BitFusionSimulator
from repro.sim.results import LayerResult, NetworkResult, compose_network_result

__all__ = [
    "CacheAudit",
    "PlanLike",
    "WorkPlan",
    "WorkloadExecutionError",
    "audit_workload_cache",
    "build_model",
    "compile_program",
    "compile_workload",
    "compose_plan",
    "describe_workload_error",
    "execute_workload",
    "layer_cache_key",
    "make_plan_resolver",
    "obtain_program",
    "plan_workload",
    "program_cache_key",
    "program_content_key",
    "simulate_planned_blocks",
    "simulator_for",
    "store_layer_record",
    "tiling_cache_key",
    "try_compose_from_cache",
]


def build_model(workload: Workload) -> AcceleratorModel | BitFusionAccelerator:
    """Instantiate the platform model a workload targets."""
    # Workload.__post_init__ guarantees config is resolved (or None only for
    # the fixed-configuration temporal platform), so what the fingerprint
    # hashed is exactly what runs here.
    if workload.platform == "bitfusion":
        return BitFusionAccelerator(
            workload.config,
            enable_loop_ordering=workload.enable_loop_ordering,
            enable_layer_fusion=workload.enable_layer_fusion,
        )
    if workload.platform == "eyeriss":
        return EyerissModel(workload.config)
    if workload.platform == "stripes":
        return StripesModel(workload.config)
    if workload.platform == "gpu":
        return GpuModel(workload.config, GpuPrecision(workload.gpu_precision))
    if workload.platform == "temporal":
        return TemporalAcceleratorModel()
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
    """A compiler plan resolver backed by the session's artifact cache.

    Installed into :class:`~repro.isa.compiler.FusionCompiler` by
    :func:`compile_program`: every tiling search first consults the cache
    under :func:`tiling_cache_key` and only runs (then stores its plan) on
    a genuine miss.  Hit/miss traffic lands in ``stats.tilings``.
    """

    def resolve(
        gemm: GemmWorkload,
        orders: tuple[LoopOrder, ...],
        compute: Callable[[], TilingPlan],
    ) -> TilingPlan:
        key = tiling_cache_key(gemm, orders, config)
        value, source = cache.get_with_source(key)
        if value is not None:
            stats.tilings.record_hit(source)
            return value
        stats.tilings.record_miss()
        plan = compute()
        cache.put(key, plan, {"artifact": "tiling", "gemm": gemm.to_dict()})
        return plan

    return resolve


def compile_program(
    workload: Workload,
    cache: ResultCache | None = None,
    stats: CacheStats | None = None,
) -> Program:
    """Compile a Bit Fusion workload to its Fusion-ISA program (stage 1).

    With a ``cache`` (and ``stats``), the compiler's tiling searches are
    memoized through the cache's ``tiling`` level — duplicate GEMM shapes
    skip the search entirely, and plans persist to disk alongside the other
    artifacts.  Memoized and unmemoized compilations emit byte-identical
    programs (plans serialize losslessly).
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


def compile_workload(workload: Workload) -> ProgramStats:
    """Compile a Bit Fusion workload and distill its program statistics."""
    return ProgramStats.from_program(compile_program(workload))


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
    candidate networks while sharing compiled-program entries with ordinary
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
    workload: Workload, cache: ResultCache, stats: CacheStats
) -> tuple[Program, str]:
    """The workload's compiled program, from cache when possible.

    Returns the program and the source it came from (``"memory"``,
    ``"disk"`` or ``"miss"`` for a fresh compilation, which is stored back
    into the cache).
    """
    key = program_cache_key(workload)
    value, source = cache.get_with_source(key)
    if value is not None:
        stats.programs.record_hit(source)
        return value, source
    stats.programs.record_miss()
    started = time.perf_counter()
    program = compile_program(workload, cache, stats)
    stats.compile_seconds += time.perf_counter() - started
    cache.put(key, program, {**workload.describe(), "artifact": "program"})
    return program, "miss"


# ---------------------------------------------------------------------- #
# Stage 2: simulate-blocks
# ---------------------------------------------------------------------- #
@lru_cache(maxsize=None)
def _build_simulator(
    simulator_cls: type[BitFusionSimulator], config: BitFusionConfig
) -> BitFusionSimulator:
    return simulator_cls(config)


def simulator_for(config: BitFusionConfig) -> BitFusionSimulator:
    """The (memoized) simulator instance for one configuration.

    Building a :class:`~repro.sim.executor.BitFusionSimulator` re-derives
    the per-component energy models (SRAM bank sizing, technology scaling)
    every time; memoizing per configuration means the session stops
    rebuilding identical model state once per workload.
    ``BitFusionConfig`` is frozen/hashable and the simulator is stateless,
    so sharing instances is safe.  The module-global class is resolved at
    call time (and is part of the memo key), so tests that monkeypatch
    ``engine.BitFusionSimulator`` get their own entries.
    """
    return _build_simulator(BitFusionSimulator, config)


@lru_cache(maxsize=None)
def _sim_config_json(config: BitFusionConfig) -> str:
    """Canonical JSON of the configuration parameters one block's simulation reads.

    Everything :meth:`~repro.sim.executor.BitFusionSimulator.run_block`
    reads: array geometry (cycle model and buffer-traffic counts),
    scratchpad capacities and access width (SRAM energy), off-chip bandwidth
    (transfer cycles) and technology node (energy scaling).  Deliberately
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
def _layer_content_key(layer_fingerprint: str, config: BitFusionConfig) -> str:
    # The exact text fingerprint_payload({"artifact": "layer", "layer": ...,
    # "sim": ...}) hashes (sorted keys, default separators), built from the
    # memoized config JSON instead of re-dumping the nested payload.
    text = (
        f'{{"artifact": "layer", "layer": "{layer_fingerprint}", '
        f'"sim": {_sim_config_json(config)}}}'
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
    (fingerprint, config).  Planners derive each block's key once and pass
    it on (:attr:`WorkPlan.layer_keys`).
    """
    return _layer_content_key(compiled.layer_fingerprint(), config)


def lookup_block(
    cache: ResultCache, key: str, name: str
) -> tuple[LayerResult | None, str]:
    """Resolve one block's simulated result through its layer ``key``.

    Returns ``(value, source)`` with ``source`` one of
    ``"memory"``/``"disk"``/``"miss"``; a hit is renamed to the requesting
    block ``name``.  No statistics are recorded here; callers account for
    hits and misses in their own stage counters.
    """
    value, source = cache.get_with_source(key)
    if value is None:
        return None, "miss"
    return value.renamed(name), source


def store_layer_record(
    cache: ResultCache,
    key: str,
    name: str,
    layer: LayerResult,
    description: dict[str, Any] | None = None,
) -> None:
    """Store one freshly simulated block (named ``name``) under its layer ``key``.

    The record's name is normalized away, so the stored payload is
    independent of which network asked first.  Takes the key rather than a
    :class:`Workload` so callers pricing arbitrary networks (the NAS
    estimator) insert records the same way session runs do.
    """
    cache.put(
        key,
        layer.renamed(""),
        {**(description or {}), "artifact": "layer", "block": name},
    )


# ---------------------------------------------------------------------- #
# Stage 3: compose, and the staged drivers
# ---------------------------------------------------------------------- #
def _compose(workload: Workload, program: Program, layers: list[LayerResult]) -> NetworkResult:
    config: BitFusionConfig = workload.config
    return compose_network_result(
        network_name=program.network_name,
        platform=config.name,
        batch_size=workload.batch_size,
        frequency_mhz=config.frequency_mhz,
        layers=layers,
    )


def try_compose_from_cache(
    workload: Workload, cache: ResultCache, stats: CacheStats
) -> tuple[NetworkResult | None, bool]:
    """Compose a workload's result purely from cached artifacts, if possible.

    Returns ``(result, any_artifact_came_from_disk)``; ``(None, False)``
    when the program or any block result is missing (in which case no stage
    counters are touched — the execution path will look the artifacts up
    again and account for them).
    """
    if workload.platform != "bitfusion":
        return None, False
    program, program_source = cache.get_with_source(program_cache_key(workload))
    if program is None:
        return None, False
    keys = [layer_cache_key(compiled, workload.config) for compiled in program]
    cache.prefetch(keys)
    found: list[tuple[LayerResult, str]] = []
    for compiled, key in zip(program, keys):
        value, source = lookup_block(cache, key, compiled.name)
        if value is None:
            return None, False
        found.append((value, source))
    stats.programs.record_hit(program_source)
    from_disk = program_source == "disk"
    for _, source in found:
        stats.blocks.record_hit(source)
        from_disk = from_disk or source == "disk"
    return _compose(workload, program, [layer for layer, _ in found]), from_disk


class CacheAudit(NamedTuple):
    """One workload's read-only cache diff (:func:`audit_workload_cache`)."""

    state: str
    missing_blocks: int
    total_blocks: int
    #: Of the tiling searches compiling this workload would request, how
    #: many the tiling memo already holds.  Only non-zero for ``"cold"``
    #: Bit Fusion workloads — a cached program never searches again.
    tilings_cached: int
    tilings_total: int


def _audit_tilings(workload: Workload, cache: ResultCache) -> tuple[int, int]:
    """How many of a cold workload's tiling searches the memo already holds.

    The searches a compilation *would* run are derivable without searching
    (:meth:`~repro.isa.compiler.FusionCompiler.tiling_requests` — fusion
    grouping plus GEMM-shape lowering, no instruction emission), so a cold
    workload whose GEMM shapes another sweep point already planned shows up
    in a ``--dry-run`` as mostly-memoized compile work rather than as fully
    cold.
    """
    compiler = FusionCompiler(
        workload.config,
        enable_loop_ordering=workload.enable_loop_ordering,
        enable_layer_fusion=workload.enable_layer_fusion,
    )
    requests = compiler.tiling_requests(
        load_network(workload), batch_size=workload.batch_size
    )
    cached = sum(
        1
        for gemm, orders in requests
        if tiling_cache_key(gemm, orders, workload.config) in cache
    )
    return cached, len(requests)


def audit_workload_cache(workload: Workload, cache: ResultCache) -> CacheAudit:
    """How much of one workload's work the cache already holds (read-only).

    Returns a :class:`CacheAudit` whose ``state`` is

    * ``"cached"`` — the workload would execute without any fresh work: a
      whole result is stored (baselines), or every artifact needed to
      compose one is (Bit Fusion: program plus all layer results);
    * ``"partial"`` — the compiled program is cached but
      ``missing_blocks`` of its ``total_blocks`` blocks would simulate;
    * ``"cold"`` — no program artifact is cached (``total_blocks`` is 0
      because without the program the block count is unknown without
      compiling — which an audit must never do).  A cold Bit Fusion
      workload still reports ``tilings_cached`` of ``tilings_total``: the
      tiling searches its compilation would request (derivable from the
      network structure alone, no search run) that the persistent tiling
      memo would serve — so a grid sharing GEMM shapes with earlier runs
      is never misreported as entirely unstarted.

    No statistics are recorded and nothing executes.  Only the program
    payload is read (its blocks are needed to derive the layer keys);
    layer and tiling records are probed for *existence*
    without deserializing or memory-promoting them, so auditing a planned
    grid against a large cache directory stays cheap — ``python -m
    repro.harness sweep --dry-run`` uses this to diff a grid against a
    ``--cache-dir`` before committing to the run.
    """
    if workload.fingerprint() in cache:
        return CacheAudit("cached", 0, 0, 0, 0)
    if workload.platform != "bitfusion":
        return CacheAudit("cold", 0, 0, 0, 0)
    program = cache.get(program_cache_key(workload))
    if program is None:
        cached, total = _audit_tilings(workload, cache)
        return CacheAudit("cold", 0, 0, cached, total)
    missing = sum(
        1 for compiled in program if layer_cache_key(compiled, workload.config) not in cache
    )
    state = "cached" if missing == 0 else "partial"
    return CacheAudit(state, missing, len(program), 0, 0)


# ---------------------------------------------------------------------- #
# Planning, failure reporting and batched simulation
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


class PlanLike(Protocol):
    """What :func:`simulate_planned_blocks` needs from a plan.

    Satisfied by :class:`WorkPlan` and by the NAS estimator's candidate
    plans (:mod:`repro.nas.estimator`), which carry no :class:`Workload`.
    """

    @property
    def program(self) -> Program | None: ...

    @property
    def simulate_indices(self) -> tuple[int, ...]: ...

    @property
    def config(self) -> BitFusionConfig: ...


@dataclass(frozen=True)
class WorkPlan:
    """The cache-resolution plan for one pending workload.

    ``layer_keys`` holds every block's :func:`layer_cache_key`, derived
    once at plan time and reused by every later lookup and store;
    ``cached_layers`` maps block index → result resolved at plan time;
    ``simulate_indices`` are the blocks that must be simulated;
    ``deferred_indices`` are blocks whose key an earlier workload of the
    same batch already claimed — their results are read from the cache at
    compose time, after the claiming workload has been stored.
    """

    workload: Workload
    program: Program | None
    layer_keys: tuple[str, ...]
    cached_layers: dict[int, LayerResult]
    simulate_indices: tuple[int, ...]
    deferred_indices: tuple[int, ...]

    @property
    def config(self) -> BitFusionConfig:
        """The simulation configuration — the duck-typed plan interface.

        :func:`simulate_planned_blocks` reads only ``program``,
        ``simulate_indices`` and ``config`` from a plan, so the NAS
        estimator's workload-free candidate plans batch through the same
        executor.
        """
        return self.workload.config


def plan_workload(
    workload: Workload, cache: ResultCache, stats: CacheStats, claimed: set[str]
) -> WorkPlan:
    """Plan one pending workload: compile, resolve warm blocks.

    Compilation goes through the program cache (structure-only key), so a
    batch sharing a network compiles it exactly once.  Every block is then
    resolved through its layer key; only genuinely missing blocks are
    scheduled for simulation.  ``claimed`` tracks layer keys already
    scheduled by earlier blocks of the same batch — duplicates (identical
    layer content under any name) are deferred to compose time instead of
    being simulated twice.
    """
    if workload.platform != "bitfusion":
        return WorkPlan(
            workload=workload,
            program=None,
            layer_keys=(),
            cached_layers={},
            simulate_indices=(),
            deferred_indices=(),
        )
    program, _ = obtain_program(workload, cache, stats)
    keys = tuple(layer_cache_key(compiled, workload.config) for compiled in program)
    cache.prefetch(keys)
    cached: dict[int, LayerResult] = {}
    simulate: list[int] = []
    deferred: list[int] = []
    for index, (compiled, key) in enumerate(zip(program, keys)):
        value, source = lookup_block(cache, key, compiled.name)
        if value is not None:
            stats.blocks.record_hit(source)
            cached[index] = value
            continue
        if key in claimed:
            deferred.append(index)
            continue
        claimed.add(key)
        stats.blocks.record_miss()
        simulate.append(index)
    return WorkPlan(
        workload=workload,
        program=program,
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
    """Assemble a planned workload's result from cached + fresh blocks.

    ``fresh_layers`` maps block index → result simulated for this plan
    (:func:`simulate_planned_blocks`).  Fresh results are stored under
    their layer keys as they are composed — inside one
    :meth:`ResultCache.batch` scope, so a plan's store-backs land as a
    single group-committed segment append instead of one write per
    artifact.  Deferred blocks (claimed by an earlier workload of the
    batch) are read from the cache: the claiming workload composed, and so
    stored them, first.
    """
    workload = plan.workload
    assert plan.program is not None
    description = workload.describe()
    layers: list[LayerResult] = []
    with cache.batch():
        for index, (compiled, key) in enumerate(zip(plan.program, plan.layer_keys)):
            if index in plan.cached_layers:
                layers.append(plan.cached_layers[index])
                continue
            if index in fresh_layers:
                layer = fresh_layers[index]
                store_layer_record(cache, key, compiled.name, layer, description)
                layers.append(layer)
                continue
            value, source = lookup_block(cache, key, compiled.name)
            if value is None:
                raise RuntimeError(f"deferred block {compiled.name!r} has no stored record")
            stats.blocks.record_hit(source)
            layers.append(value)
    return _compose(workload, plan.program, layers)


def simulate_planned_blocks(
    plans: Sequence["PlanLike"],
) -> list[dict[int, LayerResult]]:
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
