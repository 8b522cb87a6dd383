"""Cache-composition surrogate estimator: price networks without simulating.

The layer memo already holds exactly what a layer-based NAS cost model
needs: per-layer :class:`~repro.sim.results.LayerResult`\\ s keyed by
*name-free* layer-content fingerprints plus the simulation-affecting
configuration.  :class:`Estimator` turns that memo into a surrogate
latency/energy estimator for arbitrary candidate
:class:`~repro.dnn.network.Network`\\ s — no zoo registration, no
:class:`~repro.session.workload.Workload`:

1. **look the composed result up** — with a cache directory, each priced
   candidate's result is stored under a key hashing everything
   composition reads (the program key, the simulation config, the config
   name and the frequency), so a re-run prices every known candidate with
   one record read;
2. **compile through the shared program memo** — the candidate's program is
   keyed by :func:`~repro.session.engine.program_content_key`, the exact
   payload session runs use, so a zoo network priced here reuses the program
   a report compiled in the same process (and vice versa); fresh
   compilations go through the tiling memo
   (:func:`~repro.session.engine.make_plan_resolver`) and one long-lived
   compiler, which hands a mutant's unchanged blocks back as the very
   objects it built for the parent;
3. **resolve every block through its layer key**
   (:func:`~repro.session.engine.lookup_block`) — blocks whose content the
   memo has seen, under *any* network or layer name, compose for free;
4. **batch only the genuinely unseen layers** through the existing batched
   executor (:func:`~repro.session.engine.simulate_planned_blocks`) and
   memoize their results under their layer keys
   (:func:`~repro.session.engine.store_layer_record`), so each novel layer
   is simulated exactly once across a whole search;
5. **compose** via :func:`~repro.sim.results.compose_network_result` — the
   same pure composition the simulator and the session use.

**Exactness guarantee**: the estimate is not an approximation.  Composition
is pure and memoized layer records are the very objects a fresh simulation
produced, so ``estimate(network)`` returns a result byte-identical to
``BitFusionAccelerator(config).evaluate(network)`` — on a fully-cached
network without running any simulation at all.  ``tests/test_nas.py``
property-tests this cold, warm and partially warm.

``estimate_many`` deduplicates candidates by network fingerprint and unseen
blocks by content within the batch (the ``claimed``-set protocol
:func:`~repro.session.engine.plan_workload` uses), so an evolutionary
population full of near-clones costs one simulation per genuinely novel
layer.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

from repro.core.config import BitFusionConfig
from repro.dnn.network import Network
from repro.isa.compiler import FusionCompiler
from repro.isa.program import Program
from repro.session.cache import CacheStats, ResultCache
from repro.session.engine import (
    _sim_config_json,
    layer_cache_key,
    lookup_block,
    make_plan_resolver,
    program_content_key,
    simulate_planned_blocks,
    store_layer_record,
)
from repro.sim.results import LayerResult, NetworkResult, compose_network_result

__all__ = ["Estimator", "EstimatorStats"]


@dataclass
class EstimatorStats:
    """What the estimator did, in layers and candidates.

    ``networks`` counts candidates requested, ``networks_deduped`` the
    subset that were in-batch duplicates of another candidate (same network
    fingerprint — priced once).  ``results_read`` counts unique candidates
    served whole by a stored composed result (``results_from_disk`` of them
    read from the cache directory); they touch no program or layer.  Per
    block of every other unique candidate:
    ``layers_composed`` were served straight from the cache,
    ``layers_simulated`` were genuinely novel and simulated
    (exactly once each), and ``deduped`` were deferred to an identical
    in-flight block of the same batch.  ``programs_compiled`` /
    ``programs_reused`` track the compile stage the same way.
    """

    networks: int = 0
    networks_deduped: int = 0
    results_read: int = 0
    results_from_disk: int = 0
    layers_composed: int = 0
    layers_simulated: int = 0
    deduped: int = 0
    programs_compiled: int = 0
    programs_reused: int = 0
    estimate_seconds: float = 0.0
    sim_seconds: float = 0.0

    @property
    def layer_lookups(self) -> int:
        return self.layers_composed + self.layers_simulated + self.deduped

    @property
    def hit_rate(self) -> float:
        """Fraction of layer lookups served without fresh simulation."""
        lookups = self.layer_lookups
        return (self.layers_composed + self.deduped) / lookups if lookups else 0.0

    def summary(self) -> str:
        lines = [
            f"estimator: {self.networks} candidates priced "
            f"({self.networks_deduped} in-batch duplicates), "
            f"layer hit rate {self.hit_rate:.0%}",
            f"results: {self.results_read} stored results read "
            f"({self.results_from_disk} from disk)",
            f"layers: {self.layers_composed} composed from cache, "
            f"{self.layers_simulated} simulated fresh, "
            f"{self.deduped} deduped in flight",
            f"programs: {self.programs_reused} reused, {self.programs_compiled} compiled",
        ]
        return "\n".join(lines)


@dataclass
class _CandidatePlan:
    """One candidate's cache-resolution plan (duck-types
    :class:`~repro.session.engine.PlanLike` for the batched executor)."""

    network: Network
    fingerprint: str
    result_key: str
    program: Program
    config: BitFusionConfig
    layer_keys: tuple[str, ...]
    cached_layers: dict[int, LayerResult] = field(default_factory=dict)
    simulate_indices: tuple[int, ...] = ()
    deferred_indices: tuple[int, ...] = ()


class Estimator:
    """Price candidate networks by cache lookup + composition.

    Parameters
    ----------
    config:
        The Bit Fusion configuration candidates are priced under; defaults
        to the paper's Eyeriss-matched 45 nm configuration.
    cache:
        The cache consulted and grown.  Pass the cache of an earlier
        session run in this process to start from its memo, or a
        persistent ``ResultCache(cache_dir)`` to reuse the composed results
        of earlier searches; defaults to a fresh memory-only cache.  Only a
        cache with a directory stores composed results: in memory alone a
        result would be read back only for a fingerprint this process
        already priced, which a search never re-prices.
    batch_size:
        Inference batch size; defaults to ``config.batch_size`` — the same
        default ``BitFusionAccelerator.evaluate`` applies, which the
        exactness guarantee relies on.
    enable_loop_ordering, enable_layer_fusion:
        Compiler flags, part of the program cache key.

    ``stats`` (:class:`EstimatorStats`) counts candidates and layers;
    ``cache_stats`` (:class:`~repro.session.cache.CacheStats`) carries the
    per-stage hit/miss traffic in the same shape session footers report.
    """

    def __init__(
        self,
        config: BitFusionConfig | None = None,
        cache: ResultCache | None = None,
        *,
        batch_size: int | None = None,
        enable_loop_ordering: bool = True,
        enable_layer_fusion: bool = True,
    ) -> None:
        self.config = config if config is not None else BitFusionConfig.eyeriss_matched()
        self.batch_size = self.config.batch_size if batch_size is None else batch_size
        if self.batch_size <= 0:
            raise ValueError(f"batch size must be positive, got {self.batch_size}")
        self.cache = cache if cache is not None else ResultCache()
        self.enable_loop_ordering = enable_loop_ordering
        self.enable_layer_fusion = enable_layer_fusion
        self.stats = EstimatorStats()
        self.cache_stats = CacheStats()
        self._store_results = self.cache.cache_dir is not None
        # Everything composition reads besides the program: the block
        # simulations' config, plus the composed result's platform name and
        # frequency.  Hashed with each candidate's program key into the key
        # of its stored result.
        self._composition = json.dumps(
            {
                "sim": _sim_config_json(self.config),
                "platform": self.config.name,
                "frequency_mhz": self.config.frequency_mhz,
            },
            sort_keys=True,
        )
        # One compiler for the whole search: it builds each block once, so a
        # mutant's unchanged layers reuse their parent's compiled blocks.
        self._compiler = FusionCompiler(
            self.config,
            enable_loop_ordering=enable_loop_ordering,
            enable_layer_fusion=enable_layer_fusion,
            plan_resolver=make_plan_resolver(self.config, self.cache, self.cache_stats),
        )
        # In-flight layer claims: keys some plan has promised to
        # simulate and store but has not yet composed.  Later plans defer to
        # the claimant instead of re-simulating.  Claims are released in
        # ``estimate_many``'s ``finally`` — on success they are redundant
        # (the records are in the cache), and on a raising batch releasing
        # them is essential: a leaked claim would make every later
        # ``estimate_many`` defer to a claimant that never stored anything
        # and die at compose time.
        self._in_flight: set[str] = set()

    # ------------------------------------------------------------------ #
    # Pricing
    # ------------------------------------------------------------------ #
    def estimate(self, network: Network) -> NetworkResult:
        """Price one candidate network (see :meth:`estimate_many`)."""
        return self.estimate_many([network])[0]

    def estimate_many(self, networks: list[Network]) -> list[NetworkResult]:
        """Price a batch of candidates, deduped and batch-simulated.

        Candidates are deduplicated by network fingerprint; the unique ones
        are served by a stored result or planned against the memo, their
        collectively-unseen blocks simulate in one batched pass, and every
        planned result composes from memoized plus fresh records (and is
        stored, with a cache directory).  Returns one result per input, in
        input order (duplicates get the shared result object).
        """
        started = time.perf_counter()
        requested: list[str] = []
        unique: dict[str, Network] = {}
        for network in networks:
            fingerprint = network.fingerprint()
            requested.append(fingerprint)
            self.stats.networks += 1
            if fingerprint in unique:
                self.stats.networks_deduped += 1
            else:
                unique[fingerprint] = network
        results: dict[str, NetworkResult] = {}
        plans: list[_CandidatePlan] = []
        batch_claims: set[str] = set()
        try:
            for fingerprint, network in unique.items():
                program_key = program_content_key(
                    fingerprint,
                    self.batch_size,
                    self.config,
                    self.enable_loop_ordering,
                    self.enable_layer_fusion,
                )
                result_key = hashlib.sha256(
                    f"estimate|{program_key}|{self._composition}".encode("utf-8")
                ).hexdigest()
                stored = self._stored_result(result_key)
                if stored is not None:
                    results[fingerprint] = stored
                    continue
                plans.append(
                    self._plan(network, fingerprint, program_key, result_key, batch_claims)
                )
            sim_started = time.perf_counter()
            simulated = simulate_planned_blocks(plans)
            sim_seconds = time.perf_counter() - sim_started
            self.stats.sim_seconds += sim_seconds
            self.cache_stats.sim_seconds += sim_seconds
            with self.cache.batch():
                for plan, fresh_layers in zip(plans, simulated):
                    result = results[plan.fingerprint] = self._compose(plan, fresh_layers)
                    if self._store_results:
                        self.cache.put(
                            plan.result_key,
                            result,
                            {"network": plan.network.name, "estimator": "nas"},
                        )
        finally:
            # Release this batch's claims whether or not it survived: a
            # raising simulation must not leave dangling claims that later
            # batches would defer to (and then fail composing against).
            self._in_flight -= batch_claims
        self.cache.flush()
        self.stats.estimate_seconds += time.perf_counter() - started
        return [results[fingerprint] for fingerprint in requested]

    # ------------------------------------------------------------------ #
    # Stages
    # ------------------------------------------------------------------ #
    def _stored_result(self, key: str) -> NetworkResult | None:
        """The candidate's stored composed result, when results are stored."""
        if not self._store_results:
            return None
        value, source = self.cache.get_with_source(key)
        if value is not None:
            self.stats.results_read += 1
            if source == "disk":
                self.stats.results_from_disk += 1
        return value

    def _obtain_program(self, network: Network, key: str) -> Program:
        program = self.cache.memo.get(key)
        if program is not None:
            self.cache_stats.programs.hits += 1
            self.stats.programs_reused += 1
            return program
        self.cache_stats.programs.misses += 1
        self.stats.programs_compiled += 1
        compile_started = time.perf_counter()
        program = self._compiler.compile(network, batch_size=self.batch_size)
        self.cache_stats.compile_seconds += time.perf_counter() - compile_started
        self.cache.memo[key] = program
        return program

    def _plan(
        self,
        network: Network,
        fingerprint: str,
        program_key: str,
        result_key: str,
        claimed: set[str],
    ) -> _CandidatePlan:
        program = self._obtain_program(network, program_key)
        keys = tuple(layer_cache_key(compiled, self.config) for compiled in program)
        cached: dict[int, LayerResult] = {}
        simulate: list[int] = []
        deferred: list[int] = []
        for index, (compiled, key) in enumerate(zip(program, keys)):
            value = lookup_block(self.cache, key, compiled.name)
            if value is not None:
                self.cache_stats.blocks.hits += 1
                self.stats.layers_composed += 1
                cached[index] = value
                continue
            # Same in-batch claim protocol as plan_workload: identical layer
            # content already scheduled (claimed in flight) is deferred to
            # compose time, never simulated twice.
            if key in self._in_flight:
                deferred.append(index)
                self.stats.deduped += 1
                continue
            self._in_flight.add(key)
            claimed.add(key)
            self.cache_stats.blocks.misses += 1
            self.stats.layers_simulated += 1
            simulate.append(index)
        return _CandidatePlan(
            network=network,
            fingerprint=fingerprint,
            result_key=result_key,
            program=program,
            config=self.config,
            layer_keys=keys,
            cached_layers=cached,
            simulate_indices=tuple(simulate),
            deferred_indices=tuple(deferred),
        )

    def _compose(
        self, plan: _CandidatePlan, fresh_layers: dict[int, LayerResult]
    ) -> NetworkResult:
        layers: list[LayerResult] = []
        for index, (compiled, key) in enumerate(zip(plan.program, plan.layer_keys)):
            if index in plan.cached_layers:
                layers.append(plan.cached_layers[index])
                continue
            if index in fresh_layers:
                layer = fresh_layers[index]
                store_layer_record(self.cache, key, layer)
                layers.append(layer)
                continue
            # Deferred: the claiming plan (earlier in this batch, or an
            # earlier block of this very program) has memoized the record.
            value = lookup_block(self.cache, key, compiled.name)
            if value is None:  # pragma: no cover — claim protocol guarantees it
                raise RuntimeError(
                    f"deferred block {compiled.name!r} of {plan.network.name!r} "
                    "missing at compose time"
                )
            self.cache_stats.blocks.hits += 1
            layers.append(value)
        return compose_network_result(
            network_name=plan.program.network_name,
            platform=self.config.name,
            batch_size=self.batch_size,
            frequency_mhz=self.config.frequency_mhz,
            layers=layers,
        )
