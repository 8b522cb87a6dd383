"""Cache-composition surrogate estimator: price networks without simulating.

The layer memo already holds exactly what a layer-based NAS cost model
needs: per-layer :class:`~repro.sim.results.LayerResult`\\ s keyed by
*name-free* layer-content fingerprints plus the simulation-affecting
configuration.  :class:`Estimator` turns that memo into a surrogate
latency/energy estimator for arbitrary candidate
:class:`~repro.dnn.network.Network`\\ s — no zoo registration, no
:class:`~repro.session.workload.Workload`.  It is a thin driver of the
session engine's planner (:mod:`repro.session.engine`), not a second copy
of it:

1. **look the composed result up** — with a cache directory, each priced
   candidate's result is stored under a key hashing everything
   composition reads (the program key, the simulation config, the config
   name and the frequency), so a re-run prices every known candidate with
   one record read;
2. **plan, simulate and compose through the engine** — the candidate's
   program comes from the shared program memo
   (:func:`~repro.session.engine.obtain_program`, keyed by
   :func:`~repro.session.engine.program_content_key`, the exact payload
   session runs use, so a zoo network priced here reuses the program a
   report compiled in the same process and vice versa); fresh
   compilations go through the tiling memo and one long-lived compiler,
   which hands a mutant's unchanged blocks back as the very objects it
   built for the parent.  :func:`~repro.session.engine.plan_program`
   resolves every block through its layer key, the batch's genuinely
   unseen layers simulate in one pass
   (:func:`~repro.session.engine.simulate_planned_blocks`) and
   :func:`~repro.session.engine.compose_plan` composes and memoizes them,
   so each novel layer is simulated exactly once across a whole search.

**Exactness guarantee**: the estimate is not an approximation.  Composition
is pure and memoized layer records are the very objects a fresh simulation
produced, so ``estimate(network)`` returns a result byte-identical to
``BitFusionAccelerator(config).evaluate(network, batch_size)`` — on a
fully-cached network without running any simulation at all.
``tests/test_nas.py`` property-tests this cold, warm and partially warm.

``estimate_many`` deduplicates candidates by network fingerprint and unseen
blocks by content within the batch (one ``claimed`` set per call, passed to
:func:`~repro.session.engine.plan_program` as a session batch passes its
own), so an evolutionary population full of near-clones costs one
simulation per genuinely novel layer.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from functools import partial

from repro.core.config import BitFusionConfig
from repro.dnn.network import Network
from repro.isa.compiler import FusionCompiler
from repro.session.cache import CacheStats, ResultCache
from repro.session.engine import (
    WorkPlan,
    _sim_config_json,
    compose_plan,
    make_plan_resolver,
    obtain_program,
    plan_program,
    program_content_key,
    simulate_planned_blocks,
)
from repro.session.workload import DEFAULT_BATCH_SIZE
from repro.sim.results import NetworkResult

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

    The program, layer and simulation-time figures are reads of
    ``stages``, the :class:`~repro.session.cache.CacheStats` the engine's
    planner fills (the estimator's ``cache_stats``), so each event is
    counted once: a deferred block is a block hit read back at compose
    time, hence ``layers_composed = blocks.hits - deduped``.
    """

    stages: CacheStats = field(default_factory=CacheStats)
    networks: int = 0
    networks_deduped: int = 0
    results_read: int = 0
    results_from_disk: int = 0
    deduped: int = 0
    estimate_seconds: float = 0.0

    @property
    def layers_composed(self) -> int:
        return self.stages.blocks.hits - self.deduped

    @property
    def layers_simulated(self) -> int:
        return self.stages.blocks.misses

    @property
    def programs_compiled(self) -> int:
        return self.stages.programs.misses

    @property
    def programs_reused(self) -> int:
        return self.stages.programs.hits

    @property
    def sim_seconds(self) -> float:
        return self.stages.sim_seconds

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
        Inference batch size every candidate is priced at (default
        ``DEFAULT_BATCH_SIZE``, the paper's 16).  ``estimate(network)`` equals
        ``BitFusionAccelerator(config).evaluate(network, batch_size)``.
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
        batch_size: int = DEFAULT_BATCH_SIZE,
        enable_loop_ordering: bool = True,
        enable_layer_fusion: bool = True,
    ) -> None:
        self.config = config if config is not None else BitFusionConfig.eyeriss_matched()
        self.batch_size = batch_size
        if self.batch_size <= 0:
            raise ValueError(f"batch size must be positive, got {self.batch_size}")
        self.cache = cache if cache is not None else ResultCache()
        self.enable_loop_ordering = enable_loop_ordering
        self.enable_layer_fusion = enable_layer_fusion
        self.cache_stats = CacheStats()
        self.stats = EstimatorStats(self.cache_stats)
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
        # Network fingerprint -> program key: every input of the key but the
        # fingerprint is fixed per estimator, and re-dumping the payload was
        # a sizeable share of a warm estimate.
        self._program_keys: dict[str, str] = {}
        # One compiler for the whole search: it builds each block once, so a
        # mutant's unchanged layers reuse their parent's compiled blocks.
        self._compiler = FusionCompiler(
            self.config,
            enable_loop_ordering=enable_loop_ordering,
            enable_layer_fusion=enable_layer_fusion,
            plan_resolver=make_plan_resolver(self.config, self.cache, self.cache_stats),
        )

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
        # (fingerprint, stored-result key, plan) of every candidate to price.
        pending: list[tuple[str, str, WorkPlan]] = []
        # Layer keys some plan of this batch will simulate: later blocks
        # with the same content defer to the claimant.
        claimed: set[str] = set()
        for fingerprint, network in unique.items():
            program_key = self._program_keys.get(fingerprint)
            if program_key is None:
                program_key = self._program_keys[fingerprint] = program_content_key(
                    fingerprint,
                    self.batch_size,
                    self.config,
                    self.enable_loop_ordering,
                    self.enable_layer_fusion,
                )
            result_key = ""
            if self._store_results:
                result_key = hashlib.sha256(
                    f"estimate|{program_key}|{self._composition}".encode("utf-8")
                ).hexdigest()
                stored = self._stored_result(result_key)
                if stored is not None:
                    results[fingerprint] = stored
                    continue
            program = obtain_program(
                program_key,
                partial(self._compiler.compile, network, self.batch_size),
                self.cache,
                self.cache_stats,
            )
            plan = plan_program(
                program, self.config, self.batch_size, self.cache, self.cache_stats, claimed
            )
            pending.append((fingerprint, result_key, plan))
        sim_started = time.perf_counter()
        simulated = simulate_planned_blocks([plan for _, _, plan in pending])
        self.cache_stats.sim_seconds += time.perf_counter() - sim_started
        for (fingerprint, result_key, plan), fresh_layers in zip(pending, simulated):
            result = compose_plan(plan, fresh_layers, self.cache, self.cache_stats)
            self.stats.deduped += len(plan.deferred_indices)
            results[fingerprint] = result
            if self._store_results:
                self.cache.put(result_key, result)
        self.cache.flush()
        self.stats.estimate_seconds += time.perf_counter() - started
        return [results[fingerprint] for fingerprint in requested]

    def _stored_result(self, key: str) -> NetworkResult | None:
        """The candidate's stored composed result, if the cache holds one."""
        value, source = self.cache.get_with_source(key)
        if value is not None:
            self.stats.results_read += 1
            if source == "disk":
                self.stats.results_from_disk += 1
        return value
