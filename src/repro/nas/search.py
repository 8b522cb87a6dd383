"""NAS-style candidate search over the cache-composition estimator.

Random plus evolutionary mutation over the width / depth / bit-width axes
of a zoo base network (:mod:`repro.nas.mutations`), priced in
fingerprint-deduped batches through :class:`~repro.nas.estimator.Estimator`
and reduced to an incremental latency/energy/area Pareto frontier with
:class:`~repro.dse.pareto.ParetoArchive` (one O(n log n)
:func:`~repro.dse.pareto.pareto_indices` pass per generation).

The search is deterministic: one seeded ``random.Random`` drives every
mutation draw, candidates are identified by network fingerprint, and each
fingerprint is priced at most once across all generations (the archive
remembers, the estimator's caches make re-pricing cheap anyway).

Specs are JSON, mirroring the sweep spec style::

    {
      "name": "resnet18-widths",
      "base_network": "ResNet-18",
      "axes": ["width", "depth", "bits"],
      "population": 16,
      "generations": 4,
      "seed": 7,
      "objectives": ["latency", "energy"]
    }

``area`` as an objective is the accelerator's area under the (fixed) search
configuration — constant across candidates of one search, so it never
decides domination within a search, but it keeps frontier vectors
comparable across searches run under different configurations.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.core.config import BitFusionConfig
from repro.dnn import models
from repro.dnn.network import Network
from repro.dse.pareto import ParetoArchive
from repro.energy.components import accelerator_area_mm2
from repro.nas.estimator import Estimator
from repro.nas.mutations import MUTATION_AXES, mutate
from repro.session.cache import ResultCache
from repro.session.workload import DEFAULT_BATCH_SIZE
from repro.sim.results import NetworkResult
from repro.spec_fields import checked_field, checked_list

__all__ = [
    "Candidate",
    "SearchResult",
    "SearchSpec",
    "format_search_report",
    "run_search",
]

#: Objective extractors over a priced candidate.  All minimized; ``area``
#: depends only on the search configuration (see module docstring).
_OBJECTIVE_EXTRACTORS: dict[str, Callable[[NetworkResult, BitFusionConfig], float]] = {
    "latency": lambda result, config: result.latency_per_inference_s * 1e3,
    "energy": lambda result, config: result.energy_per_inference_j * 1e3,
    "area": lambda result, config: accelerator_area_mm2(config),
}

#: Display units per objective, for report tables.
OBJECTIVE_UNITS = {"latency": "ms/inf", "energy": "mJ/inf", "area": "mm2"}


@dataclass(frozen=True)
class SearchSpec:
    """A declarative NAS search: base network, mutation axes, budget."""

    base_network: str
    name: str = "nas search"
    axes: tuple[str, ...] = ("width", "depth", "bits")
    population: int = 16
    generations: int = 4
    seed: int = 0
    objectives: tuple[str, ...] = ("latency", "energy", "area")
    batch_size: int = DEFAULT_BATCH_SIZE

    def __post_init__(self) -> None:
        # Resolve aliases eagerly so a bad base network fails before any
        # compilation, and the spec describes itself canonically.
        object.__setattr__(
            self, "base_network", models.canonical_name(self.base_network)
        )
        if not self.axes:
            raise ValueError("a nas spec needs at least one mutation axis")
        for axis in self.axes:
            if axis not in MUTATION_AXES:
                raise ValueError(
                    f"unknown mutation axis {axis!r}; expected one of {sorted(MUTATION_AXES)}"
                )
        if not self.objectives:
            raise ValueError("a nas spec needs at least one objective")
        for objective in self.objectives:
            if objective not in _OBJECTIVE_EXTRACTORS:
                raise ValueError(
                    f"unknown objective {objective!r}; "
                    f"expected one of {sorted(_OBJECTIVE_EXTRACTORS)}"
                )
        if self.population < 2:
            raise ValueError("population must be at least 2")
        if self.generations < 1:
            raise ValueError("generations must be at least 1")
        if self.batch_size <= 0:
            raise ValueError(f"batch size must be positive, got {self.batch_size}")

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SearchSpec":
        """Build a spec from a JSON-shaped dictionary.

        Only ``base_network`` is required; every other key has the dataclass
        default.  Unknown keys raise, so typos fail before any simulation.
        """
        known_keys = {
            "name",
            "base_network",
            "axes",
            "population",
            "generations",
            "seed",
            "objectives",
            "batch_size",
        }
        unknown = set(payload) - known_keys
        if unknown:
            raise ValueError(
                f"unknown nas spec key(s) {sorted(unknown)}; expected {sorted(known_keys)}"
            )
        if "base_network" not in payload:
            raise ValueError("a nas spec needs a 'base_network'")
        kwargs: dict[str, Any] = {}
        for key, kind in (
            ("base_network", str),
            ("name", str),
            ("population", int),
            ("generations", int),
            ("seed", int),
        ):
            if key in payload:
                kwargs[key] = checked_field(key, payload[key], kind)
        if payload.get("batch_size") is not None:
            kwargs["batch_size"] = checked_field("batch_size", payload["batch_size"], int)
        for key in ("axes", "objectives"):
            if key in payload:
                kwargs[key] = checked_list(key, payload[key], str)
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str | Path) -> "SearchSpec":
        payload = json.loads(Path(path).read_text())
        if not isinstance(payload, Mapping):
            raise ValueError(f"nas spec {path} must contain a JSON object")
        return cls.from_dict(payload)

    def describe(self) -> str:
        return (
            f"{self.name}: base {self.base_network}, axes {'/'.join(self.axes)}, "
            f"population {self.population} x {self.generations} generations, "
            f"seed {self.seed}, objectives {'/'.join(self.objectives)}"
        )


@dataclass(frozen=True)
class Candidate:
    """One priced architecture: the network, its cost, and its frontier vector."""

    network: Network
    fingerprint: str
    generation: int
    result: NetworkResult
    objectives: tuple[float, ...]


@dataclass
class SearchResult:
    """Everything a search produced, plus how fast it produced it."""

    spec: SearchSpec
    config: BitFusionConfig
    candidates: list[Candidate] = field(default_factory=list)
    frontier: list[Candidate] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def candidates_per_second(self) -> float:
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return len(self.candidates) / self.elapsed_seconds


def _propose(
    base: Network,
    parents: Sequence[Network],
    spec: SearchSpec,
    rng: random.Random,
) -> list[Network]:
    """One generation's proposals: mutate frontier parents, refill from base.

    Half the population (rounded up) mutates the current frontier — the
    evolutionary arm; the rest mutates the base network directly — the
    random-search arm that keeps exploring after the frontier narrows.
    """
    proposals: list[Network] = []
    evolved = (spec.population + 1) // 2 if parents else 0
    for index in range(spec.population):
        source = parents[index % len(parents)] if index < evolved else base
        proposals.append(mutate(source, rng, axes=spec.axes))
    return proposals


def run_search(
    spec: SearchSpec,
    config: BitFusionConfig | None = None,
    cache: ResultCache | None = None,
    estimator: Estimator | None = None,
) -> SearchResult:
    """Run the search described by ``spec`` and return its frontier.

    Pass an ``estimator`` to continue a warm search (its cache and stats
    carry over); otherwise one is built over ``config`` (default: the
    paper's Eyeriss-matched configuration) and ``cache`` (default: fresh).
    Every candidate — including the base network, priced in generation 0 —
    is evaluated through :meth:`Estimator.estimate_many`, so a fingerprint
    seen in any earlier generation costs nothing to propose again.
    """
    if estimator is None:
        estimator = Estimator(config, cache, batch_size=spec.batch_size)
    elif config is not None or cache is not None:
        raise ValueError("pass either an estimator or config/cache, not both")
    extractors = [_OBJECTIVE_EXTRACTORS[name] for name in spec.objectives]
    rng = random.Random(spec.seed)
    base = models.load(spec.base_network)

    started = time.perf_counter()
    seen: dict[str, Candidate] = {}
    archive: ParetoArchive[Candidate] = ParetoArchive()
    population: list[Network] = [base] + _propose(base, [], spec, rng)[: spec.population - 1]
    for generation in range(spec.generations):
        fresh: dict[str, Network] = {}
        for network in population:
            fingerprint = network.fingerprint()
            if fingerprint not in seen and fingerprint not in fresh:
                fresh[fingerprint] = network
        if fresh:
            results = estimator.estimate_many(list(fresh.values()))
            batch: list[tuple[Candidate, tuple[float, ...]]] = []
            for (fingerprint, network), result in zip(fresh.items(), results):
                vector = tuple(
                    extract(result, estimator.config) for extract in extractors
                )
                candidate = Candidate(
                    network=network,
                    fingerprint=fingerprint,
                    generation=generation,
                    result=result,
                    objectives=vector,
                )
                seen[fingerprint] = candidate
                batch.append((candidate, vector))
            archive.extend(batch)
        if generation + 1 < spec.generations:
            parents = [candidate.network for candidate in archive.items]
            population = _propose(base, parents, spec, rng)
    elapsed = time.perf_counter() - started

    return SearchResult(
        spec=spec,
        config=estimator.config,
        candidates=list(seen.values()),
        frontier=list(archive.items),
        elapsed_seconds=elapsed,
    )


def format_search_report(result: SearchResult) -> str:
    """Render a search result: spec line, frontier table, throughput."""
    spec = result.spec
    lines = [spec.describe(), ""]
    headers = ["candidate", "gen", "layers"] + [
        f"{name} ({OBJECTIVE_UNITS[name]})" for name in spec.objectives
    ]
    rows = []
    frontier = sorted(result.frontier, key=lambda candidate: candidate.objectives)
    for candidate in frontier:
        rows.append(
            [
                candidate.network.name,
                str(candidate.generation),
                str(len(candidate.network)),
            ]
            + [f"{value:.4f}" for value in candidate.objectives]
        )
    widths = [
        max(len(header), *(len(row[column]) for row in rows)) if rows else len(header)
        for column, header in enumerate(headers)
    ]
    lines.append("  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)))
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    lines.append("")
    lines.append(
        f"frontier: {len(result.frontier)} of {len(result.candidates)} unique candidates"
    )
    lines.append(f"search time: {result.elapsed_seconds:.2f} s")
    return "\n".join(lines)
