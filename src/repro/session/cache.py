"""Result cache keyed by content fingerprints (memory + disk).

The disk holds one kind of record: a workload's composed
:class:`~repro.sim.results.NetworkResult` (``network_result``), keyed by the
workload fingerprint (:meth:`repro.session.workload.Workload.fingerprint`)
or, for NAS candidates, by the estimator's composition key.  A result is a
pure function of its workload, and reading one back is cheaper than
recompiling and recomposing it, so a warm run answers every workload with
one record read.

The intermediate artifacts of the compile → simulate-blocks → compose
pipeline — compiled :class:`~repro.isa.program.Program`\\ s, tiling plans
and per-block :class:`~repro.sim.results.LayerResult`\\ s — live in
:attr:`ResultCache.memo`, an in-process dictionary.  They dedupe compiles,
tiling searches and block simulations within one process (and between a
session and a NAS estimator sharing the cache), but they are never
written: recomputing them costs less than decoding them.

Every result serializes losslessly to JSON — ints, floats and strings
only, and Python's JSON round-trips floats exactly — so a result read back
from disk is bit-identical to the freshly computed one.

On disk, entries live in append-only pack segments managed by
:class:`repro.session.store.SegmentedStore` (length-prefixed compact
records + per-segment index sidecars).  The key index is built once at
open from the sidecars, which are the directory's only index: lookups are
dictionary hits, a :meth:`ResultCache.put` appends one record, and a warm
run that only reads leaves every file in the directory untouched.  A
read-only directory still serves reads; an unreadable record, or one of
any other kind (the program, tiling and layer records older releases
wrote), is a miss.  Nothing is ever evicted: entries are small (a 576-point
sweep stores about 2.2 MiB) and a stale one is simply never looked up
again; delete the directory to reclaim it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.isa.program import Program
from repro.session.store import SegmentedStore, encode_body
from repro.sim.results import (
    NetworkResult,
    layer_result_from_dict,
    layer_result_to_dict,
)

__all__ = [
    "CacheStats",
    "StageStats",
    "ProgramStats",
    "ResultCache",
    "network_result_to_dict",
    "network_result_from_dict",
]

#: The one record kind the disk holds.
_KIND = "network_result"


@dataclass(frozen=True)
class ProgramStats:
    """Instruction statistics of one compiled Fusion-ISA program."""

    network_name: str
    block_instruction_counts: tuple[int, ...]
    total_instructions: int
    binary_bytes: int

    @property
    def blocks(self) -> int:
        return len(self.block_instruction_counts)

    @classmethod
    def from_program(cls, program: Program) -> "ProgramStats":
        """Distill the statistics of a compiled program.

        Deriving the statistics from a memoized program is what lets the
        ISA experiment share the program memo with the simulation pipeline
        instead of keeping a parallel store.
        """
        return cls(
            network_name=program.network_name,
            block_instruction_counts=tuple(len(compiled.block) for compiled in program),
            total_instructions=program.total_instructions(),
            binary_bytes=program.total_binary_bytes(),
        )


@dataclass
class StageStats:
    """Hit/miss counters for one in-process memo (programs, tilings or blocks)."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def summary(self, label: str, work: str) -> str:
        return f"{label}: {self.hits} hits, {self.misses} {work} (hit rate {self.hit_rate:.0%})"


@dataclass
class CacheStats:
    """Counters a session (or a NAS estimator) reports at the end of a run.

    Workload-level counters: ``hits`` counts lookups satisfied by a stored
    result, from memory or disk; ``misses`` lookups that required fresh
    work — planning against the memos, then simulating only what they lack
    (a frequency variant of a workload already run misses, executes once
    and hits every block); ``deduped`` counts in-batch duplicates of a
    workload whose execution was still pending (no cached value existed, so
    they are deduplication wins rather than cache hits); ``disk_hits`` is
    the subset of hits that involved the on-disk store;
    ``unique_executions`` counts distinct fingerprints that were executed
    this session (the acceptance criterion is that no fingerprint is ever
    executed twice).

    Stage-level counters track the in-process memos: ``programs`` the
    compile stage (misses are compilations), ``tilings`` the tiling-plan
    memo the compiler consults before every search (misses are actual
    searches — the compiler's dominant cost — and hits are duplicate GEMM
    shapes) and ``blocks`` the layer-key lookups of the simulate-blocks
    stage, filled by the one planner
    (:func:`~repro.session.engine.plan_program` and
    :func:`~repro.session.engine.compose_plan`) for session workloads and
    NAS candidates alike: misses are per-block
    simulations; hits are blocks served from the memo at plan time plus
    blocks deferred to an identical in-flight block, read back at compose
    time (identical layers shared across networks included).
    ``compile_seconds`` accumulates the wall-clock time spent
    inside ``FusionCompiler.compile`` (cache misses only), surfaced by the
    report footer's ``compile time`` line so compile-cost regressions are
    visible on every run.  ``sim_seconds`` accumulates block/workload
    simulation wall time the same way (the ``sim time`` footer line), and
    ``compose_seconds`` the result-composition time.
    """

    hits: int = 0
    misses: int = 0
    deduped: int = 0
    disk_hits: int = 0
    compile_seconds: float = 0.0
    sim_seconds: float = 0.0
    compose_seconds: float = 0.0
    executions: dict[str, int] = field(default_factory=dict)
    programs: StageStats = field(default_factory=StageStats)
    tilings: StageStats = field(default_factory=StageStats)
    blocks: StageStats = field(default_factory=StageStats)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.deduped

    @property
    def unique_executions(self) -> int:
        return len(self.executions)

    @property
    def hit_rate(self) -> float:
        """Hits over genuine cache lookups (in-batch duplicates excluded)."""
        consulted = self.hits + self.misses
        return self.hits / consulted if consulted else 0.0

    def record_execution(self, key: str) -> None:
        self.executions[key] = self.executions.get(key, 0) + 1

    def max_executions_per_workload(self) -> int:
        """1 when every unique workload was simulated exactly once."""
        return max(self.executions.values(), default=0)

    def summary(self) -> str:
        lines = [
            f"{self.lookups} workload lookups: {self.hits} cache hits "
            f"({self.disk_hits} from disk), {self.misses} misses, "
            f"{self.deduped} in-batch duplicates deduped, "
            f"{self.unique_executions} unique executions "
            f"(hit rate {self.hit_rate:.0%})"
        ]
        lines.append(self.programs.summary("program cache", "compiles"))
        lines.append(self.tilings.summary("tiling memo", "tiling searches"))
        lines.append(self.blocks.summary("block cache", "block simulations"))
        return "\n".join(lines)


# ---------------------------------------------------------------------- #
# NetworkResult <-> JSON
# ---------------------------------------------------------------------- #
def network_result_to_dict(result: NetworkResult) -> dict[str, Any]:
    """Serialize a NetworkResult to a JSON-compatible dictionary.

    Equal to ``dataclasses.asdict(result)`` (``layers`` stays a tuple),
    built from :func:`~repro.sim.results.layer_result_to_dict` per layer.
    """
    return {
        "network_name": result.network_name,
        "platform": result.platform,
        "batch_size": result.batch_size,
        "frequency_mhz": result.frequency_mhz,
        "layers": tuple(layer_result_to_dict(layer) for layer in result.layers),
    }


def network_result_from_dict(payload: dict[str, Any]) -> NetworkResult:
    """Rebuild a NetworkResult from :func:`network_result_to_dict` output."""
    layers = tuple(layer_result_from_dict(layer) for layer in payload["layers"])
    return NetworkResult(
        network_name=payload["network_name"],
        platform=payload["platform"],
        batch_size=payload["batch_size"],
        frequency_mhz=payload["frequency_mhz"],
        layers=layers,
    )


class ResultCache:
    """Fingerprint-keyed store of composed results, plus the artifact memo.

    Parameters
    ----------
    cache_dir:
        When given, results are also persisted under this directory (a
        :class:`~repro.session.store.SegmentedStore`) and later sessions
        (or processes) can reuse them; when ``None`` the cache is
        memory-only and lives for one session.
    """

    def __init__(self, cache_dir: str | Path | None = None) -> None:
        #: Wall-clock seconds spent on cache disk IO (record reads in
        #: :meth:`get`, record appends in :meth:`put`) — the ``cache-IO``
        #: row of ``python -m repro.harness --profile``.
        self.io_seconds = 0.0
        self._memory: dict[str, NetworkResult] = {}
        #: In-process memo of the pipeline's intermediate artifacts —
        #: compiled programs, tiling plans and name-normalized layer records
        #: under their program, tiling and layer keys
        #: (:mod:`repro.session.engine`).  Never persisted.
        self.memo: dict[str, Any] = {}
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._store: SegmentedStore | None = None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            self._store = SegmentedStore(self.cache_dir)

    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, key: str) -> bool:
        return key in self._memory or (self._store is not None and key in self._store)

    def flush(self) -> None:
        """Rewrite this process's segment index sidecar if it appended records.

        The session flushes once per executed batch, not once per record.
        """
        if self._store is not None:
            self._store.flush()

    # ------------------------------------------------------------------ #
    # Lookup / store
    # ------------------------------------------------------------------ #
    @staticmethod
    def _decode_entry(entry: dict[str, Any]) -> NetworkResult | None:
        """Deserialize one result record; None when unreadable or another kind."""
        if entry.get("kind") != _KIND:
            return None
        try:
            return network_result_from_dict(entry["payload"])
        except (ValueError, KeyError, TypeError):
            return None

    def _read_disk_entry(self, key: str) -> NetworkResult | None:
        """One store record, deserialized (IO time is accounted here)."""
        if self._store is None:
            return None
        started = time.perf_counter()
        try:
            record = self._store.get_record(key)
            return self._decode_entry(record) if record is not None else None
        finally:
            self.io_seconds += time.perf_counter() - started

    def get(self, key: str) -> NetworkResult | None:
        """Fetch an entry, promoting disk entries into memory. None on miss."""
        value = self._memory.get(key)
        if value is None:
            value = self._read_disk_entry(key)
            if value is not None:
                self._memory[key] = value
        return value

    def get_with_source(self, key: str) -> tuple[NetworkResult | None, str]:
        """Like :meth:`get` but also reports ``"memory"``/``"disk"``/``"miss"``."""
        if key in self._memory:
            return self._memory[key], "memory"
        value = self.get(key)
        return value, ("disk" if value is not None else "miss")

    def put(self, key: str, value: NetworkResult) -> None:
        """Store a result in memory and, when configured, append it on disk.

        Only :class:`~repro.sim.results.NetworkResult` values are accepted;
        intermediate artifacts go to :attr:`memo` instead.  The record is
        appended to this process's segment immediately; its index sidecar
        lands with the next :meth:`flush`.
        """
        if not isinstance(value, NetworkResult):
            raise TypeError(f"cannot cache values of type {type(value).__name__}")
        self._memory[key] = value
        if self._store is None:
            return
        body = encode_body(key, {"kind": _KIND, "payload": network_result_to_dict(value)})
        started = time.perf_counter()
        # A read-only shared cache directory still serves reads; an append
        # that fails leaves the fresh value memory-only this session.
        self._store.append_encoded([(key, _KIND, body)])
        self.io_seconds += time.perf_counter() - started

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def entry_summary(self) -> dict[str, dict[str, int]]:
        """Per-kind entry counts and record-body byte totals of the on-disk store.

        Added up from the store index (the segments' sidecars), so no
        record is read; a memory-only cache returns an empty mapping.  This
        is what ``python -m repro.harness --cache-info`` reports.
        """
        summary: dict[str, dict[str, int]] = {}
        if self._store is None:
            return summary
        for kind, size in self._store.index_entries():
            bucket = summary.setdefault(kind, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += size
        return summary

    def disk_keys(self) -> set[str]:
        """Keys currently resolvable from the on-disk store."""
        return set(self._store.keys()) if self._store is not None else set()

    def describe_layout(self) -> str:
        """One human-readable line describing the on-disk format (``--cache-info``)."""
        if self._store is None:
            return "memory-only (no cache directory)"
        segments = self._store.segment_count
        noun = "segment" if segments == 1 else "segments"
        return f"segmented pack ({segments} {noun})"

    def close(self) -> None:
        """Flush the index sidecar and release store file handles.

        The cache stays usable afterwards (handles reopen lazily); this
        just bounds open file descriptors for long-lived processes that
        cycle many caches.
        """
        if self._store is not None:
            self._store.close()
