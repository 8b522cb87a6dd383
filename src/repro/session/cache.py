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

A result record is a small JSON header (network, platform, batch,
frequency, layer names, and the result's own total cycles, MACs and
energy components) and one packed row per layer: its 13 counts as int64
and its four energies and utilization as float64 (:func:`encode_result`).
Counts are ints and energies floats, so the rows round-trip exactly and a
result read back from disk is bit-identical to the freshly computed one;
a count beyond int64 raises instead of being truncated.

Decoding (:func:`decode_result`) checks every row in one pass — row
count, no negative count or energy, utilization in [0, 1] — and the
header's totals for type, so a corrupt record reads as a miss.  It then
returns a :meth:`~repro.sim.results.NetworkResult.deferred` result: the
totals are seeded into its memos, and its layers are unpacked through
the validating constructors only when something reads them.  A warm
sweep reads only the totals, so it builds no layer record at all.

On disk, entries live in append-only pack segments managed by
:class:`repro.session.store.SegmentedStore` (length-prefixed records +
per-segment index sidecars).  The key index is built once at
open from the sidecars, which are the directory's only index: lookups are
dictionary hits, a :meth:`ResultCache.put` appends one record, and a warm
run that only reads leaves every file in the directory untouched.  A
read-only directory still serves reads; an unreadable record, or one of
any other kind (the program, tiling and layer records older releases
wrote, and every record of an older store schema), is a miss.  Nothing is
ever evicted: entries are small (a 576-point sweep stores about 0.9 MiB)
and a stale one is simply never looked up again; delete the directory to
reclaim it.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any

from repro.energy.breakdown import EnergyBreakdown
from repro.isa.program import Program
from repro.session.store import SegmentedStore, encode_body
from repro.sim.results import LayerResult, MemoryTraffic, NetworkResult

__all__ = [
    "CacheStats",
    "StageStats",
    "ProgramStats",
    "ResultCache",
    "decode_result",
    "encode_result",
]

#: The one record kind the disk holds.
_KIND = "network_result"

#: One layer of a ``network_result`` record: macs, the two operand widths,
#: the three cycle counts and the seven traffic fields as int64, then the
#: four energies and the utilization as float64 (little-endian, unpadded).
_ROW = struct.Struct("<13q5d")


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
# NetworkResult <-> record
# ---------------------------------------------------------------------- #
def _pack_layer(layer: LayerResult) -> bytes:
    traffic, energy = layer.traffic, layer.energy
    return _ROW.pack(
        layer.macs, layer.input_bits, layer.weight_bits,
        layer.compute_cycles, layer.memory_cycles, layer.overhead_cycles,
        traffic.dram_read_bits, traffic.dram_write_bits, traffic.ibuf_read_bits,
        traffic.wbuf_read_bits, traffic.obuf_read_bits, traffic.obuf_write_bits,
        traffic.register_file_bits,
        energy.compute, energy.buffers, energy.register_file, energy.dram,
        layer.utilization,
    )


def _unpack_layers(names: list[str], rows: bytes) -> tuple[LayerResult, ...]:
    """The layer records of checked rows, built by the validating constructors."""
    return tuple(
        LayerResult(name, *row[:6], MemoryTraffic(*row[6:13]), EnergyBreakdown(*row[13:17]),
                    row[17])
        for name, row in zip(names, _ROW.iter_unpack(rows))
    )


def encode_result(result: NetworkResult) -> tuple[dict[str, Any], bytes]:
    """A result's record header and its packed layer rows.

    The header carries the result's own totals next to the layer names,
    so a reader that needs only the totals never unpacks a row.  ``struct``
    raises on a count outside int64 rather than truncating it.
    """
    energy = result.energy
    header = {
        "network": result.network_name,
        "platform": result.platform,
        "batch": result.batch_size,
        "frequency": result.frequency_mhz,
        "layers": [layer.name for layer in result.layers],
        "cycles": result.total_cycles,
        "macs": result.total_macs,
        "energy": [energy.compute, energy.buffers, energy.register_file, energy.dram],
    }
    return header, b"".join(_pack_layer(layer) for layer in result.layers)


def decode_result(header: dict[str, Any], rows: bytes) -> NetworkResult:
    """Rebuild a result from :func:`encode_result` output, its layers deferred.

    The header's totals are seeded into the result and its layers are
    unpacked on their first read (:meth:`NetworkResult.deferred`).  Every
    row is checked here, in one pass, for what the constructors check,
    so a malformed record raises now and never on that later read:
    ``ValueError`` (too few or too many rows, a negative count, energy or
    total, a utilization outside [0, 1]), ``KeyError`` or ``TypeError`` (a
    header field missing or of the wrong type).
    """
    names = header["layers"]
    if len(rows) != _ROW.size * len(names):
        raise ValueError(f"{len(rows)} row bytes for {len(names)} layers")
    for row in _ROW.iter_unpack(rows):
        # ``row[0]`` is an int, so ``min`` never starts from a NaN and
        # finds any negative value; the utilization is the last column.
        if min(row) < 0 or not row[17] <= 1.0:
            raise ValueError(f"layer row out of range: {row}")
    total_cycles, total_macs, energy = header["cycles"], header["macs"], header["energy"]
    if (
        type(total_cycles) is not int
        or type(total_macs) is not int
        or type(energy) is not list
        or len(energy) != 4
        or any(type(value) is not float for value in energy)
    ):
        raise TypeError("a result record's totals are missing or mistyped")
    if total_cycles < 0 or total_macs < 0:
        raise ValueError(f"negative totals: {total_cycles} cycles, {total_macs} MACs")
    return NetworkResult.deferred(
        header["network"],
        header["platform"],
        header["batch"],
        header["frequency"],
        len(names),
        partial(_unpack_layers, names, rows),
        total_cycles=total_cycles,
        total_macs=total_macs,
        energy=EnergyBreakdown(*energy),
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
        #: compiled programs, tiling plans and layer records under their
        #: program, tiling and layer keys, and a layer record's copies
        #: under other block names under ``(layer key, block name)``
        #: (:mod:`repro.session.engine`).  Never persisted.
        self.memo: dict[str | tuple[str, str], Any] = {}
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._store: SegmentedStore | None = None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            self._store = SegmentedStore(self.cache_dir)

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
    def _read_disk_entry(self, key: str) -> NetworkResult | None:
        """One store record, decoded; None when unreadable or another kind.

        IO time is accounted here.
        """
        if self._store is None:
            return None
        started = time.perf_counter()
        try:
            record = self._store.get_record(key)
            if record is None or record[0]["kind"] != _KIND:
                return None
            return decode_result(*record)
        except (ValueError, KeyError, TypeError):
            return None
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
        body = encode_body(key, _KIND, *encode_result(value))
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
