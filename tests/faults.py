"""Deterministic fault injectors for testing the execution engine.

Everything here is deterministic — faults target explicit block names or
record kinds, never wall-clock or randomness — so every test replays
exactly.  Nothing in the package carries a test hook; the injectors patch
ordinary module state or edit a closed cache directory.

* :func:`faulty_simulators` — swaps ``engine.BitFusionSimulator`` for a
  ``batched=False`` subclass whose ``run_block`` raises
  :class:`InjectedSimulatorFault` for chosen block names.
  ``engine.simulator_for`` memoizes per simulator class, so the patched
  class gets fresh instances and the real ones are untouched.  The scalar
  ``run_block`` loop makes each block individually interceptable.
* :func:`drop_records` and :func:`tear_last_record` — on-disk faults in a
  closed cache directory: every record of one kind deleted from the pack
  store (evicted, or never written), or the newest record torn mid-write
  (a writer killed mid-append).
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator
from unittest import mock

from repro.session import SegmentedStore, engine
from repro.session.store import iter_records
from repro.sim.executor import BitFusionSimulator

__all__ = [
    "InjectedSimulatorFault",
    "drop_records",
    "faulty_simulators",
    "tear_last_record",
]


class InjectedSimulatorFault(RuntimeError):
    """Models a block simulation raising mid-flight."""


@contextmanager
def faulty_simulators(
    block_names: Iterable[str], budget: int | None = None
) -> Iterator[dict[str, int]]:
    """Make every simulator the engine resolves raise for the given block names.

    Yields the per-block fault counter.  ``budget`` caps the total injected
    faults under the context (``None`` = every matching block always
    raises); ``budget=1`` models a single transient fault.
    """
    names = set(block_names)
    counter: dict[str, int] = {}

    class FaultySimulator(BitFusionSimulator):
        def __init__(self, config: Any) -> None:
            super().__init__(config, batched=False)

        def run_block(self, block: Any) -> Any:
            if block.name in names and (budget is None or sum(counter.values()) < budget):
                counter[block.name] = counter.get(block.name, 0) + 1
                raise InjectedSimulatorFault(
                    f"injected fault simulating block {block.name!r}"
                )
            return super().run_block(block)

    with mock.patch.object(engine, "BitFusionSimulator", FaultySimulator):
        yield counter


def drop_records(cache_dir: str | Path, kind: str) -> list[str]:
    """Delete every pack record of ``kind`` from a closed cache directory.

    The keys are discarded, the segments holding them are compacted away
    and the manifest is removed, so the next open rebuilds it from the
    store alone.  Returns the dropped keys.
    """
    store = SegmentedStore(cache_dir)
    dropped = [key for key in list(store.keys()) if store.kind(key) == kind]
    for key in dropped:
        store.discard(key)
    store.compact(aggressive=True)
    store.close()
    (Path(cache_dir) / "manifest.json").unlink(missing_ok=True)
    return dropped


def tear_last_record(cache_dir: str | Path) -> dict[str, Any]:
    """Truncate a one-segment cache directory halfway into its last record.

    The state a writer killed mid-append leaves behind.  Returns the torn
    record (``key``, ``kind``, ``payload``, ``workload``).
    """
    (segment,) = Path(cache_dir).glob("pack-*.seg")
    data = segment.read_bytes()
    offset, length, record = list(iter_records(data))[-1]
    segment.write_bytes(data[: offset + length // 2])
    return record
