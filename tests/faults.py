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
* :func:`delete_segments` and :func:`tear_last_record` — on-disk faults
  in a closed cache directory: every pack segment and index sidecar
  deleted (the records were never written), or the newest record torn
  mid-write (a writer killed mid-append).
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator
from unittest import mock

from repro.session import engine
from repro.session.store import iter_records
from repro.sim.executor import BitFusionSimulator

__all__ = [
    "InjectedSimulatorFault",
    "delete_segments",
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


def delete_segments(cache_dir: str | Path) -> list[str]:
    """Unlink every pack segment and index sidecar of a closed cache directory.

    Returns the names of the deleted files.
    """
    paths = sorted(Path(cache_dir).glob("pack-*.seg*"))
    for path in paths:
        path.unlink()
    return [path.name for path in paths]


def tear_last_record(cache_dir: str | Path) -> dict[str, Any]:
    """Truncate a one-segment cache directory halfway into its last record.

    The state a writer killed mid-append leaves behind.  Returns the torn
    record (``key``, ``kind``, ``payload``).
    """
    (segment,) = Path(cache_dir).glob("pack-*.seg")
    data = segment.read_bytes()
    offset, length, record = list(iter_records(data))[-1]
    segment.write_bytes(data[: offset + length // 2])
    return record
