"""Deterministic fault injectors for testing the execution engine.

Everything here is deterministic — faults target explicit block names or
record kinds, never wall-clock or randomness — so every test replays
exactly.  Nothing in the package carries a test hook; the injectors patch
ordinary module state or edit a closed cache directory.

* :func:`faulty_simulators` — wraps ``engine.simulate_blocks_grid`` so a
  call carrying a chosen block name raises
  :class:`InjectedSimulatorFault`.  Every block simulation the engine
  runs, for sessions and the NAS estimator alike, goes through that call.
* :func:`delete_segments` and :func:`tear_last_record` — on-disk faults
  in a closed cache directory: every pack segment and index sidecar
  deleted (the records were never written), or the newest record torn
  mid-write (a writer killed mid-append).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator
from unittest import mock

from repro.session import engine

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
    """Make every engine simulation call carrying a named block raise.

    Yields the per-block fault counter.  ``budget`` caps the total injected
    faults under the context (``None`` = every matching call always
    raises); ``budget=1`` models a single transient fault.
    """
    names = set(block_names)
    counter: dict[str, int] = {}
    simulate = engine.simulate_blocks_grid

    def faulty(simulators: Any, blocks: Any) -> Any:
        for block in blocks:
            if block.name in names and (budget is None or sum(counter.values()) < budget):
                counter[block.name] = counter.get(block.name, 0) + 1
                raise InjectedSimulatorFault(
                    f"injected fault simulating block {block.name!r}"
                )
        return simulate(simulators, blocks)

    with mock.patch.object(engine, "simulate_blocks_grid", faulty):
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

    The state a writer killed mid-append leaves behind.  The record is
    located through the segment's index sidecar, which a closed directory
    has.  Returns the torn record's ``key`` and ``kind``.
    """
    (segment,) = Path(cache_dir).glob("pack-*.seg")
    sidecar = json.loads(segment.with_name(segment.name + ".idx").read_text(encoding="utf-8"))
    key, (offset, length, kind) = max(
        sidecar["entries"].items(), key=lambda item: item[1][0]
    )
    segment.write_bytes(segment.read_bytes()[: offset + length // 2])
    return {"key": key, "kind": kind}
