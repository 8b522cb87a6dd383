"""Deterministic fault injectors for chaos-testing the execution engine.

Built on the two seams :mod:`repro.session.testing` exposes (simulator
wrapper, after-commit hook) plus a patch of the session's per-workload
finish step.  Everything here is deterministic — faults target explicit
workload fingerprints, block names or commit counts, never wall-clock or
randomness — so every chaos test replays exactly, and hypothesis can drive
kill points / crash sets as ordinary strategy inputs.

The injectors:

* :class:`SimulatedKill` + :func:`kill_after_commits` — an in-process stand
  in for ``SIGKILL``: a ``BaseException`` raised from the after-commit hook,
  which by design escapes every ``except Exception`` in the session (the
  session must never catch ``BaseException``), aborting the run *between*
  durable commits exactly like a real kill, but recoverably enough for an
  in-process test to resume with a fresh session.  Real-``SIGKILL`` coverage
  rides on the ``REPRO_SWEEP_KILL_AFTER`` subprocess smokes.
* :func:`crash_workloads` — makes the execution attempts of chosen workload
  fingerprints raise :class:`InjectedWorkloadCrash`, each fingerprint at
  most ``times`` times — ``times=1`` exercises retry-success, ``times=2``
  (first attempt + retry) exercises quarantine.
* :func:`faulty_simulators` — wraps every resolved simulator in a
  :class:`FaultySimulator` proxy that raises :class:`InjectedSimulatorFault`
  for chosen block names.  The proxy advertises ``batched = False`` so the
  grid executor routes every block through the interceptable scalar
  ``run_block`` loop.
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

from repro.session import SegmentedStore, testing
from repro.session.session import EvaluationSession
from repro.session.store import iter_records

__all__ = [
    "FaultySimulator",
    "InjectedSimulatorFault",
    "InjectedWorkloadCrash",
    "SimulatedKill",
    "crash_workloads",
    "drop_records",
    "faulty_simulators",
    "kill_after_commits",
    "tear_last_record",
]


class SimulatedKill(BaseException):
    """In-process crash marker; escapes ``except Exception`` everywhere."""


class InjectedWorkloadCrash(RuntimeError):
    """Models one workload's execution attempt dying mid-flight."""


class InjectedSimulatorFault(RuntimeError):
    """Models a block simulation raising mid-flight."""


@contextmanager
def kill_after_commits(count: int) -> Iterator[list[str]]:
    """Raise :class:`SimulatedKill` out of the ``count``-th durable commit.

    Yields the (growing) list of workload labels committed before the kill,
    so tests can assert exactly what the journal should contain.  The hook
    fires *after* the result is stored and journaled — the kill lands on the
    boundary between commits, the point a resumable sweep must survive.
    """
    if count < 1:
        raise ValueError(f"kill-after count must be >= 1, got {count}")
    committed: list[str] = []

    def hook(workload: Any, result: Any) -> None:
        committed.append(workload.label())
        if len(committed) >= count:
            raise SimulatedKill(f"simulated kill after {count} commits")

    with testing.on_commit(hook):
        yield committed


@contextmanager
def crash_workloads(
    fingerprints: Iterable[str], times: int = 1
) -> Iterator[dict[str, int]]:
    """Crash the execution attempts of the given workload fingerprints.

    Patches :meth:`EvaluationSession._finish_plan` — the step every first
    attempt and every retry goes through once its blocks are planned — so
    each targeted fingerprint raises :class:`InjectedWorkloadCrash` on its
    first ``times`` attempts and behaves normally afterwards.  The crash
    lands before the attempt stores anything, like a process dying before
    its results were written.  Yields the per-fingerprint crash counter
    for accounting assertions.
    """
    targets = set(fingerprints)
    crashes: dict[str, int] = {}
    original = EvaluationSession._finish_plan

    def finish(session: Any, workload: Any, *args: Any) -> Any:
        key = workload.fingerprint()
        if key in targets and crashes.get(key, 0) < times:
            crashes[key] = crashes.get(key, 0) + 1
            raise InjectedWorkloadCrash(f"injected crash for {workload.label()}")
        return original(session, workload, *args)

    with mock.patch.object(EvaluationSession, "_finish_plan", finish):
        yield crashes


class FaultySimulator:
    """Proxy simulator that raises for chosen block names.

    Wraps a real :class:`~repro.sim.executor.BitFusionSimulator`;
    ``batched = False`` forces the grid executor onto the scalar
    ``run_block`` loop where each block is individually interceptable.
    ``run_selected_blocks`` goes through the same per-block check.
    ``budget`` bounds the total number of injected faults (``None`` =
    unlimited — every matching block always raises).
    """

    batched = False

    def __init__(
        self,
        inner: Any,
        block_names: set[str],
        counter: dict[str, int],
        budget: int | None = None,
    ) -> None:
        self._inner = inner
        self._block_names = block_names
        self._counter = counter
        self._budget = budget

    def _check(self, block: Any) -> None:
        if block.name not in self._block_names:
            return
        if self._budget is not None and sum(self._counter.values()) >= self._budget:
            return
        self._counter[block.name] = self._counter.get(block.name, 0) + 1
        raise InjectedSimulatorFault(f"injected fault simulating block {block.name!r}")

    def run_block(self, block: Any) -> Any:
        self._check(block)
        return self._inner.run_block(block)

    def run_selected_blocks(self, program: Any, indices: Any) -> list[Any]:
        return [self.run_block(program.blocks[index]) for index in indices]

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


@contextmanager
def faulty_simulators(
    block_names: Iterable[str], budget: int | None = None
) -> Iterator[dict[str, int]]:
    """Make every resolved simulator raise for the given block names.

    Yields the per-block fault counter.  ``budget`` caps the total injected
    faults across all simulators resolved under the context — ``budget=1``
    models a single transient fault (the session's one retry succeeds).
    """
    names = set(block_names)
    counter: dict[str, int] = {}

    def wrapper(config: Any, simulator: Any) -> Any:
        return FaultySimulator(simulator, names, counter, budget)

    with testing.wrap_simulators(wrapper):
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
