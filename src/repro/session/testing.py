"""Deterministic fault-injection seams for the execution engine.

Production code consults two module-level hooks — both ``None`` (zero-cost
no-ops) unless a test installs one:

* **simulator wrapper** — wraps every :func:`~repro.session.engine.
  simulator_for` resolution.  Receives ``(config, simulator)`` and returns
  a simulator-like object (anything exposing ``batched`` / ``run_block`` /
  ``run_selected_blocks``), so tests can inject faults or delays at the
  block-simulation level of both the batched path and per-plan simulation.
* **after-commit hook** — fired by :class:`~repro.session.session.
  EvaluationSession` right after a workload's result has been stored and
  journaled.  This is the kill point: a hook that raises (or SIGKILLs the
  process) right here models a crash *between* durable commits, which is
  exactly the boundary a resumable sweep must survive.

``tests/faults.py`` builds the deterministic injectors (seeded fault plans,
fail-once simulators, crash-at-commit kill switches) on top of these seams;
``docs/testing.md`` describes how to write chaos tests with them.

The one production user is the ``REPRO_SWEEP_KILL_AFTER`` environment knob
(:func:`install_kill_after_commits`): the CI ``fault-smoke`` job sets it to
SIGKILL a real sweep process after N commits and then proves ``--resume``
does zero redundant work.
"""

from __future__ import annotations

import os
import signal
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = [
    "fire_after_commit",
    "install_kill_after_commits",
    "on_commit",
    "simulator_wrapper",
    "wrap_simulators",
]

# (config, simulator) -> simulator-like object.
_simulator_wrapper: Callable[[Any, Any], Any] | None = None
# (workload, result) -> None; fired after each durable commit.
_after_commit: Callable[[Any, Any], None] | None = None


def simulator_wrapper() -> Callable[[Any, Any], Any] | None:
    """The installed simulator wrapper, or ``None``."""
    return _simulator_wrapper


def fire_after_commit(workload: Any, result: Any) -> None:
    """Invoke the after-commit hook if one is installed.

    Called by the session *after* the result is stored and the checkpoint
    journaled — anything the hook does (including killing the process) sees
    a consistent, resumable state.
    """
    if _after_commit is not None:
        _after_commit(workload, result)


@contextmanager
def wrap_simulators(wrapper: Callable[[Any, Any], Any]) -> Iterator[None]:
    """Scope a simulator wrapper for the duration of a ``with`` block."""
    global _simulator_wrapper
    previous = _simulator_wrapper
    _simulator_wrapper = wrapper
    try:
        yield
    finally:
        _simulator_wrapper = previous


@contextmanager
def on_commit(hook: Callable[[Any, Any], None]) -> Iterator[None]:
    """Scope an after-commit hook for the duration of a ``with`` block."""
    global _after_commit
    previous = _after_commit
    _after_commit = hook
    try:
        yield
    finally:
        _after_commit = previous


def install_kill_after_commits(count: int) -> None:
    """SIGKILL this process after ``count`` durable commits (persistent).

    Backs the ``REPRO_SWEEP_KILL_AFTER`` environment knob the CI
    ``fault-smoke`` job uses: the process dies with no cleanup whatsoever
    (no ``atexit``, no ``finally`` blocks, no manifest flush) exactly
    ``count`` commits into the sweep, and a following ``--resume`` run must
    pick up from the journal + artifact cache alone.  Installed permanently
    — the process does not outlive the hook.
    """
    if count < 1:
        raise ValueError(f"kill-after count must be >= 1, got {count}")
    global _after_commit
    remaining = count

    def kill(workload: Any, result: Any) -> None:
        nonlocal remaining
        remaining -= 1
        if remaining <= 0:
            os.kill(os.getpid(), signal.SIGKILL)

    _after_commit = kill
