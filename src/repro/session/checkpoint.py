"""Append-only sweep checkpoint journal: planned / completed / quarantined.

A :class:`SweepCheckpoint` is the durable progress record of one sweep (or
NAS search): an append-only JSONL file, one event per line, living next to
the artifact cache directory (``<cache-dir>/sweep-checkpoint.jsonl`` — the
``.jsonl`` suffix keeps it invisible to the cache's ``*.json`` entry glob).
Every event is written *and flushed* the moment it happens, so a run killed
at an arbitrary point — including ``SIGKILL``, which runs no cleanup — loses
at most the event being written, never an earlier one.

The journal records four event kinds:

* ``planned`` — a workload fingerprint entered the execution schedule;
* ``completed`` — its result was composed and stored (the artifact cache
  holds everything needed to recompose it, so a resumed run serves it
  without fresh work);
* ``failed`` — one execution attempt failed (the retry-once policy records
  the first attempt here before retrying);
* ``quarantined`` — the retry failed too and the workload was set aside
  with its labelled error.

Loading is **corruption-tolerant**: a half-written final line (the SIGKILL
case), trailing garbage or a hand-edited file degrade to a warning and the
affected lines are skipped — a checkpoint can make a resumed run *faster*,
never wrong, because resumption double-checks every completed fingerprint
against the artifact cache (:func:`~repro.session.engine.
audit_workload_cache`) before trusting it.  Events are replayed in file
order, so a fingerprint quarantined in one leg and completed in a later one
counts as completed.

The journal is *advisory by design*: the artifact cache remains the source
of truth for what work exists (its entry files are written atomically and
read directly from disk, independent of the batched manifest), and the
checkpoint is the source of truth for *progress accounting* — what the
``sweep --resume`` footer reports and what the quarantine policy remembers.

Two sweeps sharing a cache directory append to the same journal.  Every
append takes an advisory ``fcntl`` lock on the file (where the platform has
``fcntl``), so concurrent appends never interleave a torn JSONL line.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, IO

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # non-Unix: appends stay single-writer-safe only
    fcntl = None  # type: ignore[assignment]

__all__ = ["CheckpointRecord", "SweepCheckpoint"]

#: File name used by ``python -m repro.harness sweep --cache-dir`` (and the
#: NAS equivalent).  The ``.jsonl`` suffix is load-bearing: the cache
#: directory's manifest rebuild globs ``*.json`` and must never sweep the
#: journal up as a (corrupt) cache entry.
SWEEP_CHECKPOINT_NAME = "sweep-checkpoint.jsonl"
NAS_CHECKPOINT_NAME = "nas-checkpoint.jsonl"

_EVENTS = ("planned", "completed", "failed", "quarantined")


@dataclass(frozen=True)
class CheckpointRecord:
    """One journaled failure or quarantine: who failed, and how."""

    fingerprint: str
    label: str
    error: str


class SweepCheckpoint:
    """Append-only JSONL journal of one sweep's execution progress.

    Parameters
    ----------
    path:
        The journal file.  Created (with its parent directory) on the first
        recorded event; an existing file is replayed on construction.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle: IO[str] | None = None
        #: fingerprint -> label, every workload ever scheduled.
        self._planned: dict[str, str] = {}
        self._completed: set[str] = set()
        #: fingerprint -> most recent quarantine record.
        self._quarantined: dict[str, CheckpointRecord] = {}
        #: fingerprint -> journaled failed attempts (retries included).
        self._failed: dict[str, list[CheckpointRecord]] = {}
        #: Lines skipped as unreadable during the last load.
        self.corrupt_lines = 0
        self._load()

    # ------------------------------------------------------------------ #
    # Loading (corruption-tolerant)
    # ------------------------------------------------------------------ #
    def _load(self) -> None:
        if not self.path.exists():
            return
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError as error:  # unreadable journal: warn, start fresh
            warnings.warn(
                f"sweep checkpoint {self.path} is unreadable ({error}); "
                "treating its events as unrecorded",
                stacklevel=2,
            )
            return
        for number, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                event = json.loads(line)
                if not isinstance(event, dict):
                    raise ValueError("event is not an object")
                self._apply(event)
            except (ValueError, KeyError, TypeError):
                # A truncated final line is the normal SIGKILL signature;
                # anything else unreadable is equally non-fatal — the
                # artifact cache, not the journal, decides what re-runs.
                self.corrupt_lines += 1
                warnings.warn(
                    f"sweep checkpoint {self.path} line {number} is corrupt; "
                    "skipping it (affected workloads will simply replan)",
                    stacklevel=2,
                )

    def _apply(self, event: dict[str, Any]) -> None:
        kind = event["event"]
        if kind not in _EVENTS:
            raise ValueError(f"unknown checkpoint event {kind!r}")
        fingerprint = event["fingerprint"]
        if not isinstance(fingerprint, str) or not fingerprint:
            raise ValueError("checkpoint event carries no fingerprint")
        label = str(event.get("label", ""))
        if kind == "planned":
            self._planned.setdefault(fingerprint, label)
        elif kind == "completed":
            self._completed.add(fingerprint)
            # A later success supersedes an earlier quarantine (the resumed
            # leg retried the workload and it survived).
            self._quarantined.pop(fingerprint, None)
        else:
            record = CheckpointRecord(
                fingerprint=fingerprint,
                label=label or self._planned.get(fingerprint, ""),
                error=str(event.get("error", "")),
            )
            if kind == "failed":
                self._failed.setdefault(fingerprint, []).append(record)
            else:
                self._quarantined[fingerprint] = record
                self._completed.discard(fingerprint)

    # ------------------------------------------------------------------ #
    # Recording (append + flush per event)
    # ------------------------------------------------------------------ #
    def _append(self, event: dict[str, Any]) -> None:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # A SIGKILLed writer can leave the file ending mid-line; close
            # that line off before appending, or the first new event would
            # concatenate onto the garbage and be lost to the next load.
            unterminated = False
            try:
                with self.path.open("rb") as probe:
                    probe.seek(-1, 2)
                    unterminated = probe.read(1) != b"\n"
            except (OSError, ValueError):  # missing or empty file
                unterminated = False
            self._handle = self.path.open("a", encoding="utf-8")
            if unterminated:
                self._handle.write("\n")
        line = json.dumps(event, sort_keys=True) + "\n"
        # Advisory lock per append, held only for the write+flush: two
        # sweeps sharing one journal serialize their lines.
        if fcntl is not None:
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)
        try:
            self._handle.write(line)
            # Flush per event: a SIGKILL between events must never lose a
            # committed point.  (OS-level buffering after flush() is enough
            # — the kernel keeps the data even when the process dies; fsync
            # would only guard against whole-machine crashes, which a sweep
            # checkpoint does not need to survive.)
            self._handle.flush()
        finally:
            if fcntl is not None:
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
        self._apply(event)

    def record_planned(self, fingerprint: str, label: str = "") -> None:
        """Journal a workload entering the execution schedule."""
        if fingerprint in self._planned:
            return
        self._append({"event": "planned", "fingerprint": fingerprint, "label": label})

    def record_completed(self, fingerprint: str) -> None:
        """Journal a workload's result being composed and stored."""
        if fingerprint in self._completed:
            return
        self._append({"event": "completed", "fingerprint": fingerprint})

    def record_failed(
        self, fingerprint: str, label: str, error: str, attempt: int = 1
    ) -> None:
        """Journal one failed execution attempt (before any retry)."""
        self._append(
            {
                "event": "failed",
                "fingerprint": fingerprint,
                "label": label,
                "error": error,
                "attempt": attempt,
            }
        )

    def record_quarantined(self, fingerprint: str, label: str, error: str) -> None:
        """Journal a workload whose retry also failed: set it aside."""
        self._append(
            {
                "event": "quarantined",
                "fingerprint": fingerprint,
                "label": label,
                "error": error,
            }
        )

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    @property
    def planned(self) -> dict[str, str]:
        """fingerprint -> label of every workload ever scheduled."""
        return dict(self._planned)

    @property
    def completed(self) -> frozenset[str]:
        """Fingerprints whose results were composed and stored."""
        return frozenset(self._completed)

    @property
    def quarantined(self) -> tuple[CheckpointRecord, ...]:
        """Workloads set aside after their retry failed (journal order)."""
        return tuple(self._quarantined.values())

    def failed_attempts(self, fingerprint: str) -> tuple[CheckpointRecord, ...]:
        """Every journaled failed attempt of one workload."""
        return tuple(self._failed.get(fingerprint, ()))

    def reset(self) -> None:
        """Truncate the journal: a non-``--resume`` run starts fresh."""
        self.close()
        self._planned.clear()
        self._completed.clear()
        self._quarantined.clear()
        self._failed.clear()
        self.corrupt_lines = 0
        if self.path.exists():
            self.path.write_text("", encoding="utf-8")

    def close(self) -> None:
        """Close the append handle (idempotent; reopened on the next event)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SweepCheckpoint":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
