"""Chaos tests: kill-at-any-point resume, retry-once, quarantine.

The contracts under test (see ``docs/testing.md``):

* **Resume exactness** — a checkpointed run killed after *any* number of
  commits, then resumed with a fresh session over the same cache directory,
  produces byte-identical results to an uninterrupted run and performs zero
  redundant block simulations across both legs combined (hypothesis drives
  the kill point).
* **Retry-once** — a workload whose execution fails once is retried exactly
  once against the cache its neighbours filled; a transient fault costs the
  batch nothing and is accounted in ``stats.retries`` (and the stats
  footer).
* **Quarantine isolation** — a workload that fails its retry too is
  quarantined: every surviving workload still completes byte-identically to
  a fault-free serial run, and the raised
  :class:`~repro.session.engine.WorkloadExecutionError` names exactly the
  injected fingerprints (hypothesis drives the crash subset).
* **Journal robustness** — a corrupt checkpoint line (the SIGKILL
  signature) degrades to a warning and a replan, never a crash; the CLI
  smokes prove the same end to end with a real ``SIGKILL`` and
  ``sweep --resume``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faults import (
    InjectedSimulatorFault,
    SimulatedKill,
    crash_workloads,
    faulty_simulators,
    kill_after_commits,
)
from repro.session import (
    SWEEP_CHECKPOINT_NAME,
    EvaluationSession,
    SweepCheckpoint,
    Workload,
    WorkloadExecutionError,
)
from repro.session.cache import network_result_to_dict
from repro.session.engine import compile_program, execute_workload

# A small mixed batch: three genuinely distinct simulation jobs plus one
# frequency variant that shares LeNet-5's blocks (frequency only affects
# composition), so resume must also preserve cross-workload block reuse.
def _grid() -> list[Workload]:
    from repro.core.config import BitFusionConfig

    base = BitFusionConfig.eyeriss_matched(batch_size=4)
    return [
        Workload.bitfusion("LeNet-5", batch_size=4, config=base),
        Workload.bitfusion("LSTM", batch_size=4, config=base),
        Workload.bitfusion("LeNet-5", batch_size=2),
        Workload.bitfusion("LeNet-5", batch_size=4, config=base.with_frequency(250.0)),
    ]


# Crash-subset tests want every workload to simulate its own blocks, so no
# two workloads may share block keys.  Distinct (network, batch) pairs
# guarantee distinct block content.
def _distinct_grid() -> list[Workload]:
    return [
        Workload.bitfusion("LeNet-5", batch_size=4),
        Workload.bitfusion("LSTM", batch_size=4),
        Workload.bitfusion("LeNet-5", batch_size=2),
        Workload.bitfusion("LeNet-5", batch_size=1),
    ]


def _dicts(results):
    return [network_result_to_dict(result) for result in results]


@pytest.fixture(scope="module")
def serial_baseline():
    """Fault-free results for the grid, computed once per module."""
    return _dicts([execute_workload(workload) for workload in _grid()])


class TestKillPointResume:
    @settings(deadline=None, max_examples=8)
    @given(kill_after=st.integers(min_value=1, max_value=4))
    def test_resume_is_byte_identical_with_zero_redundant_work(self, kill_after):
        # hypothesis drives the kill point across every commit boundary:
        # after the 1st, 2nd, ... 4th commit (the last kill lands after the
        # final commit — resume then has nothing left to do).
        grid = _grid()
        baseline = _dicts([execute_workload(workload) for workload in grid])
        with tempfile.TemporaryDirectory() as tmp:
            cache_dir = Path(tmp) / "cache"
            journal = cache_dir / SWEEP_CHECKPOINT_NAME

            # Reference leg: uninterrupted checkpointed run in a sibling
            # directory gives the fault-free block-simulation count.
            ref_dir = Path(tmp) / "ref"
            with EvaluationSession(
                cache_dir=ref_dir, checkpoint=SweepCheckpoint(ref_dir / SWEEP_CHECKPOINT_NAME)
            ) as reference:
                assert _dicts(reference.run_many(grid)) == baseline
                fault_free_blocks = reference.stats.blocks.misses

            first = EvaluationSession(
                cache_dir=cache_dir, checkpoint=SweepCheckpoint(journal)
            )
            with kill_after_commits(kill_after) as committed:
                with pytest.raises(SimulatedKill):
                    first.run_many(grid)
                    # The last boundary kill fires after run_many would have
                    # returned only if every commit precedes the return; the
                    # grid has exactly 4 unique workloads, so it always fires.
            killed_blocks = first.stats.blocks.misses
            assert len(committed) == kill_after
            # Abandon `first` without close(): a killed process flushes
            # nothing either.  Artifact entries and journal events were
            # written per-event, which is exactly what resume relies on.

            resumed = EvaluationSession(
                cache_dir=cache_dir, checkpoint=SweepCheckpoint(journal)
            )
            with resumed:
                results = resumed.run_many(grid)
                assert _dicts(results) == baseline
                # Zero redundant simulations across both legs combined: the
                # kill lost at most in-flight (uncommitted) work, never
                # anything the first leg durably stored.
                assert killed_blocks + resumed.stats.blocks.misses == fault_free_blocks
                # The journal agrees: every unique workload completed.
                assert set(resumed.checkpoint.completed) >= {
                    workload.fingerprint() for workload in grid
                }

    def test_checkpointed_run_matches_uncheckpointed_serial(self, serial_baseline):
        # The checkpointed serial path trades the cross-workload grid merge
        # for per-workload durability; the batched executor's bit-exactness
        # contract makes the results identical anyway.
        with tempfile.TemporaryDirectory() as tmp:
            journal = Path(tmp) / "cache" / SWEEP_CHECKPOINT_NAME
            with EvaluationSession(
                cache_dir=Path(tmp) / "cache", checkpoint=SweepCheckpoint(journal)
            ) as session:
                assert _dicts(session.run_many(_grid())) == serial_baseline


class TestRetryOnce:
    def test_transient_crash_retries_once_and_succeeds(self):
        grid = _distinct_grid()
        serial_baseline = _dicts([execute_workload(workload) for workload in grid])
        target = grid[1].fingerprint()
        with EvaluationSession() as session:
            with crash_workloads([target], times=1) as crashes:
                results = session.run_many(grid)
            assert crashes == {target: 1}
            assert session.stats.retries == 1
            assert "workload retries: 1 failed execution(s) retried once" in (
                session.stats.summary()
            )
            assert _dicts(results) == serial_baseline

    def test_transient_simulator_fault_retries_once_serially(self, serial_baseline):
        # Serial path, checkpointed (per-workload simulation): one injected
        # block fault fails one workload's first attempt; the retry replans
        # and succeeds.  budget=1 makes the fault transient.  'lstm1' is a
        # block name unique to the LSTM program, so only that workload sees
        # the fault.
        grid = _grid()
        with tempfile.TemporaryDirectory() as tmp:
            journal = Path(tmp) / "cache" / SWEEP_CHECKPOINT_NAME
            with EvaluationSession(
                cache_dir=Path(tmp) / "cache", checkpoint=SweepCheckpoint(journal)
            ) as session:
                with faulty_simulators(["lstm1"], budget=1) as counter:
                    results = session.run_many(grid)
                assert sum(counter.values()) == 1
                assert session.stats.retries == 1
                assert _dicts(results) == serial_baseline
                # The journal remembers the failed first attempt.
                attempts = session.checkpoint.failed_attempts(grid[1].fingerprint())
                assert len(attempts) == 1
                assert "injected fault" in attempts[0].error

    def test_fault_free_stats_carry_no_retry_line(self):
        with EvaluationSession() as session:
            session.run_many(_grid()[:1])
            assert session.stats.retries == 0
            assert "retries" not in session.stats.summary()


class TestQuarantine:
    def test_persistent_crash_quarantines_exactly_the_injected_set(self):
        grid = _distinct_grid()
        serial_baseline = _dicts([execute_workload(workload) for workload in grid])
        target = grid[1]
        session = EvaluationSession()
        try:
            # times=2 kills the first attempt *and* the retry.
            with crash_workloads([target.fingerprint()], times=2) as crashes:
                with pytest.raises(WorkloadExecutionError) as excinfo:
                    session.run_many(grid)
            assert crashes == {target.fingerprint(): 2}
            assert session.stats.retries == 1
            quarantined = excinfo.value.quarantined
            assert [record.fingerprint for record in quarantined] == [
                target.fingerprint()
            ]
            assert target.label() in str(excinfo.value)
            # Every survivor completed and is byte-identical to serial.
            for workload, expected in zip(grid, serial_baseline):
                if workload.fingerprint() == target.fingerprint():
                    continue
                cached = session.cache.get(workload.fingerprint())
                if cached is None:
                    # Composable from artifacts even if the whole-result
                    # memo was not kept.
                    cached = session.run(workload)
                assert network_result_to_dict(cached) == expected
        finally:
            session.close()

    def test_crashed_claimant_recovers_through_neighbors_artifacts(self, monkeypatch):
        # Two workloads share every block key; the *claimant* (first in
        # schedule order — equal cost, fingerprint tie-break) crashes before
        # storing the blocks it simulated.  The deferred neighbour composes
        # via its fallback (simulating and storing the shared blocks), so
        # the claimant's retry replans into pure cache hits — a crashed
        # attempt never corrupts a neighbour that deferred to it.
        from repro.core.config import BitFusionConfig
        from repro.session import session as session_module

        simulated: list[int] = []
        real = session_module.simulate_planned_blocks

        def counting(plans):
            simulated.append(sum(len(plan.simulate_indices) for plan in plans))
            return real(plans)

        monkeypatch.setattr(session_module, "simulate_planned_blocks", counting)
        base = BitFusionConfig.eyeriss_matched(batch_size=4)
        pair = [
            Workload.bitfusion("LeNet-5", batch_size=4, config=base),
            Workload.bitfusion(
                "LeNet-5", batch_size=4, config=base.with_frequency(250.0)
            ),
        ]
        claimant = min(pair, key=lambda workload: workload.fingerprint())
        with EvaluationSession() as session:
            with crash_workloads([claimant.fingerprint()], times=1) as crashes:
                results = session.run_many(pair)
            assert crashes == {claimant.fingerprint(): 1}
            assert session.stats.retries == 1
            # The batched call simulated every shared block once (the
            # neighbour deferred to the claimant); the retry, the last
            # call, found them all stored and simulated nothing.
            assert simulated == [len(compile_program(claimant)), 0]
            for workload, result in zip(pair, results):
                assert network_result_to_dict(result) == network_result_to_dict(
                    execute_workload(workload)
                )

    @settings(deadline=None, max_examples=8)
    @given(crashed=st.sets(st.integers(min_value=0, max_value=3), min_size=1, max_size=3))
    def test_crash_subset_property(self, crashed):
        # Property: crashing any K workloads quarantines exactly those
        # fingerprints and leaves every survivor byte-identical to serial.
        grid = _distinct_grid()
        baseline = _dicts([execute_workload(workload) for workload in grid])
        targets = {grid[index].fingerprint() for index in crashed}
        session = EvaluationSession()
        try:
            with crash_workloads(targets, times=2):
                with pytest.raises(WorkloadExecutionError) as excinfo:
                    session.run_many(grid)
            assert {
                record.fingerprint for record in excinfo.value.quarantined
            } == targets
            for workload, expected in zip(grid, baseline):
                if workload.fingerprint() in targets:
                    continue
                result = session.run(workload)
                assert network_result_to_dict(result) == expected
        finally:
            session.close()

    def test_quarantine_is_journaled(self):
        # Checkpointed run; a persistent simulator fault on LSTM's 'lstm1'
        # block fails both the first attempt and the retry — the journal
        # must carry both events.
        grid = _grid()[:2]
        target = grid[1]
        with tempfile.TemporaryDirectory() as tmp:
            journal = Path(tmp) / "cache" / SWEEP_CHECKPOINT_NAME
            with EvaluationSession(
                cache_dir=Path(tmp) / "cache", checkpoint=SweepCheckpoint(journal)
            ) as session:
                with faulty_simulators(["lstm1"]):
                    with pytest.raises(WorkloadExecutionError):
                        session.run_many(grid)
            # A fresh load of the journal sees the quarantine (and the
            # journaled first-attempt failure).
            replayed = SweepCheckpoint(journal)
            assert [record.fingerprint for record in replayed.quarantined] == [
                target.fingerprint()
            ]
            assert len(replayed.failed_attempts(target.fingerprint())) == 1
            assert grid[0].fingerprint() in replayed.completed


class TestEstimatorClaimRelease:
    def test_failed_batch_releases_claims(self):
        # Regression: a raising batched simulation must release its
        # in-flight block claims, or every later estimate defers to a
        # claimant that never stored anything and dies at compose time.
        from repro.dnn import models
        from repro.nas import Estimator

        estimator = Estimator()
        network = models.load("LeNet-5")
        program = estimator._obtain_program(network, network.fingerprint())
        first_block = program.blocks[0].name
        with faulty_simulators([first_block]):
            with pytest.raises(InjectedSimulatorFault):
                estimator.estimate(network)
        # Same estimator, faults removed: must price cleanly (no
        # deferred-block RuntimeError from leaked claims).
        result = estimator.estimate(network)
        fresh = Estimator().estimate(network)
        assert network_result_to_dict(result) == network_result_to_dict(fresh)
        assert not estimator._in_flight


class TestCheckpointCorruption:
    def test_truncated_line_warns_and_replans(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sweep-checkpoint.jsonl"
            good = {"event": "planned", "fingerprint": "abc", "label": "x"}
            done = {"event": "completed", "fingerprint": "abc"}
            path.write_text(
                json.dumps(good) + "\n" + json.dumps(done) + "\n" + '{"event": "comp',
                encoding="utf-8",
            )
            with pytest.warns(UserWarning, match="corrupt"):
                checkpoint = SweepCheckpoint(path)
            assert checkpoint.corrupt_lines == 1
            assert checkpoint.completed == frozenset({"abc"})
            # Appending after a corrupt load still works.
            checkpoint.record_planned("def", "y")
            checkpoint.close()
            replayed = SweepCheckpoint(path)
            assert "def" in replayed.planned

    def test_unknown_event_is_skipped_not_fatal(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sweep-checkpoint.jsonl"
            path.write_text(
                json.dumps({"event": "???", "fingerprint": "abc"}) + "\n",
                encoding="utf-8",
            )
            with pytest.warns(UserWarning, match="corrupt"):
                checkpoint = SweepCheckpoint(path)
            assert checkpoint.corrupt_lines == 1
            assert checkpoint.completed == frozenset()


def _write_spec(path: Path) -> None:
    path.write_text(
        json.dumps(
            {
                "name": "fault smoke",
                "networks": ["LeNet-5", "LSTM"],
                "axes": {"bandwidth": [64, 128]},
            }
        ),
        encoding="utf-8",
    )


def _sweep_cli(args, env_extra=None, cwd=None):
    env = dict(os.environ)
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = str(root / "src")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "repro.harness", "sweep", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd or root,
    )


class TestResumeCli:
    def test_killed_sweep_resumes_with_footer_and_no_redundant_work(self, tmp_path):
        spec = tmp_path / "spec.json"
        _write_spec(spec)
        cache_dir = tmp_path / "cache"

        killed = _sweep_cli(
            [str(spec), "--cache-dir", str(cache_dir)],
            env_extra={"REPRO_SWEEP_KILL_AFTER": "2"},
        )
        assert killed.returncode == -signal.SIGKILL

        resumed = _sweep_cli([str(spec), "--cache-dir", str(cache_dir), "--resume"])
        assert resumed.returncode == 0, resumed.stderr
        assert "resumed: 2/4 points, quarantined: 0" in resumed.stdout
        assert "Pareto frontier" in resumed.stdout

        warm = _sweep_cli([str(spec), "--cache-dir", str(cache_dir), "--resume"])
        assert warm.returncode == 0, warm.stderr
        assert "resumed: 4/4 points, quarantined: 0" in warm.stdout
        # Fully resumed: nothing compiles, nothing simulates.
        assert "0 compiles (hit rate 100%)" in warm.stdout
        assert "0 block simulations (hit rate 100%)" in warm.stdout

    def test_resume_with_corrupt_journal_warns_and_completes(self, tmp_path):
        spec = tmp_path / "spec.json"
        _write_spec(spec)
        cache_dir = tmp_path / "cache"

        first = _sweep_cli([str(spec), "--cache-dir", str(cache_dir)])
        assert first.returncode == 0, first.stderr

        journal = cache_dir / SWEEP_CHECKPOINT_NAME
        with journal.open("a", encoding="utf-8") as handle:
            handle.write('{"event": "comple')  # truncated: the SIGKILL signature

        resumed = _sweep_cli(
            [str(spec), "--cache-dir", str(cache_dir), "--resume"]
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "corrupt" in resumed.stderr
        assert "resumed: 4/4 points" in resumed.stdout

    def test_resume_requires_cache_dir(self, tmp_path):
        spec = tmp_path / "spec.json"
        _write_spec(spec)
        result = _sweep_cli([str(spec), "--resume"])
        assert result.returncode != 0
        assert "--resume requires --cache-dir" in result.stderr
