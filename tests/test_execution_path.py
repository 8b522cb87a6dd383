"""Tests for the session's single in-process execution path.

:meth:`EvaluationSession.run_many` plans every pending workload, simulates
the missing blocks of the whole batch in one vectorized pass, then composes
and commits in schedule order.  The guarantees under test:

* batched execution is byte-identical to running each workload on its own,
  with or without a disk cache;
* the missing blocks of a batch go through one batched simulation call
  (one call per workload when a checkpoint asks for per-workload commits);
* a faulting batched call degrades to per-plan simulation, so one bad
  workload fails only itself, and retry work stays out of the per-stage
  counters;
* the schedule is longest-job-first;
* ``on_result`` fires exactly once per unique workload, after its result
  is stored;
* the checkpoint journal records planned events before completions,
  successive legs append to one file, and concurrent appends never tear a
  line.
"""

from __future__ import annotations

import json
import threading
import warnings

import pytest

from faults import crash_workloads, faulty_simulators
from repro.core.config import BitFusionConfig
from repro.harness.runner import run_experiments
from repro.session import (
    EvaluationSession,
    ResultCache,
    SweepCheckpoint,
    Workload,
    WorkloadExecutionError,
    compile_program,
    describe_workload_error,
    estimated_cost,
    execute_workload,
    get_default_session,
    use_session,
)
from repro.session import session as session_module
from repro.session import testing
from repro.session.cache import network_result_to_dict

_FAST = ("LeNet-5", "LSTM")


def _dicts(results):
    return [network_result_to_dict(result) for result in results]


def _distinct() -> list[Workload]:
    """Bit Fusion workloads that share no block keys."""
    return [
        Workload.bitfusion("LeNet-5", batch_size=4),
        Workload.bitfusion("LSTM", batch_size=4),
        Workload.bitfusion("LeNet-5", batch_size=2),
    ]


def _shared() -> list[Workload]:
    """A batch where a frequency variant shares LeNet-5's blocks."""
    base = BitFusionConfig.eyeriss_matched(batch_size=4)
    return [
        Workload.bitfusion("LeNet-5", batch_size=4, config=base),
        Workload.bitfusion("LSTM", batch_size=4, config=base),
        Workload.bitfusion("LeNet-5", batch_size=4, config=base.with_frequency(250.0)),
    ]


@pytest.fixture
def sim_calls(monkeypatch):
    """Record the plan count of every batched simulation call."""
    calls: list[int] = []
    real = session_module.simulate_planned_blocks

    def counting(plans):
        calls.append(len(plans))
        return real(plans)

    monkeypatch.setattr(session_module, "simulate_planned_blocks", counting)
    return calls


class TestBatchEquivalence:
    def test_run_many_is_byte_identical_to_one_at_a_time(self):
        workloads = _shared()
        batch = EvaluationSession().run_many(workloads)
        single = [EvaluationSession().run(workload) for workload in workloads]
        assert _dicts(batch) == _dicts(single)

    def test_disk_cached_batch_matches_in_memory_batch(self, tmp_path):
        workloads = _shared()
        with EvaluationSession() as memory:
            expected = _dicts(memory.run_many(workloads))
        with EvaluationSession(cache_dir=tmp_path) as disk:
            assert _dicts(disk.run_many(workloads)) == expected
        with EvaluationSession(cache_dir=tmp_path) as warm:
            assert _dicts(warm.run_many(workloads)) == expected

    def test_report_with_cache_dir_is_byte_identical_to_in_memory(self, tmp_path):
        with EvaluationSession() as memory:
            expected = [
                rendered
                for _, rendered, _ in run_experiments(benchmarks=_FAST, session=memory)
            ]
        with EvaluationSession(cache_dir=tmp_path) as disk:
            rendered = [
                rendered
                for _, rendered, _ in run_experiments(benchmarks=_FAST, session=disk)
            ]
        assert rendered == expected


class TestBatchedSimulation:
    def test_missing_blocks_of_a_batch_simulate_in_one_call(self, sim_calls):
        workloads = _distinct()
        with EvaluationSession() as session:
            session.run_many(workloads)
        assert sim_calls == [len(workloads)]

    def test_checkpointed_run_simulates_one_workload_at_a_time(self, sim_calls, tmp_path):
        workloads = _distinct()
        checkpoint = SweepCheckpoint(tmp_path / "journal.jsonl")
        with EvaluationSession(checkpoint=checkpoint) as session:
            session.run_many(workloads)
        assert sim_calls == [1] * len(workloads)

    def test_warm_batch_never_reaches_the_simulator(self, sim_calls, tmp_path):
        workloads = _distinct()
        with EvaluationSession(cache_dir=tmp_path) as cold:
            cold.run_many(workloads)
        sim_calls.clear()
        with EvaluationSession(cache_dir=tmp_path) as warm:
            warm.run_many(workloads)
        assert sim_calls == []
        assert warm.stats.sim_seconds == 0.0

    def test_baseline_only_batch_simulates_no_blocks(self):
        workloads = [Workload.eyeriss(name, batch_size=4) for name in _FAST]
        with EvaluationSession() as session:
            session.run_many(workloads)
        assert session.stats.blocks.misses == 0
        assert session.stats.programs.misses == 0
        assert session.stats.unique_executions == len(workloads)

    def test_sim_and_compose_time_are_accounted(self):
        with EvaluationSession() as session:
            session.run_many(_distinct())
        assert session.stats.sim_seconds > 0.0
        assert session.stats.compose_seconds > 0.0


class TestFailureIsolation:
    def test_workload_error_carries_the_workload_label(self):
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        message = describe_workload_error(workload, RuntimeError("boom"))
        assert "bitfusion/LeNet-5" in message
        assert "batch=4" in message
        assert "RuntimeError: boom" in message

    def test_quarantined_workload_leaves_no_result_and_reruns_cleanly(self):
        bad = Workload.bitfusion("LSTM", batch_size=4)
        with EvaluationSession() as session:
            # 'lstm1' is a block of the LSTM program only; the fault is
            # persistent, so the first attempt and the retry both fail.
            with faulty_simulators(["lstm1"]):
                with pytest.raises(WorkloadExecutionError):
                    session.run_many([bad])
            assert session.cache.get(bad.fingerprint()) is None
            result = session.run(bad)
        assert network_result_to_dict(result) == network_result_to_dict(
            execute_workload(bad)
        )

    def test_faulting_batched_call_degrades_to_per_plan_simulation(self, monkeypatch):
        real = session_module.simulate_planned_blocks
        calls: list[int] = []

        def batch_fails(plans):
            calls.append(len(plans))
            if len(plans) > 1:
                raise RuntimeError("injected batched-call failure")
            return real(plans)

        monkeypatch.setattr(session_module, "simulate_planned_blocks", batch_fails)
        workloads = _distinct()
        with EvaluationSession() as session:
            results = session.run_many(workloads)
        assert _dicts(results) == _dicts(execute_workload(w) for w in workloads)
        # One failed batched call, then one call per plan — and no retry:
        # the fallback is part of the first attempt.
        assert calls == [len(workloads)] + [1] * len(workloads)
        assert session.stats.retries == 0

    def test_transient_block_fault_in_the_batched_call_costs_no_retry(self):
        workloads = _distinct()
        with EvaluationSession() as session:
            with faulty_simulators(["lstm1"], budget=1) as counter:
                results = session.run_many(workloads)
        assert sum(counter.values()) == 1
        assert session.stats.retries == 0
        assert _dicts(results) == _dicts(execute_workload(w) for w in workloads)

    def test_retry_work_stays_out_of_the_stage_counters(self):
        workloads = _distinct()
        with EvaluationSession() as fault_free:
            fault_free.run_many(workloads)
        with EvaluationSession() as session:
            with crash_workloads([workloads[1].fingerprint()], times=1):
                results = session.run_many(workloads)
        assert session.stats.retries == 1
        assert session.stats.blocks.misses == fault_free.stats.blocks.misses
        assert session.stats.programs.misses == fault_free.stats.programs.misses
        assert _dicts(results) == _dicts(execute_workload(w) for w in workloads)


def _commit_order(workloads: list[Workload]) -> list[str]:
    order: list[str] = []
    with testing.on_commit(lambda workload, result: order.append(workload.fingerprint())):
        with EvaluationSession() as session:
            session.run_many(workloads)
    return order


class TestSchedule:
    def test_schedule_is_longest_job_first(self):
        workloads = _distinct()
        expected = sorted(
            workloads, key=lambda w: (-estimated_cost(w), w.fingerprint())
        )
        assert _commit_order(workloads) == [w.fingerprint() for w in expected]


class TestResultStream:
    def test_on_result_fires_once_per_unique_workload(self):
        workloads = _distinct()
        seen: list[str] = []
        with EvaluationSession() as session:
            session.run_many(
                workloads + workloads[:1],
                on_result=lambda workload, result: seen.append(workload.fingerprint()),
            )
        assert sorted(seen) == sorted(w.fingerprint() for w in workloads)

    def test_on_result_fires_for_cache_hits(self):
        workloads = _distinct()
        seen: list[str] = []
        with EvaluationSession() as session:
            session.run_many(workloads)
            session.run_many(
                workloads,
                on_result=lambda workload, result: seen.append(workload.fingerprint()),
            )
        assert seen == [w.fingerprint() for w in workloads]

    def test_on_result_sees_the_stored_result(self):
        workloads = _distinct()
        with EvaluationSession() as session:
            stored: list[bool] = []

            def check(workload, result):
                stored.append(session.cache.get(workload.fingerprint()) is result)

            results = session.run_many(workloads, on_result=check)
        assert stored == [True] * len(workloads)
        assert len(results) == len(workloads)


def _events(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


class TestSessionJournal:
    def test_planned_events_precede_completions(self, tmp_path):
        workloads = _distinct()
        journal = tmp_path / "journal.jsonl"
        with EvaluationSession(checkpoint=SweepCheckpoint(journal)) as session:
            session.run_many(workloads)
        kinds = [event["event"] for event in _events(journal)]
        assert kinds == ["planned"] * len(workloads) + ["completed"] * len(workloads)

    def test_cache_hits_journal_completion_without_planning(self, tmp_path):
        workloads = _distinct()
        with EvaluationSession(cache_dir=tmp_path / "cache") as cold:
            cold.run_many(workloads)
        journal = tmp_path / "journal.jsonl"
        with EvaluationSession(
            cache_dir=tmp_path / "cache", checkpoint=SweepCheckpoint(journal)
        ) as warm:
            warm.run_many(workloads)
        replayed = SweepCheckpoint(journal)
        assert replayed.planned == {}
        assert replayed.completed == {w.fingerprint() for w in workloads}

    def test_successive_legs_append_to_one_journal(self, tmp_path):
        workloads = _distinct()
        cache_dir = tmp_path / "cache"
        journal = cache_dir / "sweep-checkpoint.jsonl"
        with EvaluationSession(cache_dir=cache_dir, checkpoint=SweepCheckpoint(journal)) as first:
            first.run_many(workloads[:1])
        with EvaluationSession(cache_dir=cache_dir, checkpoint=SweepCheckpoint(journal)) as second:
            second.run_many(workloads)
        assert sorted(path.name for path in cache_dir.glob("*.jsonl")) == [journal.name]
        replayed = SweepCheckpoint(journal)
        assert replayed.completed == {w.fingerprint() for w in workloads}
        assert set(replayed.planned) == {w.fingerprint() for w in workloads}


class TestCheckpointJournal:
    def test_reset_truncates_the_journal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = SweepCheckpoint(path)
        journal.record_planned("fp-a", "a")
        journal.record_completed("fp-a")
        journal.reset()
        assert journal.planned == {}
        assert journal.completed == frozenset()
        assert path.read_text(encoding="utf-8") == ""
        assert SweepCheckpoint(path).planned == {}

    def test_concurrent_appends_never_tear_lines(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        writers, events_each = 4, 50

        def append(writer: int) -> None:
            journal = SweepCheckpoint(path)
            for index in range(events_each):
                journal.record_planned(
                    f"fp-{writer}-{index}", f"label-{writer}-{index}" * 8
                )
            journal.close()

        threads = [
            threading.Thread(target=append, args=(writer,)) for writer in range(writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a torn line would warn
            replayed = SweepCheckpoint(path)
        assert replayed.corrupt_lines == 0
        assert len(replayed.planned) == writers * events_each

    def test_later_completion_supersedes_quarantine(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with SweepCheckpoint(path) as journal:
            journal.record_planned("fp-a", "a")
            journal.record_quarantined("fp-a", "a", "boom")
            journal.record_completed("fp-a")
        replayed = SweepCheckpoint(path)
        assert replayed.completed == {"fp-a"}
        assert replayed.quarantined == ()

    def test_later_quarantine_supersedes_completion(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with SweepCheckpoint(path) as journal:
            journal.record_completed("fp-a")
            journal.record_quarantined("fp-a", "a", "boom")
        replayed = SweepCheckpoint(path)
        assert replayed.completed == frozenset()
        assert [record.error for record in replayed.quarantined] == ["boom"]

    def test_repeated_planned_and_completed_events_are_written_once(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with SweepCheckpoint(path) as journal:
            for _ in range(3):
                journal.record_planned("fp-a", "a")
                journal.record_completed("fp-a")
        assert [event["event"] for event in _events(path)] == ["planned", "completed"]

    def test_failed_attempts_accumulate_in_order(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with SweepCheckpoint(path) as journal:
            journal.record_planned("fp-a", "a")
            journal.record_failed("fp-a", "a", "first", attempt=1)
            journal.record_failed("fp-a", "a", "second", attempt=2)
        replayed = SweepCheckpoint(path)
        assert [record.error for record in replayed.failed_attempts("fp-a")] == [
            "first",
            "second",
        ]
        assert replayed.failed_attempts("fp-b") == ()

    def test_close_is_idempotent_and_reopens_on_next_event(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = SweepCheckpoint(path)
        journal.record_planned("fp-a", "a")
        journal.close()
        journal.close()
        journal.record_planned("fp-b", "b")
        journal.close()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            replayed = SweepCheckpoint(path)
        assert set(replayed.planned) == {"fp-a", "fp-b"}


class TestSessionLifecycle:
    def test_cache_and_cache_dir_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(ValueError):
            EvaluationSession(cache_dir=tmp_path, cache=ResultCache())

    def test_max_cache_bytes_requires_an_owned_cache(self):
        with pytest.raises(ValueError):
            EvaluationSession(cache=ResultCache(), max_cache_bytes=1024)

    def test_close_is_idempotent(self, tmp_path):
        session = EvaluationSession(
            cache_dir=tmp_path / "cache",
            checkpoint=SweepCheckpoint(tmp_path / "journal.jsonl"),
        )
        session.run(Workload.bitfusion("LeNet-5", batch_size=4))
        session.close()
        session.close()

    def test_compile_stats_after_run_reuses_the_program(self):
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        with EvaluationSession() as session:
            session.run(workload)
            compiles = session.stats.programs.misses
            stats = session.compile_stats(workload)
        assert session.stats.programs.misses == compiles
        assert stats.blocks == len(compile_program(workload))

    def test_use_session_restores_previous_default(self):
        previous = get_default_session()
        scoped = EvaluationSession()
        with use_session(scoped):
            assert get_default_session() is scoped
        assert get_default_session() is previous
