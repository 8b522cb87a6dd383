"""Tests for the session's single in-process execution path.

:meth:`EvaluationSession.run_many` plans every pending workload, simulates
the missing blocks of the whole batch in one vectorized pass, then composes
and commits in schedule order.  The guarantees under test:

* batched execution is byte-identical to running each workload on its own,
  with or without a disk cache;
* the missing blocks of a batch go through one batched simulation call,
  ``--cache-dir`` sweeps included;
* every segment append carries the records of at most one workload;
* a faulting batched call degrades to per-plan simulation, and a workload
  that still fails stops the batch with one error naming it, and the
  workloads committed before it stay cached;
* the schedule is longest-job-first;
* ``on_result`` fires exactly once per unique workload, after its result
  is stored.
"""

from __future__ import annotations

import json

import pytest

from faults import InjectedSimulatorFault, faulty_simulators
from repro.core.config import BitFusionConfig
from repro.harness.runner import build_sweep_report, run_experiments, sweep_main
from repro.session import (
    EvaluationSession,
    ResultCache,
    SegmentedStore,
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


    def test_sweep_grid_and_frontier_match_with_and_without_cache_dir(self, tmp_path):
        spec = str(_spec_file(tmp_path, ["LeNet-5", "LSTM"]))
        cache_dir = str(tmp_path / "cache")
        reports = [
            build_sweep_report(spec),
            build_sweep_report(spec, cache_dir=cache_dir),
            build_sweep_report(spec, cache_dir=cache_dir),
        ]
        # The first fenced block holds the grid and the Pareto frontier;
        # the session statistics that follow differ by design.
        grids = [report.split("```")[1] for report in reports]
        assert "Pareto frontier" in grids[0]
        assert grids[1] == grids[0]
        assert grids[2] == grids[0]

class TestBatchedSimulation:
    def test_missing_blocks_of_a_batch_simulate_in_one_call(self, sim_calls):
        workloads = _distinct()
        with EvaluationSession() as session:
            session.run_many(workloads)
        assert sim_calls == [len(workloads)]

    def test_cache_dir_sweep_simulates_the_whole_batch_in_one_call(self, sim_calls, tmp_path):
        spec = _spec_file(tmp_path, ["LeNet-5", "LSTM"])
        build_sweep_report(str(spec), cache_dir=str(tmp_path / "cache"))
        assert sim_calls == [4]

    def test_each_segment_append_carries_one_workload_result(self, monkeypatch, tmp_path):
        # Each workload's commit appends exactly its composed result, and
        # nothing else reaches the store.
        appended: list[list[tuple[str, str]]] = []
        real_append = SegmentedStore.append_encoded

        def append_encoded(store, items):
            appended.append([(key, kind) for key, kind, _ in items])
            return real_append(store, items)

        monkeypatch.setattr(SegmentedStore, "append_encoded", append_encoded)
        workloads = _distinct()
        with EvaluationSession(cache_dir=tmp_path) as session:
            session.run_many(workloads)
        assert sorted(appended) == sorted(
            [(workload.fingerprint(), "network_result")] for workload in workloads
        )
        assert list(session.stats.executions) == [items[0][0] for items in appended]

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


class TestFailFast:
    def test_workload_error_carries_the_workload_label(self):
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        message = describe_workload_error(workload, RuntimeError("boom"))
        assert "bitfusion/LeNet-5" in message
        assert "batch=4" in message
        assert "RuntimeError: boom" in message

    def test_failing_workload_raises_one_error_and_reruns_cleanly(self):
        bad = Workload.bitfusion("LSTM", batch_size=4)
        with EvaluationSession() as session:
            # 'lstm1' is a block of the LSTM program only.
            with faulty_simulators(["lstm1"]):
                with pytest.raises(WorkloadExecutionError) as raised:
                    session.run_many(_distinct())
            cause = raised.value.__cause__
            assert isinstance(cause, InjectedSimulatorFault)
            assert str(raised.value) == describe_workload_error(bad, cause)
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
        # One failed batched call, then one call per plan.
        assert calls == [len(workloads)] + [1] * len(workloads)

    def test_transient_block_fault_in_the_batched_call_is_absorbed(self):
        workloads = _distinct()
        with EvaluationSession() as session:
            with faulty_simulators(["lstm1"], budget=1) as counter:
                results = session.run_many(workloads)
        assert sum(counter.values()) == 1
        assert _dicts(results) == _dicts(execute_workload(w) for w in workloads)

    def test_sweep_on_a_failing_spec_exits_with_one_error_line(self, tmp_path, capsys):
        spec = _spec_file(tmp_path, ["LSTM"])
        with faulty_simulators(["lstm1"]):
            with pytest.raises(SystemExit) as raised:
                sweep_main([str(spec)])
        assert raised.value.code != 0
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "workload bitfusion/LSTM" in errors[0]
        assert "InjectedSimulatorFault" in errors[0]
        assert captured.out == ""


    def test_workloads_committed_before_the_failure_stay_cached(self, monkeypatch):
        # Schedule: LSTM b4, LeNet-5 b4, LeNet-5 b2 (longest job first).
        workloads = _distinct()
        bad = workloads[2]
        seen: list[str] = []
        with EvaluationSession() as session:
            _fail_compose_for(monkeypatch, bad)
            with pytest.raises(WorkloadExecutionError, match="batch=2"):
                session.run_many(
                    workloads,
                    on_result=lambda workload, result: seen.append(workload.label()),
                )
            assert seen == [workloads[1].label(), workloads[0].label()]
            for workload in workloads[:2]:
                assert session.cache.get(workload.fingerprint()) is not None
            assert session.cache.get(bad.fingerprint()) is None
            assert session.stats.unique_executions == 2

    def test_rerun_on_the_cache_dir_executes_only_the_failed_workload(
        self, monkeypatch, tmp_path
    ):
        workloads = _distinct()
        bad = workloads[2]
        with monkeypatch.context() as patched:
            _fail_compose_for(patched, bad)
            with EvaluationSession(cache_dir=tmp_path) as failed:
                with pytest.raises(WorkloadExecutionError):
                    failed.run_many(workloads)
        with EvaluationSession(cache_dir=tmp_path) as rerun:
            results = rerun.run_many(workloads)
        assert rerun.stats.disk_hits == 2
        assert list(rerun.stats.executions) == [bad.fingerprint()]
        assert _dicts(results) == _dicts(execute_workload(w) for w in workloads)

    def test_planning_failure_names_the_workload(self, monkeypatch):
        workloads = _distinct()
        bad = workloads[1]  # LSTM: scheduled first
        real = session_module.plan_workload

        def plan(workload, *args, **kwargs):
            if workload == bad:
                raise ValueError("injected planning failure")
            return real(workload, *args, **kwargs)

        monkeypatch.setattr(session_module, "plan_workload", plan)
        with EvaluationSession() as session:
            with pytest.raises(WorkloadExecutionError) as raised:
                session.run_many(workloads)
        assert str(raised.value) == describe_workload_error(bad, raised.value.__cause__)
        assert "ValueError: injected planning failure" in str(raised.value)
        assert session.stats.unique_executions == 0

    def test_baseline_failure_names_the_workload(self, monkeypatch):
        bad = Workload.eyeriss("LSTM", batch_size=4)
        real = session_module.execute_workload

        def execute(workload):
            if workload == bad:
                raise RuntimeError("injected baseline failure")
            return real(workload)

        monkeypatch.setattr(session_module, "execute_workload", execute)
        with EvaluationSession() as session:
            with pytest.raises(WorkloadExecutionError, match="workload eyeriss/LSTM"):
                session.run_many([Workload.eyeriss(name, batch_size=4) for name in _FAST])
            assert session.cache.get(bad.fingerprint()) is None

    def test_degraded_run_keeps_the_clean_run_counters(self, monkeypatch):
        workloads = _distinct()
        with EvaluationSession() as clean:
            clean.run_many(workloads)
        real = session_module.simulate_planned_blocks

        def batch_fails(plans):
            if len(plans) > 1:
                raise RuntimeError("injected batched-call failure")
            return real(plans)

        monkeypatch.setattr(session_module, "simulate_planned_blocks", batch_fails)
        with EvaluationSession() as degraded:
            degraded.run_many(workloads)
        for name in ("hits", "misses", "deduped", "disk_hits", "executions"):
            assert getattr(degraded.stats, name) == getattr(clean.stats, name), name
        for stage in ("programs", "tilings", "blocks"):
            assert getattr(degraded.stats, stage) == getattr(clean.stats, stage), stage


def _fail_compose_for(monkeypatch, bad: Workload) -> None:
    """Make composing ``bad``'s plan raise; every other plan composes."""
    real = session_module.compose_plan

    def compose(plan, *args, **kwargs):
        if plan.workload == bad:
            raise RuntimeError("injected composition failure")
        return real(plan, *args, **kwargs)

    monkeypatch.setattr(session_module, "compose_plan", compose)


def _spec_file(tmp_path, networks):
    path = tmp_path / "spec.json"
    spec = {"networks": networks, "axes": {"bandwidth": [64, 128]}}
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


def _commit_order(workloads: list[Workload]) -> list[str]:
    order: list[str] = []
    with EvaluationSession() as session:
        session.run_many(
            workloads, on_result=lambda workload, result: order.append(workload.fingerprint())
        )
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


class TestSessionLifecycle:
    def test_cache_and_cache_dir_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(ValueError):
            EvaluationSession(cache_dir=tmp_path, cache=ResultCache())

    def test_max_cache_bytes_requires_an_owned_cache(self):
        with pytest.raises(ValueError):
            EvaluationSession(cache=ResultCache(), max_cache_bytes=1024)

    def test_close_is_idempotent(self, tmp_path):
        session = EvaluationSession(cache_dir=tmp_path / "cache")
        session.run(Workload.bitfusion("LeNet-5", batch_size=4))
        session.close()
        session.close()

    def test_cache_dir_sweep_leaves_only_the_pack_store(self, tmp_path):
        spec = str(_spec_file(tmp_path, ["LeNet-5"]))
        cache_dir = tmp_path / "cache"
        build_sweep_report(spec, cache_dir=str(cache_dir))
        names = sorted(path.name for path in cache_dir.iterdir())
        assert "manifest.json" in names
        assert all(
            name == "manifest.json" or name.startswith("pack-") for name in names
        ), names

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
