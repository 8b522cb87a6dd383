"""Tests for the session's single in-process execution path.

:meth:`EvaluationSession.run_many` plans every pending workload, simulates
the missing blocks of the whole batch in one vectorized pass, then composes
and commits in input order.  The guarantees under test:

* batched execution is byte-identical to running each workload on its own,
  with or without a disk cache;
* the missing blocks of a batch go through one batched simulation call,
  ``--cache-dir`` sweeps included;
* every segment append carries the records of at most one workload;
* a faulting batched call degrades to per-plan simulation, and a workload
  that still fails stops the batch with one error naming it, and the
  workloads committed before it stay cached;
* workloads commit in first-occurrence input order.
"""

from __future__ import annotations

import json

import pytest

from faults import InjectedSimulatorFault, faulty_simulators
from repro.core.config import BitFusionConfig
from repro.harness.runner import build_sweep_report, main, run_experiments, sweep_main
from repro.session import (
    EvaluationSession,
    ResultCache,
    SegmentedStore,
    Workload,
    WorkloadExecutionError,
    compile_program,
    describe_workload_error,
    execute_workload,
    get_default_session,
    load_network,
    use_session,
)
from repro.session import session as session_module
from repro.session.cache import CacheStats
from repro.session.engine import (
    compose_plan,
    obtain_program,
    plan_program,
    plan_workload,
    program_cache_key,
    simulate_planned_blocks,
)

_FAST = ("LeNet-5", "LSTM")


def _distinct() -> list[Workload]:
    """Bit Fusion workloads that share no block keys."""
    return [
        Workload.bitfusion("LeNet-5", batch_size=4),
        Workload.bitfusion("LSTM", batch_size=4),
        Workload.bitfusion("LeNet-5", batch_size=2),
    ]


def _shared() -> list[Workload]:
    """A batch where a frequency variant shares LeNet-5's blocks."""
    base = BitFusionConfig.eyeriss_matched()
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
        single = [EvaluationSession().run_many([workload])[0] for workload in workloads]
        assert list(batch) == list(single)

    def test_disk_cached_batch_matches_in_memory_batch(self, tmp_path):
        workloads = _shared()
        with EvaluationSession() as memory:
            expected = list(memory.run_many(workloads))
        with EvaluationSession(cache_dir=tmp_path) as disk:
            assert list(disk.run_many(workloads)) == expected
        with EvaluationSession(cache_dir=tmp_path) as warm:
            assert list(warm.run_many(workloads)) == expected

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
            result = session.run_many([bad])[0]
        assert result == execute_workload(bad)

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
        assert list(results) == list(execute_workload(w) for w in workloads)
        # One failed batched call, then one call per plan.
        assert calls == [len(workloads)] + [1] * len(workloads)

    def test_transient_block_fault_in_the_batched_call_is_absorbed(self):
        workloads = _distinct()
        with EvaluationSession() as session:
            with faulty_simulators(["lstm1"], budget=1) as counter:
                results = session.run_many(workloads)
        assert sum(counter.values()) == 1
        assert list(results) == list(execute_workload(w) for w in workloads)

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
        # Input order: LeNet-5 b4, LSTM b4, then the failing LeNet-5 b2.
        workloads = _distinct()
        bad = workloads[2]
        with EvaluationSession() as session:
            _fail_compose_for(monkeypatch, bad)
            with pytest.raises(WorkloadExecutionError, match="batch=2"):
                session.run_many(workloads)
            # Commit order is input order: LeNet-5 b4, then LSTM b4.
            assert list(session.stats.executions) == [
                workloads[0].fingerprint(),
                workloads[1].fingerprint(),
            ]
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
        assert list(results) == list(execute_workload(w) for w in workloads)

    def test_planning_failure_names_the_workload(self, monkeypatch):
        workloads = _distinct()
        bad = workloads[1]  # LSTM: planned after LeNet-5 b4, before any commit
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
    target = (load_network(bad).name, bad.batch_size, bad.config)

    def compose(plan, *args, **kwargs):
        if (plan.program.network_name, plan.batch_size, plan.config) == target:
            raise RuntimeError("injected composition failure")
        return real(plan, *args, **kwargs)

    monkeypatch.setattr(session_module, "compose_plan", compose)


def _spec_file(tmp_path, networks):
    path = tmp_path / "spec.json"
    spec = {"networks": networks, "axes": {"bandwidth": [64, 128]}}
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


def _commit_order(workloads: list[Workload]) -> list[str]:
    """Fingerprints in commit order; every one of them is left cached."""
    with EvaluationSession() as session:
        session.run_many(workloads)
        order = list(session.stats.executions)
        assert all(session.cache.get(key) is not None for key in order)
    return order


class TestSchedule:
    def test_workloads_commit_in_input_order(self):
        for workloads in (_distinct(), _distinct()[::-1]):
            assert _commit_order(workloads) == [w.fingerprint() for w in workloads]


class TestSharedPlanner:
    """The engine's planner, called directly as the NAS estimator calls it."""

    def test_obtain_program_compiles_once_per_key(self):
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        cache, stats = ResultCache(), CacheStats()
        compiles: list[int] = []

        def compile():
            compiles.append(1)
            return compile_program(workload, cache, stats)

        key = program_cache_key(workload)
        first = obtain_program(key, compile, cache, stats)
        second = obtain_program(key, compile, cache, stats)
        assert second is first
        assert compiles == [1]
        assert (stats.programs.hits, stats.programs.misses) == (1, 1)

    def test_plan_program_defers_blocks_claimed_by_an_earlier_plan(self):
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        cache, stats = ResultCache(), CacheStats()
        claimed: set[str] = set()
        first = plan_workload(workload, cache, stats, claimed)
        second = plan_program(
            first.program, workload.config, workload.batch_size, cache, stats, claimed
        )
        assert first.simulate_indices
        assert second.simulate_indices == ()
        assert set(second.deferred_indices) == set(range(len(second.layer_keys)))
        assert stats.blocks.misses == len(set(first.layer_keys))
        fresh = simulate_planned_blocks([first, second])
        assert fresh[1] == {}
        results = [
            compose_plan(plan, layers, cache, stats)
            for plan, layers in zip((first, second), fresh)
        ]
        expected = execute_workload(workload)
        assert results == [expected, expected]

    def test_compose_plan_memoizes_fresh_layers_for_later_plans(self):
        workload = Workload.bitfusion("LSTM", batch_size=4)
        cache, stats = ResultCache(), CacheStats()
        plan = plan_workload(workload, cache, stats, set())
        (fresh,) = simulate_planned_blocks([plan])
        composed = compose_plan(plan, fresh, cache, stats)
        assert all(key in cache.memo for key in plan.layer_keys)
        replan = plan_workload(workload, cache, stats, set())
        assert replan.simulate_indices == () and replan.deferred_indices == ()
        assert sorted(replan.cached_layers) == list(range(len(replan.layer_keys)))
        (none_fresh,) = simulate_planned_blocks([replan])
        assert none_fresh == {}
        assert compose_plan(replan, none_fresh, cache, stats) == composed

    def test_baseline_workload_plans_without_a_program(self):
        workload = Workload.eyeriss("LeNet-5", batch_size=4)
        cache, stats = ResultCache(), CacheStats()
        plan = plan_workload(workload, cache, stats, set())
        assert plan.program is None
        assert (plan.config, plan.batch_size) == (workload.config, workload.batch_size)
        assert plan.layer_keys == () and plan.simulate_indices == ()
        assert simulate_planned_blocks([plan]) == [{}]
        assert stats.programs.lookups == 0 and stats.blocks.lookups == 0


class TestSessionLifecycle:
    def test_close_is_idempotent(self, tmp_path):
        session = EvaluationSession(cache_dir=tmp_path / "cache")
        session.run_many([Workload.bitfusion("LeNet-5", batch_size=4)])
        session.close()
        session.close()

    def test_cache_dir_sweep_leaves_only_the_pack_store(self, tmp_path):
        spec = str(_spec_file(tmp_path, ["LeNet-5"]))
        cache_dir = tmp_path / "cache"
        build_sweep_report(spec, cache_dir=str(cache_dir))
        names = sorted(path.name for path in cache_dir.iterdir())
        assert len(names) == 2, names
        assert names[0].startswith("pack-") and names[0].endswith(".seg")
        assert names[1] == names[0] + ".idx"

    @pytest.mark.parametrize("command", ["sweep", "report"])
    def test_warm_rerun_leaves_every_cache_file_byte_identical(self, tmp_path, command, capsys):
        # A warm re-run only reads: no recency bookkeeping, no index
        # rewrite, no new segment.
        cache_dir = tmp_path / "cache"
        if command == "sweep":
            argv = ["sweep", str(_spec_file(tmp_path, ["LeNet-5", "LSTM"]))]
        else:
            argv = ["--experiments", "fig16", "--benchmarks", "LeNet-5"]
        argv += ["--cache-dir", str(cache_dir)]

        def snapshot() -> dict[str, bytes]:
            return {path.name: path.read_bytes() for path in cache_dir.iterdir()}

        assert main(argv) == 0
        cold = snapshot()
        assert main(argv) == 0
        capsys.readouterr()
        assert snapshot() == cold
        (segment,) = (name for name in cold if name.endswith(".seg"))
        assert segment.startswith("pack-")
        assert sorted(cold) == [segment, segment + ".idx"]

    def test_compile_stats_after_run_reuses_the_program(self):
        workload = Workload.bitfusion("LeNet-5", batch_size=4)
        with EvaluationSession() as session:
            session.run_many([workload])
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
