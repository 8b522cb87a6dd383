"""Tests for the one-shot experiment runner and its command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.harness.runner import EXPERIMENTS, build_report, main, run_experiments


class TestRunExperiments:
    def test_registry_covers_every_paper_artifact(self):
        keys = {spec.key for spec in EXPERIMENTS}
        assert keys == {
            "fig01", "tab02", "tab03", "fig10", "fig13", "fig14",
            "fig15", "fig16", "fig17", "fig18", "temporal", "isa", "ablations",
            "dse",
        }

    def test_temporal_experiment_runs_whole_networks(self):
        results = run_experiments(keys=["temporal"], benchmarks=("LeNet-5",))
        _, rendered, _ = results[0]
        assert "temporal" in rendered.lower()
        assert "LeNet-5" in rendered
        assert "geomean speedup" in rendered

    def test_run_single_experiment(self):
        results = run_experiments(keys=["fig01"])
        assert len(results) == 1
        spec, rendered, elapsed = results[0]
        assert spec.key == "fig01"
        assert "bitwidth" in rendered.lower()
        assert elapsed >= 0.0

    def test_run_with_benchmark_subset(self):
        results = run_experiments(keys=["tab02"], benchmarks=("LeNet-5",))
        _, rendered, _ = results[0]
        assert "LeNet-5" in rendered
        assert "AlexNet" not in rendered

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiments(keys=["fig99"])

    def test_platform_table_ignores_benchmark_subset(self):
        _, rendered, _ = run_experiments(keys=["tab03"], benchmarks=("LeNet-5",))[0]
        assert "Eyeriss" in rendered


class TestBuildReport:
    def test_report_contains_sections_and_code_blocks(self):
        report = build_report(keys=["fig01", "fig10"], benchmarks=("LeNet-5",))
        assert report.startswith("# Bit Fusion reproduction")
        assert "## Figure 1" in report
        assert "## Figure 10" in report
        assert "```" in report


class TestCommandLine:
    def test_list_option(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig13" in out
        assert "ablations" in out

    def test_report_to_stdout(self, capsys):
        assert main(["--experiments", "fig01", "--benchmarks", "LeNet-5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out

    @pytest.mark.parametrize(
        ("flag", "value", "message"),
        [
            ("--benchmarks", "NoSuchNet", "NoSuchNet"),
            ("--experiments", "nope", "unknown experiment(s) ['nope']; available:"),
        ],
    )
    def test_unknown_selection_is_a_one_line_usage_error(
        self, flag, value, message, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "subcommand",
        [[], ["sweep", "spec.json"], ["nas", "spec.json"]],
        ids=["report", "sweep", "nas"],
    )
    def test_cache_dir_has_no_size_budget_flag(self, subcommand, capsys):
        # A cache directory is never evicted from: --cache-max-mb is an
        # unknown argument to every subcommand.
        with pytest.raises(SystemExit) as excinfo:
            main([*subcommand, "--cache-dir", "cache", "--cache-max-mb", "1"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --cache-max-mb 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("subcommand", "spec", "key"),
        [
            ("sweep", {"networks": ["LeNet-5"], "batch_sizes": 4}, "batch_sizes"),
            ("sweep", {"networks": ["LeNet-5"], "batch_sizes": ["4"]}, "batch_sizes"),
            ("sweep", {"networks": [3]}, "networks"),
            ("sweep", {"networks": ["LeNet-5"], "objectives": "latency"}, "objectives"),
            ("nas", {"base_network": "LeNet-5", "population": "4"}, "population"),
            ("nas", {"base_network": "LeNet-5", "generations": 1.5}, "generations"),
            ("nas", {"base_network": "LeNet-5", "batch_size": [1]}, "batch_size"),
            ("nas", {"base_network": 3}, "base_network"),
        ],
    )
    def test_malformed_spec_is_a_one_line_error_naming_the_key(
        self, subcommand, spec, key, tmp_path, capsys
    ):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main([subcommand, str(path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert f"spec key '{key}'" in errors[0]
        assert "Traceback" not in err

    def test_sweep_far_past_the_paper_batches_runs(self, tmp_path, capsys):
        # 400,000 pushes AlexNet's counts past 2**53 but under the int64 guard.
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"networks": ["AlexNet"], "batch_sizes": [400000]}))
        assert main(["sweep", str(path)]) == 0
        assert "Pareto frontier" in capsys.readouterr().out

    def test_sweep_past_the_int64_guard_is_a_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"networks": ["AlexNet"], "batch_sizes": [100000000]}))
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", str(path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "AlexNet batch=100000000" in errors[0]
        assert "could overflow int64" in errors[0]
        assert "Traceback" not in err

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert (
            main(
                [
                    "--experiments",
                    "tab02",
                    "--benchmarks",
                    "LeNet-5",
                    "--output",
                    str(target),
                ]
            )
            == 0
        )
        assert target.exists()
        assert "Table II" in target.read_text()
        assert "wrote report" in capsys.readouterr().out
