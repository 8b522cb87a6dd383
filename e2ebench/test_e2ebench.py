"""Self-tests of the end-to-end benchmark: tracer arithmetic, checks, inputs."""

from __future__ import annotations

import json
import math
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import e2e_check  # noqa: E402
import e2e_inputs  # noqa: E402
from e2e_trace import Installer, Recorder, Span, read_trace, span_totals, top_level_ns  # noqa: E402


# ---------------------------------------------------------------------- #
# Self-time arithmetic
# ---------------------------------------------------------------------- #
def test_self_time_of_nested_and_reentrant_spans():
    # harness.self [0, 100] encloses get_many [10, 60] -- which re-enters
    # cache.get twice -- and a key derivation [70, 90].
    spans = [
        Span(0, -1, "harness.self", "main", 0, 100),
        Span(1, 0, "cache.get", "get_many", 10, 60),
        Span(2, 1, "cache.get", "get", 20, 30),
        Span(3, 1, "cache.get", "get", 35, 45),
        Span(4, 0, "session.key", "fingerprint", 70, 90),
    ]
    totals = span_totals(spans)
    assert totals["harness.self"]["self_s"] == pytest.approx(30e-9)
    assert totals["cache.get"]["self_s"] == pytest.approx(50e-9)
    assert totals["cache.get"]["calls"] == 1  # the inner gets re-enter the layer
    assert totals["session.key"]["self_s"] == pytest.approx(20e-9)
    assert sum(total["self_s"] for total in totals.values()) == pytest.approx(100e-9)
    assert top_level_ns(spans) == 100


def test_items_count_only_outermost_spans_of_a_metric():
    spans = [
        Span(0, -1, "sim.busy", "simulate_blocks_batched", 0, 50, items=8),
        Span(1, 0, "sim.busy", "simulate_blocks_grid", 5, 45, items=8),
        Span(2, 1, "sim.busy", "run_block", 10, 20, items=1),
        Span(3, -1, "sim.busy", "run_block", 60, 70, items=1),
    ]
    totals = span_totals(spans)
    assert totals["sim.busy"]["items"] == 9
    assert totals["sim.busy"]["calls"] == 2
    assert totals["sim.busy"]["self_s"] == pytest.approx(60e-9)


def test_span_with_unknown_parent_counts_as_top_level_work():
    spans = [Span(5, 99, "cache.put", "put", 0, 10)]
    assert span_totals(spans)["cache.put"] == {"self_s": pytest.approx(10e-9), "calls": 1, "items": 0}


def test_wrapper_keeps_results_and_exceptions_and_round_trips():
    recorder = Recorder()

    def divide(a, b):
        return a / b

    timed = recorder.timed("demo.divide", "demo:divide", divide)
    assert timed(6, 3) == 2
    with pytest.raises(ZeroDivisionError):
        timed(1, 0)
    assert timed.__wrapped__ is divide
    document = json.loads(json.dumps(recorder.to_chrome({"missing": {}})))
    spans = read_trace(document)
    assert [span.metric for span in spans] == ["demo.divide", "demo.divide"]
    assert all(event["ph"] == "X" for event in document["traceEvents"])
    assert [s.end_ns - s.start_ns for s in spans] == [
        end - start for _, _, _, _, start, end, _ in recorder.spans
    ]


# ---------------------------------------------------------------------- #
# Installing wrappers by name
# ---------------------------------------------------------------------- #
@pytest.fixture
def fake_modules():
    home = types.ModuleType("repro_e2e_fake")
    user = types.ModuleType("repro_e2e_fake_user")

    def compute(x):
        return x + 1

    class Store:
        def get(self, key):
            if key is None:
                raise KeyError("no key")
            return key * 2

    home.compute, home.Store = compute, Store
    user.compute = compute  # as after ``from repro_e2e_fake import compute``
    sys.modules[home.__name__], sys.modules[user.__name__] = home, user
    yield home, user
    del sys.modules[home.__name__], sys.modules[user.__name__]


def test_installer_wraps_by_name_and_lists_missing_names(fake_modules):
    home, user = fake_modules
    recorder = Recorder()
    spans = {
        "fake.compute": ("repro_e2e_fake:compute", "repro_e2e_fake:deleted"),
        "fake.get": ("repro_e2e_fake:Store.get", "repro_e2e_fake:Store.alias"),
        "fake.later": ("repro_e2e_not_loaded:f",),
    }
    installer = Installer(recorder, spans, {}, {"store": "repro_e2e_fake:Store"})
    installer.refresh()
    assert set(installer.missing) == {"repro_e2e_fake:deleted", "repro_e2e_fake:Store.alias"}
    assert "repro_e2e_not_loaded:f" in installer.pending

    assert user.compute(1) == 2  # the imported name was rebound too
    store = home.Store()
    assert store.get(4) == 8
    with pytest.raises(KeyError):
        store.get(None)
    assert installer.captured["store"] == [store]
    assert [span[2] for span in recorder.spans] == ["fake.compute", "fake.get", "fake.get"]

    unused = installer.finish()
    assert unused == []
    assert "ModuleNotFoundError" in installer.missing["repro_e2e_not_loaded:f"]


# ---------------------------------------------------------------------- #
# Output checks
# ---------------------------------------------------------------------- #
def _report(sections: int) -> str:
    lines = ["# Bit Fusion reproduction — experiment report", "", "_repro 0_", ""]
    for index in range(sections):
        lines += [f"## Experiment {index}", "", "```", "name  value", "----------", f"a     {index}.5", "```"]
        lines += ["_(generated in 0.01 s)_", ""]
    lines += ["## Evaluation session statistics", "", "```", "stats", "```", ""]
    return "\n".join(lines)


def test_report_check_accepts_a_whole_report_and_rejects_a_truncated_one():
    text = _report(3)
    assert e2e_check.check_report(text, 3).problems == []
    truncated = text[: text.index("## Experiment 2") + 30]
    assert e2e_check.check_report(truncated, 3).problems
    assert e2e_check.check_report(text.replace("1.5", "nan"), 3).problems


def _table(title: str, header: list[str], rows: list[list[str]]) -> list[str]:
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(header)]
    line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
    return [title, line, "-" * len(line)] + [
        "  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in rows
    ]


_GRID = [
    # (array, bandwidth, latency, energy, area)
    ("16x16", "64b/c", "4.0", "4.0", "3.0"),
    ("16x16", "128b/c", "2.0", "2.0", "1.0"),
    ("32x16", "64b/c", "3.0", "1.0", "2.0"),
    ("32x16", "128b/c", "1.0", "3.0", "2.0"),
]


def _sweep(starred: set[int], points: list[tuple[str, ...]] = _GRID) -> str:
    keys = ["network", "batch", "array", "buffers", "technology", "bandwidth"]
    metrics = ["latency (ms)", "energy (mJ)", "area (mm2)", "GOPS"]
    grid = [
        ["Net", "1", array, "32/64/16KB", "45nm", bw, lat, en, area, "1", "*" if i in starred else ""]
        for i, (array, bw, lat, en, area) in enumerate(points)
    ]
    lines = ["```", "sweep: 4 design points", ""]
    lines += _table("Design-space grid (* = Pareto-optimal)", keys + metrics + ["pareto"], grid)
    lines += [""] + _table(
        "Pareto frontier minimizing latency, energy, area",
        keys + metrics,
        [row[:-1] for i, row in enumerate(grid) if i in starred],
    )
    lines += ["", f"{len(starred)} of 4 design points are Pareto-optimal.", "```"]
    return "\n".join(lines)


def test_sweep_check_recomputes_the_frontier():
    # Rows 1, 2 and 3 are non-dominated; row 1 beats row 0 everywhere.
    assert e2e_check.check_sweep(_sweep({1, 2, 3}), 4).problems == []
    assert e2e_check.check_sweep(_sweep({0, 1, 2, 3}), 4).problems  # a dominated row starred
    assert e2e_check.check_sweep(_sweep({1, 2}), 4).problems  # a frontier row missing
    assert e2e_check.check_sweep(_sweep({1, 2, 3}), 5).problems  # a grid row missing


def test_sweep_check_tolerates_rows_tied_in_print():
    # Printed ties hide which of two rows is better, so either may be starred.
    tied = [("16x16", "64b/c", "2.0", "2.0", "1.0"), *_GRID[1:]]
    assert e2e_check.check_sweep(_sweep({0, 2, 3}, tied), 4).problems == []
    assert e2e_check.check_sweep(_sweep({1, 2, 3}, tied), 4).problems == []
    assert e2e_check.check_sweep(_sweep({2, 3}, tied), 4).problems


def test_only_rows_beaten_everywhere_are_surely_dominated():
    vectors = [(1.0, 1.0), (1.0, 1.0), (2.0, 2.0), (0.5, 3.0), (1.5, 1.0)]
    assert e2e_check.surely_dominated(vectors) == {2}


def _nas(priced: int, frontier: list[tuple[str, str, str]]) -> str:
    header = ["candidate", "gen", "layers", "latency (ms/inf)", "energy (mJ/inf)", "area (mm2)"]
    rows = [[f"net-{i}", "1", "19", *values] for i, values in enumerate(frontier)]
    lines = ["```", "nas search: base ResNet-18", ""] + _table("", header, rows)[1:]
    lines += ["", f"frontier: {len(frontier)} of {priced} unique candidates", "```"]
    lines += [f"estimator: {priced} candidates priced (0 in-batch duplicates), layer hit rate 95%"]
    return "\n".join(lines)


def test_nas_check_counts_candidates_and_checks_the_frontier():
    front = [("1.0000", "2.0000", "1.0000"), ("2.0000", "1.0000", "1.0000")]
    assert e2e_check.check_nas(_nas(75, front), 16, 5).items == 75
    assert e2e_check.check_nas(_nas(75, front), 16, 5).problems == []
    assert e2e_check.check_nas(_nas(81, front), 16, 5).problems  # more than proposed
    dominated = front + [("3.0000", "3.0000", "2.0000")]
    assert e2e_check.check_nas(_nas(75, dominated), 16, 5).problems


def test_digest_ignores_timing_lines_only():
    text = "a\n_(generated in 0.12 s)_\ncompile time: 0.1 s\nb"
    assert e2e_check.digest(text) == e2e_check.digest(text.replace("0.1", "9.9"))
    assert e2e_check.digest(text) != e2e_check.digest(text.replace("b", "c"))


# ---------------------------------------------------------------------- #
# Seeded inputs
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("workload", e2e_inputs.WORKLOADS)
def test_inputs_are_byte_identical_per_seed_and_differ_across_seeds(workload, tmp_path):
    def files(seed: int, name: str) -> tuple[list[str], dict[str, bytes]]:
        work = tmp_path / name
        work.mkdir()
        argv = e2e_inputs.invocation(workload, seed, work).argv
        return argv, {path.name: path.read_bytes() for path in sorted(work.iterdir())}

    assert files(7, "a") == files(7, "b")
    assert files(7, "c") != files(8, "d")


def test_seed_zero_is_the_reference_input():
    spec = e2e_inputs.sweep_spec(0)
    assert spec["batch_sizes"] == [1, 16]
    assert spec["axes"]["bandwidth"] == [64, 128, 256]
    assert e2e_inputs.experiment_order(0) == list(e2e_inputs.EXPERIMENT_KEYS)
    assert sorted(e2e_inputs.experiment_order(5)) == sorted(e2e_inputs.EXPERIMENT_KEYS)


def test_every_seeded_sweep_has_576_points():
    for seed in range(20):
        spec = e2e_inputs.sweep_spec(seed)
        size = len(spec["networks"]) * len(spec["batch_sizes"])
        size *= math.prod(len(values) for values in spec["axes"].values())
        assert size == 576
