"""Audit that every function under ``src/repro`` runs from a command or an example.

Run from the repository root (CI runs it in the ``docs`` job)::

    python tests/reachability.py

Each scenario below runs in a fresh interpreter under :func:`sys.setprofile`,
which records the code object of every Python call.  The scenarios are the
commands a user runs and the scripts under ``examples/``: the full report,
a ``--profile`` report, ``--experiments fig13`` cold and warm on a
``--cache-dir`` (its per-layer table reads the layer rows of results read
back from disk), ``--list``, the seed-0 sweep cold, warm, without
``--cache-dir``, as a ``--dry-run`` and under ``--cache-info``, and the
seed-0 ``nas`` search with and without a cache directory.  The union of
what they ran is compared with every ``def`` under ``src/repro``, read with
:mod:`ast`.

The script exits 1 when a function never runs and :data:`ALLOWED` does not
name it, and also when an :data:`ALLOWED` entry runs after all or names no
function, so the list can only shrink.  Every entry gives its reason; the
reason starts with one of :data:`REASONS`.

This is a script, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
PACKAGE = SRC / "repro"

#: The seed-0 sweep: 8 networks x 2 batches x 3 arrays x 2 buffer sets x
#: 2 nodes x 3 bandwidths = 576 points.
SWEEP_SPEC = {
    "name": "reachability sweep",
    "networks": ["AlexNet", "Cifar-10", "LSTM", "LeNet-5", "ResNet-18", "RNN", "SVHN", "VGG-7"],
    "batch_sizes": [1, 16],
    "axes": {
        "array": [[16, 16], [32, 16], [32, 32]],
        "buffers": [[32, 64, 16], [16, 32, 8]],
        "technology": ["45nm", "16nm"],
        "bandwidth": [64, 128, 256],
    },
}
#: The seed-0 NAS search: ResNet-18, population 16 x 5 generations.
NAS_SPEC = {"base_network": "resnet18", "population": 16, "generations": 5, "seed": 0}

_HARNESS = ("module", "repro.harness")
#: (label, how to run, arguments), run in order in one working directory:
#: the warm fig13 report reads the cold one's cache, and the warm sweep, the
#: dry run and ``--cache-info`` read the cold sweep's.
SCENARIOS: list[tuple[str, tuple[str, str], list[str]]] = [
    ("report", _HARNESS, ["--output", "report.md"]),
    ("report --profile", _HARNESS, ["--experiments", "fig13", "isa", "--profile"]),
    (
        "fig13 cold",
        _HARNESS,
        ["--experiments", "fig13", "--cache-dir", "report-cache", "--output", "fig13-cold.md"],
    ),
    (
        "fig13 warm",
        _HARNESS,
        ["--experiments", "fig13", "--cache-dir", "report-cache", "--output", "fig13-warm.md"],
    ),
    ("--list", _HARNESS, ["--list"]),
    ("sweep cold", _HARNESS, ["sweep", "sweep.json", "--cache-dir", "cache", "--output", "cold.md"]),
    ("sweep warm", _HARNESS, ["sweep", "sweep.json", "--cache-dir", "cache", "--output", "warm.md"]),
    ("sweep without --cache-dir", _HARNESS, ["sweep", "sweep.json"]),
    ("sweep --dry-run", _HARNESS, ["sweep", "sweep.json", "--cache-dir", "cache", "--dry-run"]),
    ("--cache-info", _HARNESS, ["--cache-info", "--cache-dir", "cache"]),
    ("nas", _HARNESS, ["nas", "nas.json", "--cache-dir", "nas-cache", "--output", "nas.md"]),
    ("nas without --cache-dir", _HARNESS, ["nas", "nas.json"]),
] + [
    (f"examples/{script.name}", ("script", str(script)), [])
    for script in sorted((REPO / "examples").glob("*.py"))
]

#: Why a function that no scenario runs may stay in ``src/``: it raises on
#: bad input or an unsupported call; tests check the program against it; a
#: sweep or NAS spec field the scenarios leave at its default reaches it; or
#: a library example in ``docs/`` calls it.
REASONS = ("error path", "oracle", "spec-reachable", "documented")

#: Functions no scenario runs, by ``module:qualname``, each with its reason.
ALLOWED: dict[str, str] = {
    "repro.baselines.platform:PlatformSpec.__post_init__.<locals>.bad": (
        "error path: builds the one-line error of an invalid PlatformSpec"
    ),
    "repro.core.config:BitFusionConfig.with_frequency": (
        "spec-reachable: a sweep spec's frequency axis"
    ),
    "repro.dnn.layers:ActivationLayer.gemm_shape": "error path: has no GEMM",
    "repro.dnn.layers:Layer.gemm_shape": "error path: abstract",
    "repro.dnn.layers:Layer.input_elements": "error path: abstract",
    "repro.dnn.layers:Layer.output_elements": "error path: abstract",
    "repro.dnn.layers:PoolLayer.gemm_shape": "error path: has no GEMM",
    "repro.dse.pareto:pareto_indices_quadratic": (
        "error path: pareto_indices falls back to it for NaN objectives"
    ),
    "repro.dse.spec:DesignPoint.label": "documented: the library example in docs/sweeps.md",
    "repro.dse.spec:_apply_frequency": "spec-reachable: a sweep spec's frequency axis",
    "repro.isa.compiler:_auxiliary_block": (
        "documented: the emission example in docs/architecture.md reads an unfused pooling block"
    ),
    "repro.isa.instructions:Instruction.opcode": "error path: abstract",
    "repro.isa.tiling:TilingPlan.total_dram_bits": (
        "oracle: the objective the reference search in tests/reference/ ranks by"
    ),
    "repro.isa.tiling:_no_feasible_tiling": "error path: no tiling fits the buffers",
    "repro.isa.tiling:_too_large_to_tile": "error path: traffic could overflow int64",
    "repro.nas.mutations:mutate_kernel": "spec-reachable: the \"kernel\" entry of a NAS spec's axes",
    "repro.session.engine:describe_workload_error": (
        "error path: the one-line message of a workload that fails"
    ),
    "repro.session.store:SegmentedStore._scan_segment": (
        "error path: index recovery when a segment's sidecar is missing or stale"
    ),
    "repro.session.workload:Workload.label": (
        "error path: names a failing workload in its one-line message"
    ),
    "repro.sim.results:MemoryTraffic.dram_total_bits": (
        "oracle: the reference simulator in tests/reference/ prices DRAM by it"
    ),
    "repro.sim.results:NetworkResult.__getstate__": (
        "oracle: pickles and copies carry the fields only, so results pickled "
        "in two trees compare byte for byte (tests/test_results.py)"
    ),
}


def _child(output: str, kind: str, target: str, args: list[str]) -> None:
    """Run one scenario under the profiler; write the code it ran to ``output``."""
    import runpy

    prefix = str(PACKAGE) + os.sep
    seen: set = set()
    add = seen.add

    def hook(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    sys.argv = [target, *args]
    sys.setprofile(hook)
    try:
        if kind == "module":
            runpy.run_module(target, run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(target, run_name="__main__")
    except SystemExit as stop:
        if stop.code not in (None, 0):
            raise
    finally:
        sys.setprofile(None)
    ran = sorted(
        {
            (code.co_filename, code.co_firstlineno, code.co_name)
            for code in seen
            if code.co_filename.startswith(prefix)
        }
    )
    Path(output).write_text(json.dumps(ran), encoding="utf-8")


def _run_scenarios() -> set[tuple[str, int, str]]:
    """Every ``(file, first line, name)`` that some scenario ran."""
    ran: set[tuple[str, int, str]] = set()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryDirectory(prefix="reachability-") as work:
        (Path(work) / "sweep.json").write_text(json.dumps(SWEEP_SPEC), encoding="utf-8")
        (Path(work) / "nas.json").write_text(json.dumps(NAS_SPEC), encoding="utf-8")
        trace = str(Path(work) / "trace.json")
        for label, (kind, target), args in SCENARIOS:
            command = [sys.executable, __file__, "--child", trace, kind, target, *args]
            done = subprocess.run(command, cwd=work, env=env, capture_output=True, text=True)
            if done.returncode != 0:
                raise SystemExit(f"scenario {label!r} failed:\n{done.stderr}")
            ran.update(tuple(entry) for entry in json.loads(Path(trace).read_text("utf-8")))
            print(f"ran {label}")
    return ran


def _definitions() -> dict[str, tuple[str, range, str]]:
    """Every ``def`` under ``src/repro``: qualname -> (file, first lines, name).

    A decorated function's code object starts at its first decorator, so
    its first line may be any line from there to the ``def``.
    """
    found: dict[str, tuple[str, range, str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        module = module.removesuffix(".__init__")

        def visit(node: ast.AST, scope: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{scope}{child.name}"
                    start = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    found[f"{module}:{qualname}"] = (
                        str(path), range(start, child.lineno + 1), child.name
                    )
                    visit(child, f"{qualname}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{scope}{child.name}.")
                else:
                    visit(child, scope)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        output, kind, target, *rest = args.child
        _child(output, kind, target, rest)
        return 0

    problems = [
        f"allowlist entry {name} gives no reason from {REASONS}"
        for name, reason in ALLOWED.items()
        if not reason.startswith(REASONS)
    ]
    ran = _run_scenarios()
    definitions = _definitions()
    never_run = {
        qualname
        for qualname, (path, lines, name) in definitions.items()
        if not any((path, line, name) in ran for line in lines)
    }
    problems += [f"never runs and is not allowlisted: {name}" for name in sorted(never_run - ALLOWED.keys())]
    problems += [
        f"allowlisted but {'runs' if name in definitions else 'no longer exists'}: {name}"
        for name in sorted(ALLOWED.keys() - never_run)
    ]
    print(f"{len(definitions)} functions, {len(never_run)} never run, {len(ALLOWED)} allowlisted")
    print("\n".join(problems) if problems else "every never-run function is allowlisted")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
