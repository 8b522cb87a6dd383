"""Start-up stays lean: each command loads only the modules it runs.

Every command imports :mod:`repro.harness.runner`.  The bit-exact
functional models (the bit-sliced BitBrick GEMM, the ISA interpreter)
serve only the examples and the tests, and the version string is a
constant, so none of these modules may load at start-up.  The experiment
modules load only when the report renders them, the sweep modules only for
``sweep`` and the search modules only for ``nas``.  A fresh interpreter per
command makes each check independent of whatever this test process already
imported.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"

_OFF_PATH = (
    "repro.core.bitbrick",
    "repro.isa.interpreter",
    "importlib.metadata",
)

#: Runs the real command line in the interpreter, then writes the names of
#: every loaded module to the file named by the first argument.
_RUN_AND_DUMP = (
    "import json, sys\n"
    "from repro.harness.runner import main\n"
    "code = main(sys.argv[2:])\n"
    "with open(sys.argv[1], 'w', encoding='utf-8') as handle:\n"
    "    json.dump(sorted(sys.modules), handle)\n"
    "sys.exit(code)\n"
)

#: Most ``repro`` modules each command may load.
_CEILINGS = {"import": 50, "list": 50, "sweep": 55, "nas": 57}


def _run(args: list[str], cwd: Path) -> set[str]:
    dump = cwd / "modules.json"
    subprocess.run(
        [sys.executable, "-c", _RUN_AND_DUMP, str(dump), *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(_SRC)),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return set(json.loads(dump.read_text(encoding="utf-8")))


@pytest.fixture(scope="module")
def loaded_modules(tmp_path_factory) -> dict[str, set[str]]:
    """Loaded module names per command, each from a fresh interpreter."""
    root = tmp_path_factory.mktemp("startup")
    sweep_spec = root / "sweep.json"
    sweep_spec.write_text(
        json.dumps({"networks": ["LeNet-5"], "axes": {"technology": ["45nm", "16nm"]}}),
        encoding="utf-8",
    )
    nas_spec = root / "nas.json"
    nas_spec.write_text(
        json.dumps({"base_network": "lenet5", "population": 2, "generations": 1, "seed": 0}),
        encoding="utf-8",
    )
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            "import json, sys, repro.harness.runner; print(json.dumps(sorted(sys.modules)))",
        ],
        env=dict(os.environ, PYTHONPATH=str(_SRC)),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return {
        "import": set(json.loads(completed.stdout)),
        "list": _run(["--list"], root),
        "sweep": _run(["sweep", str(sweep_spec)], root),
        "nas": _run(["nas", str(nas_spec)], root),
    }


def _repro_count(modules: set[str]) -> int:
    return sum(name.startswith("repro") for name in modules)


@pytest.mark.parametrize("module", _OFF_PATH)
def test_off_path_module_exists(module):
    # A name that no longer resolves would make the start-up check vacuous.
    assert importlib.util.find_spec(module) is not None


@pytest.mark.parametrize("module", _OFF_PATH)
def test_runner_import_does_not_load(loaded_modules, module):
    assert "repro.harness.runner" in loaded_modules["import"]
    assert module not in loaded_modules["import"]


@pytest.mark.parametrize("command", sorted(_CEILINGS))
def test_command_loads_no_functional_model_or_experiment(loaded_modules, command):
    modules = loaded_modules[command]
    assert "repro.core.bitbrick" not in modules
    assert not [name for name in modules if name.startswith("repro.harness.experiments")]


@pytest.mark.parametrize("command", sorted(_CEILINGS))
def test_command_stays_under_its_module_ceiling(loaded_modules, command):
    assert _repro_count(loaded_modules[command]) <= _CEILINGS[command]


def test_nas_loads_no_sweep_runner_or_report(loaded_modules):
    modules = loaded_modules["nas"]
    assert "repro.nas.search" in modules
    assert not {"repro.dse.runner", "repro.dse.report"} & modules


def test_nas_loads_no_sweep_spec(loaded_modules):
    # The search validates its spec with the shared field checks; the sweep
    # spec module (design points, base configurations) stays unloaded.
    modules = loaded_modules["nas"]
    assert "repro.spec_fields" in modules
    assert "repro.dse.spec" not in modules


def test_sweep_loads_no_search_module(loaded_modules):
    modules = loaded_modules["sweep"]
    assert "repro.dse.runner" in modules
    assert not [name for name in modules if name == "repro.nas" or name.startswith("repro.nas.")]


def test_report_loads_only_the_experiments_it_renders():
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            "import json, sys\n"
            "from repro.harness.runner import run_experiments\n"
            "run_experiments(['tab03'])\n"
            "print(json.dumps(sorted(sys.modules)))",
        ],
        env=dict(os.environ, PYTHONPATH=str(_SRC)),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    experiments = [
        name
        for name in json.loads(completed.stdout)
        if name.startswith("repro.harness.experiments.")
    ]
    assert experiments == ["repro.harness.experiments.tab03_platforms"]
