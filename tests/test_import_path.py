"""Start-up stays lean: the CLI entry module loads no functional models.

Every command imports :mod:`repro.harness.runner`.  The bit-exact
functional models (systolic array, operand packing, NumPy kernels,
quantized tensors, the ISA interpreter) serve only the examples and the
tests, and the version string is a constant, so none of these modules may
load at start-up.  A fresh interpreter makes the check independent of
whatever this test process already imported.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"

_OFF_PATH = (
    "repro.core.buffers",
    "repro.core.systolic",
    "repro.dnn.functional",
    "repro.dnn.quantization",
    "repro.dnn.tensor",
    "repro.isa.interpreter",
    "repro.dnn.reference",
    "importlib.metadata",
)


@pytest.fixture(scope="module")
def loaded_modules() -> set[str]:
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
    return set(json.loads(completed.stdout))


@pytest.mark.parametrize("module", _OFF_PATH)
def test_runner_import_does_not_load(loaded_modules, module):
    assert "repro.harness.runner" in loaded_modules
    assert module not in loaded_modules
