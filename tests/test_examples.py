"""Every script under ``examples/`` runs to completion as documented.

Each example runs in its own interpreter with ``PYTHONPATH=src`` from a
scratch working directory, exactly as a reader would launch it, and must
exit 0.  ``quickstart.py`` and ``custom_network.py`` exit 1 when their
bit-exact check of the BitBrick GEMM against NumPy fails, so the exit code
gates those checks too.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

_REPO = Path(__file__).resolve().parents[1]
_EXAMPLES = sorted((_REPO / "examples").glob("*.py"))


@pytest.mark.parametrize("script", _EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(_REPO / "src"))
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
