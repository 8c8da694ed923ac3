"""Start-up cost: the CLI imports without scipy.

The runtime depends on numpy alone.  scipy stays installed on developer
machines (the analysis tests use it as an oracle), so an accidental
re-import would cost every CLI call about a second without failing
anything else; this test pins it.
"""

import os
import subprocess
import sys
from pathlib import Path


def test_cli_import_does_not_load_scipy():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c",
         "import repro.cli, sys; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
