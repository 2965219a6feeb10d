"""Every narrative script under demos/ runs to completion.

The demos call run_mc and the package's top-level exports end to end,
so a refactor that breaks either fails here. A demo writes its files
into a tempfile.mkdtemp directory that it leaves behind, so each runs
with TMPDIR set to the test's own temporary directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert [d.name for d in DEMOS] == [
        "circuit_identity.py", "lightcone_horizon.py", "quench_pipeline.py"
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    if demo.stem != "circuit_identity":  # the one demo that writes no file
        assert [d.name.startswith(demo.stem + "_") for d in tmp_path.iterdir()] == [True]
