"""Every narrative script under demos/ runs to completion.

The demos call run_mc and the package's top-level exports end to end,
so a refactor that breaks either fails here. A demo works in a
temporary directory that it removes on exit, and keeps its files only
in an output directory given as its one argument; each runs with TMPDIR
set to a directory of the test's own, which must be left empty.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(demo, tmp_path, *args):
    """Run a demo with TMPDIR in tmp_path; return the TMPDIR it was given."""
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = dict(os.environ, TMPDIR=str(tmpdir))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(demo), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return tmpdir


def test_demos_are_found():
    assert [d.name for d in DEMOS] == [
        "circuit_identity.py", "lightcone_horizon.py", "quench_pipeline.py"
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, tmp_path):
    tmpdir = _run(demo, tmp_path)
    assert list(tmpdir.iterdir()) == []


def test_demo_keeps_its_files_in_a_given_directory(tmp_path):
    out = tmp_path / "out"
    tmpdir = _run(ROOT / "demos" / "quench_pipeline.py", tmp_path, str(out))
    assert list(tmpdir.iterdir()) == []
    assert {"phase1.csv", "direct.csv", "mc.csv"} <= {p.name for p in out.iterdir()}
