"""The benchmark's self-check and tracer run against the current program.

perfbench wraps harness, sampler and window functions by name to trace
them; a refactor that renames or removes one of those names, or stops
calling it by that name, must fail here rather than in the next
benchmark run.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import spinquench as sq
import spinquench.cli  # noqa: F401  (the tracer patches every module)

ROOT = Path(__file__).resolve().parents[1]


def _tracing():
    """perfbench/tracing.py, imported as it is."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--selfcheck"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_tracer_sees_every_sampling_layer(k16_t1):
    # a one-worker desk-small run under the benchmark's tracer must
    # record calls in every layer the per-layer metrics are built from
    tracing = _tracing()
    tracer = tracing.Tracer()
    with tracing.traced(sq, tracer):
        sq.harness.run_mc(
            checkpoint=k16_t1["checkpoint"],
            l=2,
            t_fin=1.0 + 1.0 / 3.0,
            delta_t=1.0 / 3.0,
            n_max=20,
            n_samples=200,
            master_seed=3,
            n_workers=1,
        )
    calls = {name: row[0] for name, row in tracer.aggregate().items()}
    for span in (
        "sampler.sample_alpha",
        "sampler.sample_spins_and_beta",
        "sampler.assemble_window_state",
        "window.taylor_step",
        "checkpoint.load_checkpoint",
        "harness.sample_one",
    ):
        assert calls.get(span, 0) > 0, span
    assert calls["harness.sample_one"] == 200
