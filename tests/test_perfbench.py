"""The benchmark's self-check and tracer run against the current program.

perfbench wraps graded, itebd, checkpoint, harness, sampler, window and
circuit functions by name to trace them; a refactor that renames or
removes one of those names, or stops calling it by that name, must fail
here rather than in the next benchmark run.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

import spinquench as sq
import spinquench.cli  # noqa: F401  (the tracer patches every module)
from spinquench.itebd import QuenchConfig

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
        "window.taylor_step",
        "checkpoint.load_checkpoint",
    ):
        assert calls.get(span, 0) > 0, span
    # round two assembles every share's windows through the stack
    # assembler, so the one-pair sampler.assemble_window_state span the
    # tracer still wraps never opens in a run_mc
    assert calls.get("sampler.assemble_window_state", 0) == 0
    # run_mc draws every sample's uniforms in one sample_uniforms pass,
    # so the per-sample harness.sample_one span the tracer still counts
    # samples by never opens (ROADMAP item 3)
    assert calls.get("harness.sample_one", 0) == 0


def test_tracer_sees_every_itebd_layer(tmp_path):
    # four steps to t=0.25 are nine bond updates (a half layer at each
    # end), three interior measurements and the two single-site ones of
    # the last step; a per-layer metric of a name that evolve_to stops
    # calling would otherwise read 0
    tracing = _tracing()
    tracer = tracing.Tracer()
    with tracing.traced(sq, tracer):
        sq.harness.run_itebd(
            QuenchConfig(k_max=16, t_init=0.25),
            tmp_path / "state.mpsc1",
            tmp_path / "curve.csv",
        )
    calls = {name: row[0] for name, row in tracer.aggregate().items()}
    assert {
        span: calls.get(span, 0)
        for span in (
            "itebd.update_bond",
            "graded.block_svd",
            "graded.merged_truncate",
            "itebd.expect_pair_observable",
            "itebd.expect_sz",
            "checkpoint.save_checkpoint",
        )
    } == {
        "itebd.update_bond": 9,
        "graded.block_svd": 9,
        "graded.merged_truncate": 9,
        "itebd.expect_pair_observable": 3,
        "itebd.expect_sz": 2,
        "checkpoint.save_checkpoint": 1,
    }


def test_tracer_sees_every_circuit_layer():
    # the sum and the sampled estimator each split the circuit once; a
    # refactor that stops calling build_regions by name would leave the
    # window metrics of circuit-n18 at 0
    circuit = sq.BrickworkCircuit.random(8, 5, np.random.default_rng(4))
    regions = sq.circuit.build_regions(circuit)
    tracing = _tracing()
    tracer = tracing.Tracer()
    with tracing.traced(sq, tracer):
        sq.circuit.direct_expectation(circuit)
        sq.circuit.lightcone_expectation_sum(circuit)
        _mean, stderr = sq.circuit.lightcone_expectation_sampled(
            circuit, 500, np.random.default_rng(5)
        )
    calls = {name: row[0] for name, row in tracer.aggregate().items()}
    assert {
        span: calls.get(span, 0)
        for span in (
            "circuit.direct_expectation",
            "circuit.lightcone_expectation_sum",
            "circuit.lightcone_expectation_sampled",
            "circuit.build_regions",
        )
    } == {
        "circuit.direct_expectation": 1,
        "circuit.lightcone_expectation_sum": 1,
        "circuit.lightcone_expectation_sampled": 1,
        "circuit.build_regions": 2,
    }
    assert tracer.window_qubits == regions.w_hi - regions.w_lo + 1
    assert tracer.sampled_stderrs == [stderr]
