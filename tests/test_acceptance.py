"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line through the acceptance_log
fixture (rendered by the terminal-summary hook in conftest) and then
asserts, so a red run still reports every criterion it reached. The
Monte Carlo criteria run fixed master seeds; all runs are deterministic,
so the measured margins quoted in the assertions are reproducible.
"""

import dataclasses
import math
import struct
import subprocess
import sys

import numpy as np
import pytest

from oracles import (
    dense_window_amplitudes,
    enumerate_boundary_pairs,
    full_amplitudes,
    right_normalization_deviation,
)
from spinquench.checkpoint import load_checkpoint, save_checkpoint
from spinquench.errors import CheckpointChecksumError
from spinquench.graded import SchmidtSpectrum
from spinquench.harness import run_mc
from spinquench.circuit import (
    BrickworkCircuit,
    direct_expectation,
    lightcone_expectation_sum,
)
from spinquench.itebd import (
    DN,
    UP,
    QuenchConfig,
    build_gate,
    evolve_to,
    expect_sz,
    neel_init,
    update_bond,
)
from spinquench.sampler import WindowSpec
from spinquench.window import spin_wave_velocity


def _record(log, num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    log.append(f"ACCEPTANCE {num:2d} {name}: {status} ({detail})")
    assert ok, f"criterion {num} [{name}]: {detail}"


def test_criterion_01_circuit_identity(acceptance_log):
    worst = 0.0
    count = 0
    for n in (4, 6, 8):
        for j in range(34):
            depth = 1 + j % 8
            rng = np.random.default_rng(np.random.SeedSequence((100, n, j)))
            circuit = BrickworkCircuit.random(n, depth, rng)
            diff = abs(
                lightcone_expectation_sum(circuit) - direct_expectation(circuit)
            )
            worst = max(worst, diff)
            count += 1
    _record(
        acceptance_log, 1, "circuit-identity",
        count >= 100 and worst < 1e-10,
        f"{count} circuits, max |sum - direct| = {worst:.2e}",
    )


def test_criterion_02_itebd_vs_dense(acceptance_log, k256_run, dense16_curve):
    records, _state = k256_run
    worst = 0.0
    for rec in records:
        key = round(rec.time, 10)
        assert key in dense16_curve
        worst = max(worst, abs(rec.sz0 - dense16_curve[key]))
    _record(
        acceptance_log, 2, "itebd-vs-dense",
        worst < 1e-3,
        f"max |<Sz_0>| deviation over t in [0, 4] = {worst:.2e}",
    )


def test_criterion_03_trotter_order(acceptance_log, k256_run, dense16_curve):
    records, _state = k256_run
    exact = dense16_curve[2.0]
    coarse = next(rec.sz0 for rec in records if abs(rec.time - 2.0) < 1e-9)
    fine_state = evolve_to(
        neel_init(), 2.0, QuenchConfig(delta=0.5, dt=0.03125, k_max=256)
    )
    fine = expect_sz(fine_state, "A")
    ratio = abs(coarse - exact) / abs(fine - exact)
    _record(
        acceptance_log, 3, "trotter-order",
        3.0 <= ratio <= 5.0,
        f"t=2 error ratio dt=1/16 over dt=1/32 = {ratio:.3f}",
    )


def test_criterion_04_division_free_stability(acceptance_log, k16_t1):
    state, _config = load_checkpoint(k16_t1["checkpoint"])
    blocks = {q: vals.copy() for q, vals in state.lambda_a.blocks.items()}
    q_min = min(blocks, key=lambda q: blocks[q].min())
    blocks[q_min][int(np.argmin(blocks[q_min]))] = 1e-12
    state = dataclasses.replace(
        state, lambda_a=SchmidtSpectrum(blocks).normalized()
    )
    lam_min = min(v.min() for v in state.lambda_a.blocks.values())
    assert lam_min == pytest.approx(1e-12, rel=1e-9)
    gate = build_gate(0.5, 0.01)
    which = "BA"  # consume the injected value as a theta row weight first
    finite = True
    for _ in range(100):
        state, _report = update_bond(state, gate, which, 256)
        which = "AB" if which == "BA" else "BA"
        for tensors in (state.a_a, state.a_b):
            for s in (UP, DN):
                for arr in tensors.spin(s).values():
                    finite = finite and bool(np.all(np.isfinite(arr)))
    dev = right_normalization_deviation(state)
    _record(
        acceptance_log, 4, "division-free-stability",
        finite and dev < 1e-6,
        f"100 updates with injected lambda_min=1e-12: finite={finite}, "
        f"right-normalization deviation = {dev:.2e}",
    )


def test_criterion_05_sampler_unbiased(acceptance_log, k16_t1):
    state, _config = load_checkpoint(k16_t1["checkpoint"])
    spec = WindowSpec(l=2)
    acc = 0.0
    for _a, _b, weight, psi in enumerate_boundary_pairs(state, spec):
        (amps,) = full_amplitudes(psi)
        bit = (np.arange(amps.size) >> spec.l) & 1
        acc += weight * float(np.abs(amps) ** 2 @ (bit - 0.5))
    direct = expect_sz(state, "A")
    exhaustive_diff = abs(acc - direct)

    curve = run_mc(
        checkpoint=k16_t1["checkpoint"],
        l=2,
        t_fin=1.0 + 1.0 / 3.0,
        delta_t=1.0 / 3.0,
        n_max=20,
        n_samples=100000,
        master_seed=12,
        n_workers=4,
    )
    pull = abs(curve.mean[0] - direct) / curve.stderr[0]
    _record(
        acceptance_log, 5, "sampler-unbiased",
        exhaustive_diff < 1e-10 and pull < 4.0,
        f"exhaustive |sum - direct| = {exhaustive_diff:.2e}, "
        f"1e5-sample pull = {pull:.2f} sigma",
    )


def test_criterion_06_lightcone_horizon(acceptance_log, k128_t2, k128_t3):
    kw = dict(l=4, delta_t=1.0 / 3.0, n_max=20, n_samples=1200, n_workers=4)
    early = run_mc(checkpoint=k128_t2["checkpoint"], t_fin=5.0, master_seed=21, **kw)
    late = run_mc(checkpoint=k128_t3["checkpoint"], t_fin=5.0, master_seed=22, **kw)
    horizon = 2.0 + 4.0 / spin_wave_velocity(0.5)
    by_time = {
        round(float(t), 10): (m, s)
        for t, m, s in zip(early.times, early.mean, early.stderr)
    }
    pulls = []
    for t, m, s in zip(late.times, late.mean, late.stderr):
        key = round(float(t), 10)
        if key in by_time and t < horizon:
            m_early, s_early = by_time[key]
            pulls.append(abs(m - m_early) / math.hypot(s, s_early))
    worst = max(pulls)
    _record(
        acceptance_log, 6, "lightcone-horizon",
        len(pulls) >= 5 and worst < 3.0,
        f"{len(pulls)} shared grid points below t={horizon:.3f}, "
        f"max pull = {worst:.2f} sigma",
    )


def test_criterion_07_symmetry_economy(acceptance_log, k256_run, k16_t1):
    _records, state = k256_run
    gate = build_gate(0.5, 0.0625)
    total_across_spins = 2 * state.lambda_a.total_dim
    largest = 0
    ok_blocks = True
    for which in ("AB", "BA"):
        state, report = update_bond(state, gate, which, 256)
        largest = max(largest, report.largest_block_dim)
        ok_blocks = ok_blocks and report.largest_block_dim < total_across_spins

    small_state, _config = load_checkpoint(k16_t1["checkpoint"])
    spec = WindowSpec(l=2)
    worst = 0.0
    for alpha, beta, _w, psi in enumerate_boundary_pairs(small_state, spec):
        dense = dense_window_amplitudes(small_state, spec, alpha, beta)
        dense /= np.linalg.norm(dense)
        (full,) = full_amplitudes(psi)
        worst = max(worst, float(np.max(np.abs(dense - full))))
    _record(
        acceptance_log, 7, "symmetry-economy",
        ok_blocks and worst < 1e-10,
        f"largest SVD block {largest} < {total_across_spins}, "
        f"blocked vs unblocked assembly diff = {worst:.2e}",
    )


def test_criterion_08_estimator_scaling(acceptance_log, k16_t1):
    errs = {}
    for n, seed in ((100, 31), (1000, 32), (10000, 33)):
        curve = run_mc(
            checkpoint=k16_t1["checkpoint"],
            l=2,
            t_fin=2.0,
            delta_t=1.0 / 3.0,
            n_max=20,
            n_samples=n,
            master_seed=seed,
            n_workers=4,
        )
        errs[n] = float(curve.stderr[-1])
    r1 = errs[100] / errs[1000]
    r2 = errs[1000] / errs[10000]
    lo, hi = math.sqrt(10.0) / 1.5, math.sqrt(10.0) * 1.5
    _record(
        acceptance_log, 8, "estimator-scaling",
        lo < r1 < hi and lo < r2 < hi,
        f"stderr ratios per decade {r1:.2f}, {r2:.2f} inside [{lo:.2f}, {hi:.2f}]",
    )


def test_criterion_09_checkpoint_integrity(acceptance_log, k256_run, work_dir):
    _records, state = k256_run
    config = QuenchConfig(delta=0.5, dt=0.0625, k_max=256, t_init=4.0)
    first = work_dir / "big_a.mpsc1"
    second = work_dir / "big_b.mpsc1"
    save_checkpoint(first, state, config)
    loaded, loaded_config = load_checkpoint(first)
    identical = loaded.time == state.time
    for orig, back in ((state.a_a, loaded.a_a), (state.a_b, loaded.a_b)):
        for s in (UP, DN):
            for q, arr in orig.spin(s).items():
                identical = identical and np.array_equal(arr, back.block(s, q))
    for orig, back in (
        (state.lambda_a, loaded.lambda_a),
        (state.lambda_b, loaded.lambda_b),
    ):
        for q, vals in orig.blocks.items():
            identical = identical and np.array_equal(vals, back.blocks[q])
    save_checkpoint(second, loaded, loaded_config)
    identical = identical and first.read_bytes() == second.read_bytes()

    raw = bytearray(first.read_bytes())
    (manifest_len,) = struct.unpack("<I", raw[8:12])
    raw[12 + manifest_len + 100] ^= 0x01
    corrupt = work_dir / "big_corrupt.mpsc1"
    corrupt.write_bytes(bytes(raw))
    try:
        load_checkpoint(corrupt)
        rejected = False
    except CheckpointChecksumError:
        rejected = True
    _record(
        acceptance_log, 9, "checkpoint-integrity",
        identical and rejected,
        f"round trip bit-identical = {identical}, corrupted CRC rejected = {rejected}",
    )


def test_criterion_10_sample_determinism(acceptance_log, k16_t1, work_dir):
    outs = []
    for workers in (1, 3):
        out = work_dir / f"determinism_w{workers}.csv"
        proc = subprocess.run(
            [
                sys.executable, "-m", "spinquench.cli", "sample",
                "--checkpoint", str(k16_t1["checkpoint"]),
                "--l", "2",
                "--t-fin", "2.0",
                "--delta-t", "0.25",
                "--samples", "40",
                "--seed", "11",
                "--workers", str(workers),
                "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    _record(
        acceptance_log, 10, "sample-determinism",
        outs[0] == outs[1] and len(outs[0]) > 0,
        f"1-worker and 3-worker outputs byte-identical ({len(outs[0])} bytes)",
    )
