"""Shared fixtures: cached evolutions, checkpoints, dense oracle curves.

The expensive artifacts (bond dimension 256 evolution, dense 16-site
reference curve, checkpoint files) are built once per session and
shared; everything else is cheap enough to rebuild per test.
"""

import threading

import numpy as np
import pytest

from oracles import alternating_config, dense_reference_evolve
from spinquench import circuit, graded, threads
from spinquench.harness import run_itebd
from spinquench.itebd import QuenchConfig, evolve_to, neel_init

_ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance_log():
    return _ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def one_blas_thread(monkeypatch):
    """numpy's BLAS reads as one thread, whatever it runs on, so helper_threads() opens helpers."""
    monkeypatch.setattr(threads, "blas_threads", lambda: 1)


@pytest.fixture
def three_cpus(one_blas_thread, monkeypatch):
    """Three usable CPUs, one BLAS thread and no crossovers, on any machine.

    helper_threads() then opens two helpers, block_svd queues every
    matrix of two or more sectors for them and apply_gate splits every
    pass of three or more amplitudes into three shares on a queue. Returns the list of
    (thread, array) of every sector decomposed from here on.
    """
    monkeypatch.setattr(threads, "usable_cpus", lambda: 3)
    monkeypatch.setattr(graded, "THREAD_WORK", 0)
    monkeypatch.setattr(circuit, "SHARE_AMPLITUDES", 1)
    sectors, decompose = [], graded._decompose

    def watched(arr):
        sectors.append((threading.current_thread(), arr))
        return decompose(arr)

    monkeypatch.setattr(graded, "_decompose", watched)
    return sectors


@pytest.fixture
def gate_shares(three_cpus, monkeypatch):
    """three_cpus, and the list of (thread, out) of every gate share from here on.

    out is the share's part of the pass's output array.
    """
    shares, product = [], circuit._product

    def watched(operands):
        shares.append((threading.current_thread(), operands[2]))
        return product(operands)

    monkeypatch.setattr(circuit, "_product", watched)
    return shares


@pytest.fixture(scope="session")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("artifacts")


@pytest.fixture(scope="session")
def k256_run():
    """(records, final state) of the reference-accuracy run to t=4."""
    records = []
    state = evolve_to(
        neel_init(),
        4.0,
        QuenchConfig(delta=0.5, dt=0.0625, k_max=256),
        observer=records.append,
    )
    return records, state


@pytest.fixture(scope="session")
def k128_t4_state():
    """The desk profile's state at t=4 (k=128)."""
    return evolve_to(neel_init(), 4.0, QuenchConfig(delta=0.5, dt=0.0625, k_max=128))


@pytest.fixture(scope="session")
def dense16_curve():
    """{time: central-site <Sz>} for the 16-site dense reference."""
    grid = [k * 0.0625 for k in range(65)]
    series = dense_reference_evolve(alternating_config(16), 0.5, grid)
    return {round(t, 10): float(sz[8]) for t, sz in series}


@pytest.fixture(scope="session")
def k16_t1(work_dir):
    """Checkpoint and curve paths of the small exact-regime run."""
    chk = work_dir / "k16_t1.mpsc1"
    curve = work_dir / "k16_t1.csv"
    run_itebd(QuenchConfig(delta=0.5, dt=0.0625, k_max=16, t_init=1.0), chk, curve)
    return {"checkpoint": chk, "curve": curve}


@pytest.fixture(scope="session")
def k128_t2(work_dir):
    chk = work_dir / "k128_t2.mpsc1"
    curve = work_dir / "k128_t2.csv"
    run_itebd(QuenchConfig(delta=0.5, dt=0.0625, k_max=128, t_init=2.0), chk, curve)
    return {"checkpoint": chk, "curve": curve}


@pytest.fixture(scope="session")
def k128_t3(work_dir):
    chk = work_dir / "k128_t3.mpsc1"
    curve = work_dir / "k128_t3.csv"
    run_itebd(QuenchConfig(delta=0.5, dt=0.0625, k_max=128, t_init=3.0), chk, curve)
    return {"checkpoint": chk, "curve": curve}
