"""Exact anchors at delta = 0, where the chain is free fermions.

The window value of tests/oracles.py is the window estimator's own
expectation at any l and any time, so window Monte Carlo must match it
within its errors everywhere, past the light-cone horizon included.
"""

import numpy as np
import pytest
from scipy.special import j0

from oracles import free_fermion_window_sz0
from spinquench.harness import read_table, run_itebd, run_mc
from spinquench.itebd import QuenchConfig, evolve_to, neel_init


def test_itebd_follows_the_xx_chain_past_the_dense_oracle():
    # delta = 0 is free fermions, where <Sz0>(t) = J0(2t)/2 exactly, so
    # this anchor reaches t = 6, past the 16-site dense oracle (valid to
    # t ~ 4). At k = 64 the error is the Trotter error alone: the max
    # deviations measured 9.90e-6 at dt = 1/32 and 3.96e-5 at dt = 1/16,
    # the same at k = 128. The bounds allow 10% over those, and their
    # ratio, 3.997, is the 2^2 of a second-order splitting.
    worst = {}
    for dt in (1.0 / 32.0, 1.0 / 16.0):
        records = []
        config = QuenchConfig(delta=0.0, dt=dt, k_max=64)
        evolve_to(neel_init(), 6.0, config, observer=records.append)
        times = np.array([r.time for r in records])
        assert times[-1] == 6.0
        worst[dt] = np.max(np.abs(np.array([r.sz0 for r in records]) - 0.5 * j0(2.0 * times)))
    assert worst[1.0 / 32.0] < 1.1e-5
    assert worst[1.0 / 16.0] < 4.4e-5
    assert 3.8 < worst[1.0 / 16.0] / worst[1.0 / 32.0] < 4.2


def test_wide_window_oracle_is_the_infinite_chain():
    # a window wider than the light cone of t_fin sees the infinite
    # chain, whose <Sz0> is J0(2t)/2
    times = np.arange(2.0, 9.01, 0.5)
    value = free_fermion_window_sz0(30, 2.0, times)
    assert np.max(np.abs(value - 0.5 * j0(2.0 * times))) < 1e-12
    # and the chain's ends are out of reach
    assert np.max(np.abs(free_fermion_window_sz0(4, 2.0, times, margin=30)
                         - free_fermion_window_sz0(4, 2.0, times))) < 1e-12


def test_window_mc_matches_free_fermion_window(tmp_path):
    # every grid point is within 4 sigma, where sigma combines the run's
    # stderr with the checkpoint's own error against J0(2t)/2; at l=6 the
    # first point's stderr is a few 1e-6, below the Trotter error
    chk, curve = tmp_path / "d0.mpsc1", tmp_path / "d0.csv"
    run_itebd(QuenchConfig(delta=0.0, dt=0.0625, k_max=64, t_init=2.0), chk, curve)
    _meta, cols = read_table(curve)
    checkpoint_error = np.max(np.abs(cols["sz0"] - 0.5 * j0(2.0 * cols["t"])))
    assert checkpoint_error < 1e-4
    for l in (4, 6):
        # t_fin - t_init = 7 is past the horizon l/v of both windows (v = 1)
        with pytest.warns(UserWarning, match="horizon"):
            mc = run_mc(checkpoint=chk, l=l, t_fin=9.0, delta_t=0.5, n_max=20,
                        n_samples=3000, master_seed=1, n_workers=1)
        exact = free_fermion_window_sz0(l, 2.0, mc.times)
        sigma = np.hypot(mc.stderr, checkpoint_error)
        assert np.max(np.abs(mc.mean - exact) / sigma) < 4.0, l
