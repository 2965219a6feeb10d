"""Infinite-chain evolution against closed forms and the dense oracle."""

import dataclasses
import math
import threading

import numpy as np
import pytest
import scipy.linalg
from scipy.special import j0

from oracles import (
    SectorLayout,
    expect_pair_observable_reference,
    fused_pair_reference,
    right_normalization_deviation,
    spin_matrix,
    to_dense,
    update_bond_reference,
)
from spinquench import graded, itebd, threads
from spinquench.checkpoint import load_checkpoint, save_checkpoint
from spinquench.errors import ConfigError, SvdError
from spinquench.graded import SchmidtSpectrum
from spinquench.itebd import (
    DN,
    UP,
    QuenchConfig,
    _fused_pair,
    _pair_roles,
    build_gate,
    evolve_to,
    expect_pair_observable,
    expect_sz,
    neel_init,
    update_bond,
)

SZ_LEFT = np.diag([0.5, 0.5, -0.5, -0.5])
SZ_RIGHT = np.diag([0.5, -0.5, 0.5, -0.5])


def dense_pair_hamiltonian(delta):
    sz = np.diag([0.5, -0.5])
    sp = np.array([[0.0, 1.0], [0.0, 0.0]])
    h = 0.5 * (np.kron(sp, sp.T) + np.kron(sp.T, sp)) + delta * np.kron(sz, sz)
    return h


@pytest.mark.parametrize("delta", [0.0, 0.5, 1.0, -0.7])
@pytest.mark.parametrize("step", [0.0625, 0.5])
def test_gate_matches_expm(delta, step):
    # oracle: scipy matrix exponential of the explicit two-site Hamiltonian
    expected = scipy.linalg.expm(-1j * step * dense_pair_hamiltonian(delta))
    gate = build_gate(delta, step)
    assert np.allclose(gate, expected, atol=1e-14)


def test_gate_unitary():
    u = build_gate(0.5, 0.0625)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-14


def test_first_update_hand_oracle():
    # one AB gate on the product state: amplitudes cos(dt/2) on up-down
    # and -i sin(dt/2) on down-up, so the Schmidt values are
    # (cos(dt/2), sin(dt/2)) and sz0 = cos(dt)/2.
    dt = 0.3
    state = neel_init()
    gate = build_gate(0.5, dt)
    new, report = update_bond(state, gate, "AB", 8)
    lam = sorted(w for vals in new.lambda_a.blocks.values() for w in vals)
    assert lam == pytest.approx(
        sorted([math.cos(dt / 2.0), math.sin(dt / 2.0)]), abs=1e-14
    )
    assert report.discarded_weight == pytest.approx(0.0, abs=1e-14)
    assert expect_sz(new, "A") == pytest.approx(math.cos(dt) / 2.0, abs=1e-14)
    assert right_normalization_deviation(new) < 1e-13


def test_config_validation():
    with pytest.raises(ConfigError):
        QuenchConfig(dt=0.0)
    with pytest.raises(ConfigError):
        QuenchConfig(k_max=1)
    with pytest.raises(ConfigError):
        QuenchConfig(t_init=0.1, dt=0.0625)  # not a step multiple
    for t_init in (float("inf"), float("nan")):  # no step count at all
        with pytest.raises(ConfigError):
            QuenchConfig(t_init=t_init)
    with pytest.raises(ConfigError):
        evolve_to(neel_init(), 0.1, QuenchConfig(dt=0.0625, k_max=8))
    with pytest.raises(ConfigError):
        evolve_to(neel_init(), -0.0625, QuenchConfig(dt=0.0625, k_max=8))


def test_neel_is_its_own_zero_step():
    state = neel_init()
    assert evolve_to(state, 0.0, QuenchConfig(dt=0.0625, k_max=8)) is state
    assert expect_sz(state, "A") == pytest.approx(0.5)
    assert expect_sz(state, "B") == pytest.approx(-0.5)


def test_xx_chain_bessel_closed_form():
    # free-fermion result: staggered magnetization J0(2t)/2 at delta=0
    config = QuenchConfig(delta=0.0, dt=0.0625, k_max=64)
    for t in (0.5, 1.0, 2.0):
        state = evolve_to(neel_init(), t, config)
        assert expect_sz(state, "A") == pytest.approx(j0(2.0 * t) / 2.0, abs=2e-4)


def test_against_dense_oracle_short(dense16_curve):
    records = []
    evolve_to(
        neel_init(),
        2.0,
        QuenchConfig(delta=0.5, dt=0.0625, k_max=64),
        observer=records.append,
    )
    worst = max(abs(r.sz0 - dense16_curve[round(r.time, 10)]) for r in records)
    assert worst < 1e-4


def test_staggered_symmetry_along_curve():
    records = []
    evolve_to(
        neel_init(),
        2.0,
        QuenchConfig(delta=0.5, dt=0.0625, k_max=64),
        observer=records.append,
    )
    assert max(abs(r.sz0 + r.sz1) for r in records) < 1e-9


def test_observer_times_and_cumulative_weight():
    records = []
    evolve_to(
        neel_init(),
        1.0,
        QuenchConfig(delta=0.5, dt=0.0625, k_max=32),
        observer=records.append,
    )
    assert len(records) == 16
    times = [r.time for r in records]
    assert times == pytest.approx([(k + 1) * 0.0625 for k in range(16)], abs=1e-12)
    # the per-step discarded weights are nonnegative and, at k=32 to t=1,
    # stay far below the 1e-6 total at which truncation starts to matter
    assert all(r.discarded_weight >= 0.0 for r in records)
    assert sum(r.discarded_weight for r in records) <= 1e-6


def test_evolution_split_agrees_with_single_call():
    config = QuenchConfig(delta=0.5, dt=0.0625, k_max=64)
    one = evolve_to(neel_init(), 1.5, config)
    half = evolve_to(neel_init(), 0.75, config)
    two = evolve_to(half, 1.5, config)
    assert expect_sz(two, "A") == pytest.approx(expect_sz(one, "A"), abs=1e-10)
    assert two.time == one.time == 1.5


def test_update_reports_block_dims():
    state = evolve_to(neel_init(), 1.0, QuenchConfig(delta=0.5, dt=0.0625, k_max=16))
    gate = build_gate(0.5, 0.0625)
    _new, report = update_bond(state, gate, "AB", 16)
    total = state.lambda_b.total_dim + state.lambda_a.total_dim
    assert 0 < report.largest_block_dim < total


@pytest.mark.parametrize("which", ["AB", "BA"])
@pytest.mark.parametrize("k_max", [8, 256])
def test_update_matches_graded_rebuild(which, k_max):
    # the fused rebuild of the left tensor against the four-way graded
    # sum: the same spectrum and right tensors bit for bit, the left
    # tensors equal up to the order of the sums
    state = evolve_to(neel_init(), 1.0, QuenchConfig(delta=0.5, dt=0.0625, k_max=16))
    gate = build_gate(0.5, 0.0625)
    new, report = update_bond(state, gate, which, k_max)
    ref_left, ref_right, ref_spec, ref_report = update_bond_reference(
        state, gate, which, k_max
    )
    left, right, spec = (
        (new.a_a, new.a_b, new.lambda_a) if which == "AB"
        else (new.a_b, new.a_a, new.lambda_b)
    )
    assert report.discarded_weight == ref_report.discarded_weight
    assert report.kept_per_sector == ref_report.kept_per_sector
    assert list(spec.blocks) == list(ref_spec.blocks)
    for q, vals in ref_spec.blocks.items():
        assert np.array_equal(spec.blocks[q], vals)
    for s in (UP, DN):
        assert list(right.spin(s)) == list(ref_right[s].blocks)
        for q, arr in ref_right[s].blocks.items():
            assert np.array_equal(right.block(s, q), arr)
        assert list(left.spin(s)) == list(ref_left[s].blocks)
        for q, arr in ref_left[s].blocks.items():
            assert np.max(np.abs(left.block(s, q) - arr)) <= 1e-13


def test_update_rejects_schmidt_values_that_miss_the_rows():
    state = evolve_to(neel_init(), 0.5, QuenchConfig(delta=0.5, dt=0.0625, k_max=16))
    blocks = dict(state.lambda_b.blocks)
    q = max(blocks, key=lambda q: blocks[q].size)
    blocks[q] = blocks[q][:-1]
    short = dataclasses.replace(state, lambda_b=SchmidtSpectrum(blocks))
    with pytest.raises(ConfigError, match=f"bond sector {q}"):
        update_bond(short, build_gate(0.5, 0.0625), "AB", 16)


def test_division_free_with_tiny_schmidt_value():
    # overwrite the smallest Schmidt value with 1e-12 (four orders below the
    # natural minimum of the k=16 spectrum) and push it through updates that
    # consume it as a row weight.  The update path must stay finite because no
    # Schmidt coefficient is ever inverted.  k_max is kept wide and dt small so
    # truncation stays at floor level; heavy truncation degrades max-norm
    # right-normalization on its own, which is a separate effect.
    state = evolve_to(neel_init(), 1.0, QuenchConfig(delta=0.5, dt=0.0625, k_max=16))
    blocks = {q: vals.copy() for q, vals in state.lambda_a.blocks.items()}
    q_min = min(blocks, key=lambda q: blocks[q].min())
    blocks[q_min][int(np.argmin(blocks[q_min]))] = 1e-12
    state = dataclasses.replace(
        state, lambda_a=SchmidtSpectrum(blocks).normalized()
    )
    lam_all = np.concatenate(list(state.lambda_a.blocks.values()))
    assert lam_all.min() == pytest.approx(1e-12, rel=1e-9)
    gate = build_gate(0.5, 0.01)
    which = "BA"  # the BA update multiplies rows of theta by lambda_A
    for _ in range(20):
        state, _report = update_bond(state, gate, which, 256)
        which = "AB" if which == "BA" else "BA"
    for tensors in (state.a_a, state.a_b):
        for arr in tensors.blocks.values():
            assert np.all(np.isfinite(arr))
    assert right_normalization_deviation(state) < 1e-6


@pytest.mark.parametrize("which", ["AB", "BA"])
@pytest.mark.parametrize("run", ["k16_t1", "k128_t2"])
def test_fused_pair_matches_old_route(request, run, which):
    # the products summed straight into the fused blocks against four
    # graded C matrices fused afterwards: the same blocks bit for bit
    state, config = load_checkpoint(request.getfixturevalue(run)["checkpoint"])
    gate = build_gate(config.delta, config.dt)
    pair = _fused_pair(state, gate, which)
    blocks = pair.plan
    ref_c, ref_theta, ref_rows, ref_cols = fused_pair_reference(state, gate, which)
    assert [b.qm for b in blocks] == list(pair.c) == list(pair.blocks)
    assert list(pair.c) == list(ref_c) == list(ref_theta.blocks)
    for b in blocks:
        assert [(s, q, r0, r1 - r0) for s, q, r0, r1 in b.rows] == ref_rows[b.qm]
        assert [(s, q, c0, c1 - c0) for s, q, c0, c1 in b.cols] == ref_cols[b.qm]
        assert np.array_equal(pair.c[b.qm], ref_c[b.qm])
        assert np.array_equal(pair.blocks[b.qm], ref_theta.blocks[b.qm])

    # and C against dense products of the site matrices, the grading forgotten
    left, right, lam = _pair_roles(state, which)
    left, right = ([spin_matrix(t, s) for s in (UP, DN)] for t in (left, right))
    outer = SectorLayout(lam.sector_dims)
    middle = SectorLayout({**left[UP].col_dims, **left[DN].col_dims})
    inner = SectorLayout({**right[UP].col_dims, **right[DN].col_dims})
    dense_l = [to_dense(left[s], outer, middle) for s in (UP, DN)]
    dense_r = [to_dense(right[s], middle, inner) for s in (UP, DN)]
    for sl in (UP, DN):
        for sr in (UP, DN):
            expected = sum(
                gate[2 * sl + sr, 2 * a + b] * (dense_l[a] @ dense_r[b])
                for a in (UP, DN)
                for b in (UP, DN)
            )
            got = np.zeros_like(expected)
            for b in blocks:
                for _s, q_row, r0, r1 in (row for row in b.rows if row[0] == sl):
                    for _s, q_col, c0, c1 in (col for col in b.cols if col[0] == sr):
                        r, k = outer.offset(q_row), inner.offset(q_col)
                        got[r : r + r1 - r0, k : k + c1 - c0] = pair.c[b.qm][r0:r1, c0:c1]
            assert np.max(np.abs(got - expected)) < 1e-13


@pytest.mark.parametrize("step", [0.0, 0.03125, 0.0625])
def test_pair_observable_matches_reference(step):
    # the signed row and column norms of theta against <u+ Sz u> summed
    # over pairs of transfer matrices, for the identity, half and full gates
    state = evolve_to(neel_init(), 1.0, QuenchConfig(delta=0.5, dt=0.0625, k_max=32))
    u = build_gate(0.5, step)
    sz0, sz1 = expect_pair_observable(state, u)
    ref0 = expect_pair_observable_reference(state, u.conj().T @ SZ_LEFT @ u)
    ref1 = expect_pair_observable_reference(state, u.conj().T @ SZ_RIGHT @ u)
    assert abs(sz0 - ref0) < 1e-14
    assert abs(sz1 - ref1) < 1e-14


def test_pair_observable_matches_site_observable():
    state = evolve_to(neel_init(), 1.0, QuenchConfig(delta=0.5, dt=0.0625, k_max=32))
    sz0, sz1 = expect_pair_observable(state, build_gate(0.5, 0.0))
    assert sz0 == pytest.approx(expect_sz(state, "A"), abs=1e-12)
    assert sz1 == pytest.approx(expect_sz(state, "B"), abs=1e-12)


@pytest.mark.parametrize("k_max, t_end", [(16, 1.0), (32, 2.0)])
def test_svd_work_matches_the_reference_route(monkeypatch, k_max, t_end):
    # every update decomposes blocks of exactly the shapes that the
    # reference route (four graded C matrices, then fused) gives on the
    # same state, so the benchmark's svd_blocks, svd_largest_block and
    # svd_gflop count the same work
    seen, expected = [], []
    block_svd, update = itebd.block_svd, itebd.update_bond

    def watched_update(state, gate, which, k):
        _c, theta, _rows, _cols = fused_pair_reference(state, gate, which)
        expected.append([block.shape for block in theta.blocks.values()])
        return update(state, gate, which, k)

    def watched_svd(theta):
        seen.append([block.shape for block in theta.blocks.values()])
        return block_svd(theta)

    monkeypatch.setattr(itebd, "update_bond", watched_update)
    monkeypatch.setattr(itebd, "block_svd", watched_svd)
    config = QuenchConfig(delta=0.5, dt=0.0625, k_max=k_max)
    evolve_to(neel_init(), t_end, config, observer=lambda record: None)
    assert len(seen) == 2 * round(t_end / config.dt) + 1
    assert seen == expected


def _assert_same_state(got, want):
    """Both states hold the same tensors and spectra, bit for bit."""
    for g, w in ((got.a_a, want.a_a), (got.a_b, want.a_b)):
        assert g.dims == w.dims
        assert all(np.array_equal(g.blocks[q], w.blocks[q]) for q in w.blocks)
    for g, w in ((got.lambda_a, want.lambda_a), (got.lambda_b, want.lambda_b)):
        assert list(g.blocks) == list(w.blocks)
        assert all(np.array_equal(g.blocks[q], w.blocks[q]) for q in w.blocks)


def test_shared_products_never_outlive_their_state():
    # evolve_to lets the pair observable and the AB update after it share
    # one state's products. Replaying its schedule with every call on a
    # fresh copy of the state, which keeps no products, gives the same
    # records and the same final state bit for bit.
    config = QuenchConfig(delta=0.5, dt=0.0625, k_max=16)
    records = []
    final = evolve_to(neel_init(), 0.5, config, observer=records.append)

    def fresh(state):
        copy = dataclasses.replace(state)
        assert not copy._products
        return copy

    g_half, g_full = build_gate(0.5, 0.03125), build_gate(0.5, 0.0625)
    state, _report = update_bond(fresh(neel_init()), g_half, "AB", 16)
    observed = []
    for k in range(1, 9):
        state, _report = update_bond(fresh(state), g_full, "BA", 16)
        if k < 8:
            observed.append(expect_pair_observable(fresh(state), g_half))
            state, _report = update_bond(fresh(state), g_full, "AB", 16)
        else:
            state, _report = update_bond(fresh(state), g_half, "AB", 16)
    assert [(r.sz0, r.sz1) for r in records[:-1]] == observed
    _assert_same_state(final, state)
    # the observable leaves its products on the state for the update,
    # which uses them up; the state it returns starts without
    shared = fresh(state)
    expect_pair_observable(shared, g_half)
    assert list(shared._products) == ["AB"]
    new, _report = update_bond(shared, g_full, "AB", 16)
    assert not shared._products and not new._products


def test_evolve_to_is_bit_identical_on_one_and_three_cpus(three_cpus, monkeypatch, tmp_path):
    # a k=32 run to t=2 decomposes every sector inline on one CPU and
    # deals every theta of two or more sectors on three; the records,
    # the state and its checkpoint are the same bit for bit
    config = QuenchConfig(delta=0.5, dt=0.0625, k_max=32)
    runs = []
    for n_cpus in (1, 3):
        monkeypatch.setattr(threads, "usable_cpus", lambda n=n_cpus: n)
        three_cpus.clear()
        records = []
        state = evolve_to(neel_init(), 2.0, config, observer=records.append)
        path = tmp_path / f"cpus{n_cpus}.mpsc1"
        save_checkpoint(path, state, config)
        helpers = {thread for thread, _arrays in three_cpus} - {threading.current_thread()}
        runs.append((records, state, path.read_bytes(), len(helpers)))
    (records_1, state_1, bytes_1, helpers_1), (records_3, state_3, bytes_3, helpers_3) = runs
    assert (helpers_1, helpers_3) == (0, 2)
    assert records_3 == records_1
    _assert_same_state(state_3, state_1)
    assert bytes_3 == bytes_1


def test_evolve_to_leaves_no_helper_thread(three_cpus, monkeypatch):
    # the helpers live only inside evolve_to: as many threads run after
    # it as before, whether it returns or raises SvdError
    config = QuenchConfig(delta=0.5, dt=0.0625, k_max=16)
    before, during = threading.active_count(), []
    evolve_to(neel_init(), 0.5, config, observer=lambda _r: during.append(threading.active_count()))
    assert max(during) == before + 2
    assert threading.active_count() == before

    decompose, during = graded._decompose, []

    def failing(arrays):
        # from the 20th share on, every sector fails to converge
        during.append(threading.active_count())
        if len(during) >= 20:
            arrays = [np.full(arr.shape, np.nan) for arr in arrays]
        return decompose(arrays)

    monkeypatch.setattr(graded, "_decompose", failing)
    with pytest.raises(SvdError):
        evolve_to(neel_init(), 0.5, config)
    assert max(during) == before + 2
    assert threading.active_count() == before
