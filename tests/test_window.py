import math

import numpy as np
import pytest
from scipy.sparse.linalg import expm_multiply

from oracles import (
    alternating_config,
    coo_chain_hamiltonian,
    complex_taylor_step,
    dense_reference_evolve,
)
from spinquench.errors import ConfigError, NormDriftError
from spinquench.window import (
    EvolverParams,
    L_MAX,
    WindowState,
    _chain_hamiltonian,
    _sector_basis,
    build_hloc,
    evolve_and_measure,
    spin_wave_velocity,
    sz_center,
    taylor_step,
)

# single-site operators in the (down, up) basis so index == bit
SZ = np.diag([-0.5, 0.5])
SP = np.array([[0.0, 0.0], [1.0, 0.0]])  # |up><down|
SM = SP.T


def kron_chain_hamiltonian(n_sites: int, delta: float) -> np.ndarray:
    """Open XXZ chain built by explicit Kronecker products, site 0 = MSB."""
    dim = 2**n_sites
    h = np.zeros((dim, dim))

    def embed(op_left, op_right, j):
        ops = [np.eye(2)] * n_sites
        ops[j] = op_left
        ops[j + 1] = op_right
        full = ops[0]
        for op in ops[1:]:
            full = np.kron(full, op)
        return full

    for j in range(n_sites - 1):
        h += 0.5 * (embed(SP, SM, j) + embed(SM, SP, j))
        h += delta * embed(SZ, SZ, j)
    return h


def to_matrix(h) -> np.ndarray:
    """Dense full-space matrix of a window Hamiltonian."""
    basis = np.arange(1 << h.n_sites, dtype=np.int64)
    return _chain_hamiltonian(h.n_sites, h.delta, basis).toarray()


@pytest.mark.parametrize("l,delta", [(1, 0.5), (2, 0.5), (2, 1.3), (2, 0.0)])
def test_hamiltonian_matches_kron_oracle(l, delta):
    h = build_hloc(l, delta)
    n = 2 * l + 1
    full = kron_chain_hamiltonian(n, delta)
    assert np.allclose(to_matrix(h), full, atol=1e-13)
    for n_up in range(n + 1):
        basis, h_sec = h.sector(n_up)
        assert basis.size == math.comb(n, n_up)
        assert np.allclose(h_sec.toarray(), full[np.ix_(basis, basis)], atol=1e-13)


def test_sector_bases_partition_full_space():
    h = build_hloc(2, 0.5)
    sizes = [h.sector(k)[0].size for k in range(h.n_sites + 1)]
    assert sum(sizes) == 2**h.n_sites


def test_sector_basis_is_shared_and_read_only():
    h = build_hloc(2, 0.5)
    basis, _h_sec = h.sector(2)
    psi = WindowState(np.zeros(basis.size, dtype=complex), h.n_sites, 2)
    assert psi.basis is basis
    assert not basis.flags.writeable
    with pytest.raises(ValueError):
        basis[0] = 0


def _random_sector_state(l, n_up, seed):
    rng = np.random.default_rng(seed)
    n = 2 * l + 1
    dim = math.comb(n, n_up)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return WindowState(amps / np.linalg.norm(amps), n, n_up)


def test_taylor_step_matches_exponential():
    l, n_up = 2, 3
    psi = _random_sector_state(l, n_up, seed=7)
    h = build_hloc(l, 0.5)
    _basis, h_sec = h.sector(n_up)
    expected = expm_multiply(-1j * (1.0 / 3.0) * h_sec, psi.amplitudes)
    stepped = taylor_step(psi, h, 1.0 / 3.0, 20)
    assert np.max(np.abs(stepped.amplitudes - expected)) < 1e-12
    assert abs(np.linalg.norm(stepped.amplitudes) - 1.0) < 1e-14
    assert stepped.total_sz_sector == n_up


def test_taylor_step_rejects_diverged_series():
    psi = _random_sector_state(2, 2, seed=3)
    h = build_hloc(2, 0.5)
    with pytest.raises(NormDriftError):
        taylor_step(psi, h, 5.0, 4)


def _stack(states):
    return WindowState(
        np.stack([s.amplitudes for s in states]),
        states[0].n_sites,
        states[0].total_sz_sector,
    )


def _single_vector_step(amps, h_sec, delta_t, n_max):
    """Reference Taylor step: one matrix-vector product per order."""
    acc = amps.astype(complex)
    term = acc
    for order in range(1, n_max + 1):
        term = h_sec @ term
        term = term * (-1j * delta_t / order)
        acc = acc + term
    return acc / float(np.linalg.norm(acc))


@pytest.mark.parametrize("duplicate", [False, True], ids=["distinct", "repeated"])
def test_stacked_propagation_matches_stacks_of_one(duplicate):
    # each row of a stack evolves to the same bits as the state alone,
    # and as the state stepped by single matrix-vector products
    h = build_hloc(5, 0.5)
    states = [_random_sector_state(5, 5, seed=s) for s in range(5)]
    if duplicate:
        states[3] = states[1]
    stepped = taylor_step(_stack(states), h, 1.0 / 3.0, 20)
    assert stepped.amplitudes.shape == (5, 462)
    _basis, h_sec = h.sector(5)
    for j, psi in enumerate(states):
        ref = _single_vector_step(psi.amplitudes, h_sec, 1.0 / 3.0, 20)
        assert np.array_equal(stepped.amplitudes[j], ref)
    params = EvolverParams(1.0 / 3.0, 20, 2.0)
    series = evolve_and_measure(_stack(states), h, params, 1.0)
    for j, psi in enumerate(states):
        for alone in (_stack([psi]), psi):  # a stack of one, and the bare state
            out = taylor_step(alone, h, 1.0 / 3.0, 20).amplitudes
            assert out.shape == alone.amplitudes.shape
            assert np.array_equal(stepped.amplitudes[j], out.reshape(-1))
            one = evolve_and_measure(alone, h, params, 1.0)
            assert [(t, np.ravel(v)[0]) for t, v in one] == [(t, v[j]) for t, v in series]
    if duplicate:
        assert np.array_equal(stepped.amplitudes[1], stepped.amplitudes[3])


@pytest.mark.parametrize("delta", [0.5, 0.0, -1.3])
def test_direct_csr_matches_coo_route(delta):
    # bit-exact pin: the sector Hamiltonian built straight into CSR has
    # the index pointers, column indices, values and dtypes of scipy's
    # COO-plus-diagonal route; at delta = 0 it has no diagonal entries
    for l in range(1, 7):
        n = 2 * l + 1
        for n_up in range(n + 1):
            basis = _sector_basis(n, n_up)
            got = _chain_hamiltonian(n, delta, basis)
            ref = coo_chain_hamiltonian(n, delta, basis)
            assert type(got) is type(ref)
            for field in ("indptr", "indices", "data"):
                a, b = getattr(got, field), getattr(ref, field)
                assert a.dtype == b.dtype and np.array_equal(a, b), (l, n_up, field)
            if delta == 0.0:
                assert not got.diagonal().any()


@pytest.mark.parametrize("l,n_up,height", [(2, 2, 1), (2, 2, 6), (5, 5, 1), (5, 5, 9)])
def test_real_taylor_product_matches_complex_product(l, n_up, height):
    # bit-exact pin: the real-view product of each Taylor order gives a
    # stack, and a stack of one, the bits of the complex product
    h = build_hloc(l, 0.5)
    states = [_random_sector_state(l, n_up, seed=s) for s in range(height)]
    for psi in (_stack(states), states[0]):
        for _step in range(3):
            got = taylor_step(psi, h, 1.0 / 3.0, 20)
            ref = complex_taylor_step(psi, h, 1.0 / 3.0, 20)
            assert np.array_equal(got.amplitudes, ref.amplitudes)
            psi = got


def test_stack_with_one_diverging_row_is_rejected():
    # a low-energy eigenstate converges where a high-energy one does not
    h = build_hloc(2, 0.5)
    _basis, h_sec = h.sector(2)
    energies, vecs = np.linalg.eigh(h_sec.toarray())
    order = np.argsort(np.abs(energies))
    calm, wild = (WindowState(vecs[:, k].astype(complex), 5, 2) for k in order[[0, -1]])
    delta_t, n_max = 1.0, 6
    taylor_step(calm, h, delta_t, n_max)
    with pytest.raises(NormDriftError):
        taylor_step(wild, h, delta_t, n_max)
    with pytest.raises(NormDriftError):
        taylor_step(_stack([calm, wild, calm]), h, delta_t, n_max)


def test_window_state_rejects_length_mismatch():
    # amplitudes must match the declared sector: C(5, 2) = 10 on 5 sites
    amps = _random_sector_state(2, 2, seed=5).amplitudes
    with pytest.raises(ConfigError):
        WindowState(amps[:-1], 5, 2)
    with pytest.raises(ConfigError):
        WindowState(np.zeros(32, dtype=complex), 5, 2)  # full-space vector
    with pytest.raises(ConfigError):
        WindowState(amps, 5, 1)  # C(5, 1) = 5
    with pytest.raises(ConfigError):
        WindowState(np.zeros(1, dtype=complex), 5, 6)
    with pytest.raises(ConfigError):
        WindowState(np.zeros((2, 9), dtype=complex), 5, 2)  # stack rows too short
    with pytest.raises(ConfigError):
        WindowState(np.zeros((1, 2, 10), dtype=complex), 5, 2)


def test_evolve_and_measure_grid_inclusive():
    psi = _random_sector_state(1, 2, seed=1)
    h = build_hloc(1, 0.5)
    series = evolve_and_measure(psi, h, EvolverParams(1.0 / 3.0, 20, 2.0), 1.0)
    times = [t for t, _ in series]
    assert times == pytest.approx([1.0, 4.0 / 3.0, 5.0 / 3.0, 2.0])
    assert series[0][1] == pytest.approx(sz_center(psi))


def test_evolve_and_measure_rejects_nonintegral_span():
    psi = _random_sector_state(1, 1, seed=2)
    h = build_hloc(1, 0.5)
    with pytest.raises(ConfigError):
        evolve_and_measure(psi, h, EvolverParams(1.0 / 3.0, 20, 1.5), 1.0)
    with pytest.raises(ConfigError):
        evolve_and_measure(psi, h, EvolverParams(1.0 / 3.0, 20, 0.5), 1.0)


def test_two_site_chain_is_analytic():
    # |ud> under the two-site chain: <Sz_0>(t) = cos(t)/2 for any delta
    grid = np.linspace(0.0, 3.0, 13)
    for delta in (0.0, 0.5, 1.0):
        out = dense_reference_evolve("ud", delta, grid)
        for t, sz in out:
            assert sz[0] == pytest.approx(0.5 * math.cos(t), abs=1e-10)
            assert sz[1] == pytest.approx(-0.5 * math.cos(t), abs=1e-10)


def test_dense_reference_initial_row_is_product_state():
    out = dense_reference_evolve(alternating_config(6), 0.5, [0.0])
    t, sz = out[0]
    assert t == 0.0
    assert np.allclose(sz, [0.5, -0.5, 0.5, -0.5, 0.5, -0.5])


def test_dense_reference_validates_input():
    with pytest.raises(ConfigError):
        dense_reference_evolve("uxd", 0.5, [0.0])
    with pytest.raises(ConfigError):
        dense_reference_evolve("u", 0.5, [0.0])
    with pytest.raises(ConfigError):
        dense_reference_evolve("ud" * 11, 0.5, [0.0])
    with pytest.raises(ConfigError):
        dense_reference_evolve("udud", 0.5, [1.0, 0.5])


def test_alternating_config():
    assert alternating_config(5) == "ududu"
    assert alternating_config(4, start_up=False) == "dudu"


def test_spin_wave_velocity_closed_forms():
    assert spin_wave_velocity(0.5) == pytest.approx(3.0 * math.sqrt(3.0) / 4.0)
    assert spin_wave_velocity(1.0) == pytest.approx(math.pi / 2.0)
    assert spin_wave_velocity(0.0) == pytest.approx(1.0)
    assert spin_wave_velocity(-1.0) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ConfigError):
        spin_wave_velocity(1.5)


def test_window_size_limits():
    with pytest.raises(ConfigError):
        build_hloc(0, 0.5)
    with pytest.raises(ConfigError):
        build_hloc(L_MAX + 1, 0.5)


def test_sz_center_on_product_state():
    amps = np.array([0.0, 1.0, 0.0], dtype=complex)
    psi = WindowState(amps, 3, 1)
    assert list(psi.basis) == [0b001, 0b010, 0b100]  # down, up, down at 1
    assert sz_center(psi) == pytest.approx(0.5)
    assert psi.n_sites == 3
