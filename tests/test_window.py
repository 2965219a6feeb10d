import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.sparse.linalg import expm_multiply

from oracles import (
    alternating_config,
    coo_chain_hamiltonian,
    complex_taylor_step,
    dense_reference_evolve,
)
from spinquench import window
from spinquench.errors import ConfigError, NormDriftError
from spinquench.sampler import WindowSpec
from spinquench.window import (
    L_MAX,
    SECTOR_BYTES_MAX,
    EvolverParams,
    WindowState,
    _chain_hamiltonian,
    _sector_basis,
    build_hloc,
    evolve_and_measure,
    sector_bytes,
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
    psi = WindowState(np.zeros((1, basis.size), dtype=complex), h.n_sites, 2)
    assert psi.basis is basis
    assert not basis.flags.writeable
    with pytest.raises(ValueError):
        basis[0] = 0


def test_concurrent_requests_build_a_sector_once(monkeypatch):
    # the shares of round two read one Hamiltonian from several threads;
    # eight threads asking for one sector at once get one build
    builds, chain = [], window._chain_hamiltonian

    def counted(n_sites, delta, basis):
        builds.append(basis.size)
        return chain(n_sites, delta, basis)

    monkeypatch.setattr(window, "_chain_hamiltonian", counted)
    h = build_hloc(4, 0.5)
    start = threading.Barrier(8)

    def ask():
        start.wait(timeout=10)
        return h.sector(4)[1]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(ask) for _ in range(8)]
            mats = [future.result(timeout=30) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(builds) == 1 and all(m is mats[0] for m in mats)


def _random_sector_state(l, n_up, seed):
    rng = np.random.default_rng(seed)
    n = 2 * l + 1
    dim = math.comb(n, n_up)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return WindowState((amps / np.linalg.norm(amps))[None, :], n, n_up)


def test_taylor_step_matches_exponential():
    l, n_up = 2, 3
    psi = _random_sector_state(l, n_up, seed=7)
    h = build_hloc(l, 0.5)
    _basis, h_sec = h.sector(n_up)
    expected = expm_multiply(-1j * (1.0 / 3.0) * h_sec, psi.amplitudes[0])
    stepped = taylor_step(psi, h, 1.0 / 3.0, 20)
    assert np.max(np.abs(stepped.amplitudes[0] - expected)) < 1e-12
    assert abs(np.linalg.norm(stepped.amplitudes) - 1.0) < 1e-14
    assert stepped.total_sz_sector == n_up


def test_taylor_step_rejects_diverged_series():
    psi = _random_sector_state(2, 2, seed=3)
    h = build_hloc(2, 0.5)
    with pytest.raises(NormDriftError):
        taylor_step(psi, h, 5.0, 4)


def test_taylor_order_has_one_bound():
    # the evolver's parameters, which every run goes through, and the
    # step itself reject and accept the same orders
    psi = _random_sector_state(2, 2, seed=3)
    h = build_hloc(2, 0.5)
    for route in (lambda n: EvolverParams(n_max=n), lambda n: taylor_step(psi, h, 0.01, n)):
        with pytest.raises(ConfigError, match="n_max must be >= 4, got 3"):
            route(3)
        route(4)
        # an integral float or a bool is not an order
        for bad in (20.0, 4.5, True):
            with pytest.raises(ConfigError, match="n_max must be an integer"):
                route(bad)


def test_taylor_step_rejects_another_windows_hamiltonian():
    psi = _random_sector_state(2, 2, seed=3)
    with pytest.raises(ConfigError, match="state on 5 sites but Hamiltonian on 3"):
        taylor_step(psi, build_hloc(1, 0.5), 0.01, 20)


def _stack(states):
    return WindowState(
        np.concatenate([s.amplitudes for s in states]),
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
        ref = _single_vector_step(psi.amplitudes[0], h_sec, 1.0 / 3.0, 20)
        assert np.array_equal(stepped.amplitudes[j], ref)
    params = EvolverParams(1.0 / 3.0, 20, 3)
    series = evolve_and_measure(_stack(states), h, params)
    assert series.shape == (5, 4)
    for j, psi in enumerate(states):  # each state alone is a stack of one
        out = taylor_step(psi, h, 1.0 / 3.0, 20).amplitudes
        assert out.shape == (1, 462)
        assert np.array_equal(stepped.amplitudes[j], out[0])
        assert np.array_equal(evolve_and_measure(psi, h, params), series[j:j + 1])
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


@pytest.mark.parametrize("rows", [1, 5, 64])
def test_chunked_build_matches_coo_route(monkeypatch, rows):
    # bit-exact pin: a build in chunks of a few rows, which splits the
    # sectors of every l below at many points, gives the COO route's
    # matrices; the default chunk covers all of them in one
    monkeypatch.setattr(window, "BUILD_ROWS", rows)
    for l in range(1, 5):
        n = 2 * l + 1
        for n_up in range(n + 1):
            basis = _sector_basis(n, n_up)
            got = _chain_hamiltonian(n, 0.5, basis)
            ref = coo_chain_hamiltonian(n, 0.5, basis)
            for field in ("indptr", "indices", "data"):
                a, b = getattr(got, field), getattr(ref, field)
                assert a.dtype == b.dtype and np.array_equal(a, b), (l, n_up, field)


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
    calm, wild = (WindowState(vecs[:, [k]].T.astype(complex), 5, 2) for k in order[[0, -1]])
    delta_t, n_max = 1.0, 6
    taylor_step(calm, h, delta_t, n_max)
    with pytest.raises(NormDriftError):
        taylor_step(wild, h, delta_t, n_max)
    with pytest.raises(NormDriftError):
        taylor_step(_stack([calm, wild, calm]), h, delta_t, n_max)


def test_window_state_rejects_length_mismatch():
    # amplitudes must be a stack on the declared sector: C(5, 2) = 10 on 5 sites
    amps = _random_sector_state(2, 2, seed=5).amplitudes
    with pytest.raises(ConfigError):
        WindowState(amps[:, :-1], 5, 2)
    with pytest.raises(ConfigError):
        WindowState(np.zeros((1, 32), dtype=complex), 5, 2)  # full-space vector
    with pytest.raises(ConfigError):
        WindowState(amps, 5, 1)  # C(5, 1) = 5
    with pytest.raises(ConfigError):
        WindowState(np.zeros((1, 1), dtype=complex), 5, 6)
    with pytest.raises(ConfigError):
        WindowState(amps[0], 5, 2)  # a single state is a stack of one
    with pytest.raises(ConfigError):
        WindowState(np.zeros((2, 9), dtype=complex), 5, 2)  # stack rows too short
    with pytest.raises(ConfigError):
        WindowState(np.zeros((1, 2, 10), dtype=complex), 5, 2)


def test_evolve_and_measure_grid_inclusive():
    psi = _random_sector_state(1, 2, seed=1)
    h = build_hloc(1, 0.5)
    series = evolve_and_measure(psi, h, EvolverParams(1.0 / 3.0, 20, 3))
    assert series.shape == (1, 4)  # after 0, 1, 2 and 3 steps
    assert np.array_equal(series[:, 0], sz_center(psi))
    assert evolve_and_measure(psi, h, EvolverParams(1.0 / 3.0, 20, 0)).shape == (1, 1)


def test_evolver_params_reject_negative_step_count():
    # the span's step count is checked where a run derives it
    # (test_run_mc_validation); the window refuses only a negative count
    with pytest.raises(ConfigError, match="n_steps must be >= 0, got -1"):
        EvolverParams(1.0 / 3.0, 20, -1)
    for bad in (1.5, 2.0, True):
        with pytest.raises(ConfigError, match="n_steps must be an integer"):
            EvolverParams(1.0 / 3.0, 20, bad)
    # numpy scalars are kept as the Python numbers they were checked as
    typed = EvolverParams(np.float32(0.25), np.int64(20), np.uint8(3))
    assert typed == EvolverParams(0.25, 20, 3)
    assert [type(v) for v in (typed.delta_t, typed.n_max, typed.n_steps)] == [float, int, int]


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
    assert type(WindowSpec(l=np.int64(3)).l) is int and build_hloc(np.int8(3), 0.5).l == 3
    for l in (2.0, 2.5, True):  # a half-width is an integer
        for build in (lambda: WindowSpec(l=l), lambda: build_hloc(l, 0.5)):
            with pytest.raises(ConfigError, match="l must be an integer"):
                build()


def test_half_width_bound_is_the_memory_estimate():
    # checked through the estimate alone: no window of l >= 13 is built.
    # The largest sector of 2l+1 sites has C(2l+1, l) states, at most
    # dim + 4l C(2l-1, l-1) entries of 12 bytes, 20 bytes per state and
    # one chunk's temporaries; l = 12 fits the bound, l = 13 (3.6 GiB)
    # and l = 14 (14 GiB) do not
    assert sector_bytes(4) == 12 * (126 + 16 * 35) + 20 * 126 + 64 * 6 * 126
    assert sector_bytes(L_MAX) <= SECTOR_BYTES_MAX < sector_bytes(L_MAX + 1)
    assert L_MAX == 12
    for l in (L_MAX + 1, 14):
        with pytest.raises(ConfigError, match="GiB"):
            WindowSpec(l=l)
        with pytest.raises(ConfigError, match="GiB"):
            build_hloc(l, 0.5)


@pytest.mark.parametrize("l", [0, -3])
def test_half_width_below_one_is_not_a_memory_error(l):
    # the memory estimate explains only a window that is too wide
    for build in (lambda: WindowSpec(l=l), lambda: build_hloc(l, 0.5)):
        with pytest.raises(ConfigError) as err:
            build()
        assert str(err.value) == f"l must be >= 1, got {l}"
    with pytest.raises(ConfigError) as err:
        WindowSpec(l=L_MAX + 1)
    assert str(err.value).startswith(f"l must be <= {L_MAX}, got {L_MAX + 1}: ")
    assert "GiB" in str(err.value)


@pytest.mark.parametrize("l", [6, 8])
def test_sector_build_peak_is_within_the_estimate(l):
    # tracemalloc's peak over the build of the largest sector, its basis
    # included, stays within sector_bytes; at l = 8 the matrix is 3.0 MB
    # of the 5.9 MB estimate, and the build holds one chunk of
    # temporaries (a whole-sector build peaked at 17.3 MB). Below about
    # l = 4 fixed Python and scipy overheads of some 20 kB dominate.
    _sector_basis.cache_clear()
    h = build_hloc(l, 0.5)
    tracemalloc.start()
    try:
        basis, matrix = h.sector(l)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = basis.nbytes + matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    assert held <= peak <= sector_bytes(l)
    assert matrix.nnz <= basis.size + 4 * l * math.comb(2 * l - 1, l - 1)


@pytest.mark.parametrize("n_sites", [1, 5, 9, 12])
def test_sector_basis_lists_each_sector_in_order(n_sites):
    # against a filter of all 2^n configurations, for every up-spin count
    # and for counts no configuration has
    states = np.arange(1 << n_sites, dtype=np.int64)
    for n_up in range(-1, n_sites + 2):
        expected = states[np.bitwise_count(states) == n_up]
        basis = _sector_basis(n_sites, n_up)
        assert basis.dtype == expected.dtype and np.array_equal(basis, expected)


def test_sz_center_on_product_state():
    amps = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], dtype=complex)
    psi = WindowState(amps, 3, 1)
    assert list(psi.basis) == [0b001, 0b010, 0b100]  # down, up, down at 1
    assert sz_center(psi).tolist() == [0.5, -0.5]
    assert psi.n_sites == 3
