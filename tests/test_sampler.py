import math

import numpy as np
import pytest

from oracles import dense_window_amplitudes, full_amplitudes
from spinquench import sampler
from spinquench.checkpoint import load_checkpoint
from spinquench.errors import ConfigError, SamplingError
from spinquench.itebd import DN, UP, QuenchConfig, evolve_to, expect_sz, neel_init
from spinquench.sampler import (
    BoundarySample,
    PartialCache,
    WalkMemo,
    WindowSpec,
    _branch_probabilities,
    _raw_window_amplitudes,
    assemble_window_state,
    boundary_spectrum,
    enumerate_boundary_pairs,
    right_boundary_dims,
    sample_alpha,
    sample_spins_and_beta,
    site_shifts,
    site_tensors,
)


@pytest.fixture(scope="module")
def quench_state():
    config = QuenchConfig(delta=0.5, dt=0.0625, k_max=16)
    return evolve_to(neel_init(), 1.0, config)


@pytest.mark.parametrize("l", [1, 2])
def test_exhaustive_pair_sum_reproduces_direct_observable(quench_state, l):
    # summing weight * <Sz_0> over every boundary pair must reproduce the
    # infinite-chain observable exactly: the decomposition is an identity
    spec = WindowSpec(l=l)
    total_weight = 0.0
    acc = 0.0
    for _alpha, _beta, weight, psi in enumerate_boundary_pairs(quench_state, spec):
        amps = full_amplitudes(psi)
        bit = (np.arange(amps.size) >> l) & 1
        sz0 = float(np.abs(amps) ** 2 @ (bit - 0.5))
        acc += weight * sz0
        total_weight += weight
    direct = expect_sz(quench_state, "A")
    assert abs(total_weight - 1.0) < 1e-10
    assert abs(acc - direct) < 1e-10


def test_window_weight_matches_assembled_state(quench_state):
    spec = WindowSpec(l=2)
    pairs = list(enumerate_boundary_pairs(quench_state, spec))
    assert pairs
    spectrum = boundary_spectrum(quench_state, spec)
    for alpha, beta, weight, psi in pairs[:10]:
        # the pair weight is lambda_alpha^2 times the raw window norm, and
        # the enumerated state is the one the sampling path assembles
        lam = spectrum.blocks[alpha[0]][alpha[1]]
        n_up, raw = _raw_window_amplitudes(quench_state, spec, alpha, beta)
        assert n_up == psi.total_sz_sector
        assert weight == pytest.approx(lam * lam * np.vdot(raw, raw).real, rel=1e-12)
        sample = BoundarySample(alpha=alpha, beta=beta)
        psi2 = assemble_window_state(quench_state, spec, sample)
        assert np.array_equal(psi.amplitudes, psi2.amplitudes)
        assert psi.total_sz_sector == psi2.total_sz_sector
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12
        assert weight <= lam * lam * (1.0 + 1e-12)


def test_blocked_assembly_matches_dense_route(quench_state):
    # same window, two assembly routes: per-sector blocks versus one dense
    # matrix per site with the grading forgotten
    spec = WindowSpec(l=2)
    spectrum = boundary_spectrum(quench_state, spec)
    checked = 0
    for alpha, beta, weight, psi in enumerate_boundary_pairs(quench_state, spec):
        dense = dense_window_amplitudes(quench_state, spec, alpha, beta)
        lam = spectrum.blocks[alpha[0]][alpha[1]]
        dense_weight = float(lam * lam) * float(np.vdot(dense, dense).real)
        assert abs(dense_weight - weight) < 1e-10
        dense_psi = dense / np.linalg.norm(dense)
        assert np.max(np.abs(dense_psi - full_amplitudes(psi))) < 1e-10
        checked += 1
    assert checked > 10


def test_sampling_is_deterministic_per_seed(quench_state):
    spec = WindowSpec(l=2)
    draws = []
    for _ in range(2):
        rng = np.random.default_rng(1234)
        alpha = sample_alpha(quench_state, spec, rng)
        sample = sample_spins_and_beta(quench_state, spec, alpha, rng)
        psi = assemble_window_state(quench_state, spec, sample)
        draws.append((alpha, sample.beta, psi.amplitudes.copy()))
    assert draws[0][0] == draws[1][0]
    assert draws[0][1] == draws[1][1]
    assert np.array_equal(draws[0][2], draws[1][2])


def test_sampled_pairs_have_positive_weight(quench_state):
    spec = WindowSpec(l=2)
    # enumeration yields exactly the pairs of positive weight
    weights = {
        (alpha, beta): weight
        for alpha, beta, weight, _psi in enumerate_boundary_pairs(quench_state, spec)
    }
    rng = np.random.default_rng(5)
    for _ in range(20):
        alpha = sample_alpha(quench_state, spec, rng)
        sample = sample_spins_and_beta(quench_state, spec, alpha, rng)
        assert weights[(sample.alpha, sample.beta)] > 0.0
        assemble_window_state(quench_state, spec, sample)


def _fresh_walk(state, spec, rng):
    """(alpha, beta) drawn with no memo: every conditional computed anew."""
    spectrum = boundary_spectrum(state, spec)
    r = rng.random() * spectrum.weights.sum()
    k = int(np.searchsorted(np.cumsum(spectrum.weights), r, side="right"))
    q, _w, i = spectrum.entries[min(k, spectrum.weights.size - 1)]
    alpha = (q, i)
    vec = np.zeros(spectrum.sector_dims[q], dtype=complex)
    vec[i] = 1.0
    for site in range(-spec.l, spec.l + 1):
        tensors, shifts = site_tensors(state, site), site_shifts(site)
        cands, norms = {}, {}
        for s in (UP, DN):
            block = tensors[s].block(q)
            cands[s] = None if block is None else (q + shifts[s], vec @ block)
            norms[s] = 0.0 if block is None else float(np.vdot(cands[s][1], cands[s][1]).real)
        p_up, _p_dn = _branch_probabilities(norms[UP], norms[DN])
        pick = UP if rng.random() < p_up else DN
        q, vec = cands[pick]
        vec = vec * (1.0 / math.sqrt(norms[pick]))
    probs = np.abs(vec) ** 2
    r = rng.random() * probs.sum()
    k = int(np.searchsorted(np.cumsum(probs), r, side="right"))
    return alpha, (q, min(k, probs.size - 1))


@pytest.fixture(scope="module")
def k128_state(k128_t2):
    state, _config = load_checkpoint(k128_t2["checkpoint"])
    return state


@pytest.mark.parametrize("clearing", ["kept", "cleared-once", "small-budget", "no-memo"])
@pytest.mark.parametrize("l", [2, 4])
def test_memoized_walk_matches_fresh_walk(quench_state, k128_state, monkeypatch, l, clearing):
    # a block's draws through one memo are the pairs a memo-free walk
    # returns, also when the memo is dropped part-way through the block;
    # the walk takes its 2l+1 spin uniforms and the beta uniform in one
    # rng.random(2l+2) call, and the reference one rng.random() per draw,
    # so both must also leave the generator in the same state
    state = quench_state if l == 2 else k128_state
    spec = WindowSpec(l=l)
    if clearing == "small-budget":
        monkeypatch.setattr(sampler, "WALK_MEMO_BYTES", 1 << 10)
    memo = WalkMemo(state, spec)
    distinct, resets = set(), 0
    for sid in range(500):
        before = memo.n_bytes
        if clearing == "cleared-once" and sid == 250:
            memo.clear()
        seed = np.random.SeedSequence((11, sid))
        rng = np.random.default_rng(seed)
        used = None if clearing == "no-memo" else memo
        alpha = sample_alpha(state, spec, rng, used)
        got = sample_spins_and_beta(state, spec, alpha, rng, used)
        ref = np.random.default_rng(seed)
        assert (got.alpha, got.beta) == _fresh_walk(state, spec, ref)
        assert rng.random() == ref.random()
        distinct.add(got)
        resets += memo.n_bytes < before
    assert 1 < len(distinct) < 500  # pairs and prefixes do repeat
    if clearing == "small-budget":
        assert resets > 10
    else:
        assert resets == (clearing == "cleared-once")


def test_walk_memo_belongs_to_one_state_and_window(quench_state):
    memo = WalkMemo(quench_state, WindowSpec(l=2))
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        sample_alpha(quench_state, WindowSpec(l=1), rng, memo)
    with pytest.raises(ConfigError):
        sample_spins_and_beta(quench_state, WindowSpec(l=1), (0, 0), rng, memo)
    cache = PartialCache(quench_state, WindowSpec(l=2))
    with pytest.raises(ConfigError):
        assemble_window_state(quench_state, WindowSpec(l=1), BoundarySample((0, 0), (0, 0)), cache)


@pytest.mark.parametrize("clearing", ["kept", "cleared-once", "no-budget"])
@pytest.mark.parametrize("l", [2, 4])
def test_cached_assembly_matches_cache_free_assembly(
    quench_state, k128_state, monkeypatch, l, clearing
):
    # pairs assembled through one shared PartialCache are bit for bit the
    # pairs assembled each on its own, also when the cache starts over
    state = quench_state if l == 2 else k128_state
    spec = WindowSpec(l=l)
    if clearing == "no-budget":
        monkeypatch.setattr(sampler, "WALK_MEMO_BYTES", 0)
    memo = WalkMemo(state, spec)
    pairs = []
    for sid in range(300):
        rng = np.random.default_rng(np.random.SeedSequence((4, sid)))
        pairs.append(sample_spins_and_beta(state, spec, sample_alpha(state, spec, rng, memo), rng, memo))
    pairs = list(dict.fromkeys(pairs))
    alphas = {p.alpha for p in pairs}
    assert len(alphas) < len(pairs)  # pairs share boundary states
    cache = PartialCache(state, spec)
    resets = []
    clear = cache.clear
    cache.clear = lambda: (resets.append(1), clear())
    for j, pair in enumerate(pairs):
        if clearing == "cleared-once" and j == len(pairs) // 2:
            cache.clear()
        got = assemble_window_state(state, spec, pair, cache)
        ref = assemble_window_state(state, spec, pair)
        assert got.total_sz_sector == ref.total_sz_sector
        assert np.array_equal(got.amplitudes, ref.amplitudes)
    if clearing == "no-budget":
        assert len(resets) == len(pairs) - 1
    else:
        assert len(resets) == (clearing == "cleared-once")


def test_window_states_live_in_one_sector(quench_state):
    # the dense route, which knows nothing of charges, must put all of a
    # pair's weight in the sector the blocked route stores the state on
    for l in (1, 2):
        spec = WindowSpec(l=l)
        sectors = set()
        for alpha, beta, _w, psi in enumerate_boundary_pairs(quench_state, spec):
            dense = dense_window_amplitudes(quench_state, spec, alpha, beta)
            n_up = np.bitwise_count(np.arange(dense.size, dtype=np.int64))
            support = np.unique(n_up[np.abs(dense) > 0])
            assert support.tolist() == [psi.total_sz_sector]
            sectors.add(psi.total_sz_sector)
        # different boundary pairs do reach different sectors
        assert len(sectors) > 1


def test_boundary_spectrum_follows_sublattice_parity(quench_state):
    # bond between -l-1 and -l carries the lambda of site -l-1's sublattice
    assert boundary_spectrum(quench_state, WindowSpec(l=2)) is quench_state.lambda_b
    assert boundary_spectrum(quench_state, WindowSpec(l=1)) is quench_state.lambda_a


def test_window_spec_validation():
    with pytest.raises(ConfigError):
        WindowSpec(l=0)
    with pytest.raises(ConfigError):
        WindowSpec(l=99)


def test_branch_probabilities():
    p_up, p_dn = _branch_probabilities(3.0, 1.0)
    assert p_up == pytest.approx(0.75)
    assert p_dn == pytest.approx(0.25)
    # sub-floor branch is treated as exactly dead
    p_up, p_dn = _branch_probabilities(1.0, 1e-40)
    assert (p_up, p_dn) == (1.0, 0.0)
    with pytest.raises(SamplingError):
        _branch_probabilities(0.0, 0.0)


def test_unknown_right_boundary_index_rejected(quench_state):
    spec = WindowSpec(l=2)
    dims = right_boundary_dims(quench_state, spec)
    q = max(dims)
    bad = BoundarySample(alpha=(0, 0), beta=(q, dims[q] + 7))
    with pytest.raises(ConfigError):
        assemble_window_state(quench_state, spec, bad)
    # an out-of-range left boundary index is a configuration error too,
    # on the assembly path and on the spin walk alike
    left = boundary_spectrum(quench_state, spec).sector_dims
    q = max(left)
    bad = BoundarySample(alpha=(q, left[q] + 7), beta=(0, 0))
    with pytest.raises(ConfigError):
        assemble_window_state(quench_state, spec, bad)
    with pytest.raises(ConfigError):
        sample_spins_and_beta(quench_state, spec, bad.alpha, np.random.default_rng(0))
