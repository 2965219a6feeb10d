import numpy as np
import pytest

from oracles import (
    TrieWalk,
    dense_window_amplitudes,
    enumerate_boundary_pairs,
    fresh_walk,
    full_amplitudes,
    numpy_uniforms,
    per_pair_partials,
    per_pair_window_amplitudes,
    per_pair_window_state,
)
from spinquench import sampler
from spinquench.checkpoint import load_checkpoint
from spinquench.errors import ConfigError, SamplingError
from spinquench.itebd import QuenchConfig, evolve_to, expect_sz, neel_init
from spinquench.sampler import (
    BoundarySample,
    WindowSpec,
    _branch_probabilities,
    assemble_window_stacks,
    assemble_window_state,
    boundary_spectrum,
    pair_sector,
    sample_alpha,
    sample_spins_and_beta,
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
        n_up, raw = per_pair_window_amplitudes(quench_state, spec, alpha, beta)
        assert n_up == psi.total_sz_sector
        assert weight == pytest.approx(lam * lam * np.vdot(raw, raw).real, rel=1e-12)
        sample = BoundarySample(alpha=alpha, beta=beta)
        psi2 = assemble_window_state(quench_state, spec, sample)
        assert np.array_equal(psi.amplitudes, psi2.amplitudes)
        assert psi.total_sz_sector == psi2.total_sz_sector
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12
        assert weight <= lam * lam * (1.0 + 1e-12)


def test_blocked_assembly_matches_dense_route(quench_state, k128_state):
    # same window, two assembly routes: per-sector blocks versus one dense
    # matrix per site with the grading forgotten; every pair of a small
    # state, then pairs the walk draws on a k=128 state at odd and even
    # l, where the boundaries sit on different sublattices and several
    # charges meet at each level
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
    for l in (3, 4):
        spec = WindowSpec(l=l)
        pairs = set(_draws(k128_state, spec, _uniforms(8, range(1000), l)))
        assert len(pairs) >= 15
        for pair in pairs:
            dense = dense_window_amplitudes(k128_state, spec, pair.alpha, pair.beta)
            dense_psi = dense / np.linalg.norm(dense)
            psi = assemble_window_state(k128_state, spec, pair)
            assert np.max(np.abs(dense_psi - full_amplitudes(psi))) < 1e-10


def _draws(state, spec, u):
    """The batched walk's boundary pairs for rows of 2l+3 uniforms."""
    return sample_spins_and_beta(state, spec, sample_alpha(state, spec, u[:, 0]), u[:, 1:])


def _uniforms(master_seed, sample_ids, l):
    return np.array([numpy_uniforms(master_seed, sid, 2 * l + 3) for sid in sample_ids])


def test_sampling_is_deterministic_per_seed(quench_state):
    spec = WindowSpec(l=2)
    draws = []
    for _ in range(2):
        u = np.random.default_rng(1234).random((5, 7))
        pairs = _draws(quench_state, spec, u)
        psi = assemble_window_state(quench_state, spec, pairs[0])
        draws.append((pairs, psi.amplitudes.copy()))
    assert draws[0][0] == draws[1][0]
    assert np.array_equal(draws[0][1], draws[1][1])


def test_sampled_pairs_have_positive_weight(quench_state):
    spec = WindowSpec(l=2)
    # enumeration yields exactly the pairs of positive weight
    weights = {
        (alpha, beta): weight
        for alpha, beta, weight, _psi in enumerate_boundary_pairs(quench_state, spec)
    }
    for sample in _draws(quench_state, spec, np.random.default_rng(5).random((20, 7))):
        assert weights[(sample.alpha, sample.beta)] > 0.0
        assemble_window_state(quench_state, spec, sample)


@pytest.fixture(scope="module")
def k128_state(k128_t2):
    state, _config = load_checkpoint(k128_t2["checkpoint"])
    return state


@pytest.mark.parametrize("clearing", ["kept", "cleared-once", "small-budget", "no-memo"])
@pytest.mark.parametrize("l", [2, 4])
def test_memoized_walk_matches_fresh_walk(quench_state, k128_state, monkeypatch, l, clearing):
    # the batched walk computes each distinct prefix once per chunk; its
    # pairs are the ones a walk with no reuse returns, whether the 500
    # samples go in one call, in two, one at a time or in many small
    # chunks. numpy_uniforms takes the 2l+3 uniforms of a sample in
    # one call and the reference one rng.random() per draw, so both must
    # read the same doubles and leave the same stream behind
    state = quench_state if l == 2 else k128_state
    spec = WindowSpec(l=l)
    if clearing == "small-budget":
        monkeypatch.setattr(sampler, "WALK_MEMO_BYTES", 1 << 10)
        assert sampler._chunk_size(state) * 10 < 500
    u = _uniforms(11, range(500), l)
    if clearing == "kept":
        got = _draws(state, spec, u)
    elif clearing == "no-memo":
        got = [pair for row in u for pair in _draws(state, spec, row[None, :])]
    else:
        cut = 250 if clearing == "cleared-once" else 500
        got = _draws(state, spec, u[:cut]) + _draws(state, spec, u[cut:])
    for sid, pair in enumerate(got):
        seed = np.random.SeedSequence((11, sid))
        ref = np.random.default_rng(seed)
        assert (pair.alpha, pair.beta) == fresh_walk(state, spec, ref)
        assert ref.random() == np.random.default_rng(seed).random(2 * l + 4)[-1]
    assert 1 < len(set(got)) < 500  # pairs and prefixes do repeat


@pytest.mark.parametrize("budget", ["default", "small"])
@pytest.mark.parametrize("l", [2, 4])
def test_batched_draws_match_trie_oracle(k16_t1, k128_t2, monkeypatch, l, budget):
    # the level-by-level walk over all samples returns, sample for
    # sample, the pair of the per-sample trie walk on the same uniforms,
    # also when a small budget splits the samples into many chunks
    state, _config = load_checkpoint((k16_t1 if l == 2 else k128_t2)["checkpoint"])
    spec = WindowSpec(l=l)
    if budget == "small":
        monkeypatch.setattr(sampler, "WALK_MEMO_BYTES", 1 << 14)
        assert sampler._chunk_size(state) * 5 < 500
    u = _uniforms(3, range(500), l)
    got = _draws(state, spec, u)
    trie = TrieWalk(state, spec)
    assert [(p.alpha, p.beta) for p in got] == [trie.draw(row) for row in u]
    assert 1 < len(set(got)) < 500


def test_walk_memo_belongs_to_one_state_and_window(quench_state):
    # the walk's uniforms are laid out for one window: 2l+2 per sample
    # and one row per alpha
    spec = WindowSpec(l=2)
    u = np.random.default_rng(0).random((3, 7))
    alphas = sample_alpha(quench_state, spec, u[:, 0])
    with pytest.raises(ConfigError):
        sample_spins_and_beta(quench_state, WindowSpec(l=1), alphas, u[:, 1:])
    with pytest.raises(ConfigError):
        sample_spins_and_beta(quench_state, spec, alphas[:2], u[:, 1:])
    assert sample_spins_and_beta(quench_state, spec, alphas[:0], u[:0, 1:]) == []


def _sector_stacks(spec, pairs, height):
    """The pairs as (n_up, pairs) stacks of at most height rows, sector by sector."""
    by_sector = {}
    for pair in pairs:
        by_sector.setdefault(pair_sector(spec, pair.alpha, pair.beta), []).append(pair)
    return [
        (n_up, group[lo:lo + height])
        for n_up, group in by_sector.items()
        for lo in range(0, len(group), height)
    ]


@pytest.mark.parametrize("clearing", ["kept", "cleared-once", "no-budget"])
@pytest.mark.parametrize("l", [2, 4])
def test_cached_assembly_matches_cache_free_assembly(
    quench_state, k128_state, monkeypatch, l, clearing
):
    # pairs assembled in stacks, whose boundary states' partials are
    # built once per batch, are bit for bit the pairs assembled each on
    # its own: in one batch; when the store starts over once in the
    # middle of a stack and a 1-byte budget meets each pair on its own;
    # and with no budget (one pair per batch)
    state = quench_state if l == 2 else k128_state
    spec = WindowSpec(l=l)
    if clearing != "kept":
        monkeypatch.setattr(sampler, "WALK_MEMO_BYTES", 0 if clearing == "no-budget" else 1)
    split, batches = sampler._partial_batches, []

    def recorded_split(state, spec, pairs):
        ends = split(state, spec, pairs)
        if clearing == "cleared-once" and len(pairs) > 1:
            ends = [len(pairs) // 2 + 1, len(pairs)]
        batches.append(ends)
        return ends

    monkeypatch.setattr(sampler, "_partial_batches", recorded_split)
    pairs = list(dict.fromkeys(_draws(state, spec, _uniforms(4, range(300), l))))
    assert len({p.alpha for p in pairs}) < len(pairs)  # pairs share boundary states
    stacks = _sector_stacks(spec, pairs, 3)
    got = list(assemble_window_stacks(state, spec, stacks))
    assert len(got) == len(stacks)
    for (n_up, stack), psi in zip(stacks, got):
        assert psi.total_sz_sector == n_up
        assert psi.amplitudes.shape[0] == len(stack)
        for pair, row in zip(stack, psi.amplitudes):
            alone = assemble_window_state(state, spec, pair)
            assert alone.total_sz_sector == n_up
            assert np.array_equal(row, alone.amplitudes)
    expected = {"kept": 1, "cleared-once": 2, "no-budget": len(pairs)}[clearing]
    assert len(batches[0]) == expected


@pytest.mark.parametrize("budget", ["default", "none"])
@pytest.mark.parametrize("l", range(1, 8))
def test_stack_assembly_matches_per_pair_oracle(k128_state, monkeypatch, l, budget):
    # bit-exact pin: the batch-axis partials and the batched meet give
    # every walk-drawn pair of the k=128 state the bits of the per-pair
    # route, partials and meet one pair at a time as 2-D products
    spec = WindowSpec(l=l)
    if budget == "none":
        monkeypatch.setattr(sampler, "WALK_MEMO_BYTES", 0)
    pairs = list(dict.fromkeys(_draws(k128_state, spec, _uniforms(6, range(400), l))))
    assert len(pairs) > 10
    stacks = _sector_stacks(spec, pairs, 7)
    for (n_up, stack), psi in zip(stacks, assemble_window_stacks(k128_state, spec, stacks)):
        for pair, row in zip(stack, psi.amplitudes):
            ref = per_pair_window_state(k128_state, spec, pair)
            assert ref.total_sz_sector == n_up
            assert np.array_equal(row, ref.amplitudes), (pair, l)
    psi = assemble_window_state(k128_state, spec, pairs[0])
    assert np.array_equal(psi.amplitudes, per_pair_window_state(k128_state, spec, pairs[0]).amplitudes)


@pytest.mark.parametrize("budget", [0, 1 << 14, 1 << 16, 1 << 25])
def test_partial_batches_fit_the_budget(k128_state, monkeypatch, budget):
    # consecutive batches cover every pair once, and the partials a batch
    # holds, counted as built, stay within the budget unless the batch is
    # a single pair
    monkeypatch.setattr(sampler, "WALK_MEMO_BYTES", budget)
    spec = WindowSpec(l=3)
    pairs = list(dict.fromkeys(_draws(k128_state, spec, _uniforms(9, range(300), 3))))
    rows = np.array([(*p.alpha, *p.beta) for p in pairs])
    ends = sampler._partial_batches(k128_state, spec, rows)
    assert ends[-1] == len(pairs) and ends == sorted(set(ends)) and ends[0] > 0
    lo = 0
    for hi in ends:
        held = sum(
            codes.nbytes + part.nbytes
            for side, boundaries in ((False, {p.alpha for p in pairs[lo:hi]}),
                                     (True, {p.beta for p in pairs[lo:hi]}))
            for b in boundaries
            for codes, part in per_pair_partials(k128_state, spec, b, side).values()
        )
        assert held <= budget or hi - lo == 1
        lo = hi
    if budget == 0:
        assert len(ends) == len(pairs)
    if budget == 1 << 25:
        assert len(ends) == 1


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
    # and the bond right of site l the other one, whose sectors are the
    # column sectors of site l's tensors
    for l, right in ((2, quench_state.lambda_a), (1, quench_state.lambda_b)):
        assert sampler._bond_spectrum(quench_state, l) is right
        tensors = sampler.site_tensors(quench_state, l)
        assert right.sector_dims == {**tensors[0].col_dims, **tensors[1].col_dims}


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
    dims = quench_state.lambda_a.sector_dims  # the bond right of site 2
    q = max(dims)
    bad = BoundarySample(alpha=(0, 0), beta=(q, dims[q] + 7))
    with pytest.raises(ConfigError):
        assemble_window_state(quench_state, spec, bad)
    # so is a charge the right bond does not carry
    bad = BoundarySample(alpha=(0, 0), beta=(q + 1, 0))
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
        sample_spins_and_beta(quench_state, spec, [bad.alpha], np.zeros((1, 6)))
