import math

import numpy as np
import pytest

import oracles
from oracles import (
    dense_window_amplitudes,
    enumerate_boundary_pairs,
    full_amplitudes,
    numpy_uniforms,
    per_group_walk_chunk,
    tail_walk,
)
from spinquench import sampler
from spinquench.checkpoint import load_checkpoint
from spinquench.errors import ConfigError, SamplingError
from spinquench.harness import sample_uniforms
from spinquench.itebd import DN, UP, QuenchConfig, evolve_to, expect_sz, neel_init
from spinquench.sampler import (
    WindowSpec,
    _branch_probabilities,
    assemble_window_stacks,
    assemble_window_state,
    boundary_spectrum,
    distinct_rows,
    pair_sector,
    sample_alpha,
    sample_spins_and_beta,
    semistochastic_split,
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
        (amps,) = full_amplitudes(psi)
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
        # the pair weight is lambda_alpha^2 times the raw window norm of
        # the dense route, and the enumerated state is the one the
        # sampling path assembles
        lam = spectrum.blocks[alpha[0]][alpha[1]]
        raw = dense_window_amplitudes(quench_state, spec, alpha, beta)
        assert pair_sector(spec, (*alpha, *beta)) == psi.total_sz_sector
        assert weight == pytest.approx(lam * lam * np.vdot(raw, raw).real, rel=1e-12)
        psi2 = assemble_window_state(quench_state, spec, (*alpha, *beta))
        assert psi2.amplitudes.shape == psi.amplitudes.shape == (1, psi.basis.size)
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
        pairs = _distinct(_draws(k128_state, spec, _uniforms(8, range(1000), l)))
        assert len(pairs) >= 15
        for pair in pairs:
            dense = dense_window_amplitudes(k128_state, spec, pair[:2], pair[2:])
            dense_psi = dense / np.linalg.norm(dense)
            psi = assemble_window_state(k128_state, spec, pair)
            assert np.max(np.abs(dense_psi - full_amplitudes(psi))) < 1e-10


def _draws(state, spec, u):
    """The batched walk's (q_alpha, i_alpha, q_beta, i_beta) rows for rows of 2l+3 uniforms, S empty."""
    split = semistochastic_split(state, spec)
    return sample_spins_and_beta(state, spec, sample_alpha(state, spec, u[:, 0], split), u[:, 1:], split)


def _distinct(rows):
    """The distinct rows, in order of first occurrence."""
    _rows, first = np.unique(rows, axis=0, return_index=True)
    return rows[np.sort(first)]


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
    assert np.array_equal(draws[0][0], draws[1][0])
    assert np.array_equal(draws[0][1], draws[1][1])


def test_sampled_pairs_have_positive_weight(quench_state):
    spec = WindowSpec(l=2)
    # enumeration yields exactly the pairs of positive weight
    weights = {
        (alpha, beta): weight
        for alpha, beta, weight, _psi in enumerate_boundary_pairs(quench_state, spec)
    }
    for pair in _draws(quench_state, spec, np.random.default_rng(5).random((20, 7))):
        qa, ia, qb, ib = pair.tolist()
        assert weights[((qa, ia), (qb, ib))] > 0.0
        assemble_window_state(quench_state, spec, pair)


@pytest.fixture(scope="module")
def k128_state(k128_t2):
    state, _config = load_checkpoint(k128_t2["checkpoint"])
    return state


@pytest.mark.parametrize("clearing", ["kept", "cleared-once", "small-budget", "no-memo"])
@pytest.mark.parametrize("l", [2, 4])
def test_memoized_walk_matches_fresh_walk(quench_state, k128_state, monkeypatch, l, clearing):
    # the batched walk computes each distinct prefix once per chunk; its
    # pairs are the ones the per-sample walk with S empty, which reuses
    # nothing, returns, whether the 500 samples go in one call, in two,
    # one at a time or in many small chunks. numpy_uniforms takes the
    # 2l+3 uniforms of a sample in one call and the reference one
    # rng.random() per draw, so both must read the same doubles and
    # leave the same stream behind
    state = quench_state if l == 2 else k128_state
    spec = WindowSpec(l=l)
    if clearing == "small-budget":
        monkeypatch.setattr(sampler, "WALK_MEMO_BYTES", 1 << 10)
        assert sampler._chunk_size(state) * 10 < 500
    u = _uniforms(11, range(500), l)
    if clearing == "kept":
        got = _draws(state, spec, u)
    elif clearing == "no-memo":
        got = np.concatenate([_draws(state, spec, row[None, :]) for row in u])
    else:
        cut = 250 if clearing == "cleared-once" else 500
        got = np.concatenate([_draws(state, spec, u[:cut]), _draws(state, spec, u[cut:])])
    split = semistochastic_split(state, spec)
    for sid, (qa, ia, qb, ib) in enumerate(got.tolist()):
        seed = np.random.SeedSequence((11, sid))
        ref = np.random.default_rng(seed)
        draws = [ref.random() for _ in range(2 * l + 3)]
        assert ((qa, ia), (qb, ib)) == tail_walk(state, spec, split, draws)
        assert ref.random() == np.random.default_rng(seed).random(2 * l + 4)[-1]
    assert 1 < len(_distinct(got)) < 500  # pairs and prefixes do repeat


@pytest.mark.parametrize("budget", ["default", "small"])
@pytest.mark.parametrize("l", [2, 4])
def test_batched_draws_match_trie_oracle(k16_t1, k128_t2, monkeypatch, l, budget):
    # the level-by-level walk over all samples returns, sample for
    # sample, the pair of the per-sample walk with S empty on the same
    # uniforms, also when a small budget splits the samples into many
    # chunks
    state, _config = load_checkpoint((k16_t1 if l == 2 else k128_t2)["checkpoint"])
    spec = WindowSpec(l=l)
    if budget == "small":
        monkeypatch.setattr(sampler, "WALK_MEMO_BYTES", 1 << 14)
        assert sampler._chunk_size(state) * 5 < 500
    u = _uniforms(3, range(500), l)
    got = _draws(state, spec, u)
    split = semistochastic_split(state, spec)
    pairs = [((qa, ia), (qb, ib)) for qa, ia, qb, ib in got.tolist()]
    assert pairs == [tail_walk(state, spec, split, row) for row in u]
    assert 1 < len(_distinct(got)) < 500


@pytest.fixture(scope="module")
def k128_t3_state(k128_t3):
    state, _config = load_checkpoint(k128_t3["checkpoint"])
    return state


@pytest.mark.parametrize("budget", ["default", "split"])
@pytest.mark.parametrize("l", range(1, 8))
def test_one_pass_walk_matches_per_group_pin(k128_state, k128_t3_state, monkeypatch, l, budget):
    # bit-exact pin: the one-pass level walk gives every sample the beta
    # of the walk that numbers kids one charge group and spin at a time,
    # on 2000 samples of two k=128 states at three seeds each, in one
    # chunk and in several; the last level's node rows, whose squared
    # moduli each chunk's beta draws read, match bit for bit and in order
    spec = WindowSpec(l=l)
    draw = sampler._draw_rows

    def recorded(log):
        def draw_rows(weights, rows, u):
            log.append(weights)
            return draw(weights, rows, u)
        return draw_rows

    for state in (k128_state, k128_t3_state):
        split = semistochastic_split(state, spec)
        if budget == "split":
            monkeypatch.setattr(sampler, "WALK_MEMO_BYTES", 3 * 16 * sampler._widest(state) * 450)
            assert 2000 // sampler._chunk_size(state) >= 4
        for seed in (7, 3, 3 * 2**32 + 5):
            u = sample_uniforms(seed, 2000, 2 * l + 3)
            alphas = sample_alpha(state, spec, u[:, 0], split)
            got_rows, want_rows = [], []
            with monkeypatch.context() as m:
                m.setattr(sampler, "_draw_rows", recorded(got_rows))
                got = sample_spins_and_beta(state, spec, alphas, u[:, 1:], split)
            with monkeypatch.context() as m:
                m.setattr(sampler, "_walk_chunk", per_group_walk_chunk)
                m.setattr(oracles, "_draw_rows", recorded(want_rows))
                want = sample_spins_and_beta(state, spec, alphas, u[:, 1:], split)
            assert got.dtype == np.int64 and got.shape == (2000, 4)
            assert np.array_equal(got[:, :2], alphas)
            assert np.array_equal(got[:, 2], want[:, 2]), (l, seed)
            assert np.array_equal(got[:, 3], want[:, 3]), (l, seed)
            assert len(got_rows) == len(want_rows) > 0
            for mine, theirs in zip(got_rows, want_rows):
                assert np.array_equal(mine, theirs), (l, seed)


def test_walk_memo_belongs_to_one_state_and_window(quench_state):
    # the walk's uniforms are laid out for one window: 2l+2 per sample
    # and one row per alpha
    spec = WindowSpec(l=2)
    u = np.random.default_rng(0).random((3, 7))
    split = semistochastic_split(quench_state, spec)
    alphas = sample_alpha(quench_state, spec, u[:, 0], split)
    with pytest.raises(ConfigError):
        sample_spins_and_beta(quench_state, WindowSpec(l=1), alphas, u[:, 1:], split)
    with pytest.raises(ConfigError):
        sample_spins_and_beta(quench_state, spec, alphas[:2], u[:, 1:], split)
    none = sample_spins_and_beta(quench_state, spec, alphas[:0], u[:0, 1:], split)
    assert none.shape == (0, 4) and none.dtype == np.int64


def _rows_by_id(stacks):
    """{id: amplitude row} of the (ids, WindowState, norms) stacks the assembler yields."""
    return {i: row for ids, psi, _norms in stacks for i, row in zip(ids.tolist(), psi.amplitudes)}


@pytest.mark.parametrize("budget", [0, 1 << 10, 1 << 14, None])
def test_sector_stacks_cut_each_sector_in_table_order(k128_state, monkeypatch, budget):
    # every row is in exactly one stack; a stack is one sector, the
    # sectors ascend, a sector's rows keep the table's order, and a stack
    # holds at most the budget (None: the default) of complex128
    # amplitudes, or one row
    if budget is not None:
        monkeypatch.setattr(sampler, "WALK_MEMO_BYTES", budget)
    budget = sampler.WALK_MEMO_BYTES
    spec = WindowSpec(l=3)
    pairs = _distinct(_draws(k128_state, spec, _uniforms(9, range(300), 3)))
    stacks = sampler.sector_stacks(spec, pairs)
    assert np.array_equal(np.sort(np.concatenate(stacks)), np.arange(len(pairs)))
    sectors = pair_sector(spec, pairs)
    n_ups = []
    for at in stacks:
        assert at.size >= 1 and np.unique(sectors[at]).size == 1
        n_ups.append(int(sectors[at[0]]))
        assert at.size == 1 or at.size * 16 * math.comb(2 * spec.l + 1, n_ups[-1]) <= budget
    assert n_ups == sorted(n_ups)
    for n_up in set(n_ups):
        rows = np.concatenate([at for at in stacks if sectors[at[0]] == n_up])
        assert np.array_equal(rows, np.flatnonzero(sectors == n_up))
    if budget > 1 << 14:
        assert len(set(n_ups)) == len(n_ups)  # each sector is one stack
    if budget == 1 << 10:
        assert len(set(n_ups)) < len(n_ups)  # some sector spans several stacks
    if budget == 0:
        assert len(stacks) == len(pairs)
    # the assembler yields those stacks, so every row once
    got = [ids for ids, _psi, _norms in assemble_window_stacks(k128_state, spec, pairs)]
    assert [ids.tolist() for ids in got] == [at.tolist() for at in stacks]


def test_empty_pair_table_has_no_stacks(quench_state):
    spec = WindowSpec(l=2)
    empty = np.empty((0, 4), dtype=np.int64)
    assert sampler.sector_stacks(spec, empty) == []
    assert list(assemble_window_stacks(quench_state, spec, empty)) == []


def test_pair_outside_the_window_sectors_rejected(quench_state):
    # a row whose sector is not one of 0..2l+1 has no stack height
    spec = WindowSpec(l=2)
    n_a = 3  # A sites (even) among -2..2
    for n_up in (-1, 2 * spec.l + 2):
        pair = np.array([[0, 0, n_up - n_a, 0]], dtype=np.int64)
        assert pair_sector(spec, pair) == n_up
        with pytest.raises(ConfigError, match="no sector"):
            sampler.sector_stacks(spec, pair)


#: (state fixture, l, budget, uniforms seed, samples, stack height) of
#: the stacked-assembly cases: the three budgets on 300 samples at l = 2
#: and l = 4, and every l of 1-7 on 400 samples of the k=128 state, at
#: the default budget and with none
ASSEMBLY_CASES = [
    pytest.param("quench_state" if l == 2 else "k128_state", l, clearing, 4, 300, 3,
                 id=f"{l}-{clearing}")
    for l in (2, 4) for clearing in ("kept", "cleared-once", "no-budget")
] + [
    pytest.param("k128_state", l, clearing, 6, 400, 7, id=f"{l}-{clearing}-400")
    for l in range(1, 8) for clearing in ("kept", "no-budget")
]


@pytest.mark.parametrize("name,l,clearing,seed,samples,height", ASSEMBLY_CASES)
def test_cached_assembly_matches_cache_free_assembly(
    request, monkeypatch, name, l, clearing, seed, samples, height
):
    # pairs assembled in stacks, whose boundary states' partials are
    # built once per batch and grown on a batch axis, are bit for bit
    # the pairs assembled each on its own and in sector_stacks' own
    # stacks when sector_stacks is cut to stacks of at most height rows:
    # in one batch; when the store starts over once in the middle of a
    # stack and a 1-byte budget meets each pair on its own; and with no
    # budget (one pair per batch)
    state = request.getfixturevalue(name)
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
    pairs = _distinct(_draws(state, spec, _uniforms(seed, range(samples), l)))
    assert len(pairs) > (10 if samples == 400 else 5)
    assert len(_distinct(pairs[:, :2])) < len(pairs)  # pairs share boundary states
    default = sampler.sector_stacks
    want = _rows_by_id(assemble_window_stacks(state, spec, pairs))

    def short_stacks(spec, pairs):
        return [at[lo:lo + height] for at in default(spec, pairs) for lo in range(0, at.size, height)]

    monkeypatch.setattr(sampler, "sector_stacks", short_stacks)
    got = list(assemble_window_stacks(state, spec, pairs))
    assert [ids.tolist() for ids, _psi, _norms in got] == [at.tolist() for at in short_stacks(spec, pairs)]
    have = _rows_by_id(got)
    assert sorted(have) == sorted(want) == list(range(len(pairs)))
    assert all(np.array_equal(have[i], want[i]) for i in want)
    for ids, psi, _norms in got:
        assert psi.amplitudes.shape[0] == len(ids)
        for pair, row in zip(pairs[ids], psi.amplitudes):
            alone = assemble_window_state(state, spec, pair)
            assert alone.total_sz_sector == psi.total_sz_sector == pair_sector(spec, pair)
            assert np.array_equal(row, alone.amplitudes[0]), (pair, l)
    expected = {"kept": 1, "cleared-once": 2, "no-budget": len(pairs)}[clearing]
    assert len(batches[0]) == expected


@pytest.mark.parametrize("budget", [0, 1 << 14, 1 << 16, 1 << 25])
def test_partial_batches_fit_the_budget(k128_state, monkeypatch, budget):
    # consecutive batches cover every pair once, and the partials a batch
    # holds, counted as built, stay within the budget unless the batch is
    # a single pair
    monkeypatch.setattr(sampler, "WALK_MEMO_BYTES", budget)
    spec = WindowSpec(l=3)
    pairs = _distinct(_draws(k128_state, spec, _uniforms(9, range(300), 3)))
    ends = sampler._partial_batches(k128_state, spec, pairs)
    assert ends[-1] == len(pairs) and ends == sorted(set(ends)) and ends[0] > 0
    lo = 0
    for hi in ends:
        held = sum(
            codes.nbytes + part.nbytes
            for right, cols in ((False, slice(0, 2)), (True, slice(2, 4)))
            for groups in sampler._partials(
                k128_state, spec, np.unique(pairs[lo:hi, cols], axis=0), right
            ).values()
            for codes, part in groups.values()
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


@pytest.mark.parametrize("l", [1, 2])
def test_enumerated_pairs_are_the_dense_nonzero_windows(k16_t1, l):
    # the enumeration's central-charge filter keeps exactly the boundary
    # pairs whose window the dense route, which knows nothing of
    # charges, finds nonzero, each pair once
    state, _config = load_checkpoint(k16_t1["checkpoint"])
    spec = WindowSpec(l=l)
    lefts, rights = (
        [(q, i) for q, d in lam.sector_dims.items() for i in range(d)]
        for lam in (boundary_spectrum(state, spec), state.bond(l))
    )
    nonzero = {
        (alpha, beta)
        for alpha in lefts
        for beta in rights
        if np.any(dense_window_amplitudes(state, spec, alpha, beta))
    }
    got = [(alpha, beta) for alpha, beta, _w, _psi in enumerate_boundary_pairs(state, spec)]
    assert len(got) == len(set(got))
    assert set(got) == nonzero
    assert len(nonzero) < len(lefts) * len(rights)  # the filter drops pairs


def test_boundary_spectrum_follows_sublattice_parity(quench_state):
    # bond between -l-1 and -l carries the lambda of site -l-1's sublattice
    assert boundary_spectrum(quench_state, WindowSpec(l=2)) is quench_state.lambda_b
    assert boundary_spectrum(quench_state, WindowSpec(l=1)) is quench_state.lambda_a
    # site(i) and bond(i), the bond right of i, at the window's edges and
    # centre: i = -l-1, -l, 0, l, l+1 are A (even) or B (odd) positions
    state = quench_state
    a, b = (state.a_a, state.lambda_a), (state.a_b, state.lambda_b)
    for l, roles in ((1, (a, b, a, b, a)), (2, (b, a, a, a, b))):
        for i, (tensors, bond) in zip((-l - 1, -l, 0, l, l + 1), roles):
            assert state.site(i) is tensors and state.bond(i) is bond
    # and the bond right of site l the other one, whose sectors are the
    # column sectors of site l's tensors
    for l, right in ((2, state.lambda_a), (1, state.lambda_b)):
        assert state.bond(l) is right
        tensors = state.site(l)
        assert right.sector_dims == {
            q + tensors.shifts[s]: block.shape[1]
            for s in (UP, DN)
            for q, block in tensors.spin(s).items()
        }


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
    with pytest.raises(ConfigError):
        assemble_window_state(quench_state, spec, (0, 0, q, dims[q] + 7))
    # so is a charge the right bond does not carry
    with pytest.raises(ConfigError):
        assemble_window_state(quench_state, spec, (0, 0, q + 1, 0))
    # an out-of-range left boundary index is a configuration error too,
    # on the assembly path and on the spin walk alike
    left = boundary_spectrum(quench_state, spec).sector_dims
    q = max(left)
    with pytest.raises(ConfigError):
        assemble_window_state(quench_state, spec, (q, left[q] + 7, 0, 0))
    with pytest.raises(ConfigError):
        sample_spins_and_beta(
            quench_state, spec, [(q, left[q] + 7)], np.zeros((1, 6)), semistochastic_split(quench_state, spec)
        )


@pytest.mark.parametrize(
    "pair", [(0, 0, 0), (0, 0, 0, 0, 0), [[0, 0, 0, 0]], (0.0, 0, 0, 0), np.ones(4, dtype=bool), "0000"],
    ids=["three", "five", "two-d", "float", "bool", "string"],
)
def test_one_pair_view_takes_four_integers(quench_state, pair):
    # the one-pair view's argument is one (q_alpha, i_alpha, q_beta, i_beta) row
    with pytest.raises(ConfigError, match="four integers"):
        assemble_window_state(quench_state, WindowSpec(l=2), pair)


@pytest.mark.parametrize("run", ["walk", "one-pair", "all-distinct", "mixed"])
def test_distinct_rows_ascend_and_invert(k128_t2, run):
    # the packed-key dedup gives the distinct rows in ascending
    # lexicographic order, each at its first occurrence, and an inverse
    # that gives the rows back, as np.unique over whole rows does: on
    # walk-drawn pairs, on samples that all hit one pair, on pairs that
    # are all distinct, and on pairs with charges of both signs
    rng = np.random.default_rng(17)
    if run == "walk":
        state, _config = load_checkpoint(k128_t2["checkpoint"])
        spec = WindowSpec(l=4)
        pairs = _draws(state, spec, sample_uniforms(7, 2000, 11))
    elif run == "one-pair":
        pairs = np.tile(np.array([-1, 3, 2, 0], dtype=np.int64), (500, 1))
    elif run == "all-distinct":
        pairs = np.column_stack([
            rng.integers(-3, 4, 400), rng.permutation(400), rng.integers(-3, 4, 400),
            rng.integers(0, 5, 400),
        ])
    else:
        pairs = rng.integers(-2, 3, size=(1000, 4))
    first, inverse = distinct_rows(pairs)
    distinct = pairs[first]
    assert np.array_equal(distinct[inverse], pairs)
    ref, ref_first, ref_inverse = np.unique(pairs, axis=0, return_index=True, return_inverse=True)
    assert np.array_equal(distinct, ref)
    assert np.array_equal(first, ref_first) and np.array_equal(inverse, ref_inverse.ravel())
    if run == "one-pair":
        assert len(first) == 1
    elif run == "all-distinct":
        assert len(first) == len(pairs)
    else:
        assert 1 < len(first) < len(pairs)
