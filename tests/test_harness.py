import math
import os
import threading

import numpy as np
import pytest

from spinquench import harness, sampler, threads
from spinquench.checkpoint import load_checkpoint
from spinquench.errors import ConfigError, step_count
from spinquench.harness import (
    PROFILES,
    AggregateCurve,
    PeakSeries,
    extract_peaks,
    git_blob_sha1,
    read_aggregate_curve,
    read_table,
    run_itebd,
    run_mc,
    sample_uniforms,
    shift_correction,
    write_peaks,
    write_table,
)
from spinquench.itebd import QuenchConfig, expect_sz
from spinquench.sampler import (
    WindowSpec,
    assemble_window_state,
    pair_sector,
    sample_alpha,
    sample_spins_and_beta,
    semistochastic_split,
)
from spinquench.threads import usable_cpus
from spinquench.window import L_MAX, EvolverParams, build_hloc, evolve_and_measure


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("short_run")
    config = QuenchConfig(delta=0.5, dt=0.0625, k_max=16, t_init=1.0)
    chk = base / "state.mpsc1"
    curve = base / "curve.csv"
    rc = run_itebd(config, chk, curve)
    assert rc == 0
    return {"config": config, "checkpoint": chk, "curve": curve}


@pytest.fixture
def queued_rounds(one_blas_thread, monkeypatch):
    """Round two may be queued for helpers on 3 faked CPUs; returns the rounds that were.

    Each queue opened with helpers is recorded as (threads it may use,
    this one included, names of the threads its items ran on, in start
    order). This thread holds its first item until a helper has started
    one, so a helper runs part of every recorded round.
    """
    rounds, queue, caller = [], threads.queue, threading.current_thread()

    def recorded(work, most=None):
        if not queue(work, most).n_helpers:
            return queue(work, most)
        names, helped = [], threading.Event()

        def watched(item):
            names.append(threading.current_thread().name)
            if threading.current_thread() is caller:
                assert helped.wait(10)
            else:
                helped.set()
            return work(item)

        dealt = queue(watched, most)
        rounds.append((dealt.n_helpers + 1, names))
        return dealt

    monkeypatch.setattr(threads, "usable_cpus", lambda: 3)
    monkeypatch.setattr(threads, "queue", recorded)
    return rounds


def test_run_itebd_curve_layout(short_run):
    meta, cols = read_table(short_run["curve"])
    assert list(cols) == ["t", "sz0", "sz1", "discarded_weight", "entropy_A", "entropy_B"]
    assert cols["t"][0] == 0.0
    assert cols["sz0"][0] == 0.5
    assert cols["sz1"][0] == -0.5
    assert cols["t"].size == 17  # t=0 plus 16 steps of dt=1/16
    assert np.allclose(np.diff(cols["t"]), 0.0625)
    assert meta["delta"] == 0.5
    assert meta["k_max"] == 16
    assert meta["checkpoint"] == git_blob_sha1(short_run["checkpoint"])
    # staggered moment decays but stays positive this early
    assert 0.0 < cols["sz0"][-1] < 0.5
    assert np.all(cols["entropy_A"][1:] > 0.0)


def test_run_itebd_checkpoint_matches_curve_tail(short_run):
    state, config = load_checkpoint(short_run["checkpoint"])
    _meta, cols = read_table(short_run["curve"])
    assert state.time == pytest.approx(1.0)
    assert expect_sz(state, "A") == pytest.approx(cols["sz0"][-1], abs=1e-12)
    assert config.k_max == 16


def test_run_itebd_is_reproducible(tmp_path):
    # two runs with the same arguments write the same bytes
    config = QuenchConfig(delta=0.5, dt=0.0625, k_max=16, t_init=0.5)
    outputs = []
    for run in ("a", "b"):
        chk, curve = tmp_path / f"{run}.mpsc1", tmp_path / f"{run}.csv"
        assert run_itebd(config, chk, curve) == 0
        outputs.append((chk.read_bytes(), curve.read_bytes()))
    assert outputs[0] == outputs[1]


def test_write_read_table_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    meta = {"b": 2, "a": [1, 2], "name": "x"}
    rows = [("1.5", "-0.25"), ("2.5", "0.125")]
    write_table(path, meta, ("t", "v"), rows)
    text = path.read_text()
    assert text.startswith('# {"a":[1,2],"b":2,"name":"x"}\n')
    assert text.endswith("\n")
    meta_back, cols = read_table(path)
    assert meta_back == {"a": [1, 2], "b": 2, "name": "x"}
    assert np.array_equal(cols["t"], [1.5, 2.5])
    assert np.array_equal(cols["v"], [-0.25, 0.125])


def test_read_table_parses_n_samples_as_int(tmp_path):
    path = tmp_path / "n.csv"
    write_table(path, {}, ("t", "n_samples"), [("1.0", "40000"), ("2.0", "40000")])
    _meta, cols = read_table(path)
    assert cols["n_samples"].dtype.kind == "i"
    assert cols["n_samples"].tolist() == [40000, 40000]
    assert cols["t"].dtype == np.float64
    write_table(path, {}, ("t", "n_samples"), [("1.0", "1.5")])
    with pytest.raises(ConfigError, match=r"n\.csv:3:"):
        read_table(path)


@pytest.mark.parametrize(
    "bad_row", [("2.0", "0.1"), ("2.0", "0.1", "0.01", "5", "9")], ids=["short", "long"]
)
def test_read_table_rejects_ragged_rows(tmp_path, bad_row):
    # a row that does not match the header must not shift or drop fields
    path = tmp_path / "ragged.csv"
    rows = [("1.0", "0.2", "0.01", "5"), bad_row, ("3.0", "0.3", "0.01", "5")]
    write_table(path, {}, ("t", "mean_sz0", "stderr", "n_samples"), rows)
    with pytest.raises(ConfigError, match=rf"ragged\.csv:4: {len(bad_row)} fields"):
        read_table(path)
    with pytest.raises(ConfigError, match=r"ragged\.csv:4:"):
        read_aggregate_curve(path)


@pytest.mark.parametrize("first", ["# {bad\n", "# [1, 2]\n"], ids=["not-json", "not-object"])
def test_read_table_rejects_bad_metadata(tmp_path, first):
    path = tmp_path / "meta.csv"
    path.write_text(first + "t,mean_sz0,stderr,n_samples\n1.0,0.2,0.01,5\n")
    with pytest.raises(ConfigError, match=r"meta\.csv: metadata"):
        read_table(path)
    with pytest.raises(ConfigError, match=r"meta\.csv: metadata"):
        read_aggregate_curve(path)


@pytest.mark.parametrize("master_seed", [0, 2**32 - 1, 2**32, 2**64 - 1])
def test_sample_uniforms_are_rows_of_one_stream(master_seed):
    # seeds of one and two 32-bit words: the rows are one default_rng's
    # doubles in row-major order, a shorter run draws the first rows of
    # a longer one, and sample_one is a one-row view of the stream
    n_samples, n = 300, 2 * L_MAX + 3
    u = sample_uniforms(master_seed, n_samples, n)
    rng = np.random.default_rng(master_seed)
    assert np.array_equal(u, np.array([rng.random(n) for _ in range(n_samples)]))
    assert np.array_equal(sample_uniforms(master_seed, 17, n), u[:17])
    for row in (0, 1, n_samples - 1):
        assert np.array_equal(harness.sample_one(master_seed, row, n), u[row])


@pytest.mark.parametrize("sample_id", [-1, -2, 1.0, True])
def test_sample_one_refuses_a_sample_id_that_is_not_a_row(sample_id):
    with pytest.raises(ConfigError, match="sample_id"):
        harness.sample_one(7, sample_id, 5)


def test_run_mc_identical_across_worker_counts(
    short_run, tmp_path, monkeypatch, queued_rounds
):
    monkeypatch.setattr(harness, "SHARE_WORK", 0)
    kw = dict(
        checkpoint=short_run["checkpoint"],
        l=2,
        t_fin=1.0 + 2.0 / 3.0,
        delta_t=1.0 / 3.0,
        n_max=20,
        n_samples=60,
        master_seed=7,
    )
    outs = []
    for workers in (1, 2, 3):
        outs.append(tmp_path / f"w{workers}.csv")
        run_mc(n_workers=workers, out=outs[-1], **kw)
    # --workers 2 and 3 queue round two for 2 and 3 threads
    assert [n_threads for n_threads, _names in queued_rounds] == [2, 3]
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
    _meta, cols = read_table(outs[0])
    assert cols["n_samples"].tolist() == [60] * 3


def _fresh_rows(checkpoint, l, t_fin, master_seed, n_samples):
    """(pairs, value rows) sampled one by one, with no reuse and no stacking.

    Sample i walks row i of the run's uniforms, and each pair is a
    (q_alpha, i_alpha, q_beta, i_beta) tuple.
    """
    state, config = load_checkpoint(checkpoint)
    spec = WindowSpec(l=l)
    h = build_hloc(l, config.delta)
    n_steps = step_count(t_fin - state.time, 1.0 / 3.0, "t_fin - t_init")
    params = EvolverParams(delta_t=1.0 / 3.0, n_max=20, n_steps=n_steps)
    split = semistochastic_split(state, spec)
    pairs, rows = [], []
    for u in sample_uniforms(master_seed, n_samples, 2 * l + 3):
        (qa, ia, qb, ib), = sample_spins_and_beta(
            state, spec, sample_alpha(state, spec, u[:1], split), u[None, 1:], split
        ).tolist()
        psi = assemble_window_state(state, spec, (qa, ia, qb, ib))
        pairs.append((qa, ia, qb, ib))
        rows.append(evolve_and_measure(psi, h, params)[0])
    return pairs, np.array(rows)


def test_run_mc_evolves_each_pair_once_per_run(
    short_run, monkeypatch, queued_rounds
):
    monkeypatch.setattr(harness, "SHARE_WORK", 0)
    assembled, propagated, values = [], [], []
    assemble, evolve, two_rounds = (
        harness.assemble_window_stacks, harness.evolve_and_measure, harness._two_rounds
    )

    def counted_assemble(state, spec, pairs):
        # every row the stack assembler is given, on every thread
        assembled.extend(map(tuple, pairs.tolist()))
        return assemble(state, spec, pairs)

    def counted_evolve(psi, *args, **kwargs):
        propagated.append(psi.amplitudes.shape[0])
        return evolve(psi, *args, **kwargs)

    def recorded_rounds(*args):
        values.append(two_rounds(*args))
        return values[-1]

    monkeypatch.setattr(harness, "assemble_window_stacks", counted_assemble)
    monkeypatch.setattr(harness, "evolve_and_measure", counted_evolve)
    monkeypatch.setattr(harness, "_two_rounds", recorded_rounds)
    n, t_fin = 60, 1.0 + 2.0 / 3.0
    kw = dict(
        checkpoint=short_run["checkpoint"],
        l=2,
        t_fin=t_fin,
        delta_t=1.0 / 3.0,
        n_max=20,
        n_samples=n,
        master_seed=7,
    )
    pairs, rows = _fresh_rows(short_run["checkpoint"], 2, t_fin, 7, n)
    assert len(set(pairs)) < n  # some pair repeats, so reuse is exercised
    # pairs drawn in different blocks repeat too, so the dedup must span blocks
    assert set(pairs[:20]) & set(pairs[20:40]) & set(pairs[40:])
    for workers in (1, 2, 3):
        for log in (assembled, propagated, values):
            log.clear()
        run_mc(n_workers=workers, **kw)
        # every distinct pair of the run is assembled and evolved once
        assert sorted(assembled) == sorted(set(pairs))
        assert sum(propagated) == len(assembled)
        # and every sample's row is bit-for-bit its sample-by-sample row;
        # S is empty, so no row is summed exactly
        assert len(values) == 1
        sampled, s_rows, s_norms = values[0]
        assert np.array_equal(sampled, rows)
        assert s_rows.shape == (0, rows.shape[1]) and s_norms.shape == (0,)


def test_run_mc_caps_its_queue_at_the_usable_cpus(short_run, tmp_path, monkeypatch, queued_rounds):
    # a huge --workers must not open a thread per requested worker. p_star
    # = 0 puts every reachable pair in S, so the round holds more than 4
    # sector stacks whatever the 3 samples draw, and on 4 usable CPUs
    # the round is queued for 4 threads, not 64
    monkeypatch.setattr(harness, "SHARE_WORK", 0)
    monkeypatch.setattr(threads, "usable_cpus", lambda: 4)
    out1 = tmp_path / "w1.csv"
    out64 = tmp_path / "w64.csv"
    kw = dict(
        checkpoint=short_run["checkpoint"],
        l=2,
        t_fin=1.0 + 2.0 / 3.0,
        delta_t=1.0 / 3.0,
        n_max=20,
        n_samples=3,
        master_seed=7,
        p_star=0.0,
    )
    run_mc(n_workers=1, out=out1, **kw)
    run_mc(n_workers=64, out=out64, **kw)
    assert [n_threads for n_threads, _names in queued_rounds] == [4]
    assert out1.read_bytes() == out64.read_bytes()


def test_run_mc_shares_respect_cpu_affinity(short_run, monkeypatch, queued_rounds):
    # a process pinned to one CPU queues nothing for helpers, as under taskset -c 0
    monkeypatch.setattr(harness, "SHARE_WORK", 0)
    monkeypatch.setattr(threads, "usable_cpus", usable_cpus)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    kw = dict(
        checkpoint=short_run["checkpoint"],
        l=2,
        t_fin=1.0 + 2.0 / 3.0,
        delta_t=1.0 / 3.0,
        n_max=20,
        n_samples=60,
        master_seed=7,
        n_workers=3,
    )
    run_mc(**kw)
    assert queued_rounds == []
    # where the OS has no affinity call, the CPU count caps the threads
    monkeypatch.delattr(os, "sched_getaffinity")
    run_mc(**kw)
    assert [n_threads for n_threads, _names in queued_rounds] == [2]


def test_run_mc_below_share_work_deals_no_shares(
    short_run, tmp_path, monkeypatch, queued_rounds
):
    # a round with less work than SHARE_WORK runs on the calling thread
    # at any --workers and writes the same bytes, though 3 CPUs and one
    # BLAS thread would let it use helpers
    t_fin = 1.0 + 2.0 / 3.0
    kw = dict(
        checkpoint=short_run["checkpoint"],
        l=2,
        t_fin=t_fin,
        delta_t=1.0 / 3.0,
        n_max=20,
        n_samples=60,
        master_seed=7,
    )
    outs = [tmp_path / "w1.csv", tmp_path / "w3.csv"]
    run_mc(n_workers=1, out=outs[0], **kw)
    run_mc(n_workers=3, out=outs[1], **kw)
    assert queued_rounds == []
    assert outs[0].read_bytes() == outs[1].read_bytes()
    # the work is every distinct pair's sector dimension times Taylor
    # orders times grid steps, and helpers are used from SHARE_WORK up
    pairs, _rows = _fresh_rows(short_run["checkpoint"], 2, t_fin, 7, 60)
    spec = WindowSpec(l=2)
    work = 20 * 2 * sum(math.comb(5, pair_sector(spec, p)) for p in set(pairs))
    monkeypatch.setattr(harness, "SHARE_WORK", work + 1)
    run_mc(n_workers=3, **kw)
    assert queued_rounds == []
    monkeypatch.setattr(harness, "SHARE_WORK", work)
    run_mc(n_workers=3, **kw)
    assert len(queued_rounds) == 1 and queued_rounds[0][0] > 1


def test_run_mc_helper_threads_write_same_bytes(short_run, tmp_path, monkeypatch, queued_rounds):
    # helpers are forced by SHARE_WORK = 0 on 3 faked CPUs, and the
    # fixture has a helper start a stack of every round: each stack runs
    # on the calling thread or a helper, and the bytes are those of one
    # thread
    monkeypatch.setattr(harness, "SHARE_WORK", 0)
    kw = dict(
        checkpoint=short_run["checkpoint"],
        l=2,
        t_fin=1.0 + 2.0 / 3.0,
        delta_t=1.0 / 3.0,
        n_max=20,
        n_samples=60,
        master_seed=7,
    )
    outs = []
    for workers in (1, 2, 3):
        outs.append(tmp_path / f"w{workers}.csv")
        run_mc(n_workers=workers, out=outs[-1], **kw)
    caller = threading.current_thread().name
    assert [n_threads for n_threads, _names in queued_rounds] == [2, 3]
    for n_threads, names in queued_rounds:
        helpers = {name for name in names if name != caller}
        assert helpers and all(name.startswith("spinquench-helper") for name in helpers)
        assert len(helpers) < n_threads
    # and the helpers were joined when round two ended
    assert not any(t.name.startswith("spinquench-helper") for t in threading.enumerate())
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()


def test_run_mc_partial_batches_change_no_byte(k128_t2, tmp_path, monkeypatch, queued_rounds):
    # a partial budget that splits the run's assembly into several
    # batches, on 1, 2 and 3 threads, writes the bytes of one batch per
    # run on one thread
    kw = dict(
        checkpoint=k128_t2["checkpoint"],
        l=2,
        t_fin=2.0 + 2.0 / 3.0,
        delta_t=1.0 / 3.0,
        n_max=20,
        n_samples=200,
        master_seed=7,
    )
    ref = tmp_path / "ref.csv"
    run_mc(n_workers=1, out=ref, **kw)
    batches, split = [], sampler._partial_batches

    def counted_split(state, spec, pairs):
        ends = split(state, spec, pairs)
        batches.append((len(pairs), len(ends)))
        return ends

    monkeypatch.setattr(harness, "SHARE_WORK", 0)
    monkeypatch.setattr(sampler, "WALK_MEMO_BYTES", 1 << 14)
    monkeypatch.setattr(sampler, "_partial_batches", counted_split)
    for workers in (1, 2, 3):
        batches.clear()
        out = tmp_path / f"w{workers}.csv"
        run_mc(n_workers=workers, out=out, **kw)
        assert out.read_bytes() == ref.read_bytes()
        # one batching per run: this thread assembles every stack
        # and the helpers only evolve them; several batches, neither one
        # nor one per pair
        ((n_pairs, n_batches),) = batches
        assert 2 < n_batches < n_pairs
    assert [n_threads for n_threads, _names in queued_rounds] == [2, 3]


@pytest.mark.parametrize("p_star", [math.inf, 0.01], ids=["plain", "semistochastic"])
def test_run_mc_one_budget_bounds_stacks_batches_and_chunks(k128_t2, tmp_path, monkeypatch, p_star):
    # sampler.WALK_MEMO_BYTES bounds the walk chunks, the assembly batches
    # and the propagated stacks alike; a budget of one amplitude puts one
    # sample in every chunk and one pair in every batch and stack, so each
    # sector spans as many stacks as it has pairs, and writes the bytes of
    # the default budget, where each sector is one stack
    kw = dict(
        checkpoint=k128_t2["checkpoint"],
        l=2,
        t_fin=2.0 + 2.0 / 3.0,
        delta_t=1.0 / 3.0,
        n_max=20,
        n_samples=300,
        master_seed=7,
        n_workers=1,
        p_star=p_star,
    )
    assemble, split, walk = harness.assemble_window_stacks, sampler._partial_batches, sampler._walk_chunk
    stacks, batches, chunks = [], [], []

    def counted_assemble(state, spec, pairs):
        for ids, psi, norms in assemble(state, spec, pairs):
            stacks.append((psi.total_sz_sector, len(ids)))
            yield ids, psi, norms

    def counted_split(state, spec, pairs):
        ends = split(state, spec, pairs)
        batches.append((len(pairs), len(ends)))
        return ends

    def counted_walk(state, spec, alphas, *args):
        chunks.append(len(alphas))
        return walk(state, spec, alphas, *args)

    monkeypatch.setattr(harness, "assemble_window_stacks", counted_assemble)
    monkeypatch.setattr(sampler, "_partial_batches", counted_split)
    monkeypatch.setattr(sampler, "_walk_chunk", counted_walk)
    outs = []
    for budget in (sampler.WALK_MEMO_BYTES, 16):
        monkeypatch.setattr(sampler, "WALK_MEMO_BYTES", budget)
        for log in (stacks, batches, chunks):
            log.clear()
        outs.append(tmp_path / f"budget{budget}.csv")
        run_mc(out=outs[-1], **kw)
        ((n_pairs, n_batches),) = batches
        n_ups = [n_up for n_up, _height in stacks]
        if budget == 16:
            assert chunks == [1] * 300 and n_batches == n_pairs
            assert [height for _n_up, height in stacks] == [1] * n_pairs
        else:
            assert chunks == [300] and n_batches == 1
            assert len(set(n_ups)) == len(n_ups) and sum(h for _n, h in stacks) == n_pairs
    assert len(set(n_ups)) < len(n_ups)  # some sector spans several stacks
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_run_mc_single_share_deals_no_shares(
    short_run, tmp_path, monkeypatch, queued_rounds
):
    # one sample has one distinct pair, which is one stack however many
    # workers are asked for, so round two runs on the calling thread even
    # when any work would pay for helpers
    monkeypatch.setattr(harness, "SHARE_WORK", 0)
    kw = dict(
        checkpoint=short_run["checkpoint"],
        l=2,
        t_fin=1.0 + 2.0 / 3.0,
        delta_t=1.0 / 3.0,
        n_max=20,
        n_samples=1,
        master_seed=7,
    )
    outs = [tmp_path / "w1.csv", tmp_path / "w3.csv"]
    run_mc(n_workers=1, out=outs[0], **kw)
    run_mc(n_workers=3, out=outs[1], **kw)
    assert queued_rounds == []
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_run_mc_aggregate_matches_two_pass(short_run):
    # the reference evolves every sample afresh, without reuse
    state, _config = load_checkpoint(short_run["checkpoint"])
    t_fin = 1.0 + 2.0 / 3.0
    pairs, rows = _fresh_rows(short_run["checkpoint"], 2, t_fin, 7, 40)
    assert len(set(pairs)) < 40
    mean_ref = rows.sum(axis=0) / rows.shape[0]
    var_ref = ((rows - mean_ref) ** 2).sum(axis=0) / (rows.shape[0] - 1)
    stderr_ref = np.sqrt(var_ref) / math.sqrt(rows.shape[0])
    curve = run_mc(
        checkpoint=short_run["checkpoint"],
        l=2,
        t_fin=t_fin,
        delta_t=1.0 / 3.0,
        n_max=20,
        n_samples=40,
        master_seed=7,
        n_workers=1,
    )
    assert np.array_equal(curve.mean, mean_ref)
    assert np.array_equal(curve.stderr, stderr_ref)
    assert curve.n_samples == 40
    assert np.allclose(curve.times, state.time + np.arange(3) / 3.0)


def test_run_mc_single_sample_has_nan_stderr(short_run, tmp_path):
    out = tmp_path / "one.csv"
    curve = run_mc(
        checkpoint=short_run["checkpoint"],
        l=1,
        t_fin=1.0 + 1.0 / 3.0,
        delta_t=1.0 / 3.0,
        n_max=20,
        n_samples=1,
        master_seed=0,
        n_workers=1,
        out=out,
    )
    assert np.all(np.isnan(curve.stderr))
    _meta, back = read_aggregate_curve(out)
    assert np.all(np.isnan(back.stderr))
    assert np.array_equal(back.mean, curve.mean)


def test_run_mc_validation(short_run):
    common = dict(
        checkpoint=short_run["checkpoint"],
        delta_t=1.0 / 3.0,
        n_max=20,
        n_samples=2,
        master_seed=0,
    )
    with pytest.raises(ConfigError):
        run_mc(l=2, t_fin=0.5, n_workers=1, **common)  # before checkpoint time
    with pytest.raises(ConfigError):
        run_mc(l=2, t_fin=2.0, n_workers=0, **common)
    with pytest.raises(ConfigError, match="t_fin - t_init = 0.5 is not"):
        run_mc(l=2, t_fin=1.5, n_workers=1, **common)  # non-integral steps
    with pytest.raises(ConfigError):
        run_mc(l=2, t_fin=2.0, n_workers=1, **{**common, "master_seed": -1})
    with pytest.raises(ConfigError, match="n_samples must be >= 1, got 0"):
        run_mc(l=2, t_fin=2.0, n_workers=1, **{**common, "n_samples": 0})
    # counts, sizes and the seed must be integers, not bools or integral floats
    for name, bad in (
        ("n_workers", 2.5), ("n_workers", True), ("n_workers", 2.0),
        ("n_samples", 50.0), ("n_samples", True), ("master_seed", 7.0),
        ("master_seed", False), ("master_seed", 2**64), ("l", 2.0), ("n_max", 20.0),
    ):
        with pytest.raises(ConfigError, match="^(seed|n_samples|n_workers|l|n_max) must be"):
            run_mc(t_fin=2.0, **{**common, "l": 2, "n_workers": 1, name: bad})
    for name, bad in (("delta_t", 0.0), ("delta_t", "0.25"), ("t_fin", "2.0")):
        with pytest.raises(ConfigError, match=f"^{name} must be"):
            run_mc(**{**common, "l": 2, "t_fin": 2.0, "n_workers": 1, name: bad})


@pytest.mark.parametrize("p_star", [math.inf, 0.01])
def test_run_mc_writes_numpy_settings_as_python_numbers(short_run, tmp_path, p_star):
    # every setting is written as the Python number its check returned,
    # so numpy-typed settings write the bytes of the Python-typed run
    plain = dict(l=2, t_fin=2.0, delta_t=0.25, n_max=20, n_samples=50, master_seed=3,
                 n_workers=1, p_star=float(np.float32(p_star)))
    typed = dict(l=np.int64(2), t_fin=np.float32(2.0), delta_t=np.float32(0.25), n_max=np.int64(20),
                 n_samples=np.int32(50), master_seed=np.uint64(3), n_workers=np.int64(1),
                 p_star=np.float32(p_star))
    outs = [tmp_path / "plain.csv", tmp_path / "typed.csv"]
    for kw, out in zip((plain, typed), outs):
        run_mc(checkpoint=short_run["checkpoint"], out=out, **kw)
    meta, _cols = read_table(outs[1])
    assert ("p_star" in meta) == (p_star < 1.0)  # S is nonempty at 0.01
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_run_mc_warns_outside_horizon(short_run):
    with pytest.warns(UserWarning):
        run_mc(
            checkpoint=short_run["checkpoint"],
            l=1,
            t_fin=4.0,
            delta_t=1.0,
            n_max=20,
            n_samples=2,
            master_seed=0,
            n_workers=1,
        )


def test_mc_agrees_with_direct_evolution_within_errors(short_run, tmp_path):
    # l=3 windows from the t=1 checkpoint, continued to t=2, against the
    # k=16 chain evolved directly; all grid points inside the horizon
    config = QuenchConfig(delta=0.5, dt=0.0625, k_max=16, t_init=2.0)
    chk2 = tmp_path / "t2.mpsc1"
    curve2 = tmp_path / "t2.csv"
    run_itebd(config, chk2, curve2)
    _meta, cols = read_table(curve2)
    direct = {round(float(t), 10): v for t, v in zip(cols["t"], cols["sz0"])}
    kw = dict(checkpoint=short_run["checkpoint"], l=3, t_fin=2.0, delta_t=0.25, n_max=20)
    curve = run_mc(n_samples=2000, master_seed=5, n_workers=4, **kw)
    # the samples estimate the window's exact sum (p_star = 0 puts every
    # pair in S), and against the sum every grid point holds
    exact = run_mc(n_samples=1, master_seed=5, n_workers=1, p_star=0.0, **kw)
    assert np.all(exact.stderr == 0.0)
    assert np.all(curve.stderr > 0.0)
    assert np.all(np.abs(curve.mean - exact.mean) < 3.0 * curve.stderr)
    # the exact sum leaves the direct curve by the window's bias, which
    # is below 1e-4 up to 0.5 past t_init and above it later (1.5e-3 at
    # t = 2, 2.9 of this run's stderr); the samples meet the direct
    # curve within 3 stderr on the span where the window is trusted
    span = curve.times - curve.times[0] <= 0.5 + 1e-9
    on_grid = np.array([direct[round(float(t), 10)] for t in curve.times])
    bias = np.abs(exact.mean - on_grid)
    assert np.all(bias[span] < 1e-4) and np.all(bias[~span] > 1e-4)
    assert np.all(np.abs(curve.mean - on_grid)[span] < 3.0 * curve.stderr[span])


def test_extract_peaks_on_analytic_curve():
    t = np.linspace(0.0, 7.0, 701)
    curve = AggregateCurve(
        times=t,
        mean=0.5 * np.cos(t),
        stderr=np.full(t.size, 1e-3),
        n_samples=100,
    )
    peaks = extract_peaks(curve)
    assert len(peaks.peaks) == 2
    for (t_peak, height, stderr), expect_t in zip(peaks.peaks, (math.pi, 2 * math.pi)):
        assert t_peak == pytest.approx(expect_t, abs=0.011)
        assert height == pytest.approx(0.5, abs=1e-4)
        assert stderr == pytest.approx(1e-3)


def test_extract_peaks_monotone_curve_is_empty():
    t = np.linspace(0.0, 1.0, 30)
    curve = AggregateCurve(t, np.exp(-t), np.full(t.size, 0.01), 10)
    assert extract_peaks(curve).peaks == ()
    with pytest.raises(ConfigError):
        extract_peaks(AggregateCurve(t[:2], t[:2], t[:2], 1))


def test_shift_correction_recovers_constant():
    t = np.linspace(1.0, 5.0, 13)
    mean = 0.5 * np.cos(t)
    curve = AggregateCurve(t, mean + 0.003, np.full(t.size, 0.01), 50)
    fixed = shift_correction(curve, t, mean)
    assert fixed.shift_constant == pytest.approx(-0.003, abs=1e-12)
    # only early points enter the fit but the whole curve is shifted
    assert np.allclose(fixed.mean, mean, atol=1e-12)
    assert np.array_equal(fixed.stderr, curve.stderr)
    same = shift_correction(AggregateCurve(t, mean, curve.stderr, 50), t, mean)
    assert same.shift_constant == pytest.approx(0.0, abs=1e-15)


def test_shift_correction_uses_only_early_overlap():
    t = np.linspace(0.0, 4.0, 17)
    mean = np.zeros(t.size)
    ref = np.where(t <= 1.0 + 1e-9, 0.01, 99.0)  # late reference is garbage
    fixed = shift_correction(AggregateCurve(t, mean, mean, 5), t, ref)
    assert fixed.shift_constant == pytest.approx(0.01)


def test_shift_correction_needs_overlap():
    t = np.linspace(0.0, 1.0, 9)
    curve = AggregateCurve(t, np.zeros(9), np.zeros(9), 5)
    with pytest.raises(ConfigError):
        shift_correction(curve, t + 100.0, np.zeros(9))


def test_write_peaks_round_trip(tmp_path):
    path = tmp_path / "peaks.csv"
    series = PeakSeries(peaks=((3.25, 0.41, 0.002), (6.5, 0.38, 0.003)))
    write_peaks(path, series, {"source": "test"})
    meta, cols = read_table(path)
    assert meta == {"source": "test"}
    assert np.array_equal(cols["t_peak"], [3.25, 6.5])
    assert np.array_equal(cols["height"], [0.41, 0.38])


def test_profiles_are_sane():
    assert set(PROFILES) == {"full", "desk", "desk-small"}
    for name, prof in PROFILES.items():
        assert prof["delta"] == 0.5
        assert prof["dt"] == 0.0625
        assert prof["delta_t"] == pytest.approx(1.0 / 3.0)
    assert PROFILES["desk"]["l"] <= 6
    assert PROFILES["desk"]["k_max"] <= 256
    assert PROFILES["desk-small"]["k_max"] <= 64
    assert PROFILES["full"]["k_max"] >= 1024


def test_git_blob_sha1_matches_git(tmp_path):
    # sha1("blob <len>\0" + bytes), the same hash git assigns the file
    path = tmp_path / "x.bin"
    path.write_bytes(b"hello\n")
    assert git_blob_sha1(path) == "ce013625030ba8dba906f756967f9e9ca394464a"
