import math
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from oracles import numpy_uniforms
from spinquench import harness, sampler
from spinquench.checkpoint import load_checkpoint
from spinquench.errors import ConfigError
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
)
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
def in_process_pool(monkeypatch):
    """Run run_mc's pool rounds in this process; returns the pool sizes.

    No process is started, so tests can count calls inside the rounds.
    The initializer runs once, in this process, as a one-process pool
    would run it.
    """
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            sizes.append(max_workers)
            if initializer is not None:
                initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
    return sizes


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
def test_sample_uniforms_match_numpy_streams(k128_t2, master_seed):
    # numpy's per-sample generator is the stream's only oracle: seeds of
    # one and two entropy words, ids from 0 past one walk chunk of the
    # k=128 state and ids with a high 32-bit word, every row length a
    # window can ask for, and sample_one as a one-row view
    state, _config = load_checkpoint(k128_t2["checkpoint"])
    chunk = sampler._chunk_size(state)
    ids = [*range(0, chunk + 2, 11), chunk, chunk + 1, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1]
    n_max = 2 * L_MAX + 3
    ref = np.array([numpy_uniforms(master_seed, sid, n_max) for sid in ids])
    for n in range(5, n_max + 1):
        # numpy's random(n) is the first n doubles of random(n_max)
        assert np.array_equal(sample_uniforms(master_seed, ids, n), ref[:, :n]), n
    for row in (0, len(ids) - 1):
        assert np.array_equal(harness.sample_one(master_seed, ids[row], n_max), ref[row])


def test_run_mc_identical_across_worker_counts(
    short_run, tmp_path, monkeypatch, in_process_pool
):
    monkeypatch.setattr(harness, "POOL_WORK", 0)
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
    assert len(in_process_pool) == 2
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
    _meta, cols = read_table(outs[0])
    assert cols["n_samples"].tolist() == [60] * 3


def _fresh_rows(checkpoint, l, t_fin, master_seed, sample_ids):
    """(pairs, value rows) sampled one by one, with no reuse and no stacking."""
    state, config = load_checkpoint(checkpoint)
    spec = WindowSpec(l=l)
    h = build_hloc(l, config.delta)
    params = EvolverParams(delta_t=1.0 / 3.0, n_max=20, t_fin=t_fin)
    pairs, rows = [], []
    for sid in sample_ids:
        u = numpy_uniforms(master_seed, sid, 2 * l + 3)
        samp, = sample_spins_and_beta(state, spec, sample_alpha(state, spec, u[:1]), u[None, 1:])
        psi = assemble_window_state(state, spec, samp)
        pairs.append((samp.alpha, samp.beta))
        rows.append([v for _t, v in evolve_and_measure(psi, h, params, state.time)])
    return pairs, np.array(rows)


def test_run_mc_evolves_each_pair_once_per_run(
    short_run, monkeypatch, in_process_pool
):
    monkeypatch.setattr(harness, "POOL_WORK", 0)
    assembled, propagated, values = [], [], []
    assemble, evolve, two_rounds = (
        harness.assemble_window_stacks, harness.evolve_and_measure, harness._two_rounds
    )

    def counted_assemble(state, spec, stacks):
        # every row the stack assembler is given, in every share
        assembled.extend((p.alpha, p.beta) for _n_up, pairs in stacks for p in pairs)
        return assemble(state, spec, stacks)

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
    pairs, rows = _fresh_rows(short_run["checkpoint"], 2, t_fin, 7, range(n))
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
        # and every sample's row is bit-for-bit its sample-by-sample row
        assert len(values) == 1
        assert np.array_equal(values[0], rows)


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def test_run_mc_caps_pool_size(short_run, tmp_path, monkeypatch, in_process_pool):
    # a huge --workers must not start a process per requested worker;
    # the pool is faked so no process is started here at all
    monkeypatch.setattr(harness, "POOL_WORK", 0)
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
    )
    run_mc(n_workers=1, out=out1, **kw)
    run_mc(n_workers=64, out=out64, **kw)
    assert len(in_process_pool) == 1
    assert 1 <= in_process_pool[0] <= min(3, _usable_cpus())
    assert out1.read_bytes() == out64.read_bytes()


def test_run_mc_pool_respects_cpu_affinity(short_run, monkeypatch, in_process_pool):
    # a process pinned to one CPU starts no pool, as under taskset -c 0
    monkeypatch.setattr(harness, "POOL_WORK", 0)
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
    assert in_process_pool == []
    # where the OS has no affinity call, the CPU count caps the pool
    monkeypatch.delattr(os, "sched_getaffinity")
    run_mc(**kw)
    assert in_process_pool == [2]


def test_run_mc_below_pool_work_starts_no_pool(
    short_run, tmp_path, monkeypatch, in_process_pool
):
    # a round with less work than POOL_WORK runs in this process at any
    # --workers and writes the same bytes; CPUs are faked so the pool
    # could start on any machine
    monkeypatch.setattr(harness, "_cpu_count", lambda: 3)
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
    assert in_process_pool == []
    assert outs[0].read_bytes() == outs[1].read_bytes()
    # the work is every distinct pair's sector dimension times Taylor
    # orders times grid steps, and a pool starts from POOL_WORK up
    pairs, _rows = _fresh_rows(short_run["checkpoint"], 2, t_fin, 7, range(60))
    spec = WindowSpec(l=2)
    work = 20 * 2 * sum(math.comb(5, pair_sector(spec, a, b)) for a, b in set(pairs))
    monkeypatch.setattr(harness, "POOL_WORK", work + 1)
    run_mc(n_workers=3, **kw)
    assert in_process_pool == []
    monkeypatch.setattr(harness, "POOL_WORK", work)
    run_mc(n_workers=3, **kw)
    assert len(in_process_pool) == 1 and in_process_pool[0] > 1


def test_run_mc_real_pool_writes_same_bytes(short_run, tmp_path, monkeypatch):
    # the one test that starts real worker processes: the pool is forced
    # by POOL_WORK = 0 and CPUs are faked so it starts on any machine
    sizes = []

    class CountedPool(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(harness, "POOL_WORK", 0)
    monkeypatch.setattr(harness, "_cpu_count", lambda: 3)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountedPool)
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
    assert sizes == [2, 3]
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()


def test_run_mc_partial_batches_change_no_byte(k128_t2, tmp_path, monkeypatch):
    # a partial budget that splits every share into several assembly
    # batches, on a real pool of 2 and 3 processes (forked, so they keep
    # the budget), writes the bytes of one batch per run in one process
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

    monkeypatch.setattr(harness, "POOL_WORK", 0)
    monkeypatch.setattr(harness, "_cpu_count", lambda: 3)
    monkeypatch.setattr(sampler, "WALK_MEMO_BYTES", 1 << 14)
    monkeypatch.setattr(sampler, "_partial_batches", counted_split)
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}.csv"
        run_mc(n_workers=workers, out=out, **kw)
        assert out.read_bytes() == ref.read_bytes()
    # the one-process run made several batches, neither one nor one per pair
    ((n_pairs, n_batches),) = batches
    assert 2 < n_batches < n_pairs


def test_run_mc_single_share_starts_no_pool(
    short_run, tmp_path, monkeypatch, in_process_pool
):
    # one sample has one distinct pair, which is one share however many
    # workers are asked for, so round two runs in this process even
    # when any work would pay for a pool
    monkeypatch.setattr(harness, "POOL_WORK", 0)
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
    assert in_process_pool == []
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_run_mc_aggregate_matches_two_pass(short_run):
    # the reference evolves every sample afresh, without reuse
    state, _config = load_checkpoint(short_run["checkpoint"])
    t_fin = 1.0 + 2.0 / 3.0
    pairs, rows = _fresh_rows(short_run["checkpoint"], 2, t_fin, 7, range(40))
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
    with pytest.raises(ConfigError):
        run_mc(l=2, t_fin=1.5, n_workers=1, **common)  # non-integral steps
    with pytest.raises(ConfigError):
        run_mc(l=2, t_fin=2.0, n_workers=1, **{**common, "master_seed": -1})


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
    curve = run_mc(
        checkpoint=short_run["checkpoint"],
        l=3,
        t_fin=2.0,
        delta_t=0.25,
        n_max=20,
        n_samples=2000,
        master_seed=5,
        n_workers=4,
    )
    pulls = []
    for t, m, s in zip(curve.times, curve.mean, curve.stderr):
        key = round(float(t), 10)
        assert key in direct
        if s > 0:
            pulls.append(abs(m - direct[key]) / s)
    assert max(pulls) < 3.0


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
    with pytest.raises(ConfigError):
        shift_correction(curve, t, np.zeros(9), overlap_frac=0.0)


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
