"""The semistochastic window estimator: S summed exactly, the tail sampled.

S = A x B holds the boundary pairs whose two Schmidt weights are both at
least p_star. Its pairs are summed exactly and every sample is drawn
from the pair distribution conditioned on leaving S. These tests check
that law pair by pair against the exhaustive enumeration, the
estimator's expectation against the exhaustive sum, the masses the
environments subtract against the assembled ones, and the run-level
contract: S empty changes no byte, a run is byte-identical at any
worker count, its stderr scales as 1/sqrt(n), clamps are counted, a
run with no tail weight is the exact sum, and a state out of canonical
form is refused.
"""

import dataclasses
import math

import numpy as np
import pytest

from oracles import enumerate_boundary_pairs, tail_pair_distribution, tail_walk
from spinquench import harness, threads
from spinquench.checkpoint import load_checkpoint, save_checkpoint
from spinquench.cli import main
from spinquench.errors import ConfigError
from spinquench.graded import SiteTensor
from spinquench.harness import read_table, run_itebd, run_mc, sample_uniforms
from spinquench.itebd import DN, UP, QuenchConfig, expect_sz
from spinquench.sampler import (
    CANONICAL_TOL,
    WindowSpec,
    assemble_window_stacks,
    canonical_residuals,
    sample_alpha,
    sample_spins_and_beta,
    semistochastic_split,
)
from spinquench.window import sz_center


@pytest.fixture(scope="module")
def k32_t2(tmp_path_factory):
    chk = tmp_path_factory.mktemp("k32") / "k32_t2.mpsc1"
    run_itebd(QuenchConfig(delta=0.5, dt=0.0625, k_max=32, t_init=2.0), chk, chk.with_suffix(".csv"))
    return chk


#: (checkpoint fixture, l, p_star) of the exhaustive cases: a 2x2 grid
#: at k=16 and a 4x4 one at k=32.
CASES = [("k16_t1", 2, 0.01), ("k32_t2", 3, 0.03)]


def _case(request, name, l, p_star):
    fixture = request.getfixturevalue(name)
    path = fixture["checkpoint"] if isinstance(fixture, dict) else fixture
    state, _config = load_checkpoint(path)
    spec = WindowSpec(l=l)
    return path, state, spec, semistochastic_split(state, spec, p_star)


def _exhaustive(state, spec):
    """{(alpha, beta): (weight, <Sz_0>)} over every pair of nonzero weight."""
    return {
        (alpha, beta): (weight, float(sz_center(psi)[0]))
        for alpha, beta, weight, psi in enumerate_boundary_pairs(state, spec)
    }


def _in_s(split, alpha, beta):
    (qa, ia), (qb, ib) = alpha, beta
    return (qa in split.heavy_left and bool(split.heavy_left[qa][ia])
            and qb in split.heavy_right and bool(split.heavy_right[qb][ib]))


def _s_weights(state, spec, split):
    """(pair weights, <Sz_0>) of S's rows, in order, from one stack assembler call."""
    lam = harness.boundary_spectrum(state, spec)
    weights, values = np.empty(len(split.pairs)), np.empty(len(split.pairs))
    for ids, psi, norms in assemble_window_stacks(state, spec, split.pairs):
        weights[ids] = [lam.blocks[qa][ia] ** 2 for qa, ia in split.pairs[ids, :2].tolist()] * norms
        values[ids] = sz_center(psi)
    return weights, values


@pytest.mark.parametrize("name,l,p_star", CASES)
def test_tail_law_is_the_exhaustive_law_outside_s(request, name, l, p_star):
    # pair by pair, the conditioned walk's law is the enumerated p(alpha,
    # beta) restricted to pairs outside S and renormalized, and the tail
    # weight T is the mass outside S
    _path, state, spec, split = _case(request, name, l, p_star)
    assert len(split.pairs) and split.clamps == 0
    exhaustive = _exhaustive(state, spec)
    outside = {key: w for key, (w, _x) in exhaustive.items() if not _in_s(split, *key)}
    total = sum(w for w, _x in exhaustive.values())
    law = tail_pair_distribution(state, spec, split)
    assert set(law) == set(outside)
    tail = sum(outside.values())
    for key, w in outside.items():
        assert abs(law[key] - w / tail) < 1e-12, key
    assert split.tail_weight == pytest.approx(tail, rel=1e-9, abs=1e-15)
    assert abs(split.tail_weight / total - tail / total) < 1e-12


@pytest.mark.parametrize("name,l,p_star", CASES)
def test_batched_tail_walk_matches_per_sample_oracle(request, name, l, p_star):
    # sample for sample, the level walk with the split's environments
    # draws the pair of the one-sample oracle walk on the same uniforms,
    # and never a pair of S
    _path, state, spec, split = _case(request, name, l, p_star)
    u = sample_uniforms(5, 600, 2 * l + 3)
    alphas = sample_alpha(state, spec, u[:, 0], split)
    got = sample_spins_and_beta(state, spec, alphas, u[:, 1:], split)
    want = [tail_walk(state, spec, split, row) for row in u]
    assert [((qa, ia), (qb, ib)) for qa, ia, qb, ib in got.tolist()] == want
    assert not any(_in_s(split, a, b) for a, b in want)
    assert any(
        qa in split.heavy_left and split.heavy_left[qa][ia] for (qa, ia), _b in want
    )  # some sample starts in A, so the conditioning is exercised


@pytest.mark.parametrize("name,l,p_star", CASES)
def test_estimator_expectation_is_the_exhaustive_sum(request, name, l, p_star):
    # sum_S (p/Z) x + (T/Z) E_tail[x] is the exhaustive sum_all p x, and
    # that is the infinite-chain <Sz_0>
    _path, state, spec, split = _case(request, name, l, p_star)
    exhaustive = _exhaustive(state, spec)
    z = float(harness.boundary_spectrum(state, spec).weights.sum())
    s_weights, s_values = _s_weights(state, spec, split)
    law = tail_pair_distribution(state, spec, split)
    expectation = float(s_weights @ s_values) / z + split.tail_weight / z * sum(
        q * exhaustive[key][1] for key, q in law.items()
    )
    everything = sum(w * x for w, x in exhaustive.values())
    assert abs(expectation - everything) < 1e-12
    assert abs(expectation - expect_sz(state, "A")) < 1e-10


@pytest.mark.parametrize("name,l,p_star", CASES)
def test_assembled_mass_in_b_is_the_environment_mass(request, name, l, p_star):
    # for alpha in A, sum over beta in B of the assembled p(alpha, beta)
    # is m(alpha) = lambda^2 (E_B)_aa, the mass the alpha weight loses
    _path, state, spec, split = _case(request, name, l, p_star)
    lam = harness.boundary_spectrum(state, spec)
    s_weights, _values = _s_weights(state, spec, split)
    heavy = {(q, i) for q, mask in split.heavy_left.items() for i in np.flatnonzero(mask).tolist()}
    assert heavy
    for qa, ia in heavy:
        assembled = s_weights[(split.pairs[:, 0] == qa) & (split.pairs[:, 1] == ia)].sum()
        env = lam.blocks[qa][ia] ** 2 * split.envs[0][qa][ia, ia].real
        assert abs(assembled - env) < 1e-14
        charges, _v, index = lam._ranked
        at = np.flatnonzero((charges == qa) & (index == ia))[0]
        assert split.alpha_weights[at] == pytest.approx(lam.weights[at] - env, abs=1e-15)


def _mc(path, out=None, **kw):
    args = dict(checkpoint=path, l=2, t_fin=1.0 + 2.0 / 3.0, delta_t=1.0 / 3.0, n_max=20,
                n_samples=60, master_seed=7, n_workers=1, out=out)
    args.update(kw)
    return run_mc(**args)


def test_empty_s_changes_no_byte(k16_t1, tmp_path):
    # S is empty by default, and a threshold no Schmidt weight reaches
    # leaves it empty too: the same file, without any split metadata
    outs = [tmp_path / "none.csv", tmp_path / "high.csv"]
    _mc(k16_t1["checkpoint"], outs[0])
    _mc(k16_t1["checkpoint"], outs[1], p_star=1.5)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    meta, _cols = read_table(outs[0])
    assert "p_star" not in meta and "p_s" not in meta


def test_semistochastic_run_is_identical_across_worker_counts(
    k16_t1, tmp_path, monkeypatch, one_blas_thread
):
    # the split runs its S pairs beside the drawn ones in round two, on
    # one share or dealt to helper threads (3 faked CPUs), and the file
    # does not change
    monkeypatch.setattr(harness, "SHARE_WORK", 0)
    monkeypatch.setattr(threads, "usable_cpus", lambda: 3)
    outs = []
    for workers in (1, 2, 3):
        outs.append(tmp_path / f"w{workers}.csv")
        _mc(k16_t1["checkpoint"], outs[-1], p_star=1e-3, n_workers=workers)
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
    meta, cols = read_table(outs[0])
    assert meta["p_star"] == 1e-3 and meta["n_a"] == meta["n_b"] == 4
    assert 0.99 < meta["p_s"] < 1.0 and meta["clamps"] == 0
    assert cols["n_samples"].tolist() == [60] * 3


def test_semistochastic_stderr_scales_as_inverse_root_n(k16_t1):
    # criterion 8's runs with S nonempty: the stderr falls by sqrt(10)
    # per decade of samples, within the criterion's factor 1.5
    errs = {}
    for n, seed in ((100, 31), (1000, 32), (10000, 33)):
        curve = run_mc(checkpoint=k16_t1["checkpoint"], l=2, t_fin=2.0, delta_t=1.0 / 3.0,
                       n_max=20, n_samples=n, master_seed=seed, n_workers=1, p_star=0.01)
        errs[n] = float(curve.stderr[-1])
    lo, hi = math.sqrt(10.0) / 1.5, math.sqrt(10.0) * 1.5
    assert lo < errs[100] / errs[1000] < hi
    assert lo < errs[1000] / errs[10000] < hi


def test_semistochastic_estimate_agrees_with_the_direct_value(k32_t2):
    # at the checkpoint time the estimate must agree with the iTEBD
    # observable within its (much smaller) stderr
    state, _config = load_checkpoint(k32_t2)
    curve = _mc(k32_t2, l=3, t_fin=2.0 + 1.0 / 3.0, n_samples=2000, p_star=0.03)
    plain = _mc(k32_t2, l=3, t_fin=2.0 + 1.0 / 3.0, n_samples=2000)
    direct = expect_sz(state, "A")
    assert curve.stderr[0] < plain.stderr[0] / 10
    assert abs(curve.mean[0] - direct) < 4.0 * curve.stderr[0]


def test_zero_tail_weight_is_the_exact_sum(k16_t1, tmp_path):
    # at p_star = 0 every pair is in S: each alpha weight loses all its
    # mass and is clamped, no sample is drawn, and the estimate is the
    # exhaustive sum with stderr 0
    state, _config = load_checkpoint(k16_t1["checkpoint"])
    spec = WindowSpec(l=2)
    split = semistochastic_split(state, spec, 0.0)
    n_left = harness.boundary_spectrum(state, spec).total_dim
    assert split.tail_weight == 0.0 and split.clamps == n_left
    out = tmp_path / "exact.csv"
    curve = _mc(k16_t1["checkpoint"], out, p_star=0.0, n_samples=5)
    exhaustive = sum(w * x for w, x in _exhaustive(state, spec).values())
    assert abs(curve.mean[0] - exhaustive) < 1e-12
    assert np.all(curve.stderr == 0.0)
    meta, cols = read_table(out)
    assert meta["clamps"] == n_left and meta["p_s"] == pytest.approx(1.0, abs=1e-12)
    assert cols["n_samples"].tolist() == [5] * 3


def _doctored(path, tmp_path):
    """A copy of a checkpoint with one site block scaled off canonical form."""
    state, config = load_checkpoint(path)
    q = max(state.lambda_b.blocks, key=lambda c: state.lambda_b.blocks[c][0])  # heaviest rows
    up, down = ({k: b * (1.01 if k == q else 1.0) for k, b in state.a_a.spin(s).items()}
                for s in (UP, DN))
    state = dataclasses.replace(state, a_a=SiteTensor(state.a_a.shifts, up, down))
    out = tmp_path / "doctored.mpsc1"
    save_checkpoint(out, state, config)
    return out


def test_canonical_guard_refuses_a_doctored_checkpoint(k16_t1, tmp_path):
    # the package's checkpoints pass the guard by many orders of magnitude
    state, _config = load_checkpoint(k16_t1["checkpoint"])
    assert max(canonical_residuals(state)) < 1e-13 < CANONICAL_TOL
    doctored = _doctored(k16_t1["checkpoint"], tmp_path)
    bad, _config = load_checkpoint(doctored)
    right, marginal = canonical_residuals(bad)
    assert right > CANONICAL_TOL and marginal > CANONICAL_TOL
    with pytest.raises(ConfigError, match="canonical"):
        _mc(doctored, p_star=0.01)
    _mc(doctored)  # S empty needs no canonical form
    argv = ["sample", "--checkpoint", str(doctored), "--l", "2", "--t-fin", "2.0",
            "--samples", "10", "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 2  # the desk profile's p_star
    assert main(argv + ["--p-star", "2"]) == 0


def test_p_star_validation(k16_t1):
    # S = empty is spelled p_star = inf only; None is refused too
    for bad in (-0.1, float("nan"), None):
        with pytest.raises(ConfigError, match="p_star"):
            _mc(k16_t1["checkpoint"], p_star=bad)
