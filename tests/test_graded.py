"""Charge-blocked linear algebra against dense references."""

import threading

import numpy as np
import pytest

from spinquench import itebd
from spinquench.errors import SvdError
from spinquench.graded import (
    SINGULAR_VALUE_FLOOR,
    SchmidtSpectrum,
    block_svd,
    gauged_rows,
    merged_truncate,
)
from spinquench.itebd import QuenchConfig, evolve_to, neel_init
from spinquench.threads import helper_threads
from oracles import GradedMatrix, block_svd_reference, merged_truncate_reference, to_dense


def random_graded(rng, shift, row_dims):
    blocks = {}
    for q, rd in row_dims.items():
        cd = rng.integers(1, 4)
        blocks[(q, q + shift)] = rng.standard_normal((rd, cd)) + 1j * rng.standard_normal(
            (rd, cd)
        )
    return GradedMatrix(shift, blocks)


def test_selection_rule_rejected():
    with pytest.raises(ValueError):
        GradedMatrix(1, {(0, 0): np.ones((1, 1))})


def test_block_svd_matches_dense_svd():
    rng = np.random.default_rng(11)
    theta = random_graded(rng, 1, {-1: 3, 0: 4, 1: 2})
    spec, factors = block_svd(theta)
    assert list(factors) == list(theta.blocks)
    # singular values of the blocked decomposition, merged, must equal
    # the singular values of the dense block-diagonal embedding
    dense = to_dense(theta)
    s_dense = np.linalg.svd(dense, compute_uv=False)
    s_dense = s_dense[s_dense > 1e-13]
    s_block = sorted(spec._ranked[1], reverse=True)
    assert np.allclose(sorted(s_dense, reverse=True)[: len(s_block)], s_block)
    # y has orthonormal rows, theta y^dagger = x diag(spectrum) has the
    # singular values as column norms, and (theta y^dagger) y = theta
    for q, arr in theta.blocks.items():
        u, vh = factors[q]
        vh = gauged_rows(u, vh, vh.shape[0])
        assert np.allclose(vh @ vh.conj().T, np.eye(vh.shape[0]), atol=1e-12)
        xs = arr @ vh.conj().T
        assert np.allclose(np.linalg.norm(xs, axis=0), spec.blocks[q], atol=1e-12)
        assert np.allclose(xs @ vh, arr, atol=1e-12)


def test_block_svd_phase_gauge():
    rng = np.random.default_rng(12)
    theta = random_graded(rng, 0, {0: 4})
    spec, factors = block_svd(theta)
    vh = gauged_rows(*factors[0], spec.blocks[0].size)
    u = theta.block(0) @ vh.conj().T / spec.blocks[0]
    for col in u.T:
        lead = col[np.argmax(np.abs(col))]
        assert abs(lead.imag) < 1e-12 and lead.real > 0


def _complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _shaped(kind):
    """A three-sector matrix of tall, wide or rank-deficient blocks."""
    rng = np.random.default_rng(21)
    blocks = {}
    for q in (-1, 0, 2):
        if kind == "tall":
            blocks[(q, q + 1)] = _complex(rng, 9, 4)
        elif kind == "wide":
            blocks[(q, q + 1)] = _complex(rng, 4, 9)
        else:
            blocks[(q, q + 1)] = _complex(rng, 7, 2) @ _complex(rng, 2, 6)
    return GradedMatrix(1, blocks)


@pytest.mark.parametrize("kind", ["tall", "wide", "rank-deficient"])
def test_block_svd_matches_reference_bit_for_bit(kind):
    theta = _shaped(kind)
    spec, factors = block_svd(theta)
    _x, ref_spec, ref_y = block_svd_reference(theta)
    assert list(spec.blocks) == list(ref_spec.blocks)
    assert list(factors) == list(ref_y.blocks)
    for q in theta.blocks:
        assert np.array_equal(spec.blocks[q], ref_spec.blocks[q])
        ref_rows = ref_y.block(q)
        for n in (1, ref_rows.shape[0]):
            assert np.array_equal(gauged_rows(*factors[q], n), ref_rows[:n])


def test_block_svd_reports_failure():
    bad = GradedMatrix(0, {(0, 0): np.full((2, 2), np.nan)})
    with pytest.raises(SvdError):
        block_svd(bad)


def _k32_thetas(monkeypatch):
    """Every theta a k=32 evolution to t=2 decomposes."""
    thetas, decompose = [], itebd.block_svd

    def recorded(theta):
        thetas.append(theta)
        return decompose(theta)

    monkeypatch.setattr(itebd, "block_svd", recorded)
    evolve_to(neel_init(), 2.0, QuenchConfig(delta=0.5, dt=0.0625, k_max=32))
    monkeypatch.setattr(itebd, "block_svd", decompose)
    return thetas


@pytest.mark.parametrize("kind", ["tall", "wide", "rank-deficient", "k32-evolution"])
def test_block_svd_on_helpers_matches_inline_bit_for_bit(three_cpus, monkeypatch, kind):
    # with helpers open the sectors of a matrix are dealt into a share
    # per CPU, at most one per sector, of which this thread decomposes
    # one; each sector decomposes to the bits it has inline
    thetas = _k32_thetas(monkeypatch) if kind == "k32-evolution" else [_shaped(kind)]
    for theta in thetas:
        spec, factors = block_svd(theta)
        three_cpus.clear()
        with helper_threads():
            spec_t, factors_t = block_svd(theta)
        threads = [thread for thread, _arrays in three_cpus]
        assert len(threads) == min(3, len(theta.blocks))
        assert threads.count(threading.current_thread()) == 1
        assert sum(len(arrays) for _thread, arrays in three_cpus) == len(theta.blocks)
        assert list(spec_t.blocks) == list(spec.blocks)
        assert list(factors_t) == list(factors)
        for q in spec.blocks:
            assert np.array_equal(spec_t.blocks[q], spec.blocks[q])
            u, vh = factors[q]
            u_t, vh_t = factors_t[q]
            assert np.array_equal(u_t, u) and np.array_equal(vh_t, vh)


def test_block_svd_failure_on_a_helper_names_its_sector(three_cpus):
    # a sector that does not converge on a helper raises from the calling
    # thread with the message it raises inline; the deal is longest
    # first, so the smallest of three sectors goes to the second helper
    rng = np.random.default_rng(22)
    theta = GradedMatrix(0, {
        (0, 0): _complex(rng, 6, 6),
        (1, 1): _complex(rng, 5, 5),
        (2, 2): np.full((2, 3), np.nan),
    })
    with pytest.raises(SvdError) as inline:
        block_svd(theta)
    assert str(inline.value) == "SVD did not converge in sector 2 (2x3)"
    three_cpus.clear()
    with helper_threads(), pytest.raises(SvdError) as threaded:
        block_svd(theta)
    assert str(threaded.value) == str(inline.value)
    assert isinstance(threaded.value.__cause__, np.linalg.LinAlgError)
    (failed_on,) = [t for t, arrays in three_cpus if np.isnan(arrays[0]).any()]
    assert failed_on is not threading.current_thread()


def test_merged_truncate_hand_case():
    # hand-computed: global top-3 of {q0: .5, .3; q1: .5, .2; q-1: .3}
    # rank by (-w, |q|, q): .5@0, .5@1, .3@0 kept; dropped .3@-1, .2@1
    spec = SchmidtSpectrum({0: [0.5, 0.3], 1: [0.5, 0.2], -1: [0.3]})
    new, report = merged_truncate(spec, 3)
    assert report.kept_per_sector == {0: 2, 1: 1}
    assert report.discarded_weight == pytest.approx(0.3**2 + 0.2**2, abs=1e-15)
    kept_raw = np.array([0.5, 0.3, 0.5])
    norm = np.sqrt((kept_raw**2).sum())
    assert np.allclose(sorted(new._ranked[1]), sorted(kept_raw / norm))
    assert new.total_weight == pytest.approx(1.0, abs=1e-14)


def test_spectrum_ranking_is_built_once():
    spec = SchmidtSpectrum({0: [0.5, 0.3], 1: [0.5, 0.2], -1: [0.3]})
    charges, values, index = spec._ranked
    assert list(zip(charges.tolist(), values.tolist(), index.tolist())) == [
        (0, 0.5, 0), (1, 0.5, 0), (0, 0.3, 1), (-1, 0.3, 0), (1, 0.2, 1)
    ]
    assert spec._ranked is spec._ranked
    assert spec.weights is spec.weights
    assert np.array_equal(spec.weights, [w * w for w in values.tolist()])
    assert not spec.weights.flags.writeable


def test_merged_truncate_floor_drops_roundoff():
    spec = SchmidtSpectrum({0: [1.0, 0.5 * SINGULAR_VALUE_FLOOR]})
    new, report = merged_truncate(spec, 5)
    assert new.sector_dims == {0: 1}
    assert report.discarded_weight == pytest.approx(
        (0.5 * SINGULAR_VALUE_FLOOR) ** 2, rel=1e-12
    )


def test_merged_truncate_kept_is_prefix():
    rng = np.random.default_rng(13)
    blocks = {q: np.sort(rng.random(5))[::-1] for q in (-1, 0, 1)}
    spec = SchmidtSpectrum(blocks)
    new, report = merged_truncate(spec, 7)
    assert sum(report.kept_per_sector.values()) == 7
    for q, kept in report.kept_per_sector.items():
        if kept:
            # kept values are the first `kept` of the sector's sorted list
            scale = np.sqrt(1.0 - report.discarded_weight / spec.total_weight)
            assert np.allclose(
                new.blocks[q], blocks[q][:kept] / np.sqrt(spec.total_weight) / scale
            )


@pytest.mark.parametrize("k_max", [1, 3, 10, 25, 40, 200])
def test_merged_truncate_matches_walk_bit_for_bit(k_max):
    # exact ties across sectors at several ranks, a floored tail in one
    # sector and a sector that lies wholly under the floor
    rng = np.random.default_rng(22)
    shared = rng.random(6)
    tiny = SINGULAR_VALUE_FLOOR * rng.random(5)
    blocks = {
        -2: np.concatenate([shared, rng.random(4)]),
        -1: np.concatenate([shared[:3], rng.random(6), tiny[:3]]),
        0: rng.random(12),
        1: np.concatenate([shared, [shared[0]], rng.random(3)]),
        2: np.concatenate([shared[3:], tiny[3:]]),
        3: tiny[:2],
    }
    spec = SchmidtSpectrum(blocks)
    new, report = merged_truncate(spec, k_max)
    ref, ref_report = merged_truncate_reference(SchmidtSpectrum(blocks), k_max)
    assert report.discarded_weight == ref_report.discarded_weight
    assert report.kept_per_sector == ref_report.kept_per_sector
    assert list(new.blocks) == list(ref.blocks)
    for q, vals in ref.blocks.items():
        assert np.array_equal(new.blocks[q], vals)


def test_spectrum_entropy():
    spec = SchmidtSpectrum({0: [np.sqrt(0.5)], 1: [np.sqrt(0.5)]})
    assert spec.entropy() == pytest.approx(np.log(2.0), abs=1e-14)
