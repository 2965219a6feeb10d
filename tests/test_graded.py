"""Charge-blocked linear algebra against dense references."""

import threading

import numpy as np
import pytest

from spinquench import graded, itebd, threads
from spinquench.errors import SvdError
from spinquench.graded import (
    SINGULAR_VALUE_FLOOR,
    SchmidtSpectrum,
    SiteTensor,
    block_svd,
    gauged_rows,
    merged_truncate,
)
from spinquench.itebd import DN, UP, QuenchConfig, evolve_to, neel_init
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


def test_site_tensor_keeps_the_matrices_it_is_given():
    rng = np.random.default_rng(5)
    up = {2: rng.standard_normal((2, 3)) + 0j, -1: rng.standard_normal((1, 2)) + 0j,
          0: np.zeros((3, 0), dtype=complex), 5: None}
    down = {0: rng.standard_normal((3, 2)) + 0j, 2: None,
            -1: np.zeros((0, 4), dtype=complex), 7: np.zeros((2, 0), dtype=complex)}
    tensor = SiteTensor([0, -1], up, down)
    # None, empty and column-less matrices are left out, charges ascend
    assert tensor.shifts == (0, -1)
    assert list(tensor.parts) == [-1, 0, 2]
    assert tensor.parts[-1][0] is up[-1] and tensor.parts[-1][1] is None
    assert tensor.parts[0][0] is None and tensor.parts[0][1] is down[0]
    assert tensor.parts[2][0] is up[2] and tensor.parts[2][1] is None
    assert tensor.block(UP, 2) is up[2] and tensor.block(DN, 2) is None
    assert tensor.block(UP, 5) is None and tensor.block(DN, 7) is None
    assert list(tensor.spin(UP)) == [-1, 2] and list(tensor.spin(DN)) == [0]
    assert tensor.dims == ((-1, 1, 2, 0), (0, 3, 0, 2), (2, 2, 3, 0))


def test_site_tensor_dims_of_the_desk_state(k128_t4_state):
    # the slot table the pair plans are cached by, as the side-by-side
    # layout gave it for the desk profile's k=128 state at t=4
    state = k128_t4_state
    assert state.a_a.dims == (
        (-3, 1, 4, 0), (-2, 9, 17, 4), (-1, 25, 34, 17), (0, 38, 38, 34),
        (1, 34, 25, 38), (2, 17, 9, 25), (3, 4, 1, 9),
    )
    assert state.a_b.dims == (
        (-3, 4, 9, 1), (-2, 17, 25, 9), (-1, 34, 38, 25), (0, 38, 34, 38),
        (1, 25, 17, 34), (2, 9, 4, 17), (3, 1, 0, 4),
    )
    # rows are the left bond's sector sizes, columns the right bond's
    for i in (0, 1):
        tensor, left, right = state.site(i), state.bond(i - 1), state.bond(i)
        for q, rows, *cols in tensor.dims:
            assert rows == left.sector_dims[q]
            assert cols == [right.sector_dims.get(q + d, 0) for d in tensor.shifts]


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
    """Every theta a k=32 evolution to t=2 decomposes, as plain blocked matrices."""
    thetas, decompose = [], itebd.block_svd

    def recorded(theta):
        # the same blocks without the queue the update put them on
        thetas.append(GradedMatrix(0, theta.blocks))
        return decompose(theta)

    monkeypatch.setattr(itebd, "block_svd", recorded)
    evolve_to(neel_init(), 2.0, QuenchConfig(delta=0.5, dt=0.0625, k_max=32))
    monkeypatch.setattr(itebd, "block_svd", decompose)
    return thetas


@pytest.mark.parametrize("kind", ["tall", "wide", "rank-deficient", "k32-evolution"])
def test_block_svd_on_helpers_matches_inline_bit_for_bit(three_cpus, monkeypatch, kind):
    # with helpers open the sectors of a matrix are queued for this
    # thread and the two helpers, each decomposed exactly once, on at
    # most one thread per sector; each decomposes to the bits it has
    # inline
    thetas = _k32_thetas(monkeypatch) if kind == "k32-evolution" else [_shaped(kind)]
    for theta in thetas:
        spec, factors = block_svd(theta)
        three_cpus.clear()
        with helper_threads():
            spec_t, factors_t = block_svd(theta)
        ran_on = {thread for thread, _arr in three_cpus}
        assert len(ran_on) <= min(3, len(theta.blocks))
        assert sorted(id(arr) for _thread, arr in three_cpus) == sorted(map(id, theta.blocks.values()))
        assert list(spec_t.blocks) == list(spec.blocks)
        assert list(factors_t) == list(factors)
        for q in spec.blocks:
            assert np.array_equal(spec_t.blocks[q], spec.blocks[q])
            u, vh = factors[q]
            u_t, vh_t = factors_t[q]
            assert np.array_equal(u_t, u) and np.array_equal(vh_t, vh)


@pytest.mark.parametrize("works", [[30_000], [5_000, 5_000], [10_000, 10_000], [10_000] * 5],
                         ids=["one sector", "below THREAD_WORK", "two sectors", "five sectors"])
def test_sector_svds_has_helpers_for_two_sectors_from_thread_work(monkeypatch, works):
    # on three CPUs: none for one sector or below THREAD_WORK, else at
    # most one thread per sector
    monkeypatch.setattr(threads, "usable_cpus", lambda: 3)
    with helper_threads():
        n_threads = graded.sector_svds(works).n_helpers + 1
    enough = len(works) > 1 and sum(works) >= graded.THREAD_WORK
    assert n_threads == (min(3, len(works)) if enough else 1)


def test_block_svd_puts_a_whole_matrix_largest_first(monkeypatch):
    # a matrix given without a queue has its sectors put by svd_work,
    # largest first, ties in charge order; the results come back by charge
    rng = np.random.default_rng(23)
    shapes = {0: (2, 3), 1: (5, 5), 2: (4, 4), 3: (3, 2), 4: (4, 4)}
    theta = GradedMatrix(0, {(q, q): _complex(rng, *shape) for q, shape in shapes.items()})
    puts, made = [], graded.sector_svds

    def recorded(works):
        svds = made(works)
        put = svds.put
        svds.put = lambda q, arr, work: (puts.append(q), put(q, arr, work))
        return svds

    monkeypatch.setattr(graded, "sector_svds", recorded)
    spec, factors = block_svd(theta)
    assert puts == [1, 2, 4, 0, 3]
    assert list(spec.blocks) == list(factors) == [0, 1, 2, 3, 4]
    for q, arr in theta.blocks.items():
        assert np.array_equal(spec.blocks[q], np.linalg.svd(arr, full_matrices=False)[1])


def test_block_svd_failure_on_a_helper_names_its_sector(three_cpus, monkeypatch):
    # a sector that does not converge on a helper raises from the calling
    # thread with the message it raises inline. With one helper, each
    # thread holds its first sector: the helper until this thread has
    # started one, this thread until the failing sector is decomposed.
    # The sectors start longest first, so the failing one, the smallest
    # of three, is neither thread's first and is left to the helper
    rng = np.random.default_rng(22)
    theta = GradedMatrix(0, {
        (0, 0): _complex(rng, 6, 6),
        (1, 1): _complex(rng, 5, 5),
        (2, 2): np.full((2, 3), np.nan),
    })
    with pytest.raises(SvdError) as inline:
        block_svd(theta)
    assert str(inline.value) == "SVD did not converge in sector 2 (2x3)"
    monkeypatch.setattr(threads, "usable_cpus", lambda: 2)
    here, watched = threading.current_thread(), graded._decompose
    started, failed = threading.Event(), threading.Event()

    def held(arr):
        if np.isnan(arr).any():
            out = watched(arr)
            failed.set()
            return out
        if threading.current_thread() is here:
            started.set()
            assert failed.wait(10)
        else:
            assert started.wait(10)
        return watched(arr)

    monkeypatch.setattr(graded, "_decompose", held)
    three_cpus.clear()
    with helper_threads(), pytest.raises(SvdError) as threaded:
        block_svd(theta)
    assert str(threaded.value) == str(inline.value)
    assert isinstance(threaded.value.__cause__, np.linalg.LinAlgError)
    (failed_on,) = [t for t, arr in three_cpus if np.isnan(arr).any()]
    assert failed_on is not here
    assert len(three_cpus) == 3


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
