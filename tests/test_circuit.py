import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import lightcone_sampled_per_pair, lightcone_sum_per_pair
from spinquench import circuit as circuit_module
from spinquench.errors import ConfigError
from spinquench.circuit import (
    BrickworkCircuit,
    _fused,
    _fusion_groups,
    apply_gate,
    build_regions,
    direct_expectation,
    haar_gate,
    lightcone_expectation_sampled,
    lightcone_expectation_sum,
    neel_bits,
    product_state,
)


def _identity_circuit():
    layers = [[(i, np.eye(4, dtype=complex)) for i in range(t % 2, 5, 2)] for t in range(4)]
    return BrickworkCircuit(6, layers)


def test_haar_gate_is_unitary_and_deterministic():
    rng = np.random.default_rng(3)
    u = haar_gate(rng)
    assert u.shape == (4, 4)
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-13)
    again = haar_gate(np.random.default_rng(3))
    assert np.array_equal(u, again)
    other = haar_gate(rng)
    assert not np.allclose(u, other)


@pytest.mark.parametrize(
    "n,depth,seed",
    [(4, 1, 0), (4, 4, 1), (6, 3, 2), (6, 6, 3), (8, 5, 4), (8, 8, 5)],
)
def test_sum_matches_direct(n, depth, seed):
    rng = np.random.default_rng(seed)
    circuit = BrickworkCircuit.random(n, depth, rng)
    assert (
        abs(lightcone_expectation_sum(circuit) - direct_expectation(circuit)) < 1e-12
    )


def test_gates_outside_cone_cannot_matter():
    # independent check of the cone computed by build_regions: replacing
    # every non-cone gate with the identity must leave the outcome unchanged
    rng = np.random.default_rng(17)
    circuit = BrickworkCircuit.random(8, 6, rng)
    regions = build_regions(circuit)
    cone = set(regions.core) | set(regions.left) | set(regions.right) | set(regions.late)
    stripped_layers = []
    n_stripped = 0
    for t, layer in enumerate(circuit.layers):
        row = []
        for i, u in layer:
            if (t, i) in cone:
                row.append((i, u))
            else:
                row.append((i, np.eye(4, dtype=complex)))
                n_stripped += 1
        stripped_layers.append(row)
    stripped = BrickworkCircuit(8, stripped_layers)
    assert n_stripped > 0
    assert abs(direct_expectation(stripped) - direct_expectation(circuit)) < 1e-12


def test_region_structure():
    rng = np.random.default_rng(23)
    circuit = BrickworkCircuit.random(8, 7, rng)
    regions = build_regions(circuit)
    m = circuit.measured
    groups = {
        "core": regions.core,
        "left": regions.left,
        "right": regions.right,
        "late": regions.late,
    }
    seen = set()
    for name, group in groups.items():
        for t, i in group:
            assert (t, i) not in seen
            seen.add((t, i))
            if name == "late":
                assert t >= regions.t_split
            else:
                assert t < regions.t_split
            if name == "left":
                assert i + 1 < m  # entirely inside qubits 0..m-1
            if name == "right":
                assert i >= m  # the right half includes the measured qubit
    assert regions.w_lo <= m <= regions.w_hi
    for t, i in regions.core + regions.late:
        assert regions.w_lo <= i and i + 1 <= regions.w_hi
    # groups are chronological
    for group in groups.values():
        assert list(group) == sorted(group)


def test_identity_circuit_sampling_is_exact():
    circuit = _identity_circuit()
    # the Neel input gives one alpha and one beta of nonzero weight; the
    # others must not reach the window normalization as 0/0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summed = lightcone_expectation_sum(circuit)
        mean, stderr = lightcone_expectation_sampled(
            circuit, 50, np.random.default_rng(0)
        )
    # the Neel input leaves qubit 3 in the down state
    assert summed == pytest.approx(-0.5, abs=1e-14)
    assert mean == pytest.approx(-0.5, abs=1e-14)
    assert stderr == pytest.approx(0.0, abs=1e-14)
    assert direct_expectation(circuit) == pytest.approx(-0.5, abs=1e-14)


def test_sampled_estimator_converges():
    rng = np.random.default_rng(11)
    circuit = BrickworkCircuit.random(6, 4, rng)
    exact = direct_expectation(circuit)
    mean, stderr = lightcone_expectation_sampled(
        circuit, 4000, np.random.default_rng(99)
    )
    assert stderr < 0.02
    assert abs(mean - exact) < 4.0 * max(stderr, 1e-6)


def test_sampled_stderr_shrinks_with_samples():
    rng = np.random.default_rng(7)
    circuit = BrickworkCircuit.random(6, 4, rng)
    _m1, s1 = lightcone_expectation_sampled(circuit, 100, np.random.default_rng(1))
    _m2, s2 = lightcone_expectation_sampled(circuit, 10000, np.random.default_rng(2))
    ratio = s1 / s2
    assert 10.0 / 2.0 < ratio < 10.0 * 2.0


def test_single_sample_has_no_stderr():
    circuit = BrickworkCircuit.random(4, 2, np.random.default_rng(0))
    mean, stderr = lightcone_expectation_sampled(circuit, 1, np.random.default_rng(0))
    assert np.isfinite(mean)
    assert np.isnan(stderr)


def test_custom_bits_respected():
    circuit = BrickworkCircuit.random(6, 3, np.random.default_rng(42))
    bits = (0, 0, 0, 1, 1, 1)
    direct = direct_expectation(circuit, bits=bits)
    summed = lightcone_expectation_sum(circuit, bits=bits)
    assert abs(direct - summed) < 1e-12
    assert direct != pytest.approx(direct_expectation(circuit), abs=1e-6)


def test_apply_gate_embeds_correctly():
    # CNOT-like permutation on qubits (1, 2) of a 3-qubit register
    perm = np.zeros((4, 4))
    perm[0, 0] = perm[1, 1] = perm[2, 3] = perm[3, 2] = 1.0
    psi = product_state((0, 1, 0))
    out = apply_gate(psi, 1, perm.astype(complex))
    expected = product_state((0, 1, 1))
    assert np.allclose(out, expected)


def test_apply_gate_on_stack_matches_each_column():
    rng = np.random.default_rng(8)
    u = haar_gate(rng)
    stack = rng.standard_normal((1 << 5, 7)) + 1j * rng.standard_normal((1 << 5, 7))
    for i in range(4):
        out = apply_gate(stack, i, u)
        assert out.shape == stack.shape
        for p in range(stack.shape[1]):
            column = apply_gate(np.ascontiguousarray(stack[:, p]), i, u)
            assert np.allclose(out[:, p], column, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize(
    "n,depth,seed,bits",
    [
        (6, 3, 2, None),
        (8, 5, 4, None),
        (8, 8, 5, None),
        (10, 6, 9, None),
        (6, 3, 42, (0, 0, 0, 1, 1, 1)),
        (8, 4, 13, (1, 0, 0, 1, 1, 0, 1, 0)),
        (6, 4, None, None),
    ],
    ids=["n6", "n8-d5", "n8-d8", "n10", "bits-n6", "bits-n8", "identity"],
)
def test_stacked_estimators_match_per_pair_oracle(n, depth, seed, bits):
    if seed is None:
        circuit = _identity_circuit()
    else:
        circuit = BrickworkCircuit.random(n, depth, np.random.default_rng(seed))
    summed = lightcone_expectation_sum(circuit, bits=bits)
    assert abs(summed - lightcone_sum_per_pair(circuit, bits=bits)) <= 1e-14
    mean, stderr = lightcone_expectation_sampled(
        circuit, 3000, np.random.default_rng(21), bits=bits
    )
    ref_mean, ref_stderr = lightcone_sampled_per_pair(
        circuit, 3000, np.random.default_rng(21), bits=bits
    )
    assert abs(mean - ref_mean) <= 1e-14
    assert abs(stderr - ref_stderr) <= 1e-14


def test_column_blocks_match_one_block(monkeypatch):
    circuit = BrickworkCircuit.random(10, 6, np.random.default_rng(31))
    direct = direct_expectation(circuit)
    summed = lightcone_expectation_sum(circuit)
    sampled = lightcone_expectation_sampled(circuit, 2000, np.random.default_rng(4))
    regions = build_regions(circuit)
    width = regions.w_hi - regions.w_lo + 1
    calls = []
    sz_at = circuit_module._sz_at

    def counted(psi, i):
        calls.append(psi.shape[1])
        return sz_at(psi, i)

    monkeypatch.setattr(circuit_module, "_sz_at", counted)
    # two columns per block, then one (the limit below the window width)
    for limit in (width + 1, width - 1):
        monkeypatch.setattr(circuit_module, "DIRECT_QUBIT_LIMIT", limit)
        calls.clear()
        blocked = lightcone_expectation_sum(circuit)
        assert len(calls) > 1 and max(calls) <= max(1, 2 ** (limit - width))
        assert abs(blocked - summed) <= 1e-14
        assert abs(blocked - direct) <= 1e-12
        calls.clear()
        mean, stderr = lightcone_expectation_sampled(
            circuit, 2000, np.random.default_rng(4)
        )
        assert len(calls) > 1
        assert abs(mean - sampled[0]) <= 1e-14
        assert abs(stderr - sampled[1]) <= 1e-14


def test_window_halves_are_gathered_block_by_block(monkeypatch):
    # with the limit at the half width, every block of the n = 20,
    # depth-10 window stack holds one pair; the routes must gather each
    # block's halves as they go, never the halves of all pairs at once
    circuit = BrickworkCircuit.random(20, 10, np.random.default_rng(0))
    summed = lightcone_expectation_sum(circuit)
    sampled = lightcone_expectation_sampled(circuit, 4000, np.random.default_rng(4))
    regions, _lmat, _rmat, lw, rw = circuit_module._boundary_matrices(circuit, None)
    m = circuit.measured
    pair_bytes = 16 * (2 ** (m - regions.w_lo) + 2 ** (regions.w_hi + 1 - m))
    gathered = int(np.count_nonzero(lw)) * int(np.count_nonzero(rw)) * pair_bytes
    assert regions.w_hi - regions.w_lo + 1 == 10 and gathered == 2**20
    monkeypatch.setattr(circuit_module, "DIRECT_QUBIT_LIMIT", 10)
    tracemalloc.start()
    try:
        blocked = lightcone_expectation_sum(circuit)
        sum_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        mean, stderr = lightcone_expectation_sampled(circuit, 4000, np.random.default_rng(4))
        sampled_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum_peak < gathered and sampled_peak < gathered
    assert abs(blocked - summed) <= 1e-14
    assert abs(mean - sampled[0]) <= 1e-14 and abs(stderr - sampled[1]) <= 1e-14


def test_neel_bits():
    assert neel_bits(6) == (0, 1, 0, 1, 0, 1)
    assert product_state(neel_bits(4))[0b0101] == 1.0


def test_validation_errors():
    with pytest.raises(ConfigError):
        BrickworkCircuit(5, [])  # odd width
    with pytest.raises(ConfigError):
        BrickworkCircuit(4, [[(1, np.eye(4))]])  # wrong parity for layer 0
    with pytest.raises(ConfigError):
        BrickworkCircuit(4, [[(0, np.ones((4, 4)))]])  # not unitary
    with pytest.raises(ConfigError):
        BrickworkCircuit.random(4, 0, np.random.default_rng(0))
    # any bit that is not exactly 0 or 1, also one that int() would round
    for bits in ((0, 2, 0), (0.5, 1.7), (1, -1), ("1", 0), (0.0, 1.0000001)):
        with pytest.raises(ConfigError):
            product_state(bits)
    with pytest.raises(ConfigError):
        direct_expectation(BrickworkCircuit.random(22, 1, np.random.default_rng(0)))
    # input bits of the wrong length, on every estimator
    small = BrickworkCircuit.random(4, 2, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        direct_expectation(small, bits=(0, 1, 0))
    with pytest.raises(ConfigError):
        lightcone_expectation_sum(small, bits=(0, 1, 0))
    with pytest.raises(ConfigError):
        lightcone_expectation_sampled(small, 10, np.random.default_rng(0), bits=(0, 1, 0))
    with pytest.raises(ConfigError, match="n_samples must be >= 1, got 0"):
        lightcone_expectation_sampled(small, 0, np.random.default_rng(0))


def _gate_sequence(width, n_gates, rng):
    """Random nearest-neighbour gate positions, including both ends."""
    ends = [0, width - 2]
    return ends + list(rng.integers(0, width - 1, size=n_gates - 2)) + ends


@pytest.mark.parametrize("fused_qubits", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("width", [2, 3, 5, 8, 12])
def test_fusion_groups_keep_every_gate_and_each_qubits_order(monkeypatch, fused_qubits, width):
    monkeypatch.setattr(circuit_module, "FUSED_QUBITS", fused_qubits)
    rng = np.random.default_rng(width)
    positions = _gate_sequence(width, 40, rng)
    brickwork = [i for t in range(8) for i in range(t % 2, width - 1, 2)]
    for sequence in (positions, brickwork):
        # the gate "matrix" is the gate's time index: grouping never reads it
        groups = _fusion_groups((i, k) for k, i in enumerate(sequence))
        applied = [k for _lo, _hi, members in groups for _i, k in members]
        assert sorted(applied) == list(range(len(sequence)))
        for lo, hi, members in groups:
            assert hi - lo + 1 <= fused_qubits
            assert lo == min(i for i, _k in members)
            assert hi == max(i for i, _k in members) + 1
            assert [k for _i, k in members] == sorted(k for _i, k in members)
        for q in range(width):
            on_q = [k for _lo, _hi, members in groups for i, k in members if q in (i, i + 1)]
            assert on_q == sorted(on_q)


def _einsum_gates(psi, gates):
    """One 4x4 gate at a time, by einsum on a (2^w, columns) stack."""
    for i, u in gates:
        shaped = psi.reshape(1 << i, 4, -1)
        psi = np.einsum("st,atb->asb", u, shaped).reshape(psi.shape)
    return psi


@pytest.mark.parametrize("width", [2, 3, 4, 5, 6, 7, 8, 10, 12])
def test_fused_gates_match_unfused(width):
    rng = np.random.default_rng(100 + width)
    gates = [(int(i), haar_gate(rng)) for i in _gate_sequence(width, 3 * width, rng)]
    stack = rng.standard_normal((1 << width, 3)) + 1j * rng.standard_normal((1 << width, 3))
    expected = _einsum_gates(stack, gates)
    fused = list(_fused(gates))
    assert len(fused) < len(gates)
    for i, u in fused:
        assert i + u.shape[0].bit_length() - 1 <= width
        stack = apply_gate(stack, i, u)
    assert np.max(np.abs(stack - expected)) <= 1e-13


@pytest.mark.parametrize("q", [3, 4])
def test_apply_gate_wide_block_matches_kron_embedding(q):
    rng = np.random.default_rng(q)
    width = 7
    z = rng.standard_normal((1 << q, 1 << q)) + 1j * rng.standard_normal((1 << q, 1 << q))
    u = np.linalg.qr(z)[0]
    psi = rng.standard_normal(1 << width) + 1j * rng.standard_normal(1 << width)
    stack = rng.standard_normal((1 << width, 4)) + 1j * rng.standard_normal((1 << width, 4))
    for i in range(width - q + 1):
        full = np.kron(np.kron(np.eye(1 << i), u), np.eye(1 << (width - q - i)))
        assert np.allclose(apply_gate(psi, i, u), full @ psi, rtol=0.0, atol=1e-13)
        assert np.allclose(apply_gate(stack, i, u), full @ stack, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_apply_gate_on_the_last_qubits_matches_the_batched_route(q):
    # a gate on the last q qubits of one state leaves a trailing axis of
    # 1, which apply_gate makes one GEMM instead of 2^i batched products
    rng = np.random.default_rng(40 + q)
    width = 9
    z = rng.standard_normal((1 << q, 1 << q)) + 1j * rng.standard_normal((1 << q, 1 << q))
    u = np.linalg.qr(z)[0]
    i = width - q
    for _ in range(3):
        psi = rng.standard_normal(1 << width) + 1j * rng.standard_normal(1 << width)
        batched = np.matmul(u, psi.reshape(1 << i, 1 << q, 1)).reshape(psi.shape)
        assert np.max(np.abs(apply_gate(psi, i, u) - batched)) <= 1e-14


def test_wide_halves_rejected_before_allocation(monkeypatch):
    # a 3-qubit limit makes the 4-qubit halves of n = 8 too wide, as the
    # 32-qubit halves of n = 64 are for the real limit
    circuit = BrickworkCircuit.random(8, 4, np.random.default_rng(2))
    small = BrickworkCircuit.random(6, 4, np.random.default_rng(3))
    summed = lightcone_expectation_sum(small)
    monkeypatch.setattr(circuit_module, "DIRECT_QUBIT_LIMIT", 3)

    def refuse(bits):
        raise AssertionError("a half state was built")

    monkeypatch.setattr(circuit_module, "product_state", refuse)
    with pytest.raises(ConfigError, match="half states of 4 qubits"):
        lightcone_expectation_sum(circuit)
    with pytest.raises(ConfigError, match="half states of 4 qubits"):
        lightcone_expectation_sampled(circuit, 10, np.random.default_rng(0))
    monkeypatch.setattr(circuit_module, "product_state", product_state)
    # 3-qubit halves still fit, and the window stack goes one column a block
    assert abs(lightcone_expectation_sum(small) - summed) <= 1e-14
