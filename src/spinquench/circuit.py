"""Brickwork circuits and exact light-cone contraction of one observable.

A depth-T brickwork circuit on an even number of qubits applies layers
of disjoint two-qubit gates, odd layers on pairs (0,1), (2,3), ... and
even layers on pairs (1,2), (3,4), .... For the central-qubit
expectation after the final layer, three routes are provided:

* direct statevector contraction of the whole circuit,
* an exact sum over boundary configurations of a reduced window,
* Monte Carlo over the same boundary configurations.

The window route mirrors the matrix-product sampling estimator. Gates
outside the measured qubit's backward light cone drop exactly. The
early half of the cone splits into a cut-crossing core C (the forward
closure, within the cone, of early gates straddling the central cut)
and side groups B and D that act entirely left and right of the cut;
every B or D gate commutes with every chronologically earlier core
gate, because the closure would otherwise have absorbed it, so the
early cone reorders exactly into (core) x (B tensor D). With a product
initial state, B and D only enter through the reduced state of the
window W spanned by the core, the late cone gates A, and the measured
qubit. Writing the B-evolved left half as a matrix over (configuration
outside W, configuration inside W) and likewise for D, the reduced
state is an exact mixture of product states indexed by the outside
configurations (alpha, beta) with weight ||L_alpha||^2 ||R_beta||^2,
and the observable is the weighted sum of pure window expectations
after applying C then A.

Both window routes evaluate their pairs together: the normalized
windows of every needed (alpha, beta) pair form one C-contiguous
(2^w, pairs) stack, and one gate kernel, apply_gate, serves a single
statevector and such a stack alike. A window of w qubits has 2^w_lo
alpha and 2^(n-1-w_hi) beta configurations, so the windows of all
distinct pairs hold at most 2^n amplitudes, never more than the direct
statevector.

Every route fuses its gates before they touch a state (the few-qubit
blocks of statevector simulators, Haener & Steiger, arXiv:1704.01127).
Walking the gates in time order, a gate joins the latest block that
touches either of its qubits while that block still spans at most
FUSED_QUBITS adjacent qubits, and opens a new block otherwise. A gate
thus moves only past blocks on disjoint qubits, so the order of the
gates on each qubit is kept. A block's 2^q x 2^q unitary is its gates
applied to the identity, and apply_gate applies it in one pass over
the state; on an n = 18, depth-10 circuit the direct route makes 23
passes instead of 85, and the window 5 instead of 30.

Each route opens threads.helper_threads() once per call, and its
helpers are joined when it returns or raises. Inside, apply_gate splits a
pass into near-equal contiguous shares, one per thread its
threads.queue may use (at most one per usable CPU, none smaller than
SHARE_AMPLITUDES), and puts them on it: the helpers start them as they
are put and the calling thread runs what is left. The batched form is
split by its 2^i products (by columns where there are fewer products
than shares), the last-qubits GEMM by rows. Each share is one
np.matmul into its part of a single output. A product share makes each
product as inline does, so it cannot move a bit. A row or column run
starts on a multiple of SPLIT_GRANULE, a kernel boundary of the whole
product, so each amplitude comes out of the kernel that makes it
inline; that part was checked by brute force on OpenBLAS 0.3.31, whose
kernels' unroll widths divide SPLIT_GRANULE, not derived for every
BLAS build.

Every route keeps its large arrays in one workspace per thread: two
flat complex buffers, held in a threading.local, grown to the largest
size asked for on that thread and never shrunk. The direct route
writes its product state into one buffer and a window route builds
each stack block in one; every gate pass then writes into the other,
so the passes ping-pong between the two buffers, within a call and
from one call to the next. A fresh array of a few MB costs its first
write one page fault per 4 kB page (about 2 us each), which a reused
buffer does not; the gain is for repeated calls in one process
(sweeps, tests, the benchmark), as a one-shot circuit-demo process
still touches its buffers once. So every thread that ran a route keeps
two buffers after it returns: at most 2 x 2^DIRECT_QUBIT_LIMIT x 16 B
= 32 MB, unless one window pair is wider than DIRECT_QUBIT_LIMIT.
Nothing a route returns points into them.

Bit convention: qubit 0 is the most significant bit of a configuration
index, bit value 0 means spin up, so a two-qubit basis index is
2 b_left + b_right in the gate basis (up-up, up-down, down-up,
down-down).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import threads
from .errors import ConfigError, check_int

#: Maximum statevector width, in qubits. It bounds the direct route's
#: state, each column block of a window stack, and each half state of
#: the window routes (checked before either half is built), and so the
#: workspace buffers, 2 x 2^DIRECT_QUBIT_LIMIT x 16 B = 32 MB per
#: thread, where no window pair is wider than this.
DIRECT_QUBIT_LIMIT = 20

#: Widest block of adjacent qubits that the gate fuser builds. Chosen
#: from per-circuit times of the direct and summed routes at n = 18,
#: depth 10 (table in CHANGES.md): 5 qubits beat 3 and 4 on both, and
#: 6 gained nothing more.
FUSED_QUBITS = 5

#: Fewest amplitudes apply_gate puts in one share: a pass's queue may
#: use at most psi.size // SHARE_AMPLITUDES threads, so below twice
#: this it runs inline and opens no queue, even with helpers open.
#: Handing a share to a helper and joining it costs about 60 us; split
#: in two, passes of 2^14 amplitudes or fewer lost at every block width
#: and passes of 2^16 won (ROADMAP, Baseline: gate passes on threads).
SHARE_AMPLITUDES = 1 << 15

#: A split GEMM's rows or columns are cut into runs of whole multiples
#: of this many, so each run starts on a kernel boundary of the whole
#: matrix. A BLAS kernel rounds a tail shorter than its unroll width
#: differently: with OpenBLAS 0.3.31 on AVX-512, column runs that were
#: not a multiple of 4 moved bits, and so did a single row, which numpy
#: hands to gemv.
SPLIT_GRANULE = 16

#: Allowed deviation from unitarity for supplied gates.
UNITARITY_TOL = 1e-12


def haar_gate(rng) -> np.ndarray:
    """Haar-distributed 4x4 unitary via QR with a fixed phase gauge."""
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _check_gate(u) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ConfigError(f"two-qubit gates must be 4x4, got {u.shape}")
    dev = np.max(np.abs(u.conj().T @ u - np.eye(4)))
    if dev > UNITARITY_TOL:
        raise ConfigError(f"gate deviates from unitarity by {dev:.3e}")
    return u


class BrickworkCircuit:
    """An even-width brickwork circuit; layers[t] holds (left qubit, gate)."""

    def __init__(self, n_qubits: int, layers):
        n_qubits = check_int(n_qubits, "n_qubits", 2)
        if n_qubits % 2:
            raise ConfigError(f"n_qubits must be even and >= 2, got {n_qubits}")
        self.n_qubits = n_qubits
        checked = []
        for t, layer in enumerate(layers):
            offset = t % 2
            row = []
            for i, u in layer:
                if i % 2 != offset or not 0 <= i < n_qubits - 1:
                    raise ConfigError(
                        f"layer {t} may not hold a gate at qubits ({i}, {i + 1})"
                    )
                row.append((int(i), _check_gate(u)))
            row.sort(key=lambda g: g[0])
            checked.append(tuple(row))
        self.layers = tuple(checked)
        self._lookup = {
            (t, i): u for t, layer in enumerate(self.layers) for i, u in layer
        }

    def gate(self, t: int, i: int) -> np.ndarray:
        return self._lookup[(t, i)]

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def measured(self) -> int:
        return self.n_qubits // 2

    @classmethod
    def random(cls, n_qubits: int, depth: int, rng) -> "BrickworkCircuit":
        """Full brickwork of independent Haar gates.

        The layers are drawn as __init__ reads them, after it has
        checked n_qubits.
        """
        layers = (
            [(i, haar_gate(rng)) for i in range(t % 2, n_qubits - 1, 2)]
            for t in range(check_int(depth, "depth", 1))
        )
        return cls(n_qubits, layers)


def _config_index(bits) -> int:
    """Basis index of a computational configuration, qubit 0 the top bit."""
    if any(b not in (0, 1) for b in bits):
        raise ConfigError(f"product state bits must be 0 (up) or 1 (down), got {bits}")
    idx = 0
    for b in bits:
        idx = (idx << 1) | int(b)
    return idx


def product_state(bits) -> np.ndarray:
    """Statevector of a computational product configuration."""
    idx = _config_index(bits)
    psi = np.zeros(1 << len(bits), dtype=complex)
    psi[idx] = 1.0
    return psi


def neel_bits(n_qubits: int):
    """Alternating configuration, up on even qubits."""
    return tuple(i % 2 for i in range(n_qubits))


def _product(operands):
    """One share of a pass: np.matmul of its (left, right, out) views."""
    left, right, out = operands
    np.matmul(left, right, out=out)


def apply_gate(psi: np.ndarray, i: int, u: np.ndarray, out=None) -> np.ndarray:
    """Apply a 2^q x 2^q gate to qubits i..i+q-1 of a statevector.

    psi may carry a trailing stack axis, (2^n, columns), C-contiguous;
    the gate acts on every column alike. A gate on the last qubits of a
    single state leaves a trailing axis of 1, where the batched matmul
    would make 2^i matrix-vector products; there it is one GEMM.

    The result is written into out and out returned, where out is
    given: a C-contiguous array of psi's shape that shares no memory
    with psi (ValueError otherwise). Without it, a new array is.

    A pass of at least twice SHARE_AMPLITUDES goes on a threads.queue
    of at most one thread per SHARE_AMPLITUDES; where that queue has
    helpers (inside threads.helper_threads()), the pass is split into
    one near-equal contiguous share per thread it may use and each
    share put on it, one np.matmul into its part of one output: the
    batched form by its 2^i products (by columns, in SPLIT_GRANULE
    runs, where there are fewer products than shares), the GEMM by rows,
    in SPLIT_GRANULE runs; otherwise the pass is one np.matmul here.
    Each output entry is then made from the same inputs as inline, and
    by the same kernel where the BLAS's kernel boundaries fall on
    SPLIT_GRANULE multiples (module docstring).
    """
    if out is None:
        out = np.empty(psi.shape, dtype=np.result_type(psi, u))
    elif out.shape != psi.shape or not out.flags.c_contiguous or np.may_share_memory(psi, out):
        raise ValueError("out must be a C-contiguous array of psi's shape, apart from psi")
    d = u.shape[0]
    rows = psi.size >> i == d
    if rows:
        left, right, target = psi.reshape(-1, d), u.T, out.reshape(-1, d)
    else:
        left, right, target = u, psi.reshape(1 << i, d, -1), out.reshape(1 << i, d, -1)
    most = psi.size // SHARE_AMPLITUDES
    queued = threads.queue(_product, most) if most > 1 else None
    n_shares = 1 if queued is None else queued.n_helpers + 1
    if n_shares < 2:
        np.matmul(left, right, out=target)
        return out
    if rows:
        parts = _split(left, target, 0, n_shares, SPLIT_GRANULE)
        shares = [(part, right, part_out) for part, part_out in parts]
    else:
        axis, granule = (0, 1) if right.shape[0] >= n_shares else (2, SPLIT_GRANULE)
        parts = _split(right, target, axis, n_shares, granule)
        shares = [(left, part, part_out) for part, part_out in parts]
    for k, share in enumerate(shares):
        queued.put(k, share, share[2].size)
    queued.results()
    return out


def _split(operand, out, axis, n_shares, granule):
    """(operand, out) views of at most n_shares near-equal runs along axis.

    Every run but the last is a whole number of granules long, and
    there are no more runs than whole granules in the axis.
    """
    length = operand.shape[axis]
    n_shares = max(1, min(n_shares, length // granule))
    bounds = [length * k // n_shares // granule * granule for k in range(n_shares)] + [length]
    key = (slice(None),) * axis
    return [(operand[key + (slice(lo, hi),)], out[key + (slice(lo, hi),)])
            for lo, hi in zip(bounds, bounds[1:])]


def _fusion_groups(gates):
    """Group (left qubit, gate) pairs, in time order, into fusable blocks.

    Returns [lo, hi, members] lists, in the order to apply them, each
    spanning hi - lo + 1 <= FUSED_QUBITS adjacent qubits and holding
    its (left qubit, gate) pairs in time order. A gate joins the latest
    block touching either of its qubits if the block then still fits,
    and opens a new block otherwise, so it only moves past blocks on
    disjoint qubits.
    """
    groups = []
    for i, u in gates:
        latest = next((g for g in reversed(groups) if g[0] <= i + 1 and i <= g[1]), None)
        if latest is not None and max(latest[1], i + 1) - min(latest[0], i) < FUSED_QUBITS:
            latest[0], latest[1] = min(latest[0], i), max(latest[1], i + 1)
            latest[2].append((i, u))
        else:
            groups.append([i, i + 1, [(i, u)]])
    return groups


def _fused(gates):
    """Yield (lowest qubit, 2^q x 2^q unitary) of each fusion group, for apply_gate."""
    for lo, hi, members in _fusion_groups(gates):
        block = np.eye(1 << (hi + 1 - lo), dtype=complex)
        for i, u in members:
            block = apply_gate(block, i - lo, u)
        yield lo, block


#: Each thread's pair of workspace buffers, once it has asked for one.
_workspace = threading.local()


def _buffers(size: int):
    """The calling thread's two flat complex buffers, of at least size amplitudes each.

    They are replaced by larger ones when size outgrows them, never by
    smaller ones, and hold whatever the thread's last pass left there.
    """
    pair = getattr(_workspace, "pair", None)
    if pair is None or pair[0].size < size:
        _workspace.pair = None  # the old pair is freed before the new one is made
        pair = _workspace.pair = (np.empty(size, dtype=complex), np.empty(size, dtype=complex))
    return pair


def _run_passes(psi: np.ndarray, spare: np.ndarray, gates) -> np.ndarray:
    """psi after the (lowest qubit, unitary) gates, in psi's memory or spare's.

    Each pass reads one of the two and writes into the other.
    """
    for i, u in gates:
        psi, spare = apply_gate(psi, i, u, out=spare), psi
    return psi


def _sz_at(psi: np.ndarray, i: int) -> np.ndarray:
    """<Sz> of qubit i, one value per column of a stack (0-d for a state).

    The squares of the real and imaginary parts of the up amplitudes
    are summed by einsum straight from psi, with no temporary of psi's
    size.
    """
    columns = psi.shape[1:]
    parts = psi.view(np.float64).reshape(1 << i, 2, -1, 2 * math.prod(columns))[:, 0]
    if not columns:  # one reduction over contiguous runs, not a loop over (re, im)
        return np.einsum("abc,abc->", parts, parts) - 0.5
    squares = np.einsum("abc,abc->c", parts, parts)
    return squares.reshape(*columns, 2).sum(axis=-1) - 0.5


def _input_bits(circuit: BrickworkCircuit, bits):
    """The given input bits, checked against the width, or the Neel bits."""
    n = circuit.n_qubits
    if bits is None:
        return neel_bits(n)
    if len(bits) != n:
        raise ConfigError(f"expected {n} bits, got {len(bits)}")
    return bits


def direct_expectation(circuit: BrickworkCircuit, bits=None) -> float:
    """Central <Sz> after the full circuit, by dense statevector."""
    n = circuit.n_qubits
    if n > DIRECT_QUBIT_LIMIT:
        raise ConfigError(
            f"direct route limited to {DIRECT_QUBIT_LIMIT} qubits, got {n}"
        )
    index = _config_index(_input_bits(circuit, bits))
    psi, spare = (buffer[: 1 << n] for buffer in _buffers(1 << n))
    psi.fill(0.0)
    psi[index] = 1.0
    with threads.helper_threads():
        psi = _run_passes(psi, spare, _fused(gate for layer in circuit.layers for gate in layer))
    return float(_sz_at(psi, circuit.measured))


@dataclass(frozen=True)
class CircuitRegions:
    """Light-cone split of a circuit around its measured qubit.

    Gate groups are chronologically ordered (layer, left qubit) pairs:
    core crosses the central cut during the early layers, left and
    right are the remaining early cone gates on their respective
    halves, late is the cone part of layers >= t_split. The window
    [w_lo, w_hi] spans core, late and the measured qubit.
    """

    t_split: int
    core: tuple
    left: tuple
    right: tuple
    late: tuple
    w_lo: int
    w_hi: int


def build_regions(circuit: BrickworkCircuit) -> CircuitRegions:
    n, m = circuit.n_qubits, circuit.measured
    depth = circuit.depth
    t_split = math.ceil(depth / 2)

    cone_qubits = {m}
    cone = set()
    for t in range(depth - 1, -1, -1):
        for i, _u in circuit.layers[t]:
            if i in cone_qubits or i + 1 in cone_qubits:
                cone.add((t, i))
                cone_qubits.update((i, i + 1))

    core, left, right, late = [], [], [], []
    core_qubits = set()
    for t in range(depth):
        for i, _u in circuit.layers[t]:
            if (t, i) not in cone:
                continue
            if t >= t_split:
                late.append((t, i))
            elif (i == m - 1) or i in core_qubits or i + 1 in core_qubits:
                core.append((t, i))
                core_qubits.update((i, i + 1))
            elif i + 1 < m:
                left.append((t, i))
            else:
                right.append((t, i))

    window = {m} | core_qubits
    for t, i in late:
        window.update((i, i + 1))
    return CircuitRegions(
        t_split=t_split,
        core=tuple(core),
        left=tuple(left),
        right=tuple(right),
        late=tuple(late),
        w_lo=min(window),
        w_hi=max(window),
    )


def _half_state(circuit, gates, bits, lo, hi) -> np.ndarray:
    """Evolve the product state on qubits lo..hi with the given gates."""
    psi = product_state(bits[lo : hi + 1])
    for i, u in _fused((i - lo, circuit.gate(t, i)) for t, i in gates):
        psi = apply_gate(psi, i, u)
    return psi


def _boundary_matrices(circuit, bits):
    """Regions, boundary matrices and boundary weights of a circuit.

    The left half evolves under the left gates and is reshaped with the
    qubits below w_lo as the row index; row alpha is the unnormalized
    window-side state paired with outside configuration alpha. The
    right half is reshaped with the qubits above w_hi as the column
    index. The weights lw and rw are the squared norms of those rows
    and columns. Returns (regions, lmat, rmat, lw, rw).
    """
    bits = _input_bits(circuit, bits)
    n, m = circuit.n_qubits, circuit.measured
    if n - m > DIRECT_QUBIT_LIMIT:
        raise ConfigError(
            f"the window routes build half states of {n - m} qubits, over the "
            f"{DIRECT_QUBIT_LIMIT}-qubit limit; n may be at most {2 * DIRECT_QUBIT_LIMIT}"
        )
    regions = build_regions(circuit)
    lmat = _half_state(circuit, regions.left, bits, 0, m - 1)
    lmat = lmat.reshape(1 << regions.w_lo, 1 << (m - regions.w_lo))
    rmat = _half_state(circuit, regions.right, bits, m, n - 1)
    rmat = rmat.reshape(1 << (regions.w_hi + 1 - m), 1 << (n - 1 - regions.w_hi))
    lw = np.einsum("ab,ab->a", lmat.conj(), lmat).real
    rw = np.einsum("ab,ab->b", rmat.conj(), rmat).real
    return regions, lmat, rmat, lw, rw


def _window_values(circuit, regions, lmat, rmat, alphas, betas) -> np.ndarray:
    """<Sz> on the measured qubit of each boundary product window.

    Window p pairs row alphas[p] of lmat (the qubits w_lo..m-1) with
    column betas[p] of rmat (m..w_hi); every such row and column must
    have a nonzero norm. The normalized windows go through the fused
    core and late gates as one (2^w, pairs) stack, in blocks of at most
    2^DIRECT_QUBIT_LIMIT amplitudes (one pair if a window is wider), and
    each block gathers and normalizes its own halves, so no more than a
    block's halves are held at once. Distinct pairs hold at most 2^n
    amplitudes together, so up to n = DIRECT_QUBIT_LIMIT the stack is a
    single block. Each block is built in the first workspace buffer and
    its passes ping-pong with the second.
    """
    w_lo = regions.w_lo
    width = regions.w_hi - w_lo + 1
    cone = regions.core + regions.late
    gates = list(_fused((i - w_lo, circuit.gate(t, i)) for t, i in cone))
    step = max(1, (1 << DIRECT_QUBIT_LIMIT) >> width)
    first, second = _buffers(min(step, alphas.size) << width)
    values = np.empty(alphas.size)
    for start in range(0, alphas.size, step):
        cols = slice(start, start + step)
        lc, rc = lmat[alphas[cols]].T, rmat[:, betas[cols]]
        lc = lc / np.linalg.norm(lc, axis=0)
        rc = rc / np.linalg.norm(rc, axis=0)
        size = lc.size * rc.shape[0]
        psi = first[:size].reshape(lc.shape[0], rc.shape[0], lc.shape[1])
        np.multiply(lc[:, None, :], rc[None, :, :], out=psi)
        psi = psi.reshape(1 << width, -1)
        psi = _run_passes(psi, second[:size].reshape(psi.shape), gates)
        values[cols] = _sz_at(psi, circuit.measured - w_lo)
    return values


def lightcone_expectation_sum(circuit: BrickworkCircuit, bits=None) -> float:
    """Exact central <Sz> as a weighted sum over boundary configurations."""
    with threads.helper_threads():
        regions, lmat, rmat, lw, rw = _boundary_matrices(circuit, bits)
        alphas, betas = np.nonzero(np.outer(lw > 0.0, rw > 0.0))
        values = _window_values(circuit, regions, lmat, rmat, alphas, betas)
    return float((lw[alphas] * rw[betas]) @ values)


def lightcone_expectation_sampled(
    circuit: BrickworkCircuit, n_samples: int, rng, bits=None
):
    """Monte Carlo estimate (mean, standard error) of the window sum.

    Boundary configurations are drawn independently on the two sides
    with their exact weights. The distinct drawn pairs are evaluated as
    one stack, so the cost is bounded by the number of distinct pairs,
    and their windows never hold more amplitudes than the statevector.
    """
    n_samples = check_int(n_samples, "n_samples", 1)
    with threads.helper_threads():
        regions, lmat, rmat, lw, rw = _boundary_matrices(circuit, bits)
        alphas = rng.choice(lw.size, size=n_samples, p=lw / lw.sum())
        betas = rng.choice(rw.size, size=n_samples, p=rw / rw.sum())
        keys, inverse = np.unique(alphas * rw.size + betas, return_inverse=True)
        alpha, beta = np.divmod(keys, rw.size)
        vals = _window_values(circuit, regions, lmat, rmat, alpha, beta)[inverse]
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else float("nan")
    return mean, stderr
