"""Independent reference routes that only the tests use.

Each oracle forgets a structure the package relies on: dense matrices
instead of charge blocks, the full 2^n window space instead of one
total-Sz sector, scipy's sparse exponential instead of the Taylor
series, one circuit window at a time instead of a stack of them, and
at delta = 0 the exact free-fermion window instead of any sampling,
a Python sort instead of the spectrum's ranking, every boundary pair
instead of the sampled ones, one sample walked at a time instead of
all samples level by level. numpy_uniforms, numpy's generator of
(master_seed, sample_id), is no route of the package: it only makes
uniforms that tests feed to the sampler. A test that compares the
package against one of these checks the structure itself. The
boundary-pair enumeration assembles its windows with the package's
stack assembler, so a test that sums over it checks that assembler.

A few are bit-exact pins instead: earlier, simpler routes of a kernel
the package now batches or builds another way (scipy's COO route to a
sector Hamiltonian, the complex Taylor product, the spin walk one
charge group and spin at a time, the bond update as four graded C
matrices fused afterwards, the circuit's boundary sum and sampled
estimator one pair at a time). The batched kernel must equal its pin
bit for bit. GradedMatrix, the per-spin form of a site's matrices,
lives here because only those routes compute with it.
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.sparse.linalg import expm_multiply

from spinquench.circuit import _boundary_matrices
from spinquench.errors import ConfigError
from spinquench.graded import SINGULAR_VALUE_FLOOR, SchmidtSpectrum, TruncationReport
from spinquench.itebd import DN, UP, _pair_roles
from spinquench.sampler import (
    TAIL_FLOOR,
    _branch_probabilities,
    _central_charges,
    _draw_rows,
    _root_groups,
    assemble_window_stacks,
    boundary_spectrum,
)
from spinquench.window import WindowState, _sector_basis, _site_bits


def _sorted_block_dict(blocks):
    return {q: blocks[q] for q in sorted(blocks)}


class GradedMatrix:
    """A charge-conserving linear map between bond spaces.

    Blocks are keyed by (row charge, column charge) on input and every
    key must satisfy col = row + charge_shift; anything else is rejected.
    Internally one dense block is kept per row charge. Instances are
    treated as immutable after construction. The package stores site
    matrices as SiteTensors; this is the per-spin form the reference
    routes below compute with.
    """

    __slots__ = ("charge_shift", "blocks")

    def __init__(self, charge_shift: int, blocks=None):
        self.charge_shift = int(charge_shift)
        stored = {}
        for key, arr in (blocks or {}).items():
            if isinstance(key, tuple):
                q_row, q_col = key
                if q_col != q_row + self.charge_shift:
                    raise ValueError(
                        f"block ({q_row}, {q_col}) violates the selection rule "
                        f"for charge_shift {self.charge_shift}"
                    )
            else:
                q_row = key
            arr = np.asarray(arr, dtype=complex)
            if arr.ndim != 2:
                raise ValueError("graded matrix blocks must be 2d")
            if arr.size:
                stored[int(q_row)] = arr
        self.blocks = _sorted_block_dict(stored)

    def block(self, q_row):
        return self.blocks.get(q_row)

    def items(self):
        """Yield ((row charge, col charge), block) in sorted row order."""
        for q, arr in self.blocks.items():
            yield (q, q + self.charge_shift), arr

    @property
    def col_dims(self):
        return {q + self.charge_shift: b.shape[1] for q, b in self.blocks.items()}


def spin_matrix(tensor, s):
    """One spin's matrices of a SiteTensor as a GradedMatrix of views."""
    return GradedMatrix(tensor.shifts[s], tensor.spin(s))


def spin_matrices(tensor):
    """(up, down) GradedMatrix views of a SiteTensor."""
    return spin_matrix(tensor, UP), spin_matrix(tensor, DN)


class SectorLayout:
    """Fixed ordering of a charged space: sectors ascending by charge."""

    __slots__ = ("charges", "dims", "offsets", "total")

    def __init__(self, sector_dims):
        self.charges = sorted(sector_dims)
        self.dims = {q: int(sector_dims[q]) for q in self.charges}
        self.offsets = {}
        off = 0
        for q in self.charges:
            self.offsets[q] = off
            off += self.dims[q]
        self.total = off

    def offset(self, q):
        return self.offsets[q]

    def position(self, q, index):
        return self.offsets[q] + index


def to_dense(matrix, row_layout=None, col_layout=None):
    """A GradedMatrix as an ordinary matrix, the grading forgotten.

    Layouts are SectorLayout instances; when omitted they are built from
    the matrix's own dims.
    """
    row_layout = row_layout or SectorLayout(
        {q: b.shape[0] for q, b in matrix.blocks.items()}
    )
    col_layout = col_layout or SectorLayout(matrix.col_dims)
    dense = np.zeros((row_layout.total, col_layout.total), dtype=complex)
    for q_row, arr in matrix.blocks.items():
        r0 = row_layout.offset(q_row)
        c0 = col_layout.offset(q_row + matrix.charge_shift)
        dense[r0 : r0 + arr.shape[0], c0 : c0 + arr.shape[1]] = arr
    return dense


def right_normalization_deviation(state) -> float:
    """Max-norm deviation of sum_s A(s) A(s)^dagger from the identity."""
    worst = 0.0
    for tensors, bond in ((state.site(i), state.bond(i - 1)) for i in (0, 1)):
        acc = {}
        for s in (UP, DN):
            for q_row, arr in tensors.spin(s).items():
                g = arr @ arr.conj().T
                acc[q_row] = acc.get(q_row, 0.0) + g
        for q, dim in bond.sector_dims.items():
            g = acc.get(q)
            if g is None:
                worst = max(worst, 1.0)
                continue
            worst = max(worst, float(np.max(np.abs(g - np.eye(dim)))))
    return worst


def _parse_config(initial):
    if isinstance(initial, str):
        table = {"u": 1, "d": 0, "1": 1, "0": 0}
        try:
            return [table[ch] for ch in initial.lower()]
        except KeyError:
            raise ConfigError(f"unrecognized spin character in {initial!r}") from None
    bits = [int(b) for b in initial]
    if any(b not in (0, 1) for b in bits):
        raise ConfigError("spin configuration entries must be 0/1 or u/d")
    return bits


def alternating_config(n_sites: int, start_up: bool = True) -> str:
    """Alternating u/d string of the given length."""
    a, b = ("u", "d") if start_up else ("d", "u")
    return "".join(a if j % 2 == 0 else b for j in range(n_sites))


def dense_reference_evolve(initial, delta: float, t_grid) -> list:
    """Reference evolution of a small open chain from a product state.

    Propagates the full sector state vector with scipy's sparse matrix
    exponential (no Taylor cutoff, no window) and returns a list of
    (t, per-site <Sz> array) at the requested ascending times, t = 0
    being the initial product state. Chains up to 20 sites.
    """
    bits = _parse_config(initial)
    n_sites = len(bits)
    if not 2 <= n_sites <= 20:
        raise ConfigError(f"chain length must be in [2, 20], got {n_sites}")
    n_up = sum(bits)
    basis = _sector_basis(n_sites, n_up)
    h = coo_chain_hamiltonian(n_sites, delta, basis)
    x0 = 0
    for b in bits:
        x0 = (x0 << 1) | b
    pos = int(np.searchsorted(basis, x0))
    v = np.zeros(basis.size, dtype=complex)
    v[pos] = 1.0
    signs = np.stack(
        [_site_bits(basis, n_sites, j).astype(float) - 0.5 for j in range(n_sites)],
        axis=1,
    )
    out = []
    t_prev = 0.0
    for t in t_grid:
        t = float(t)
        if t < -1e-12 or t < t_prev - 1e-12:
            raise ConfigError("t_grid must be ascending and nonnegative")
        if t > t_prev + 1e-15:
            v = expm_multiply((-1j * (t - t_prev)) * h, v)
            t_prev = t
        p = np.abs(v) ** 2
        out.append((t, p @ signs))
    return out


def _hopping_propagators(n_sites, times):
    """exp(-i h t) at each t, for the open chain h = (1/2) sum (|j><j+1| + h.c.)."""
    e, v = eigh(0.5 * (np.eye(n_sites, k=1) + np.eye(n_sites, k=-1)))
    return [(v * np.exp(-1j * e * t)) @ v.T for t in times]


def free_fermion_window_sz0(l, t_init, times, margin=60):
    """Exact expectation of the window estimator's <Sz0> at delta = 0.

    At delta = 0 the chain is free fermions with hopping 1/2 (Jordan-
    Wigner), so the 2l+1 window's state is Gaussian and fixed by its
    correlations C_ij = <c_i^+ c_j>. C(t_init) = G* C0 G^T on an open
    chain of 2(l + margin) + 1 sites, with G = exp(-i h t_init) and C0
    the Neel occupations (site 0 up); its window block C_W is then
    evolved by the window's own open hopping, g = exp(-i h_W (t - t_init)).
    Excitations travel at speed 1, so a margin far above t_init keeps
    the chain's ends from reaching the window.
    """
    half = l + margin
    occupied = (np.arange(2 * half + 1) - half) % 2 == 0
    g0, = _hopping_propagators(2 * half + 1, [t_init])
    c = (g0.conj() * occupied) @ g0.T
    c_w = c[half - l:half + l + 1, half - l:half + l + 1]
    gs = _hopping_propagators(2 * l + 1, np.asarray(times) - t_init)
    return np.array([(g.conj() @ c_w @ g.T)[l, l].real - 0.5 for g in gs])


def full_amplitudes(psi):
    """A sector-stored stack scattered into the full 2^n space, one row per state."""
    amps = np.zeros((psi.amplitudes.shape[0], 1 << psi.n_sites), dtype=complex)
    amps[:, psi.basis] = psi.amplitudes
    return amps


def _bond_layouts(state, spec):
    """SectorLayout for every bond from the left boundary to the right."""
    layouts = {-spec.l: SectorLayout(boundary_spectrum(state, spec).sector_dims)}
    for site in range(-spec.l, spec.l + 1):
        tensors = state.site(site)
        dims = {}
        for s in (UP, DN):
            dims.update(spin_matrix(tensors, s).col_dims)
        layouts[site + 1] = SectorLayout(dims)
    return layouts


def dense_window_amplitudes(state, spec, alpha, beta):
    """Window amplitudes via dense matrices, no charge bookkeeping."""
    l = spec.l
    layouts = _bond_layouts(state, spec)
    start = np.zeros(layouts[-l].total, dtype=complex)
    start[layouts[-l].position(*alpha)] = 1.0
    lefts = [start]
    for site in range(-l, 1):
        tensors = state.site(site)
        dense = {
            s: to_dense(spin_matrix(tensors, s), layouts[site], layouts[site + 1])
            for s in (UP, DN)
        }
        nxt = []
        for vec in lefts:
            for bit in (0, 1):  # prefix code appends the new bit at the bottom
                s = UP if bit else DN
                nxt.append(vec @ dense[s])
        # reorder so index c has bit (site - (-l)) ... matches blocked code
        lefts = [None] * len(nxt)
        for p, vec in enumerate(nxt):
            old, bit = divmod(p, 2)
            lefts[(old << 1) | bit] = vec
    end = np.zeros(layouts[l + 1].total, dtype=complex)
    end[layouts[l + 1].position(*beta)] = 1.0
    level = [end]
    for site in range(l, 0, -1):
        tensors = state.site(site)
        dense = {
            s: to_dense(spin_matrix(tensors, s), layouts[site], layouts[site + 1])
            for s in (UP, DN)
        }
        depth = l - site
        nxt = [None] * (2 * len(level))
        for p, vec in enumerate(level):
            for s, bit in ((UP, 1), (DN, 0)):
                nxt[(bit << depth) | p] = dense[s] @ vec
        level = nxt
    rights = level
    amps = np.zeros(1 << (2 * l + 1), dtype=complex)
    for cl, lvec in enumerate(lefts):
        for cr, rvec in enumerate(rights):
            amps[(cl << l) | cr] = lvec @ rvec
    return amps


def coo_chain_hamiltonian(n_sites, delta, basis):
    """Open XXZ chain on a sector basis by scipy's COO route.

    The hopping entries go through csr_matrix((vals, (rows, cols))) and
    the diagonal is added as sp.diags, so scipy sorts the columns,
    drops the diagonal entries that sum to zero and picks the index
    dtype. Pins the package's direct CSR build bit for bit.
    """
    dim = basis.size
    bits = np.stack([_site_bits(basis, n_sites, j) for j in range(n_sites)])
    szs = bits.astype(float) - 0.5
    diag = np.zeros(dim)
    rows, cols, vals = [], [], []
    idx = np.arange(dim)
    for j in range(n_sites - 1):
        diag += delta * szs[j] * szs[j + 1]
        differ = bits[j] != bits[j + 1]
        if not np.any(differ):
            continue
        flip = (1 << (n_sites - 1 - j)) | (1 << (n_sites - 2 - j))
        pos = np.searchsorted(basis, basis[differ] ^ flip)
        rows.append(idx[differ])
        cols.append(pos)
        vals.append(np.full(pos.size, 0.5))
    if rows:
        rows, cols, vals = map(np.concatenate, (rows, cols, vals))
    h = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
    return (h + sp.diags(diag)).tocsr()


def complex_taylor_step(psi, h, delta_t, n_max):
    """taylor_step with each order's product taken on the complex stack.

    Pins the package's real-view product bit for bit; rows are
    renormalized as taylor_step renormalizes them, with no drift guard.
    """
    _basis, h_sec = h.sector(psi.total_sz_sector)
    acc = psi.amplitudes.T.astype(complex, order="C")
    term = acc
    for order in range(1, n_max + 1):
        term = h_sec @ term
        term = term * (-1j * delta_t / order)
        acc = acc + term
    rows = acc.T.copy()
    for row in rows:
        row /= float(np.linalg.norm(row))
    return WindowState(rows, psi.n_sites, psi.total_sz_sector)


def enumerate_boundary_pairs(state, spec):
    """Yield (alpha, beta, weight, WindowState stack of one) over all boundary pairs.

    Every left x right boundary pair whose partials share a central-bond
    charge is assembled by one call of the package's stack assembler, in
    the stacks a run makes; the weight is lambda_alpha^2 times the raw
    squared norm the assembler returns. Summed over all pairs the weights give the norm
    of the chain state, i.e. one up to truncation residue. Pairs come in
    ascending (alpha, beta). The right boundary states are those of the
    bond right of site l. Exhaustive, so only sensible at small l and
    bond dimension; the Monte Carlo path exists precisely because this
    loop is exponential in the boundary entropy.
    """
    spectrum = boundary_spectrum(state, spec)
    right_dims = state.bond(spec.l).sector_dims
    left_reach = {qa: _central_charges(state, spec, qa, False) for qa in spectrum.blocks}
    right_reach = {qb: _central_charges(state, spec, qb, True) for qb in right_dims}
    pairs = np.array([
        (qa, ia, qb, ib)
        for qa, lam in spectrum.blocks.items()
        for ia in range(lam.size)
        for qb, d_b in right_dims.items()
        if left_reach[qa] & right_reach[qb]
        for ib in range(d_b)
    ], dtype=np.int64).reshape(-1, 4)
    assembled = [None] * len(pairs)
    for ids, psi, norms in assemble_window_stacks(state, spec, pairs):
        for j, r in enumerate(ids.tolist()):
            one = WindowState(psi.amplitudes[j:j + 1], psi.n_sites, psi.total_sz_sector)
            assembled[r] = one, float(norms[j])
    for (qa, ia, qb, ib), (psi, norm2) in zip(pairs.tolist(), assembled):
        lam = spectrum.blocks[qa][ia]
        yield (qa, ia), (qb, ib), float(lam * lam) * norm2, psi


def ranked_entries(spectrum):
    """[(charge, value, index-within-sector)] of a spectrum by a Python sort.

    Descending value; ties go to the charge nearer zero, then the more
    negative charge, then the earlier position.
    """
    return sorted(
        (
            (q, float(w), i)
            for q, vals in spectrum.blocks.items()
            for i, w in enumerate(vals)
        ),
        key=lambda e: (-e[1], abs(e[0]), e[0], e[2]),
    )


def numpy_uniforms(master_seed, sample_id, n):
    """n test uniforms from numpy's generator of (master_seed, sample_id)."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, sample_id))).random(n)


def _pick(weights, u):
    """Index drawn with probability weights[i] / sum(weights) by the uniform u."""
    k = int(np.searchsorted(np.cumsum(weights), u * weights.sum(), side="right"))
    return min(k, weights.size - 1)


def _walk_step(state, site, q, vec):
    """(candidates, norms) of both spins at a site for the row vec in sector q."""
    tensors = state.site(site)
    cands, norms = {}, {}
    for s in (UP, DN):
        block = tensors.block(s, q)
        cands[s] = None if block is None else (q + tensors.shifts[s], vec @ block)
        norms[s] = 0.0 if block is None else float(np.vdot(cands[s][1], cands[s][1]).real)
    return cands, norms


def _tail_step(state, spec, split, depth, q, vec, heavy):
    """(candidates, norms, tail weights) of both spins at window depth `depth`.

    A heavy node (its alpha in A) weighs a candidate c by |c|^2 less
    c E_B c^dagger, one quadratic form per candidate, clamped at the
    TAIL_FLOOR; any other node by |c|^2.
    """
    cands, norms = _walk_step(state, depth - spec.l, q, vec)
    weights = dict(norms)
    env = split.envs[depth + 1]
    for s in (UP, DN):
        if heavy and cands[s] is not None and cands[s][0] in env:
            kq, c = cands[s]
            w = norms[s] - float(np.real(c @ env[kq] @ c.conj()))
            weights[s] = 0.0 if w <= TAIL_FLOOR * norms[s] else w
    return cands, norms, weights


def _tail_beta_weights(split, q, vec, heavy):
    """Squared moduli of a last row, with B's entries zeroed for a heavy node."""
    weights = np.abs(vec) ** 2
    if heavy and q in split.heavy_right:
        weights[split.heavy_right[q]] = 0.0
    return weights


def _tail_roots(state, spec, split):
    """[(alpha, tail weight, heavy)] of the left boundary, ranked by ranked_entries.

    A state outside A weighs lambda^2; one in A takes the split's tail
    weight at its rank, so a ranking that differs from the package's
    misplaces it.
    """
    roots = []
    entries = ranked_entries(boundary_spectrum(state, spec))
    for (q, w, i), tail in zip(entries, split.alpha_weights.tolist()):
        heavy = q in split.heavy_left and bool(split.heavy_left[q][i])
        roots.append(((q, i), tail if heavy else w * w, heavy))
    return roots


def tail_walk(state, spec, split, u):
    """(alpha, beta) of one sample of the tail draw from its 2l+3 uniforms.

    One sample at a time with dense quadratic forms: alpha by the
    split's tail weights, then each spin and beta from the conditionals
    of _tail_step and _tail_beta_weights, every one computed anew. With
    S empty (semistochastic_split(state, spec)) it is the plain walk:
    alpha by lambda^2, each spin by |c|^2, beta by the last row's moduli.
    """
    roots = _tail_roots(state, spec, split)
    u_alpha, *spins, u_beta = np.asarray(u).tolist()
    (q, i), _w, heavy = roots[_pick(np.array([w for _a, w, _h in roots]), u_alpha)]
    alpha = (q, i)
    vec = np.zeros(boundary_spectrum(state, spec).sector_dims[q], dtype=complex)
    vec[i] = 1.0
    for depth, x in enumerate(spins):
        cands, norms, weights = _tail_step(state, spec, split, depth, q, vec, heavy)
        p_up, _p_dn = _branch_probabilities(weights[UP], weights[DN])
        pick = UP if x < p_up else DN
        q, vec = cands[pick]
        vec = vec * (1.0 / math.sqrt(norms[pick]))
    return alpha, (q, _pick(_tail_beta_weights(split, q, vec, heavy), u_beta))


def tail_pair_distribution(state, spec, split):
    """{(alpha, beta): probability} of the tail draw, every branch followed.

    The exact law of tail_walk: the product of the alpha weight over the
    total and of every conditional on the way, summed over the spin
    paths that end in each pair.
    """
    roots = _tail_roots(state, spec, split)
    total = sum(w for _a, w, _h in roots)
    n_sites = 2 * spec.l + 1
    out = {}

    def follow(alpha, heavy, q, vec, depth, prob):
        if depth == n_sites:
            weights = _tail_beta_weights(split, q, vec, heavy)
            for i in np.flatnonzero(weights).tolist():
                key = (alpha, (q, i))
                out[key] = out.get(key, 0.0) + prob * weights[i] / weights.sum()
            return
        cands, norms, weights = _tail_step(state, spec, split, depth, q, vec, heavy)
        for s, p in zip((UP, DN), _branch_probabilities(weights[UP], weights[DN])):
            if p > 0.0:
                kq, c = cands[s]
                follow(alpha, heavy, kq, c / math.sqrt(norms[s]), depth + 1, prob * float(p))

    dims = boundary_spectrum(state, spec).sector_dims
    for (q, i), w, heavy in roots:
        if w > 0.0:
            vec = np.zeros(dims[q], dtype=complex)
            vec[i] = 1.0
            follow((q, i), heavy, q, vec, 0, w / total)
    return out


def per_group_walk_chunk(state, spec, alphas, u, split):
    """sampler._walk_chunk numbering a level's kids group by group, S empty.

    Each charge group of a level takes its own pass over the samples
    that reached it, and each spin its own np.unique of the chosen
    nodes; the kids of a charge are the parts of its parent groups, in
    ascending parent charge, UP before DN. Pins the one-pass walk bit
    for bit: same roots, same rows in the same order, same products.
    """
    assert not split.heavy_left and not split.heavy_right
    roots, node = np.unique(alphas, axis=0, return_inverse=True)
    node = node.reshape(-1)
    groups = _root_groups(boundary_spectrum(state, spec).sector_dims, roots)
    for depth, site in enumerate(range(-spec.l, spec.l + 1)):
        tensors = state.site(site)
        kids = {}
        start = 0
        while groups:
            q, rows = groups.pop(0)
            mine = np.flatnonzero((node >= start) & (node < start + rows.shape[0]))
            at = node[mine] - start
            start += rows.shape[0]
            cands, norms = [None, None], np.zeros((2, rows.shape[0]))
            for s in (UP, DN):
                block = tensors.block(s, q)
                if block is not None:
                    c = cands[s] = rows @ block
                    norms[s] = np.einsum("ij,ij->i", c.conj(), c).real
            p_up, _p_dn = _branch_probabilities(norms[UP], norms[DN])
            spin = np.where(u[mine, depth] < p_up[at], UP, DN)
            for s in (UP, DN):
                took = spin == s
                if took.any():
                    picked, kid = np.unique(at[took], return_inverse=True)
                    kid_rows = cands[s][picked] * (1.0 / np.sqrt(norms[s, picked]))[:, None]
                    kids.setdefault(q + tensors.shifts[s], []).append((mine[took], kid, kid_rows))
        start = 0
        for q in sorted(kids):
            parts = kids.pop(q)
            for samples, kid, kid_rows in parts:
                node[samples] = start + kid
                start += kid_rows.shape[0]
            groups.append((q, np.concatenate([kid_rows for _s, _k, kid_rows in parts])))
    beta_q = np.empty(node.size, dtype=np.int64)
    beta_i = np.empty(node.size, dtype=np.int64)
    start = 0
    for q, rows in groups:
        mine = np.flatnonzero((node >= start) & (node < start + rows.shape[0]))
        beta_q[mine] = q
        beta_i[mine] = _draw_rows(np.abs(rows) ** 2, node[mine] - start, u[mine, -1])
        start += rows.shape[0]
    return beta_q, beta_i


def block_svd_reference(theta):
    """(x, spectrum, y) of each sector, the phase fixed column by column.

    The left factor x is kept, and the phase that makes the largest-
    magnitude entry of each of its columns real and positive is found
    in a Python loop and moved into the matching row of y.
    """
    x_blocks, s_blocks, y_blocks = {}, {}, {}
    for q_row, arr in theta.blocks.items():
        u, s, vh = np.linalg.svd(arr, full_matrices=False)
        for j in range(u.shape[1]):
            k = int(np.argmax(np.abs(u[:, j])))
            mag = abs(u[k, j])
            if mag > 0.0:
                phase = u[k, j] / mag
                u[:, j] *= phase.conjugate()
                vh[j, :] *= phase
        x_blocks[q_row] = u
        s_blocks[q_row] = s
        y_blocks[q_row] = vh
    return (
        GradedMatrix(0, x_blocks),
        SchmidtSpectrum(s_blocks),
        GradedMatrix(theta.charge_shift, y_blocks),
    )


def merged_truncate_reference(spectrum, k_max):
    """merged_truncate as a walk over a Python-sorted list of all values."""
    merged = ranked_entries(spectrum)
    floor = merged[0][1] * SINGULAR_VALUE_FLOOR
    discarded = 0.0
    survivors = []
    for q, w, i in merged:
        if w < floor:
            discarded += w * w
        else:
            survivors.append((q, w, i))
    for _, w, _ in survivors[k_max:]:
        discarded += w * w
    kept_vals = {}
    for q, w, _ in survivors[:k_max]:
        kept_vals.setdefault(q, []).append(w)
    report = TruncationReport(
        discarded_weight=discarded,
        kept_per_sector={q: len(kept_vals[q]) for q in sorted(kept_vals)},
    )
    return SchmidtSpectrum(kept_vals).normalized(), report


def _dagger(matrix):
    return GradedMatrix(
        -matrix.charge_shift,
        {q + matrix.charge_shift: arr.conj().T for q, arr in matrix.blocks.items()},
    )


def _matmul(a, b):
    """Blockwise product of two graded matrices."""
    out = {}
    for q_row, arr in a.blocks.items():
        other = b.blocks.get(q_row + a.charge_shift)
        if other is not None:
            out[q_row] = arr @ other
    return GradedMatrix(a.charge_shift + b.charge_shift, out)


def _add(a, b):
    """Blockwise sum of two graded matrices of the same shift."""
    if a.charge_shift != b.charge_shift:
        raise ValueError("cannot add matrices with different charge shifts")
    out = dict(a.blocks)
    for q, arr in b.blocks.items():
        out[q] = out[q] + arr if q in out else arr
    return GradedMatrix(a.charge_shift, out)


def _scaled(matrix, factor):
    return GradedMatrix(
        matrix.charge_shift, {q: b * factor for q, b in matrix.blocks.items()}
    )


def _gate_contraction(gate, left, right, shifts_left, shifts_right):
    """C(s_l, s_r) = sum_{a,b} U[(s_l,s_r),(a,b)] A_left(a) A_right(b),
    as four graded matrices summed one scaled product at a time."""
    prods = {}
    for a in (UP, DN):
        for b in (UP, DN):
            p = _matmul(left[a], right[b])
            if p.blocks:
                prods[(a, b)] = p
    c = {}
    for sl in (UP, DN):
        for sr in (UP, DN):
            acc = GradedMatrix(shifts_left[sl] + shifts_right[sr], {})
            for (a, b), p in prods.items():
                coeff = gate[2 * sl + sr, 2 * a + b]
                if coeff != 0.0:
                    acc = _add(acc, _scaled(p, coeff))
            c[(sl, sr)] = acc
    return c


def _fuse(c, shifts_left, shifts_right):
    """The four C matrices grouped into one block per middle charge.

    Returns the fused graded matrix and the row and column layouts,
    (spin, bond charge, offset, size) per middle charge.
    """
    row_dims, col_dims = {}, {}
    for (sl, sr), mat in c.items():
        for (q_row, q_col), arr in mat.items():
            row_dims.setdefault((sl, q_row), arr.shape[0])
            col_dims.setdefault((sr, q_col), arr.shape[1])
    row_groups, col_groups = {}, {}
    for (sl, q_row), d in sorted(row_dims.items()):
        row_groups.setdefault(q_row + shifts_left[sl], []).append((sl, q_row, d))
    for (sr, q_col), d in sorted(col_dims.items()):
        col_groups.setdefault(q_col - shifts_right[sr], []).append((sr, q_col, d))

    fused_blocks, row_layout, col_layout = {}, {}, {}
    for qm in sorted(set(row_groups) & set(col_groups)):
        rows, off = [], 0
        for sl, q_row, d in row_groups[qm]:
            rows.append((sl, q_row, off, d))
            off += d
        cols, coff = [], 0
        for sr, q_col, d in col_groups[qm]:
            cols.append((sr, q_col, coff, d))
            coff += d
        dense = np.zeros((off, coff), dtype=complex)
        for sl, q_row, r0, rd in rows:
            for sr, q_col, c0, cd in cols:
                arr = c[(sl, sr)].block(q_row)
                if arr is not None:
                    dense[r0 : r0 + rd, c0 : c0 + cd] = arr
        fused_blocks[qm] = dense
        row_layout[qm] = rows
        col_layout[qm] = cols
    return GradedMatrix(0, fused_blocks), row_layout, col_layout


def fused_pair_reference(state, gate, which):
    """(C blocks, theta, row layout, col layout) of a pair, formed as
    four graded C matrices, fused, then scaled row sector by row sector."""
    left, right, lam_mult = _pair_roles(state, which)
    sh_l, sh_r = left.shifts, right.shifts
    left, right = spin_matrices(left), spin_matrices(right)
    fused_c, row_layout, col_layout = _fuse(
        _gate_contraction(gate, left, right, sh_l, sh_r), sh_l, sh_r
    )
    theta = {}
    for qm, block in fused_c.blocks.items():
        lam_rows = [lam_mult.blocks[q_row] for _sl, q_row, _r0, _rd in row_layout[qm]]
        theta[qm] = block * np.concatenate(lam_rows)[:, None]
    return fused_c.blocks, GradedMatrix(0, theta), row_layout, col_layout


def expect_pair_observable_reference(state, op4):
    """<O> for a 4x4 observable on one A-B pair of the unit cell.

    <O> = sum O[t,s] tr(lambda^2 P(s) P(t)^+) with P(s) = A_A(s_left)
    A_B(s_right), summed term by term with einsum.
    """
    lam = state.bond(-1)
    prods = {}
    for sa in (UP, DN):
        for sb in (UP, DN):
            p = _matmul(spin_matrix(state.site(0), sa), spin_matrix(state.site(1), sb))
            if p.blocks:
                prods[(sa, sb)] = p
    val = 0.0j
    for (sa, sb), p1 in prods.items():
        for (ta, tb), p2 in prods.items():
            coeff = op4[2 * ta + tb, 2 * sa + sb]
            if coeff == 0.0 or p1.charge_shift != p2.charge_shift:
                continue
            acc = 0.0j
            for q_row, b1 in p1.blocks.items():
                b2 = p2.blocks.get(q_row)
                if b2 is None:
                    continue
                w2 = lam.blocks[q_row] ** 2
                acc += np.einsum("i,ij,ij->", w2, b1, b2.conj())
            val += coeff * acc
    return float(val.real)


def update_bond_reference(state, gate, which, k_max):
    """update_bond with theta scaled per C block before fusing, the
    reference SVD and truncation walk, and the left tensor rebuilt as
    the graded sum over right spins of C(sl, sr) A_right(sr)^dagger.

    Returns (left tensors, right tensors, spectrum, report).
    """
    left, right, lam_mult = _pair_roles(state, which)
    sh_l, sh_r = left.shifts, right.shifts
    c = _gate_contraction(gate, spin_matrices(left), spin_matrices(right), sh_l, sh_r)
    theta = {
        key: GradedMatrix(
            mat.charge_shift,
            {q: arr * lam_mult.blocks[q][:, None] for q, arr in mat.blocks.items()},
        )
        for key, mat in c.items()
    }
    fused, _row_layout, col_layout = _fuse(theta, sh_l, sh_r)
    _x, spec_raw, y = block_svd_reference(fused)
    spec_new, report = merged_truncate_reference(spec_raw, k_max)
    renorm = math.sqrt(spec_raw.total_weight - report.discarded_weight)
    right_blocks = {UP: {}, DN: {}}
    for qm, kept in report.kept_per_sector.items():
        vh = y.block(qm)[:kept, :]
        for sr, q_col, c0, cd in col_layout[qm]:
            right_blocks[sr][(qm, q_col)] = vh[:, c0 : c0 + cd]
    right_new = tuple(GradedMatrix(sh_r[sr], right_blocks[sr]) for sr in (UP, DN))
    left_new = []
    for sl in (UP, DN):
        acc = GradedMatrix(sh_l[sl], {})
        for sr in (UP, DN):
            if right_new[sr].blocks and c[(sl, sr)].blocks:
                acc = _add(acc, _matmul(c[(sl, sr)], _dagger(right_new[sr])))
        left_new.append(_scaled(acc, 1.0 / renorm))
    return tuple(left_new), right_new, spec_new, report


def _window_value(circuit, regions, lvec, rvec) -> float:
    """<Sz> on the measured qubit of one boundary product window."""
    w_lo = regions.w_lo
    width = regions.w_hi - w_lo + 1
    psi = np.kron(lvec, rvec)
    psi = psi / np.linalg.norm(psi)
    for t, i in regions.core + regions.late:
        shaped = psi.reshape(1 << (i - w_lo), 4, -1)
        psi = np.einsum("st,atb->asb", circuit.gate(t, i), shaped).reshape(psi.size)
    up = psi.reshape(1 << (circuit.measured - w_lo), 2, -1)[:, 0, :]
    return float(np.vdot(up, up).real) - 0.5


def lightcone_sum_per_pair(circuit, bits=None) -> float:
    """The boundary sum of circuit.lightcone_expectation_sum, one pair at a time."""
    regions, lmat, rmat, lw, rw = _boundary_matrices(circuit, bits)
    total = 0.0
    for alpha in np.nonzero(lw > 0.0)[0]:
        for beta in np.nonzero(rw > 0.0)[0]:
            val = _window_value(circuit, regions, lmat[alpha], rmat[:, beta])
            total += lw[alpha] * rw[beta] * val
    return total


def lightcone_sampled_per_pair(circuit, n_samples, rng, bits=None):
    """circuit.lightcone_expectation_sampled with a per-pair value cache.

    Draws the same configurations from the same rng, so with an equal
    seed it must give the package's (mean, stderr) up to round-off.
    """
    regions, lmat, rmat, lw, rw = _boundary_matrices(circuit, bits)
    alphas = rng.choice(lw.size, size=n_samples, p=lw / lw.sum())
    betas = rng.choice(rw.size, size=n_samples, p=rw / rw.sum())
    cache = {}
    vals = np.empty(n_samples)
    for k, (alpha, beta) in enumerate(zip(alphas, betas)):
        key = (int(alpha), int(beta))
        if key not in cache:
            cache[key] = _window_value(circuit, regions, lmat[alpha], rmat[:, beta])
        vals[k] = cache[key]
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_samples))
