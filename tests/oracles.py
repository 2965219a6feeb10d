"""Independent reference routes that only the tests use.

Each oracle forgets a structure the package relies on: dense matrices
instead of charge blocks, the full 2^n window space instead of one
total-Sz sector, scipy's sparse exponential instead of the Taylor
series, one circuit window at a time instead of a stack of them, and
at delta = 0 the exact free-fermion window instead of any sampling,
a Python sort instead of the spectrum's ranking, every boundary pair
instead of the sampled ones, and numpy's own generator per sample
instead of one stream pass over all samples. A test that compares the
package against one of these checks the structure itself.

A few are bit-exact pins instead: earlier, simpler routes of a kernel
the package now batches or builds another way (scipy's COO route to a
sector Hamiltonian, the complex Taylor product, window assembly one
pair at a time). The batched kernel must equal its pin bit for bit.
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.sparse.linalg import expm_multiply

from spinquench.circuit import _boundary_matrices
from spinquench.errors import ConfigError
from spinquench.graded import (
    SINGULAR_VALUE_FLOOR,
    GradedMatrix,
    SchmidtSpectrum,
    TruncationReport,
)
from spinquench.itebd import DN, UP, _pair_roles
from spinquench.sampler import (
    _bond_spectrum,
    _branch_probabilities,
    boundary_spectrum,
    pair_sector,
    site_shifts,
    site_tensors,
)
from spinquench.window import WindowState, _sector_basis, _site_bits


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
    for tensors, bond in ((state.a_a, state.lambda_b), (state.a_b, state.lambda_a)):
        acc = {}
        for s in (UP, DN):
            for q_row, arr in tensors[s].blocks.items():
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
    """A sector-stored window state scattered into the full 2^n space."""
    amps = np.zeros(1 << psi.n_sites, dtype=complex)
    amps[psi.basis] = psi.amplitudes
    return amps


def _bond_layouts(state, spec):
    """SectorLayout for every bond from the left boundary to the right."""
    layouts = {-spec.l: SectorLayout(boundary_spectrum(state, spec).sector_dims)}
    for site in range(-spec.l, spec.l + 1):
        tensors = site_tensors(state, site)
        dims = {}
        for s in (UP, DN):
            dims.update(tensors[s].col_dims)
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
        tensors = site_tensors(state, site)
        dense = {
            s: to_dense(tensors[s], layouts[site], layouts[site + 1]) for s in (UP, DN)
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
        tensors = site_tensors(state, site)
        dense = {
            s: to_dense(tensors[s], layouts[site], layouts[site + 1]) for s in (UP, DN)
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
    shape = psi.amplitudes.shape
    acc = psi.amplitudes.reshape(-1, shape[-1]).T.astype(complex, order="C")
    term = acc
    for order in range(1, n_max + 1):
        term = h_sec @ term
        term = term * (-1j * delta_t / order)
        acc = acc + term
    rows = acc.T.copy()
    for row in rows:
        row /= float(np.linalg.norm(row))
    return WindowState(rows.reshape(shape), psi.n_sites, psi.total_sz_sector)


def per_pair_partials(state, spec, boundary, right):
    """{central charge: (codes, rows)} of one boundary state's partials, alone.

    The partials of sampler._partials for a single root, each level a
    2-D rows @ A(s) (or A(s).T for beta) product per charge and spin.
    """
    l = spec.l
    q, index = boundary
    dims = _bond_spectrum(state, l if right else -l - 1).sector_dims
    if not 0 <= index < dims.get(q, 0):
        raise ConfigError(f"no boundary state (q={q}, index={index})")
    rows = np.zeros((1, dims[q]), dtype=complex)
    rows[0, index] = 1.0
    groups = {q: (np.zeros(1, dtype=np.int64), rows)}
    top, sites = (l, range(l, 0, -1)) if right else (0, range(-l, 1))
    for site in sites:
        tensors, shifts = site_tensors(state, site), site_shifts(site)
        kids = {}
        for q, (codes, rows) in groups.items():
            for s, bit in ((UP, 1), (DN, 0)):
                kid = q - shifts[s] if right else q + shifts[s]
                block = tensors[s].block(kid if right else q)
                if block is not None:
                    kid_codes = codes | bit << (top - site) if bit else codes
                    kids.setdefault(kid, []).append((kid_codes, rows @ (block.T if right else block)))
        groups = {
            q: parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))
            for q, parts in sorted(kids.items())
        }
    return groups


def per_pair_window_amplitudes(state, spec, alpha, beta, memo=None):
    """(n_up, unnormalized sector amplitudes) of one pair, met on its own.

    Each central-bond charge's amplitudes are one 2-D lmat @ rmat.T of
    the pair's own partials; memo, a dict, keeps partials per boundary.
    """
    l = spec.l
    memo = {} if memo is None else memo
    for right, b in ((False, tuple(alpha)), (True, tuple(beta))):
        if (right, b) not in memo:
            memo[right, b] = per_pair_partials(state, spec, b, right)
    lefts, rights = memo[False, tuple(alpha)], memo[True, tuple(beta)]
    n_up = pair_sector(spec, alpha, beta)
    basis = _sector_basis(2 * l + 1, n_up)
    amps = np.zeros(basis.size, dtype=complex)
    for q, (cl, lmat) in lefts.items():
        if q in rights:
            cr, rmat = rights[q]
            codes = ((cl[:, None] << l) | cr[None, :]).ravel()
            amps[np.searchsorted(basis, codes)] = (lmat @ rmat.T).ravel()
    return n_up, amps


def per_pair_window_state(state, spec, pair):
    """The normalized window state of one pair, assembled on its own."""
    n_up, amps = per_pair_window_amplitudes(state, spec, pair.alpha, pair.beta)
    amps /= math.sqrt(float(np.vdot(amps, amps).real))
    return WindowState(amps, 2 * spec.l + 1, n_up)


def enumerate_boundary_pairs(state, spec):
    """Yield (alpha, beta, weight, WindowState) over all boundary pairs.

    The weight is lambda_alpha^2 times the squared norm of the raw
    window amplitudes; summed over all pairs the weights give the norm
    of the chain state, i.e. one up to truncation residue. Pairs with
    zero weight are skipped. The right boundary states are read off the
    column sectors of site l's tensors. Exhaustive, so only sensible at
    small l and bond dimension; the Monte Carlo path exists precisely
    because this loop is exponential in the boundary entropy.
    """
    spectrum = boundary_spectrum(state, spec)
    tensors = site_tensors(state, spec.l)
    right_dims = {**tensors[UP].col_dims, **tensors[DN].col_dims}
    memo = {}
    for q_a, lam_vals in spectrum.blocks.items():
        for i_a, lam in enumerate(lam_vals):
            for q_b, d_b in sorted(right_dims.items()):
                for i_b in range(d_b):
                    alpha, beta = (q_a, i_a), (q_b, i_b)
                    n_up, amps = per_pair_window_amplitudes(state, spec, alpha, beta, memo)
                    norm2 = float(np.vdot(amps, amps).real)
                    weight = float(lam * lam) * norm2
                    if weight > 0.0:
                        psi = WindowState(amps / math.sqrt(norm2), 2 * spec.l + 1, n_up)
                        yield alpha, beta, weight, psi


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
    """The n uniforms of one sample from numpy's generator of (master_seed, sample_id)."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, sample_id))).random(n)


def _pick(weights, u):
    """Index drawn with probability weights[i] / sum(weights) by the uniform u."""
    k = int(np.searchsorted(np.cumsum(weights), u * weights.sum(), side="right"))
    return min(k, weights.size - 1)


class _AlphaDraw:
    """Left boundary states drawn with probability lambda^2 from a Python ranking."""

    def __init__(self, spectrum):
        self.entries = ranked_entries(spectrum)
        self.weights = np.array([w * w for _q, w, _i in self.entries])

    def __call__(self, u):
        q, _w, i = self.entries[_pick(self.weights, u)]
        return q, i


def _walk_step(state, site, q, vec):
    """(candidates, norms) of both spins at a site for the row vec in sector q."""
    tensors, shifts = site_tensors(state, site), site_shifts(site)
    cands, norms = {}, {}
    for s in (UP, DN):
        block = tensors[s].block(q)
        cands[s] = None if block is None else (q + shifts[s], vec @ block)
        norms[s] = 0.0 if block is None else float(np.vdot(cands[s][1], cands[s][1]).real)
    return cands, norms


def fresh_walk(state, spec, rng):
    """(alpha, beta) drawn with no reuse: every conditional computed anew.

    Takes one rng.random() per draw: alpha, each window spin, beta.
    """
    spectrum = boundary_spectrum(state, spec)
    q, i = alpha = _AlphaDraw(spectrum)(rng.random())
    vec = np.zeros(spectrum.sector_dims[q], dtype=complex)
    vec[i] = 1.0
    for site in range(-spec.l, spec.l + 1):
        cands, norms = _walk_step(state, site, q, vec)
        p_up, _p_dn = _branch_probabilities(norms[UP], norms[DN])
        pick = UP if rng.random() < p_up else DN
        q, vec = cands[pick]
        vec = vec * (1.0 / math.sqrt(norms[pick]))
    return alpha, (q, _pick(np.abs(vec) ** 2, rng.random()))


class TrieWalk:
    """The boundary walk one sample at a time, through a trie of prefixes.

    A node is built on the first visit to its (alpha, spin prefix),
    exactly as a fresh walk computes it, and looked up by every later
    sample that reaches it.
    """

    def __init__(self, state, spec):
        self.state, self.spec = state, spec
        self.spectrum = boundary_spectrum(state, spec)
        self.draw_alpha = _AlphaDraw(self.spectrum)
        self.roots = {}

    def draw(self, u):
        """(alpha, beta) of one sample from its 2l+3 uniforms, alpha first."""
        u_alpha, *spins, u_beta = np.asarray(u).tolist()
        q, i = alpha = self.draw_alpha(u_alpha)
        node = self.roots.get(alpha)
        if node is None:
            vec = np.zeros(self.spectrum.sector_dims[q], dtype=complex)
            vec[i] = 1.0
            node = self.roots[alpha] = self._node(q, vec, 0)
        for depth, x in enumerate(spins, start=1):
            p_up, cands, norms, kids = node
            pick = UP if x < p_up else DN
            if kids[pick] is None:
                q, vec = cands[pick]
                kids[pick] = self._node(q, vec * (1.0 / math.sqrt(norms[pick])), depth)
            node = kids[pick]
        q, probs = node
        return alpha, (q, _pick(probs, u_beta))

    def _node(self, q, vec, depth):
        """[p_up, candidates, norms, kids] after depth spins, or (q, beta weights)."""
        if depth == 2 * self.spec.l + 1:
            return q, np.abs(vec) ** 2
        cands, norms = _walk_step(self.state, depth - self.spec.l, q, vec)
        p_up, _p_dn = _branch_probabilities(norms[UP], norms[DN])
        return [p_up, cands, norms, [None, None]]


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
    left, right, sh_l, sh_r, lam_mult = _pair_roles(state, which)
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
    lam = state.lambda_b
    prods = {}
    for sa in (UP, DN):
        for sb in (UP, DN):
            p = _matmul(state.a_a[sa], state.a_b[sb])
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
    left, right, sh_l, sh_r, lam_mult = _pair_roles(state, which)
    c = _gate_contraction(gate, left, right, sh_l, sh_r)
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
