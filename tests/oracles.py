"""Independent reference routes that only the tests use.

Each oracle forgets a structure the package relies on: dense matrices
instead of charge blocks, the full 2^n window space instead of one
total-Sz sector, scipy's sparse exponential instead of the Taylor
series. A test that compares the package against one of these checks
the structure itself.
"""

import numpy as np
from scipy.sparse.linalg import expm_multiply

from spinquench.errors import ConfigError
from spinquench.itebd import DN, UP
from spinquench.sampler import boundary_spectrum, site_tensors
from spinquench.window import _chain_hamiltonian, _sector_basis, _site_bits


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
    row_layout = row_layout or SectorLayout(matrix.row_dims)
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
    h = _chain_hamiltonian(n_sites, delta, basis)
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
