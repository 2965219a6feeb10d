"""Finite-window dynamics: sparse open-chain XXZ and Taylor propagation.

A window of 2l+1 sites around the origin is evolved with the
open-boundary Hamiltonian H = sum_i SxSx + SySy + delta SzSz restricted
to the window bonds. The Hamiltonian conserves total Sz, so a window
state is stored on the basis of its one total-Sz sector, and the sparse
matrix is built and applied on that basis only.

The propagator is a plain truncated Taylor series of exp(-i H dt),
renormalized after each step with the pre-renormalization norm drift
checked against a hard guard. A window state is always a stack of
states that share one sector, one row each, and a single state is a
stack of one. Each Taylor order is one sparse-times-dense product over
the whole stack. Each column of that product is accumulated in the
order a single matrix-vector product uses, and norms and <Sz> are
reduced row by row, so a state evolves to the same bits whatever else
shares its stack.

The sector Hamiltonian is real, so each Taylor order multiplies it into
the real view of the complex stack, whose columns are the real and
imaginary parts of every state side by side. The complex product would
multiply each real matrix entry a into x + iy as (a + 0i)(x + iy) =
(ax - 0y) + i(ay + 0x), whose parts are ax and ay up to the sign of a
zero, which a row sum starting from zero erases, and it sums a row's
entries in the same order; so the real product gives the same bits
with half the multiplications.

scipy is imported by load_sparse, not at the top of this module: the
iTEBD phase, the circuit demonstrator and a bare `import spinquench`
need numpy alone, and scipy.sparse would be most of their import time.
_chain_hamiltonian, the one place a CSR matrix is made, calls it, and
harness.run_mc calls it first, so a run that samples windows without
scipy stops with a ConfigError before it loads its checkpoint.

Basis convention: computational spin configurations with site -l as the
most significant bit and up = 1, so a window configuration is read off
an integer's binary digits left to right. A sector basis lists the
configurations with a given number of up spins in ascending order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NormDriftError

#: Most bytes building the largest sector Hamiltonian of a window may
#: take, by sector_bytes' estimate; it sets the half-width bound L_MAX.
SECTOR_BYTES_MAX = 1 << 31

#: Rows of a sector Hamiltonian built at a time (_chain_hamiltonian).
BUILD_ROWS = 1 << 12


def sector_bytes(l: int) -> int:
    """Bytes that building the largest sector Hamiltonian of sites -l..+l may take.

    The n_up = l sector of the 2l+1 sites has dim = C(2l+1, l) states.
    Its CSR matrix has at most nnz = dim + 4l C(2l-1, l-1) entries: a
    diagonal per row and a hop for every bond with antiparallel spins,
    which each of the 2l bonds has in 2 C(2l-1, l-1) configurations.
    The build holds a float64 value and an int32 column index per entry,
    the int64 basis, the int64 row counts and then the int32 index
    pointers (20 bytes per state), and the temporaries of one chunk of
    BUILD_ROWS rows, at most 64 (l + 2) bytes a row (measured: about
    520 at l = 8). Computed from l alone, before anything is allocated.
    """
    dim = math.comb(2 * l + 1, l)
    nnz = dim + 4 * l * math.comb(2 * l - 1, l - 1)
    return 12 * nnz + 20 * dim + 64 * (l + 2) * min(dim, BUILD_ROWS)


#: Hard validation bound on the window half-width: the widest window
#: whose largest sector Hamiltonian's build fits SECTOR_BYTES_MAX (l = 12
#: needs 0.9 GiB; l = 13 would need 3.6 GiB).
L_MAX = max(l for l in range(1, 32) if sector_bytes(l) <= SECTOR_BYTES_MAX)


def check_half_width(l: int) -> None:
    """ConfigError unless 1 <= l <= L_MAX; allocates nothing."""
    if l < 1:
        raise ConfigError(f"l must be >= 1, got {l}")
    if l > L_MAX:
        raise ConfigError(
            f"l must be <= {L_MAX}, got {l}: the largest sector Hamiltonian "
            f"of l = {L_MAX + 1} needs an estimated {sector_bytes(L_MAX + 1) / 2**30:.1f} "
            f"GiB, over the {SECTOR_BYTES_MAX / 2**30:.0f} GiB bound"
        )


#: Lowest Taylor order a window step may be cut at.
N_MAX_MIN = 4


def check_taylor_order(n_max: int) -> None:
    """ConfigError unless the Taylor series runs to order N_MAX_MIN or more."""
    if n_max < N_MAX_MIN:
        raise ConfigError(f"n_max must be >= {N_MAX_MIN}, got {n_max}")


#: Pre-renormalization norm drift above which a Taylor step is rejected.
NORM_DRIFT_TOL = 1e-9


@dataclass(frozen=True)
class WindowState:
    """A stack of states on a window of n_sites sites, on one total-Sz sector.

    total_sz_sector counts the up spins in the window (total Sz is
    n_up - n_sites/2). The amplitudes are (rows, dim), one state per
    row, and amplitudes[:, j] belongs to configuration basis[j].
    """

    amplitudes: np.ndarray
    n_sites: int
    total_sz_sector: int

    def __post_init__(self):
        n, n_up = self.n_sites, self.total_sz_sector
        shape = np.shape(self.amplitudes)
        if not 0 <= n_up <= n or len(shape) != 2 or shape[1] != math.comb(n, n_up):
            raise ConfigError(
                f"amplitudes of shape {shape} do not fit the "
                f"{n_up}-up-spin sector of {n} sites"
            )

    @property
    def basis(self) -> np.ndarray:
        return _sector_basis(self.n_sites, self.total_sz_sector)


@dataclass(frozen=True)
class EvolverParams:
    """Window propagation controls: n_steps steps of delta_t, Taylor order n_max."""

    delta_t: float = 1.0 / 3.0
    n_max: int = 20
    n_steps: int = 0

    def __post_init__(self):
        if not (self.delta_t > 0.0 and math.isfinite(self.delta_t)):
            raise ConfigError(f"delta_t must be positive, got {self.delta_t}")
        check_taylor_order(self.n_max)
        if self.n_steps < 0:
            raise ConfigError(f"n_steps must be >= 0, got {self.n_steps}")


@functools.cache
def _sector_basis(n_sites: int, n_up: int) -> np.ndarray:
    """Ascending configurations with n_up up spins; shared and read-only.

    Built in O(dim) by unranking: in the combinatorial number system the
    up-spin bit positions c_k > ... > c_1 of rank r satisfy r = sum_i
    C(c_i, i), and rank order is ascending integer order. Each c_i is
    the largest c with C(c, i) at most what is left of r.
    """
    dim = math.comb(n_sites, n_up) if 0 <= n_up <= n_sites else 0
    rank = np.arange(dim, dtype=np.int64)
    basis = np.zeros(dim, dtype=np.int64)
    for i in range(n_up, 0, -1):
        table = np.array([math.comb(c, i) for c in range(n_sites)], dtype=np.int64)
        c = np.searchsorted(table, rank, side="right") - 1
        basis |= np.left_shift(1, c, dtype=np.int64)
        rank -= table[c]
    basis.flags.writeable = False
    return basis


def _site_bits(basis: np.ndarray, n_sites: int, site: int) -> np.ndarray:
    """Bit of each basis state at chain position `site` (0 = leftmost)."""
    return (basis >> (n_sites - 1 - site)) & 1


def load_sparse():
    """scipy.sparse, imported on first use; ConfigError where it cannot be."""
    try:
        import scipy.sparse
    except ImportError as exc:
        raise ConfigError(f"window sampling needs scipy, which cannot be imported: {exc}") from exc
    return scipy.sparse


def _chain_hamiltonian(n_sites: int, delta: float, basis: np.ndarray) -> "scipy.sparse.csr_matrix":
    """Open XXZ chain on the given basis (must be closed under hopping).

    Built directly in canonical CSR form, with the bits scipy's sum of a
    hopping and a diagonal part gives: columns ascend within each row, a
    diagonal entry that sums to exactly zero is left out, and the index
    dtype is the smallest that holds nnz and the dimension, as scipy
    picks it. The rows are built BUILD_ROWS at a time, once to count
    each row's entries and once to write them into arrays of their
    final size, so the build holds the matrix and one chunk's
    temporaries, never temporaries of the whole sector.
    """
    sparse = load_sparse()

    dim = basis.size
    # A hop across bond j lowers a configuration whose site j is up and
    # raises one whose site j+1 is, by less the further right the bond,
    # so listing a row's entries kind by kind (its lowering hops by bond,
    # its diagonal, then its raising hops by bond in reverse) lists their
    # columns in ascending order. Each kind of entry flips a fixed pair
    # of bits; the diagonal, kind n_sites - 1, flips none.
    bonds = np.arange(n_sites - 1)
    flips = (1 << (n_sites - 1 - bonds)) | (1 << (n_sites - 2 - bonds))
    flips = np.concatenate([flips, [0], flips[::-1]])

    def chunk(lo):
        """(diagonal, present) of rows lo .. lo + BUILD_ROWS; present is (kinds, rows)."""
        rows = basis[lo:lo + BUILD_ROWS]
        bits = np.stack([_site_bits(rows, n_sites, j) for j in range(n_sites)]).astype(np.int8)
        diag = np.zeros(rows.size)
        for j in range(n_sites - 1):
            diag += delta * (bits[j] - 0.5) * (bits[j + 1] - 0.5)
        present = np.concatenate([bits[:-1] > bits[1:], [diag != 0.0], (bits[:-1] < bits[1:])[::-1]])
        return diag, present

    starts = range(0, dim, BUILD_ROWS)
    indptr = np.zeros(dim + 1, dtype=np.int64)
    for lo in starts:
        present = chunk(lo)[1]
        indptr[lo + 1:lo + 1 + present.shape[1]] = np.count_nonzero(present, axis=0)
    np.cumsum(indptr, out=indptr)
    nnz = int(indptr[-1])
    index = np.int32 if max(nnz, dim) < 2**31 else np.int64
    indptr = indptr.astype(index, copy=False)
    indices = np.empty(nnz, dtype=index)
    data = np.empty(nnz)
    for lo in starts:
        diag, present = chunk(lo)
        # present.T is (rows, kinds), so its nonzeros come row by row, kind by kind
        row, kind = np.divmod(np.flatnonzero(present.T), flips.size)
        at = slice(indptr[lo], indptr[lo + diag.size])
        indices[at] = np.searchsorted(basis, basis[lo + row] ^ flips[kind])
        data[at] = np.where(kind == n_sites - 1, diag[row], 0.5)
    return sparse.csr_matrix((data, indices, indptr), shape=(dim, dim))


class SparseWindowHamiltonian:
    """Window Hamiltonian with lazily built per-sector sparse blocks."""

    def __init__(self, l: int, delta: float):
        check_half_width(l)
        if not math.isfinite(delta):
            raise ConfigError("delta must be finite")
        self.l = int(l)
        self.delta = float(delta)
        self.n_sites = 2 * self.l + 1
        self._sectors: dict = {}

    def sector(self, n_up: int):
        """(read-only shared basis, csr matrix) of the n_up-up-spins sector."""
        if not 0 <= n_up <= self.n_sites:
            raise ConfigError(f"n_up must be in [0, {self.n_sites}], got {n_up}")
        if n_up not in self._sectors:
            basis = _sector_basis(self.n_sites, n_up)
            self._sectors[n_up] = (basis, _chain_hamiltonian(self.n_sites, self.delta, basis))
        return self._sectors[n_up]


def build_hloc(l: int, delta: float) -> SparseWindowHamiltonian:
    """Open-boundary window Hamiltonian on sites -l..+l."""
    return SparseWindowHamiltonian(l, delta)


def sz_center(psi: WindowState) -> np.ndarray:
    """<Sz> of the central window site, one value per row of the stack."""
    n = psi.n_sites
    sign = _site_bits(psi.basis, n, n // 2) - 0.5
    return np.array([row @ sign for row in np.abs(psi.amplitudes) ** 2])


def taylor_step(
    psi: WindowState,
    h: SparseWindowHamiltonian,
    delta_t: float,
    n_max: int,
) -> WindowState:
    """One step of exp(-i H delta_t) by truncated Taylor series.

    The series runs to order n_max on the total-Sz sector of every row
    of the stack at once, and each row is renormalized; if any row's
    norm drifted by more than NORM_DRIFT_TOL beforehand the step is
    rejected, since that means the series was nowhere near converged.
    """
    check_taylor_order(n_max)
    if psi.n_sites != h.n_sites:
        raise ConfigError(
            f"state on {psi.n_sites} sites but Hamiltonian on {h.n_sites}"
        )
    _basis, h_sec = h.sector(psi.total_sz_sector)
    # One column per state, so each Taylor order is one CSR x dense
    # product, made on the real view: one real and one imaginary column
    # per state.
    acc = psi.amplitudes.T.astype(complex, order="C")
    term = acc
    for order in range(1, n_max + 1):
        term = (h_sec @ term.view(float)).view(complex)
        term = term * (-1j * delta_t / order)
        acc = acc + term
    rows = acc.T.copy()
    for row in rows:
        norm = float(np.linalg.norm(row))
        drift = abs(norm - 1.0)
        if drift > NORM_DRIFT_TOL:
            raise NormDriftError(
                f"Taylor step norm drifted by {drift:.3e} (tolerance {NORM_DRIFT_TOL:g}); "
                f"increase n_max or decrease delta_t"
            )
        row /= norm
    return WindowState(rows, psi.n_sites, psi.total_sz_sector)


def evolve_and_measure(
    psi: WindowState,
    h: SparseWindowHamiltonian,
    params: EvolverParams,
) -> np.ndarray:
    """(rows, n_steps + 1) central <Sz> of the stack after k = 0 .. n_steps steps.

    The caller counts the steps in its grid's span (errors.step_count).
    """
    n = params.n_steps
    values = np.empty((psi.amplitudes.shape[0], n + 1))
    values[:, 0] = sz_center(psi)
    for j in range(1, n + 1):
        psi = taylor_step(psi, h, params.delta_t, params.n_max)
        values[:, j] = sz_center(psi)
    return values


def spin_wave_velocity(delta: float) -> float:
    """Spin-wave velocity (pi/2) sin(theta)/theta with cos(theta) = delta.

    Valid in the planar regime |delta| <= 1; the delta -> 1 limit is
    pi/2 by continuity.
    """
    if not -1.0 <= delta <= 1.0:
        raise ConfigError(f"spin-wave velocity needs |delta| <= 1, got {delta}")
    theta = math.acos(delta)
    if theta == 0.0:
        return math.pi / 2.0
    return (math.pi / 2.0) * math.sin(theta) / theta
