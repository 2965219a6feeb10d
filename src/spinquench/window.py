"""Finite-window dynamics: sparse open-chain XXZ and Taylor propagation.

A window of 2l+1 sites around the origin is evolved with the
open-boundary Hamiltonian H = sum_i SxSx + SySy + delta SzSz restricted
to the window bonds. The Hamiltonian conserves total Sz, so a window
state is stored on the basis of its one total-Sz sector, and the sparse
matrix is built and applied on that basis only.

The propagator is a plain truncated Taylor series of exp(-i H dt),
renormalized after each step with the pre-renormalization norm drift
checked against a hard guard. It runs on a stack of states that share
one sector, one sparse-times-dense product per Taylor order; a single
state is a stack of one. Each column of that product is accumulated in
the order a single matrix-vector product uses, and norms and <Sz> are
reduced row by row, so a state evolves to the same bits whatever else
shares its stack.

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
import scipy.sparse as sp

from .errors import ConfigError, NormDriftError, step_count

#: Hard validation bound on the window half-width.
L_MAX = 14

#: Pre-renormalization norm drift above which a Taylor step is rejected.
NORM_DRIFT_TOL = 1e-9


@dataclass(frozen=True)
class WindowState:
    """State on a window of n_sites sites, stored on one total-Sz sector.

    total_sz_sector counts the up spins in the window (total Sz is
    n_up - n_sites/2), and amplitudes[j] belongs to configuration
    basis[j]. Amplitudes of shape (B, D) hold a stack of B states on the
    same sector, one per row.
    """

    amplitudes: np.ndarray
    n_sites: int
    total_sz_sector: int

    def __post_init__(self):
        n, n_up = self.n_sites, self.total_sz_sector
        shape = np.shape(self.amplitudes)
        if not 0 <= n_up <= n or len(shape) not in (1, 2) or shape[-1] != math.comb(n, n_up):
            raise ConfigError(
                f"amplitudes of shape {shape} do not fit the "
                f"{n_up}-up-spin sector of {n} sites"
            )

    @property
    def basis(self) -> np.ndarray:
        return _sector_basis(self.n_sites, self.total_sz_sector)


@dataclass(frozen=True)
class EvolverParams:
    """Window propagation controls."""

    delta_t: float = 1.0 / 3.0
    n_max: int = 20
    t_fin: float = 0.0

    def __post_init__(self):
        if not (self.delta_t > 0.0 and math.isfinite(self.delta_t)):
            raise ConfigError(f"delta_t must be positive, got {self.delta_t}")
        if self.n_max < 4:
            raise ConfigError(f"n_max must be >= 4, got {self.n_max}")


@functools.cache
def _sector_basis(n_sites: int, n_up: int) -> np.ndarray:
    """Ascending configurations with n_up up spins; shared and read-only."""
    states = np.arange(1 << n_sites, dtype=np.int64)
    basis = states[np.bitwise_count(states) == n_up]
    basis.flags.writeable = False
    return basis


def _site_bits(basis: np.ndarray, n_sites: int, site: int) -> np.ndarray:
    """Bit of each basis state at chain position `site` (0 = leftmost)."""
    return (basis >> (n_sites - 1 - site)) & 1


def _chain_hamiltonian(n_sites: int, delta: float, basis: np.ndarray) -> sp.csr_matrix:
    """Open XXZ chain on the given basis (must be closed under hopping)."""
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
        flipped = basis[differ] ^ flip
        pos = np.searchsorted(basis, flipped)
        rows.append(idx[differ])
        cols.append(pos)
        vals.append(np.full(pos.size, 0.5))
    if rows:
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        vals = np.concatenate(vals)
    h = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
    h = h + sp.diags(diag)
    return h.tocsr()


class SparseWindowHamiltonian:
    """Window Hamiltonian with lazily built per-sector sparse blocks."""

    def __init__(self, l: int, delta: float):
        if not 1 <= l <= L_MAX:
            raise ConfigError(f"l must be in [1, {L_MAX}], got {l}")
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


def sz_center(psi: WindowState):
    """<Sz> of the central window site; for a stack, an array of one per row."""
    n = psi.n_sites
    sign = _site_bits(psi.basis, n, n // 2) - 0.5
    p = np.abs(psi.amplitudes) ** 2
    if p.ndim == 1:
        return float(p @ sign)
    return np.array([row @ sign for row in p])


def taylor_step(
    psi: WindowState,
    h: SparseWindowHamiltonian,
    delta_t: float,
    n_max: int,
) -> WindowState:
    """One step of exp(-i H delta_t) by truncated Taylor series.

    The series runs to order n_max on the total-Sz sector of the state,
    or of every row of a stack at once, and each row is renormalized; if
    any row's norm drifted by more than NORM_DRIFT_TOL beforehand the
    step is rejected, since that means the series was nowhere near
    converged.
    """
    if n_max < 1:
        raise ConfigError(f"n_max must be >= 1, got {n_max}")
    if psi.n_sites != h.n_sites:
        raise ConfigError(
            f"state on {psi.n_sites} sites but Hamiltonian on {h.n_sites}"
        )
    _basis, h_sec = h.sector(psi.total_sz_sector)
    shape = psi.amplitudes.shape
    # One column per state, so each Taylor order is one CSR x dense product.
    acc = psi.amplitudes.reshape(-1, shape[-1]).T.astype(complex, order="C")
    term = acc
    for order in range(1, n_max + 1):
        term = h_sec @ term
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
    return WindowState(rows.reshape(shape), psi.n_sites, psi.total_sz_sector)


def evolve_and_measure(
    psi: WindowState,
    h: SparseWindowHamiltonian,
    params: EvolverParams,
    t_init: float,
) -> list:
    """Series of (t, central <Sz>) from t_init to params.t_fin inclusive.

    For a stack each <Sz> is an array with one entry per row.
    """
    n = step_count(params.t_fin - t_init, params.delta_t, "t_fin - t_init")
    series = [(t_init, sz_center(psi))]
    for j in range(1, n + 1):
        psi = taylor_step(psi, h, params.delta_t, params.n_max)
        series.append((t_init + j * params.delta_t, sz_center(psi)))
    return series


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
