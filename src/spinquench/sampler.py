"""Boundary sampling and window assembly for light-cone Monte Carlo.

The estimator resolves the identity on the Schmidt bases of the two
bonds enclosing a window of sites -l..+l: the left boundary state alpha
is drawn with probability lambda_alpha^2, the window spins are then
drawn one site at a time from exact conditionals, and the right
boundary state beta from the amplitudes left on the right bond. The
intermediate spins only steer the walk to a (alpha, beta) pair and are
discarded afterwards; they must never be aggregated as if they were
independent measurements, because all spin configurations re-enter the
window state coherently.

Conditionals come from a matrix-vector chain: with the boundary row
vector propagated through the site matrices, the probability of the
next spin is the squared norm of the corresponding candidate vector
divided by the sum over both spins. Right-normalization of everything
beyond the sampled prefix is what makes these conditionals exact.

The walk runs level by level over all samples of a run at once. At
each site the distinct (alpha, spin prefix) nodes that samples have
reached are stacked into one row matrix per bond charge, so both
candidate rows of every node come from one matrix product per charge
and spin; each sample then picks its spin by comparing its own uniform
with its node's conditional. A node's rows are a function of the chain
state, the window and the node alone, so a sample consumes the same
uniforms and reaches the same pair as a walk of its own; only the last
bits of a product may depend on the stack it is computed in, which
matters for a uniform within rounding of its conditional. Samples are
walked in contiguous chunks whose node rows fit in WALK_MEMO_BYTES;
the chunks depend on the state and the sample count, never on how many
processes a run uses.

The window state for a sampled (alpha, beta) pair is assembled by
meeting in the middle: all 2^(l+1) left partial products over sites
-l..0 and all 2^l right partial products over sites 1..l are grown
level by level the way the walk grows its nodes, as one row matrix per
bond charge extended by one matrix product per charge and spin, and
every amplitude is an inner product across the central bond. The
partials that share a central-bond charge meet in one matrix product,
whose entries are exactly the amplitudes of the window's total-Sz
sector. This costs O(2^l k^2) + O(D k) flops for a sector of dimension
D, never the naive O(2^(2l) k^2), and takes two matrix products per
charge and level rather than one matrix-vector product per prefix.
The left partials depend on alpha alone and the right ones on beta alone,
so a PartialCache keeps them for every pair that shares a boundary
state; the products that meet them are the same either way, so the
cache changes no bit.

An alternative formulation propagates a density operator on the window
through the completely positive map defined by the site matrices and
samples from its diagonal, which avoids boundary vectors altogether;
it costs an extra factor of the bond dimension per site and offers no
statistical advantage here, so it is documented but not implemented.

Window configurations are coded with site -l as the most significant
bit and up = 1, matching the window evolver's basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SamplingError
from .itebd import DN, SHIFT_A, SHIFT_B, UP, MPSState
from .window import L_MAX, WindowState, _sector_basis

#: A candidate branch whose squared norm falls below this times its
#: sibling's is treated as an exact zero of the conditional.
BRANCH_FLOOR = 1e-28

#: Bytes of node rows one chunk of the batched walk may hold, and of
#: partials a PartialCache holds before it starts over.
WALK_MEMO_BYTES = 1 << 25


@dataclass(frozen=True)
class WindowSpec:
    """Sampling geometry: the window spans sites -l..+l."""

    l: int

    def __post_init__(self):
        if not 1 <= self.l <= L_MAX:
            raise ConfigError(f"l must be in [1, {L_MAX}], got {self.l}")


@dataclass(frozen=True)
class BoundarySample:
    """One sampled boundary pair.

    alpha and beta are (sector charge, index-within-sector) pairs.
    """

    alpha: tuple
    beta: tuple


def site_tensors(state: MPSState, site: int):
    """(up, down) site matrices at a chain position (even = A sublattice)."""
    return state.a_a if site % 2 == 0 else state.a_b


def site_shifts(site: int):
    return SHIFT_A if site % 2 == 0 else SHIFT_B


def _bond_spectrum(state: MPSState, site: int):
    """Schmidt spectrum of the bond right of a site: lambda of its sublattice."""
    return state.lambda_a if site % 2 == 0 else state.lambda_b


def boundary_spectrum(state: MPSState, spec: WindowSpec):
    """Schmidt spectrum of the left boundary bond (between -l-1 and -l).

    The bond carries the lambda of site -l-1's sublattice: lambda_B for
    even l (site -l-1 odd), lambda_A for odd l. The right boundary bond
    (between l and l+1) carries the other one.
    """
    return _bond_spectrum(state, -spec.l - 1)


def sample_alpha(state: MPSState, spec: WindowSpec, u) -> np.ndarray:
    """Draw left-boundary Schmidt states with probability lambda^2.

    u holds one uniform in [0, 1) per sample; the result holds one
    (sector charge, index-within-sector) row per sample.
    """
    spectrum = boundary_spectrum(state, spec)
    weights = spectrum.weights
    total = float(weights.sum())
    if not total > 0.0:
        raise SamplingError("cannot draw from weights that sum to zero")
    k = np.searchsorted(np.cumsum(weights), np.asarray(u) * total, side="right")
    charges, _values, index = spectrum._ranked
    return np.column_stack([charges, index])[np.minimum(k, weights.size - 1)]


def _draw_rows(weights: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """For each r in rows, index i drawn with probability weights[r, i] / sum(weights[r]).

    u holds one uniform in [0, 1) per entry of rows.
    """
    totals = weights.sum(axis=1)
    if not np.all(totals > 0.0):
        raise SamplingError("cannot draw from weights that sum to zero")
    cums = np.cumsum(weights, axis=1)
    k = np.count_nonzero(cums[rows] <= (u * totals[rows])[:, None], axis=1)
    return np.minimum(k, weights.shape[1] - 1)


def _branch_probabilities(w_up, w_dn):
    """Conditional spin probabilities from candidate squared norms.

    Takes scalars or arrays of one norm per walk prefix.
    """
    w_up, w_dn = np.asarray(w_up, dtype=float), np.asarray(w_dn, dtype=float)
    big = np.maximum(w_up, w_dn)
    if not np.all(big > 0.0):
        raise SamplingError(
            "both spin branches have zero weight; the chain state is inconsistent"
        )
    w_up = np.where(w_up < big * BRANCH_FLOOR, 0.0, w_up)
    w_dn = np.where(w_dn < big * BRANCH_FLOOR, 0.0, w_dn)
    tot = w_up + w_dn
    return w_up / tot, w_dn / tot


def _root_groups(dims, roots: np.ndarray):
    """[(charge, basis rows)] of boundary states on a bond with these sector dims.

    roots holds one (charge, index) row per state; the groups come in
    ascending charge and keep the order of roots within a charge.
    """
    groups = []
    for q in np.unique(roots[:, 0]).tolist():
        index = roots[roots[:, 0] == q, 1]
        bad = index[(index < 0) | (index >= dims.get(q, 0))]
        if bad.size:
            raise ConfigError(f"no boundary state (q={q}, index={bad[0]})")
        rows = np.zeros((index.size, dims[q]), dtype=complex)
        rows[np.arange(index.size), index] = 1.0
        groups.append((q, rows))
    return groups


def _walk_chunk(state: MPSState, spec: WindowSpec, alphas: np.ndarray, u: np.ndarray):
    """(beta charges, beta indices) of one chunk of samples.

    A node is a distinct (alpha, spin prefix) of the chunk, and its row
    the propagated, renormalized boundary vector. The nodes of a level
    are kept as one row matrix per bond charge, numbered group by group;
    node[j] is the node sample j has reached.
    """
    roots, node = np.unique(alphas, axis=0, return_inverse=True)
    node = node.reshape(-1)
    groups = _root_groups(boundary_spectrum(state, spec).sector_dims, roots)
    for depth, site in enumerate(range(-spec.l, spec.l + 1)):
        tensors, shifts = site_tensors(state, site), site_shifts(site)
        kids = {}
        start = 0
        while groups:  # popped, so a level's rows go once extended
            q, rows = groups.pop(0)
            mine = np.flatnonzero((node >= start) & (node < start + rows.shape[0]))
            at = node[mine] - start
            start += rows.shape[0]
            cands, norms = [None, None], np.zeros((2, rows.shape[0]))
            for s in (UP, DN):
                block = tensors[s].block(q)
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
                    kids.setdefault(q + shifts[s], []).append((mine[took], kid, kid_rows))
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


def _chunk_size(state: MPSState) -> int:
    """Samples per walk chunk: at most WALK_MEMO_BYTES of node rows.

    A level holds at most one node per sample. Its rows, the candidate
    rows of one charge and the rows of the next level come to at most
    three rows per sample, none wider than the largest sector of either
    bond.
    """
    widest = max(max(lam.sector_dims.values()) for lam in (state.lambda_a, state.lambda_b))
    return max(1, WALK_MEMO_BYTES // (3 * 16 * widest))


def _owned(kind, state: MPSState, spec: WindowSpec, memo):
    """memo, checked to belong to this state and window, or a new kind()."""
    if memo is None:
        return kind(state, spec)
    if memo.state is not state or memo.spec != spec:
        raise ConfigError(f"the {kind.__name__} belongs to another state or window")
    return memo


def sample_spins_and_beta(state: MPSState, spec: WindowSpec, alphas, u) -> list:
    """Chain-sample the window spins, then the right boundary state, of every sample.

    alphas holds one (charge, index) row per sample and u one row of
    2l+2 uniforms in [0, 1) per sample: one per window spin, site -l
    first, then one for beta. Starting from the alpha basis vector on
    the left boundary bond, each site's spin is drawn from the exact
    conditional given the full prefix; the propagated vector is
    renormalized after every draw. The walk runs level by level over
    all samples at once, each distinct prefix computed once, in
    contiguous chunks of at most _chunk_size samples. The spins
    themselves are not returned: only the boundary pairs matter, one
    BoundarySample per sample, in order.
    """
    alphas = np.asarray(alphas, dtype=np.int64).reshape(-1, 2)
    u = np.asarray(u, dtype=float)
    if u.shape != (alphas.shape[0], 2 * spec.l + 2):
        raise ConfigError(
            f"need {2 * spec.l + 2} uniforms for each of {alphas.shape[0]} samples, "
            f"got an array of shape {u.shape}"
        )
    if not alphas.size:
        return []
    chunk = _chunk_size(state)
    betas = [
        _walk_chunk(state, spec, alphas[lo:lo + chunk], u[lo:lo + chunk])
        for lo in range(0, alphas.shape[0], chunk)
    ]
    beta_q = np.concatenate([q for q, _i in betas])
    beta_i = np.concatenate([i for _q, i in betas])
    return [
        BoundarySample(alpha=(qa, ia), beta=(qb, ib))
        for qa, ia, qb, ib in np.column_stack([alphas, beta_q, beta_i]).tolist()
    ]


def _partials(state: MPSState, spec: WindowSpec, boundary: tuple, right: bool):
    """{charge: (codes, rows)} of one boundary's partial products.

    For alpha (right false) the rows are e_alpha A(s_-l) ... A(s_0) over
    every spin prefix of sites -l..0; for beta they are the columns
    A(s_1) ... A(s_l) e_beta over every suffix of sites 1..l, stored as
    rows. Either way they are keyed by their charge on the central bond
    (between sites 0 and 1), and codes[j] spells the spins of rows[j]
    with the leftmost site as the most significant bit and up = 1; dead
    branches are left out. Each level is one product per charge and
    spin: rows @ A(s) for alpha, rows @ A(s).T for beta.
    """
    l = spec.l
    dims = _bond_spectrum(state, l if right else -l - 1).sector_dims
    ((q, rows),) = _root_groups(dims, np.array([boundary]))
    groups = {q: (np.zeros(1, dtype=np.int64), rows)}
    top, sites = (l, range(l, 0, -1)) if right else (0, range(-l, 1))
    for site in sites:
        tensors, shifts = site_tensors(state, site), site_shifts(site)
        kids = {}
        for q, (codes, rows) in groups.items():
            for s, bit in ((UP, 1), (DN, 0)):
                # A(s) maps row sector q to column sector q + shift; beta's
                # rows cross it from the right, through its transpose
                kid = q - shifts[s] if right else q + shifts[s]
                block = tensors[s].block(kid if right else q)
                if block is not None:
                    kid_codes = codes | bit << (top - site) if bit else codes
                    kid_rows = rows @ (block.T if right else block)
                    kids.setdefault(kid, []).append((kid_codes, kid_rows))
        groups = {
            q: parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))
            for q, parts in sorted(kids.items())
        }
    return groups


class PartialCache:
    """Partial products of one state and window, grouped by charge.

    Holds _partials of each alpha and of each beta, built on first use
    exactly as assembly builds them; it starts over whenever it
    outgrows WALK_MEMO_BYTES.
    """

    def __init__(self, state: MPSState, spec: WindowSpec):
        self.state, self.spec = state, spec
        self.clear()

    def clear(self):
        """Drop every cached partial."""
        self._lefts, self._rights = {}, {}
        self.n_bytes = 0

    def partials(self, alpha: tuple, beta: tuple):
        """(left groups of alpha, right groups of beta) for _raw_window_amplitudes."""
        if self.n_bytes > WALK_MEMO_BYTES:
            self.clear()
        return self._built(self._lefts, alpha, False), self._built(self._rights, beta, True)

    def _built(self, memo, boundary, right):
        groups = memo.get(boundary)
        if groups is None:
            groups = memo[boundary] = _partials(self.state, self.spec, boundary, right)
            self.n_bytes += sum(c.nbytes + r.nbytes for c, r in groups.values())
        return groups


def pair_sector(spec: WindowSpec, alpha, beta) -> int:
    """Up-spin count of every window configuration a boundary pair reaches.

    Crossing an A site (even) shifts the bond charge by bit - 1 and a B
    site by bit, so n_up = q_beta - q_alpha + (number of A sites).
    """
    return beta[0] - alpha[0] + sum(1 for s in range(-spec.l, spec.l + 1) if s % 2 == 0)


def _raw_window_amplitudes(state: MPSState, spec: WindowSpec, alpha, beta, cache=None):
    """(n_up, unnormalized sector amplitudes) of one boundary pair.

    cache, a PartialCache of the same state and window, supplies the
    partials of alpha and beta already built.
    """
    l = spec.l
    cache = _owned(PartialCache, state, spec, cache)
    lefts, rights = cache.partials(tuple(alpha), tuple(beta))
    n_up = pair_sector(spec, alpha, beta)
    basis = _sector_basis(2 * l + 1, n_up)
    amps = np.zeros(basis.size, dtype=complex)
    for q, (cl, lmat) in lefts.items():
        if q not in rights:
            continue
        cr, rmat = rights[q]
        codes = ((cl[:, None] << l) | cr[None, :]).ravel()
        pos = np.searchsorted(basis, codes)
        if basis.size == 0 or not np.array_equal(basis.take(pos, mode="clip"), codes):
            raise SamplingError(
                f"window of boundary pair {alpha}, {beta} leaves its "
                f"{n_up}-up-spin sector"
            )
        amps[pos] = (lmat @ rmat.T).ravel()
    return n_up, amps


def assemble_window_state(
    state: MPSState, spec: WindowSpec, sample: BoundarySample, cache=None
) -> WindowState:
    """Build the normalized window state of a sampled boundary pair.

    Meets in the middle at the bond between sites 0 and 1: each window
    amplitude is the inner product of a left partial product with a
    right one, nonzero only when their middle-bond sectors agree, which
    confines the state to the total-Sz sector fixed by the boundary
    charges. cache, a PartialCache of the same state and window, is
    shared by the pairs assembled together; it never changes a bit.
    """
    n_up, amps = _raw_window_amplitudes(state, spec, sample.alpha, sample.beta, cache)
    norm2 = float(np.vdot(amps, amps).real)
    if not norm2 > 0.0:
        raise SamplingError(
            f"window state of boundary pair {sample.alpha}, {sample.beta} has zero norm"
        )
    amps /= math.sqrt(norm2)
    return WindowState(amps, 2 * spec.l + 1, n_up)
