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
and spin. A level is one pass over the samples: each sample picks its
spin by comparing its own uniform with its node's conditional, the
(spin, node) slots some sample picked are marked in one boolean table,
and those slots become the next level's nodes, numbered by kid charge,
then UP slots before DN slots, then by parent node. The numbering fixes
the rows and row order of every product, so it must not change: a
node's rows are a function of the chain state, the window and the node
alone, so a sample consumes the same uniforms and reaches the same pair
as a walk of its own; only the last bits of a product may depend on
the stack it is computed in, which matters for a uniform within
rounding of its conditional. Samples are walked in contiguous chunks
whose node rows fit in WALK_MEMO_BYTES; the chunks depend on the state
and the sample count, never on the worker count of a run. The walk
returns each sample's boundary pair as an int row (q_alpha, i_alpha,
q_beta, i_beta), and a pair is such a row everywhere: through dedup to
the assembler, which takes one (m, 4) table of them, and as the
one-pair view's argument.

The window state for a sampled (alpha, beta) pair is assembled by
meeting in the middle: all 2^(l+1) left partial products over sites
-l..0 and all 2^l right partial products over sites 1..l are grown
level by level the way the walk grows its nodes, and every amplitude is
an inner product across the central bond. The partials that share a
central-bond charge meet in one matrix product, whose entries are
exactly the amplitudes of the window's total-Sz sector. This costs
O(2^l k^2) + O(D k) flops for a sector of dimension D, never the naive
O(2^(2l) k^2).

Round two hands the assembler (assemble_window_stacks) one table of
pair rows; sector_stacks, the one stacking rule, cuts it into
per-sector stacks within WALK_MEMO_BYTES, and each stack is yielded
with its rows' ids and assembled on a batch axis. The left partials
depend on alpha alone and the right ones on beta alone, and every
boundary state of one charge has partials of the same codes and
shapes. So the distinct alphas of a batch of pairs are grouped by
charge and grown together as one (states, rows, k) array, one
np.matmul per charge, spin and level; likewise the betas.
Inside a stack, the pairs of one (q_alpha, q_beta) meet in one np.matmul
per central-bond charge over their gathered (pairs, rows, k) partials.
A batched np.matmul makes one product per slice of the batch axis, the
same product a single state or pair makes alone, so batching never
changes a bit: a window's amplitudes do not depend on the pairs
assembled beside it, on how pairs are batched or on the stack they sit
in. Folding the batch axis into the rows of one 2-D product would
change them. Batches are consecutive runs of pairs whose partials fit
in WALK_MEMO_BYTES. Every window state is a stack, and
assemble_window_state assembles one pair row as a table of one.

The semistochastic split (semistochastic_split) sums the heaviest
pairs exactly and leaves the walk only the rest. S = A x B, where A
holds the left-boundary states and B the right-boundary states whose
lambda^2 is at least a threshold p_star. The walk then draws each
sample conditioned on leaving S: alpha with weight lambda_alpha^2 -
m(alpha), m(alpha) the mass of alpha's pairs in S; at every node of an
alpha in A, each candidate row c with weight |c|^2 - c E_B c^dagger,
the mass of its completions outside S, where E_B is a right
environment, one matrix per bond charge and site, grown from the
projector onto B at the right boundary; and beta with B's entries
zeroed. Weights that fall to round-off are clamped to zero. With S
empty there is no environment block and nothing is subtracted, so the
walk is the plain one bit for bit. The conditionals are exact only in
canonical form, which canonical_residuals measures with the same
environment step the split grows E_B with.

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
from .itebd import DN, UP, MPSState
from .window import WindowState, _sector_basis, check_half_width

#: A candidate branch whose squared norm falls below this times its
#: sibling's is treated as an exact zero of the conditional.
BRANCH_FLOOR = 1e-28

#: The memory budget of the Monte Carlo phase: bytes of node rows one
#: chunk of the batched walk may hold, of partials one batch of window
#: assembly may hold, and of amplitudes one propagated stack may hold.
WALK_MEMO_BYTES = 1 << 25

#: Floor of a tail weight. A weight p - m, the mass p of a spin branch
#: less the mass m of its completions in S, that comes out at or below
#: TAIL_FLOOR * p is round-off of a zero and is clamped to zero; so is
#: the tail weight of a left-boundary state at or below TAIL_FLOOR times
#: the spectrum's total weight. The states of tiny lambda are the least
#: canonical (the k=16, t=1 checkpoint's (E_B)_aa leaves 1 by up to 4e-6
#: where lambda^2 < 1e-10), so their leftover is relative noise far
#: above round-off, though at most 2e-16 of the total there.
TAIL_FLOOR = 1e-12

#: Largest canonical-form residual (canonical_residuals) of a state that
#: a run with S nonempty accepts. The desk checkpoints read about 2e-15
#: (k=16 at t=1, k=128 at t=4) and k=16 at t=2 3.4e-10, where the exact
#: expectation of the estimator (l=2, p_star=0.01) moved 1.7e-11 from
#: the plain one; k=16 at t=3 reads 1.8e-7, k=32 at t=4 3.1e-8, and k=16
#: at t=4 7.0e-6, where the conditioned walk meets nodes both of whose
#: branches vanish.
CANONICAL_TOL = 1e-9


@dataclass(frozen=True)
class WindowSpec:
    """Sampling geometry: the window spans sites -l..+l."""

    l: int

    def __post_init__(self):
        object.__setattr__(self, "l", check_half_width(self.l))


def boundary_spectrum(state: MPSState, spec: WindowSpec):
    """Schmidt spectrum of the left boundary bond (between -l-1 and -l).

    The bond carries the lambda of site -l-1's sublattice: lambda_B for
    even l (site -l-1 odd), lambda_A for odd l. The right boundary bond
    (between l and l+1) carries the other one.
    """
    return state.bond(-spec.l - 1)


def sample_alpha(state: MPSState, spec: WindowSpec, u, split: TailSplit) -> np.ndarray:
    """Draw left-boundary Schmidt states with the split's tail weights.

    u holds one uniform in [0, 1) per sample; the result holds one
    (sector charge, index-within-sector) row per sample. The weights are
    lambda^2 less the mass of each state's pairs in S, so with S empty
    (semistochastic_split(state, spec)) they are lambda^2.
    """
    spectrum = boundary_spectrum(state, spec)
    weights = split.alpha_weights
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


def distinct_rows(rows: np.ndarray):
    """(first, inverse) of the distinct rows of an int array, ascending.

    rows[first] are the distinct rows in lexicographic order, each taken
    at its first occurrence, and rows[first][inverse] gives rows back.
    The columns are packed into one int64 key per row, in mixed radix
    over each column's range, so ranking the keys ranks the rows.
    """
    low = rows.min(axis=0)
    keys = np.ravel_multi_index(tuple((rows - low).T), tuple(rows.max(axis=0) - low + 1))
    _keys, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse


def _members(masks, rows: np.ndarray) -> np.ndarray:
    """Whether each (charge, index) row is in the set of {charge: bool mask}."""
    inside = np.zeros(rows.shape[0], dtype=bool)
    for q, mask in masks.items():
        at = np.flatnonzero(rows[:, 0] == q)
        inside[at] = mask[rows[at, 1]]
    return inside


def _environment_step(tensors, env, leftward: bool):
    """An environment carried across one site: {charge: matrix} to {charge: matrix}.

    Leftward, env lives on the site's right bond and the result is
    sum_s A(s) env A(s)^dagger on its left bond; rightward, env lives on
    the left bond and the result is sum_s A(s)^dagger env A(s) on the
    right bond. Absent charges are zero blocks, in env and in the result.
    """
    out = {}
    for q, halves in tensors.parts.items():
        for s, block in zip((UP, DN), halves):
            kid = q + tensors.shifts[s]
            e = None if block is None else env.get(kid if leftward else q)
            if e is not None:
                term = block @ e @ block.conj().T if leftward else block.conj().T @ e @ block
                at = q if leftward else kid
                out[at] = term if at not in out else out[at] + term
    return {q: out[q] for q in sorted(out)}


def canonical_residuals(state: MPSState):
    """(right, marginal): how far the state is from the form the walk needs.

    For each site tensor, with lambda the spectra of its left and right
    bonds: right is sum_alpha lambda_alpha^2 |(sum_s A(s) A(s)^dagger)_aa - 1|,
    the lambda-weighted right-canonical residual, and marginal is
    sum_beta |(sum_s A(s)^dagger Lambda^2 A(s))_bb - lambda_beta^2|, the
    beta marginal of a left environment against the spectrum it must
    reproduce. Each is the worse of the two sublattices; both are zero
    in exact canonical form, where the walk's conditionals are exact.
    """
    right = marginal = 0.0
    for i in (0, 1):
        tensors, left_bond, right_bond = state.site(i), state.bond(i - 1), state.bond(i)
        ident = {q: np.eye(d) for q, d in right_bond.sector_dims.items()}
        gram = _environment_step(tensors, ident, leftward=True)
        right = max(right, sum(
            float(v**2 @ np.abs(np.diagonal(gram[q]).real - 1.0)) if q in gram else float(v @ v)
            for q, v in left_bond.blocks.items()
        ))
        rho = {q: np.diag(v**2) for q, v in left_bond.blocks.items()}
        out = _environment_step(tensors, rho, leftward=False)
        marginal = max(marginal, sum(
            float(np.abs(np.diagonal(out[q]).real - v**2).sum()) if q in out else float(v @ v)
            for q, v in right_bond.blocks.items()
        ))
    return right, marginal


def _central_charges(state: MPSState, spec: WindowSpec, q0: int, right: bool) -> set:
    """Central-bond charges the partials of a boundary state of charge q0 reach."""
    reach = {q0}
    for site in (range(spec.l, 0, -1) if right else range(-spec.l, 1)):
        tensors = state.site(site)
        reach = {
            q - shift if right else q + shift
            for q in reach
            for s, shift in zip((UP, DN), tensors.shifts)
            if tensors.block(s, q - shift if right else q) is not None
        }
    return reach


@dataclass(frozen=True)
class TailSplit:
    """The semistochastic split of the boundary pairs at a threshold p_star.

    S = A x B, with A the left-boundary states and B the right-boundary
    states whose lambda^2 is at least p_star, held as {charge: bool
    mask} (heavy_left, heavy_right). pairs holds the rows of S whose
    windows are not zero by charge alone, which are summed exactly;
    envs[d] is E_B, sum over beta in B and over the spins right of the
    bond of R R^dagger, on the bond left of window site d - l (envs[0]
    on the left boundary, envs[2l+1] the projector onto B on the right
    one). alpha_weights are the tail weights in the left spectrum's
    rank order: lambda_alpha^2 - m(alpha) for alpha in A, with
    m(alpha) = lambda_alpha^2 (E_B)_aa the mass of alpha's pairs in S,
    clamped to zero at TAIL_FLOOR times the total weight (clamps counts
    those), and lambda_alpha^2 itself elsewhere. With S empty, A, B and
    every environment are empty and alpha_weights is the spectrum's
    weights.
    """

    heavy_left: dict
    heavy_right: dict
    pairs: np.ndarray
    envs: tuple
    alpha_weights: np.ndarray
    clamps: int

    @property
    def tail_weight(self) -> float:
        """T, the total of the tail weights the alpha draw uses."""
        return float(self.alpha_weights.sum())


def semistochastic_split(state: MPSState, spec: WindowSpec, p_star=math.inf) -> TailSplit:
    """The split S = A x B at threshold p_star; at inf, the default, S is empty.

    A nonempty S needs the canonical form the conditioned walk relies
    on: a state whose canonical_residuals exceed CANONICAL_TOL raises
    ConfigError. When no pair of A x B can reach a window, S is empty.
    """
    spectrum = boundary_spectrum(state, spec)
    heavy = [
        {q: v * v >= p_star for q, v in lam.blocks.items() if np.any(v * v >= p_star)}
        for lam in (spectrum, state.bond(spec.l))
    ]
    reach = [
        {q: _central_charges(state, spec, q, right) for q in masks}
        for masks, right in zip(heavy, (False, True))
    ]
    pairs = [
        (qa, ia, qb, ib)
        for qa, a_mask in heavy[0].items()
        for ia in np.flatnonzero(a_mask).tolist()
        for qb, b_mask in heavy[1].items()
        if reach[0][qa] & reach[1][qb]
        for ib in np.flatnonzero(b_mask).tolist()
    ]
    if not pairs:
        return TailSplit({}, {}, np.empty((0, 4), dtype=np.int64),
                         ({},) * (2 * spec.l + 2), spectrum.weights, 0)
    worst = max(canonical_residuals(state))
    if worst > CANONICAL_TOL:
        raise ConfigError(
            f"canonical-form residual {worst:.2e} exceeds {CANONICAL_TOL:g}: the "
            f"conditioned tail draw would be biased; run with S empty (p_star = inf; "
            f"--p-star inf on the command line)"
        )
    env = {q: np.diag(mask.astype(complex)) for q, mask in heavy[1].items()}
    envs = [env]
    for site in range(spec.l, -spec.l - 1, -1):
        env = _environment_step(state.site(site), env, leftward=True)
        envs.append(env)
    envs.reverse()
    # A is the prefix of the ranking whose weight reaches p_star; a state
    # of A loses lambda^2 (E_B)_aa, nothing where E_B has no block
    charges, _values, index = spectrum._ranked
    weights = spectrum.weights.copy()
    head = weights[:np.count_nonzero(weights >= p_star)]
    diag = np.zeros(head.size)
    for q, e_b in envs[0].items():
        at = np.flatnonzero(charges[:head.size] == q)
        diag[at] = np.diagonal(e_b).real[index[at]]
    head -= head * diag
    clamped = head <= TAIL_FLOOR * float(spectrum.weights.sum())
    head[clamped] = 0.0
    return TailSplit(heavy[0], heavy[1], np.array(pairs, dtype=np.int64),
                     tuple(envs), weights, int(clamped.sum()))


def _walk_chunk(state: MPSState, spec: WindowSpec, alphas: np.ndarray, u: np.ndarray, split):
    """(beta charges, beta indices) of one chunk of samples.

    A node is a distinct (alpha, spin prefix) of the chunk, and its row
    the propagated, renormalized boundary vector. The nodes of a level
    are kept as one row matrix per bond charge, in ascending charge and
    numbered on from group to group; node[j] is the node sample j has
    reached. Each level takes one pass over the samples: the
    conditionals of all nodes come from one product per charge and
    spin, every sample picks its spin, and the (spin, node) slots some
    sample chose become the next level's nodes. They are numbered by
    kid charge, then the UP slots (whose parents have the lower charge)
    before the DN slots, then by parent, so a group's rows are the
    same matrix in the same order however the samples are laid out.

    A node whose alpha is in the split's A (heavy) walks conditioned on
    leaving S: a candidate row c weighs |c|^2 - c E_B c^dagger, with
    E_B the split's environment on the candidate's bond, clamped at the
    TAIL_FLOOR, and its beta draw skips B. Rows are still renormalized
    by |c|, so the subtraction is the only change, and with S empty
    (no environment blocks) every weight is |c|^2 exactly.
    """
    first, node = distinct_rows(alphas)
    roots = alphas[first]
    groups = _root_groups(boundary_spectrum(state, spec).sector_dims, roots)
    heavy = _members(split.heavy_left, roots)
    for depth, site in enumerate(range(-spec.l, spec.l + 1)):
        tensors = state.site(site)
        shifts, env = tensors.shifts, split.envs[depth + 1]
        charges = [q for q, _rows in groups]
        starts = np.cumsum([0] + [rows.shape[0] for _q, rows in groups])
        cands, norms = [], np.zeros((2, starts[-1]))
        excluded = np.zeros_like(norms)
        for lo in starts[:-1]:
            q, rows = groups.pop(0)  # popped, so a level holds rows or candidates
            cands.append([None, None])
            mine = lo + np.flatnonzero(heavy[lo:lo + rows.shape[0]])
            for s in (UP, DN):
                block = tensors.block(s, q)
                if block is not None:
                    c = cands[-1][s] = rows @ block
                    norms[s, lo:lo + rows.shape[0]] = np.einsum("ij,ij->i", c.conj(), c).real
                    e_b = env.get(q + shifts[s])
                    if e_b is not None and mine.size:
                        ch = c[mine - lo]
                        excluded[s, mine] = np.einsum("ij,ij->i", ch @ e_b, ch.conj()).real
        weights = norms - excluded
        weights[weights <= TAIL_FLOOR * norms] = 0.0
        p_up, _p_dn = _branch_probabilities(weights[UP], weights[DN])
        spin = np.where(u[:, depth] < p_up[node], UP, DN)
        taken = np.zeros(norms.shape, dtype=bool)
        taken[spin, node] = True
        kid = np.zeros(norms.shape, dtype=np.int64)
        kids, kid_heavy, count = {}, [], 0
        for kq, s, g in sorted((q + shifts[s], s, g) for g, q in enumerate(charges) for s in (UP, DN)):
            lo = starts[g]
            picked = np.flatnonzero(taken[s, lo:starts[g + 1]])
            if picked.size:
                kid[s, lo + picked] = np.arange(count, count + picked.size)
                count += picked.size
                scale = 1.0 / np.sqrt(norms[s, lo + picked])
                kids.setdefault(kq, []).append(cands[g][s][picked] * scale[:, None])
                kid_heavy.append(heavy[lo + picked])
            cands[g][s] = None  # its kids are taken
        node = kid[spin, node]
        heavy = np.concatenate(kid_heavy)
        groups = [
            (q, parts[0] if len(parts) == 1 else np.concatenate(parts))
            for q, parts in kids.items()
        ]
    starts = np.cumsum([0] + [rows.shape[0] for _q, rows in groups])
    group = np.searchsorted(starts, node, side="right") - 1
    beta_q = np.array([q for q, _rows in groups], dtype=np.int64)[group]
    beta_i = np.empty(node.size, dtype=np.int64)
    for g, (q, rows) in enumerate(groups):
        mine = group == g
        weights = np.abs(rows) ** 2
        if q in split.heavy_right:
            weights[np.ix_(heavy[starts[g]:starts[g + 1]], split.heavy_right[q])] = 0.0
        beta_i[mine] = _draw_rows(weights, node[mine] - starts[g], u[mine, -1])
    return beta_q, beta_i


def _widest(state: MPSState) -> int:
    """Largest sector of either bond: the widest a walk row or a partial gets."""
    return max(max(lam.sector_dims.values()) for lam in (state.lambda_a, state.lambda_b))


def _chunk_size(state: MPSState) -> int:
    """Samples per walk chunk: at most WALK_MEMO_BYTES of node rows.

    A level holds at most one node per sample. Its rows are dropped as
    they are multiplied and each candidate block once the next level's
    rows are taken from it, so the candidate rows (two per node) and the
    rows of the next level come to at most three rows per sample, none
    wider than the largest sector of either bond.
    """
    return max(1, WALK_MEMO_BYTES // (3 * 16 * _widest(state)))


def sample_spins_and_beta(state: MPSState, spec: WindowSpec, alphas, u, split: TailSplit) -> np.ndarray:
    """Chain-sample the window spins, then the right boundary state, of every sample.

    alphas holds one (charge, index) row per sample and u one row of
    2l+2 uniforms in [0, 1) per sample: one per window spin, site -l
    first, then one for beta. Starting from the alpha basis vector on
    the left boundary bond, each site's spin is drawn from the exact
    conditional given the full prefix; the propagated vector is
    renormalized after every draw. The walk runs level by level over
    all samples at once, each distinct prefix computed once, in
    contiguous chunks of at most _chunk_size samples. The spins
    themselves are not returned: only the boundary pairs matter, as an
    (n, 4) int64 array of (q_alpha, i_alpha, q_beta, i_beta) rows, one
    per sample, in order; no samples give a (0, 4) array. The samples
    whose alpha is in the split's A walk conditioned on leaving S (see
    _walk_chunk); with S empty, every sample walks the plain chain.
    """
    alphas = np.asarray(alphas, dtype=np.int64).reshape(-1, 2)
    u = np.asarray(u, dtype=float)
    if u.shape != (alphas.shape[0], 2 * spec.l + 2):
        raise ConfigError(
            f"need {2 * spec.l + 2} uniforms for each of {alphas.shape[0]} samples, "
            f"got an array of shape {u.shape}"
        )
    if not alphas.size:
        return np.empty((0, 4), dtype=np.int64)
    chunk = _chunk_size(state)
    betas = [
        _walk_chunk(state, spec, alphas[lo:lo + chunk], u[lo:lo + chunk], split)
        for lo in range(0, alphas.shape[0], chunk)
    ]
    beta_q = np.concatenate([q for q, _i in betas])
    beta_i = np.concatenate([i for _q, i in betas])
    return np.column_stack([alphas, beta_q, beta_i])


def _partials(state: MPSState, spec: WindowSpec, roots: np.ndarray, right: bool):
    """{root charge: {central charge: (codes, rows)}} of boundary states' partials.

    roots holds distinct (charge, index) rows in ascending order, as
    distinct_rows gives them. For alpha (right false) the partials are
    e_alpha A(s_-l) ... A(s_0) over every spin prefix of sites -l..0;
    for beta they are the columns A(s_1) ... A(s_l) e_beta over every
    suffix of sites 1..l, stored as rows. Either way they are keyed by
    the charge of the root and by their charge on the central bond
    (between sites 0 and 1), and codes[j] spells the spins of row j with
    the leftmost site as the most significant bit and up = 1; dead
    branches are left out. Roots of one charge share every code and
    shape, so rows[r] holds the partials of the r-th root of that charge,
    and each level is one np.matmul per charge and spin over that batch
    axis: rows @ A(s) for alpha, rows @ A(s).T for beta. Each root's
    slab is its own product, so its bits do not depend on the roots
    built beside it; stacking the roots' rows into one 2-D product would
    change them.
    """
    l = spec.l
    dims = state.bond(l if right else -l - 1).sector_dims
    top, sites = (l, range(l, 0, -1)) if right else (0, range(-l, 1))
    out = {}
    for q0, units in _root_groups(dims, roots):
        groups = {q0: (np.zeros(1, dtype=np.int64), units.reshape(units.shape[0], 1, -1))}
        for site in sites:
            tensors = state.site(site)
            shifts, kids = tensors.shifts, {}
            for q, (codes, rows) in groups.items():
                for s, bit in ((UP, 1), (DN, 0)):
                    # A(s) maps row sector q to column sector q + shift; beta's
                    # rows cross it from the right, through its transpose
                    kid = q - shifts[s] if right else q + shifts[s]
                    block = tensors.block(s, kid if right else q)
                    if block is not None:
                        kid_codes = codes | bit << (top - site) if bit else codes
                        kid_rows = np.matmul(rows, block.T if right else block)
                        kids.setdefault(kid, []).append((kid_codes, kid_rows))
            groups = {
                q: parts[0] if len(parts) == 1 else (
                    np.concatenate([c for c, _r in parts]),
                    np.concatenate([r for _c, r in parts], axis=1),
                )
                for q, parts in sorted(kids.items())
            }
        out[q0] = groups
    return out


def pair_sector(spec: WindowSpec, pairs):
    """Up-spin count of every window configuration a boundary pair reaches.

    pairs is a (q_alpha, i_alpha, q_beta, i_beta) row, or an array of
    them along the last axis, which gives an array of counts. Crossing
    an A site (even) shifts the bond charge by bit - 1 and a B site by
    bit, so n_up = q_beta - q_alpha + (number of A sites).
    """
    n_a = sum(1 for s in range(-spec.l, spec.l + 1) if s % 2 == 0)
    return np.asarray(pairs)[..., 2] - np.asarray(pairs)[..., 0] + n_a


def _partial_batches(state: MPSState, spec: WindowSpec, pairs: np.ndarray):
    """Ends of the consecutive batches of pairs whose partials fit WALK_MEMO_BYTES.

    pairs holds one (q_alpha, i_alpha, q_beta, i_beta) row per pair. A
    batch takes pairs in order while its distinct boundary states fit:
    an alpha has at most 2^(l+1) partial rows and a beta 2^l, each with
    its code and none wider than the largest sector of either bond. A
    batch holds at least one pair. The batches depend on the pairs, the
    state and the window.
    """
    row = 16 * _widest(state) + 8
    cost = {False: row << (spec.l + 1), True: row << spec.l}
    ends, held, seen = [], 0, set()
    for j, (qa, ia, qb, ib) in enumerate(pairs.tolist()):
        states = {(False, qa, ia), (True, qb, ib)}
        if seen and held + sum(cost[side] for side, _q, _i in states - seen) > WALK_MEMO_BYTES:
            ends.append(j)
            held, seen = 0, set()
        held += sum(cost[side] for side, _q, _i in states - seen)
        seen |= states
    return ends + [len(pairs)]


def _slab_positions(roots: np.ndarray, at: np.ndarray):
    """Position of roots[at] among the roots of its charge (roots as distinct_rows sorts them)."""
    return at - np.searchsorted(roots[:, 0], roots[at, 0])


def _pair_name(pair) -> str:
    """A (q_alpha, i_alpha, q_beta, i_beta) row as its two boundary states."""
    qa, ia, qb, ib = np.asarray(pair).tolist()
    return f"boundary pair {(qa, ia)}, {(qb, ib)}"


def _sector_positions(spec: WindowSpec, left_codes, right_codes, pair):
    """Sector-basis positions of the configurations a pair's partials' codes meet in."""
    n_up = int(pair_sector(spec, pair))
    basis = _sector_basis(2 * spec.l + 1, n_up)
    codes = ((left_codes[:, None] << spec.l) | right_codes[None, :]).ravel()
    pos = np.searchsorted(basis, codes)
    if basis.size == 0 or not np.array_equal(basis.take(pos, mode="clip"), codes):
        raise SamplingError(f"window of {_pair_name(pair)} leaves its {n_up}-up-spin sector")
    return pos


def sector_stacks(spec: WindowSpec, pairs: np.ndarray) -> list:
    """The ids of a pair table's rows as per-sector stacks, sectors ascending.

    pairs holds (q_alpha, i_alpha, q_beta, i_beta) rows. A stack keeps
    its sector's rows in table order and holds at most WALK_MEMO_BYTES
    of complex128 amplitudes, and at least one row. A row whose sector
    lies outside 0..2l+1 raises ConfigError.
    """
    n_sites, sectors = 2 * spec.l + 1, pair_sector(spec, pairs)
    bad = np.flatnonzero((sectors < 0) | (sectors > n_sites))
    if bad.size:
        raise ConfigError(f"{_pair_name(pairs[bad[0]])} reaches no sector of the window")
    stacks = []
    for n_up in np.unique(sectors).tolist():
        group = np.flatnonzero(sectors == n_up)
        height = max(1, WALK_MEMO_BYTES // (16 * math.comb(n_sites, n_up)))
        stacks.extend(group[lo:lo + height] for lo in range(0, group.size, height))
    return stacks


def _meet_batch(state: MPSState, spec: WindowSpec, batch, begun, positions):
    """Write the raw amplitudes of a batch of pairs into the rows of their stacks.

    batch holds one (stack, row, q_alpha, i_alpha, q_beta, i_beta) row
    per pair; begun(j) returns stack j's amplitudes, and positions keeps
    the sector positions of each (q_alpha, q_beta, central charge), which
    fix the sector.
    """
    a_first, a_at = distinct_rows(batch[:, 2:4])
    b_first, b_at = distinct_rows(batch[:, 4:6])
    alphas, betas = batch[a_first, 2:4], batch[b_first, 4:6]
    lefts = _partials(state, spec, alphas, right=False)
    rights = _partials(state, spec, betas, right=True)
    a_slab = _slab_positions(alphas, a_at)
    b_slab = _slab_positions(betas, b_at)
    firsts, group = distinct_rows(batch[:, [0, 2, 4]])
    for g, (j, qa, qb) in enumerate(batch[firsts][:, [0, 2, 4]].tolist()):
        mine = np.flatnonzero(group == g)
        for q, (cl, lmat) in lefts[qa].items():
            if q not in rights[qb]:
                continue
            cr, rmat = rights[qb][q]
            if (qa, qb, q) not in positions:
                positions[qa, qb, q] = _sector_positions(spec, cl, cr, batch[mine[0], 2:])
            pos = positions[qa, qb, q]
            # the gathered slabs are partials too, so they keep the budget
            step = max(1, WALK_MEMO_BYTES // (lmat[0].nbytes + rmat[0].nbytes))
            for at in range(0, mine.size, step):
                part = mine[at:at + step]
                meet = np.matmul(lmat[a_slab[part]], rmat[b_slab[part]].transpose(0, 2, 1))
                begun(j)[batch[part, 1][:, None], pos] = meet.reshape(part.size, -1)


def assemble_window_stacks(state: MPSState, spec: WindowSpec, pairs: np.ndarray):
    """Yield (ids, normalized window states, raw squared norms) of a pair table.

    pairs is an (m, 4) int array of (q_alpha, i_alpha, q_beta, i_beta)
    rows, as sample_spins_and_beta returns them; each stack of
    sector_stacks is yielded, one at a time, with ids, its rows' indices
    into pairs, as a WindowState of one amplitude row per id, with the
    squared norm of each raw row: lambda_alpha^2 times it is the pair's
    weight p(alpha, beta).
    Every amplitude is the inner product of a left partial product of
    alpha with a right one of beta across the central bond, nonzero only
    when their middle-bond sectors agree. The pairs of all stacks are
    assembled in consecutive batches (_partial_batches): the partials of
    a batch's distinct alphas and betas are built once (_partials), and
    inside a stack the pairs of one (q_alpha, q_beta) meet in one
    np.matmul per central-bond charge, a product per pair on the batch
    axis. A pair's amplitudes are thus the products of its own partials,
    whatever else shares its batch or its stack, and batching never
    changes a bit. A stack is yielded, each row divided by its norm, once
    its last pair is assembled.
    """
    n_sites = 2 * spec.l + 1
    stacks = sector_stacks(spec, pairs)
    if not stacks:
        return
    n_ups = [int(pair_sector(spec, pairs[at[0]])) for at in stacks]
    rows = np.column_stack([
        np.repeat(np.arange(len(stacks)), [at.size for at in stacks]),
        np.concatenate([np.arange(at.size) for at in stacks]),
        pairs[np.concatenate(stacks)],
    ])
    amps = [None] * len(stacks)

    def begun(j):
        """The amplitudes of stack j, zero until its pairs are met."""
        if amps[j] is None:
            dim = _sector_basis(n_sites, n_ups[j]).size
            amps[j] = np.zeros((stacks[j].size, dim), dtype=complex)
        return amps[j]

    positions = {}
    lo = ready = 0
    for hi in _partial_batches(state, spec, rows[:, 2:]):
        _meet_batch(state, spec, rows[lo:hi], begun, positions)
        lo = hi
        done = rows[hi, 0] if hi < rows.shape[0] else len(stacks)
        for j in range(ready, done):
            norms = np.empty(stacks[j].size)
            for r, (pair, row) in enumerate(zip(pairs[stacks[j]], begun(j))):
                norms[r] = float(np.vdot(row, row).real)
                if not norms[r] > 0.0:
                    raise SamplingError(f"window state of {_pair_name(pair)} has zero norm")
                row /= math.sqrt(norms[r])
            yield stacks[j], WindowState(amps[j], n_sites, n_ups[j]), norms
            amps[j] = None
        ready = done


def assemble_window_state(state: MPSState, spec: WindowSpec, pair) -> WindowState:
    """The normalized window state of one (q_alpha, i_alpha, q_beta, i_beta) row.

    The one-row view of assemble_window_stacks: the pair alone, as a
    table of one row, so a pair assembles to the same bits on its own as
    in any stack. A row that is not four integers, or that reaches no
    sector of the window, raises ConfigError.
    """
    row = np.asarray(pair)
    if row.shape != (4,) or row.dtype.kind not in "iu":
        raise ConfigError(f"a boundary pair is a row of four integers, got {pair!r}")
    ((_ids, psi, _norms),) = assemble_window_stacks(state, spec, row.astype(np.int64)[None, :])
    return psi
