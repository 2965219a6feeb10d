"""Infinite-chain time evolution for the XXZ quench, two-site unit cell.

The chain alternates A-sites (even positions, up in the initial state)
and B-sites (odd positions, down initially). The state is stored as
right-normalized site matrices A(s) together with the Schmidt values of
both bond types, and every amplitude of the wavefunction is a plain
product of A matrices; no Schmidt value is ever divided out.

Each site is one SiteTensor, the layout the bond update reads and
writes: one block per left-bond charge, A(up) and A(down) side by side.
A bond update forms the gate-independent products A_left(a) A_right(b)
once per state (the pair observable and the update after it share
them), fills the fused C tensor, one block per middle-bond charge, as a
plan cached per sector dimensions says, multiplies the left bond's
Schmidt values on to form theta, decomposes theta sector by sector, and
rebuilds the right blocks from the kept rows of the right singular
factor Y, exactly isometric even after truncation, and the left tensor
as C Y-dagger, which re-embeds the new Schmidt values without any
reciprocal.

Tiny Schmidt values therefore pass through updates harmlessly, which is
what lets the bond dimension be pushed hard without the usual blow-up
from inverting a near-singular bond.

The sector SVDs run where evolve_to puts them: it opens one
threads.helper_threads() block for its whole run, so each update's
theta is dealt, longest sector first, to the calling thread and one
helper per further usable CPU (where BLAS runs on one thread), and the
helpers are joined on every exit. update_bond called on its own decomposes inline. The bits cannot
move with the CPU count: every sector is one np.linalg.svd call on its
own block whichever thread makes it, and the factors are read back in
charge order, so the kept set, the gauge and the rebuilt tensors are
those of the inline route.

The interior observations read <Sz> of both sites off the same theta:
Sz is diagonal in its rows and columns, so each value is a signed sum
of squared row or column norms.

Charge bookkeeping: a bond state's charge is the number of up spins to
its left minus the initial count. Crossing a site changes the charge by
+1 when an up spin sits on an initially-down site, by -1 for the
reverse, so the A-sublattice shifts are (0, -1) for (up, down) and the
B-sublattice shifts are (+1, 0).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections import defaultdict, namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, step_count
from .graded import SchmidtSpectrum, SiteTensor, block_svd, gauged_rows, merged_truncate
from .threads import helper_threads

UP, DN = 0, 1

#: Charge picked up by a bond when the given spin crosses a site of the
#: given sublattice, indexed [spin].
SHIFT_A = (0, -1)
SHIFT_B = (1, 0)

@dataclass(frozen=True)
class QuenchConfig:
    """Parameters of a quench run."""

    delta: float = 0.5
    dt: float = 0.0625
    k_max: int = 256
    t_init: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.delta):
            raise ConfigError("delta must be finite")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.k_max < 2:
            raise ConfigError(f"k_max must be >= 2, got {self.k_max}")
        if self.t_init < 0.0:
            raise ConfigError("t_init must be >= 0")
        step_count(self.t_init, self.dt, "t_init")


@dataclass(frozen=True)
class MPSState:
    """Two-site unit cell state.

    a_a and a_b hold the site tensors of the A and B sublattices;
    lambda_a and lambda_b are the Schmidt values of the bonds to the
    right of A-sites and B-sites respectively. Instances are immutable;
    updates return new states, which start without _products.
    """

    a_a: SiteTensor
    a_b: SiteTensor
    lambda_a: SchmidtSpectrum
    lambda_b: SchmidtSpectrum
    time: float = 0.0
    _products: dict = field(default_factory=dict, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class ObserverRecord:
    """One row of the evolution log, recorded after each full step."""

    time: float
    sz0: float
    sz1: float
    discarded_weight: float
    entropy_a: float
    entropy_b: float


def neel_init() -> MPSState:
    """Product state up-down-up-down with site 0 up; all bonds trivial."""
    one = np.ones((1, 1), dtype=complex)
    return MPSState(
        a_a=SiteTensor.from_spins(SHIFT_A, {0: one}, {}),
        a_b=SiteTensor.from_spins(SHIFT_B, {}, {0: one}),
        lambda_a=SchmidtSpectrum({0: [1.0]}),
        lambda_b=SchmidtSpectrum({0: [1.0]}),
        time=0.0,
    )


def build_gate(delta: float, step: float) -> np.ndarray:
    """The 4x4 unitary exp(-i h step) of one bond, h = SxSx + SySy + delta SzSz.

    Built in closed form: the bond Hamiltonian is block diagonal in the
    pair basis (uu, ud, du, dd): the corners are delta/4, the central
    block is -delta/4 on the diagonal with 1/2 hopping. Exponentiating gives
    corner phases exp(-i delta step / 4) and a central rotation
    exp(+i delta step / 4) [[cos, -i sin], [-i sin, cos]] of half the
    step angle. The gate commutes with total pair Sz by construction.
    """
    corner = np.exp(-0.25j * delta * step)
    centre = np.exp(0.25j * delta * step)
    c = math.cos(step / 2.0)
    s = math.sin(step / 2.0)
    return np.array(
        [
            [corner, 0.0, 0.0, 0.0],
            [0.0, centre * c, -1j * centre * s, 0.0],
            [0.0, -1j * centre * s, centre * c, 0.0],
            [0.0, 0.0, 0.0, corner],
        ],
        dtype=complex,
    )


def _pair_roles(state: MPSState, which: str):
    """Left and right site tensors of a pair, and the multiplier bond."""
    if which == "AB":
        return state.a_a, state.a_b, state.lambda_b
    if which == "BA":
        return state.a_b, state.a_a, state.lambda_a
    raise ConfigError(f"which must be 'AB' or 'BA', got {which!r}")


def _pair_products(state: MPSState, which: str):
    """{(a, q, b): A_left(a)[q] A_right(b)}: gate-free, kept on the state till its update."""
    prods = state._products.get(which)
    if prods is None:
        left, right, _lam = _pair_roles(state, which)
        prods = state._products[which] = {}
        for q, parts in left.parts.items():
            for a, arr in enumerate(parts):
                rights = right.parts.get(q + left.shifts[a], ()) if arr is not None else ()
                for b, arr_r in enumerate(rights):
                    if arr_r is not None:
                        prods[a, q, b] = arr @ arr_r
    return prods


_Block = namedtuple("_Block", "qm shape rows cols fill terms")
_Fused = namedtuple("_Fused", "c blocks plan")


def _end_to_end(sizes):
    """(spin, charge, start, end) slots of {(spin, charge): size} in key order, and their slices."""
    slots, at, end = [], {}, 0
    for (s, q), d in sorted(sizes.items()):
        slots.append((s, q, end, end + d))
        at[s, q], end = slice(end, end + d), end + d
    return tuple(slots), at


@functools.lru_cache(maxsize=16)
def _pair_plan(which, left_dims, right_dims, lam_dims, live):
    """One _Block per middle charge of a pair's fused C, ascending.

    C(s_l, s_r) = sum_{a,b} U[(s_l,s_r),(a,b)] A_left(a) A_right(b) has
    (left spin, left sector) rows and (right spin, right sector) columns
    in one block per middle charge, wherever a nonzero gate entry (live:
    bytes of gate != 0) meets a product. Terms: (out slices, gate index,
    product key, first of its slot pair); fill: some slot pair has none.
    Plans depend on dimensions and live alone, so they are cached.
    """
    sh_l, sh_r = (SHIFT_A, SHIFT_B) if which == "AB" else (SHIFT_B, SHIFT_A)
    right, lam = {q: widths for q, _rows, *widths in right_dims}, dict(lam_dims)
    # gate index k = 8 s_l + 4 s_r + 2 a + b: the live (k, s_l, s_r) of each 2 a + b
    entries = [[(k, k >> 3, k >> 2 & 1) for k in range(ab, 16, 4) if live[k]] for ab in range(4)]
    sizes, terms = defaultdict(lambda: ({}, {})), defaultdict(lambda: defaultdict(list))
    for q, n_rows, *widths in left_dims:
        if lam.get(q) != n_rows:
            raise ConfigError(f"state inconsistent: bond sector {q} has {lam.get(q, 0)}"
                              f" Schmidt values but tensor rows {n_rows}")
        for a, w_a in enumerate(widths):
            for b, w_b in enumerate(right.get(q + sh_l[a], ()) if w_a else ()):
                for k, sl, sr in entries[2 * a + b] if w_b else ():
                    qm, q_col = q + sh_l[sl], q + sh_l[a] + sh_r[b]
                    row_sizes, col_sizes = sizes[qm]
                    row_sizes[sl, q], col_sizes[sr, q_col] = n_rows, w_b
                    terms[qm][sl, q, sr, q_col].append((k, (a, q, b)))
    if not terms:
        raise ConfigError("pair produced an empty theta; state is inconsistent")
    plan = []
    for qm in sorted(terms):
        (rows, r_at), (cols, c_at) = (_end_to_end(slots) for slots in sizes[qm])
        plan.append(_Block(
            qm, (rows[-1][3], cols[-1][3]), rows, cols, len(terms[qm]) < len(rows) * len(cols),
            tuple(((r_at[sl, q], c_at[sr, qc]), k, prod, i == 0)
                  for (sl, q, sr, qc), t in terms[qm].items() for i, (k, prod) in enumerate(t)),
        ))
    return tuple(plan)


def _fused_pair(state: MPSState, gate: np.ndarray, which: str) -> _Fused:
    """The gated two-site tensor of a pair, one block per middle charge.

    C is filled from the state's products as its plan says; theta, C with
    rows scaled by the left bond's Schmidt values, is what block_svd takes.
    """
    left, right, lam = _pair_roles(state, which)
    prods = _pair_products(state, which)
    lam_dims = tuple((q, v.size) for q, v in lam.blocks.items())
    plan = _pair_plan(which, left.dims, right.dims, lam_dims, (gate != 0).tobytes())
    coeff = gate.ravel().tolist()
    c, theta = {}, {}
    for block in plan:
        dense = c[block.qm] = (np.zeros if block.fill else np.empty)(block.shape, dtype=complex)
        # array times scalar: numpy may round scalar times array differently
        for out, k, prod, first in block.terms:
            if first:
                np.multiply(prods[prod], coeff[k], out=dense[out])
            else:
                dense[out] += prods[prod] * coeff[k]
        lam_rows = np.concatenate([lam.blocks[q] for _s, q, _b, _e in block.rows], dtype=complex)
        theta[block.qm] = dense * lam_rows[:, None]
    return _Fused(c, theta, plan)


def update_bond(state: MPSState, gate: np.ndarray, which: str, k_max: int):
    """Apply a two-site gate to an AB or BA pair and re-factorize.

    Decomposes the pair's fused theta (see _fused_pair) and returns
    (new_state, report). The untouched bond's Schmidt values are
    unchanged; the decomposed bond keeps the k_max globally largest
    values over all charge sectors. The new right blocks are the kept
    rows of Y; the new left tensor is C Y-dagger, whose row slots are
    its up and down halves. No Schmidt value is inverted anywhere.
    """
    left, right, _lam = _pair_roles(state, which)
    pair = _fused_pair(state, gate, which)
    del state._products[which]  # used up: the update needs only C from here
    spec_raw, factors = block_svd(pair)
    spec_new, report = merged_truncate(spec_raw, k_max)
    report.largest_block_dim = max(max(block.shape) for block in pair.plan)
    scale = 1.0 / math.sqrt(spec_raw.total_weight - report.discarded_weight)

    right_blocks, right_split, halves = {}, {}, ({}, {})
    for block in pair.plan:
        kept = report.kept_per_sector.get(block.qm)
        if kept:
            vh = right_blocks[block.qm] = gauged_rows(*factors.pop(block.qm), kept)
            right_split[block.qm] = block.cols[0][3] if block.cols[0][0] == UP else 0
            rebuilt = pair.c[block.qm] @ vh.conj().T
            rebuilt *= scale
            for s, q, start, end in block.rows:
                halves[s][q] = rebuilt[start:end]
    left_new = SiteTensor.from_spins(left.shifts, *halves)
    right_new = SiteTensor(right.shifts, right_blocks, right_split)
    if which == "AB":
        return dataclasses.replace(state, a_a=left_new, a_b=right_new, lambda_a=spec_new), report
    return dataclasses.replace(state, a_b=left_new, a_a=right_new, lambda_b=spec_new), report


def expect_sz(state: MPSState, sublattice: str = "A") -> float:
    """Single-site <Sz> on the given sublattice.

    Uses the Schmidt weights of the site's left bond and the
    right-normalization of everything to its right:
    <Sz> = sum_s sign(s) tr(lambda^2 A(s) A(s)^dagger).
    """
    if sublattice == "A":
        lam, tensors = state.lambda_b, state.a_a
    elif sublattice == "B":
        lam, tensors = state.lambda_a, state.a_b
    else:
        raise ConfigError(f"sublattice must be 'A' or 'B', got {sublattice!r}")
    val = 0.0
    for s, sign in ((UP, 0.5), (DN, -0.5)):
        for q_row, arr in tensors.spin(s).items():
            w2 = lam.blocks[q_row] ** 2
            val += sign * float(w2 @ np.sum(np.abs(arr) ** 2, axis=1))
    return val


def expect_pair_observable(state: MPSState, gate: np.ndarray):
    """(<Sz> left, <Sz> right) of one A-B pair of the unit cell after gate.

    Sz is diagonal in the rows (left spin) and columns (right spin) of
    the pair's theta, the Schmidt values of its left bond are already in
    the rows, and everything right of the pair is right-normalized, so
    each value is a sum of squared row or column norms of theta, signed
    by the spin of the row or column.
    """
    pair = _fused_pair(state, gate, "AB")
    sz_left = sz_right = 0.0
    for block in pair.plan:
        w2 = np.abs(pair.blocks[block.qm]) ** 2
        row_w, col_w = w2.sum(axis=1), w2.sum(axis=0)
        for s, _q, r0, r1 in block.rows:
            sz_left += (0.5 if s == UP else -0.5) * float(row_w[r0:r1].sum())
        for s, _q, c0, c1 in block.cols:
            sz_right += (0.5 if s == UP else -0.5) * float(col_w[c0:c1].sum())
    return sz_left, sz_right


def _record(t, sz0, sz1, discarded_weight, state) -> ObserverRecord:
    entropies = state.lambda_a.entropy(), state.lambda_b.entropy()
    return ObserverRecord(t, sz0, sz1, discarded_weight, *entropies)


def evolve_to(
    state: MPSState,
    t_end: float,
    config: QuenchConfig,
    observer=None,
) -> MPSState:
    """Evolve with second-order splitting to t_end.

    One step is AB(dt/2) BA(dt) AB(dt/2); the trailing and leading half
    layers of consecutive steps are merged into full AB layers. The
    observer, when given, is called after every full step with an
    ObserverRecord. Interior observations read <Sz> off the merged-gauge
    AB pair with the half-layer gate applied but not decomposed, which
    equals measuring the completed symmetric step without applying (and
    truncating) the extra half layer; the final step's trailing half
    layer is applied for real so the returned state is the physical one.
    """
    n = step_count(t_end - state.time, config.dt, "t_end - t")
    if n == 0:
        return state

    g_half = build_gate(config.delta, config.dt / 2.0)
    g_full = build_gate(config.delta, config.dt)

    t0 = state.time
    with helper_threads():
        state, rep = update_bond(state, g_half, "AB", config.k_max)
        step_weight = rep.discarded_weight
        for k in range(1, n + 1):
            state, rep = update_bond(state, g_full, "BA", config.k_max)
            step_weight += rep.discarded_weight
            t_k = t0 + k * config.dt
            if k < n:
                if observer is not None:
                    sz0, sz1 = expect_pair_observable(state, g_half)
                    observer(_record(t_k, sz0, sz1, step_weight, state))
                state, rep = update_bond(state, g_full, "AB", config.k_max)
                step_weight = rep.discarded_weight
            else:
                state, rep = update_bond(state, g_half, "AB", config.k_max)
                step_weight += rep.discarded_weight
                state = dataclasses.replace(state, time=t_end)
                if observer is not None:
                    sz0, sz1 = expect_sz(state, "A"), expect_sz(state, "B")
                    observer(_record(t_k, sz0, sz1, step_weight, state))
        return state
