"""Infinite-chain time evolution for the XXZ quench, two-site unit cell.

The chain alternates A-sites (even positions, up in the initial state)
and B-sites (odd positions, down initially). The state is stored as
right-normalized site matrices A(s) together with the Schmidt values of
both bond types, and every amplitude of the wavefunction is a plain
product of A matrices; no Schmidt value is ever divided out.

A bond update contracts the two-site gate with the neighboring site
matrices straight into one block per middle-bond charge (the fused C
tensor), multiplies the left bond's Schmidt values on to form theta,
decomposes theta sector by sector, and rebuilds:

* the right tensor from rows of the right singular factor Y, which is
  exactly isometric even after truncation,
* the left tensor as C Y-dagger, one product per fused block, which
  re-embeds the new Schmidt values without any reciprocal.

Tiny Schmidt values therefore pass through updates harmlessly, which is
what lets the bond dimension be pushed hard without the usual blow-up
from inverting a near-singular bond.

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
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, step_count
from .graded import (
    GradedMatrix,
    SchmidtSpectrum,
    TruncationReport,
    block_svd,
    merged_truncate,
)

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

    a_a and a_b hold the (up, down) site matrices of the A and B
    sublattices; lambda_a and lambda_b are the Schmidt values of the
    bonds to the right of A-sites and B-sites respectively. Instances
    are immutable; updates return new states.
    """

    a_a: tuple
    a_b: tuple
    lambda_a: SchmidtSpectrum
    lambda_b: SchmidtSpectrum
    time: float = 0.0


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
        a_a=(GradedMatrix(SHIFT_A[UP], {(0, 0): one}), GradedMatrix(SHIFT_A[DN], {})),
        a_b=(GradedMatrix(SHIFT_B[UP], {}), GradedMatrix(SHIFT_B[DN], {(0, 0): one})),
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
    """Left/right tensors, their shift tables, and the multiplier bond."""
    if which == "AB":
        return state.a_a, state.a_b, SHIFT_A, SHIFT_B, state.lambda_b
    if which == "BA":
        return state.a_b, state.a_a, SHIFT_B, SHIFT_A, state.lambda_a
    raise ConfigError(f"which must be 'AB' or 'BA', got {which!r}")


def _layout(dims, middle):
    """(spin, bond charge, offset, size) slots grouped by middle charge."""
    layout = {}
    for (s, q), d in sorted(dims.items()):
        slots = layout.setdefault(middle(s, q), [])
        offset = slots[-1][2] + slots[-1][3] if slots else 0
        slots.append((s, q, offset, d))
    return layout


def _fused_pair(state: MPSState, gate: np.ndarray, which: str):
    """The gated two-site tensor of a pair, one block per middle charge.

    C(s_l, s_r) = sum_{a,b} U[(s_l,s_r),(a,b)] A_left(a) A_right(b),
    each sector product A_left(a) A_right(b) formed once. Rows combine
    (left spin, left bond sector), columns combine (right spin, right
    bond sector); a row and a column belong to the same block exactly
    when they imply the same middle-bond charge. theta is C with its
    rows scaled by the left bond's Schmidt values.

    Returns (c, theta, row_layout, col_layout): c maps each middle
    charge to its dense block, theta is the GradedMatrix of the scaled
    blocks, and the layouts list the (spin, bond charge, offset, size)
    slots of each block's rows and columns.
    """
    left, right, sh_l, sh_r, lam = _pair_roles(state, which)
    prods = []
    for a in (UP, DN):
        for b in (UP, DN):
            for q_row, arr in left[a].blocks.items():
                arr_r = right[b].blocks.get(q_row + sh_l[a])
                if arr_r is not None:
                    prods.append((a, b, q_row, arr @ arr_r))
    # one summed block per (left spin, row charge, right spin, col charge)
    terms = {}
    for sl in (UP, DN):
        for sr in (UP, DN):
            for a, b, q_row, p in prods:
                coeff = gate[2 * sl + sr, 2 * a + b]
                if coeff != 0.0:
                    key = (sl, q_row, sr, q_row + sh_l[a] + sh_r[b])
                    term = p * coeff
                    terms[key] = terms[key] + term if key in terms else term
    if not terms:
        raise ConfigError("pair produced an empty theta; state is inconsistent")
    row_layout = _layout(
        {(sl, q_row): t.shape[0] for (sl, q_row, _sr, _qc), t in terms.items()},
        lambda sl, q_row: q_row + sh_l[sl],
    )
    col_layout = _layout(
        {(sr, q_col): t.shape[1] for (_sl, _qr, sr, q_col), t in terms.items()},
        lambda sr, q_col: q_col - sh_r[sr],
    )

    c, theta = {}, {}
    for qm in sorted(row_layout):
        rows, cols = row_layout[qm], col_layout[qm]
        dense = np.zeros(
            (rows[-1][2] + rows[-1][3], cols[-1][2] + cols[-1][3]), dtype=complex
        )
        lam_rows = []
        for sl, q_row, r0, rd in rows:
            lam_vals = lam.blocks.get(q_row)
            if lam_vals is None or lam_vals.size != rd:
                raise ConfigError(
                    f"state inconsistent: bond sector {q_row} has "
                    f"{0 if lam_vals is None else lam_vals.size} Schmidt values "
                    f"but tensor rows {rd}"
                )
            lam_rows.append(lam_vals)
            for sr, q_col, c0, cd in cols:
                term = terms.get((sl, q_row, sr, q_col))
                if term is not None:
                    dense[r0 : r0 + rd, c0 : c0 + cd] = term
        c[qm] = dense
        theta[qm] = dense * np.concatenate(lam_rows)[:, None]
    return c, GradedMatrix(0, theta), row_layout, col_layout


def update_bond(state: MPSState, gate: np.ndarray, which: str, k_max: int):
    """Apply a two-site gate to an AB or BA pair and re-factorize.

    Decomposes the pair's fused theta (see _fused_pair) and returns
    (new_state, report). The untouched bond's Schmidt values are
    unchanged; the decomposed bond keeps the k_max globally largest
    values over all charge sectors. The rebuilt left tensor is C times
    the conjugate of the rebuilt right tensor, so no Schmidt value is
    inverted anywhere.
    """
    _left, _right, sh_l, sh_r, _lam = _pair_roles(state, which)
    c, theta, row_layout, col_layout = _fused_pair(state, gate, which)
    largest_block = max(max(b.shape) for b in c.values())

    spec_raw, y = block_svd(theta)
    norm2_before = spec_raw.total_weight
    spec_new, report = merged_truncate(spec_raw, k_max)
    report.largest_block_dim = largest_block
    renorm = math.sqrt(norm2_before - report.discarded_weight)

    left_blocks, right_blocks = {UP: {}, DN: {}}, {UP: {}, DN: {}}
    for qm, kept in report.kept_per_sector.items():
        vh = y.block(qm)[:kept, :]
        for sr, q_col, c0, cd in col_layout[qm]:
            right_blocks[sr][(qm, q_col)] = vh[:, c0 : c0 + cd]
        rebuilt = c[qm] @ vh.conj().T * (1.0 / renorm)
        for sl, q_row, r0, rd in row_layout[qm]:
            left_blocks[sl][(q_row, qm)] = rebuilt[r0 : r0 + rd]
    left_new = tuple(GradedMatrix(sh_l[s], left_blocks[s]) for s in (UP, DN))
    right_new = tuple(GradedMatrix(sh_r[s], right_blocks[s]) for s in (UP, DN))

    if which == "AB":
        new_state = dataclasses.replace(
            state, a_a=left_new, a_b=right_new, lambda_a=spec_new
        )
    else:
        new_state = dataclasses.replace(
            state, a_b=left_new, a_a=right_new, lambda_b=spec_new
        )
    return new_state, report


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
        for q_row, arr in tensors[s].blocks.items():
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
    _c, theta, row_layout, col_layout = _fused_pair(state, gate, "AB")
    sz_left = sz_right = 0.0
    for qm, block in theta.blocks.items():
        w2 = np.abs(block) ** 2
        row_w, col_w = w2.sum(axis=1), w2.sum(axis=0)
        for s, _q, r0, rd in row_layout[qm]:
            sz_left += (0.5 if s == UP else -0.5) * float(row_w[r0 : r0 + rd].sum())
        for s, _q, c0, cd in col_layout[qm]:
            sz_right += (0.5 if s == UP else -0.5) * float(col_w[c0 : c0 + cd].sum())
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
                observer(
                    _record(
                        t_k, expect_sz(state, "A"), expect_sz(state, "B"),
                        step_weight, state,
                    )
                )
    return state
