"""Infinite-chain time evolution for the XXZ quench, two-site unit cell.

The chain alternates A-sites (even positions, up in the initial state)
and B-sites (odd positions, down initially). The state is stored as
right-normalized site matrices A(s) together with the Schmidt values of
both bond types, and every amplitude of the wavefunction is a plain
product of A matrices; no Schmidt value is ever divided out.

A bond update contracts the two-site gate with the neighboring site
matrices (the C tensor), fuses C into one block per middle-bond charge,
multiplies the left bond's Schmidt values on to form theta, decomposes
theta sector by sector, and rebuilds:

* the right tensor from rows of the right singular factor Y, which is
  exactly isometric even after truncation,
* the left tensor as C Y-dagger, one product per fused block, which
  re-embeds the new Schmidt values without any reciprocal.

Tiny Schmidt values therefore pass through updates harmlessly, which is
what lets the bond dimension be pushed hard without the usual blow-up
from inverting a near-singular bond.

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

#: Sz operator on one spin, basis (up, down).
SZ_1 = np.diag([0.5, -0.5])

#: Sz on the left / right spin of a pair, basis (uu, ud, du, dd).
SZ_LEFT = np.diag([0.5, 0.5, -0.5, -0.5])
SZ_RIGHT = np.diag([0.5, -0.5, 0.5, -0.5])


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
class TwoSiteGate:
    """exp(-i h step) for one bond, h = SxSx + SySy + delta SzSz."""

    u: np.ndarray
    delta: float
    step: float


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


def build_gate(delta: float, step: float) -> TwoSiteGate:
    """Closed-form two-site gate.

    The bond Hamiltonian is block diagonal in the pair basis
    (uu, ud, du, dd): the corners are delta/4, the central block is
    -delta/4 on the diagonal with 1/2 hopping. Exponentiating gives
    corner phases exp(-i delta step / 4) and a central rotation
    exp(+i delta step / 4) [[cos, -i sin], [-i sin, cos]] of half the
    step angle. The gate commutes with total pair Sz by construction.
    """
    corner = np.exp(-0.25j * delta * step)
    centre = np.exp(0.25j * delta * step)
    c = math.cos(step / 2.0)
    s = math.sin(step / 2.0)
    u = np.array(
        [
            [corner, 0.0, 0.0, 0.0],
            [0.0, centre * c, -1j * centre * s, 0.0],
            [0.0, -1j * centre * s, centre * c, 0.0],
            [0.0, 0.0, 0.0, corner],
        ],
        dtype=complex,
    )
    return TwoSiteGate(u=u, delta=float(delta), step=float(step))


def _pair_roles(state: MPSState, which: str):
    """Left/right tensors, their shift tables, and the multiplier bond."""
    if which == "AB":
        return state.a_a, state.a_b, SHIFT_A, SHIFT_B, state.lambda_b
    if which == "BA":
        return state.a_b, state.a_a, SHIFT_B, SHIFT_A, state.lambda_a
    raise ConfigError(f"which must be 'AB' or 'BA', got {which!r}")


def _gate_contraction(gate, left, right, shifts_left, shifts_right):
    """C(s_l, s_r) = sum_{a,b} U[(s_l,s_r),(a,b)] A_left(a) A_right(b)."""
    prods = {}
    for a in (UP, DN):
        for b in (UP, DN):
            p = left[a] @ right[b]
            if p.blocks:
                prods[(a, b)] = p
    c = {}
    for sl in (UP, DN):
        for sr in (UP, DN):
            acc = GradedMatrix(shifts_left[sl] + shifts_right[sr], {})
            for (a, b), p in prods.items():
                coeff = gate.u[2 * sl + sr, 2 * a + b]
                if coeff != 0.0:
                    acc = acc.add(p.scaled(coeff))
            c[(sl, sr)] = acc
    return c


def _fuse(c, shifts_left, shifts_right):
    """Group the four C matrices into one block per middle charge.

    Rows combine (left spin, left bond sector), columns combine
    (right spin, right bond sector); a row and a column belong to the
    same block exactly when they imply the same middle-bond charge.
    Returns the fused graded matrix, the row layout that places the
    left bond's Schmidt values and splits the rebuilt left tensor, and
    the column layout that splits the right singular factor.
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


def update_bond(state: MPSState, gate: TwoSiteGate, which: str, k_max: int):
    """Apply a two-site gate to an AB or BA pair and re-factorize.

    Returns (new_state, report). The untouched bond's Schmidt values are
    unchanged; the decomposed bond keeps the k_max globally largest
    values over all charge sectors. The rebuilt left tensor is C times
    the conjugate of the rebuilt right tensor, so no Schmidt value is
    inverted anywhere.
    """
    left, right, sh_l, sh_r, lam_mult = _pair_roles(state, which)
    c = _gate_contraction(gate, left, right, sh_l, sh_r)
    fused_c, row_layout, col_layout = _fuse(c, sh_l, sh_r)
    if not fused_c.blocks:
        raise ConfigError("update produced an empty theta; state is inconsistent")
    largest_block = max(max(b.shape) for b in fused_c.blocks.values())

    theta = {}
    for qm, block in fused_c.blocks.items():
        lam_rows = []
        for _sl, q_row, _r0, rd in row_layout[qm]:
            lam_vals = lam_mult.blocks.get(q_row)
            if lam_vals is None or lam_vals.size != rd:
                raise ConfigError(
                    f"state inconsistent: bond sector {q_row} has "
                    f"{0 if lam_vals is None else lam_vals.size} Schmidt values "
                    f"but tensor rows {rd}"
                )
            lam_rows.append(lam_vals)
        theta[qm] = block * np.concatenate(lam_rows)[:, None]

    spec_raw, y = block_svd(GradedMatrix(0, theta))
    norm2_before = spec_raw.total_weight
    spec_new, report = merged_truncate(spec_raw, k_max)
    report.largest_block_dim = largest_block
    renorm = math.sqrt(norm2_before - report.discarded_weight)

    left_blocks, right_blocks = {UP: {}, DN: {}}, {UP: {}, DN: {}}
    for qm, kept in report.kept_per_sector.items():
        vh = y.block(qm)[:kept, :]
        for sr, q_col, c0, cd in col_layout[qm]:
            right_blocks[sr][(qm, q_col)] = vh[:, c0 : c0 + cd]
        rebuilt = fused_c.block(qm) @ vh.conj().T * (1.0 / renorm)
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


def expect_pair_observable(state: MPSState, op4: np.ndarray) -> float:
    """<O> for a 4x4 observable on one A-B pair of the unit cell.

    Contracts the squared Schmidt values of the pair's left bond with
    the pair transfer matrices: <O> = sum O[t,s] tr(lambda^2 P(s) P(t)^+)
    with P(s) = A_A(s_left) A_B(s_right).
    """
    lam = state.lambda_b
    prods = {}
    for sa in (UP, DN):
        for sb in (UP, DN):
            p = state.a_a[sa] @ state.a_b[sb]
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
    ObserverRecord. Interior observations measure the half-layer-
    conjugated two-site operators on the merged-gauge state, which
    equals measuring the completed symmetric step without applying (and
    truncating) the extra half layer; the final step's trailing half
    layer is applied for real so the returned state is the physical one.
    """
    n = step_count(t_end - state.time, config.dt, "t_end - t")
    if n == 0:
        return state

    g_half = build_gate(config.delta, config.dt / 2.0)
    g_full = build_gate(config.delta, config.dt)
    uh = g_half.u
    op_sz0 = uh.conj().T @ SZ_LEFT @ uh
    op_sz1 = uh.conj().T @ SZ_RIGHT @ uh

    t0 = state.time
    state, rep = update_bond(state, g_half, "AB", config.k_max)
    step_weight = rep.discarded_weight
    for k in range(1, n + 1):
        state, rep = update_bond(state, g_full, "BA", config.k_max)
        step_weight += rep.discarded_weight
        t_k = t0 + k * config.dt
        if k < n:
            if observer is not None:
                observer(
                    _record(
                        t_k,
                        expect_pair_observable(state, op_sz0),
                        expect_pair_observable(state, op_sz1),
                        step_weight,
                        state,
                    )
                )
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
