"""Infinite-chain time evolution for the XXZ quench, two-site unit cell.

The chain alternates A-sites (even positions, up in the initial state)
and B-sites (odd positions, down initially). The state is stored as
right-normalized site matrices A(s) together with the Schmidt values of
both bond types, and every amplitude of the wavefunction is a plain
product of A matrices; no Schmidt value is ever divided out.
MPSState.site(i) and bond(i), the unit cell's one parity rule, are the
tensor at chain position i (A at even i) and the bond to its right.

Each site is one SiteTensor, its A(up) and A(down) matrices per
left-bond charge. A bond update forms the gate-independent products
A_left(a) A_right(b), fills the fused C tensor, one block per
middle-bond charge, as a plan cached per sector dimensions says,
multiplies the left bond's Schmidt values on to form theta, decomposes
theta sector by sector, and takes the new right matrices as column
views of the kept rows of the right singular factor Y, exactly
isometric even after truncation, and the new left matrices as row views
of C Y-dagger, which re-embeds the new Schmidt values without any
reciprocal.

Tiny Schmidt values therefore pass through updates harmlessly, which is
what lets the bond dimension be pushed hard without the usual blow-up
from inverting a near-singular bond.

The sector SVDs run where evolve_to puts them: it opens one
threads.helper_threads() block for its whole run, with one helper per
further usable CPU, joined on every exit; update_bond called on its
own decomposes inline. An update fills
theta's blocks largest first and puts each on a queue as soon as it is
filled, so a helper decomposes the first sectors while the calling
thread fills the rest; the calling thread then decomposes what no
helper has started. The bits cannot move with the CPU count: every
sector is one np.linalg.svd call on its own block whichever thread
makes it, and the factors are read back in charge order, so the kept
set, the gauge and the rebuilt tensors are those of the inline route.

The interior observations read <Sz> of both sites off the AB pair's
4x4 density matrix, formed from the same gate-free products, so a
measurement fills no C and no theta. The AB update that follows an
observation forms those products anyway, so evolve_to observes inside
it: update_bond hands its products to the observation once theta's
sectors are queued, and the calling thread measures while the helpers
decompose. Products are formed once per update, and a state never
changes after construction.

Charge bookkeeping: a bond state's charge is the number of up spins to
its left minus the initial count. Crossing a site changes the charge by
+1 when an up spin sits on an initially-down site, by -1 for the
reverse, so the A-sublattice shifts are (0, -1) for (up, down) and the
B-sublattice shifts are (+1, 0).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
from collections import defaultdict, namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_int, check_real, step_count
from .graded import (
    SchmidtSpectrum,
    SiteTensor,
    block_svd,
    gauged_rows,
    merged_truncate,
    sector_svds,
    svd_work,
)
from .threads import helper_threads

UP, DN = 0, 1

#: Charge picked up by a bond when the given spin crosses a site of the
#: given sublattice, indexed [spin].
SHIFT_A = (0, -1)
SHIFT_B = (1, 0)

@dataclass(frozen=True)
class QuenchConfig:
    """Parameters of a quench run, kept as the Python numbers checked."""

    delta: float = 0.5
    dt: float = 0.0625
    k_max: int = 256
    t_init: float = 0.0

    def __post_init__(self):
        for name in ("delta", "dt", "t_init"):
            object.__setattr__(self, name, check_real(getattr(self, name), name))
        object.__setattr__(self, "k_max", check_int(self.k_max, "k_max", 2))
        if not math.isfinite(self.delta):
            raise ConfigError("delta must be finite")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.t_init < 0.0:
            raise ConfigError("t_init must be >= 0")
        step_count(self.t_init, self.dt, "t_init")


@dataclass(frozen=True)
class MPSState:
    """Two-site unit cell state.

    a_a and a_b hold the site tensors of the A and B sublattices;
    lambda_a and lambda_b are the Schmidt values of the bonds to the
    right of A-sites and B-sites; site and bond read them by position.
    Instances are immutable and hold nothing but these fields; updates
    return new states.
    """

    a_a: SiteTensor
    a_b: SiteTensor
    lambda_a: SchmidtSpectrum
    lambda_b: SchmidtSpectrum
    time: float = 0.0

    def site(self, i: int) -> SiteTensor:
        """The site tensor at chain position i: a_a at even i, a_b at odd i."""
        return self.a_a if i % 2 == 0 else self.a_b

    def bond(self, i: int) -> SchmidtSpectrum:
        """The spectrum of the bond right of position i: lambda_a at even i."""
        return self.lambda_a if i % 2 == 0 else self.lambda_b


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
        a_a=SiteTensor(SHIFT_A, {0: one}, {}),
        a_b=SiteTensor(SHIFT_B, {}, {0: one}),
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
    """Site tensors at i and i + 1 (i = 0 for AB, 1 for BA), and the multiplier bond left of i."""
    if which not in ("AB", "BA"):
        raise ConfigError(f"which must be 'AB' or 'BA', got {which!r}")
    i = 0 if which == "AB" else 1
    return state.site(i), state.site(i + 1), state.bond(i - 1)


def _pair_products(left: SiteTensor, right: SiteTensor, lam: SchmidtSpectrum):
    """{(a, q, b): A_left(a)[q] A_right(b)}, the gate-free products of a pair.

    Raises ConfigError where lam, the bond left of the pair, has a sector
    whose Schmidt count differs from left's rows.
    """
    n_lam, prods = lam.sector_dims, {}
    for q, n_rows, *_widths in left.dims:
        if n_lam.get(q, 0) != n_rows:
            raise ConfigError(f"state inconsistent: bond sector {q} has {n_lam.get(q, 0)}"
                              f" Schmidt values but tensor rows {n_rows}")
        for a, arr in enumerate(left.parts[q]):
            rights = right.parts.get(q + left.shifts[a], ()) if arr is not None else ()
            for b, arr_r in enumerate(rights):
                if arr_r is not None:
                    prods[a, q, b] = arr @ arr_r
    return prods


_Block = namedtuple("_Block", "qm shape rows cols fill terms")
_Fused = namedtuple("_Fused", "c blocks plan products svds")


def _end_to_end(sizes):
    """(spin, charge, start, end) slots of {(spin, charge): size} in key order, and their slices."""
    slots, at, end = [], {}, 0
    for (s, q), d in sorted(sizes.items()):
        slots.append((s, q, end, end + d))
        at[s, q], end = slice(end, end + d), end + d
    return tuple(slots), at


@functools.lru_cache(maxsize=16)
def _pair_plan(which, left_dims, right_dims, live):
    """One _Block per middle charge of a pair's fused C, ascending.

    C(s_l, s_r) = sum_{a,b} U[(s_l,s_r),(a,b)] A_left(a) A_right(b) has
    (left spin, left sector) rows and (right spin, right sector) columns
    in one block per middle charge, wherever a nonzero gate entry (live:
    bytes of gate != 0) meets a product. Terms: (out slices, gate index,
    product key, first of its slot pair); fill: some slot pair has none.
    Plans depend on dimensions and live alone, so they are cached.
    """
    sh_l, sh_r = (SHIFT_A, SHIFT_B) if which == "AB" else (SHIFT_B, SHIFT_A)
    right = {q: widths for q, _rows, *widths in right_dims}
    # gate index k = 8 s_l + 4 s_r + 2 a + b: the live (k, s_l, s_r) of each 2 a + b
    entries = [[(k, k >> 3, k >> 2 & 1) for k in range(ab, 16, 4) if live[k]] for ab in range(4)]
    sizes, terms = defaultdict(lambda: ({}, {})), defaultdict(lambda: defaultdict(list))
    for q, n_rows, *widths in left_dims:
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

    C is filled from the pair's products as its plan says, largest block
    first (graded.svd_work); theta, C with rows scaled by the left
    bond's Schmidt values, is what block_svd takes. Each theta block is
    put on svds, a graded.sector_svds queue, as soon as it is filled, so
    a helper may decompose it while the rest are filled. The caller
    closes svds, in a with block; a fill that raises closes it here.
    """
    left, right, lam = _pair_roles(state, which)
    prods = _pair_products(left, right, lam)
    plan = _pair_plan(which, left.dims, right.dims, (gate != 0).tobytes())
    coeff = gate.ravel().tolist()
    works = [svd_work(block.shape) for block in plan]
    # C and theta keep the plan's ascending charges whatever the fill order
    charges = [block.qm for block in plan]
    c, theta = dict.fromkeys(charges), dict.fromkeys(charges)
    with contextlib.ExitStack() as on_error:
        svds = on_error.enter_context(sector_svds(works))
        for i in sorted(range(len(plan)), key=lambda i: -works[i]):
            block = plan[i]
            dense = c[block.qm] = (np.zeros if block.fill else np.empty)(block.shape, dtype=complex)
            # array times scalar: numpy may round scalar times array differently
            for out, k, prod, first in block.terms:
                if first:
                    np.multiply(prods[prod], coeff[k], out=dense[out])
                else:
                    dense[out] += prods[prod] * coeff[k]
            lam_rows = np.concatenate([lam.blocks[q] for _s, q, *_span in block.rows], dtype=complex)
            theta[block.qm] = dense * lam_rows[:, None]
            svds.put(block.qm, theta[block.qm], works[i])
        on_error.pop_all()
    return _Fused(c, theta, plan, prods, svds)


def update_bond(state: MPSState, gate: np.ndarray, which: str, k_max: int, meanwhile=None):
    """Apply a two-site gate to an AB or BA pair and re-factorize.

    Decomposes the pair's fused theta (see _fused_pair) and returns
    (new_state, report). The untouched bond's Schmidt values are
    unchanged; the decomposed bond keeps the k_max globally largest
    values over all charge sectors. The new right matrices are column
    views of the kept rows of Y, the new left ones row views of C
    Y-dagger. No Schmidt value is inverted anywhere. meanwhile, where
    given, is called with the pair's products once every theta block
    is queued and before block_svd collects them: work for this thread
    while helpers decompose.
    """
    left, right, _lam = _pair_roles(state, which)
    pair = _fused_pair(state, gate, which)
    with pair.svds:
        if meanwhile is not None:
            meanwhile(pair.products)
        spec_raw, factors = block_svd(pair)
    # the rebuild reads C and the plan alone: free the products and the
    # queue's copies of the factors, which the rebuild frees as it goes
    pair = pair._replace(products=None, svds=None)
    spec_new, report = merged_truncate(spec_raw, k_max)
    report.largest_block_dim = max(max(block.shape) for block in pair.plan)
    scale = 1.0 / math.sqrt(spec_raw.total_weight - report.discarded_weight)

    lefts, rights = ({}, {}), ({}, {})
    for block in pair.plan:
        kept = report.kept_per_sector.get(block.qm)
        if kept:
            vh = gauged_rows(*factors.pop(block.qm), kept)
            rebuilt = pair.c[block.qm] @ vh.conj().T
            rebuilt *= scale
            for s, q, start, end in block.rows:
                lefts[s][q] = rebuilt[start:end]
            for s, _q, start, end in block.cols:
                rights[s][block.qm] = vh[:, start:end]
    left_new = SiteTensor(left.shifts, *lefts)
    right_new = SiteTensor(right.shifts, *rights)
    if which == "AB":
        return dataclasses.replace(state, a_a=left_new, a_b=right_new, lambda_a=spec_new), report
    return dataclasses.replace(state, a_b=left_new, a_a=right_new, lambda_b=spec_new), report


def expect_sz(state: MPSState, sublattice: str = "A") -> float:
    """Single-site <Sz> on the given sublattice.

    Uses the Schmidt weights of the site's left bond and the
    right-normalization of everything to its right:
    <Sz> = sum_s sign(s) tr(lambda^2 A(s) A(s)^dagger).
    """
    if sublattice not in ("A", "B"):
        raise ConfigError(f"sublattice must be 'A' or 'B', got {sublattice!r}")
    i = 0 if sublattice == "A" else 1
    lam, tensors = state.bond(i - 1), state.site(i)
    val = 0.0
    for s, sign in ((UP, 0.5), (DN, -0.5)):
        for q_row, arr in tensors.spin(s).items():
            w2 = lam.blocks[q_row] ** 2
            val += sign * float(w2 @ np.sum(np.abs(arr) ** 2, axis=1))
    return val


def expect_pair_observable(state: MPSState, gate: np.ndarray, products=None):
    """(<Sz> left, <Sz> right) of one A-B pair of the unit cell after gate.

    Everything right of the pair is right-normalized, so the pair's
    4x4 density matrix, indexed 2 a + b as in build_gate, is
    rho[x, y] = sum_q sum_i lambda_{q,i}^2 sum_j P_x[q][i, j] conj(P_y[q][i, j])
    over the gate-free products P_(a,b)[q] = A_A(a)[q] A_B(b); only
    products of one column sector meet. Each value is then
    Re tr(G rho G^dagger Sz), and Sz is diagonal in the pair basis.
    products, where given, are those _pair_products forms for the pair,
    as an AB update of the state hands them over.
    """
    left, right, lam = _pair_roles(state, "AB")
    if products is None:
        products = _pair_products(left, right, lam)
    rho, sectors = np.zeros((4, 4), dtype=complex), defaultdict(dict)
    for (a, q, b), prod in products.items():
        sectors[q, left.shifts[a] + right.shifts[b]][2 * a + b] = prod * lam.blocks[q][:, None]
    for terms in sectors.values():
        for x, p_x in terms.items():
            for y, p_y in terms.items():
                rho[x, y] += np.vdot(p_y, p_x)
    uu, ud, du, dd = (gate @ rho @ gate.conj().T).diagonal().real.tolist()
    return 0.5 * (uu + ud - du - dd), 0.5 * (uu - ud + du - dd)


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
    An interior observation, observer call included, runs inside the
    next AB update, on its products, while that update's sectors
    decompose.
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
                observe = None
                if observer is not None:
                    def observe(products, state=state, t_k=t_k, weight=step_weight):
                        sz0, sz1 = expect_pair_observable(state, g_half, products)
                        observer(_record(t_k, sz0, sz1, weight, state))
                state, rep = update_bond(state, g_full, "AB", config.k_max, observe)
                step_weight = rep.discarded_weight
            else:
                state, rep = update_bond(state, g_half, "AB", config.k_max)
                step_weight += rep.discarded_weight
                state = dataclasses.replace(state, time=t_end)
                if observer is not None:
                    sz0, sz1 = expect_sz(state, "A"), expect_sz(state, "B")
                    observer(_record(t_k, sz0, sz1, step_weight, state))
        return state
