"""Two-phase experiment driver: evolve, checkpoint, sample, aggregate.

Phase one runs the infinite-chain evolution to a chosen time and writes
a checkpoint plus a per-step observable curve. Phase two draws
independent boundary samples, evolves each distinct sampled window
once, on a process pool only when that work is large enough to pay for
one, and reduces the results to a mean/stderr curve on the fixed grid
t_init + k * delta_t.

Determinism contract: each sample's uniforms are numpy's PCG64 stream
of SeedSequence((master_seed, sample_id)), a function of that pair
alone, drawn for all samples in one pass (sample_uniforms), and the
reduction runs over all value rows stacked in ascending sample_id
order, so the output files are byte-identical for any worker count.
Output metadata deliberately excludes worker counts and timestamps.

A run takes two rounds. Round one runs in this process: one vectorized
pass draws the 2l+3 uniforms of every sample, and one batched walk
over all samples, in sample_id order, turns them into boundary pairs
(see sampler). The walk runs in one process whatever the worker count,
so the pairs cannot depend on it. The distinct pairs of the run are kept
in order of first occurrence, and round two evolves each of them
exactly once: the pairs are grouped by total-Sz sector into row stacks
of at most STACK_ENTRIES amplitudes, one sparse-times-dense product per
Taylor order. The worker count is an upper bound: a round whose work
(stack amplitudes x Taylor orders x grid steps) is below POOL_WORK is
one share, and otherwise the stacks are dealt into at most one share
per worker and per CPU this process may run on. One share runs in this
process; more run on a pool of one process per share, whose
initializer loads the checkpoint once per process. The dedup is exact
because a pair's series depends only on the pair, the checkpoint state,
the window Hamiltonian (fixed by h) and the time grid, never on the
sample that drew it. Stacking is exact too. A share's windows are
assembled by one stack assembler whose batched products make one
product per boundary state and per pair, exactly the product a pair
assembled alone makes (see sampler), so a window's amplitudes do not
depend on what is assembled beside it. Every column of the Taylor
product accumulates in the order of a single matrix-vector product, and
norms, the drift guard and <Sz> are taken row by row. So a series does
not depend on which pairs share its stack, its assembly batch or its
share, and how pairs are split among processes changes where the work
runs, never a byte of the output.

All data files are CSV with a '#'-prefixed JSON metadata line followed
by a column header; floats are written with shortest round-trip
precision.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigError, check_seed, step_count
from .itebd import MPSState, QuenchConfig, evolve_to, neel_init
# assemble_window_state is not called here; perfbench patches its name in
# this module as in sampler, so the name stays importable from both.
from .sampler import (  # noqa: F401
    WindowSpec,
    assemble_window_stacks,
    assemble_window_state,
    pair_sector,
    sample_alpha,
    sample_spins_and_beta,
)
from .window import (
    EvolverParams,
    SparseWindowHamiltonian,
    build_hloc,
    evolve_and_measure,
    spin_wave_velocity,
)

#: Named parameter bundles. The full set is production scale and far
#: beyond interactive use; the desk sets finish on a laptop and are the
#: ones exercised by the test suite.
PROFILES = {
    "full": {"delta": 0.5, "dt": 0.0625, "k_max": 4096, "l": 10,
             "delta_t": 1.0 / 3.0, "n_max": 20},
    "desk": {"delta": 0.5, "dt": 0.0625, "k_max": 128, "l": 4,
             "delta_t": 1.0 / 3.0, "n_max": 20},
    "desk-small": {"delta": 0.5, "dt": 0.0625, "k_max": 16, "l": 2,
                   "delta_t": 1.0 / 3.0, "n_max": 20},
}

#: Most amplitudes (rows x sector dimension) one propagated stack holds.
STACK_ENTRIES = 1 << 21

#: Least round-two work for which the stacks are dealt to a process
#: pool. Work is the amplitudes of all stacks times Taylor orders times
#: grid steps: the entries of every sparse-times-dense product the round
#: makes. Below it, starting and feeding a pool costs more than it saves,
#: so the whole round runs in this process. On a 2-vCPU Xeon with the
#: desk checkpoint (k=128, t=4), a 2-process pool lost to one process at
#: every measured work up to 6.9e6 (l=5) and won from 8.7e6 (l=6) up.
POOL_WORK = 1 << 23


@dataclass(frozen=True)
class AggregateCurve:
    """Mean curve with per-point standard errors on a fixed grid."""

    times: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    n_samples: int
    shift_constant: float = 0.0


@dataclass(frozen=True)
class PeakSeries:
    """Interior local maxima of |mean|: (time, height, stderr) triples."""

    peaks: tuple


def git_blob_sha1(path) -> str:
    """Content hash of a file, computed the way git hashes a blob."""
    with open(path, "rb") as fh:
        data = fh.read()
    h = hashlib.sha1()
    h.update(b"blob %d\0" % len(data))
    h.update(data)
    return h.hexdigest()


def _fmt(x) -> str:
    return repr(float(x))


def write_table(path, meta: dict, header, rows):
    """CSV with a '#'-prefixed JSON metadata line, LF newlines only."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def read_table(path):
    """(metadata, columns) of a CSV written by write_table.

    Every column is parsed as float except n_samples, which is an
    integer count. A metadata line that is not a JSON object, a row
    whose field count differs from the header's, or a field that does
    not parse raises ConfigError naming the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.startswith("#"):
            raise ConfigError(f"{path}: missing '#' metadata line")
        try:
            meta = json.loads(first[1:])
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: metadata line is not JSON: {exc}") from None
        if not isinstance(meta, dict):
            raise ConfigError(f"{path}: metadata line is not a JSON object")
        header = fh.readline().strip().split(",")
        parsers = [int if name == "n_samples" else float for name in header]
        cols = {name: [] for name in header}
        for lineno, line in enumerate(fh, start=3):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != len(header):
                raise ConfigError(
                    f"{path}:{lineno}: {len(fields)} fields, header has {len(header)}"
                )
            try:
                for name, parse, tok in zip(header, parsers, fields):
                    cols[name].append(parse(tok))
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return meta, {
        name: np.array(cols[name], dtype=parse) for name, parse in zip(header, parsers)
    }


def read_aggregate_curve(path) -> tuple:
    """(metadata, AggregateCurve) from a sampling output file."""
    meta, cols = read_table(path)
    for need in ("t", "mean_sz0", "stderr", "n_samples"):
        if need not in cols:
            raise ConfigError(f"{path}: missing column {need}")
    n = int(cols["n_samples"][0]) if cols["n_samples"].size else 0
    return meta, AggregateCurve(
        times=cols["t"],
        mean=cols["mean_sz0"],
        stderr=cols["stderr"],
        n_samples=n,
        shift_constant=float(meta.get("shift_constant", 0.0)),
    )


def run_itebd(config: QuenchConfig, out_checkpoint, out_curve) -> int:
    """Evolve the quench to config.t_init; write checkpoint and curve."""
    records = []
    state = evolve_to(neel_init(), config.t_init, config, observer=records.append)
    save_checkpoint(out_checkpoint, state, config)
    header = ("t", "sz0", "sz1", "discarded_weight", "entropy_A", "entropy_B")
    rows = [tuple(map(_fmt, (0.0, 0.5, -0.5, 0.0, 0.0, 0.0)))]
    for rec in records:
        rows.append(
            tuple(
                map(
                    _fmt,
                    (rec.time, rec.sz0, rec.sz1, rec.discarded_weight,
                     rec.entropy_a, rec.entropy_b),
                )
            )
        )
    meta = {
        "delta": config.delta,
        "dt": config.dt,
        "k_max": config.k_max,
        "t_init": config.t_init,
        "checkpoint": git_blob_sha1(out_checkpoint),
    }
    write_table(out_curve, meta, header, rows)
    return 0


#: numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
#: and PCG64's 128-bit multiplier as (high, low) 64-bit halves.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645))
_M32 = 0xFFFFFFFF


def _hashmix(words, h, mult):
    """SeedSequence's hash of 32-bit words under constant h, and the next h."""
    after = h * mult & _M32
    v = (words ^ h) * after & _M32
    return v ^ v >> 16, after


def _seed_state(words):
    """SeedSequence(words).generate_state(4, uint64) for 4 word arrays.

    Entropy shorter than numpy's pool of 4 words is padded with zeros,
    so trailing zero words hash exactly like the padding.
    """
    h = _INIT_A
    pool = []
    for w in words:
        v, h = _hashmix(w, h, _MULT_A)
        pool.append(v)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                v, h = _hashmix(pool[src], h, _MULT_A)
                mixed = (_MIX_L * pool[dst] - _MIX_R * v) & _M32
                pool[dst] = mixed ^ mixed >> 16
    h = _INIT_B
    out = []
    for i in range(8):
        v, h = _hashmix(pool[i % 4], h, _MULT_B)
        out.append(v)
    return [out[2 * j] | out[2 * j + 1] << 32 for j in range(4)]


def _mulhi(x, y):
    """High 64 bits of the 128-bit product x * y, from 32-bit halves."""
    x0, x1, y0, y1 = x & _M32, x >> 32, y & _M32, y >> 32
    hl = x1 * y0
    cross = (x0 * y0 >> 32) + (hl & _M32) + x0 * y1
    return (hl >> 32) + (cross >> 32) + x1 * y1


def _step(state, inc):
    """One PCG64 step, state * multiplier + inc mod 2^128, on (high, low)."""
    (sh, sl), (mh, ml), (ih, il) = state, _PCG_MULT, inc
    lo = sl * ml + il
    return _mulhi(sl, ml) + sh * ml + sl * mh + ih + (lo < il), lo


def sample_uniforms(master_seed: int, sample_ids, n: int) -> np.ndarray:
    """The (len(sample_ids), n) uniforms of the samples, one row each.

    Row i is bit for bit default_rng(SeedSequence((master_seed,
    sample_ids[i]))).random(n): numpy's PCG64 stream, drawn for all
    samples at once on uint64 arrays. The seed and each id are at most
    two 32-bit entropy words, so the entropy never outgrows SeedSequence's
    4-word pool, and an id's high word, when zero, hashes like numpy's
    padding. A walk uses each row in order: alpha, the 2l+1 window
    spins, then beta.
    """
    master_seed = check_seed(int(master_seed))
    ids = np.asarray(sample_ids, dtype=np.uint64)
    head = [master_seed & _M32] + ([master_seed >> 32] if master_seed >> 32 else [])
    words = [np.full(ids.shape, w, dtype=np.uint64) for w in head] + [ids & _M32, ids >> 32]
    words += [np.zeros_like(ids)] * (4 - len(words))
    seed_hi, seed_lo, seq_hi, seq_lo = _seed_state(words)
    # PCG64 set_seed: inc = 2 seq + 1; from state 0, step, add the seed, step
    inc = (seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1)
    lo = seed_lo + inc[1]
    state = _step((seed_hi + inc[0] + (lo < seed_lo), lo), inc)
    u = np.empty((ids.size, n))
    for k in range(n):
        # each draw steps, then rotates high ^ low right by the top 6 bits
        state = _step(state, inc)
        hi, lo = state
        xored, rot = hi ^ lo, hi >> 58
        u[:, k] = (xored >> rot | xored << (-rot & 63)) >> 11
    return u * 2.0**-53


def sample_one(master_seed: int, sample_id: int, n: int) -> np.ndarray:
    """The n uniforms of one sample: its row of sample_uniforms.

    They are the first n doubles of numpy's PCG64 stream of
    SeedSequence((master_seed, sample_id)); run_mc draws the rows of
    all samples in one sample_uniforms pass and does not call this.
    """
    return sample_uniforms(master_seed, [sample_id], n)[0]


@dataclass(frozen=True)
class _Run:
    """What round two of one Monte Carlo run needs in every process."""

    state: MPSState
    spec: WindowSpec
    h: SparseWindowHamiltonian
    params: EvolverParams

    @classmethod
    def of(cls, state, config, l, t_fin, delta_t, n_max):
        params = EvolverParams(delta_t=delta_t, n_max=n_max, t_fin=t_fin)
        return cls(state, WindowSpec(l=l), build_hloc(l, config.delta), params)


def _evolve_share(run, stacks):
    """Round two: the (rows, points) series of each (n_up, pairs) stack."""
    out = []
    for stack in assemble_window_stacks(run.state, run.spec, stacks):
        values = evolve_and_measure(stack, run.h, run.params, t_init=run.state.time)
        out.append(np.array([v for _t, v in values]).T)
    return out


#: The run a pool worker process serves, set once by the pool initializer.
_WORKER_RUN = None


def _init_worker(path, *args):
    """Pool initializer: load the checkpoint once per worker process."""
    global _WORKER_RUN
    _WORKER_RUN = _Run.of(*load_checkpoint(path), *args)


def _evolve_in_worker(stacks):
    """_evolve_share in a pool worker, on the run it serves."""
    return _evolve_share(_WORKER_RUN, stacks)


def _shares(spec, pairs, n_shares, products):
    """The distinct pairs as per-sector stacks, dealt into <= n_shares lists.

    A stack holds at most STACK_ENTRIES amplitudes. If the amplitudes
    of all stacks times products (Taylor orders x grid steps) fall short
    of POOL_WORK, every stack goes to one share. Otherwise each stack,
    largest first, goes to the share with the fewest amplitudes so far.
    """
    by_sector = {}
    for pair in pairs:
        by_sector.setdefault(pair_sector(spec, pair.alpha, pair.beta), []).append(pair)
    stacks = []
    for n_up, group in by_sector.items():
        dim = math.comb(2 * spec.l + 1, n_up)
        height = max(1, STACK_ENTRIES // dim)
        for lo in range(0, len(group), height):
            chunk = group[lo:lo + height]
            stacks.append((dim * len(chunk), n_up, chunk))
    if sum(size for size, _n_up, _chunk in stacks) * products < POOL_WORK:
        n_shares = 1
    shares = [[] for _ in range(n_shares)]
    loads = [0] * n_shares
    for size, n_up, chunk in sorted(stacks, key=lambda st: -st[0]):
        j = loads.index(min(loads))
        shares[j].append((n_up, chunk))
        loads[j] += size
    return [share for share in shares if share]


def _two_rounds(run, master_seed, n_samples, evolve, n_shares, n_points):
    """Value rows of every sample, in sample_id order.

    Round one draws every sample's pair in this process; round two
    evolves each distinct pair of the whole run once, in at most
    n_shares shares, through evolve(shares), which returns the series
    of each share in order.
    """
    state, spec = run.state, run.spec
    u = sample_uniforms(master_seed, np.arange(n_samples), 2 * spec.l + 3)
    alphas = sample_alpha(state, spec, u[:, 0])
    pairs = sample_spins_and_beta(state, spec, alphas, u[:, 1:])
    index = {}
    ids = [index.setdefault(pair, len(index)) for pair in pairs]
    shares = _shares(spec, index, n_shares, run.params.n_max * (n_points - 1))
    table = np.empty((len(index), n_points))
    for share, series in zip(shares, evolve(shares)):
        for (_n_up, stack), rows in zip(share, series):
            table[[index[pair] for pair in stack]] = rows
    return table[ids]


def _grid_size(t_init: float, t_fin: float, delta_t: float) -> int:
    return step_count(t_fin - t_init, delta_t, "t_fin - t_init") + 1


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_mc(
    checkpoint,
    l: int,
    t_fin: float,
    delta_t: float,
    n_max: int,
    n_samples: int,
    master_seed: int,
    n_workers: int,
    out=None,
) -> AggregateCurve:
    """Monte Carlo phase: sample windows, evolve, aggregate, write CSV.

    The checkpoint is referenced by path so each worker process loads
    it independently. Aggregation is a two-pass mean and standard error
    over all value rows, stacked in ascending sample_id order.
    """
    state, config = load_checkpoint(checkpoint)
    if n_samples < 1:
        raise ConfigError(f"n_samples must be >= 1, got {n_samples}")
    if n_workers < 1:
        raise ConfigError(f"n_workers must be >= 1, got {n_workers}")
    if not t_fin > state.time:
        raise ConfigError(
            f"t_fin = {t_fin} must exceed the checkpoint time {state.time}"
        )
    run_args = (l, t_fin, delta_t, n_max)
    run = _Run.of(state, config, *run_args)
    check_seed(master_seed)
    n_points = _grid_size(state.time, t_fin, delta_t)
    if abs(config.delta) > 1.0:
        warnings.warn(
            "no spin-wave velocity at |delta| > 1; the window horizon is unknown",
            stacklevel=2,
        )
    else:
        horizon = l / spin_wave_velocity(config.delta)
        if t_fin - state.time > horizon:
            warnings.warn(
                f"t_fin - t_init = {t_fin - state.time:.4f} exceeds the window "
                f"horizon l/v = {horizon:.4f}; late grid points are unreliable",
                stacklevel=2,
            )

    def evolve(shares):
        """Round two: one share runs here, more on one process per share."""
        if len(shares) == 1:
            return [_evolve_share(run, shares[0])]
        with ProcessPoolExecutor(
            max_workers=len(shares),
            initializer=_init_worker,
            initargs=(os.fspath(checkpoint), *run_args),
        ) as pool:
            return list(pool.map(_evolve_in_worker, shares))

    n_shares = min(n_workers, _cpu_count())
    values = _two_rounds(run, master_seed, n_samples, evolve, n_shares, n_points)
    if values.shape[0] != n_samples:
        raise ConfigError(f"aggregated {values.shape[0]} samples, expected {n_samples}")
    mean = values.mean(axis=0)
    if n_samples > 1:
        stderr = values.std(axis=0, ddof=1) / math.sqrt(n_samples)
    else:
        stderr = np.full(n_points, np.nan)

    times = state.time + delta_t * np.arange(n_points)
    curve = AggregateCurve(times=times, mean=mean, stderr=stderr, n_samples=n_samples)
    if out is not None:
        meta = {
            "checkpoint": git_blob_sha1(checkpoint),
            "delta": config.delta,
            "dt": config.dt,
            "k_max": config.k_max,
            "t_init": config.t_init,
            "l": l,
            "t_fin": t_fin,
            "delta_t": delta_t,
            "n_max": n_max,
            "n_samples": n_samples,
            "master_seed": master_seed,
        }
        header = ("t", "mean_sz0", "stderr", "n_samples")
        rows_out = [
            (_fmt(t), _fmt(m), _fmt(s), str(n_samples))
            for t, m, s in zip(times, mean, stderr)
        ]
        write_table(out, meta, header, rows_out)
    return curve


def extract_peaks(curve: AggregateCurve) -> PeakSeries:
    """Strictly interior local maxima of |mean| with their stderr."""
    if curve.times.size < 3:
        raise ConfigError("peak extraction needs a grid of at least 3 points")
    h = np.abs(curve.mean)
    peaks = []
    for i in range(1, h.size - 1):
        if h[i] > h[i - 1] and h[i] > h[i + 1]:
            peaks.append(
                (float(curve.times[i]), float(h[i]), float(curve.stderr[i]))
            )
    return PeakSeries(peaks=tuple(peaks))


def shift_correction(
    curve: AggregateCurve,
    reference_times,
    reference_values,
    overlap_frac: float = 0.25,
) -> AggregateCurve:
    """Add a constant so the curve matches the reference at early times.

    The constant is the mean of (reference - curve) over the grid
    points in the first overlap_frac of the curve's time span that the
    reference also covers; at least 3 such points are required. The
    stderr is unchanged and the constant is recorded on the result.
    """
    if not 0.0 < overlap_frac <= 1.0:
        raise ConfigError(f"overlap_frac must be in (0, 1], got {overlap_frac}")
    ref_t = np.asarray(reference_times, dtype=float)
    ref_v = np.asarray(reference_values, dtype=float)
    if ref_t.shape != ref_v.shape:
        raise ConfigError("reference times and values differ in length")
    span = curve.times[-1] - curve.times[0]
    t_cut = curve.times[0] + overlap_frac * span
    diffs = []
    for t, m in zip(curve.times, curve.mean):
        if t > t_cut + 1e-9:
            break
        hit = np.nonzero(np.abs(ref_t - t) < 1e-9)[0]
        if hit.size:
            diffs.append(ref_v[hit[0]] - m)
    if len(diffs) < 3:
        raise ConfigError(
            f"shift correction needs >= 3 overlap points, found {len(diffs)}"
        )
    c = float(np.mean(diffs))
    return replace(
        curve, mean=curve.mean + c, shift_constant=curve.shift_constant + c
    )


def write_peaks(path, series: PeakSeries, meta: dict) -> None:
    header = ("t_peak", "height", "stderr")
    rows = [tuple(map(_fmt, p)) for p in series.peaks]
    write_table(path, meta, header, rows)
