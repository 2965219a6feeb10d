"""Two-phase experiment driver: evolve, checkpoint, sample, aggregate.

Phase one runs the infinite-chain evolution to a chosen time and writes
a checkpoint plus a per-step observable curve. Phase two draws
independent boundary samples, evolves each distinct sampled window
once, on helper threads only when that work is large enough to pay for
them, and reduces the results to a mean/stderr curve on the fixed grid
t_init + k * delta_t.

Determinism contract: a run's uniforms are one numpy stream,
default_rng(master_seed), drawn in this process one row per sample_id
(sample_uniforms), and the reduction runs over all value rows stacked
in ascending sample_id order, so the output files are byte-identical
for any worker count. Output metadata deliberately excludes worker
counts and timestamps.

A run takes two rounds. Round one runs on the calling thread: one call
draws the 2l+3 uniforms of every sample, and one batched walk over all
samples, in sample_id order, turns them into boundary pairs (see
sampler), one (q_alpha, i_alpha, q_beta, i_beta) int row per sample.
The walk runs on one thread whatever the worker count, so the pairs
cannot depend on it. One np.unique over a packed int64 key per row
finds the distinct pairs of the run, in ascending order, and round two
evolves each of them exactly once. Its pairs are one table of int
rows. sampler.sector_stacks, the one stacking rule, cuts the table
into per-sector stacks, index arrays into it, that hold at most
sampler.WALK_MEMO_BYTES of amplitudes, the budget of the walk and of
assembly too; a stack takes one sparse-times-dense product per Taylor
order. The calling thread assembles the stacks in one pass and puts
the propagation of each on a threads.queue as soon as it is assembled:
a round whose work (stack amplitudes x Taylor orders x grid steps) is
below SHARE_WORK runs on the calling thread, one stack after another,
and otherwise on at most one thread per worker and per usable CPU, the
helpers taking each stack as it comes and the calling thread running
any that would wait for a busy helper, so no more assembled stacks
wait than there are helpers. All read the one in-memory run, and each
stack writes its windows' series into the round's table by row. The
dedup is exact because a pair's series depends only on the pair, the
checkpoint state, the window Hamiltonian (fixed by h) and the time
grid, never on the sample that drew it. Stacking is exact too. A stack's windows are
assembled by one stack assembler whose batched products make one
product per boundary state and per pair, exactly the product a pair
assembled alone makes (see sampler), so a window's amplitudes do not
depend on what is assembled beside it. Every column of the Taylor
product accumulates in the order of a single matrix-vector product,
and norms, the drift guard and <Sz> are taken row by row. So a series
does not depend on which pairs share its stack or its assembly batch,
and which thread takes a stack changes where the work runs, never a
byte of the output.

A run may split the boundary pairs semistochastically (see sampler):
the pairs of S = A x B, the boundary states whose lambda^2 reach
p_star on both sides, join round two ahead of the drawn pairs, and the
assembler returns the raw norm of each window, so their weights p are
exact. Round one draws only the tail, conditioned on leaving S. With Z
the total lambda^2 of the left boundary and T the tail weight the alpha
draw uses, the estimate is sum_S (p/Z) x + (T/Z) mean_i x_i and its
stderr (T/Z) std_i / sqrt(n). At p_star = inf, the default, S is
empty; then T is Z and the run is the plain one, bit for bit and byte
for byte. A run with S nonempty records p_star, |A|, |B|, P_S and the
clamp count in the CSV metadata; they depend on the checkpoint, l and
p_star only.

All data files are CSV with a '#'-prefixed JSON metadata line followed
by a column header; floats are written with shortest round-trip
precision.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import sampler, threads
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigError, check_int, check_real, check_seed, step_count
from .itebd import QuenchConfig, evolve_to, neel_init
# assemble_window_state is not called here; perfbench patches its name in
# this module as in sampler, so the name stays importable from both.
from .sampler import (  # noqa: F401
    WindowSpec,
    assemble_window_stacks,
    assemble_window_state,
    boundary_spectrum,
    distinct_rows,
    pair_sector,
    sample_alpha,
    sample_spins_and_beta,
    semistochastic_split,
)
from .window import (
    EvolverParams,
    build_hloc,
    evolve_and_measure,
    load_sparse,
    spin_wave_velocity,
)

#: Named parameter bundles. The full set is production scale and far
#: beyond interactive use; the desk sets finish on a laptop and are the
#: ones exercised by the test suite. p_star is the semistochastic
#: threshold (inf: S is empty); the desk set's 0.01 sits in the gap of
#: its k=128, t=4 checkpoint's spectra (lambda^2 0.0315 -> 0.0049).
PROFILES = {
    "full": {"delta": 0.5, "dt": 0.0625, "k_max": 4096, "l": 10,
             "delta_t": 1.0 / 3.0, "n_max": 20, "p_star": math.inf},
    "desk": {"delta": 0.5, "dt": 0.0625, "k_max": 128, "l": 4,
             "delta_t": 1.0 / 3.0, "n_max": 20, "p_star": 0.01},
    "desk-small": {"delta": 0.5, "dt": 0.0625, "k_max": 16, "l": 2,
                   "delta_t": 1.0 / 3.0, "n_max": 20, "p_star": math.inf},
}

#: Least round-two work for which the stacks are queued for helper
#: threads. Work is the amplitudes of all stacks times Taylor orders
#: times grid steps: the entries of every sparse-times-dense product the
#: round makes. Below it, handing stacks to helpers costs more than it
#: saves, so the whole round runs on the calling thread. On a 2-vCPU
#: Xeon with one BLAS thread and the desk checkpoint (k=128, t=4), two
#: shares lost to one up to 2.2e6 (l=5), tied at 3.5e6 (l=5 and l=6)
#: and won from 4.8e6 (l=6) up. The desk profile's run (l=4, 2000
#: samples) does 1.3e6, 5.8e5 at p_star = inf, and stays on one thread.
SHARE_WORK = 1 << 22

#: Leading share of a curve's time span over which shift_correction
#: matches it to the reference.
OVERLAP_FRAC = 0.25


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
    integer count. A file that is not UTF-8 text (a checkpoint, say), a
    metadata line that is not a JSON object, a row whose field count
    differs from the header's, or a field that does not parse raises
    ConfigError naming the file.
    """
    try:
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
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not a UTF-8 text table") from None
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


def sample_uniforms(master_seed: int, n_samples: int, n: int) -> np.ndarray:
    """The (n_samples, n) uniforms of a run, one row per sample.

    They are default_rng(master_seed)'s doubles in row-major order, so
    row i depends only on the seed and i, and a run of fewer samples
    draws the first rows of a larger one. A walk uses each row in
    order: alpha, the 2l+1 window spins, then beta.
    """
    return np.random.default_rng(check_seed(master_seed)).random((n_samples, n))


def sample_one(master_seed: int, sample_id: int, n: int) -> np.ndarray:
    """The n uniforms of one sample: row sample_id of sample_uniforms.

    run_mc draws all rows at once and does not call this.
    """
    sample_id = check_int(sample_id, "sample_id", 0)
    return sample_uniforms(master_seed, sample_id + 1, n)[sample_id]


def _two_rounds(state, spec, h, params, split, master_seed, n_samples, n_workers):
    """(tail value rows in sample_id order, S value rows, S raw squared norms).

    Round one draws every sample's pair on this thread, from the tail of
    the split; round two evolves the pairs of S, then each distinct drawn
    pair of the run, once. sampler.sector_stacks cuts that pair table
    into stacks; this thread assembles them and queues each one's
    propagation, by its Taylor products, for at most n_workers threads
    of the caller's threads.helper_threads() block, and a stack writes
    each pair's series and raw squared norm at the pair's row. A split
    whose tail weight is zero draws no sample.
    """
    drawn = np.empty((0, 4), dtype=np.int64)
    first = of_sample = np.zeros(0, dtype=np.int64)
    if split.tail_weight > 0.0:
        u = sample_uniforms(master_seed, n_samples, 2 * spec.l + 3)
        alphas = sample_alpha(state, spec, u[:, 0], split)
        drawn = sample_spins_and_beta(state, spec, alphas, u[:, 1:], split)
        first, of_sample = distinct_rows(drawn)
    pairs = np.concatenate([split.pairs, drawn[first]])
    series, norms = np.empty((len(pairs), params.n_steps + 1)), np.empty(len(pairs))

    def evolve(stack):
        """Evolve one assembled stack, writing each row's series and raw squared norm in place."""
        at, psi, norm2 = stack
        series[at] = evolve_and_measure(psi, h, params)
        norms[at] = norm2

    stacks = sampler.sector_stacks(spec, pairs)
    dims = [math.comb(2 * spec.l + 1, int(pair_sector(spec, pairs[at[0]]))) for at in stacks]
    costs = [at.size * dim * params.n_max * params.n_steps for at, dim in zip(stacks, dims)]
    most = 1 if sum(costs) < SHARE_WORK else min(n_workers, len(stacks))
    with threads.queue(evolve, most) as round_two:
        # the assembler yields the stacks of sector_stacks in order
        for j, stack in enumerate(assemble_window_stacks(state, spec, pairs)):
            round_two.put(j, stack, costs[j])
            round_two.keep_up()
        round_two.results()
    n_s = len(split.pairs)
    return series[n_s + of_sample], series[:n_s], norms[:n_s]


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
    p_star=math.inf,
) -> AggregateCurve:
    """Monte Carlo phase: sample windows, evolve, aggregate, write CSV.

    The checkpoint is loaded once, by path, and every thread of round two
    reads that one state, window Hamiltonian and grid. The split, the
    walk and round two run in one threads.helper_threads() block, so on
    one BLAS thread whatever the environment asks. p_star sets the
    semistochastic split (see sampler.semistochastic_split): a
    nonnegative number, where inf, the default, is the one spelling of S
    empty.
    With Z the total lambda^2 of the left boundary, T the tail weight
    and p the pair weights, the estimate is sum_S (p/Z) x + (T/Z) mean_i
    x_i, and its stderr (T/Z) std_i / sqrt(n), over all tail value rows
    stacked in ascending sample_id order. With S empty, T is Z and this
    is the plain mean and stderr, bit for bit; with T zero no sample is
    drawn, and the estimate is the exact sum over S with stderr 0.
    """
    load_sparse()
    state, config = load_checkpoint(checkpoint)
    n_samples = check_int(n_samples, "n_samples", 1)
    n_workers = check_int(n_workers, "n_workers", 1)
    p_star, t_fin = check_real(p_star, "p_star"), check_real(t_fin, "t_fin")
    if not p_star >= 0.0:
        raise ConfigError(f"p_star must be a nonnegative number, got {p_star}")
    if not t_fin > state.time:
        raise ConfigError(
            f"t_fin = {t_fin} must exceed the checkpoint time {state.time}"
        )
    # the span's one check, in checked steps; metadata and grid take checked values
    params = EvolverParams(delta_t=delta_t, n_max=n_max)
    params = replace(params, n_steps=step_count(t_fin - state.time, params.delta_t, "t_fin - t_init"))
    spec, h = WindowSpec(l=l), build_hloc(l, config.delta)
    l, delta_t, n_max = spec.l, params.delta_t, params.n_max
    master_seed = check_seed(master_seed)
    n_points = params.n_steps + 1
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
    with threads.helper_threads():
        split = semistochastic_split(state, spec, p_star)
        values, s_values, s_norms = _two_rounds(
            state, spec, h, params, split, master_seed, n_samples, n_workers
        )
    spectrum = boundary_spectrum(state, spec)
    z = float(spectrum.weights.sum())
    ratio = split.tail_weight / z
    s_weights = np.array(
        [spectrum.blocks[qa][ia] ** 2 for qa, ia in split.pairs[:, :2].tolist()]
    ) * s_norms / z
    # -0.0 starts the sum, so with S empty the estimate is the tail's bits
    mean = np.sum(s_weights[:, None] * s_values, axis=0, initial=-0.0)
    stderr = np.zeros(n_points)
    if ratio > 0.0:
        if values.shape[0] != n_samples:
            raise ConfigError(f"aggregated {values.shape[0]} samples, expected {n_samples}")
        mean = mean + ratio * values.mean(axis=0)
        if n_samples > 1:
            stderr = ratio * values.std(axis=0, ddof=1) / math.sqrt(n_samples)
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
        if len(split.pairs):
            meta.update({
                "p_star": p_star,
                "n_a": sum(int(m.sum()) for m in split.heavy_left.values()),
                "n_b": sum(int(m.sum()) for m in split.heavy_right.values()),
                "p_s": float(s_weights.sum()),
                "clamps": split.clamps,
            })
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


def shift_correction(curve: AggregateCurve, reference_times, reference_values) -> AggregateCurve:
    """Add a constant so the curve matches the reference at early times.

    The constant is the mean of (reference - curve) over the grid
    points in the first OVERLAP_FRAC of the curve's time span that the
    reference also covers; at least 3 such points are required. The
    stderr is unchanged and the constant is recorded on the result.
    """
    ref_t = np.asarray(reference_times, dtype=float)
    ref_v = np.asarray(reference_values, dtype=float)
    if ref_t.shape != ref_v.shape:
        raise ConfigError("reference times and values differ in length")
    if not len(curve.times):
        raise ConfigError("shift correction needs a curve with at least one row")
    span = curve.times[-1] - curve.times[0]
    t_cut = curve.times[0] + OVERLAP_FRAC * span
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
