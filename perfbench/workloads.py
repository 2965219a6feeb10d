"""The benchmark workloads: inputs, timed passes and correctness checks.

Each workload builds its inputs from the benchmark seed and hands the
program only those inputs. A pass is one unit of timed work; the
launcher repeats passes for the requested number of seconds. Every
pass checks its outputs, and every check is one attempted operation
whose failure is counted.

The reported times are in seconds at reference host speed. A shared
host runs the benchmark up to ~1.7x slower for tens of seconds at a
time, longer than the share of a run that a median or a minimum can
outvote. So a fixed reference kernel (HostSpeed) runs between every two
timed pieces of work, and each piece's wall time is scaled by the
kernel's nominal time over its time around that piece. Both raw and
scaled times are kept and printed.

Why these two (see README.md for the layer table):

* pipeline-desk is the README path through the command line: k=128
  iTEBD (many small SVD blocks), then narrow windows (l=4) sampled by a
  two-process pool. It runs every chain layer: graded, itebd,
  checkpoint, sampler, window, harness and cli.
* circuit-n18 runs the three brickwork-circuit estimators, where no
  MPS code runs, so chain changes must not move it and circuit changes
  show only here.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spinquench as sq

REFS = Path(__file__).resolve().parent / "refs"

#: Combined-stderr multiple within which a Monte Carlo estimate must
#: agree with its reference; wide enough that a correct program fails
#: none of the thousands of checks a benchmark campaign makes.
Z_MAX = 6.0

#: Absolute tolerance of an iTEBD curve against its stored reference.
#: The references were written by the same code; a rerun differs only
#: by BLAS round-off passed through truncation.
CURVE_ATOL = 1e-8

#: Exact-identity tolerance of the light-cone sum against the direct
#: statevector, per circuit.
CIRCUIT_ATOL = 1e-12

#: Target standard error of the Monte Carlo time-to-accuracy figure.
TARGET_STDERR = 1e-3

#: Seconds the reference kernel takes at reference host speed: about
#: its fastest time on the 2-vCPU Intel Xeon the benchmark was built on.
REF_S = 0.017


def substream(seed, tag, *keys):
    """Independent generator seed for one use of the benchmark seed."""
    return np.random.SeedSequence([seed, tag, *keys])


def master_seed(seed, tag, *keys):
    """64-bit sampling seed handed to the program."""
    return int(substream(seed, tag, *keys).generate_state(1, np.uint64)[0])


@dataclass
class Checks:
    """Attempted and failed correctness checks."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def check_curve(checks, path, ref_name, what):
    """An iTEBD curve file against the stored reference."""
    _meta, got = sq.read_table(path)
    _meta, ref = sq.read_table(REFS / ref_name)
    ok = got["t"].shape == ref["t"].shape and all(
        np.max(np.abs(got[c] - ref[c])) <= tol
        for c, tol in (("t", 1e-9), ("sz0", CURVE_ATOL), ("sz1", CURVE_ATOL))
    )
    checks.check(ok, f"{what}: iTEBD curve differs from {ref_name}")
    return got


def load_mc_ref(name):
    _meta, ref = sq.read_table(REFS / name)
    return ref


def check_mc(checks, times, mean, stderr, ref, sz0_direct, what):
    """Monte Carlo curve against the stored reference and the direct value."""
    n = ref["t"].size
    ok = times.size == n and np.max(np.abs(times - ref["t"])) < 1e-9
    if ok:
        sigma = np.sqrt(stderr ** 2 + ref["stderr"] ** 2)
        ok = bool(np.all(np.abs(mean - ref["mean_sz0"]) <= Z_MAX * sigma + 1e-12))
    checks.check(ok, f"{what}: MC mean outside {Z_MAX} combined stderr of reference")
    ok = abs(mean[0] - sz0_direct) <= Z_MAX * stderr[0] + 1e-9
    checks.check(ok, f"{what}: first grid point {mean[0]} vs direct {sz0_direct}")


def last_point(curve):
    """(n, mean, variance) of the per-sample values at the last grid point."""
    n = curve.n_samples
    return n, float(curve.mean[-1]), float(curve.stderr[-1]) ** 2 * n


def pooled_variance(stats):
    """Per-sample variance pooled over passes of (n, mean, variance)."""
    total = sum(n for n, _m, _v in stats)
    mean = sum(n * m for n, m, _v in stats) / total
    m2 = sum(v * (n - 1) + n * (m - mean) ** 2 for n, m, v in stats)
    return m2 / (total - 1)


def time_to_stderr(walls, samples, variance):
    """MC wall time to reach TARGET_STDERR at the measured per-sample cost.

    Equals the phase wall time times (stderr / target)^2, with the
    variance pooled over every pass of the run.
    """
    per_sample = statistics.median(w / n for w, n in zip(walls, samples))
    return per_sample * variance / TARGET_STDERR ** 2


def median_of(passes, key):
    """Median over passes of one timed piece at reference host speed.

    A piece is a scalar per pass, or a list of per-input times, in which
    case each input's median is taken and the medians are summed.
    """
    values = [p["ref"][key] for p in passes]
    if isinstance(values[0], list):
        return sum(statistics.median(column) for column in zip(*values))
    return statistics.median(values)


class HostSpeed:
    """Times work against a reference kernel run between timed pieces.

    The kernel mixes an interpreter loop with small dense SVDs, as the
    program does, and touches no spinquench code, so a change to the
    program moves the scaled times exactly as much as the raw ones.
    """

    def __init__(self):
        self._matrix = np.random.default_rng(0).standard_normal((64, 64))
        self._last = self.kernel()

    def kernel(self):
        """Wall seconds of one run of the reference kernel."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(30_000):
            acc += i * i
        for _ in range(30):
            np.linalg.svd(self._matrix)
        return time.perf_counter() - t0

    def time(self, fn, *args):
        """(result, wall seconds, seconds at reference speed) of fn(*args).

        The scale is REF_S over the mean kernel time just before and just
        after the call.
        """
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        after = self.kernel()
        ref = wall * REF_S * 2.0 / (self._last + after)
        self._last = after
        return result, wall, ref


class Workload:
    """Base: subclasses set name, tag, sizes and implement the hooks."""

    name = ""
    tag = 0
    #: Pass sizes at benchmark scale and at self-check scale.
    sizes: dict = {}
    tiny_sizes: dict = {}

    def __init__(self, seed, workdir, tiny=False):
        self.seed = seed
        self.workdir = Path(workdir)
        self.size = dict(self.tiny_sizes if tiny else self.sizes)
        self.workers = self.size.get("workers", 1)
        self.speed = HostSpeed()

    def setup(self, checks):
        """Generate inputs and warm up; timed as set-up."""

    def run_pass(self, index, checks):
        """One timed unit of work; returns its phase timings in seconds.

        The dict holds "raw" (wall seconds) and "ref" (seconds at
        reference host speed), each mapping wall_s, the pass's timed
        time, and the named phase times, a scalar or a list of per-input
        times, to seconds.
        """
        raise NotImplementedError

    def summary(self, passes):
        """(named figures derived from all passes, result_s, wall_s)."""
        raise NotImplementedError

    def path(self, name):
        return os.fspath(self.workdir / name)


class PipelineDesk(Workload):
    """README pipeline through cli.main: itebd to t=4, then sample to t=5."""

    name = "pipeline-desk"
    tag = 1
    sizes = {"t_end": 4.0, "t_fin": 5.0, "l": 4, "samples": 2000, "workers": 2}
    tiny_sizes = {"t_end": 4.0, "t_fin": 5.0, "l": 4, "samples": 100, "workers": 2}

    def setup(self, checks):
        self.mc_ref = load_mc_ref("mc_desk.csv")
        ck, curve = self.path("warm.mpsc1"), self.path("warm.csv")
        rc = sq.cli.main(["itebd", "--profile", "desk", "--t-end", "0.25",
                          "--out-checkpoint", ck, "--out-curve", curve])
        checks.check(rc == 0, "warm-up itebd exit code")
        t_fin = 0.25 + sq.PROFILES["desk"]["delta_t"]
        rc = sq.cli.main(["sample", "--profile", "desk", "--checkpoint", ck,
                          "--l", "1", "--t-fin", repr(t_fin),
                          "--samples", "2", "--out", self.path("warm_mc.csv")])
        checks.check(rc == 0, "warm-up sample exit code")

    def run_pass(self, index, checks):
        s = self.size
        ck, curve, mc = self.path("t.mpsc1"), self.path("itebd.csv"), self.path("mc.csv")
        itebd_argv = ["itebd", "--profile", "desk", "--t-end", repr(s["t_end"]),
                      "--out-checkpoint", ck, "--out-curve", curve]
        sample_argv = ["sample", "--profile", "desk", "--checkpoint", ck,
                       "--l", str(s["l"]), "--t-fin", repr(s["t_fin"]),
                       "--samples", str(s["samples"]),
                       "--seed", str(master_seed(self.seed, self.tag, index)),
                       "--workers", str(self.workers), "--out", mc]
        rc_itebd, raw_itebd, ref_itebd = self.speed.time(sq.cli.main, itebd_argv)
        rc_sample, raw_mc, ref_mc = (self.speed.time(sq.cli.main, sample_argv)
                                     if rc_itebd == 0 else (None, 0.0, 0.0))
        checks.check(rc_itebd == 0, f"itebd exit code {rc_itebd}")
        checks.check(rc_sample == 0, f"sample exit code {rc_sample}")
        out = {
            "raw": {"wall_s": raw_itebd + raw_mc, "itebd_s": raw_itebd, "mc_s": raw_mc},
            "ref": {"wall_s": ref_itebd + ref_mc, "itebd_s": ref_itebd, "mc_s": ref_mc},
        }
        if rc_sample == 0:
            direct = check_curve(checks, curve, "itebd_desk_t4.csv", self.name)
            _meta, c = sq.read_aggregate_curve(mc)
            check_mc(checks, c.times, c.mean, c.stderr, self.mc_ref,
                     direct["sz0"][-1], self.name)
            out["last_point"] = last_point(c)
        return out

    def summary(self, passes):
        itebd_s = median_of(passes, "itebd_s")
        sampled = [p for p in passes if "last_point" in p]
        if not sampled:
            raise RuntimeError("no pass produced a Monte Carlo curve")
        mc_s = median_of(sampled, "mc_s")
        var = pooled_variance([p["last_point"] for p in sampled])
        mc_tts = time_to_stderr([p["ref"]["mc_s"] for p in sampled],
                                [p["last_point"][0] for p in sampled], var)
        named = {"itebd_s": itebd_s, "mc_s": mc_s, "mc_tts_s": mc_tts,
                 "pipeline_s": itebd_s + mc_tts}
        return named, itebd_s + mc_tts, itebd_s + mc_s


class CircuitN18(Workload):
    """Direct, summed and sampled estimators on n=18, depth-10 circuits.

    The circuits are drawn once from the seed and every pass runs the
    same ones, with the same sampling stream per circuit, so each pass
    repeats identical work and each circuit's median is taken.
    """

    name = "circuit-n18"
    tag = 4
    sizes = {"n": 18, "depth": 10, "circuits": 4, "samples": 10_000}
    tiny_sizes = {"n": 12, "depth": 6, "circuits": 2, "samples": 2_000}
    ESTIMATORS = ("circuit_direct_s", "circuit_sum_s", "circuit_sampled_s")

    def setup(self, checks):
        rng = np.random.default_rng(substream(self.seed, self.tag))
        s = self.size
        self.circuits = [sq.BrickworkCircuit.random(s["n"], s["depth"], rng)
                         for _ in range(s["circuits"])]
        warm = sq.BrickworkCircuit.random(8, 4, np.random.default_rng(0))
        checks.check(abs(sq.circuit.direct_expectation(warm)
                         - sq.circuit.lightcone_expectation_sum(warm)) <= CIRCUIT_ATOL,
                     "warm-up circuit identity")

    def run_pass(self, index, checks):
        raw = {key: [] for key in self.ESTIMATORS}
        ref = {key: [] for key in self.ESTIMATORS}
        circuit = sq.circuit
        for j, c in enumerate(self.circuits):
            rng = np.random.default_rng(substream(self.seed, self.tag, 1, j))
            values = []
            for key, fn, args in (
                ("circuit_direct_s", circuit.direct_expectation, (c,)),
                ("circuit_sum_s", circuit.lightcone_expectation_sum, (c,)),
                ("circuit_sampled_s", circuit.lightcone_expectation_sampled,
                 (c, self.size["samples"], rng)),
            ):
                value, t_raw, t_ref = self.speed.time(fn, *args)
                values.append(value)
                raw[key].append(t_raw)
                ref[key].append(t_ref)
            direct, summed, (mean, stderr) = values
            checks.check(abs(summed - direct) <= CIRCUIT_ATOL,
                         f"circuit {index}.{j}: |sum - direct| = {abs(summed - direct)}")
            checks.check(math.isfinite(stderr) and abs(mean - direct) <= Z_MAX * stderr,
                         f"circuit {index}.{j}: sampled pull {(mean - direct) / stderr}")
        return {"raw": {"wall_s": sum(map(sum, raw.values())), **raw},
                "ref": {"wall_s": sum(map(sum, ref.values())), **ref}}

    def summary(self, passes):
        named = {key: median_of(passes, key) for key in self.ESTIMATORS}
        return named, named["circuit_sum_s"], sum(named.values())


WORKLOADS = {w.name: w for w in (PipelineDesk, CircuitN18)}
