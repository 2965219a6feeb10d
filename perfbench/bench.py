"""Measurement loop, result records and the self-check.

Imported by run.py after the BLAS thread setting is fixed and
spinquench is importable from the checkout.
"""

from __future__ import annotations

import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import spinquench as sq
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORK = HERE / "work"

#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
#: Timed passes per end-to-end run, at least; more while time remains.
MIN_PASSES = 3

#: End-to-end metrics of --trace 0, as in BENCHMARK.json.
END_TO_END = [
    ("setup_s", "s"),
    ("result_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
]


def quartiles(values):
    """(q1, median, q3); a single value repeats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def peak_rss_mb():
    """Larger of this process's and its children's peak resident set."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _cpu_model():
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _llc():
    best = (0, "unknown")
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level = _read(index / "level").strip()
        if level.isdigit() and int(level) > best[0]:
            best = (int(level), f"L{level} {_read(index / 'size').strip()}")
    return best[1]


def _openblas():
    """[(build string, runtime threads)] of every OpenBLAS loaded.

    numpy and scipy each ship their own copy; block_svd runs on numpy's.
    """
    import ctypes

    found = []
    libs = sorted({line.split()[-1] for line in _read("/proc/self/maps").splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    found.append((get_config().decode().strip(), get_threads()))
                    break
            else:
                continue
            break
    return found


def _git_commit():
    try:
        out = subprocess.run(
            ["git", "-C", os.fspath(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git not available)"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def _source_digest():
    """SHA-1 over the program's source files, for checkouts without git."""
    import hashlib

    h = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_record(seed, workers):
    blas = _openblas()
    blas_threads = max((threads for _build, threads in blas), default=None)
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "llc": _llc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": [build for build, _threads in blas],
        "blas_threads": blas_threads,
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "processes": workers,
        "processes_x_blas_threads_le_nproc": (
            blas_threads is not None and workers * blas_threads <= nproc
        ),
        "git_commit": _git_commit(),
        "source_sha1": _source_digest(),
        "seed": seed,
    }


def import_fresh():
    """Import the program in a fresh interpreter, as a user's first call does."""
    subprocess.run([sys.executable, "-c", "import spinquench.cli"], check=True,
                   cwd=os.fspath(ROOT), timeout=120)


def make_workload(name, seed, tiny=False):
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[name](seed, workdir, tiny=tiny)


def timed_setups(wl, checks, repeats):
    """(raw, scaled) seconds of `repeats` set-ups: fresh import, inputs, warm-up."""
    def one_setup():
        import_fresh()
        wl.setup(checks)

    raw, ref = [], []
    for _ in range(repeats):
        _none, t_raw, t_ref = wl.speed.time(one_setup)
        raw.append(t_raw)
        ref.append(t_ref)
    return raw, ref


def traced_pass(wl, index, checks):
    """One pass under the tracer; returns (scaled pass time, tracer)."""
    tracer = tracing.Tracer()
    with tracing.traced(sq, tracer):
        wall = wl.run_pass(index, checks)["ref"]["wall_s"]
    return wall, tracer


def measure_end_to_end(wl, seconds, checks):
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        passes.append(wl.run_pass(len(passes), checks))
        last = time.perf_counter() - t0
        if len(passes) >= MIN_PASSES and time.perf_counter() + last > deadline:
            return passes


def measure_traced(wl, seconds, checks):
    """Alternate untraced and traced passes of the same inputs (index 0)."""
    plain, traced, tracers = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        plain.append(wl.run_pass(0, checks)["ref"]["wall_s"])
        wall, tracer = traced_pass(wl, 0, checks)
        traced.append(wall)
        tracers.append(tracer)
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            return plain, traced, tracers


def layer_metrics(tracers, plain, traced):
    """Median over traced passes of each per-layer value."""
    per_pass = [tracing.layer_values(t) for t in tracers]
    values = {name: statistics.median(p[name] for p in per_pass)
              for name, _unit in tracing.PER_LAYER if name != "tracing_overhead_s"}
    values["tracing_overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return values


def _fmt_named(passes, named):
    """Per-pass phase times, raw and scaled, then the derived figures."""
    lines = [f"  per pass, {len(passes)} passes: median (quartiles); "
             "raw wall seconds | seconds at reference host speed"]
    for key in passes[0]["raw"]:
        cells = []
        for kind in ("raw", "ref"):
            per_pass = [sum(v) if isinstance(v, list) else v
                        for v in (p[kind][key] for p in passes)]
            q1, med, q3 = quartiles(per_pass)
            cells.append(f"{med:.6f} ({q1:.6f} .. {q3:.6f})")
        lines.append(f"  {key:<22} {cells[0]} | {cells[1]}")
    for key, val in named.items():
        lines.append(f"  {key:<22} {val:12.6f} s at reference speed")
    return lines


def write_result(name, seed, trace, record, tracers=None):
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{name}-seed{seed}-trace{int(trace)}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if tracers:
        with gzip.open(f"{stem}.spans.json.gz", "wt", encoding="utf-8") as fh:
            json.dump([t.spans() for t in tracers], fh)
    return stem


def run(name, seed, seconds, trace):
    checks = workloads.Checks()
    wl = make_workload(name, seed)
    try:
        if trace:
            # Pool workers cannot return spans; one worker gives the same
            # output bytes (determinism contract) with every span in this
            # process.
            wl.workers = 1
        setups_raw, setups = timed_setups(wl, checks, SETUP_REPEATS)
        if trace:
            plain, traced, tracers = measure_traced(wl, seconds, checks)
            metrics = layer_metrics(tracers, plain, traced)
            units = dict(tracing.PER_LAYER)
            extra = {"untraced_pass_s": plain, "traced_pass_s": traced}
        else:
            passes = measure_end_to_end(wl, seconds, checks)
            named, result, wall = wl.summary(passes)
            metrics = {
                "setup_s": statistics.median(setups),
                "result_s": result,
                "wall_s": wall,
                "peak_rss_mb": peak_rss_mb(),
            }
            units = dict(END_TO_END)
            extra = {"named": named, "passes": passes}
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)

    record = {
        "workload": name,
        "trace": trace,
        "workers": wl.workers,
        "sizes": wl.size,
        "setup_s_each": setups,
        "setup_raw_s_each": setups_raw,
        "ref_kernel_s": workloads.REF_S,
        "machine": machine_record(seed, wl.workers),
        "metrics": metrics,
        "ops": checks.attempted,
        "ops_failed": len(checks.failures),
        "failures": checks.failures,
        **extra,
    }
    stem = write_result(name, seed, trace, record, tracers if trace else None)

    m = record["machine"]
    print(f"workload {name}  seed {seed}  trace {int(trace)}  workers {wl.workers}")
    print(f"machine  {m['nproc']} cpus, {m['cpu_model']}, {m['llc']}; python {m['python']}, "
          f"numpy {m['numpy']}, scipy {m['scipy']}; {' + '.join(m['blas'])}, "
          f"{m['blas_threads']} BLAS threads; commit {m['git_commit']}")
    if trace:
        if wl.size.get("workers", 1) > 1:
            print(f"  sampling ran with 1 worker, not {wl.size['workers']}, so every span "
                  "stays in this process; the output bytes are the same for any worker count")
        for key, unit in tracing.PER_LAYER:
            tag = "  (computed)" if key in tracing.COMPUTED else ""
            print(f"  {key:<44} {metrics[key]:.6g} {unit}{tag}")
    else:
        for line in _fmt_named(passes, named):
            print(line)
        for key, unit in END_TO_END:
            print(f"  {key:<22} {metrics[key]:12.6f} {unit}")
    print(f"ops {checks.attempted}  ops_failed {len(checks.failures)}")
    for failure in checks.failures:
        print(f"  FAILED: {failure}")
    print(f"result file {stem.relative_to(ROOT)}.json")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


def selfcheck():
    """Every workload once at tiny sizes, plus a traced pass; exit 1 on failure."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", tracing.PER_LAYER)):
        ok = ok and [(m["name"], m["unit"]) for m in declared[key]] == ours
    if not ok:
        print("selfcheck: BENCHMARK.json lists other workloads or metrics than the code")
    for name in workloads.WORKLOADS:
        checks = workloads.Checks()
        wl = make_workload(name, 0, tiny=True)
        try:
            timed_setups(wl, checks, 1)
            passes = [wl.run_pass(k, checks) for k in range(2)]
            wl.summary(passes)
            wl.workers = 1
            _wall, tracer = traced_pass(wl, 0, checks)
            values = tracing.layer_values(tracer)
        finally:
            shutil.rmtree(wl.workdir, ignore_errors=True)
        spans = len(tracer.names)
        status = "ok" if not checks.failures and spans else "FAILED"
        ok = ok and status == "ok"
        busiest = sorted(((v, k) for k, v in values.items() if k.endswith(".busy_s")),
                         reverse=True)[:3]
        print(f"{name:<14} {status}  ops {checks.attempted}  failed {len(checks.failures)}"
              f"  spans {spans}  busiest {', '.join(k for _v, k in busiest)}")
        for failure in checks.failures:
            print(f"  FAILED: {failure}")
    return 0 if ok else 1
