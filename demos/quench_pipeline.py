"""Two-phase pipeline on a desk-scale quench.

Phase 1 evolves the infinite chain to t=1 and writes a checkpoint.
Phase 2 samples finite windows from the checkpoint, continues them to
t=2, and compares the Monte Carlo curve against the direct evolution.

    python demos/quench_pipeline.py [OUT_DIR]

The files are written to a temporary directory that is removed on
exit; given OUT_DIR, they are written and kept there, with a plot where
matplotlib is installed.
"""

import contextlib
import pathlib
import sys
import tempfile

from spinquench import QuenchConfig, read_table, run_itebd, run_mc

DELTA = 0.5
DT = 0.0625
K_MAX = 16
T_CHECKPOINT = 1.0
T_FINAL = 2.0
WINDOW_L = 4  # smaller windows drift at this precision; see lightcone_horizon.py
N_SAMPLES = 2000


def main(out=None):
    with contextlib.nullcontext(out) if out else tempfile.TemporaryDirectory() as work:
        work = pathlib.Path(work)
        work.mkdir(parents=True, exist_ok=True)
        reference, curve = run(work)
        if out:
            print(f"artifacts kept under {work}")
            plot(work, reference, curve)


def run(work):
    """Both phases in work: ({t: direct sz0}, the Monte Carlo curve)."""
    config = QuenchConfig(delta=DELTA, dt=DT, k_max=K_MAX, t_init=T_CHECKPOINT)
    checkpoint = work / "t1.mpsc1"
    run_itebd(config, checkpoint, work / "phase1.csv")
    print(f"phase 1: evolved to t={T_CHECKPOINT}, checkpoint {checkpoint.name}")

    # the direct continuation doubles as the reference curve
    config2 = QuenchConfig(delta=DELTA, dt=DT, k_max=K_MAX, t_init=T_FINAL)
    run_itebd(config2, work / "t2.mpsc1", work / "direct.csv")
    _meta, direct = read_table(work / "direct.csv")
    reference = {round(float(t), 10): v for t, v in zip(direct["t"], direct["sz0"])}

    curve = run_mc(
        checkpoint=checkpoint,
        l=WINDOW_L,
        t_fin=T_FINAL,
        delta_t=0.25,
        n_max=20,
        n_samples=N_SAMPLES,
        master_seed=0,
        n_workers=4,
        out=work / "mc.csv",
    )

    print(f"phase 2: {N_SAMPLES} windows of {2 * WINDOW_L + 1} sites")
    print(f"{'t':>6} {'direct':>10} {'monte carlo':>22} {'pull':>6}")
    for t, m, s in zip(curve.times, curve.mean, curve.stderr):
        ref = reference[round(float(t), 10)]
        pull = abs(m - ref) / s if s > 0 else float("nan")
        print(f"{t:6.3f} {ref:10.6f} {m:12.6f} +- {s:8.2e} {pull:6.2f}")
    return reference, curve


def plot(work, reference, curve):
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return
    ts = sorted(reference)
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(ts, [reference[t] for t in ts], label="direct evolution")
    ax.errorbar(
        curve.times, curve.mean, yerr=curve.stderr, fmt="o", ms=3,
        label=f"window MC (l={WINDOW_L})",
    )
    ax.set_xlabel("t")
    ax.set_ylabel("staggered moment")
    ax.legend()
    fig.tight_layout()
    fig.savefig(work / "pipeline.png", dpi=120)
    print(f"plot: {work / 'pipeline.png'}")


if __name__ == "__main__":
    if len(sys.argv) > 2:
        sys.exit(f"usage: {sys.argv[0]} [OUT_DIR]")
    main(sys.argv[1] if len(sys.argv) == 2 else None)
