"""Window size against the spin-wave horizon.

A window of half-width l cut from the chain at t_init can only track
the true dynamics until information from outside crosses the boundary,
roughly at t_init + l / v_sw. Past that the window curve drifts away;
the deviation collapses quickly as l grows. Expect a warning from the
l=1 and l=2 runs, which is the harness pointing at exactly this.

    python demos/lightcone_horizon.py [OUT_DIR]

The files are written to a temporary directory that is removed on
exit; given OUT_DIR, they are written and kept there, with a plot where
matplotlib is installed.
"""

import contextlib
import pathlib
import sys
import tempfile

from spinquench import QuenchConfig, read_table, run_itebd, run_mc, spin_wave_velocity

DELTA = 0.5
T_INIT = 1.0
T_FINAL = 3.0


def main(out=None):
    with contextlib.nullcontext(out) if out else tempfile.TemporaryDirectory() as work:
        work = pathlib.Path(work)
        work.mkdir(parents=True, exist_ok=True)
        reference, curves = run(work)
        if out:
            print(f"artifacts kept under {work}")
            plot(work, reference, curves)


def run(work):
    """The direct curve and windows l = 1..4 in work: ({t: direct sz0}, {l: curve})."""
    v = spin_wave_velocity(DELTA)
    print(f"spin-wave velocity at delta={DELTA}: {v:.4f}")

    checkpoint = work / "t1.mpsc1"
    run_itebd(
        QuenchConfig(delta=DELTA, dt=0.0625, k_max=16, t_init=T_INIT),
        checkpoint,
        work / "phase1.csv",
    )
    run_itebd(
        QuenchConfig(delta=DELTA, dt=0.0625, k_max=16, t_init=T_FINAL),
        work / "t3.mpsc1",
        work / "direct.csv",
    )
    _meta, direct = read_table(work / "direct.csv")
    reference = {round(float(t), 10): v for t, v in zip(direct["t"], direct["sz0"])}

    probe_times = (1.5, 2.0, 2.5, 3.0)
    curves = {}
    print(f"\n|window - direct| at fixed times ('|' marks t past the horizon):")
    print(f"{'':>12}" + "".join(f"{f't={t}':>12}" for t in probe_times))
    for l in (1, 2, 3, 4):
        curves[l] = run_mc(
            checkpoint=checkpoint,
            l=l,
            t_fin=T_FINAL,
            delta_t=0.25,
            n_max=20,
            n_samples=3000,
            master_seed=l,
            n_workers=4,
        )
        horizon = T_INIT + l / v
        curve = curves[l]
        by_time = {round(float(t), 10): m for t, m in zip(curve.times, curve.mean)}
        cells = []
        for t in probe_times:
            dev = abs(by_time[t] - reference[t])
            cells.append(f"{dev:11.1e}" + ("|" if t > horizon else " "))
        print(f"l={l} (t<{horizon:4.2f})" + "".join(cells))
    return reference, curves


def plot(work, reference, curves):
    v = spin_wave_velocity(DELTA)
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return
    fig, ax = plt.subplots(figsize=(6, 4))
    ts = sorted(reference)
    ax.plot(ts, [reference[t] for t in ts], "k-", lw=1.5, label="direct")
    for l, curve in curves.items():
        ax.plot(curve.times, curve.mean, "o-", ms=3, lw=0.8, label=f"l={l}")
        ax.axvline(T_INIT + l / v, color="gray", lw=0.5, ls=":")
    ax.set_xlabel("t")
    ax.set_ylabel("staggered moment")
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig(work / "horizon.png", dpi=120)
    print(f"plot: {work / 'horizon.png'}")


if __name__ == "__main__":
    if len(sys.argv) > 2:
        sys.exit(f"usage: {sys.argv[0]} [OUT_DIR]")
    main(sys.argv[1] if len(sys.argv) == 2 else None)
