"""Command-line front end.

Subcommands map onto the two-phase experiment plus two diagnostics:

* itebd: evolve the infinite chain, write a checkpoint and a curve.
* sample: Monte Carlo window sampling from a checkpoint.
* peaks: extract |mean| peaks from a curve, shift-corrected against a
  reference curve when one is given.
* circuit-demo: compare direct, summed and sampled contraction of a
  random brickwork circuit.

Exit codes: 0 success, 2 configuration or validation error, 3 numerical
guard tripped, 4 I/O or checkpoint failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .circuit import (
    BrickworkCircuit,
    direct_expectation,
    lightcone_expectation_sampled,
    lightcone_expectation_sum,
)
from .errors import CheckpointError, ConfigError, NumericalError, check_seed
from .harness import (
    OVERLAP_FRAC,
    PROFILES,
    _fmt,
    extract_peaks,
    read_aggregate_curve,
    read_table,
    run_itebd,
    run_mc,
    shift_correction,
    write_peaks,
)
from .itebd import QuenchConfig


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinquench",
        description="Quench dynamics via evolution, checkpointed window sampling "
        "and light-cone circuit contraction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # an option that overrides a profile setting has the setting's key as
    # its dest and stays out of the namespace unless given (see _settings)
    unset = argparse.SUPPRESS
    p = sub.add_parser("itebd", help="evolve the infinite chain and checkpoint")
    p.add_argument("--profile", choices=sorted(PROFILES), default="desk")
    p.add_argument("--delta", type=float, default=unset, help="anisotropy")
    p.add_argument("--dt", type=float, default=unset, help="Trotter step")
    p.add_argument("--kmax", dest="k_max", type=int, default=unset, help="bond dimension cap")
    p.add_argument("--t-end", type=float, required=True, help="checkpoint time")
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--out-curve", required=True)

    p = sub.add_parser("sample", help="Monte Carlo window sampling")
    p.add_argument("--profile", choices=sorted(PROFILES), default="desk")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--l", type=int, default=unset, help="window half-width")
    p.add_argument("--t-fin", type=float, required=True)
    p.add_argument("--delta-t", type=float, default=unset, help="window time step")
    p.add_argument("--nmax", dest="n_max", type=int, default=unset, help="Taylor order")
    p.add_argument(
        "--p-star", type=float, default=unset,
        help="semistochastic threshold: boundary pairs whose two Schmidt weights "
        "are both at least this are summed exactly, the rest sampled; inf sums none",
    )
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--workers", type=int, default=1,
        help="most threads of the window propagation; a run below the helper "
        "crossover uses one; never changes the output",
    )
    p.add_argument("--out", required=True)

    p = sub.add_parser("peaks", help="extract peak heights from a curve")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument(
        "--reference", default=None,
        help="trusted early-time curve; the peaks are shift-corrected against it",
    )
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")

    p = sub.add_parser("circuit-demo", help="light-cone contraction check")
    p.add_argument("--n", type=int, required=True, help="number of qubits (even)")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("direct", "sum", "sample"), required=True)
    p.add_argument("--samples", type=int, default=10000)
    return parser


def _settings(args) -> dict:
    """The profile's settings, overridden by the options given."""
    return {**PROFILES[args.profile], **vars(args)}


def _cmd_itebd(args) -> int:
    s = _settings(args)
    config = QuenchConfig(delta=s["delta"], dt=s["dt"], k_max=s["k_max"], t_init=args.t_end)
    return run_itebd(config, args.out_checkpoint, args.out_curve)


def _cmd_sample(args) -> int:
    s = _settings(args)
    run_mc(
        args.checkpoint,
        l=s["l"],
        t_fin=args.t_fin,
        delta_t=s["delta_t"],
        n_max=s["n_max"],
        n_samples=args.samples,
        master_seed=args.seed,
        n_workers=args.workers,
        out=args.out,
        p_star=s["p_star"],
    )
    return 0


def _reference_columns(path):
    _meta, cols = read_table(path)
    if "t" not in cols:
        raise ConfigError(f"{path}: no t column to use as reference")
    if "mean_sz0" in cols:
        return cols["t"], cols["mean_sz0"]
    if "sz0" in cols:
        return cols["t"], cols["sz0"]
    raise ConfigError(f"{path}: no mean_sz0 or sz0 column to use as reference")


def _cmd_peaks(args) -> int:
    meta, curve = read_aggregate_curve(args.in_path)
    out_meta = {"source": meta.get("checkpoint"), "shift_constant": None}
    if args.reference is not None:
        ref_t, ref_v = _reference_columns(args.reference)
        curve = shift_correction(curve, ref_t, ref_v)
        out_meta["shift_constant"] = curve.shift_constant
        out_meta["overlap_frac"] = OVERLAP_FRAC
    series = extract_peaks(curve)
    if args.out is not None:
        write_peaks(args.out, series, out_meta)
    else:
        for t, height, stderr in series.peaks:
            sys.stdout.write(f"{_fmt(t)},{_fmt(height)},{_fmt(stderr)}\n")
    return 0


def _cmd_circuit_demo(args) -> int:
    rng = np.random.default_rng(check_seed(args.seed))
    circuit = BrickworkCircuit.random(args.n, args.depth, rng)
    if args.mode == "direct":
        sys.stdout.write(_fmt(direct_expectation(circuit)) + "\n")
    elif args.mode == "sum":
        sys.stdout.write(_fmt(lightcone_expectation_sum(circuit)) + "\n")
    else:
        mean, stderr = lightcone_expectation_sampled(circuit, args.samples, rng)
        sys.stdout.write(f"{_fmt(mean)},{_fmt(stderr)}\n")
    return 0


_COMMANDS = {
    "itebd": _cmd_itebd,
    "sample": _cmd_sample,
    "peaks": _cmd_peaks,
    "circuit-demo": _cmd_circuit_demo,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NumericalError as exc:
        sys.stderr.write(f"numerical guard: {exc}\n")
        return 3
    except (CheckpointError, OSError) as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
