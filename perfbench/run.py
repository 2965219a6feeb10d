"""spinquench benchmark launcher.

Run from the repository root:

    python3 perfbench/run.py --workload circuit-n18 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --selfcheck

--trace 0 measures the end-to-end metrics with tracing off; --trace 1
alternates untraced and traced passes of fixed inputs and reports the
per-layer metrics and the tracing overhead. --selfcheck runs every
workload path once at tiny sizes, with its correctness checks and a
traced pass, and gates on correctness only.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Lines before it give the
workload's named figures, the machine record and where the full result
file went. The program is imported from src/ of the same checkout; the
launcher exits non-zero without a result when it is not there.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: One BLAS thread per process, fixed here before numpy loads, keeps
#: processes x BLAS threads within nproc for the two-worker pipeline.
#: The single-process workloads use one thread too: on a 2-core machine
#: the library default (2 threads) ran k=1024 iTEBD no faster at twice
#: the CPU time.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="one of the names in BENCHMARK.json")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selfcheck", action="store_true",
                   help="all workloads at tiny sizes, correctness only")
    args = p.parse_args(argv)
    if not args.selfcheck and args.workload is None:
        p.error("--workload is required unless --selfcheck is given")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def set_blas_threads():
    for var in BLAS_ENV:
        os.environ[var] = "1"


def import_program():
    """Import spinquench from this checkout's src/, or exit 2."""
    sys.path.insert(0, os.fspath(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [os.fspath(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    try:
        import spinquench
        import spinquench.cli  # noqa: F401  (not imported by the package)
    except ImportError as exc:
        sys.stderr.write(f"perfbench: cannot import spinquench from {SRC}: {exc}\n")
        sys.exit(2)
    origin = Path(spinquench.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.stderr.write(f"perfbench: spinquench came from {origin}, not {SRC}\n")
        sys.exit(2)


def main(argv=None):
    args = parse_args(argv)
    # A terminated run unwinds like an error, so the sampling pool's
    # context manager shuts its workers down instead of orphaning them.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    set_blas_threads()
    import_program()
    import bench  # this directory is on sys.path: run.py is the script

    if args.selfcheck:
        return bench.selfcheck()
    if args.workload not in bench.workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; choose from "
                         f"{', '.join(bench.workloads.WORKLOADS)}\n")
        return 2
    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
