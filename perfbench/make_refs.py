"""Regenerate the stored references under perfbench/refs/.

Run from the repository root (about half a minute on two cores):

    python3 perfbench/make_refs.py

The iTEBD reference is the curve file run_itebd writes for the desk
profile to t=4. The Monte Carlo reference is sampled with many more
samples than a benchmark pass and a seed no benchmark pass uses, so a
pass is checked against an independent estimate with its own standard
error.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import run

REF_SEED = 2**63 + 20090903
MC_REF_SAMPLES = 40_000
WORKERS = 2


def main():
    run.set_blas_threads()
    run.import_program()
    import spinquench as sq
    import workloads

    refs = workloads.REFS
    refs.mkdir(exist_ok=True)
    desk = workloads.PipelineDesk.sizes
    profile = sq.PROFILES["desk"]
    tmp = Path(tempfile.mkdtemp(dir=run.HERE))
    try:
        config = sq.QuenchConfig(delta=profile["delta"], dt=profile["dt"],
                                 k_max=profile["k_max"], t_init=desk["t_end"])
        checkpoint = tmp / "desk.mpsc1"
        sq.run_itebd(config, checkpoint, refs / "itebd_desk_t4.csv")
        print("wrote itebd_desk_t4.csv")
        sq.run_mc(checkpoint, l=desk["l"], t_fin=desk["t_fin"],
                  delta_t=profile["delta_t"], n_max=profile["n_max"],
                  n_samples=MC_REF_SAMPLES, master_seed=REF_SEED,
                  n_workers=WORKERS, out=refs / "mc_desk.csv")
        print("wrote mc_desk.csv")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
