"""Quench dynamics for infinite spin-1/2 XXZ chains.

Charge-blocked iTEBD with a division-free bond update, light-cone
Monte Carlo sampling of finite windows, a sparse window propagator,
and a brickwork-circuit demonstrator of the underlying projector
identity.

The top level exports the two-phase pipeline, the circuit estimators
and the error classes the command line maps to exit codes; the layers
underneath are imported from their modules (spinquench.itebd,
spinquench.window, spinquench.sampler, ...).
"""

from .errors import (
    CheckpointError,
    ConfigError,
    NormDriftError,
    NumericalError,
    SamplingError,
    SpinQuenchError,
)
from .itebd import QuenchConfig
from .window import spin_wave_velocity
from .circuit import (
    BrickworkCircuit,
    build_regions,
    direct_expectation,
    lightcone_expectation_sampled,
    lightcone_expectation_sum,
)
from .harness import (
    PROFILES,
    extract_peaks,
    read_aggregate_curve,
    read_table,
    run_itebd,
    run_mc,
    shift_correction,
)

__version__ = "0.1.0"
