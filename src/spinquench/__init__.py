"""Quench dynamics for infinite spin-1/2 XXZ chains.

Charge-blocked iTEBD with a division-free bond update, light-cone
Monte Carlo sampling of finite windows, a sparse window propagator,
and a brickwork-circuit demonstrator of the underlying projector
identity.
"""

from .errors import (
    CheckpointChecksumError,
    CheckpointError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ConfigError,
    NormDriftError,
    NumericalError,
    SamplingError,
    SpinQuenchError,
    SvdError,
)
from .graded import (
    GradedMatrix,
    SchmidtSpectrum,
    SectorLayout,
    TruncationReport,
    block_svd,
    merged_truncate,
)
from .itebd import (
    MPSState,
    ObserverRecord,
    QuenchConfig,
    TwoSiteGate,
    build_gate,
    evolve_to,
    expect_pair_observable,
    expect_sz,
    neel_init,
    right_normalization_deviation,
    update_bond,
)
from .window import (
    EvolverParams,
    SparseWindowHamiltonian,
    WindowState,
    alternating_config,
    build_hloc,
    dense_reference_evolve,
    evolve_and_measure,
    spin_wave_velocity,
    sz_center,
    taylor_step,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .sampler import (
    BoundarySample,
    WindowSpec,
    assemble_window_state,
    boundary_spectrum,
    enumerate_boundary_pairs,
    sample_alpha,
    sample_spins_and_beta,
)
from .circuit import (
    BrickworkCircuit,
    CircuitRegions,
    build_regions,
    direct_expectation,
    haar_gate,
    lightcone_expectation_sampled,
    lightcone_expectation_sum,
)
from .harness import (
    PROFILES,
    AggregateCurve,
    PeakSeries,
    SampleRecord,
    extract_peaks,
    read_aggregate_curve,
    read_table,
    run_itebd,
    run_mc,
    sample_one,
    shift_correction,
    write_table,
)

__version__ = "0.1.0"
