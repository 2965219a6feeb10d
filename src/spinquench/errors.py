"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: configuration problems exit
with 2, numerical guard failures with 3, and checkpoint/file problems
with 4. Library code raises; only the CLI translates. The validation
helpers shared by several modules live here too.
"""

import math
import numbers


class SpinQuenchError(Exception):
    """Base class for all package errors."""


class ConfigError(SpinQuenchError):
    """Invalid parameter or inconsistent configuration."""


def check_int(value, what: str, least: int) -> int:
    """value as an int if it is an integer >= least, else ConfigError.

    A bool is not taken for an integer, nor is an integral float; what
    names the value in the error message.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{what} must be >= {least}, got {value}")
    return int(value)


def check_real(value, what: str) -> float:
    """value as a float if it is a real number other than a bool, else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    return float(value)


def check_seed(value: int) -> int:
    """The seed as an int if it is an integer in 64 unsigned bits, else ConfigError."""
    seed = check_int(value, "seed", 0)
    if seed > 0xFFFFFFFFFFFFFFFF:
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return seed


def step_count(span: float, step: float, what: str) -> int:
    """Number of whole steps of size step in span, else ConfigError.

    The span must be a nonnegative integer multiple of the step to
    within 1e-9 steps; what names the span in the error message.
    """
    n_float = span / step
    n = round(n_float) if math.isfinite(n_float) else -1
    if abs(n_float - n) > 1e-9 or n < 0:
        raise ConfigError(
            f"{what} = {span} is not a nonnegative integer number of "
            f"steps of {step}"
        )
    return n


class NumericalError(SpinQuenchError):
    """A numerical guard tripped; results would be untrustworthy."""


class SvdError(NumericalError):
    """A per-sector SVD failed to converge."""


class NormDriftError(NumericalError):
    """Taylor propagation drifted beyond the norm tolerance."""


class SamplingError(NumericalError):
    """Boundary sampling hit a numerically impossible branch."""


class CheckpointError(SpinQuenchError):
    """Base class for checkpoint file problems."""


class CheckpointVersionError(CheckpointError):
    """Unrecognized magic or unsupported format version."""


class CheckpointChecksumError(CheckpointError):
    """Payload checksum mismatch; the file is corrupt."""


class CheckpointTruncatedError(CheckpointError):
    """The file ends before the declared payload and checksum."""
