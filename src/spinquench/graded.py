"""Charge-blocked dense linear algebra for U(1)-symmetric bond spaces.

Bond states carry an integer charge: the total spin to the left of the
bond minus its value in the initial antiferromagnetic configuration,
counted in units of single spin flips. Matrices and Schmidt spectra
over bond spaces are stored as one dense block per charge sector. A matrix with
``charge_shift`` d maps column sector q + d to row sector q, so each row
sector pairs with exactly one column sector and blocked operations never
touch entries forbidden by the selection rule.

SVDs decompose each sector independently; truncation merges all sectors
into one global list before cutting, so the kept set is the same one an
unblocked decomposition would keep.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import SvdError

Charge = int

#: Relative floor under which singular values are treated as round-off
#: and dropped before any truncation counting.
SINGULAR_VALUE_FLOOR = 1e-14


def _sorted_block_dict(blocks):
    return {q: blocks[q] for q in sorted(blocks)}


class GradedMatrix:
    """A charge-conserving linear map between bond spaces.

    Blocks are keyed by (row charge, column charge) on input and every
    key must satisfy col = row + charge_shift; anything else is rejected.
    Internally one dense block is kept per row charge. Instances are
    treated as immutable after construction.
    """

    __slots__ = ("charge_shift", "blocks")

    def __init__(self, charge_shift: int, blocks=None):
        self.charge_shift = int(charge_shift)
        stored = {}
        for key, arr in (blocks or {}).items():
            if isinstance(key, tuple):
                q_row, q_col = key
                if q_col != q_row + self.charge_shift:
                    raise ValueError(
                        f"block ({q_row}, {q_col}) violates the selection rule "
                        f"for charge_shift {self.charge_shift}"
                    )
            else:
                q_row = key
            arr = np.asarray(arr, dtype=complex)
            if arr.ndim != 2:
                raise ValueError("graded matrix blocks must be 2d")
            if arr.size:
                stored[int(q_row)] = arr
        self.blocks = _sorted_block_dict(stored)

    def block(self, q_row):
        return self.blocks.get(q_row)

    def items(self):
        """Yield ((row charge, col charge), block) in sorted row order."""
        for q, arr in self.blocks.items():
            yield (q, q + self.charge_shift), arr

    @property
    def col_dims(self):
        return {q + self.charge_shift: b.shape[1] for q, b in self.blocks.items()}


class SchmidtSpectrum:
    """Schmidt values of a bond, grouped by sector, descending within each.

    The merged view interleaves all sectors into one globally ordered
    list; ties order by distance of the charge from zero, then by the
    more negative charge, then by position, so every consumer sees the
    same deterministic ranking. A spectrum is not modified after
    construction, so the ranking is built once, on first use.
    """

    def __init__(self, blocks):
        cleaned = {}
        for q, vals in blocks.items():
            vals = np.asarray(vals, dtype=float).reshape(-1)
            if vals.size:
                cleaned[int(q)] = -np.sort(-vals)
        self.blocks = _sorted_block_dict(cleaned)

    @property
    def sector_dims(self):
        return {q: v.size for q, v in self.blocks.items()}

    @property
    def total_dim(self) -> int:
        return sum(v.size for v in self.blocks.values())

    @property
    def total_weight(self) -> float:
        return sum(float(v @ v) for v in self.blocks.values())

    @functools.cached_property
    def _ranked(self):
        """(charges, values, indices-within-sector) as arrays, ranked."""
        sizes = [v.size for v in self.blocks.values()]
        charges = np.repeat(list(self.blocks), sizes).astype(int)
        values = np.concatenate([np.zeros(0), *self.blocks.values()])
        index = np.concatenate([np.arange(0), *map(np.arange, sizes)])
        order = np.lexsort((index, charges, np.abs(charges), -values))
        return charges[order], values[order], index[order]

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """Squared values in the order of _ranked; read-only."""
        values = self._ranked[1]
        weights = values * values
        weights.flags.writeable = False
        return weights

    def entropy(self) -> float:
        """Von Neumann entropy -sum p ln p with p the squared values."""
        p = np.concatenate([v**2 for v in self.blocks.values()]) if self.blocks else np.array([])
        p = p[p > 0.0]
        if p.size == 0:
            return 0.0
        return float(-np.sum(p * np.log(p)))

    def normalized(self) -> "SchmidtSpectrum":
        norm = np.sqrt(self.total_weight)
        return SchmidtSpectrum({q: v / norm for q, v in self.blocks.items()})


@dataclass
class TruncationReport:
    """What a truncation discarded and how the kept set is laid out."""

    discarded_weight: float
    kept_per_sector: dict = field(default_factory=dict)
    largest_block_dim: int = 0


def block_svd(theta: GradedMatrix):
    """Sector-by-sector singular values and right factor of a graded matrix.

    Returns (spectrum, y) with theta = x * diag(spectrum) * y blockwise,
    where the left factor x is not kept. y inherits theta's shift and
    the spectrum's sectors are labelled by theta's row charges. Each row
    of y carries the phase that makes the largest-magnitude entry of its
    left singular vector real and positive, so repeated decompositions
    are reproducible.
    """
    s_blocks, y_blocks = {}, {}
    for q_row, arr in theta.blocks.items():
        try:
            u, s, vh = np.linalg.svd(arr, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise SvdError(
                f"SVD did not converge in sector {q_row} "
                f"({arr.shape[0]}x{arr.shape[1]})"
            ) from exc
        # Columns of u have unit norm, so no lead entry is zero. hypot,
        # unlike np.abs on complex arrays, rounds as scalar abs() does.
        lead = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
        s_blocks[q_row] = s
        y_blocks[q_row] = vh * (lead / np.hypot(lead.real, lead.imag))[:, None]
    return SchmidtSpectrum(s_blocks), GradedMatrix(theta.charge_shift, y_blocks)


def merged_truncate(spectrum: SchmidtSpectrum, k_max: int):
    """Keep the k_max globally largest Schmidt values across all sectors.

    Values below SINGULAR_VALUE_FLOOR times the largest are dropped first
    as round-off. Ties at the cut keep the charge closer to zero, then
    the more negative charge. The kept spectrum is renormalized to unit
    total weight; the report carries the raw discarded weight (sum of
    squares of everything dropped, before renormalization) and the kept
    count per sector.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if not spectrum.blocks:
        raise ValueError("cannot truncate an empty spectrum")
    charges, values, _index = spectrum._ranked
    n_survive = int(np.count_nonzero(values >= values[0] * SINGULAR_VALUE_FLOOR))
    n_keep = min(k_max, n_survive)
    # cumsum adds one value at a time in ranked order, floored values
    # first, so the weight does not depend on np.sum's pairing.
    dropped = np.concatenate([values[n_survive:], values[n_keep:n_survive]])
    discarded = float(np.cumsum(dropped**2)[-1]) if dropped.size else 0.0
    kept_q, kept_n = np.unique(charges[:n_keep], return_counts=True)
    kept_per_sector = dict(zip(kept_q.tolist(), kept_n.tolist()))
    new_spec = SchmidtSpectrum(
        {q: spectrum.blocks[q][:n] for q, n in kept_per_sector.items()}
    ).normalized()
    report = TruncationReport(
        discarded_weight=discarded, kept_per_sector=kept_per_sector
    )
    return new_spec, report
