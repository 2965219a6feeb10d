"""Charge-blocked dense linear algebra for U(1)-symmetric bond spaces.

Bond states carry an integer charge: the total spin to the left of the
bond minus its value in the initial antiferromagnetic configuration,
counted in units of single spin flips. A site tensor is stored once,
as its two spin matrices, one dense matrix per spin and row charge, and
a Schmidt spectrum as one vector per charge. A site matrix A(s) with
charge shift d maps column sector q + d to row sector q, so each row
sector pairs with exactly one column sector and blocked operations
never touch entries forbidden by the selection rule.

SVDs decompose each sector independently; truncation merges all sectors
into one global list before cutting, so the kept set is the same one an
unblocked decomposition would keep. The sectors of one matrix go on a
threads.queue, sector_svds: inside threads.helper_threads() a helper
starts each as soon as it is put, longest first, and the calling
thread decomposes the rest when block_svd collects them. The bond
update puts theta's sectors on it as it fills them; block_svd puts
those of a matrix given whole. Each sector is still one LAPACK call,
so where a sector runs never changes its bits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import threads
from .errors import SvdError

#: Relative floor under which singular values are treated as round-off
#: and dropped before any truncation counting.
SINGULAR_VALUE_FLOOR = 1e-14

#: Total work, sum of svd_work over a matrix's sectors, below which
#: its sectors are decomposed on the calling thread even with helpers
#: open: waking a helper costs about 70 us, more than it saves on
#: smaller matrices (ROADMAP, Baseline: sector threads).
THREAD_WORK = 20_000


class SiteTensor:
    """The (up, down) matrices of one site, one dense matrix per spin and row charge.

    A(s) maps column sector q + shifts[s] to row sector q. parts[q] is
    (A(up), A(down)) of row charge q, None for a spin without columns,
    in ascending q; dims is the hashable slot table (q, rows, up
    columns, down columns). The matrices are kept as given, not copied,
    and instances are treated as immutable.
    """

    __slots__ = ("shifts", "parts", "dims")

    def __init__(self, shifts, up, down):
        """The tensor of {row charge: A(s)} dicts of the two spins, None and empty A(s) left out."""
        self.shifts, self.parts, dims = tuple(shifts), {}, []
        for q in sorted(up.keys() | down.keys()):
            a, b = (m if m is not None and m.size else None for m in (up.get(q), down.get(q)))
            if a is not None or b is not None:
                self.parts[q] = a, b
                rows = (a if a is not None else b).shape[0]
                dims.append((q, rows, *(0 if m is None else m.shape[1] for m in (a, b))))
        self.dims = tuple(dims)

    def block(self, s, q):
        """A(s) of row charge q, or None."""
        return self.parts.get(q, (None, None))[s]

    def spin(self, s):
        """{row charge: A(s)} of one spin, ascending."""
        return {q: pair[s] for q, pair in self.parts.items() if pair[s] is not None}


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
        self.blocks = {q: cleaned[q] for q in sorted(cleaned)}

    @classmethod
    def from_sorted(cls, blocks):
        """A spectrum of nonempty descending sectors in ascending charge, taken as is."""
        spectrum = cls.__new__(cls)
        spectrum.blocks = blocks
        return spectrum

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
        p = np.concatenate([np.zeros(0), *(v**2 for v in self.blocks.values())])
        p = p[p > 0.0]
        return float(-np.sum(p * np.log(p))) if p.size else 0.0

    def normalized(self) -> "SchmidtSpectrum":
        norm = np.sqrt(self.total_weight)
        return SchmidtSpectrum.from_sorted({q: v / norm for q, v in self.blocks.items()})


@dataclass
class TruncationReport:
    """What a truncation discarded and how the kept set is laid out."""

    discarded_weight: float
    kept_per_sector: dict = field(default_factory=dict)
    largest_block_dim: int = 0


def _decompose(arr):
    """The thin (u, s, vh) of one sector, or the LinAlgError it raised."""
    try:
        return np.linalg.svd(arr, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        return exc


def svd_work(shape) -> int:
    """rows * cols * min(rows, cols), the cost by which a sector's SVD is queued."""
    rows, cols = shape
    return rows * cols * min(rows, cols)


def sector_svds(works) -> threads.Queue:
    """A threads.queue for the SVDs of one matrix's sectors, of these works.

    Put each sector as (charge, block, work); block_svd collects them.
    It has helpers, where threads.helper_threads() opened some, only
    for two or more sectors of total work at least THREAD_WORK, and at
    most one thread per sector.
    """
    works = list(works)
    most = 1 if sum(works) < THREAD_WORK else len(works)
    # _decompose is looked up per sector, so a test may watch it
    return threads.queue(lambda arr: _decompose(arr), most)


def block_svd(theta):
    """Sector-by-sector singular values and factors of a blocked matrix.

    theta.blocks maps each charge, ascending, to a 2-d block. Returns
    (spectrum, factors): block = u diag(spectrum) vh for (u, vh) =
    factors[charge] as LAPACK gives them; gauged_rows fixes the phases
    of the rows a caller keeps. The results are collected from a
    sector_svds queue: theta.svds, where theta carries the one its
    blocks were put on as they were filled, else one made here, on
    which the blocks are put by svd_work, largest first (ties in
    charge order). Either way each sector is one LAPACK call, whichever
    thread makes it, so the result is the same bit for bit.
    """
    svds = getattr(theta, "svds", None)
    if svds is None:
        works = {q: svd_work(arr.shape) for q, arr in theta.blocks.items()}
        svds = sector_svds(works.values())
        for q in sorted(works, key=lambda q: -works[q]):
            svds.put(q, theta.blocks[q], works[q])
    results = svds.results()
    s_blocks, factors = {}, {}
    for q_row, arr in theta.blocks.items():
        result = results[q_row]
        if isinstance(result, np.linalg.LinAlgError):
            raise SvdError(f"SVD did not converge in sector {q_row} "
                           f"({arr.shape[0]}x{arr.shape[1]})") from result
        u, s, vh = result
        s_blocks[q_row], factors[q_row] = s, (u, vh)
    # LAPACK returns each sector's values descending
    return SchmidtSpectrum.from_sorted(s_blocks), factors


def gauged_rows(u, vh, n):
    """The first n rows of vh, each phased so that the largest-magnitude
    entry of its left singular vector (a unit column of u, so nonzero) is
    real and positive. hypot rounds as scalar abs() does; np.abs does not.
    """
    lead = u[np.abs(u[:, :n].T, order="C").argmax(axis=1), np.arange(n)]
    return vh[:n] * (lead / np.hypot(lead.real, lead.imag))[:, None]


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
    low = next(iter(spectrum.blocks))
    counts = np.bincount(charges[:n_keep] - low).tolist()
    kept_per_sector = {low + i: n for i, n in enumerate(counts) if n}
    # a sector's kept values are a prefix of its descending values
    new_spec = SchmidtSpectrum.from_sorted(
        {q: spectrum.blocks[q][:n] for q, n in kept_per_sector.items()}
    ).normalized()
    return new_spec, TruncationReport(discarded, kept_per_sector)
