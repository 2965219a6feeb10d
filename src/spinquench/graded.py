"""Charge-blocked dense linear algebra for U(1)-symmetric bond spaces.

Bond states carry an integer charge: the total spin to the left of the
bond minus its value in the initial antiferromagnetic configuration,
counted in units of single spin flips. Site tensors and Schmidt spectra
over bond spaces are stored as one dense block per charge sector. A
site matrix A(s) with charge shift d maps column sector q + d to row
sector q, so each row sector pairs with exactly one column sector and
blocked operations never touch entries forbidden by the selection rule.

SVDs decompose each sector independently; truncation merges all sectors
into one global list before cutting, so the kept set is the same one an
unblocked decomposition would keep. Inside threads.helper_threads()
the sectors of one matrix are dealt to helper threads, each still one
LAPACK call, so where a sector runs never changes its bits.
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

#: Total work, sum of rows * cols * min(rows, cols) over sectors, below
#: which block_svd decomposes inline even with helpers open: waking a
#: helper costs about 70 us, more than it saves on smaller matrices
#: (ROADMAP, Baseline: sector threads).
THREAD_WORK = 20_000


class SiteTensor:
    """The (up, down) matrices of one site, one dense block per row charge.

    A(s) maps column sector q + shifts[s] to row sector q. blocks[q] is
    [A(up) | A(down)] of row charge q, parts[q] their views (None for a
    spin without columns), dims the hashable slot table (q, rows, up
    columns, down columns). Instances are treated as immutable.
    """

    __slots__ = ("shifts", "blocks", "parts", "dims")

    def __init__(self, shifts, blocks, split):
        """Take complex blocks and their up widths as they are."""
        self.shifts, self.blocks, self.parts = tuple(shifts), blocks, {}
        for q, arr in blocks.items():
            halves = arr[:, : split[q]], arr[:, split[q] :]
            self.parts[q] = tuple(half if half.shape[1] else None for half in halves)
        self.dims = tuple((q, b.shape[0], split[q], b.shape[1] - split[q]) for q, b in blocks.items())

    @classmethod
    def from_spins(cls, shifts, up, down):
        """The tensor of {row charge: complex A(s)} dicts of the two spins.

        The matrices are copied into the blocks; empty ones are absent.
        """
        blocks, split = {}, {}
        for q in sorted(up.keys() | down.keys()):
            a, b = (m[q] if q in m and np.size(m[q]) else None for m in (up, down))
            if a is not None or b is not None:
                blocks[q] = np.concatenate([x for x in (a, b) if x is not None], axis=1)
                split[q] = 0 if a is None else a.shape[1]
        return cls(shifts, blocks, split)

    def block(self, s, q):
        """A(s) of row charge q, a view of the stored block, or None."""
        return self.parts.get(q, (None, None))[s]

    def spin(self, s):
        """{row charge: A(s)} of one spin as views, ascending."""
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


def _decompose(arrays):
    """The thin (u, s, vh) of each array, or the LinAlgError it raised."""
    out = []
    for arr in arrays:
        try:
            out.append(np.linalg.svd(arr, full_matrices=False))
        except np.linalg.LinAlgError as exc:
            out.append(exc)
    return out


def _deal(works, n_shares):
    """Indices of works, longest first, each to the share with least work so far."""
    shares, loads = [[] for _ in range(n_shares)], [0] * n_shares
    for i in sorted(range(len(works)), key=lambda i: -works[i]):
        least = loads.index(min(loads))
        shares[least].append(i)
        loads[least] += works[i]
    return shares


def _decompose_all(arrays):
    """_decompose(arrays), share 0 here and the others on the helpers."""
    works = [r * c * min(r, c) for r, c in (arr.shape for arr in arrays)]
    n_shares = min(threads.share_count(), len(arrays))
    if n_shares < 2 or sum(works) < THREAD_WORK:
        return _decompose(arrays)
    shares = _deal(works, n_shares)
    outs = threads.run_shares(lambda share: _decompose([arrays[i] for i in share]), shares)
    results = [None] * len(arrays)
    for share, out in zip(shares, outs):
        for i, result in zip(share, out):
            results[i] = result
    return results


def block_svd(theta):
    """Sector-by-sector singular values and factors of a blocked matrix.

    theta.blocks maps each charge, ascending, to a 2-d block. Returns
    (spectrum, factors): block = u diag(spectrum) vh for (u, vh) =
    factors[charge] as LAPACK gives them; gauged_rows fixes the phases
    of the rows a caller keeps. Inside threads.helper_threads() the
    sectors are decomposed on several threads, one LAPACK call each as
    inline, so the result is the same bit for bit.
    """
    s_blocks, factors = {}, {}
    results = _decompose_all(list(theta.blocks.values()))
    for (q_row, arr), result in zip(theta.blocks.items(), results):
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
