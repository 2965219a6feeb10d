"""Binary checkpoint format for unit-cell states ("MPSC1").

Layout:

* 8-byte magic ``MPSCHKP1``
* u32 little-endian length, then that many bytes of UTF-8 JSON manifest
* payload: per-sector float64 little-endian data, row-major; complex
  tensors interleave (re, im) per entry, Schmidt spectra are stored
  real-only and flagged in the manifest
* trailing u32 little-endian CRC32 of the payload

The manifest records format_version, the quench parameters (delta, dt,
k_max, t_init), and for each of the six tensors its charge shift, the
real-only flag, and a sector table of (charge, rows, cols, byte offset
into the payload). Loading verifies the checksum before any state is
constructed, so a corrupt file never yields a partial state. A loaded
state's matrices and spectra are read-only views of the payload (the
complex tensors come first, so every view is aligned).
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import (
    CheckpointChecksumError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ConfigError,
)
from .graded import SchmidtSpectrum, SiteTensor
from .itebd import DN, SHIFT_A, SHIFT_B, UP, MPSState, QuenchConfig

MAGIC = b"MPSCHKP1"
FORMAT_VERSION = 1

def _columns(spectrum: SchmidtSpectrum):
    """A spectrum as {charge: one-column block}."""
    return {q: v.reshape(-1, 1) for q, v in spectrum.blocks.items()}


#: The stored tensors in file order: {name: (charge shift, bonds, blocks)}.
#: The shift is the one the name implies. bonds names the (left, right)
#: bond spectra of a site tensor (A_A maps the B bond to the A bond, A_B
#: the A bond to the B bond) and is None for a Schmidt spectrum, which is
#: diagonal and stored real. blocks(state) gives {row charge: 2-d block}:
#: a site tensor's per-spin view, or a spectrum's one column per sector.
_TENSORS = {
    "A_A_up": (SHIFT_A[UP], ("lambda_B", "lambda_A"), lambda state: state.a_a.spin(UP)),
    "A_A_dn": (SHIFT_A[DN], ("lambda_B", "lambda_A"), lambda state: state.a_a.spin(DN)),
    "A_B_up": (SHIFT_B[UP], ("lambda_A", "lambda_B"), lambda state: state.a_b.spin(UP)),
    "A_B_dn": (SHIFT_B[DN], ("lambda_A", "lambda_B"), lambda state: state.a_b.spin(DN)),
    "lambda_A": (0, None, lambda state: _columns(state.lambda_a)),
    "lambda_B": (0, None, lambda state: _columns(state.lambda_b)),
}


def save_checkpoint(path, state: MPSState, config: QuenchConfig) -> None:
    """Write the state and its run parameters to an MPSC1 file."""
    manifest_tensors = []
    payload = bytearray()
    for name, (shift, bonds, blocks) in _TENSORS.items():
        real = bonds is None
        sectors = []
        for q_row, arr in blocks(state).items():
            raw = np.ascontiguousarray(arr, dtype="<f8" if real else "<c16").tobytes()
            sectors.append(
                {
                    "q": int(q_row),
                    "rows": int(arr.shape[0]),
                    "cols": int(arr.shape[1]),
                    "byte_offset": len(payload),
                }
            )
            payload.extend(raw)
        manifest_tensors.append(
            {
                "name": name,
                "charge_shift": shift,
                "real": real,
                "sectors": sectors,
            }
        )
    manifest = {
        "format_version": FORMAT_VERSION,
        "delta": config.delta,
        "dt": config.dt,
        "k_max": config.k_max,
        "t_init": state.time,
        "tensors": manifest_tensors,
    }
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(bytes(payload)) & 0xFFFFFFFF))


def _read_exact(fh, n, what):
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointTruncatedError(f"file ends inside {what}")
    return data


def _int(value, low=None):
    """A manifest integer, at least low when low is given, else ValueError."""
    if type(value) is not int or (low is not None and value < low):
        raise ValueError(f"bad manifest integer {value!r}")
    return value


def _tensor(entry):
    """(name, charge shift, real, sectors) of a manifest tensor, checked.

    Only the Schmidt spectra are stored real, one column per sector, and
    every tensor must carry the charge shift its name implies.
    """
    name = entry["name"]
    shift = _int(entry["charge_shift"])
    expected, bonds, _blocks = _TENSORS[name]
    if shift != expected:
        raise ValueError(f"tensor {name!r} has charge shift {shift}")
    real = bonds is None
    sectors = [
        (
            _int(sec["q"]),
            _int(sec["rows"], 0),
            _int(sec["cols"], 0),
            _int(sec["byte_offset"], 0),
        )
        for sec in entry["sectors"]
    ]
    if entry["real"] is not real or (real and any(sec[2] != 1 for sec in sectors)):
        raise ValueError(f"tensor {name!r} does not match its real flag")
    return name, shift, real, sectors


def _check_bond_dims(tensors):
    """ValueError unless every site block fits the spectra on its bonds.

    A block of row charge q has as many rows as its left bond has
    Schmidt values of charge q, and as many columns as its right bond
    has of charge q + shift.
    """
    dims = {
        name: {q: rows for q, rows, _cols, _off in sectors}
        for name, _shift, real, sectors in tensors
        if real
    }
    for name, shift, real, sectors in tensors:
        if real:
            continue
        left, right = (dims[bond] for bond in _TENSORS[name][1])
        for q, rows, cols, _off in sectors:
            bonds = (left.get(q, 0), right.get(q + shift, 0))
            if (rows, cols) != bonds:
                raise ValueError(
                    f"tensor {name!r} sector {q} is {rows}x{cols}, "
                    f"its bonds are {bonds[0]}x{bonds[1]}"
                )


def _spectrum(path, name, blocks):
    """The spectrum of {charge: one-column block}, taken as it is once every
    sector is finite, positive and non-increasing, as merged_truncate writes it."""
    values = {q: blocks[q][:, 0] for q in sorted(blocks) if blocks[q].size}
    for q, v in values.items():
        if not (np.all(np.isfinite(v) & (v > 0.0)) and np.all(v[1:] <= v[:-1])):
            raise CheckpointVersionError(
                f"{path}: {name} sector {q} is not finite, positive and non-increasing")
    return SchmidtSpectrum.from_sorted(values)


def _site_blocks(path, name, blocks):
    """{charge: block} of a site tensor, once every entry is finite."""
    for q, block in blocks.items():
        if not np.all(np.isfinite(block)):
            raise CheckpointVersionError(f"{path}: {name} sector {q} is not finite")
    return blocks


def load_checkpoint(path):
    """Read an MPSC1 file; returns (MPSState, QuenchConfig).

    Raises CheckpointVersionError for a foreign magic, an unsupported
    version, or a manifest with a missing key, a run parameter that is
    not a number or that QuenchConfig refuses (a dt that is not
    positive, a t_init off the dt grid, a delta that is not finite, a
    k_max below 2), a charge, size or offset that is not an integer (a
    size or offset must also be nonnegative), an unknown tensor name, a
    charge shift other than the one the name implies, a real flag that
    does not fit the tensor, or a site block whose rows or columns do
    not match the Schmidt values on its bonds, a site block that is not
    finite, or a Schmidt spectrum sector that is not finite, positive
    and non-increasing. Raises
    CheckpointChecksumError on CRC mismatch and CheckpointTruncatedError
    when the file is shorter than declared.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        magic = _read_exact(fh, len(MAGIC), "magic")
        if magic != MAGIC:
            raise CheckpointVersionError(f"{path}: not an MPSC1 checkpoint")
        (manifest_len,) = struct.unpack("<I", _read_exact(fh, 4, "manifest length"))
        try:
            manifest = json.loads(_read_exact(fh, manifest_len, "manifest"))
        except json.JSONDecodeError as exc:
            raise CheckpointVersionError(f"{path}: manifest is not valid JSON") from exc
        version = manifest.get("format_version") if isinstance(manifest, dict) else None
        if version != FORMAT_VERSION:
            raise CheckpointVersionError(
                f"{path}: format_version {version!r} "
                f"not supported (expected {FORMAT_VERSION})"
            )
        # The CRC covers only the payload, so the manifest is checked here.
        try:
            params = {k: manifest[k] for k in ("delta", "dt", "t_init")}
            if any(type(v) not in (int, float) for v in params.values()):
                raise ValueError(f"run parameters {params} are not numbers")
            params["k_max"] = _int(manifest["k_max"])
            config = QuenchConfig(**params)
            tensors = [_tensor(entry) for entry in manifest["tensors"]]
            _check_bond_dims(tensors)
        except (KeyError, TypeError, ValueError, ConfigError) as exc:
            raise CheckpointVersionError(
                f"{path}: malformed manifest ({exc!r})"
            ) from exc
        payload_len = 0
        for _name, _shift, real, sectors in tensors:
            width = 8 if real else 16
            for _q, rows, cols, off in sectors:
                payload_len = max(payload_len, off + rows * cols * width)
        payload = _read_exact(fh, payload_len, "payload")
        (crc_stored,) = struct.unpack("<I", _read_exact(fh, 4, "checksum"))
    if zlib.crc32(payload) & 0xFFFFFFFF != crc_stored:
        raise CheckpointChecksumError(f"{path}: payload checksum mismatch")

    parsed = {}
    for name, _shift, real, sectors in tensors:
        dtype = "<f8" if real else "<c16"
        blocks = {
            q: np.frombuffer(payload, dtype=dtype, count=rows * cols, offset=off)
            .reshape(rows, cols)
            for q, rows, cols, off in sectors
        }
        parsed[name] = (_spectrum if real else _site_blocks)(path, name, blocks)

    missing = [n for n in _TENSORS if n not in parsed]
    if missing:
        raise CheckpointVersionError(f"{path}: manifest missing tensors {missing}")

    state = MPSState(
        a_a=SiteTensor(SHIFT_A, parsed["A_A_up"], parsed["A_A_dn"]),
        a_b=SiteTensor(SHIFT_B, parsed["A_B_up"], parsed["A_B_dn"]),
        lambda_a=parsed["lambda_A"],
        lambda_b=parsed["lambda_B"],
        time=params["t_init"],
    )
    return state, config
