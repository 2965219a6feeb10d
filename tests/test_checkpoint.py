import json
import math
import re
import struct
import zlib

import numpy as np
import pytest

from spinquench.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from spinquench.cli import main
from spinquench.errors import (
    CheckpointChecksumError,
    CheckpointTruncatedError,
    CheckpointVersionError,
)
from spinquench.graded import SchmidtSpectrum, SiteTensor
from spinquench.itebd import (
    DN,
    UP,
    QuenchConfig,
    MPSState,
    build_gate,
    evolve_to,
    expect_pair_observable,
    neel_init,
)
from spinquench.sampler import canonical_residuals


def _small_state():
    config = QuenchConfig(delta=0.5, dt=0.0625, k_max=8)
    return evolve_to(neel_init(), 0.25, config), config


def test_round_trip_bit_identical(tmp_path):
    state, config = _small_state()
    path = tmp_path / "state.mpsc1"
    save_checkpoint(path, state, config)
    loaded, loaded_config = load_checkpoint(path)
    assert loaded_config.delta == config.delta
    assert loaded_config.dt == config.dt
    assert loaded_config.k_max == config.k_max
    # the stored t_init is the state's own time so a continuation run
    # starts from where this one stopped
    assert loaded_config.t_init == state.time
    assert loaded.time == state.time
    for orig, back in ((state.a_a, loaded.a_a), (state.a_b, loaded.a_b)):
        assert orig.shifts == back.shifts
        for s in (UP, DN):
            assert set(orig.spin(s)) == set(back.spin(s))
            for q, arr in orig.spin(s).items():
                assert np.array_equal(arr, back.block(s, q))
    for orig, back in (
        (state.lambda_a, loaded.lambda_a),
        (state.lambda_b, loaded.lambda_b),
    ):
        assert set(orig.blocks) == set(back.blocks)
        for q, vals in orig.blocks.items():
            assert np.array_equal(vals, back.blocks[q])


def test_resave_is_byte_identical(tmp_path):
    state, config = _small_state()
    first = tmp_path / "a.mpsc1"
    second = tmp_path / "b.mpsc1"
    save_checkpoint(first, state, config)
    loaded, loaded_config = load_checkpoint(first)
    save_checkpoint(second, loaded, loaded_config)
    assert first.read_bytes() == second.read_bytes()


def test_corrupted_payload_rejected(tmp_path):
    state, config = _small_state()
    path = tmp_path / "state.mpsc1"
    save_checkpoint(path, state, config)
    raw = bytearray(path.read_bytes())
    (manifest_len,) = struct.unpack("<I", raw[8:12])
    flip_at = 12 + manifest_len + 5  # inside the payload
    raw[flip_at] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointChecksumError):
        load_checkpoint(path)


def test_truncated_file_rejected(tmp_path):
    state, config = _small_state()
    path = tmp_path / "state.mpsc1"
    save_checkpoint(path, state, config)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CheckpointTruncatedError):
        load_checkpoint(path)


def test_foreign_magic_rejected(tmp_path):
    path = tmp_path / "other.bin"
    path.write_bytes(b"NOTMPSC0" + b"\x00" * 64)
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(path)


def test_unsupported_version_rejected(tmp_path):
    blob = json.dumps({"format_version": 99}).encode()
    path = tmp_path / "future.mpsc1"
    path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob)
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(path)


def test_garbled_manifest_rejected(tmp_path):
    path = tmp_path / "bad.mpsc1"
    for blob in (b"{not json", b"[1]"):  # not JSON, not a JSON object
        path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob)
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)


def test_missing_tensor_rejected(tmp_path):
    # a missing spectrum fails the bond check of the site tensors beside
    # it; a missing site tensor, which no bond check needs, is named
    state, config = _small_state()
    path = tmp_path / "state.mpsc1"
    save_checkpoint(path, state, config)
    raw = path.read_bytes()
    (manifest_len,) = struct.unpack("<I", raw[8:12])
    for dropped, match in (("lambda_B", None), ("A_B_dn", r"missing tensors \['A_B_dn'\]")):
        manifest = json.loads(raw[12 : 12 + manifest_len])
        manifest["tensors"] = [
            t for t in manifest["tensors"] if t["name"] != dropped
        ]
        blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
        payload = raw[12 + manifest_len : -4]
        kept_len = max(
            sec["byte_offset"] + sec["rows"] * sec["cols"] * (8 if t["real"] else 16)
            for t in manifest["tensors"]
            for sec in t["sectors"]
        )
        payload = payload[:kept_len]
        crc = struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
        path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + payload + crc)
        with pytest.raises(CheckpointVersionError, match=match):
            load_checkpoint(path)


def _drop(key):
    def edit(manifest):
        del manifest[key]

    return edit


def _negative_rows(manifest):
    manifest["tensors"][0]["sectors"][0]["rows"] = -1


def _float_offset(manifest):
    manifest["tensors"][1]["sectors"][0]["byte_offset"] += 0.5


def _text_delta(manifest):
    manifest["delta"] = "0.5"


def _half_charge(manifest):
    # would load as the neighbouring sector and overwrite it
    manifest["tensors"][0]["sectors"][0]["q"] += 0.5


def _complex_spectrum(manifest):
    # would read each Schmidt value and the next as one complex entry
    by_name = {t["name"]: t for t in manifest["tensors"]}
    by_name["lambda_A"]["real"] = False


def _shift(name, value):
    # the sampler and the update use the shift the name implies, so a
    # different stored one is either ignored or breaks a product later
    def edit(manifest):
        by_name = {t["name"]: t for t in manifest["tensors"]}
        by_name[name]["charge_shift"] = value

    return edit


def _resize(name, axis, step):
    # the largest sector of a tensor, one row or column more or fewer;
    # the payload is untouched, so the CRC still passes
    def edit(manifest):
        by_name = {t["name"]: t for t in manifest["tensors"]}
        sector = max(by_name[name]["sectors"], key=lambda s: s["rows"] * s["cols"])
        sector[axis] += step

    return edit


def _unknown_tensor(manifest):
    manifest["tensors"].append({**manifest["tensors"][0], "name": "A_C_up"})


def _param(key, value):
    # a run parameter of the right type that QuenchConfig refuses
    def edit(manifest):
        manifest[key] = value

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _drop("tensors"), _drop("delta"), _negative_rows, _float_offset,
        _text_delta, _half_charge, _complex_spectrum,
        _shift("A_B_dn", 1), _shift("A_A_dn", 0), _shift("A_A_up", 3),
        _shift("A_B_up", -1), _shift("lambda_A", 2), _unknown_tensor,
        _resize("A_A_up", "rows", -1), _resize("A_B_dn", "cols", 1),
        _resize("lambda_A", "rows", -1),
        _param("dt", -0.0625), _param("t_init", 1.01), _param("delta", math.nan),
        _param("k_max", 1),
    ],
    ids=[
        "no-tensors", "no-delta", "negative-rows", "float-offset",
        "text-delta", "half-charge", "complex-spectrum",
        "shift-A_B_dn", "shift-A_A_dn", "shift-A_A_up", "shift-A_B_up",
        "shift-lambda_A", "unknown-tensor",
        "rows-A_A_up", "cols-A_B_dn", "rows-lambda_A",
        "negative-dt", "t_init-off-grid", "nan-delta", "k_max-1",
    ],
)
def test_malformed_manifest_rejected(tmp_path, edit):
    # the CRC covers only the payload, so these files pass it
    state, config = _small_state()
    path = tmp_path / "state.mpsc1"
    save_checkpoint(path, state, config)
    raw = path.read_bytes()
    (manifest_len,) = struct.unpack("<I", raw[8:12])
    manifest = json.loads(raw[12 : 12 + manifest_len])
    edit(manifest)
    blob = json.dumps(manifest).encode()
    payload_and_crc = raw[12 + manifest_len :]
    path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + payload_and_crc)
    with pytest.raises(CheckpointVersionError, match=re.escape(str(path))):
        load_checkpoint(path)
    rc = main(
        [
            "sample", "--profile", "desk-small", "--checkpoint", str(path),
            "--t-fin", "0.5", "--samples", "4", "--out", str(tmp_path / "mc.csv"),
        ]
    )
    assert rc == 4


def test_schmidt_spectra_stored_real(tmp_path):
    state, config = _small_state()
    path = tmp_path / "state.mpsc1"
    save_checkpoint(path, state, config)
    raw = path.read_bytes()
    (manifest_len,) = struct.unpack("<I", raw[8:12])
    manifest = json.loads(raw[12 : 12 + manifest_len])
    by_name = {t["name"]: t for t in manifest["tensors"]}
    assert set(by_name) == {
        "A_A_up", "A_A_dn", "A_B_up", "A_B_dn", "lambda_A", "lambda_B"
    }
    for name in ("lambda_A", "lambda_B"):
        assert by_name[name]["real"] is True
        for sec in by_name[name]["sectors"]:
            assert sec["cols"] == 1
    for name in ("A_A_up", "A_A_dn", "A_B_up", "A_B_dn"):
        assert by_name[name]["real"] is False


def test_config_fields_survive(tmp_path):
    config = QuenchConfig(delta=0.75, dt=0.03125, k_max=12, t_init=0.0)
    state = evolve_to(neel_init(), 0.125, config)
    path = tmp_path / "state.mpsc1"
    save_checkpoint(path, state, config)
    _loaded, loaded_config = load_checkpoint(path)
    assert loaded_config.delta == 0.75
    assert loaded_config.dt == 0.03125
    assert loaded_config.k_max == 12


@pytest.mark.parametrize("run", ["k16_t1", "k128_t2", "k128_t3"])
def test_package_checkpoints_load_as_views_and_resave_byte_for_byte(request, run, tmp_path):
    path = request.getfixturevalue(run)["checkpoint"]
    state, config = load_checkpoint(path)
    # the loader hands over the payload's blocks as they are: read-only
    # views, a spectrum's sectors unsorted
    arrays = [arr for t in (state.a_a, state.a_b) for s in (UP, DN) for arr in t.spin(s).values()]
    arrays += [v for lam in (state.lambda_a, state.lambda_b) for v in lam.blocks.values()]
    assert not any(arr.flags.writeable or arr.flags.owndata for arr in arrays)
    again = tmp_path / "again.mpsc1"
    save_checkpoint(again, state, config)
    assert again.read_bytes() == path.read_bytes()


def _doctored_spectrum(path, how):
    """(original state, doctored state, config): one lambda_A sector of a
    checkpoint reversed (with the A_A columns and A_B rows on its bond
    permuted to match, a gauge-equivalent state), negated, or given a NaN,
    a leading infinity or a trailing zero."""
    state, config = load_checkpoint(path)
    blocks = dict(state.lambda_a.blocks)
    q = max(blocks, key=lambda c: blocks[c].size)
    a_a, a_b = state.a_a, state.a_b
    if how == "reversed":
        blocks[q] = blocks[q][::-1]
        a_a = SiteTensor(a_a.shifts, *(
            {r: m[:, ::-1] if r + a_a.shifts[s] == q else m for r, m in a_a.spin(s).items()}
            for s in (UP, DN)
        ))
        a_b = SiteTensor(a_b.shifts, *(
            {r: m[::-1] if r == q else m for r, m in a_b.spin(s).items()} for s in (UP, DN)
        ))
    elif how == "negated":
        blocks[q] = -blocks[q]
    elif how == "nan":
        blocks[q] = blocks[q].copy()
        blocks[q][1] = np.nan
    elif how == "inf":
        blocks[q] = np.concatenate([[np.inf], blocks[q][1:]])
    else:
        blocks[q] = np.concatenate([blocks[q][:-1], [0.0]])
    doctored = MPSState(a_a, a_b, SchmidtSpectrum.from_sorted(blocks), state.lambda_b, state.time)
    return state, doctored, config


@pytest.mark.parametrize("how", ["reversed", "negated", "nan", "inf", "zero"])
def test_spectrum_out_of_form_refused(k16_t1, tmp_path, how):
    # the loader takes a spectrum as merged_truncate writes it: every
    # sector finite, positive and non-increasing; it refuses any other
    # rather than sort it away from the tensor rows and columns it labels
    state, doctored, config = _doctored_spectrum(k16_t1["checkpoint"], how)
    if how == "reversed":  # the same physical state, in canonical form
        gate = build_gate(config.delta, config.dt)
        same = expect_pair_observable(doctored, gate), expect_pair_observable(state, gate)
        assert np.allclose(*same, rtol=0.0, atol=1e-14)
        assert max(canonical_residuals(doctored)) < 1e-13
    path = tmp_path / f"{how}.mpsc1"
    save_checkpoint(path, doctored, config)
    with pytest.raises(CheckpointVersionError, match="lambda_A"):
        load_checkpoint(path)
    rc = main(
        [
            "sample", "--profile", "desk-small", "--checkpoint", str(path), "--p-star", "inf",
            "--t-fin", "2.0", "--samples", "4", "--out", str(tmp_path / "mc.csv"),
        ]
    )
    assert rc == 4


def test_site_block_not_finite_refused(tmp_path):
    # a NaN in a site block, stored under a valid CRC, is refused on load
    # with the tensor and sector named, and sample exits 4 with no CSV
    config = QuenchConfig(delta=0.5, dt=0.0625, k_max=16, t_init=1.0)
    state = evolve_to(neel_init(), 1.0, config)
    up = {q: arr.copy() for q, arr in state.a_a.spin(UP).items()}
    q = max(up, key=lambda c: up[c].size)
    up[q][0, 0] = np.nan
    a_a = SiteTensor(state.a_a.shifts, up, state.a_a.spin(DN))
    path = tmp_path / "nan.mpsc1"
    doctored = MPSState(a_a, state.a_b, state.lambda_a, state.lambda_b, state.time)
    save_checkpoint(path, doctored, config)
    with pytest.raises(CheckpointVersionError, match=f"A_A_up sector {q} is not finite"):
        load_checkpoint(path)
    out = tmp_path / "mc.csv"
    rc = main(
        [
            "sample", "--profile", "desk-small", "--checkpoint", str(path),
            "--t-fin", "2.0", "--samples", "4", "--out", str(out),
        ]
    )
    assert rc == 4
    assert not out.exists()
