import json
import subprocess
import sys

import numpy as np
import pytest

from spinquench.cli import main
from spinquench import circuit, harness, window
from spinquench.harness import read_aggregate_curve, read_table


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli_pipeline")
    chk = base / "t1.mpsc1"
    curve = base / "itebd.csv"
    rc = main(
        [
            "itebd",
            "--delta", "0.5",
            "--dt", "0.0625",
            "--kmax", "16",
            "--t-end", "1.0",
            "--out-checkpoint", str(chk),
            "--out-curve", str(curve),
        ]
    )
    assert rc == 0
    # longer reference curve for shift correction, same Trotter step
    rc = main(
        [
            "itebd",
            "--delta", "0.5",
            "--dt", "0.0625",
            "--kmax", "16",
            "--t-end", "2.0",
            "--out-checkpoint", str(base / "t2.mpsc1"),
            "--out-curve", str(base / "reference.csv"),
        ]
    )
    assert rc == 0
    # the sampled curve that the peaks tests read
    rc = main(
        [
            "sample",
            "--checkpoint", str(chk),
            "--l", "2",
            "--t-fin", "2.0",
            "--delta-t", "0.0625",
            "--samples", "50",
            "--seed", "3",
            "--workers", "1",
            "--out", str(base / "mc.csv"),
        ]
    )
    assert rc == 0
    return base


def test_itebd_writes_outputs(pipeline_dir):
    meta, cols = read_table(pipeline_dir / "itebd.csv")
    assert cols["t"][-1] == pytest.approx(1.0)
    assert meta["k_max"] == 16
    assert (pipeline_dir / "t1.mpsc1").exists()


def test_sample_then_peaks(pipeline_dir, capsys):
    mc_out = pipeline_dir / "mc.csv"
    meta, curve = read_aggregate_curve(mc_out)
    assert curve.times[0] == pytest.approx(1.0)
    assert curve.times[-1] == pytest.approx(2.0)
    assert curve.n_samples == 50
    assert meta["master_seed"] == 3

    peaks_out = pipeline_dir / "peaks.csv"
    rc = main(["peaks", "--in", str(mc_out), "--out", str(peaks_out)])
    assert rc == 0
    _meta, cols = read_table(peaks_out)
    assert set(cols) == {"t_peak", "height", "stderr"}


def test_peaks_to_stdout(pipeline_dir, capsys):
    # without --out the rows go to stdout, bare CSV with no header
    rc = main(["peaks", "--in", str(pipeline_dir / "mc.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    for line in out.splitlines():
        t_peak, height, stderr = map(float, line.split(","))
        assert 1.0 < t_peak < 2.0
        assert height > 0.0


def test_shift_correct_against_reference(pipeline_dir):
    out = pipeline_dir / "peaks_shifted.csv"
    rc = main(
        [
            "peaks",
            "--in", str(pipeline_dir / "mc.csv"),
            "--reference", str(pipeline_dir / "reference.csv"),
            "--out", str(out),
        ]
    )
    assert rc == 0
    meta, _cols = read_table(out)
    assert meta["shift_constant"] is not None
    assert abs(meta["shift_constant"]) < 0.1
    assert meta["overlap_frac"] == 0.25
    # a sampled curve is a reference by its mean_sz0 column; against
    # itself the shift is exactly zero
    mc = str(pipeline_dir / "mc.csv")
    assert main(["peaks", "--in", mc, "--reference", mc, "--out", str(out)]) == 0
    assert read_table(out)[0]["shift_constant"] == 0.0


def test_peaks_bad_input_exit_codes(pipeline_dir, tmp_path, capsys):
    # a reference with no t column, or an input whose metadata line is
    # not a JSON object, is a configuration error naming the file
    no_t = tmp_path / "no_t.csv"
    no_t.write_text("# {}\nmean_sz0\n0.1\n")
    rc = main(["peaks", "--in", str(pipeline_dir / "mc.csv"), "--reference", str(no_t)])
    assert rc == 2
    assert "no_t.csv" in capsys.readouterr().err
    # a reference with t but neither value column
    no_value = tmp_path / "no_value.csv"
    no_value.write_text("# {}\nt,stderr\n1.0,0.1\n")
    rc = main(["peaks", "--in", str(pipeline_dir / "mc.csv"), "--reference", str(no_value)])
    assert rc == 2
    assert "no_value.csv: no mean_sz0 or sz0 column" in capsys.readouterr().err
    for name, first in (("not_json.csv", "# {bad"), ("not_object.csv", "# 3")):
        bad = tmp_path / name
        bad.write_text(first + "\nt,mean_sz0,stderr,n_samples\n")
        assert main(["peaks", "--in", str(bad)]) == 2
        assert name in capsys.readouterr().err


def test_profile_fills_defaults(tmp_path):
    chk = tmp_path / "p.mpsc1"
    curve = tmp_path / "p.csv"
    rc = main(
        [
            "itebd",
            "--profile", "desk-small",
            "--t-end", "0.25",
            "--out-checkpoint", str(chk),
            "--out-curve", str(curve),
        ]
    )
    assert rc == 0
    meta, _cols = read_table(curve)
    assert meta["k_max"] == 16
    assert meta["delta"] == 0.5


def test_semistochastic_refusal_names_its_remedy(tmp_path, capsys):
    # the default desk profile's p_star refuses a k=16 checkpoint at t=4,
    # which is off canonical form; the message names --p-star inf, which
    # empties S and writes the bytes of the profile that leaves S empty
    chk = tmp_path / "t4.mpsc1"
    rc = main(["itebd", "--kmax", "16", "--t-end", "4.0",
               "--out-checkpoint", str(chk), "--out-curve", str(tmp_path / "direct.csv")])
    assert rc == 0
    argv = ["sample", "--checkpoint", str(chk), "--l", "2", "--t-fin", "5.0", "--out"]
    capsys.readouterr()
    assert main(argv + [str(tmp_path / "refused.csv")]) == 2
    assert "--p-star inf" in capsys.readouterr().err
    assert not (tmp_path / "refused.csv").exists()
    assert main(argv + [str(tmp_path / "inf.csv"), "--p-star", "inf"]) == 0
    assert main(argv + [str(tmp_path / "small.csv"), "--profile", "desk-small"]) == 0
    assert (tmp_path / "inf.csv").read_bytes() == (tmp_path / "small.csv").read_bytes()


def test_sample_beyond_planar_regime(tmp_path):
    # at |delta| > 1 there is no spin-wave velocity: sampling still runs
    # and warns that the horizon is unknown
    chk = tmp_path / "gapped.mpsc1"
    rc = main(
        [
            "itebd",
            "--profile", "desk-small",
            "--delta", "2.0",
            "--t-end", "1.0",
            "--out-checkpoint", str(chk),
            "--out-curve", str(tmp_path / "gapped.csv"),
        ]
    )
    assert rc == 0
    out = tmp_path / "gapped_mc.csv"
    with pytest.warns(UserWarning, match="horizon is unknown"):
        rc = main(
            [
                "sample",
                "--profile", "desk-small",
                "--checkpoint", str(chk),
                "--t-fin", "2.0",
                "--samples", "20",
                "--out", str(out),
            ]
        )
    assert rc == 0
    meta, curve = read_aggregate_curve(out)
    assert meta["delta"] == 2.0
    assert curve.n_samples == 20
    assert np.all(np.abs(curve.mean) <= 0.5)


def test_circuit_demo_direct_equals_sum(capsys):
    rc = main(["circuit-demo", "--n", "6", "--depth", "4", "--seed", "9", "--mode", "direct"])
    assert rc == 0
    direct = float(capsys.readouterr().out.strip())
    rc = main(["circuit-demo", "--n", "6", "--depth", "4", "--seed", "9", "--mode", "sum"])
    assert rc == 0
    summed = float(capsys.readouterr().out.strip())
    assert direct == pytest.approx(summed, abs=1e-12)


def test_circuit_demo_sample_mode(capsys):
    rc = main(
        [
            "circuit-demo",
            "--n", "4",
            "--depth", "3",
            "--seed", "1",
            "--mode", "sample",
            "--samples", "200",
        ]
    )
    assert rc == 0
    mean, stderr = map(float, capsys.readouterr().out.strip().split(","))
    assert -0.5 <= mean <= 0.5
    assert np.isfinite(stderr)


def test_circuit_demo_wide_halves_exit_code(monkeypatch, capsys):
    # with the limit lowered to 3 qubits, the 4-qubit halves of an n = 8
    # circuit stand for the 2^32-amplitude halves of n = 64
    monkeypatch.setattr(circuit, "DIRECT_QUBIT_LIMIT", 3)
    for mode in ("sum", "sample"):
        rc = main(["circuit-demo", "--n", "8", "--depth", "4", "--mode", mode])
        assert rc == 2
        assert "half states of 4 qubits" in capsys.readouterr().err


def test_validation_error_exit_code(pipeline_dir, capsys):
    rc = main(
        [
            "sample",
            "--checkpoint", str(pipeline_dir / "t1.mpsc1"),
            "--l", "0",
            "--t-fin", "2.0",
            "--out", str(pipeline_dir / "junk.csv"),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "l must be >= 1, got 0" in err
    assert "GiB" not in err


def test_window_over_the_memory_bound_exit_code(pipeline_dir, monkeypatch, capsys):
    # a half-width past the bound is a validation error before anything
    # is allocated; the bound is lowered so that no wide window is tried
    monkeypatch.setattr(window, "L_MAX", 2)
    rc = main(
        [
            "sample",
            "--checkpoint", str(pipeline_dir / "t1.mpsc1"),
            "--l", "3",
            "--t-fin", "2.0",
            "--out", str(pipeline_dir / "junk.csv"),
        ]
    )
    assert rc == 2
    assert "GiB" in capsys.readouterr().err


def test_missing_checkpoint_exit_code(tmp_path):
    rc = main(
        [
            "sample",
            "--checkpoint", str(tmp_path / "absent.mpsc1"),
            "--l", "2",
            "--t-fin", "2.0",
            "--out", str(tmp_path / "junk.csv"),
        ]
    )
    assert rc == 4


def test_norm_drift_exit_code(pipeline_dir, tmp_path):
    # delta_t far too large for a low Taylor order; t_fin is past the
    # window horizon l/v, so the run warns before it drifts
    with pytest.warns(UserWarning, match="window horizon"):
        rc = main(
            [
                "sample",
                "--checkpoint", str(pipeline_dir / "t1.mpsc1"),
                "--l", "2",
                "--t-fin", "9.0",
                "--delta-t", "8.0",
                "--nmax", "4",
                "--samples", "2",
                "--out", str(tmp_path / "junk.csv"),
            ]
        )
    assert rc == 3


def test_bad_flag_exit_code():
    assert main(["itebd", "--no-such-flag"]) == 2
    assert main(["no-such-command"]) == 2


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "spinquench.cli", "circuit-demo",
         "--n", "4", "--depth", "2", "--seed", "0", "--mode", "direct"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    float(proc.stdout.strip())


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "spinquench.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "itebd" in proc.stdout


#: Runs a JSON list of argv lists through cli.main in a fresh interpreter
#: where any import of scipy raises, and prints their exit codes.
_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
import spinquench, spinquench.cli
print(json.dumps([spinquench.cli.main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_numpy_only_commands_run_without_scipy(pipeline_dir, tmp_path):
    # scipy is loaded where a window Hamiltonian is built, so every
    # command but sample runs where it cannot be imported at all
    runs = [
        ["itebd", "--profile", "desk-small", "--t-end", "1.0",
         "--out-checkpoint", str(tmp_path / "t1.mpsc1"), "--out-curve", str(tmp_path / "itebd.csv")],
        ["peaks", "--in", str(pipeline_dir / "mc.csv"), "--out", str(tmp_path / "peaks.csv")],
        ["circuit-demo", "--n", "12", "--depth", "6", "--mode", "sum"],
        ["circuit-demo", "--n", "12", "--depth", "6", "--mode", "sample"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(runs)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, 0, 0, 0], proc.stderr


def test_sample_without_scipy_is_a_config_error_before_the_checkpoint_loads(
    pipeline_dir, tmp_path, monkeypatch, capsys
):
    # sample imports scipy.sparse first, so a partial install stops with
    # one error line and exit code 2, before the load and the walk
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.sparse", None)
    loads = []
    monkeypatch.setattr(harness, "load_checkpoint", loads.append)
    out = tmp_path / "mc.csv"
    rc = main(
        [
            "sample",
            "--checkpoint", str(pipeline_dir / "t1.mpsc1"),
            "--l", "2",
            "--t-fin", "2.0",
            "--out", str(out),
        ]
    )
    assert rc == 2
    assert not loads and not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: window sampling needs scipy")


def test_scipy_loads_with_the_first_sector_build():
    code = (
        "import sys\n"
        "import spinquench.cli\n"
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
        "spinquench.window.build_hloc(2, 0.5).sector(2)\n"
        "print('scipy.sparse' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]
