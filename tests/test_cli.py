"""CLI subcommands, flags, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import red
import red.experiment
import red.verify
from red.cli import main
from red.errors import NumericalAbort
from red.io import read_json, read_observables, wave_to_csv
from red.model import SystemSpec
from red.quantum import WaveField

BOOST = float(2.0 * np.pi * 2 / 16.0)


def write_config(tmp_path, **overrides):
    doc = {
        "system": {"n_particles": 2, "spatial_dim": 1, "box": [16.0],
                   "grid": [64, 64], "dt": 0.05},
        "initial_state": {"preset": "gaussian_packet", "sigma": 1.5,
                          "boost": [BOOST]},
        "drift_or_potential": {"preset": "harmonic_relational", "k": 0.3},
        "run": {"steps": 2, "dt_pde": 0.005, "seed": 5},
        "outputs": str(tmp_path / "run"),
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_run_success_prints_directory(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed == str(tmp_path / "run")
    assert (tmp_path / "run" / "observables.csv").is_file()


def test_seed_and_out_flags_override(tmp_path):
    path = write_config(tmp_path)
    assert main(["run", "--config", str(path), "--seed", "42",
                 "--out", str(tmp_path / "other")]) == 0
    manifest = read_json(tmp_path / "other" / "manifest.json")
    assert manifest["seed"] == 42
    assert manifest["config"]["run"]["seed"] == 42


def test_config_error_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, system={"n_particles": 1, "spatial_dim": 1,
                                          "box": [16.0], "grid": [64],
                                          "dt": 0.05, "masses": [-2.0]})
    assert main(["run", "--config", str(path)]) == 2
    assert "/system/masses/0" in capsys.readouterr().err


def test_oversized_grid_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, system={"n_particles": 2, "spatial_dim": 1, "box": [16.0],
                                          "grid": [4096, 4096], "dt": 0.05})
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "/system/grid" in err
    assert "budget" in err


@pytest.mark.parametrize("command", ["run", "sample"])
def test_outputs_that_cannot_be_created_exit_2(tmp_path, capsys, command):
    (tmp_path / "plain").write_text("a regular file\n")
    path = write_config(tmp_path, outputs=str(tmp_path / "plain" / "run"),
                        shift_mode={"mode": "fixed", "values": [0.0]},
                        run={"steps": 2, "dt_pde": 0.005, "seed": 5, "ensemble_K": 8})
    assert main([command, "--config", str(path)]) == 2
    assert "/outputs" in capsys.readouterr().err


def test_malformed_initial_wave_exits_2(tmp_path, capsys):
    spec = SystemSpec(2, 1, (1.0, 1.0), (16.0,), (64, 64), dt=0.05)
    wave = WaveField(np.full((64, 64), 1.0 / 16.0, dtype=complex), spec)
    wave_to_csv(wave, tmp_path / "wave.csv")
    body = (tmp_path / "wave.csv").read_text().splitlines()
    body[7] = "0.0625,not-a-number"
    (tmp_path / "wave.csv").write_text("\n".join(body) + "\n")
    path = write_config(tmp_path, initial_state={"file": str(tmp_path / "wave.csv")})
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "/initial_state/file" in err
    assert "malformed" in err


def test_numerical_abort_exits_3(tmp_path, capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise NumericalAbort("synthetic abort")

    monkeypatch.setattr(red.experiment, "schrodinger_evolve", explode)
    path = write_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 3
    assert "NumericalAbort" in capsys.readouterr().err


def test_missing_config_path_exits_2(capsys):
    assert main(["run", "--config", "/no/such/experiment.json"]) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_verify_unknown_suite_exits_2(capsys):
    assert main(["verify", "nonexistent"]) == 2
    assert "available" in capsys.readouterr().err


def test_verify_suite_reports_and_writes(tmp_path, capsys):
    assert main(["verify", "spreading", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "suite spreading: PASS" in out
    payload = read_json(tmp_path / "verify_spreading.json")
    assert payload["pass"] is True
    assert payload["checks"][0]["name"] == "width_law_relative_deviation"


def test_verify_failure_exits_4(monkeypatch, capsys):
    from red.verify import below

    monkeypatch.setitem(red.verify.SUITES, "synthetic", lambda: [below("x", 2.0, 1.0)])
    assert main(["verify", "synthetic"]) == 4
    assert "FAIL" in capsys.readouterr().out


def test_sample_subcommand_runs(tmp_path):
    path = write_config(
        tmp_path,
        drift_or_potential={"preset": "linear", "coefficients": [3.0, 1.0]},
        run={"steps": 2, "dt_pde": 0.005, "seed": 5, "ensemble_K": 32},
    )
    assert main(["sample", "--config", str(path)]) == 0
    assert (tmp_path / "run" / "walkers_000002.csv").is_file()


def test_bestmatch_subcommand_prints_json(tmp_path, capsys):
    path = write_config(tmp_path, drift_or_potential={"preset": "free"})
    assert main(["bestmatch", "--config", str(path),
                 "--out", str(tmp_path / "bm")]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["best_match_shift"][0] == pytest.approx(BOOST, abs=1e-10)
    stored = read_json(tmp_path / "bm" / "bestmatch.json")
    assert stored == printed


def test_run_observables_columns(tmp_path):
    path = write_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    table = read_observables(tmp_path / "run" / "observables.csv")
    assert set(table) == {
        "t", "momentum_0", "energy", "norm", "entropy", "shift_0",
        "g_total", "g_constant", "g_entropy", "g_h0",
    }
    assert np.allclose(table["norm"], 1.0, atol=1e-10)
    assert np.allclose(
        table["g_total"],
        table["g_constant"] + table["g_entropy"] + table["g_h0"],
        atol=1e-12,
    )


def _bundled_openblas():
    """numpy's own scipy-openblas library, when the wheel ships one."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    return libs[0] if libs else None


@pytest.mark.skipif(_bundled_openblas() is None, reason="numpy bundles no scipy-openblas library")
def test_red_threads_caps_openblas_before_numpy_loads():
    probe = (
        "import ctypes, sys\n"
        "import red.cli\n"
        "get = ctypes.CDLL(sys.argv[1]).scipy_openblas_get_num_threads64_\n"
        "get.argtypes, get.restype = [], ctypes.c_int\n"
        "print(get())\n"
    )
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["RED_THREADS"] = "1"
    env["PYTHONPATH"] = str(Path(red.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", probe, str(_bundled_openblas())],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "1"


def test_verify_out_that_cannot_be_created_exits_2_before_running(tmp_path, capsys):
    (tmp_path / "plain").write_text("a regular file\n")
    assert main(["verify", "spreading", "--out", str(tmp_path / "plain" / "sub")]) == 2
    captured = capsys.readouterr()
    assert "--out" in captured.err
    assert captured.out == ""


def test_bestmatch_out_that_cannot_be_created_exits_2(tmp_path, capsys):
    (tmp_path / "plain").write_text("a regular file\n")
    path = write_config(tmp_path)
    assert main(["bestmatch", "--config", str(path), "--out", str(tmp_path / "plain" / "sub")]) == 2
    captured = capsys.readouterr()
    assert "--out" in captured.err
    assert captured.out == ""
