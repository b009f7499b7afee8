"""CLI subcommands, flags, and exit codes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import admissible_step, read_observables
import red
import red.experiment
import red.verify
from red.cli import main
from red.errors import NumericalAbort
from red.io import read_json, wave_to_csv
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


@pytest.mark.parametrize("command", ["run", "sample", "bestmatch"])
def test_empty_out_flag_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch, command):
    path = write_config(tmp_path, run={"steps": 2, "dt_pde": 0.005, "seed": 5, "ensemble_K": 8},
                        shift_mode={"mode": "fixed", "values": [0.0]})
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main([command, "--config", str(path), "--out", ""]) == 2
    captured = capsys.readouterr()
    assert "/outputs" in captured.err
    assert captured.out == ""
    assert list(work.iterdir()) == []
    assert not (tmp_path / "run").exists()


def test_verify_empty_out_flag_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "spreading", "--out", ""]) == 2
    captured = capsys.readouterr()
    assert "--out" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sidecar", ['{"kind": "wavefunction"}', "not json",
                                     '{"kind": "wavefunction", "shape": [64, 64], "time": "abc"}'])
def test_bad_initial_wave_sidecar_exits_2(tmp_path, capsys, sidecar):
    spec = SystemSpec(2, 1, (1.0, 1.0), (16.0,), (64, 64), dt=0.05)
    wave_to_csv(WaveField(np.full((64, 64), 1.0 / 16.0, dtype=complex), spec), tmp_path / "wave.csv")
    (tmp_path / "wave.json").write_text(sidecar)
    path = write_config(tmp_path, initial_state={"file": str(tmp_path / "wave.csv")})
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "/initial_state/file" in err
    assert "sidecar" in err


def test_config_error_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, system={"n_particles": 1, "spatial_dim": 1,
                                          "box": [16.0], "grid": [64],
                                          "dt": 0.05, "masses": [-2.0]})
    assert main(["run", "--config", str(path)]) == 2
    assert "/system/masses/0" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value, pointer", [
    ("system", "dt", 10 ** 400, "/system/dt"),
    ("system", "box", [10 ** 400], "/system/box/0"),
    ("initial_state", "boost", [1e308], "/initial_state/boost/0"),
], ids=["dt", "box", "boost"])
def test_numbers_too_large_for_a_float_exit_2(tmp_path, capsys, section, key, value, pointer):
    doc = json.loads(write_config(tmp_path).read_text())
    doc[section][key] = value
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path)]) == 2
    assert pointer in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["run", "sample"])
@pytest.mark.parametrize("preset", ["harmonic_relational", "smooth_harmonic_relational"])
@pytest.mark.parametrize("spatial_dim, grid", [(1, [63, 65]), (2, [32, 30, 32, 32])])
def test_relational_preset_on_unequal_paired_grids_exits_2(tmp_path, capsys, command, preset,
                                                           spatial_dim, grid):
    path = write_config(
        tmp_path,
        system={"n_particles": 2, "spatial_dim": spatial_dim, "box": [16.0] * spatial_dim,
                "grid": grid, "dt": 0.05},
        initial_state={"preset": "gaussian_packet", "sigma": 2.0},
        drift_or_potential={"preset": preset, "k": 0.3},
        shift_mode={"mode": "fixed", "values": [0.0] * spatial_dim},
        run={"steps": 2, "dt_pde": 0.005, "seed": 5, "ensemble_K": 8},
    )
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert "/system/grid" in captured.err and "equal grids" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("hbar", [0.0, -1.0, "x", None], ids=["zero", "negative", "string", "null"])
@pytest.mark.parametrize("initial_state", [
    {"preset": "gaussian_packet", "sigma": 1.5, "boost": [BOOST]},
    {"preset": "plane_wave", "k": [BOOST, -BOOST]},
], ids=["boosted_gaussian", "plane_wave"])
def test_invalid_hbar_exits_2(tmp_path, capsys, hbar, initial_state):
    path = write_config(tmp_path, system={"n_particles": 2, "spatial_dim": 1, "box": [16.0],
                                          "grid": [64, 64], "dt": 0.05, "hbar": hbar},
                        initial_state=initial_state)
    assert main(["run", "--config", str(path)]) == 2
    assert "/system/hbar" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_oversized_grid_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, system={"n_particles": 2, "spatial_dim": 1, "box": [16.0],
                                          "grid": [4096, 4096], "dt": 0.05})
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "/system/grid" in err
    assert "budget" in err


@pytest.mark.parametrize("command", ["run", "sample", "bestmatch"])
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


def test_verify_unknown_suite_creates_no_out_directory(tmp_path, capsys):
    out = tmp_path / "reports"
    assert main(["verify", "bogus", "--out", str(out)]) == 2
    assert "available" in capsys.readouterr().err
    assert not out.exists()


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
    assert not (tmp_path / "run").exists()  # --out replaces the config's outputs


def test_bestmatch_without_a_usable_curvature_exits_3(tmp_path, capsys):
    # masses 1e-300 and 1: the light particle's flow energy, near 1e299, swamps the
    # probes' differences, so the fit reads a curvature of 0
    system = {"n_particles": 2, "spatial_dim": 1, "box": [16.0], "grid": [64, 64],
              "dt": 0.05, "masses": [1e-300, 1.0]}
    path = write_config(tmp_path, system=system, drift_or_potential={"preset": "free"})
    assert main(["bestmatch", "--config", str(path)]) == 3
    captured = capsys.readouterr()
    assert "best-match fit" in captured.err
    assert "curvature" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "run").exists()


def test_bestmatch_writes_to_the_configured_outputs(tmp_path, capsys):
    path = write_config(tmp_path, drift_or_potential={"preset": "free"})
    assert main(["bestmatch", "--config", str(path)]) == 0
    printed = capsys.readouterr().out
    assert (tmp_path / "run" / "bestmatch.json").read_text() == printed


def test_bestmatch_writes_to_the_default_outputs(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, drift_or_potential={"preset": "free"})
    doc = json.loads(path.read_text())
    del doc["outputs"]
    path.write_text(json.dumps(doc))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["bestmatch", "--config", str(path)]) == 0
    printed = capsys.readouterr().out
    assert [p.name for p in work.iterdir()] == ["out"]
    assert (work / "out" / "bestmatch.json").read_text() == printed


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


@pytest.mark.parametrize("command, blocked, flag", [
    ("run", "wave_000001.csv", False),
    ("run", "observables.csv", False),
    ("run", "manifest.json", True),
    ("sample", "walkers_000001.csv", False),
    ("bestmatch", "bestmatch.json", False),
    ("verify", "verify_spreading.json", True),
], ids=["run_wave", "run_observables", "run_manifest_out", "sample_walkers", "bestmatch_report",
        "verify_report_out"])
def test_an_output_file_that_cannot_be_written_exits_2(tmp_path, capsys, command, blocked, flag):
    path = write_config(tmp_path, shift_mode={"mode": "fixed", "values": [0.0]},
                        run={"steps": 2, "dt_pde": 0.005, "seed": 5, "ensemble_K": 8})
    out = tmp_path / ("other" if flag else "run")
    (out / blocked).mkdir(parents=True)  # a directory stands where the file goes
    argv = ["verify", "spreading"] if command == "verify" else [command, "--config", str(path)]
    if flag:
        argv += ["--out", str(out)]
    assert main(argv) == 2
    pointer = "--out" if flag else "/outputs"
    assert f"  {pointer}: cannot write the output directory: " in capsys.readouterr().err
    if blocked in ("wave_000001.csv", "observables.csv", "walkers_000001.csv"):
        # a write that fails mid-run is recorded like an abort
        assert read_json(out / "error.json")["error"] == "IsADirectoryError"
    if blocked == "wave_000001.csv":
        assert list(read_observables(out / "observables.csv")["t"]) == [0.0]


SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(red.__file__).resolve().parent.parent))


def test_entry_points_load_no_scipy():
    probe = (
        "import sys\n"
        "import red.cli, red.experiment, red.verify\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=SRC_ENV, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_only_main_sets_the_allocator_policy():
    # every C function looked up by name passes CDLL.__getitem__; mallopt is replaced by a recorder
    probe = (
        "import ctypes, contextlib, io\n"
        "calls = []\n"
        "lookup = ctypes.CDLL.__getitem__\n"
        "def spy(self, name):\n"
        "    if name != 'mallopt':\n"
        "        return lookup(self, name)\n"
        "    def mallopt(param, value):\n"
        "        calls.append([param, value])\n"
        "        return 1\n"
        "    return mallopt\n"
        "ctypes.CDLL.__getitem__ = spy\n"
        "import red, red.cli, red.config, red.experiment, red.io, red.verify\n"
        "print(calls)\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        "    print(red.cli.main(['verify', 'no-such-suite']))\n"
        "print(calls)\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=SRC_ENV, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    on_import, code, in_main = done.stdout.splitlines()
    assert on_import == "[]"
    assert code == "2"
    assert json.loads(in_main) == [[-3, 32 * 2 ** 20], [-1, 64 * 2 ** 20]]


@pytest.mark.parametrize("libc", ["no_library", "no_mallopt", "mallopt_ignored"])
def test_main_runs_where_the_allocator_policy_cannot_be_set(tmp_path, monkeypatch, libc):
    import ctypes

    calls = []
    lookup = ctypes.CDLL.__getitem__

    def spy(self, name):
        if name != "mallopt":
            return lookup(self, name)
        if libc == "no_mallopt":
            raise AttributeError(name)

        def mallopt(param, value):  # musl's stub
            calls.append(param)
            return 0
        return mallopt

    def no_library(*args, **kwargs):
        raise OSError("no C library")

    if libc == "no_library":
        monkeypatch.setattr(ctypes, "CDLL", no_library)
    else:
        monkeypatch.setattr(ctypes.CDLL, "__getitem__", spy)
    path = write_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    assert (tmp_path / "run" / "observables.csv").is_file()
    # a refused first setting is not followed by the second
    assert calls == ([-3] if libc == "mallopt_ignored" else [])


def test_cli_run_bytes_equal_a_library_run_with_no_allocator_policy(tmp_path):
    # 256² complex grids are 1 MB, past glibc's default mmap threshold, so the policy changes
    # where every grid temporary lives
    path = write_config(tmp_path, system={"n_particles": 2, "spatial_dim": 1, "box": [16.0],
                                          "grid": [256, 256], "dt": 0.05},
                        shift_mode={"mode": "best_match"})
    out = tmp_path / "out"
    cli = subprocess.run([sys.executable, "-m", "red", "run", "--config", str(path), "--out", str(out)],
                         env=SRC_ENV, capture_output=True, text=True, timeout=120)
    assert cli.returncode == 0, cli.stderr
    out.rename(tmp_path / "cli")
    library = (
        "import sys\n"
        "from red.config import load_config\n"
        "from red.experiment import run_experiment\n"
        "run_experiment(load_config(sys.argv[1], outputs=sys.argv[2]))\n"
    )
    done = subprocess.run([sys.executable, "-c", library, str(path), str(out)], env=SRC_ENV,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    names = sorted(p.name for p in (tmp_path / "cli").iterdir())
    assert "wave_000002.csv" in names
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (tmp_path / "cli" / name).read_bytes(), name


DEEP = "[" * 100_000 + "]" * 100_000


def _wave_file(tmp_path):
    spec = SystemSpec(2, 1, (1.0, 1.0), (16.0,), (64, 64), dt=0.05)
    wave_to_csv(WaveField(np.full((64, 64), 1.0 / 16.0, dtype=complex), spec), tmp_path / "wave.csv")
    return tmp_path / "wave.csv"


def _config_not_utf8(tmp_path):
    path = write_config(tmp_path)
    path.write_bytes(path.read_bytes().replace(b'"run"', b'"r\xffun"', 1))
    return path


def _config_nested(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(DEEP)
    return path


def _sidecar_nested(tmp_path):
    _wave_file(tmp_path).with_suffix(".json").write_text(DEEP)
    return write_config(tmp_path, initial_state={"file": str(tmp_path / "wave.csv")})


def _potential_nested(tmp_path):
    (tmp_path / "potential.json").write_text(DEEP)
    return write_config(tmp_path, drift_or_potential={"file": str(tmp_path / "potential.json")})


def _csv_bad_byte(at):
    def make(tmp_path):
        path = _wave_file(tmp_path)
        text = path.read_bytes()
        # a byte in the header, or one in the last row, past the first read buffer
        cut = text.index(b"imaginary") if at == "header" else len(text) - 3
        path.write_bytes(text[:cut] + b"\xff" + text[cut + 1:])
        return write_config(tmp_path, initial_state={"file": str(path)})
    return make


@pytest.mark.parametrize("make, pointer, words", [
    (_config_not_utf8, "/", "cannot read config file"),
    (_config_nested, "/", "not valid JSON"),
    (_sidecar_nested, "/initial_state/file", "sidecar is not valid JSON"),
    (_potential_nested, "/drift_or_potential/file", "unreadable potential file"),
    (_csv_bad_byte("header"), "/initial_state/file", "not UTF-8"),
    (_csv_bad_byte("body"), "/initial_state/file", "utf-8"),
], ids=["config_not_utf8", "config_nested", "sidecar_nested", "potential_nested", "csv_header_not_utf8",
        "csv_body_not_utf8"])
def test_unreadable_text_exits_2(tmp_path, capsys, make, pointer, words):
    path = make(tmp_path)
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"  {pointer}: " in err and words in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["run", "sample"])
@pytest.mark.parametrize("case", [
    "potential_shape", "potential_overflow",
    # the packet's profile overflows on purpose before the input is rejected
    pytest.param("packet_far_away", marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
])
def test_rejected_inputs_leave_no_output_directory(tmp_path, capsys, command, case):
    potential = tmp_path / "potential.json"
    potential.write_text(json.dumps({"values": np.zeros((32, 32)).tolist()}))  # the grid is 64 x 64
    huge = tmp_path / "huge.json"
    values = [[0] * 64 for _ in range(64)]
    values[3][5] = 10 ** 400  # a JSON integer too large for a float
    huge.write_text(json.dumps({"values": values}))
    section, pointer = {
        "potential_shape": ({"drift_or_potential": {"file": str(potential)}}, "/drift_or_potential/file"),
        "potential_overflow": ({"drift_or_potential": {"file": str(huge)}}, "/drift_or_potential/file"),
        "packet_far_away": ({"initial_state": {"preset": "gaussian_packet", "sigma": 1.5,
                                               "center": [1e300, 8.0]}}, "/initial_state"),
    }[case]
    path = write_config(tmp_path, shift_mode={"mode": "fixed", "values": [0.0]},
                        run={"steps": 2, "dt_pde": 0.005, "seed": 5, "ensemble_K": 8}, **section)
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert f"  {pointer}: " in captured.err
    assert captured.out == ""
    assert not (tmp_path / "run").exists()


# hbar = 1e308 overflows on purpose; numpy warns before the run's check raises. A
# dt_pde of 5e-308 keeps the kinetic phase per step at 0.56 rad, inside the build-time
# bound, so the run starts and its first row overflows
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_float_overflow_mid_run_exits_3_with_error_json(tmp_path, capsys):
    path = write_config(tmp_path, system={"n_particles": 2, "spatial_dim": 1, "box": [16.0],
                                          "grid": [64, 64], "dt": 0.05, "hbar": 1e308},
                        initial_state={"preset": "gaussian_packet", "sigma": 1.5},
                        run={"steps": 2, "dt_pde": 5e-308, "seed": 5})
    assert main(["run", "--config", str(path)]) == 3
    assert "OverflowError" in capsys.readouterr().err
    assert read_json(tmp_path / "run" / "error.json")["error"] == "OverflowError"


# the minimal configuration of the README, at the step the build-time bounds are sized on
README_CONFIG = {
    "system": {"n_particles": 2, "spatial_dim": 1, "masses": [1.0, 1.0], "box": [16.0],
               "grid": [64, 64], "dt": 0.01},
    "initial_state": {"preset": "gaussian_packet", "sigma": 1.5, "boost": [0.7853981633974483]},
    "drift_or_potential": {"preset": "smooth_harmonic_relational", "k": 0.3},
    "shift_mode": {"mode": "best_match"},
    "run": {"steps": 100, "dt_pde": 0.05, "snapshot_every": 10, "ensemble_K": 200, "seed": 3},
}


def readme_config(tmp_path, **sections):
    """The README config with its outputs under tmp_path; each keyword replaces its section."""
    doc = {**README_CONFIG, **sections, "outputs": str(tmp_path / "run")}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_readme_config_at_dt_pde_0_05_runs(tmp_path):
    # it turns 0.195 rad of potential phase and 0.036 rad of kinetic phase per step
    assert main(["run", "--config", str(readme_config(tmp_path))]) == 0
    assert (tmp_path / "run" / "observables.csv").is_file()


@pytest.mark.parametrize("section, key, value", [
    ("run", "dt_pde", 1e6),
    ("run", "dt_pde", 1e300),
    ("drift_or_potential", "k", 1e300),
    ("system", "masses", [1e-300, 1.0]),
    ("system", "hbar", 1e300),
])
def test_meaningless_step_sizes_exit_2_before_any_output(tmp_path, capsys, section, key, value):
    # each of these ran to exit 0 with meaningless numbers, or overflowed mid-run; each is
    # at least 7.3e5 rad per step on the bound it trips
    path = readme_config(tmp_path, **{section: {**README_CONFIG[section], key: value}})
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "  /run/dt_pde: dt_pde=" in err
    assert "phase bound; largest admissible step is " in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("bound, potential", [
    ("potential phase", {"preset": "smooth_harmonic_relational", "k": 0.3}),
    ("kinetic phase", {"preset": "free"}),
])
def test_a_step_just_past_a_phase_bound_is_rejected(tmp_path, capsys, bound, potential):
    # the admissible step in the message is the bound: 0.1 % past it is rejected, and
    # 0.1 % short of it runs
    def run_at(dt_pde):
        path = readme_config(tmp_path, drift_or_potential=potential,
                             run={**README_CONFIG["run"], "steps": 1, "dt_pde": dt_pde})
        shutil.rmtree(tmp_path / "run", ignore_errors=True)
        code = main(["run", "--config", str(path)])
        return code, capsys.readouterr().err

    code, err = run_at(1e6)
    assert code == 2
    [line] = [line for line in err.splitlines() if f"the {bound} bound" in line]
    admissible = admissible_step(line)
    code, err = run_at(admissible * 1.001)
    assert code == 2
    assert err.count("/run/dt_pde") == 1 and f"the {bound} bound" in err
    assert not (tmp_path / "run").exists()
    assert run_at(admissible * 0.999)[0] == 0
