"""Experiment orchestration: builders, run outputs, determinism, aborts."""

import json

import numpy as np
import pytest

import red.experiment as experiment
from red.config import parse_config
from red.errors import ConfigError, NumericalAbort
from red.experiment import (
    bestmatch_report,
    build_initial_wave,
    build_potential,
    run_experiment,
    sample_experiment,
)
from red.io import read_json, read_observables, write_json
from red.quantum import expected_momentum
from red.sampler import walkers_from_csv

BOOST = 2.0 * np.pi * 2 / 16.0  # lattice mode 2 of a 16-box


def config_doc(tmp_path, **overrides):
    doc = {
        "system": {"n_particles": 2, "spatial_dim": 1, "box": [16.0],
                   "grid": [64, 64], "dt": 0.05},
        "initial_state": {"preset": "gaussian_packet", "sigma": 1.5,
                          "boost": [BOOST]},
        "drift_or_potential": {"preset": "harmonic_relational", "k": 0.3},
        "shift_mode": {"mode": "fixed", "values": [0.0]},
        "run": {"steps": 4, "dt_pde": 0.005, "snapshot_every": 2, "seed": 3},
        "outputs": str(tmp_path / "run"),
    }
    doc.update(overrides)
    return doc


def parse(doc):
    return parse_config(json.dumps(doc))


def test_gaussian_packet_boost_becomes_momentum(tmp_path):
    config = parse(config_doc(tmp_path))
    wave = build_initial_wave(config)
    # boost applies to every particle: total momentum is 2 * BOOST
    assert expected_momentum(wave)[0] == pytest.approx(2 * BOOST, abs=1e-10)


def test_plane_wave_preset_is_uniform(tmp_path):
    doc = config_doc(tmp_path, initial_state={"preset": "plane_wave",
                                              "k": [BOOST, -BOOST]})
    wave = build_initial_wave(parse(doc))
    density = np.abs(wave.values) ** 2
    assert np.allclose(density, 1.0 / wave.spec.volume, rtol=1e-12)
    assert expected_momentum(wave)[0] == pytest.approx(0.0, abs=1e-12)


def test_two_packet_preset_has_zero_momentum(tmp_path):
    doc = config_doc(tmp_path, initial_state={"preset": "two_packet",
                                              "sigma": 1.2, "boost": [BOOST]})
    wave = build_initial_wave(parse(doc))
    assert expected_momentum(wave)[0] == pytest.approx(0.0, abs=1e-13)
    norm = np.sum(np.abs(wave.values) ** 2) * wave.spec.cell_volume
    assert norm == pytest.approx(1.0, abs=1e-12)


def test_potential_presets_carry_relational_flag(tmp_path):
    relational = build_potential(parse(config_doc(tmp_path)))
    assert relational.relational_flag
    doc = config_doc(tmp_path, drift_or_potential={"preset": "harmonic_external",
                                                   "k": 0.25})
    assert not build_potential(parse(doc)).relational_flag
    doc = config_doc(tmp_path, drift_or_potential={"preset": "free"})
    free = build_potential(parse(doc))
    assert free.relational_flag
    assert np.all(free.values.values == 0.0)


def test_potential_file_round_trip_and_shape_check(tmp_path):
    values = np.zeros((64, 64))
    path = tmp_path / "pot.json"
    write_json(path, {"values": values.tolist(), "relational": True})
    doc = config_doc(tmp_path, drift_or_potential={"file": str(path)})
    potential = build_potential(parse(doc))
    assert potential.relational_flag
    write_json(path, {"values": np.zeros((8, 8)).tolist()})
    with pytest.raises(ConfigError) as err:
        build_potential(parse(doc))
    assert err.value.violations[0][0] == "/drift_or_potential/file"


def test_zero_step_run_emits_manifest_and_single_snapshot(tmp_path):
    doc = config_doc(tmp_path)
    doc["run"]["steps"] = 0
    out = run_experiment(parse(doc))
    manifest = read_json(out / "manifest.json")
    assert manifest["seed"] == 3
    assert manifest["config"]["system"]["hbar"] == 1.0
    table = read_observables(out / "observables.csv")
    assert len(table["t"]) == 1
    assert (out / "wave_000000.csv").is_file()
    assert not (out / "wave_000001.csv").exists()
    assert not (out / "error.json").exists()


def test_rerun_is_byte_identical(tmp_path):
    doc = config_doc(tmp_path, outputs=str(tmp_path / "a"))
    first = run_experiment(parse(doc))
    doc["outputs"] = str(tmp_path / "b")
    second = run_experiment(parse(doc))
    for name in ("observables.csv", "wave_000004.csv", "wave_000004.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_best_match_run_tracks_packet_velocity(tmp_path):
    doc = config_doc(tmp_path, drift_or_potential={"preset": "free"},
                     shift_mode={"mode": "best_match"})
    table = read_observables(run_experiment(parse(doc)) / "observables.csv")
    # equal masses: the mean velocity is total momentum / total mass
    assert np.allclose(table["shift_0"], BOOST, atol=1e-10)


def test_run_with_walkers_writes_ensembles(tmp_path):
    doc = config_doc(tmp_path)
    doc["run"]["ensemble_K"] = 64
    config = parse(doc)
    out = run_experiment(config)
    walkers = walkers_from_csv(out / "walkers_000004.csv", config.spec)
    assert walkers.positions.shape == (64, 2)
    assert np.all(walkers.positions >= 0.0)
    assert np.all(walkers.positions < 16.0)


def test_zero_constrained_rejects_moving_state(tmp_path):
    doc = config_doc(tmp_path, shift_mode={"mode": "zero_constrained"})
    with pytest.raises(ConfigError) as err:
        run_experiment(parse(doc))
    assert err.value.violations[0][0] == "/shift_mode/mode"


def test_abort_leaves_error_json_and_partial_outputs(tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise NumericalAbort("synthetic failure for the abort path")

    monkeypatch.setattr(experiment, "schrodinger_evolve", explode)
    doc = config_doc(tmp_path)
    with pytest.raises(NumericalAbort):
        run_experiment(parse(doc))
    out = tmp_path / "run"
    record = read_json(out / "error.json")
    assert record["error"] == "NumericalAbort"
    assert "synthetic" in record["message"]
    assert (out / "manifest.json").is_file()
    assert (out / "wave_000000.csv").is_file()
    table = read_observables(out / "observables.csv")
    assert len(table["t"]) == 1


def test_sample_requires_walkers_and_fixed_shift(tmp_path):
    doc = config_doc(tmp_path)
    with pytest.raises(ConfigError) as err:
        sample_experiment(parse(doc))
    assert err.value.violations[0][0] == "/run/ensemble_K"
    doc["run"]["ensemble_K"] = 16
    doc["shift_mode"] = {"mode": "best_match"}
    with pytest.raises(ConfigError) as err:
        sample_experiment(parse(doc))
    assert err.value.violations[0][0] == "/shift_mode/mode"


def test_sample_run_is_deterministic(tmp_path):
    doc = config_doc(tmp_path, drift_or_potential={"preset": "linear",
                                                   "coefficients": [3.0, 1.0]})
    doc["run"]["ensemble_K"] = 128
    doc["outputs"] = str(tmp_path / "s1")
    first = sample_experiment(parse(doc))
    doc["outputs"] = str(tmp_path / "s2")
    second = sample_experiment(parse(doc))
    name = "walkers_000004.csv"
    assert (first / name).read_bytes() == (second / name).read_bytes()


def test_bestmatch_report_matches_closed_form(tmp_path):
    doc = config_doc(tmp_path, drift_or_potential={"preset": "free"})
    report = bestmatch_report(parse(doc))
    assert report["best_match_shift"][0] == pytest.approx(BOOST, abs=1e-10)
    assert report["numerical_shift"][0] == pytest.approx(BOOST, abs=1e-8)
    assert report["total_mass"] == 2.0
    assert report["mismatch_at_optimum"]["constant_term"] == pytest.approx(10.0)


def test_run_times_come_from_the_step_index(tmp_path, monkeypatch):
    # a running sum of 100 * 1e-3 gives 0.10000000000000007
    doc = config_doc(tmp_path)
    doc["run"].update(steps=100, dt_pde=1e-3, snapshot_every=100)
    out = run_experiment(parse(doc))
    assert read_observables(out / "observables.csv")["t"][-1] == 0.1
    assert read_json(out / "wave_000100.json")["time"] == 0.1

    evolve = experiment.schrodinger_evolve
    calls = []

    def fail_after_100(*args, **kwargs):
        calls.append(None)
        if len(calls) > 100:
            raise NumericalAbort("synthetic failure after 100 steps")
        return evolve(*args, **kwargs)

    monkeypatch.setattr(experiment, "schrodinger_evolve", fail_after_100)
    doc["run"]["steps"] = 101
    doc["outputs"] = str(tmp_path / "aborted")
    with pytest.raises(NumericalAbort):
        run_experiment(parse(doc))
    assert read_json(tmp_path / "aborted" / "error.json")["time"] == 0.1
