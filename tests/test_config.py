"""Config parsing: defaults, strictness, exhaustive pointer diagnostics."""

import json

import numpy as np
import pytest

from red.config import STENCIL_BUDGET, load_config, parse_config
from red.errors import ConfigError

MINIMAL = {
    "system": {"n_particles": 1, "spatial_dim": 1, "box": [40.0], "grid": [256], "dt": 0.05},
    "initial_state": {"preset": "gaussian_packet", "sigma": 1.5},
    "run": {"steps": 10, "dt_pde": 0.01},
}


def parse(doc):
    return parse_config(json.dumps(doc))


def violations_of(doc):
    with pytest.raises(ConfigError) as err:
        parse(doc)
    return dict(err.value.violations), err.value


def test_minimal_config_applies_documented_defaults():
    config = parse(MINIMAL)
    resolved = config.resolved
    assert resolved["system"]["hbar"] == 1.0
    assert resolved["system"]["masses"] == [1.0]
    assert resolved["initial_state"]["boost"] == [0.0]
    assert resolved["initial_state"]["center"] == [20.0]
    assert resolved["drift_or_potential"] == {"preset": "free"}
    assert resolved["shift_mode"] == {"mode": "fixed", "values": [0.0]}
    assert resolved["run"]["snapshot_every"] == 1
    assert resolved["run"]["ensemble_K"] == 0
    assert resolved["run"]["seed"] == 0
    assert resolved["outputs"] == "out"
    assert config.spec.hbar == 1.0
    assert config.run.seed == 0


def test_negative_mass_pointer():
    doc = json.loads(json.dumps(MINIMAL))
    doc["system"]["masses"] = [-1.0]
    pointers, _ = violations_of(doc)
    assert "/system/masses/0" in pointers


def test_violations_reported_exhaustively():
    doc = {
        "system": {"n_particles": 1, "spatial_dim": 1, "box": [40.0],
                   "grid": [256], "dt": 0.01},
        "initial_state": {"preset": "gaussian_packet", "sigma": 0.01,
                          "boost": [0.3]},
        "run": {"steps": -5, "dt_pde": 0.01, "seed": 2 ** 64},
        "mystery": 1,
    }
    pointers, error = violations_of(doc)
    assert "/initial_state/sigma/0" in pointers
    assert "/initial_state/boost/0" in pointers
    assert "/run/steps" in pointers
    assert "/run/seed" in pointers
    assert "/mystery" in pointers
    assert len(error.violations) >= 5


def test_grid_dependent_checks_wait_for_a_valid_system():
    # sigma and boost are judged against the grid, so a broken system block
    # suppresses them rather than reporting nonsense
    doc = {
        "system": {"n_particles": 1, "spatial_dim": 1, "box": [40.0],
                   "grid": [256], "dt": -1.0},
        "initial_state": {"preset": "gaussian_packet", "sigma": 0.01,
                          "boost": [0.3]},
        "run": {"steps": 1, "dt_pde": 0.01},
    }
    pointers, _ = violations_of(doc)
    assert "/system/dt" in pointers
    assert not any(key.startswith("/initial_state") for key in pointers)


def test_preset_and_file_conflict():
    doc = json.loads(json.dumps(MINIMAL))
    doc["initial_state"] = {"preset": "gaussian_packet", "file": "x.csv"}
    pointers, _ = violations_of(doc)
    assert pointers["/initial_state"].startswith("give either a preset or a file")


def test_unknown_keys_rejected_everywhere():
    doc = json.loads(json.dumps(MINIMAL))
    doc["system"]["flux_capacitor"] = 1
    doc["run"]["verbose"] = True
    pointers, _ = violations_of(doc)
    assert "/system/flux_capacitor" in pointers
    assert "/run/verbose" in pointers


def test_boost_must_be_lattice_momentum():
    doc = json.loads(json.dumps(MINIMAL))
    doc["initial_state"]["boost"] = [0.3]
    pointers, _ = violations_of(doc)
    message = pointers["/initial_state/boost/0"]
    nearest = float(message.rsplit(" ", 1)[1])
    assert nearest == pytest.approx(2.0 * np.pi / 40.0 * 2, rel=1e-12)


def test_momentum_capped_below_half_nyquist():
    doc = json.loads(json.dumps(MINIMAL))
    # Nyquist momentum is pi*256/40 = 20.1; half is 10.05
    mode = int(11.0 * 40.0 / (2.0 * np.pi))
    doc["initial_state"]["boost"] = [2.0 * np.pi * mode / 40.0]
    pointers, _ = violations_of(doc)
    assert "/initial_state/boost/0" in pointers


def test_plane_wave_k_is_per_configuration_axis():
    doc = {
        "system": {"n_particles": 2, "spatial_dim": 1, "box": [16.0],
                   "grid": [64, 64], "dt": 0.05},
        "initial_state": {"preset": "plane_wave",
                          "k": [2.0 * np.pi * 2 / 16.0, -2.0 * np.pi / 16.0]},
        "run": {"steps": 1, "dt_pde": 0.01},
    }
    config = parse(doc)
    assert config.initial_state.k == pytest.approx((0.7853981633974483, -0.39269908169872414))


def test_two_packet_requires_nonzero_boost():
    doc = json.loads(json.dumps(MINIMAL))
    doc["initial_state"] = {"preset": "two_packet", "sigma": 1.5, "boost": [0.0]}
    pointers, _ = violations_of(doc)
    assert "/initial_state/boost" in pointers


def test_relational_potential_needs_two_particles():
    doc = json.loads(json.dumps(MINIMAL))
    doc["drift_or_potential"] = {"preset": "harmonic_relational", "k": 0.3}
    pointers, _ = violations_of(doc)
    assert "/drift_or_potential/preset" in pointers


def test_relational_particles_validated():
    doc = {
        "system": {"n_particles": 2, "spatial_dim": 1, "box": [16.0],
                   "grid": [64, 64], "dt": 0.05},
        "initial_state": {"preset": "gaussian_packet", "sigma": 1.5},
        "drift_or_potential": {"preset": "harmonic_relational", "k": 0.3,
                               "particles": [0, 2]},
        "run": {"steps": 1, "dt_pde": 0.01},
    }
    pointers, _ = violations_of(doc)
    assert "/drift_or_potential/particles/1" in pointers
    doc["drift_or_potential"]["particles"] = [1, 1]
    pointers, _ = violations_of(doc)
    assert "/drift_or_potential/particles" in pointers


def test_fixed_shift_needs_values_and_only_fixed_takes_them():
    doc = json.loads(json.dumps(MINIMAL))
    doc["shift_mode"] = {"mode": "fixed"}
    pointers, _ = violations_of(doc)
    assert "/shift_mode/values" in pointers
    doc["shift_mode"] = {"mode": "best_match", "values": [0.1]}
    pointers, _ = violations_of(doc)
    assert pointers["/shift_mode/values"] == "best_match mode does not take fixed values"


def test_missing_file_reported():
    doc = json.loads(json.dumps(MINIMAL))
    doc["initial_state"] = {"file": "no/such/state.csv"}
    pointers, _ = violations_of(doc)
    assert "does not exist" in pointers["/initial_state/file"]


def test_unreadable_config_path_is_a_config_error():
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config("/no/such/experiment.json")


def test_not_json_and_not_object():
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config("{nope")
    with pytest.raises(ConfigError, match="top level"):
        parse_config("[1, 2]")


def test_scalars_broadcast_to_lists():
    doc = {
        "system": {"n_particles": 2, "spatial_dim": 1, "masses": 2.0,
                   "box": [16.0], "grid": 64, "dt": 0.05},
        "initial_state": {"preset": "gaussian_packet", "sigma": 1.5},
        "run": {"steps": 1, "dt_pde": 0.01},
    }
    config = parse(doc)
    assert config.spec.masses == (2.0, 2.0)
    assert config.spec.grid_points == (64, 64)
    assert config.initial_state.sigma == (1.5, 1.5)


def test_load_config_flags_update_resolved_copy(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(MINIMAL))
    updated = load_config(path, seed=99, outputs="elsewhere")
    assert updated.run.seed == 99
    assert updated.outputs == "elsewhere"
    assert updated.resolved["run"]["seed"] == 99
    assert updated.resolved["outputs"] == "elsewhere"
    config = load_config(path)
    assert config.run.seed == 0
    assert config.resolved["run"]["seed"] == 0
    assert json.loads(path.read_text()) == MINIMAL


@pytest.mark.parametrize("seed, outputs, pointer", [
    (-1, None, "/run/seed"), (2 ** 64, None, "/run/seed"), (None, "", "/outputs"),
])
def test_load_config_flags_are_validated(tmp_path, seed, outputs, pointer):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(MINIMAL))
    with pytest.raises(ConfigError) as err:
        load_config(path, seed=seed, outputs=outputs)
    assert [v[0] for v in err.value.violations] == [pointer]


def _walker_doc(grid, ensemble_k):
    dims = len(grid) // 2
    return {
        "system": {"n_particles": 2, "spatial_dim": dims, "box": [8.0] * dims, "grid": grid, "dt": 0.05},
        "initial_state": {"preset": "gaussian_packet", "sigma": 4.0},
        "run": {"steps": 1, "dt_pde": 0.01, "ensemble_K": ensemble_k},
    }


@pytest.mark.parametrize("grid, ensemble_k", [
    ([32, 32], 1_000_000_000),
    ([32, 32], STENCIL_BUDGET // 4 + 1),
    ([8, 8, 8, 8], STENCIL_BUDGET // 16 + 1),
])
def test_ensemble_k_beyond_the_stencil_budget_is_rejected(grid, ensemble_k):
    pointers, _ = violations_of(_walker_doc(grid, ensemble_k))
    assert "/run/ensemble_K" in pointers
    assert str(STENCIL_BUDGET) in pointers["/run/ensemble_K"]


@pytest.mark.parametrize("grid, ensemble_k", [
    ([32, 32], STENCIL_BUDGET // 4),
    ([128, 128], 50_000),
    ([8, 8, 8, 8], 2000),
])
def test_ensemble_k_within_the_stencil_budget_is_accepted(grid, ensemble_k):
    assert parse(_walker_doc(grid, ensemble_k)).run.ensemble_k == ensemble_k
