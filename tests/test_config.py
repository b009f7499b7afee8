"""Config parsing: defaults, strictness, exhaustive pointer diagnostics."""

import json
from pathlib import Path

import numpy as np
import pytest

from red.cli import main
from red.config import STENCIL_BUDGET, load_config, parse_config
from red.model import MAX_DIM
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
    # each choice section is its resolved dict: the config holds it once
    assert config.initial_state is resolved["initial_state"]
    assert config.potential is resolved["drift_or_potential"]
    assert config.shift_mode is resolved["shift_mode"]
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
    assert config.initial_state["k"] == pytest.approx([0.7853981633974483, -0.39269908169872414])


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
    assert config.initial_state["sigma"] == [1.5, 1.5]


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


def test_ensemble_k_past_the_digit_limit_of_its_product_exits_2(tmp_path, capsys):
    # 10**4299 is valid JSON, but ensemble_K · 2^D has more digits than str() renders
    path = tmp_path / "walkers.json"
    path.write_text(json.dumps(_walker_doc([8, 8, 8, 8], 10 ** 4299)))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.violations == [("/run/ensemble_K", "each walker needs 16 stencil corners, budget is "
                                                        "16777216: at most 1048576 walkers on this 4-axis grid")]
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "at most 1048576 walkers" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("grid, ensemble_k", [
    ([32, 32], STENCIL_BUDGET // 4),
    ([128, 128], 50_000),
    ([8, 8, 8, 8], 2000),
])
def test_ensemble_k_within_the_stencil_budget_is_accepted(grid, ensemble_k):
    assert parse(_walker_doc(grid, ensemble_k)).run.ensemble_k == ensemble_k


def test_walkers_on_a_coarse_many_axis_grid_run(tmp_path):
    # 12 axes of 3 cells: 4096 stencil corners per walker, most of them across the
    # periodic seam of some axis
    doc = {
        "system": {"n_particles": 12, "spatial_dim": 1, "box": [3.0], "grid": [3] * 12, "dt": 0.05},
        "initial_state": {"preset": "gaussian_packet", "sigma": 4.0},
        "run": {"steps": 1, "dt_pde": 0.01, "snapshot_every": 1, "ensemble_K": 2},
    }
    assert parse(doc).run.ensemble_k == 2
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(doc))
    assert main(["sample", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "walkers_000001.csv").is_file()


LATTICE_16 = 2.0 * np.pi / 16.0
PAIR = {
    "system": {"n_particles": 2, "spatial_dim": 1, "box": [16.0], "grid": [64, 64], "dt": 0.05},
    "initial_state": {"preset": "gaussian_packet", "sigma": 1.5},
    "run": {"steps": 2, "dt_pde": 0.01},
}
NO_SIDECAR = str(Path(__file__).resolve())


def _pair(**sections):
    """PAIR with whole sections replaced; None drops a section."""
    doc = json.loads(json.dumps(PAIR))
    for key, value in sections.items():
        if value is None:
            doc.pop(key)
        else:
            doc[key] = value
    return doc


def _pair_system(**fields):
    return {**PAIR["system"], **fields}


PINNED_VIOLATIONS = [
    ("unknown_keys", _pair(mystery=1, system=_pair_system(flux=1), run={**PAIR["run"], "verbose": True}),
     [("/mystery", "unknown key"), ("/system/flux", "unknown key"), ("/run/verbose", "unknown key")]),
    ("missing_sections", _pair(system=None, run=None),
     [("/system", "required section is missing"), ("/run", "required section is missing")]),
    ("sections_not_objects", _pair(system=[1], initial_state="x", shift_mode=3),
     [("/system", "must be a JSON object"), ("/initial_state", "must be a JSON object"),
      ("/shift_mode", "must be a JSON object")]),
    ("system_types", _pair(system=_pair_system(n_particles=2.0, spatial_dim=4, dt="x", hbar=0)),
     [("/system/n_particles", "must be an integer"), ("/system/spatial_dim", "must be below 4"),
      ("/system/dt", "must be a finite number"), ("/system/hbar", "must be positive")]),
    ("broadcast_negative_mass", _pair(system=_pair_system(masses=-1.0)),
     [("/system/masses/0", "must be positive"), ("/system/masses/1", "must be positive")]),
    ("list_lengths", _pair(system=_pair_system(masses=[1.0], box=[16.0, 16.0], grid=[64])),
     [("/system/masses", "must have 2 entries, got 1"), ("/system/box", "must have 1 entries, got 2"),
      ("/system/grid", "must have 2 entries, got 1")]),
    ("grid_entries", _pair(system=_pair_system(grid=[64.0, 0])),
     [("/system/grid/0", "must be a finite integer"), ("/system/grid/1", "must be positive")]),
    ("grid_budget", _pair(system=_pair_system(grid=[4096, 4096])),
     [("/system/grid", "grid has 16777216 cells, budget is 4194304")]),
    ("huge_numbers", _pair(system=_pair_system(dt=10 ** 400, box=[10 ** 400])),
     [("/system/dt", "must be a finite number"), ("/system/box/0", "must be a finite number")]),
    ("preset_and_file", _pair(initial_state={"preset": "gaussian_packet", "file": "x.csv"},
                              drift_or_potential={"preset": "free", "file": "v.json"}),
     [("/initial_state", "give either a preset or a file, not both"),
      ("/drift_or_potential", "give either a preset or a file, not both")]),
    ("file_not_a_string", _pair(initial_state={"file": 3, "sigma": 1.0}, drift_or_potential={"file": None}),
     [("/initial_state/sigma", "unknown key"), ("/initial_state/file", "must be a path string"),
      ("/drift_or_potential/file", "must be a path string")]),
    ("missing_files", _pair(initial_state={"file": "no/such/state.csv"},
                            drift_or_potential={"file": "no/such/v.json"}),
     [("/initial_state/file", "file does not exist: no/such/state.csv"),
      ("/drift_or_potential/file", "file does not exist: no/such/v.json")]),
    ("missing_sidecar", _pair(initial_state={"file": NO_SIDECAR},
                              drift_or_potential={"file": NO_SIDECAR, "k": 1.0}),
     [("/initial_state/file", "snapshot sidecar .json is missing"), ("/drift_or_potential/k", "unknown key")]),
    ("unknown_presets", _pair(initial_state={"preset": "soliton"}, drift_or_potential={"preset": "coulomb"},
                              shift_mode={"mode": "free"}),
     [("/initial_state/preset", "must be one of gaussian_packet, plane_wave, two_packet"),
      ("/drift_or_potential/preset",
       "must be one of free, harmonic_relational, smooth_harmonic_relational, harmonic_external, linear"),
      ("/shift_mode/mode", "must be one of fixed, best_match, zero_constrained")]),
    ("plane_wave_lattice_and_nyquist",
     _pair(initial_state={"preset": "plane_wave", "k": [0.3, 64 * LATTICE_16], "sigma": 1.0}),
     [("/initial_state/sigma", "unknown key"),
      ("/initial_state/k/0", "momentum must wind the box an integer number of times; "
                             "nearest lattice value is 0.39269908169872414"),
      ("/initial_state/k/1", "|momentum| must stay below half the grid Nyquist momentum 12.566370614359172")]),
    ("gaussian_fields", _pair(initial_state={"preset": "gaussian_packet", "sigma": [0.5, "x"], "boost": 0.3,
                                             "center": [1.0]}),
     [("/initial_state/center", "must have 2 entries, got 1"), ("/initial_state/sigma/1", "must be a finite number"),
      ("/initial_state/boost/0", "momentum must wind the box an integer number of times; "
                                 "nearest lattice value is 0.39269908169872414")]),
    ("broadcast_boost_nyquist", _pair(initial_state={"preset": "gaussian_packet", "sigma": 1.5,
                                                     "boost": 20 * LATTICE_16}),
     [("/initial_state/boost/0", "|momentum| must stay below half the grid Nyquist momentum 12.566370614359172")]),
    ("two_packet_zero_boost", _pair(initial_state={"preset": "two_packet", "sigma": 1.5, "boost": [0.0]}),
     [("/initial_state/boost", "two_packet needs a nonzero boost to superpose")]),
    ("two_packet_missing_boost", _pair(initial_state={"preset": "two_packet", "sigma": 1.5}),
     [("/initial_state/boost", "required value is missing")]),
    ("relational_unequal_grids", _pair(system=_pair_system(grid=[64, 32]),
                                       drift_or_potential={"preset": "harmonic_relational", "k": 0.3}),
     [("/initial_state/sigma/1", "must span at least 4 cells (2)"),
      ("/system/grid", "harmonic_relational pairs axes 0 and 1, so they need equal grids, not 64 and 32")]),
    ("relational_particles", _pair(drift_or_potential={"preset": "smooth_harmonic_relational", "k": -1,
                                                       "particles": [0, 2]}),
     [("/drift_or_potential/k", "must be non-negative"),
      ("/drift_or_potential/particles/1", "must index a particle in [0, 2)")]),
    ("relational_one_particle", _pair(system=_pair_system(n_particles=1, grid=[64]),
                                      drift_or_potential={"preset": "harmonic_relational", "k": 0.3, "extra": 1}),
     [("/drift_or_potential/extra", "unknown key"),
      ("/drift_or_potential/preset", "relational potentials need at least two particles")]),
    ("external_axis", _pair(drift_or_potential={"preset": "harmonic_external", "k": 1.0, "axis": 2,
                                                "center": "mid"}),
     [("/drift_or_potential/axis", "must be below 2"), ("/drift_or_potential/center", "must be a finite number")]),
    ("linear_coefficients", _pair(drift_or_potential={"preset": "linear", "coefficients": [1.0, 2.0, 3.0]}),
     [("/drift_or_potential/coefficients", "must have 2 entries, got 3")]),
    ("fixed_shift_values", _pair(shift_mode={"mode": "fixed", "values": [0.1, 0.2]}),
     [("/shift_mode/values", "must have 1 entries, got 2")]),
    ("best_match_values", _pair(shift_mode={"mode": "best_match", "values": [0.1], "extra": 1}),
     [("/shift_mode/extra", "unknown key"), ("/shift_mode/values", "best_match mode does not take fixed values")]),
    ("run_values", _pair(run={"steps": -1, "dt_pde": 0, "snapshot_every": 0, "seed": 2 ** 64, "ensemble_K": -3}),
     [("/run/steps", "must be at least 0"), ("/run/dt_pde", "must be positive"),
      ("/run/snapshot_every", "must be at least 1"), ("/run/ensemble_K", "must be at least 0"),
      ("/run/seed", "must be below 18446744073709551616")]),
    ("stencil_budget", _pair(run={"steps": 1, "dt_pde": 0.01, "ensemble_K": STENCIL_BUDGET // 4 + 1}),
     [("/run/ensemble_K", "each walker needs 4 stencil corners, budget is 16777216: "
                          "at most 4194304 walkers on this 2-axis grid")]),
    ("outputs_empty", _pair(outputs=""), [("/outputs", "must be a non-empty path string")]),
]


@pytest.mark.parametrize("doc, expected", [case[1:] for case in PINNED_VIOLATIONS],
                         ids=[case[0] for case in PINNED_VIOLATIONS])
def test_violation_lists_are_pinned(doc, expected):
    with pytest.raises(ConfigError) as err:
        parse(doc)
    assert err.value.violations == expected


@pytest.mark.parametrize("n_particles, spatial_dim", [(2 ** 62, 1), (10 ** 400, 1), (33, 2), (MAX_DIM + 1, 1)])
def test_configuration_dimension_rejected_before_any_list_of_its_length(n_particles, spatial_dim):
    doc = {
        "system": {"n_particles": n_particles, "spatial_dim": spatial_dim, "box": [16.0] * spatial_dim,
                   "grid": 1, "dt": 0.05},
        "initial_state": {"preset": "gaussian_packet", "sigma": 64.0},
        "run": {"steps": 1, "dt_pde": 0.01},
    }
    with pytest.raises(ConfigError) as err:
        parse(doc)
    assert err.value.violations == [("/system/n_particles", f"n_particles · spatial_dim must be at most {MAX_DIM}")]
    doc["system"].update(n_particles=MAX_DIM // spatial_dim)
    assert parse(doc).spec.dim == MAX_DIM // spatial_dim * spatial_dim


def test_deeply_nested_or_oversized_json_is_a_config_error():
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config('{"outputs": ' + "9" * 5000 + "}")
