"""Experiment configuration: strict JSON in, validated dataclasses out.

The parser is strict in both directions: unknown keys are rejected, and
every violation found is reported at once with a JSON-pointer path, so a
bad config never needs more than one round trip to fix.  Every default the
parser applies is materialized in the resolved dictionary that ends up in
the run manifest.

Conventions the schema fixes:
  - `boost` is a phase slope (momentum) per spatial axis, applied to every
    particle alike.  It must be a lattice momentum of the box (an integer
    number of windings) so the state has a single-valued wavefunction.
  - `plane_wave.k` is a momentum per configuration axis, also lattice.
  - sigma must span at least MIN_SIGMA_CELLS grid cells and momenta must
    stay below half the grid Nyquist momentum; beyond either limit the
    grid cannot represent the state faithfully.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .model import FLOAT_MAX, GRID_BUDGET, MAX_DIM, SystemSpec

MIN_SIGMA_CELLS = 4.0
NYQUIST_FRACTION = 0.5
LATTICE_TOL = 1e-9
MAX_SEED = 2 ** 64
# ensemble_K · 2^D: the walker step's stencil holds a weight (8 bytes) per corner, one base
# index (8 bytes) per walker, and a position and an index (16 bytes) per corner that crosses
# the periodic seam
STENCIL_BUDGET = 2 ** 24

STATE_PRESETS = ("gaussian_packet", "plane_wave", "two_packet")
POTENTIAL_PRESETS = (
    "free",
    "harmonic_relational",
    "smooth_harmonic_relational",
    "harmonic_external",
    "linear",
)
SHIFT_MODES = ("fixed", "best_match", "zero_constrained")


@dataclass(frozen=True)
class RunSettings:
    steps: int
    dt_pde: float
    snapshot_every: int
    ensemble_k: int
    seed: int


@dataclass(frozen=True)
class ExperimentConfig:
    spec: SystemSpec
    # the resolved sections themselves, as resolved and the manifest hold them
    initial_state: dict
    potential: dict
    shift_mode: dict
    run: RunSettings
    outputs: str
    resolved: dict


def _is_number(value) -> bool:
    # a comparison, not isfinite: it also rejects JSON integers too large for a float
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= FLOAT_MAX


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class _Collector:
    """Accumulates (pointer, message) pairs for one exhaustive report."""

    def __init__(self):
        self.violations = []

    def add(self, pointer: str, message: str) -> None:
        self.violations.append((pointer, message))

    def section(self, doc: dict, key: str, pointer: str, required: bool, default=None):
        if key not in doc:
            if required:
                self.add(f"{pointer}{key}", "required section is missing")
                return None
            return default
        value = doc[key]
        if not isinstance(value, dict):
            self.add(f"{pointer}{key}", "must be a JSON object")
            return None
        return value

    def reject_unknown(self, section: dict, allowed, pointer: str) -> None:
        for key in section:
            if key not in allowed:
                self.add(f"{pointer}/{key}", "unknown key")

    def _lookup(self, section: dict, key: str, pointer: str, required: bool, default):
        """(pointer, value) of a present key; (None, default) of a missing one, a violation if required."""
        if key in section:
            return f"{pointer}/{key}", section[key]
        if required:
            self.add(f"{pointer}/{key}", "required value is missing")
            return None, None
        return None, default

    def number(self, section: dict, key: str, pointer: str, required=True, default=None,
               positive=False, nonnegative=False):
        at, value = self._lookup(section, key, pointer, required, default)
        if at is None:
            return value
        problem = _number_problem(value, positive, nonnegative)
        if problem:
            self.add(at, problem)
            return None
        return float(value)

    def integer(self, section: dict, key: str, pointer: str, required=True, default=None,
                minimum=None, maximum=None):
        at, value = self._lookup(section, key, pointer, required, default)
        if at is None:
            return value
        if not _is_int(value):
            self.add(at, "must be an integer")
        elif minimum is not None and value < minimum:
            self.add(at, f"must be at least {minimum}")
        elif maximum is not None and value >= maximum:
            self.add(at, f"must be below {maximum}")
        else:
            return int(value)
        return None

    def number_list(self, section: dict, key: str, pointer: str, length: int,
                    required=True, default=None, positive=False, integers=False):
        """A list of `length` numbers; a bare scalar broadcasts."""
        at, value = self._lookup(section, key, pointer, required, default)
        if at is None:
            return value
        if _is_number(value) if not integers else _is_int(value):
            value = [value] * length
        if not isinstance(value, list):
            self.add(at, f"must be a number or a list of {length} numbers")
            return None
        if len(value) != length:
            self.add(at, f"must have {length} entries, got {len(value)}")
            return None
        bad = [(f"{at}/{i}", problem) for i, entry in enumerate(value)
               if (problem := _number_problem(entry, positive, integers=integers))]
        self.violations += bad
        if bad:
            return None
        return [int(entry) if integers else float(entry) for entry in value]


def _number_problem(value, positive=False, nonnegative=False, integers=False) -> str:
    """What is wrong with one number, or "" when it is fine."""
    if not (_is_int(value) if integers else _is_number(value)):
        return "must be a finite integer" if integers else "must be a finite number"
    if positive and not value > 0:
        return "must be positive"
    if nonnegative and value < 0:
        return "must be non-negative"
    return ""


def _parse_system(collect: _Collector, doc: dict) -> dict:
    section = collect.section(doc, "system", "/", required=True)
    if section is None:
        return None
    allowed = {"n_particles", "spatial_dim", "masses", "box", "grid", "dt", "hbar"}
    collect.reject_unknown(section, allowed, "/system")
    n = collect.integer(section, "n_particles", "/system", minimum=1)
    d = collect.integer(section, "spatial_dim", "/system", minimum=1, maximum=4)
    dt = collect.number(section, "dt", "/system", positive=True)
    hbar = collect.number(section, "hbar", "/system", required=False, default=1.0, positive=True)
    if n is None or d is None:
        return None
    if n * d > MAX_DIM:
        # checked before any list of length n exists
        collect.add("/system/n_particles", f"n_particles · spatial_dim must be at most {MAX_DIM}")
        return None
    masses = collect.number_list(section, "masses", "/system", n,
                                 required=False, default=[1.0] * n, positive=True)
    box = collect.number_list(section, "box", "/system", d, positive=True)
    grid = collect.number_list(section, "grid", "/system", n * d, positive=True, integers=True)
    if None in (dt, hbar, masses, box, grid):
        return None
    if math.prod(grid) > GRID_BUDGET:
        collect.add("/system/grid", f"grid has {math.prod(grid)} cells, budget is {GRID_BUDGET}")
        return None
    return {
        "n_particles": n, "spatial_dim": d, "masses": masses,
        "box": box, "grid": grid, "dt": dt, "hbar": hbar,
    }


def _momentum_check(collect: _Collector, momentum: float, box: float, cells: int, hbar: float,
                    pointer: str) -> None:
    """A momentum must wind the box a whole number of times and stay below half the grid Nyquist momentum."""
    winding = momentum * box / (2.0 * math.pi * hbar)
    if not math.isfinite(winding):
        collect.add(pointer, "momentum winds the box more times than a float can count")
    elif abs(winding - round(winding)) > LATTICE_TOL:
        nearest = round(winding) * 2.0 * math.pi * hbar / box
        collect.add(pointer, f"momentum must wind the box an integer number of times; nearest lattice value is {nearest:.17g}")
    limit = NYQUIST_FRACTION * math.pi * hbar * cells / box
    if abs(momentum) >= limit:
        collect.add(pointer, f"|momentum| must stay below half the grid Nyquist momentum {2 * limit:.17g}")


def _preset_or_file(collect: _Collector, section: dict, pointer: str, presets, sidecar=False) -> dict:
    """{"file": path} of an existing file, {"preset": name} of a known preset, or None after a violation."""
    if "preset" in section and "file" in section:
        collect.add(pointer, "give either a preset or a file, not both")
        return None
    if "file" not in section:
        if section.get("preset") in presets:
            return {"preset": section["preset"]}
        collect.add(f"{pointer}/preset", f"must be one of {', '.join(presets)}")
        return None
    collect.reject_unknown(section, {"file"}, pointer)
    path = section["file"]
    if not isinstance(path, str):
        collect.add(f"{pointer}/file", "must be a path string")
    elif not Path(path).is_file():
        collect.add(f"{pointer}/file", f"file does not exist: {path}")
    elif sidecar and not Path(path).with_suffix(".json").is_file():
        collect.add(f"{pointer}/file", "snapshot sidecar .json is missing")
    else:
        return {"file": path}
    return None


def _parse_initial_state(collect: _Collector, doc: dict, system: dict) -> dict:
    section = collect.section(doc, "initial_state", "/", required=True)
    if section is None:
        return None
    choice = _preset_or_file(collect, section, "/initial_state", STATE_PRESETS, sidecar=True)
    if choice is None or "file" in choice:
        return choice
    if system is None:
        return None
    preset = choice["preset"]
    n, d = system["n_particles"], system["spatial_dim"]
    dim = n * d
    hbar = system["hbar"]
    axis_box = [system["box"][a % d] for a in range(dim)]
    axis_cells = system["grid"]

    if preset == "plane_wave":
        collect.reject_unknown(section, {"preset", "k"}, "/initial_state")
        k = collect.number_list(section, "k", "/initial_state", dim)
        if k is None:
            return None
        for axis in range(dim):
            _momentum_check(collect, k[axis], axis_box[axis], axis_cells[axis], hbar, f"/initial_state/k/{axis}")
        return {"preset": preset, "k": k}

    allowed = {"preset", "center", "sigma", "boost"}
    collect.reject_unknown(section, allowed, "/initial_state")
    default_center = [axis_box[a] / 2.0 for a in range(dim)]
    center = collect.number_list(section, "center", "/initial_state", dim,
                                 required=False, default=default_center)
    sigma = collect.number_list(section, "sigma", "/initial_state", dim, positive=True)
    boost_required = preset == "two_packet"
    boost = collect.number_list(section, "boost", "/initial_state", d,
                                required=boost_required, default=[0.0] * d)
    if sigma is not None:
        for axis in range(dim):
            cell = axis_box[axis] / axis_cells[axis]
            if sigma[axis] < MIN_SIGMA_CELLS * cell:
                collect.add(f"/initial_state/sigma/{axis}",
                            f"must span at least {MIN_SIGMA_CELLS:g} cells ({MIN_SIGMA_CELLS * cell:.17g})")
    if boost is not None:
        for a in range(d):
            _momentum_check(collect, boost[a], system["box"][a], min(axis_cells[a::d]), hbar,
                            f"/initial_state/boost/{a}")
        if boost_required and all(b == 0.0 for b in boost):
            collect.add("/initial_state/boost", "two_packet needs a nonzero boost to superpose")
    if None in (center, sigma, boost):
        return None
    return {"preset": preset, "center": center, "sigma": sigma, "boost": boost}


def _parse_potential(collect: _Collector, doc: dict, system: dict) -> dict:
    section = collect.section(doc, "drift_or_potential", "/", required=False,
                              default={"preset": "free"})
    if section is None:
        return None
    choice = _preset_or_file(collect, section, "/drift_or_potential", POTENTIAL_PRESETS)
    if choice is None or "file" in choice:
        return choice
    if system is None:
        return None
    preset = choice["preset"]
    n, d = system["n_particles"], system["spatial_dim"]

    if preset == "free":
        collect.reject_unknown(section, {"preset"}, "/drift_or_potential")
        return {"preset": preset}
    if preset == "linear":
        collect.reject_unknown(section, {"preset", "coefficients"}, "/drift_or_potential")
        coefficients = collect.number_list(section, "coefficients", "/drift_or_potential", n * d)
        if coefficients is None:
            return None
        return {"preset": preset, "coefficients": coefficients}
    if preset in ("harmonic_relational", "smooth_harmonic_relational"):
        collect.reject_unknown(section, {"preset", "k", "particles"}, "/drift_or_potential")
        k = collect.number(section, "k", "/drift_or_potential", nonnegative=True)
        particles = collect.number_list(section, "particles", "/drift_or_potential", 2,
                                        required=False, default=[0, 1], integers=True)
        if n < 2:
            collect.add("/drift_or_potential/preset", "relational potentials need at least two particles")
            return None
        if particles is not None:
            for i, p in enumerate(particles):
                if not 0 <= p < n:
                    collect.add(f"/drift_or_potential/particles/{i}", f"must index a particle in [0, {n})")
                    particles = None
                    break
            if particles is not None and particles[0] == particles[1]:
                collect.add("/drift_or_potential/particles", "must name two distinct particles")
                particles = None
        if k is None or particles is None:
            return None
        grid = system["grid"]
        for a in range(d):
            first, second = (p * d + a for p in particles)
            if grid[first] != grid[second]:
                collect.add("/system/grid", f"{preset} pairs axes {first} and {second}, "
                                            f"so they need equal grids, not {grid[first]} and {grid[second]}")
        return {"preset": preset, "k": k, "particles": particles}
    # harmonic_external
    collect.reject_unknown(section, {"preset", "k", "axis", "center"}, "/drift_or_potential")
    k = collect.number(section, "k", "/drift_or_potential", nonnegative=True)
    axis = collect.integer(section, "axis", "/drift_or_potential", required=False,
                           default=0, minimum=0, maximum=n * d)
    # the default center needs a valid axis; a given center is checked either way
    default_center = None if axis is None else system["box"][axis % d] / 2.0
    center = collect.number(section, "center", "/drift_or_potential", required=False,
                            default=default_center)
    if None in (k, axis, center):
        return None
    return {"preset": preset, "k": k, "axis": axis, "center": center}


def _parse_shift_mode(collect: _Collector, doc: dict, system: dict) -> dict:
    d = None if system is None else system["spatial_dim"]
    default = None if d is None else {"mode": "fixed", "values": [0.0] * d}
    section = collect.section(doc, "shift_mode", "/", required=False, default=default)
    if section is None or section is default:
        return default
    mode = section.get("mode")
    if mode not in SHIFT_MODES:
        collect.add("/shift_mode/mode", f"must be one of {', '.join(SHIFT_MODES)}")
        return None
    if mode == "fixed":
        collect.reject_unknown(section, {"mode", "values"}, "/shift_mode")
        if d is None:
            return None
        values = collect.number_list(section, "values", "/shift_mode", d)
        if values is None:
            return None
        return {"mode": mode, "values": values}
    collect.reject_unknown(section, {"mode", "values"}, "/shift_mode")
    if "values" in section:
        collect.add("/shift_mode/values", f"{mode} mode does not take fixed values")
        return None
    return {"mode": mode}


def _parse_run(collect: _Collector, doc: dict, system: dict) -> dict:
    section = collect.section(doc, "run", "/", required=True)
    if section is None:
        return None
    allowed = {"steps", "dt_pde", "snapshot_every", "ensemble_K", "seed"}
    collect.reject_unknown(section, allowed, "/run")
    steps = collect.integer(section, "steps", "/run", minimum=0)
    dt_pde = collect.number(section, "dt_pde", "/run", positive=True)
    snapshot_every = collect.integer(section, "snapshot_every", "/run", required=False,
                                     default=1, minimum=1)
    ensemble_k = collect.integer(section, "ensemble_K", "/run", required=False,
                                 default=0, minimum=0)
    seed = collect.integer(section, "seed", "/run", required=False, default=0,
                           minimum=0, maximum=MAX_SEED)
    if ensemble_k is not None and system is not None:
        corners = 2 ** len(system["grid"])
        if ensemble_k * corners > STENCIL_BUDGET:
            # no walker count in the message: a JSON integer may have thousands of digits
            collect.add("/run/ensemble_K", f"each walker needs {corners} stencil corners, budget is "
                                           f"{STENCIL_BUDGET}: at most {STENCIL_BUDGET // corners} "
                                           f"walkers on this {len(system['grid'])}-axis grid")
            ensemble_k = None
    if None in (steps, dt_pde, snapshot_every, ensemble_k, seed):
        return None
    return {
        "steps": steps, "dt_pde": dt_pde, "snapshot_every": snapshot_every,
        "ensemble_K": ensemble_k, "seed": seed,
    }


def parse_config(text: str, seed: int = None, outputs: str = None) -> ExperimentConfig:
    """Parse and validate a JSON experiment config.

    Raises ConfigError carrying every violation found, each tagged with a
    JSON-pointer path.  On success the returned config's `resolved` dict
    spells out every applied default.  A given seed or outputs replaces the
    document's /run/seed or /outputs before validation, so the same checks
    judge them.
    """
    collect = _Collector()
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: bad syntax, or an integer past str's digit limit
        raise ConfigError([("/", f"not valid JSON: {exc}")])
    if not isinstance(doc, dict):
        raise ConfigError([("/", "top level must be a JSON object")])
    if seed is not None and isinstance(doc.get("run"), dict):
        doc["run"]["seed"] = seed
    if outputs is not None:
        doc["outputs"] = outputs

    known = {"system", "initial_state", "drift_or_potential", "shift_mode", "run", "outputs"}
    for key in doc:
        if key not in known:
            collect.add(f"/{key}", "unknown key")

    system = _parse_system(collect, doc)
    initial = _parse_initial_state(collect, doc, system)
    potential = _parse_potential(collect, doc, system)
    shift = _parse_shift_mode(collect, doc, system)
    run = _parse_run(collect, doc, system)

    outputs = doc.get("outputs", "out")
    if not isinstance(outputs, str) or not outputs:
        collect.add("/outputs", "must be a non-empty path string")
        outputs = None

    if collect.violations:
        raise ConfigError(collect.violations)

    return ExperimentConfig(
        spec=SystemSpec(system["n_particles"], system["spatial_dim"], system["masses"], system["box"],
                        system["grid"], system["dt"], system["hbar"]),
        initial_state=initial,
        potential=potential,
        shift_mode=shift,
        # the resolved key ensemble_K is the field ensemble_k
        run=RunSettings(**{key.lower(): value for key, value in run.items()}),
        outputs=outputs,
        resolved={
            "system": system,
            "initial_state": initial,
            "drift_or_potential": potential,
            "shift_mode": shift,
            "run": run,
            "outputs": outputs,
        },
    )


def load_config(path, seed: int = None, outputs: str = None) -> ExperimentConfig:
    """parse_config of the file at path, with the same seed and outputs overrides."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError([("/", f"cannot read config file: {err}")]) from err
    return parse_config(text, seed, outputs)
