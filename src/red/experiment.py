"""Experiment orchestration: config in, run directory out.

A run evolves the wavefunction with the split-step integrator, optionally
carries a walker ensemble through the maximum-entropy kernel of the
evolving state's own drift, and emits:

    manifest.json     resolved config, artifact version, seed
    observables.csv   one row per snapshot
    wave_NNNNNN.csv   wavefunction snapshots (real, imaginary) + sidecars
    walkers_NNNNNN.csv  walker positions, when ensemble_K > 0
    error.json        present only if the run aborted; partial outputs stay

Everything written is a pure function of (config, seed, artifact version):
reruns are byte-identical.  The `sample` entry point instead treats the
configured drift_or_potential as a prescribed drift and evolves walkers
alone, one entropic step spec.dt per step.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .errors import ConfigError, RedError, StateError
from .fields import drift_gradient_arrays, entropy
from .geometry import best_match_fit, best_match_shift, info_metric_g
from .io import ObservablesWriter, read_json, wave_from_csv, wave_to_csv, write_json
from .model import (
    Ensemble,
    ShiftVelocity,
    SystemSpec,
    check_step_bound,
    quadrature,
)
from .presets import (
    gaussian_density,
    gaussian_state,
    harmonic_external_values,
    harmonic_relational_values,
    smooth_harmonic_relational_values,
)
from .quantum import (
    Potential,
    WaveField,
    schrodinger_evolve,
    to_wavefunction,
    total_energy,
)
from .sampler import (
    STREAM_INIT,
    Drift,
    sample_from_density,
    stream,
    walker_step,
    walkers_to_csv,
)

CONSTRAINT_MOMENTUM_TOL = 1e-6
# rad per split step of the potential and of the initial wave's kinetic energy; a
# legitimate run turns under 0.2
MAX_STEP_PHASE = 1.0


def _configuration_phase(spec: SystemSpec, slope: np.ndarray) -> np.ndarray:
    """sum_A slope_A x_A on the grid, built axis by axis."""
    out = np.zeros(spec.grid_points)
    for axis in range(spec.dim):
        out = out + slope[axis] * spec.along(axis, spec.axis_coords[axis])
    return out


def build_initial_wave(config: ExperimentConfig) -> WaveField:
    """Initial wavefunction from the configured preset or snapshot file.

    A file or preset that makes no valid wave is a ConfigError at its pointer.
    """
    spec = config.spec
    choice = config.initial_state
    try:
        if "file" in choice:
            return wave_from_csv(choice["file"], spec)
        if choice["preset"] == "plane_wave":
            phase = _configuration_phase(spec, np.asarray(choice["k"]) / spec.hbar)
            values = np.exp(1j * phase) / np.sqrt(spec.volume)
            return WaveField(values, spec)
        # the per-spatial-axis boost on every particle's axes, as in ShiftVelocity.per_axis
        slope = np.tile(choice["boost"], spec.n_particles)
        if choice["preset"] == "gaussian_packet":
            state = gaussian_state(spec, center=np.asarray(choice["center"]),
                                   sigma=np.asarray(choice["sigma"]), slope=slope)
            return to_wavefunction(state)
        # two_packet: symmetric superposition of opposite boosts over one envelope
        envelope = np.sqrt(gaussian_density(spec, np.asarray(choice["center"]),
                                            np.asarray(choice["sigma"])).values)
        values = envelope * np.cos(_configuration_phase(spec, slope / spec.hbar)).astype(complex)
        norm = np.sqrt(float(np.sum(np.abs(values) ** 2)) * spec.cell_volume)
        return WaveField(values / norm, spec)
    except (RedError, OSError) as exc:
        raise ConfigError([("/initial_state/file" if "file" in choice else "/initial_state", str(exc))])


def build_potential(config: ExperimentConfig) -> Potential:
    """Grid potential for the quantum run path."""
    spec = config.spec
    choice = config.potential
    if "file" in choice:
        try:
            payload = read_json(choice["file"])
            values = np.asarray(payload["values"], dtype=float)
            relational = payload.get("relational", False)
        except (OSError, KeyError, ValueError, TypeError, OverflowError, RecursionError) as exc:
            raise ConfigError([("/drift_or_potential/file", f"unreadable potential file: {exc}")])
        if not isinstance(relational, bool):
            raise ConfigError([("/drift_or_potential/file", "`relational` must be true or false")])
        if values.shape != spec.grid_points:
            raise ConfigError([
                ("/drift_or_potential/file",
                 f"potential shape {list(values.shape)} does not match grid {list(spec.grid_points)}")
            ])
        if not np.all(np.isfinite(values)):
            raise ConfigError([("/drift_or_potential/file", "potential has non-finite entries")])
        return Potential.from_values(values, spec, relational_flag=relational)
    preset = choice["preset"]
    if preset == "free":
        return Potential.free(spec)
    if preset == "linear":
        raise ConfigError([
            ("/drift_or_potential/preset",
             "a linear drift is not a periodic potential; only the sample command accepts it")
        ])
    # k / 2 times a squared distance can overflow for numbers the parser accepts:
    # numpy's warnings are held back, and the grid's finiteness check names k, or
    # center where the squared distance overflows by itself
    with np.errstate(over="ignore", invalid="ignore"):
        if preset == "harmonic_external":
            values = harmonic_external_values(spec, choice["k"], choice["axis"], choice["center"])
        elif preset == "harmonic_relational":
            values = harmonic_relational_values(spec, choice["k"], choice["particles"])
        else:
            values = smooth_harmonic_relational_values(spec, choice["k"], choice["particles"])
    try:
        return Potential.from_values(values, spec, relational_flag=preset != "harmonic_external")
    except StateError as exc:  # a preset grid has the grid's shape, so it is not finite
        with np.errstate(over="ignore"):
            center_overflows = preset == "harmonic_external" and not np.all(
                np.isfinite((spec.axis_coords[choice["axis"]] - choice["center"]) ** 2))
        if center_overflows:
            raise ConfigError([("/drift_or_potential/center", f"{exc}: the squared distance "
                                f"from center overflows in the {preset} potential")])
        raise ConfigError([("/drift_or_potential/k", f"{exc}: k / 2 times a squared distance "
                                                     f"overflows in the {preset} potential")])


def build_drift(config: ExperimentConfig) -> Drift:
    """Prescribed drift for the sample path: none, linear, or a grid potential's."""
    choice = config.potential
    # a potential file has no preset: its drift is its grid potential's
    preset = choice.get("preset")
    if preset == "free":
        return Drift(config.spec)
    if preset == "linear":
        return Drift(config.spec, slope=choice["coefficients"])
    return Drift.of(build_potential(config).values)


def _resolve_shift(config: ExperimentConfig, wave: WaveField) -> ShiftVelocity:
    spec = config.spec
    mode = config.shift_mode["mode"]
    if mode == "fixed":
        return ShiftVelocity(np.asarray(config.shift_mode["values"]), spec)
    if mode == "zero_constrained":
        momentum, _ = wave.moments
        worst = float(np.max(np.abs(momentum)))
        if worst > CONSTRAINT_MOMENTUM_TOL:
            raise ConfigError([
                ("/shift_mode/mode",
                 f"zero_constrained needs an initial state with vanishing total momentum; "
                 f"got max |<P>| = {worst:.3e}")
            ])
        return ShiftVelocity.zero(spec)
    # best_match, recomputed every step
    return best_match_shift(wave)


def _check_step_phases(config: ExperimentConfig, wave: WaveField, potential: Potential) -> None:
    """Bound the phases one split step turns: dt_pde (max U - min U) / hbar and dt_pde <T> / hbar.

    A step past either gives meaningless numbers with no error, so it is a
    ConfigError at /run/dt_pde, before any output exists.  The spread, not
    max |U|: a constant offset is a global phase.  dt_pde max(kinetic_symbol)
    / hbar is not bounded: the step is unitary, and the Nyquist modes of a
    smooth packet hold almost no weight.  <T> / hbar comes from the moments
    the wave keeps, which the first best match and row 0 read as well.
    """
    dt_pde = config.run.dt_pde
    u = potential.values.values
    rates = (("potential phase", (float(np.max(u)) - float(np.min(u))) / config.spec.hbar),
             ("kinetic phase", wave.moments[1]))
    problems = [check_step_bound(dt_pde, bound, rate, MAX_STEP_PHASE) for bound, rate in rates]
    violations = [("/run/dt_pde", problem) for problem in problems if problem]
    if violations:
        raise ConfigError(violations)


def _initial_walkers(config: ExperimentConfig, wave: WaveField, time: float) -> Ensemble:
    """ensemble_K walkers drawn from |psi|^2 on the seed's init stream."""
    run = config.run
    positions = sample_from_density(wave.rho, run.ensemble_k, stream(run.seed, STREAM_INIT, 0))
    return Ensemble(positions, config.spec, run.seed, time, 0)


def _open_outputs(config: ExperimentConfig) -> Path:
    """Create the output directory and write the manifest into it.

    Callers build every input first, so a rejected input leaves no directory.
    """
    out = Path(config.outputs)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "manifest.json", {
        "artifact_version": __version__,
        "config": config.resolved,
        "seed": config.run.seed,
    })
    return out


def _observe(writer: ObservablesWriter, wave: WaveField, potential: Potential,
             shift: ShiftVelocity) -> None:
    spec = wave.spec
    # the wave serves the mismatch and the energy; shift is the one the step
    # that made this wave used
    momentum, _ = wave.moments
    report = info_metric_g(wave, shift)
    named = {
        "t": wave.time,
        "energy": total_energy(wave, potential, report.h0_term),
        "norm": quadrature(wave.rho),
        "entropy": entropy(wave.rho),
        "g_total": report.g_total,
        "g_constant": report.constant_term,
        "g_entropy": report.entropy_term,
        "g_h0": report.h0_term,
    }
    for a in range(spec.spatial_dim):
        named[f"momentum_{a}"] = momentum[a]
        named[f"shift_{a}"] = shift.components[a]
    writer.add(**named)


def _record_crash(out: Path, exc: Exception, time: float) -> None:
    """error.json: the error's type and message, and the time the run had reached."""
    write_json(out / "error.json", {"error": type(exc).__name__, "message": str(exc), "time": time})


def run_experiment(config: ExperimentConfig) -> Path:
    """Evolve the configured system and write the run directory.

    Any module error or failed write mid-run is recorded in error.json, next
    to the snapshots and observable rows already produced, then re-raised.
    """
    run = config.run
    wave = build_initial_wave(config)
    potential = build_potential(config)
    _check_step_phases(config, wave, potential)
    shift = _resolve_shift(config, wave)
    walkers = _initial_walkers(config, wave, wave.time) if run.ensemble_k > 0 else None
    out = _open_outputs(config)
    writer = ObservablesWriter(config.spec.spatial_dim)

    def snapshot(step: int) -> None:
        wave_to_csv(wave, out / f"wave_{step:06d}.csv")
        if walkers is not None:
            walkers_to_csv(walkers, out / f"walkers_{step:06d}.csv")
        _observe(writer, wave, potential, shift)

    best_match = config.shift_mode["mode"] == "best_match"
    # a relational potential keeps <P> through the half kick, so the step
    # matches the spectrum it transforms anyway; an external one is matched
    # at the start of the step
    match = best_match_shift if best_match and potential.relational_flag else None
    t0 = wave.time
    try:
        snapshot(0)
        for step in range(1, run.steps + 1):
            # times come from the step index: a running sum of dt_pde drifts
            time = t0 + step * run.dt_pde
            if match is not None:
                evolved, shift = schrodinger_evolve(wave, potential, None, run.dt_pde, run.dt_pde,
                                                    time, match=match)
            else:
                if best_match:
                    shift = best_match_shift(wave)
                evolved = schrodinger_evolve(wave, potential, shift, run.dt_pde, run.dt_pde, time)
            if walkers is not None:
                # the walkers move in the step's frame, by the drift of the wave they start on
                walkers = walker_step(walkers, Drift(wave.spec, drift_gradient_arrays(wave)),
                                      shift, run.dt_pde, time)
            wave = evolved
            if step % run.snapshot_every == 0:
                snapshot(step)
        writer.write(out / "observables.csv")
    except (RedError, ArithmeticError, OSError) as exc:
        # error.json first: the rows may be what failed to write
        _record_crash(out, exc, wave.time)
        writer.write(out / "observables.csv")
        raise
    return out


def sample_experiment(config: ExperimentConfig) -> Path:
    """Walker-only run: the configured drift is prescribed, not evolved.

    Each step is one entropic instant of duration spec.dt; dt_pde plays no
    role here.  Snapshots land in walkers_NNNNNN.csv.
    """
    spec = config.spec
    run = config.run
    if run.ensemble_k < 2:
        raise ConfigError([("/run/ensemble_K", "sampling needs at least two walkers")])
    if config.shift_mode["mode"] != "fixed":
        raise ConfigError([
            ("/shift_mode/mode", "sampling a prescribed drift needs a fixed shift")
        ])
    wave = build_initial_wave(config)
    drift = build_drift(config)
    shift = ShiftVelocity(np.asarray(config.shift_mode["values"]), spec)
    walkers = _initial_walkers(config, wave, 0.0)
    out = _open_outputs(config)

    try:
        walkers_to_csv(walkers, out / "walkers_000000.csv")
        for step in range(1, run.steps + 1):
            walkers = walker_step(walkers, drift, shift, spec.dt, step * spec.dt)
            if step % run.snapshot_every == 0:
                walkers_to_csv(walkers, out / f"walkers_{step:06d}.csv")
    except (RedError, ArithmeticError, OSError) as exc:
        _record_crash(out, exc, walkers.time)
        raise
    return out


def bestmatch_report(config: ExperimentConfig) -> dict:
    """Single-state best-matching query: optimum shift and the mismatch there."""
    wave = build_initial_wave(config)
    closed = best_match_shift(wave)
    numerical = best_match_fit(wave)
    report = info_metric_g(wave, closed)
    momentum, _ = wave.moments
    return {
        "best_match_shift": [float(c) for c in closed.components],
        "numerical_shift": [float(c) for c in numerical.components],
        "total_momentum": [float(p) for p in momentum],
        "total_mass": config.spec.total_mass,
        "mismatch_at_optimum": asdict(report),
    }
