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

import os
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .errors import ConfigError, RedError
from .fields import PHASE_DEAD_RELATIVE, entropy
from .geometry import best_match_shift, info_metric_g, total_momentum
from .io import ObservablesWriter, wave_from_csv, wave_to_csv, write_json
from .model import (
    Ensemble,
    ScalarField,
    ShiftVelocity,
    SystemSpec,
    gradient_arrays,
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
    expected_momentum,
    from_wavefunction,
    schrodinger_evolve,
    to_wavefunction,
    total_energy,
)
from .sampler import (
    STREAM_INIT,
    GridDrift,
    as_drift,
    linear_drift,
    sample_from_density,
    stream,
    walker_step,
    walkers_to_csv,
)

CONSTRAINT_MOMENTUM_TOL = 1e-6


def _boost_slope(spec: SystemSpec, boost) -> np.ndarray:
    """Per-configuration-axis phase slope from a per-spatial-axis boost."""
    boost = np.asarray(boost, dtype=float)
    return np.array([boost[spec.spatial_of_axis(a)] for a in range(spec.dim)])


def _configuration_phase(spec: SystemSpec, slope: np.ndarray) -> np.ndarray:
    """sum_A slope_A x_A on the grid, built axis by axis."""
    out = np.zeros(spec.grid_points)
    for axis in range(spec.dim):
        out = out + slope[axis] * spec.along(axis, spec.axis_coords[axis])
    return out


def build_initial_wave(config: ExperimentConfig) -> WaveField:
    """Initial wavefunction from the configured preset or snapshot file."""
    spec = config.spec
    choice = config.initial_state
    if choice.file is not None:
        try:
            return wave_from_csv(choice.file, spec)
        except RedError as exc:
            raise ConfigError([("/initial_state/file", str(exc))])
    if choice.preset == "plane_wave":
        phase = _configuration_phase(spec, np.asarray(choice.k) / spec.hbar)
        values = np.exp(1j * phase) / np.sqrt(spec.volume)
        return WaveField(values, spec)
    slope = _boost_slope(spec, choice.boost)
    if choice.preset == "gaussian_packet":
        state = gaussian_state(spec, center=np.asarray(choice.center),
                               sigma=np.asarray(choice.sigma), slope=slope)
        return to_wavefunction(state)
    # two_packet: symmetric superposition of opposite boosts over one envelope
    envelope = np.sqrt(gaussian_density(spec, np.asarray(choice.center),
                                        np.asarray(choice.sigma)).values)
    values = envelope * np.cos(_configuration_phase(spec, slope / spec.hbar)).astype(complex)
    norm = np.sqrt(float(np.sum(np.abs(values) ** 2)) * spec.cell_volume)
    return WaveField(values / norm, spec)


def build_potential(config: ExperimentConfig) -> Potential:
    """Grid potential for the quantum run path."""
    spec = config.spec
    choice = config.potential
    if choice.file is not None:
        from .io import read_json

        try:
            payload = read_json(choice.file)
            values = np.asarray(payload["values"], dtype=float)
            relational = bool(payload.get("relational", False))
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError([("/drift_or_potential/file", f"unreadable potential file: {exc}")])
        if values.shape != spec.grid_points:
            raise ConfigError([
                ("/drift_or_potential/file",
                 f"potential shape {list(values.shape)} does not match grid {list(spec.grid_points)}")
            ])
        if not np.all(np.isfinite(values)):
            raise ConfigError([("/drift_or_potential/file", "potential has non-finite entries")])
        return Potential.from_values(values, spec, relational_flag=relational)
    if choice.preset == "free":
        return Potential.free(spec)
    if choice.preset == "harmonic_relational":
        values = harmonic_relational_values(spec, choice.k, choice.particles)
        return Potential.from_values(values, spec, relational_flag=True)
    if choice.preset == "smooth_harmonic_relational":
        values = smooth_harmonic_relational_values(spec, choice.k, choice.particles)
        return Potential.from_values(values, spec, relational_flag=True)
    if choice.preset == "harmonic_external":
        values = harmonic_external_values(spec, choice.k, choice.axis, choice.center)
        return Potential.from_values(values, spec, relational_flag=False)
    raise ConfigError([
        ("/drift_or_potential/preset",
         "a linear drift is not a periodic potential; only the sample command accepts it")
    ])


def build_drift(config: ExperimentConfig):
    """Prescribed drift for the sample path; None means pure diffusion."""
    choice = config.potential
    if choice.preset == "free":
        return None
    if choice.preset == "linear":
        return linear_drift(choice.coefficients)
    return as_drift(ScalarField(build_potential(config).values.values, config.spec))


def _wave_drift(wave: WaveField) -> GridDrift:
    """Drift-potential gradient of a wavefunction on the grid.

    grad(phi) = [Im + Re](conj(psi) grad psi) / |psi|^2 combines the phase
    and osmotic parts in one expression with no logarithm; dead cells get
    gradient zero.
    """
    spec = wave.spec
    psi = wave.values
    rho = np.abs(psi) ** 2
    alive = rho > PHASE_DEAD_RELATIVE * float(np.max(rho))
    safe_rho = np.where(alive, rho, 1.0)
    grads = gradient_arrays(psi, spec)
    return GridDrift(spec, [
        np.where(alive, (np.imag(product) + np.real(product)) / safe_rho, 0.0)
        for product in (np.conj(psi) * g for g in grads)
    ])


def _resolve_shift(config: ExperimentConfig, wave: WaveField) -> ShiftVelocity:
    spec = config.spec
    mode = config.shift_mode.mode
    if mode == "fixed":
        return ShiftVelocity(np.asarray(config.shift_mode.values), spec)
    if mode == "zero_constrained":
        momentum = expected_momentum(wave)
        worst = float(np.max(np.abs(momentum)))
        if worst > CONSTRAINT_MOMENTUM_TOL:
            raise ConfigError([
                ("/shift_mode/mode",
                 f"zero_constrained needs an initial state with vanishing total momentum; "
                 f"got max |<P>| = {worst:.3e}")
            ])
        return ShiftVelocity.zero(spec)
    # best_match, recomputed every step
    return best_match_shift(wave.state)


def _open_outputs(config: ExperimentConfig) -> Path:
    """Create the output directory and write the manifest into it."""
    out = Path(config.outputs)
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "manifest.json", {
            "artifact_version": __version__,
            "config": config.resolved,
            "seed": config.run.seed,
            "red_threads": os.environ.get("RED_THREADS", "0"),
        })
    except OSError as exc:
        raise ConfigError([("/outputs", f"cannot write the output directory: {exc}")]) from exc
    return out


def _observe(writer: ObservablesWriter, wave: WaveField, potential: Potential,
             shift: ShiftVelocity) -> None:
    spec = wave.spec
    # one state per snapshot: its phase gradients serve the mismatch and the
    # energy alike, and the next step's best match reuses it
    state = wave.state
    momentum = expected_momentum(wave)
    report = info_metric_g(state, shift)
    named = {
        "t": wave.time,
        "energy": total_energy(wave, potential, shift),
        "norm": quadrature(state.rho),
        "entropy": entropy(state.rho),
        "g_total": report.g_total,
        "g_constant": report.constant_term,
        "g_entropy": report.entropy_term,
        "g_h0": report.h0_term,
    }
    for a in range(spec.spatial_dim):
        named[f"momentum_{a}"] = momentum[a]
        named[f"shift_{a}"] = shift.components[a]
    writer.add(**named)


def run_experiment(config: ExperimentConfig) -> Path:
    """Evolve the configured system and write the run directory.

    Any module error mid-run is recorded in error.json next to whatever
    snapshots and observable rows were already produced, then re-raised.
    """
    spec = config.spec
    run = config.run
    out = _open_outputs(config)

    writer = ObservablesWriter(spec.spatial_dim)
    wave = build_initial_wave(config)
    potential = build_potential(config)
    shift = _resolve_shift(config, wave)

    walkers = None
    if run.ensemble_k > 0:
        rho0 = ScalarField(np.abs(wave.values) ** 2, spec)
        positions = sample_from_density(rho0, run.ensemble_k,
                                        stream(run.seed, STREAM_INIT, 0))
        walkers = Ensemble(positions, spec, run.seed, wave.time, 0)

    def snapshot(step: int) -> None:
        wave_to_csv(wave, out / f"wave_{step:06d}.csv")
        if walkers is not None:
            walkers_to_csv(walkers, out / f"walkers_{step:06d}.csv")
        _observe(writer, wave, potential, shift)

    t0 = wave.time
    try:
        snapshot(0)
        for step in range(1, run.steps + 1):
            # times come from the step index: a running sum of dt_pde drifts
            time = t0 + step * run.dt_pde
            if config.shift_mode.mode == "best_match":
                shift = best_match_shift(wave.state)
            if walkers is not None:
                walkers = walker_step(walkers, _wave_drift(wave), shift, run.dt_pde, time)
            wave = schrodinger_evolve(wave, potential, shift, run.dt_pde, run.dt_pde)
            wave = replace(wave, time=time)
            if step % run.snapshot_every == 0:
                snapshot(step)
    except RedError as exc:
        writer.write(out / "observables.csv")
        write_json(out / "error.json", {
            "error": type(exc).__name__,
            "message": str(exc),
            "time": wave.time,
        })
        raise
    writer.write(out / "observables.csv")
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
    if config.shift_mode.mode != "fixed":
        raise ConfigError([
            ("/shift_mode/mode", "sampling a prescribed drift needs a fixed shift")
        ])
    out = _open_outputs(config)

    wave = build_initial_wave(config)
    rho0 = ScalarField(np.abs(wave.values) ** 2, spec)
    drift = build_drift(config)
    shift = ShiftVelocity(np.asarray(config.shift_mode.values), spec)
    positions = sample_from_density(rho0, run.ensemble_k, stream(run.seed, STREAM_INIT, 0))
    walkers = Ensemble(positions, spec, run.seed, 0.0, 0)

    try:
        walkers_to_csv(walkers, out / "walkers_000000.csv")
        for step in range(1, run.steps + 1):
            walkers = walker_step(walkers, drift, shift, spec.dt, step * spec.dt)
            if step % run.snapshot_every == 0:
                walkers_to_csv(walkers, out / f"walkers_{step:06d}.csv")
    except RedError as exc:
        write_json(out / "error.json", {
            "error": type(exc).__name__,
            "message": str(exc),
            "time": walkers.time,
        })
        raise
    return out


def bestmatch_report(config: ExperimentConfig) -> dict:
    """Single-state best-matching query: optimum shift and the mismatch there."""
    wave = build_initial_wave(config)
    state = from_wavefunction(wave)
    closed = best_match_shift(state, mode="closed_form")
    numerical = best_match_shift(state, mode="numerical")
    report = info_metric_g(state, closed)
    momentum = total_momentum(state)
    return {
        "best_match_shift": [float(c) for c in closed.components],
        "numerical_shift": [float(c) for c in numerical.components],
        "total_momentum": [float(p) for p in momentum],
        "total_mass": config.spec.total_mass,
        "mismatch_at_optimum": report.as_dict(),
    }
