"""The `red run` step: mode-space best matching, split-step factors, cached state, and the loop."""

import json

import numpy as np
import pytest

from red.config import parse_config
from red.experiment import (
    build_drift,
    build_initial_wave,
    build_potential,
    run_experiment,
    sample_experiment,
)
from red.fields import PHASE_DEAD_RELATIVE, entropy, phase_gradient_arrays
from red.geometry import best_match_shift, info_metric_g, total_momentum
from red.io import read_observables
from red.model import (
    Ensemble,
    EpistemicState,
    ScalarField,
    ShiftVelocity,
    SystemSpec,
    gradient_arrays,
    interpolate,
    wrap_array,
)
from red.presets import gaussian_state
from red.quantum import (
    Potential,
    WaveField,
    from_wavefunction,
    kinetic_factor,
    kinetic_symbol,
    schrodinger_evolve,
    to_wavefunction,
)
from red.sampler import (
    STREAM_INIT,
    STREAM_WALK,
    as_drift,
    evolve_ensemble,
    kernel_moments,
    sample_from_density,
    stream,
    walkers_from_csv,
)


def gradient_form_momentum(state):
    """int rho d_A Phi per spatial axis through the real-space phase gradient."""
    spec = state.spec
    out = np.zeros(spec.spatial_dim)
    for axis, grad in enumerate(phase_gradient_arrays(state)):
        out[spec.spatial_of_axis(axis)] += float(np.sum(state.rho.values * grad)) * spec.cell_volume
    return out


def narrow_wave(grid, box=16.0, sigma=0.8):
    """A boosted narrow packet whose far tails underflow below the dead-cell threshold."""
    dim = len(grid)
    spec = SystemSpec(dim, 1, tuple(1.0 + 0.5 * n for n in range(dim)), (box,), grid, dt=0.05)
    slope = np.array([2.0 * np.pi * (n + 1) / box for n in range(dim)])
    state = gaussian_state(spec, center=np.full(dim, 0.45 * box), sigma=np.full(dim, sigma),
                           slope=slope)
    return to_wavefunction(state)


@pytest.mark.parametrize("grid", [(32,), (33,), (32, 32), (31, 33), (32, 31)])
def test_mode_space_momentum_matches_gradient_form(grid):
    state = from_wavefunction(narrow_wave(grid))
    rho = state.rho.values
    # the packet's tails are dead cells: the alive mask really cuts something
    assert np.any(rho <= 1e-15 * float(np.max(rho)))
    got = total_momentum(state)
    want = gradient_form_momentum(state)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))


@pytest.mark.parametrize("grid", [(32, 32), (31, 33)])
def test_mode_space_momentum_keeps_the_slope_term(grid):
    wrapped = from_wavefunction(narrow_wave(grid))
    slope = np.array([0.37, -1.25])
    state = EpistemicState(wrapped.rho, wrapped.phase, slope, phase_wrapped=True)
    got = total_momentum(state)
    want = gradient_form_momentum(state)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))


@pytest.mark.parametrize("components", [[0.3, -1.1], [0.0, 2.7]])
def test_kinetic_factor_matches_full_grid_exponential(components):
    spec = SystemSpec(2, 2, (1.0, 2.5), (7.0, 9.0), (6, 7, 5, 8), dt=0.05, hbar=0.7)
    shift = ShiftVelocity(np.array(components), spec)
    dt_pde = 0.013
    want = np.exp(-1j * dt_pde * kinetic_symbol(spec, shift) / spec.hbar)
    _, rest = Potential.free(spec).split_factors(dt_pde)
    got = kinetic_factor(spec, shift, dt_pde, rest)
    assert got.shape == spec.grid_points
    assert np.max(np.abs(got - want)) <= 1e-14


def test_zero_shift_kinetic_factor_is_the_full_grid_exponential():
    spec = SystemSpec(2, 1, (1.0, 1.5), (16.0,), (16, 17), dt=0.05)
    zero = ShiftVelocity.zero(spec)
    want = np.exp(-1j * 0.01 * kinetic_symbol(spec, zero) / spec.hbar)
    _, rest = Potential.free(spec).split_factors(0.01)
    assert np.array_equal(rest, want)
    assert kinetic_factor(spec, zero, 0.01, rest) is rest


def test_split_factors_are_kept_per_dt():
    spec = SystemSpec(1, 1, (1.0,), (8.0,), (16,), dt=0.05, hbar=0.9)
    potential = Potential.from_values(np.linspace(0.0, 3.0, 16), spec)
    half, rest = potential.split_factors(0.01)
    again = potential.split_factors(0.01)
    assert again[0] is half and again[1] is rest
    assert not half.flags.writeable and not rest.flags.writeable
    assert np.array_equal(half, np.exp(-0.5j * 0.01 * potential.values.values / spec.hbar))
    zero = ShiftVelocity.zero(spec)
    assert np.array_equal(rest, np.exp(-1j * 0.01 * kinetic_symbol(spec, zero) / spec.hbar))
    half, _ = potential.split_factors(0.02)
    assert np.array_equal(half, np.exp(-0.5j * 0.02 * potential.values.values / spec.hbar))


def test_wave_state_and_phase_gradients_are_cached_read_only():
    wave = narrow_wave((16, 16), sigma=1.5)
    state = wave.state
    assert wave.state is state
    assert not state.rho.values.flags.writeable
    assert not state.phase.values.flags.writeable
    fresh = from_wavefunction(wave)
    assert np.array_equal(state.rho.values, fresh.rho.values)
    assert np.array_equal(state.phase.values, fresh.phase.values)
    grads = state.phase_gradients
    assert state.phase_gradients is grads
    for got, want in zip(grads, phase_gradient_arrays(fresh)):
        assert not got.flags.writeable
        assert np.array_equal(got, want)
    roots = state.root_gradients
    assert state.root_gradients is roots
    for got, want in zip(roots, gradient_arrays(np.sqrt(fresh.rho.values), wave.spec)):
        assert not got.flags.writeable
        assert np.array_equal(got, want)


# ---------------------------------------------------------------- frozen loop


def frozen_split_step(values, potential, shift, dt_pde):
    """One Strang step with both multipliers built as full-grid exponentials."""
    spec = potential.spec
    half = np.exp(-0.5j * dt_pde * potential.values.values / spec.hbar)
    kinetic = np.exp(-1j * dt_pde * kinetic_symbol(spec, shift) / spec.hbar)
    values = values * half
    values = np.fft.ifftn(kinetic * np.fft.fftn(values))
    return values * half


def frozen_expected_momentum(values, spec):
    spectrum = np.abs(np.fft.fftn(values)) ** 2
    weight = float(np.sum(spectrum))
    out = np.zeros(spec.spatial_dim)
    for axis in range(spec.dim):
        k = spec.along(axis, spec.derivative_wavenumbers[axis])
        out[spec.spatial_of_axis(axis)] += spec.hbar * float(np.sum(k * spectrum)) / weight
    return out


def frozen_row(wave, potential, shift):
    """The observables row from fresh (uncached) states, one per quantity as before."""
    spec = wave.spec
    report = info_metric_g(from_wavefunction(wave), shift)
    rho = np.abs(wave.values) ** 2
    energy = report.h0_term + float(np.sum(potential.values.values * rho)) * spec.cell_volume
    row = {
        "t": wave.time,
        "energy": energy,
        "norm": float(np.sum(rho) * spec.cell_volume),
        "entropy": entropy(ScalarField(rho, spec)),
        "g_total": report.g_total,
        "g_constant": report.constant_term,
        "g_entropy": report.entropy_term,
        "g_h0": report.h0_term,
    }
    momentum = frozen_expected_momentum(wave.values, spec)
    for a in range(spec.spatial_dim):
        row[f"momentum_{a}"] = momentum[a]
        row[f"shift_{a}"] = shift.components[a]
    return row


def frozen_run(config):
    """The run loop before mode-space best matching and factor caching, observables only."""
    spec = config.spec
    run = config.run
    wave = build_initial_wave(config)
    potential = build_potential(config)

    def best_match(wave):
        return ShiftVelocity(gradient_form_momentum(from_wavefunction(wave)) / spec.total_mass, spec)

    t0 = wave.time
    shift = best_match(wave)
    rows = [frozen_row(wave, potential, shift)]
    for step in range(1, run.steps + 1):
        shift = best_match(wave)
        values = frozen_split_step(wave.values, potential, shift, run.dt_pde)
        wave = WaveField(values, spec, t0 + step * run.dt_pde)
        if step % run.snapshot_every == 0:
            rows.append(frozen_row(wave, potential, shift))
    return rows


def test_run_observables_match_frozen_loop(tmp_path):
    boost = 2.0 * np.pi * 2 / 16.0
    doc = {
        "system": {"n_particles": 2, "spatial_dim": 1, "masses": [1.0, 1.5], "box": [16.0],
                   "grid": [48, 48], "dt": 0.05},
        "initial_state": {"preset": "gaussian_packet", "center": [7.0, 9.0], "sigma": [1.6, 1.9],
                          "boost": [boost]},
        "drift_or_potential": {"preset": "smooth_harmonic_relational", "k": 0.4},
        "shift_mode": {"mode": "best_match"},
        "run": {"steps": 12, "dt_pde": 0.01, "snapshot_every": 4, "seed": 1},
        "outputs": str(tmp_path / "run"),
    }
    config = parse_config(json.dumps(doc))
    table = read_observables(run_experiment(config) / "observables.csv")
    rows = frozen_run(config)
    assert len(table["t"]) == len(rows) == 4
    assert abs(rows[0]["momentum_0"]) > 0.1
    for column, values in table.items():
        want = np.array([row[column] for row in rows])
        scale = max(float(np.max(np.abs(want))), 1e-300)
        assert np.max(np.abs(values - want)) <= 1e-12 * scale, column


# ---------------------------------------------------------------- frozen walker paths


class FrozenWaveDrift:
    """The run's wave drift as it was, a class of its own next to the sampler's GridDrift."""

    def __init__(self, wave):
        spec = wave.spec
        psi = wave.values
        rho = np.abs(psi) ** 2
        alive = rho > PHASE_DEAD_RELATIVE * float(np.max(rho))
        safe_rho = np.where(alive, rho, 1.0)
        grads = gradient_arrays(psi, spec)
        self.spec = spec
        self._grids = [
            np.where(alive, (np.imag(product) + np.real(product)) / safe_rho, 0.0)
            for product in (np.conj(psi) * g for g in grads)
        ]

    def gradient(self, points):
        points = np.atleast_2d(points)
        out = np.empty_like(points)
        for axis in range(self.spec.dim):
            out[:, axis] = interpolate(self._grids[axis], self.spec, points)
        return out


def frozen_walker_step(walkers, drift, shift, dt, time):
    """The run's own walker step as it was, wrapping before the Ensemble wraps again."""
    spec = walkers.spec
    mean, cov = kernel_moments(walkers.positions, drift, shift, spec, dt)
    noise = stream(walkers.rng_seed, STREAM_WALK, walkers.step_index).standard_normal(
        walkers.positions.shape
    )
    positions = wrap_array(spec, walkers.positions + mean + np.sqrt(cov) * noise)
    return Ensemble(positions, spec, walkers.rng_seed, time, walkers.step_index + 1)


def frozen_evolve_ensemble(ensemble, drift_phi, shift, steps):
    """evolve_ensemble as it was: its own loop over a bare positions array."""
    spec = ensemble.spec
    drift = as_drift(drift_phi)
    positions = ensemble.positions.copy()
    dt = spec.dt
    for s in range(steps):
        mean, cov = kernel_moments(positions, drift, shift, spec, dt)
        noise = stream(ensemble.rng_seed, STREAM_WALK, ensemble.step_index + s).standard_normal(
            positions.shape
        )
        positions = wrap_array(spec, positions + mean + np.sqrt(cov) * noise)
    return Ensemble(positions, spec, ensemble.rng_seed, ensemble.time + steps * dt,
                    ensemble.step_index + steps)


def initial_walkers(config, wave, time):
    run = config.run
    rho0 = ScalarField(np.abs(wave.values) ** 2, config.spec)
    positions = sample_from_density(rho0, run.ensemble_k, stream(run.seed, STREAM_INIT, 0))
    return Ensemble(positions, config.spec, run.seed, time, 0)


def frozen_run_walkers(config):
    """Walker snapshots of the run loop with the frozen drift and step, keyed by step."""
    run = config.run
    wave = build_initial_wave(config)
    potential = build_potential(config)
    shift = best_match_shift(wave.state)
    t0 = wave.time
    walkers = initial_walkers(config, wave, t0)
    snapshots = {0: walkers.positions}
    for step in range(1, run.steps + 1):
        shift = best_match_shift(wave.state)
        walkers = frozen_walker_step(walkers, FrozenWaveDrift(wave), shift, run.dt_pde,
                                     t0 + step * run.dt_pde)
        wave = schrodinger_evolve(wave, potential, shift, run.dt_pde, run.dt_pde)
        if step % run.snapshot_every == 0:
            snapshots[step] = walkers.positions
    return snapshots


def frozen_sample_walkers(config):
    """Walker snapshots of the sample loop with the frozen step, keyed by step."""
    spec, run = config.spec, config.run
    drift = build_drift(config)
    shift = ShiftVelocity(np.asarray(config.shift_mode.values), spec)
    walkers = initial_walkers(config, build_initial_wave(config), 0.0)
    snapshots = {0: walkers.positions}
    for step in range(1, run.steps + 1):
        walkers = frozen_walker_step(walkers, drift, shift, spec.dt, step * spec.dt)
        if step % run.snapshot_every == 0:
            snapshots[step] = walkers.positions
    return snapshots


def walker_config(tmp_path, potential, shift_mode, ensemble_k=64):
    doc = {
        "system": {"n_particles": 2, "spatial_dim": 1, "masses": [1.0, 2.0], "box": [16.0],
                   "grid": [32, 32], "dt": 0.02},
        "initial_state": {"preset": "gaussian_packet", "center": [7.0, 9.0], "sigma": [2.0, 2.5],
                          "boost": [2.0 * np.pi / 16.0]},
        "drift_or_potential": potential,
        "shift_mode": shift_mode,
        "run": {"steps": 6, "dt_pde": 0.01, "snapshot_every": 2, "ensemble_K": ensemble_k,
                "seed": 9},
        "outputs": str(tmp_path / "out"),
    }
    return parse_config(json.dumps(doc))


def assert_walker_snapshots_equal(out, config, snapshots):
    assert sorted(snapshots) == [0, 2, 4, 6]
    for step, want in snapshots.items():
        got = walkers_from_csv(out / f"walkers_{step:06d}.csv", config.spec).positions
        assert np.array_equal(got, want), step


def test_run_walkers_match_frozen_walker_loop(tmp_path):
    config = walker_config(tmp_path, {"preset": "smooth_harmonic_relational", "k": 0.4},
                           {"mode": "best_match"})
    assert_walker_snapshots_equal(run_experiment(config), config, frozen_run_walkers(config))


@pytest.mark.parametrize("potential", [
    {"preset": "smooth_harmonic_relational", "k": 0.4},
    {"preset": "linear", "coefficients": [3.0, -1.0]},
    {"preset": "free"},
])
def test_sample_walkers_match_frozen_walker_loop(tmp_path, potential):
    config = walker_config(tmp_path, potential, {"mode": "fixed", "values": [0.3]})
    assert_walker_snapshots_equal(sample_experiment(config), config, frozen_sample_walkers(config))


def test_evolve_ensemble_matches_frozen_loop():
    spec = SystemSpec(2, 1, (1.0, 2.0), (16.0,), (32, 32), dt=0.03)
    x0, x1 = spec.mesh()
    drift = ScalarField(0.6 * np.sin(2 * np.pi * (x0 - 2.0 * x1) / 16.0), spec)
    shift = ShiftVelocity(np.array([-0.4]), spec)
    init = Ensemble(np.random.default_rng(4).uniform(0.0, 16.0, (200, 2)), spec, rng_seed=21,
                    time=0.7, step_index=3)
    got = evolve_ensemble(init, drift, shift, 7)
    want = frozen_evolve_ensemble(init, drift, shift, 7)
    assert np.array_equal(got.positions, want.positions)
    assert got.time == want.time
    assert got.step_index == want.step_index == 10
