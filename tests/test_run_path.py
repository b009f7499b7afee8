"""The `red run` step: mode-space best matching, split-step factors, the snapshot row, and the loop."""

import itertools
import json

import numpy as np
import pytest

from helpers import read_observables, shifted_kinetic_symbol, traced_peak
import red.experiment
import red.fields
import red.model
import red.quantum
from red.config import parse_config
from red.experiment import (
    build_drift,
    build_initial_wave,
    build_potential,
    run_experiment,
    sample_experiment,
)
from red.fields import PHASE_DEAD_RELATIVE, drift_gradient_arrays, entropy, phase_gradient_arrays
from red.geometry import (
    best_match_fit,
    best_match_shift,
    ensemble_hamiltonian_h0,
    info_metric_g,
    total_momentum,
)
from red.io import ObservablesWriter, read_float_csv, wave_from_csv, wave_to_csv
from red.model import (
    Ensemble,
    EpistemicState,
    ScalarField,
    ShiftVelocity,
    Stencil,
    SystemSpec,
    gradient_arrays,
    interpolate,
    root_gradient_squares,
    wrap_array,
)
from red.presets import gaussian_state, smooth_harmonic_relational_values
from red.quantum import (
    Potential,
    WaveField,
    WaveSpectrum,
    expected_momentum,
    kinetic_factor,
    kinetic_symbol,
    schrodinger_evolve,
    spectral_moments,
    to_wavefunction,
)
from red.sampler import (
    STREAM_INIT,
    STREAM_WALK,
    Drift,
    evolve_ensemble,
    sample_from_density,
    stream,
    walker_step,
)


def gradient_form_momentum(state):
    """int rho d_A Phi per spatial axis through the real-space phase gradient."""
    spec = state.spec
    out = np.zeros(spec.spatial_dim)
    for axis, grad in enumerate(phase_gradient_arrays(state, range(spec.dim))):
        out[spec.spatial_of_axis(axis)] += float(np.sum(state.rho.values * grad)) * spec.cell_volume
    return out


def narrow_state(grid, box=16.0, sigma=0.8):
    """A boosted narrow packet whose far tails underflow below the dead-cell threshold."""
    dim = len(grid)
    spec = SystemSpec(dim, 1, tuple(1.0 + 0.5 * n for n in range(dim)), (box,), grid, dt=0.05)
    slope = np.array([2.0 * np.pi * (n + 1) / box for n in range(dim)])
    return gaussian_state(spec, center=np.full(dim, 0.45 * box), sigma=np.full(dim, sigma),
                          slope=slope)


def narrow_wave(grid, box=16.0, sigma=0.8):
    """The wave of narrow_state."""
    return to_wavefunction(narrow_state(grid, box, sigma))


@pytest.mark.parametrize("grid", [(32,), (33,), (32, 32), (31, 33), (32, 31)])
def test_mode_space_momentum_matches_gradient_form(grid):
    wave = narrow_wave(grid)
    rho = wave.rho.values
    # the packet's tails are dead cells: the alive mask really cuts something
    assert np.any(rho <= PHASE_DEAD_RELATIVE * float(np.max(rho)))
    got = expected_momentum(wave)
    want = gradient_form_momentum(wave)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))


@pytest.mark.parametrize("grid", [(32, 32), (31, 33)])
def test_mode_space_momentum_keeps_the_slope_term(grid):
    # a slope added to a state adds slope . int rho to the momentum of its wave
    base = narrow_state(grid)
    wave = to_wavefunction(base)
    slope = np.array([0.37, -1.25])
    state = EpistemicState(base.rho, base.phase, base.phase_slope + slope)
    got = total_momentum(state)
    mass = float(np.sum(base.rho.values)) * wave.spec.cell_volume
    want = expected_momentum(wave) + float(np.sum(slope)) * mass
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))


@pytest.mark.parametrize("uniform", [False, True])
@pytest.mark.parametrize("grid", [(33,), (32, 32), (31, 33)])
def test_best_match_of_a_wave_is_its_states_without_the_phase_grid(grid, uniform, monkeypatch):
    wave = narrow_wave(grid)
    if uniform:
        wave = WaveField(np.full(grid, wave.spec.volume ** -0.5), wave.spec)
    # the closed form of a wave is <P> / M and builds no phase grid; the closed form
    # and the mismatch fit on the state agree with it to rounding
    with monkeypatch.context() as patch:
        patch.setattr(red.fields, "phase_gradient_arrays", None)  # a call would raise
        got = best_match_shift(wave).components
    want = expected_momentum(wave) / wave.spec.total_mass
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    for other in (total_momentum(wave) / wave.spec.total_mass, best_match_fit(wave).components):
        assert np.max(np.abs(got - other)) <= 1e-12 * max(1.0, float(np.max(np.abs(got))))
    if uniform and grid != (31, 33):
        # no momentum at all: the shift is an exact zero
        assert not np.any(got)



@pytest.mark.parametrize("grid", [(33,), (31, 33)])
def test_best_match_of_a_wave_is_per_unit_norm(grid):
    # a wave off unit norm by less than NORMALIZATION_TOL: its closed form is <P> per
    # unit norm, the state's is int rho dPhi, so the two differ by the norm factor
    wave = narrow_wave(grid)
    wave = WaveField(wave.values * (1.0 + 2e-11), wave.spec)
    norm = float(np.sum(wave.rho.values)) * wave.spec.cell_volume
    assert 1e-11 < norm - 1.0 < 1e-10
    got = best_match_shift(wave).components
    of_state = total_momentum(wave) / wave.spec.total_mass
    scale = float(np.max(np.abs(got)))
    assert np.max(np.abs(got * norm - of_state)) <= 1e-12 * scale
    assert np.max(np.abs(got - of_state)) > 1e-12 * scale

@pytest.mark.parametrize("components", [[0.3, -1.1], [0.0, 2.7]])
def test_kinetic_factor_matches_full_grid_exponential(components):
    spec = SystemSpec(2, 2, (1.0, 2.5), (7.0, 9.0), (6, 7, 5, 8), dt=0.05, hbar=0.7)
    shift = ShiftVelocity(np.array(components), spec)
    dt_pde = 0.013
    want = np.exp(-1j * dt_pde * shifted_kinetic_symbol(spec, shift) / spec.hbar)
    _, rest = Potential.free(spec).split_factors(dt_pde)
    got = kinetic_factor(spec, shift, dt_pde, rest)
    assert got.shape == spec.grid_points
    assert np.max(np.abs(got - want)) <= 1e-14


def test_zero_shift_kinetic_factor_is_the_full_grid_exponential():
    spec = SystemSpec(2, 1, (1.0, 1.5), (16.0,), (16, 17), dt=0.05)
    zero = ShiftVelocity.zero(spec)
    want = np.exp(-1j * 0.01 * kinetic_symbol(spec) / spec.hbar)
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
    assert np.array_equal(rest, np.exp(-1j * 0.01 * kinetic_symbol(spec) / spec.hbar))
    half, _ = potential.split_factors(0.02)
    assert np.array_equal(half, np.exp(-0.5j * 0.02 * potential.values.values / spec.hbar))


def spelled_out_split_steps(values, potential, shift, steps, dt_pde):
    """schrodinger_evolve's loop as plain numpy: half kick, fftn, kinetic product, ifftn, half kick."""
    spec = potential.spec
    half, rest = potential.split_factors(dt_pde)
    kinetic = kinetic_factor(spec, shift, dt_pde, rest)
    for _ in range(steps):
        values = values * half
        spectrum = np.fft.fftn(values)
        spectrum *= kinetic  # the spectrum is the first factor
        values = np.fft.ifftn(spectrum) * half
    return values


def packet_and_spring(grid):
    """Two particles (1-D or 2-D by the grid's rank): a boosted packet under a smooth relational spring."""
    d = len(grid) // 2
    spec = SystemSpec(2, d, (1.0, 1.5), (10.0,) * d, grid, dt=0.01)
    state = gaussian_state(spec, center=np.full(2 * d, 5.0), sigma=np.linspace(1.4, 1.8, 2 * d),
                           slope=np.tile(np.full(d, 2.0 * np.pi / 10.0), 2))
    potential = Potential.from_values(smooth_harmonic_relational_values(spec, 0.4), spec,
                                      relational_flag=True)
    return to_wavefunction(state), potential


@pytest.mark.parametrize("grid", [(128, 128), (16, 16, 16, 16), (24, 24)])
@pytest.mark.parametrize("moving", [False, True])
def test_split_step_is_bitwise_the_spelled_out_loop_and_leaves_its_input(grid, moving):
    # (24, 24) is under numpy's 256 KiB elision threshold, where the product once ran
    # kinetic-first: the spectrum-first order is pinned on every grid size
    wave, potential = packet_and_spring(grid)
    spec = wave.spec
    shift = ShiftVelocity(np.linspace(0.3, -0.2, spec.spatial_dim) * moving, spec)
    before = wave.values.copy()
    evolved = schrodinger_evolve(wave, potential, shift, 3 * 0.005, 0.005)
    np.testing.assert_array_equal(evolved.values, spelled_out_split_steps(before, potential, shift, 3, 0.005))
    np.testing.assert_array_equal(wave.values, before)
    assert not np.shares_memory(evolved.values, wave.values)


def test_h0_from_root_squares_matches_the_grid_formula():
    wave = narrow_wave((16, 16), sigma=1.5)
    spec = wave.spec
    # the wave's density is computed once and read-only
    assert wave.rho is wave.rho
    assert not wave.rho.values.flags.writeable
    shift = ShiftVelocity(np.array([0.3]), spec)
    roots = gradient_arrays(np.sqrt(wave.rho.values), spec)
    # the root-gradient sums are D floats of the grid formula
    assert root_gradient_squares(wave) == [float(np.sum(g ** 2)) for g in roots]
    want = 0.0
    grads = phase_gradient_arrays(wave, range(spec.dim))
    for axis, (phase_grad, root_grad) in enumerate(zip(grads, roots)):
        mass = spec.axis_masses[axis]
        relative = phase_grad - mass * shift.per_axis[axis]
        want += float(np.sum(wave.rho.values * relative ** 2) / (2.0 * mass)) * spec.cell_volume
        want += float(np.sum(root_grad ** 2) * spec.hbar ** 2 / (2.0 * mass)) * spec.cell_volume
    assert ensemble_hamiltonian_h0(wave, shift) == want


# ---------------------------------------------------------------- frozen loop


def frozen_split_step(values, potential, shift, dt_pde):
    """One Strang step with both multipliers built as full-grid exponentials."""
    spec = potential.spec
    half = np.exp(-0.5j * dt_pde * potential.values.values / spec.hbar)
    kinetic = np.exp(-1j * dt_pde * shifted_kinetic_symbol(spec, shift) / spec.hbar)
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


def frozen_mismatch_terms(state, shift):
    """(g_entropy, g_h0) as two passes over all D phase gradients: entropy_rate, then H0."""
    spec = state.spec
    rho = state.rho.values
    grads = phase_gradient_arrays(state, range(spec.dim))
    rate = 0.0
    for axis, grad in enumerate(grads):
        [product] = gradient_arrays(rho, spec, (axis,))
        product *= grad
        rate -= float(np.sum(product)) / spec.axis_masses[axis]
    rate *= spec.cell_volume
    roots = gradient_arrays(np.sqrt(np.clip(rho, 0.0, None)), spec)
    h0 = 0.0
    for axis, (grad, root_grad) in enumerate(zip(grads, roots)):
        mass = spec.axis_masses[axis]
        relative = grad - mass * shift.per_axis[axis]
        h0 += float(np.sum(rho * relative ** 2) / (2.0 * mass)) * spec.cell_volume
        h0 += float(np.sum(root_grad ** 2) * spec.hbar ** 2 / (2.0 * mass)) * spec.cell_volume
    return -0.5 * spec.hbar * rate, h0


def frozen_row(wave, potential, shift):
    """The observables row with the mismatch in two passes and the rest from psi, as before."""
    spec = wave.spec
    g_entropy, g_h0 = frozen_mismatch_terms(wave, shift)
    g_constant = spec.dim * spec.hbar / (4.0 * spec.dt)
    rho = np.abs(wave.values) ** 2
    energy = g_h0 + float(np.sum(potential.values.values * rho)) * spec.cell_volume
    row = {
        "t": wave.time,
        "energy": energy,
        "norm": float(np.sum(rho) * spec.cell_volume),
        "entropy": entropy(ScalarField(rho, spec)),
        "g_total": g_constant + g_entropy + g_h0,
        "g_constant": g_constant,
        "g_entropy": g_entropy,
        "g_h0": g_h0,
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
        return ShiftVelocity(gradient_form_momentum(wave) / spec.total_mass, spec)

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


def best_match_config(tmp_path, steps, snapshot_every):
    """A boosted 2x1-D packet under a relational potential, best-matched every step."""
    doc = {
        "system": {"n_particles": 2, "spatial_dim": 1, "masses": [1.0, 1.5], "box": [16.0],
                   "grid": [48, 48], "dt": 0.05},
        "initial_state": {"preset": "gaussian_packet", "center": [7.0, 9.0], "sigma": [1.6, 1.9],
                          "boost": [2.0 * np.pi * 2 / 16.0]},
        "drift_or_potential": {"preset": "smooth_harmonic_relational", "k": 0.4},
        "shift_mode": {"mode": "best_match"},
        "run": {"steps": steps, "dt_pde": 0.01, "snapshot_every": snapshot_every, "seed": 1},
        "outputs": str(tmp_path / "run"),
    }
    return parse_config(json.dumps(doc))


def test_run_observables_match_frozen_loop(tmp_path):
    config = best_match_config(tmp_path, steps=12, snapshot_every=4)
    table = read_observables(run_experiment(config) / "observables.csv")
    rows = frozen_run(config)
    assert len(table["t"]) == len(rows) == 4
    assert abs(rows[0]["momentum_0"]) > 0.1
    for column, values in table.items():
        want = np.array([row[column] for row in rows])
        scale = max(float(np.max(np.abs(want))), 1e-300)
        assert np.max(np.abs(values - want)) <= 1e-12 * scale, column


def test_row_evaluates_h0_on_one_state(tmp_path, monkeypatch):
    # each snapshot takes one mismatch report of the wave itself, and the energy is
    # the H0 of that report (the row's g_h0) plus int rho U
    made = []

    def counted(state, shift):
        assert isinstance(state, WaveField)
        made.append(state.time)
        return info_metric_g(state, shift)

    monkeypatch.setattr(red.experiment, "info_metric_g", counted)
    config = best_match_config(tmp_path, steps=6, snapshot_every=2)
    out = run_experiment(config)
    table = read_observables(out / "observables.csv")
    assert len(table["t"]) == 4
    assert made == list(table["t"])
    wave = wave_from_csv(out / "wave_000006.csv", config.spec)
    potential = build_potential(config).values.values
    rho = np.abs(wave.values) ** 2
    energy = table["g_h0"][-1] + float(np.sum(potential * rho)) * config.spec.cell_volume
    assert table["energy"][-1] == energy


class RowCatcher:
    """Stands in for the ObservablesWriter: keeps the last row _observe adds."""

    def add(self, **named):
        self.row = named


def rows_of_a_run_and_before(wave, potential, shift):
    """_observe's row of a new wave, and frozen_row's."""
    writer = RowCatcher()
    red.experiment._observe(writer, WaveField(wave.values, wave.spec, wave.time), potential, shift)
    return writer.row, frozen_row(wave, potential, shift)


def evolved_case(case):
    """(wave, potential, shift): a split-stepped packet on 16^4 or 256^2, or a narrow wave with dead cells."""
    if case == "narrow":
        wave = narrow_wave((32, 32))
        spec = wave.spec
        potential = Potential.from_values(smooth_harmonic_relational_values(spec, 0.4), spec,
                                          relational_flag=True)
        return wave, potential, ShiftVelocity(np.array([0.37]), spec)
    wave, potential = packet_and_spring(case)
    shift = best_match_shift(wave)
    return schrodinger_evolve(wave, potential, shift, 0.01, 0.005), potential, shift


@pytest.mark.parametrize("case", [(16, 16, 16, 16), (256, 256), "narrow"], ids=["16^4", "256^2", "narrow"])
def test_row_is_bitwise_the_frozen_row(case):
    # one loop over the axes gives the entropy rate and H0 with the bits of two passes
    # over all D phase gradients, and the energy is that H0 plus <U>
    wave, potential, shift = evolved_case(case)
    rho = wave.rho.values
    assert bool(np.any(rho <= PHASE_DEAD_RELATIVE * float(np.max(rho)))) == (case == "narrow")
    got, want = rows_of_a_run_and_before(wave, potential, shift)
    assert want["g_entropy"] != 0.0 and want["g_h0"] > 0.0
    for column in ("energy", "g_total", "g_entropy", "g_h0"):
        assert float(got[column]).hex() == float(want[column]).hex(), column


@pytest.mark.parametrize("case", [(16, 16, 16, 16), "narrow"], ids=["16^4", "narrow"])
def test_row_differentiates_the_wave_once_per_axis(case, monkeypatch):
    # the energy takes the mismatch report's H0, so the complex wave is differentiated
    # D times per row, and rho and sqrt(rho) D times each
    wave, potential, shift = evolved_case(case)
    derivatives = {"complex": 0, "real": 0}

    def counted(values, spec, axes=None):
        kind = "complex" if np.iscomplexobj(values) else "real"
        derivatives[kind] += spec.dim if axes is None else len(axes)
        return gradient_arrays(values, spec, axes)

    for module in (red.fields, red.model):
        monkeypatch.setattr(module, "gradient_arrays", counted)
    red.experiment._observe(RowCatcher(), WaveField(wave.values, wave.spec), potential, shift)
    dim = wave.spec.dim
    assert derivatives == {"complex": dim, "real": 2 * dim}


def test_split_step_and_row_hold_few_full_grid_arrays():
    # on a 16^4 wave (1 MB), one split step holds its buffer and the shifted kinetic
    # factor (2.1 grids; the norm check builds no |psi|^2); a matched step holds the
    # buffer with |psi_k|^2 while it matches, then with the kinetic factor it builds
    # (2.3 grids); one observables row of a new wave peaks at 2.07 grids (4.07 with all
    # D phase gradients kept): the density, then per axis one complex derivative and
    # the real phase gradient it becomes, freed before the next axis, with no phase
    # grid, no conj(psi) grid and no masked copy of a wave without dead cells
    wave, potential = packet_and_spring((16, 16, 16, 16))
    shift = best_match_shift(wave)
    grid_bytes = wave.values.nbytes
    schrodinger_evolve(wave, potential, shift, 0.005, 0.005)  # the split factors are kept
    step = traced_peak(lambda: schrodinger_evolve(wave, potential, shift, 0.005, 0.005))
    matched = traced_peak(lambda: schrodinger_evolve(wave, potential, None, 0.005, 0.005,
                                                     match=best_match_shift))
    writer = ObservablesWriter(wave.spec.spatial_dim)
    fresh = WaveField(wave.values, wave.spec)  # no cached density or <P>, as in a run
    row = traced_peak(lambda: red.experiment._observe(writer, fresh, potential, shift))
    assert step <= 3.5 * grid_bytes, step / grid_bytes
    assert matched <= 3.5 * grid_bytes, matched / grid_bytes
    assert row <= 2.5 * grid_bytes, row / grid_bytes


def frozen_kinetic_symbol(spec):
    """quantum.kinetic_symbol as it was: a new grid per axis, symbol + term."""
    symbol = np.zeros(spec.grid_points)
    for axis, k in enumerate(spec.wavenumbers):
        symbol = symbol + (spec.hbar * spec.along(axis, k)) ** 2 / (2.0 * spec.axis_masses[axis])
    return symbol


def test_split_factors_keep_their_bits_in_one_grid_each():
    # each factor is its scaled exponent, then exp in place, in its own complex grid; on
    # 16^4 the kinetic symbol lives beside the half factor while the kinetic one is built
    # (2.63 grids, 3.12 with the full-grid temporaries); hbar and the masses are not
    # powers of two, so the order of the scaling shows in the bits
    spec = SystemSpec(2, 2, (1.3, 0.7), (10.0, 9.0), (16, 16, 16, 16), dt=0.01, hbar=0.9)
    potential = Potential.from_values(smooth_harmonic_relational_values(spec, 0.4), spec,
                                      relational_flag=True)
    grid_bytes = np.dtype(complex).itemsize * np.prod(spec.grid_points)
    peak = traced_peak(lambda: potential.split_factors(0.005))
    half, rest = potential.split_factors(0.005)
    assert kinetic_symbol(spec).tobytes() == frozen_kinetic_symbol(spec).tobytes()
    assert half.tobytes() == np.exp(-0.5j * 0.005 * potential.values.values / spec.hbar).tobytes()
    assert rest.tobytes() == np.exp(-1j * 0.005 * frozen_kinetic_symbol(spec) / spec.hbar).tobytes()
    assert peak <= 2.75 * grid_bytes, peak / grid_bytes


@pytest.mark.parametrize("grid", [(24, 24), (128, 128), (16, 16, 16, 16)])
@pytest.mark.parametrize("dead", [False, True])
def test_wave_drift_is_bitwise_the_frozen_drift(grid, dead):
    # psi * conj(d psi), made in the derivative's buffer, gives Re - Im with the bits of
    # Im + Re of conj(psi) * d psi; dead cells are divided around and zeroed
    wave = narrow_wave(grid) if dead else packet_and_spring(grid)[0]
    rho = wave.rho.values
    assert bool(np.any(rho <= PHASE_DEAD_RELATIVE * float(np.max(rho)))) == dead
    got = drift_gradient_arrays(wave)
    want = frozen_wave_drift(wave)._grids
    assert len(got) == len(want) == len(grid)
    for g, w, moved in zip(got, want, frozen_experiment_wave_drift(wave)):
        assert g.tobytes() == w.tobytes() == moved.tobytes()


def test_wave_drift_and_walker_step_hold_few_arrays():
    # on 128^2 (a 256 KiB wave) the drift holds one complex derivative at a time beside
    # the real gradients: 2.08 grids beyond the wave's density (5.08 with all D
    # derivatives and their products alive at once); a step of 50,000 walkers peaks
    # 3.47 MiB above its entry (4.58 with 2^D corner index arrays and two temporaries
    # per corner): the 2.0 MB stencil, the gradient, and one corner buffer
    wave, _ = packet_and_spring((128, 128))
    spec = wave.spec
    wave.rho  # the drift divides by the wave's cached density
    # a first call also builds numpy's transform plans for 128-point axes
    drift = Drift(spec, drift_gradient_arrays(wave))
    drift_peak = traced_peak(lambda: drift_gradient_arrays(wave))
    walkers = Ensemble(np.random.default_rng(3).uniform(0.0, 10.0, (50_000, 2)), spec, rng_seed=5)
    shift = ShiftVelocity(np.array([0.3]), spec)
    step_peak = traced_peak(lambda: walker_step(walkers, drift, shift, 0.02, 0.02))
    assert drift_peak <= 2.5 * wave.values.nbytes, drift_peak / wave.values.nbytes
    assert step_peak <= 3.8 * 2 ** 20, step_peak / 2 ** 20


def spelled_out_phase_gradients(wave):
    """A wave's phase gradients, conj first: masked psi, conj(psi) * d psi, hbar Im / rho.

    The + 0.0 makes every zero +0.0, as the library gives it: an exact zero of the
    product's Im has either sign.
    """
    spec = wave.spec
    rho = wave.rho.values
    alive = rho > PHASE_DEAD_RELATIVE * float(np.max(rho))
    psi = np.where(alive, wave.values, 0.0)
    conj_psi = np.conj(psi)
    safe_rho = np.where(alive, rho, 1.0)
    grads = []
    for axis in range(spec.dim):
        [derivative] = gradient_arrays(psi, spec, (axis,))
        product = conj_psi * derivative
        grads.append(np.where(alive, spec.hbar * product.imag / safe_rho, 0.0) + 0.0)
    return grads


def real_wave(dead):
    """An unboosted packet on 32^2, whose psi is real: narrow enough for dead cells, or not."""
    spec = SystemSpec(2, 1, (1.0, 1.5), (10.0,), (32, 32), dt=0.05)
    sigma = 0.5 if dead else 1.6
    return to_wavefunction(gaussian_state(spec, center=np.full(2, 5.0), sigma=np.full(2, sigma)))


@pytest.mark.parametrize("grid", [(24, 24), (128, 128), (16, 16, 16, 16), "real"])
@pytest.mark.parametrize("dead", [False, True])
def test_wrapped_phase_gradients_are_bitwise_the_conj_first_loop(grid, dead):
    # the product psi * conj(d psi), made in the derivative's buffer and scaled by hbar,
    # then taken from 0, keeps the bits of conj(psi) * d psi; a wave without dead cells
    # goes unmasked, and (24, 24) is under numpy's 256 KiB elision size; on a real wave
    # Im(psi * conj(d psi)) has exact zeros of both signs, and each gradient is +0.0 there
    if grid == "real":
        wave = real_wave(dead)
    else:
        wave = narrow_wave(grid) if dead else packet_and_spring(grid)[0]
    rho = wave.rho.values
    alive = rho > PHASE_DEAD_RELATIVE * float(np.max(rho))
    assert bool(np.any(~alive)) == dead
    got = phase_gradient_arrays(wave, range(wave.spec.dim))
    want = spelled_out_phase_gradients(wave)
    assert len(got) == len(want) == wave.spec.dim
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    if grid == "real":
        psi = np.where(alive, wave.values, 0.0)
        for axis, grad in enumerate(got):
            [derivative] = gradient_arrays(psi, wave.spec, (axis,))
            imag = (psi * np.conj(derivative)).imag[alive]
            assert np.any((imag == 0.0) & np.signbit(imag)) and np.any((imag == 0.0) & ~np.signbit(imag))
            assert np.any(grad[alive] == 0.0) and not np.any(np.signbit(grad[grad == 0.0]))


def test_expected_momentum_keeps_its_bits_in_one_transform_buffer():
    # the transform goes into one fresh buffer (np.fft.fftn without out= holds two
    # grids between its axes), and the buffer and |psi_k|^2 peak at 1.5 grids
    wave, _ = packet_and_spring((16, 16, 16, 16))
    spec = wave.spec
    power = np.abs(np.fft.fftn(wave.values)) ** 2
    want = np.zeros(spec.spatial_dim)
    for axis in range(spec.dim):
        others = tuple(a for a in range(spec.dim) if a != axis)
        want[spec.spatial_of_axis(axis)] += float(spec.derivative_wavenumbers[axis]
                                                  @ np.sum(power, axis=others))
    want = spec.hbar * want / float(np.sum(power))
    assert expected_momentum(wave).tobytes() == want.tobytes()
    spectrum = WaveSpectrum(np.fft.fftn(wave.values), spec)
    assert spectral_moments(spectrum)[0].tobytes() == want.tobytes()
    assert best_match_shift(spectrum).components.tobytes() == (want / spec.total_mass).tobytes()
    # the moments are kept on the wave: a fresh wave of the same psi computes them
    peak = traced_peak(lambda: expected_momentum(WaveField(wave.values, spec)))
    assert peak <= 1.6 * wave.values.nbytes, peak / wave.values.nbytes


@pytest.mark.parametrize("hbar", [0.7, 1e300])
def test_kinetic_phase_rate_is_the_state_weighted_kinetic_symbol(hbar):
    # <T>/hbar from the 1-D marginals equals the full-grid sum of kinetic_symbol |psi_k|^2;
    # at hbar = 1e300 the symbol overflows, the marginal form does not
    spec = SystemSpec(2, 1, (1.0, 1.5), (10.0,), (32, 48), dt=0.01, hbar=hbar)
    state = gaussian_state(spec, center=np.full(2, 5.0), sigma=np.array([1.4, 1.8]),
                           slope=np.full(2, 2.0 * np.pi * hbar / 10.0))
    wave = to_wavefunction(state)
    rate = wave.moments[1]
    power = np.abs(np.fft.fftn(wave.values)) ** 2
    k2 = [spec.along(axis, k * k) for axis, k in enumerate(spec.wavenumbers)]
    want = float(np.sum((k2[0] / 2.0 + k2[1] / 3.0) * power) / np.sum(power))
    assert np.isfinite(rate)
    assert rate / hbar == pytest.approx(want, rel=1e-12)


def frozen_power_marginals(spectrum):
    """The 1-D marginal of |psi_k|^2 on each axis, and its total, as two functions read them."""
    dim = spectrum.spec.dim
    power = np.abs(spectrum.values) ** 2
    marginals = [np.sum(power, axis=tuple(a for a in range(dim) if a != axis)) for axis in range(dim)]
    return marginals, float(np.sum(power))


def frozen_spectrum_momentum(spectrum):
    """<P> per spatial axis from the marginals, as its own function."""
    spec = spectrum.spec
    marginals, total = frozen_power_marginals(spectrum)
    momentum = np.zeros(spec.spatial_dim)
    for axis, marginal in enumerate(marginals):
        momentum[spec.spatial_of_axis(axis)] += float(spec.derivative_wavenumbers[axis] @ marginal)
    return spec.hbar * momentum / total


def frozen_kinetic_phase_rate(spectrum):
    """<T>/hbar from the marginals, as its own function."""
    spec = spectrum.spec
    marginals, total = frozen_power_marginals(spectrum)
    rate = 0.0
    for marginal, k, mass in zip(marginals, spec.wavenumbers, spec.axis_masses):
        rate += float((k * k) @ marginal) / total / (2.0 * float(mass))
    return float(spec.hbar) * rate


@pytest.mark.parametrize("n_particles, spatial_dim, masses, box, grid, hbar", [
    (2, 2, (1.0, 1.5), (10.0, 10.0), (16, 16, 16, 16), 0.7),
    (2, 1, (1.0, 2.0), (16.0,), (48, 40), 2.5),
    (3, 1, (1.0, 2.0, 1.5), (9.0,), (15, 17, 13), 0.3),
])
def test_spectral_moments_keep_the_bits_of_the_two_reductions(n_particles, spatial_dim, masses, box,
                                                              grid, hbar):
    # one pass over |psi_k|^2 gives <P> and <T>/hbar with the bits that two passes gave,
    # and a wave keeps the same two numbers
    spec = SystemSpec(n_particles, spatial_dim, masses, box, grid, dt=0.01, hbar=hbar)
    modes = np.arange(1, spec.dim + 1) * (-1) ** np.arange(spec.dim)
    slope = 2.0 * np.pi * hbar * modes / spec.axis_box
    state = gaussian_state(spec, center=0.45 * spec.axis_box,
                           sigma=np.linspace(1.3, 1.9, spec.dim), slope=slope)
    wave = to_wavefunction(state)
    spectrum = WaveSpectrum(np.fft.fftn(wave.values), spec)
    momentum, rate = spectral_moments(spectrum)
    want_momentum, want_rate = frozen_spectrum_momentum(spectrum), frozen_kinetic_phase_rate(spectrum)
    assert np.all(want_momentum != 0.0) and want_rate > 0.0
    assert momentum.tobytes() == want_momentum.tobytes()
    assert rate.hex() == want_rate.hex()
    kept_momentum, kept_rate = wave.moments
    assert kept_momentum.tobytes() == want_momentum.tobytes()
    assert kept_rate.hex() == want_rate.hex()
    assert not kept_momentum.flags.writeable
    assert wave.moments[0] is kept_momentum


def test_step_phase_check_stays_under_the_first_split_steps_peak():
    # the check transforms the initial wave into one buffer and reads |psi_k|^2 (1.5
    # grids on 16^4); the run's first matched step builds its factors beside its buffer
    # (4.3 grids), so the check does not raise a run's traced peak
    doc = {"system": {"n_particles": 2, "spatial_dim": 2, "masses": [1.0, 1.5],
                      "box": [10.0, 10.0], "grid": [16, 16, 16, 16], "dt": 0.01},
           "initial_state": {"preset": "gaussian_packet", "center": [5.0, 4.5, 5.5, 5.0],
                             "sigma": 2.7, "boost": [2.0 * np.pi / 10.0, 0.0]},
           "drift_or_potential": {"preset": "smooth_harmonic_relational", "k": 0.4},
           "shift_mode": {"mode": "best_match"},
           "run": {"steps": 1, "dt_pde": 0.005}}
    config = parse_config(json.dumps(doc))
    wave, potential = build_initial_wave(config), build_potential(config)
    grid_bytes = wave.values.nbytes
    check = traced_peak(lambda: red.experiment._check_step_phases(config, wave, potential))
    step = traced_peak(lambda: schrodinger_evolve(wave, potential, None, 0.005, 0.005,
                                                  match=best_match_shift))
    assert check <= 1.7 * grid_bytes, check / grid_bytes
    assert check < step, (check / grid_bytes, step / grid_bytes)


def test_matched_step_matches_the_spectrum_it_transforms():
    # each step hands match the spectrum of its half-kicked wave and uses the shift
    # that comes back; the call returns the last one
    wave, potential = packet_and_spring((24, 24))
    spec = wave.spec
    seen = []

    def match(spectrum):
        seen.append(spectrum.values.copy())
        return best_match_shift(spectrum)

    evolved, shift = schrodinger_evolve(wave, potential, None, 3 * 0.005, 0.005, match=match)
    values = wave.values
    half, _ = potential.split_factors(0.005)
    assert len(seen) == 3
    for got in seen:
        assert np.array_equal(got, np.fft.fftn(values * half))
        used = best_match_shift(WaveSpectrum(got, spec))
        values = spelled_out_split_steps(values, potential, used, 1, 0.005)
    assert np.array_equal(shift.components, used.components)
    np.testing.assert_array_equal(evolved.values, values)


def start_of_step_run(config, out):
    """The run loop with the best match taken from the wave at the start of each step."""
    spec = config.spec
    run = config.run
    wave = build_initial_wave(config)
    potential = build_potential(config)
    writer = ObservablesWriter(spec.spatial_dim)
    t0 = wave.time
    shift = best_match_shift(wave)
    red.experiment._observe(writer, wave, potential, shift)
    for step in range(1, run.steps + 1):
        shift = best_match_shift(wave)
        wave = schrodinger_evolve(wave, potential, shift, run.dt_pde, run.dt_pde,
                                  t0 + step * run.dt_pde)
        if step % run.snapshot_every == 0:
            red.experiment._observe(writer, wave, potential, shift)
    out.mkdir()
    writer.write(out / "observables.csv")
    wave_to_csv(wave, out / "last.csv")
    return wave


def matched_config(tmp_path, potential, spatial_dim, shift_mode=None):
    """A boosted two-particle packet (2x1-D on 48^2 or 2x2-D on 16^4), by default best-matched every step."""
    if spatial_dim == 1:
        system = {"box": [16.0], "grid": [48, 48]}
        packet = {"center": [7.0, 9.0], "sigma": [1.6, 1.9], "boost": [2.0 * np.pi * 2 / 16.0]}
    else:
        system = {"box": [10.0, 10.0], "grid": [16] * 4}
        packet = {"center": [4.5, 5.5, 5.0, 4.0], "sigma": [2.6, 2.8, 2.7, 2.9],
                  "boost": [2.0 * np.pi / 10.0, -4.0 * np.pi / 10.0]}
    doc = {
        "system": {"n_particles": 2, "spatial_dim": spatial_dim, "masses": [1.0, 1.5], "dt": 0.05,
                   **system},
        "initial_state": {"preset": "gaussian_packet", **packet},
        "drift_or_potential": potential,
        "shift_mode": shift_mode or {"mode": "best_match"},
        "run": {"steps": 12, "dt_pde": 0.01, "snapshot_every": 4, "seed": 1},
        "outputs": str(tmp_path / "run"),
    }
    return parse_config(json.dumps(doc))


@pytest.mark.parametrize("spatial_dim", [1, 2])
def test_relational_matched_run_agrees_with_the_start_of_step_loop(tmp_path, spatial_dim):
    # the half kick of a relational potential keeps <P> up to rounding, so the shift
    # matched mid-step moves by rounding only; measured, relative to each column's
    # largest value: the shift by 3.5e-14 (2x1-D) and 8.5e-14 (2x2-D), every other
    # column by at most 5.5e-15 and the last wave by at most 3.1e-15
    config = matched_config(tmp_path, {"preset": "smooth_harmonic_relational", "k": 0.4},
                            spatial_dim)
    table = read_observables(run_experiment(config) / "observables.csv")
    wave = start_of_step_run(config, tmp_path / "loop")
    want = read_observables(tmp_path / "loop" / "observables.csv")
    assert len(table["t"]) == 4
    assert abs(want["momentum_0"][0]) > 0.1
    for column, values in table.items():
        scale = max(float(np.max(np.abs(want[column]))), 1e-300)
        bound = 1e-12 if column.startswith("shift_") else 1e-13
        assert np.max(np.abs(values - want[column])) <= bound * scale, column
    got = wave_from_csv(tmp_path / "run" / "wave_000012.csv", config.spec).values
    assert np.max(np.abs(got - wave.values)) <= 1e-13 * float(np.max(np.abs(wave.values)))


@pytest.mark.parametrize("spatial_dim", [1, 2])
def test_external_matched_run_is_the_start_of_step_loop_bytewise(tmp_path, spatial_dim):
    config = matched_config(tmp_path, {"preset": "harmonic_external", "k": 0.4, "axis": 1},
                            spatial_dim)
    out = run_experiment(config)
    start_of_step_run(config, tmp_path / "loop")
    loop = tmp_path / "loop"
    assert (out / "observables.csv").read_bytes() == (loop / "observables.csv").read_bytes()
    assert (out / "wave_000012.csv").read_bytes() == (loop / "last.csv").read_bytes()


@pytest.mark.parametrize("potential, transformed", [
    # start-of-step matches: all 13 waves, one transform each (the row's included)
    ({"preset": "harmonic_external", "k": 0.4, "axis": 1}, 13),
    # mid-step matches: the first wave and the three later rows
    ({"preset": "smooth_harmonic_relational", "k": 0.4}, 4),
])
def test_matched_run_transforms_each_wave_once_for_its_momentum(tmp_path, monkeypatch, potential,
                                                                transformed):
    # the step bound, the row and the next start-of-step best match share the moments
    # kept on the wave: one transform per wave that any of them reads, into a fresh
    # buffer (a split step transforms its own buffer in place)
    transformed_waves = []
    fftn = red.quantum.fftn

    def counted(values, spec, axes=None, out=None):
        if out is not values:
            transformed_waves.append(values)
        return fftn(values, spec, axes, out)

    monkeypatch.setattr(red.quantum, "fftn", counted)
    run_experiment(matched_config(tmp_path, potential, 1))
    # each wave's psi is held here, so no two distinct ones share an id
    assert len(transformed_waves) == len({id(v) for v in transformed_waves}) == transformed


@pytest.mark.parametrize("shift_mode", [{"mode": "best_match"}, {"mode": "fixed", "values": [0.3]}])
@pytest.mark.parametrize("potential", [{"preset": "smooth_harmonic_relational", "k": 0.4},
                                       {"preset": "harmonic_external", "k": 0.4, "axis": 1}])
def test_run_transforms_the_initial_wave_once(tmp_path, monkeypatch, potential, shift_mode):
    # the step bound's <T>, the first best match and row 0 all read the moments of
    # the initial psi, which is transformed forward once for them
    initial, transformed = [], []
    build, fftn = red.experiment.build_initial_wave, red.quantum.fftn

    def built(config):
        initial.append(build(config))
        return initial[0]

    def counted(values, spec, axes=None, out=None):
        if axes is None and values is initial[0].values:
            transformed.append(values)
        return fftn(values, spec, axes, out)

    monkeypatch.setattr(red.experiment, "build_initial_wave", built)
    monkeypatch.setattr(red.quantum, "fftn", counted)
    run_experiment(matched_config(tmp_path, potential, 1, shift_mode))
    assert len(initial) == 1
    assert len(transformed) == 1


# ---------------------------------------------------------------- frozen walker paths


def frozen_interpolate(values, spec, points):
    """model.interpolate as it was: corners, indices and weights rebuilt per call."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    scaled = points / spec.spacing
    base = np.floor(scaled).astype(int)
    frac = scaled - base
    shape = np.asarray(spec.grid_points)
    result = np.zeros(points.shape[0], dtype=values.dtype)
    for corner in itertools.product((0, 1), repeat=spec.dim):
        corner = np.asarray(corner)
        idx = np.mod(base + corner, shape)
        weight = np.prod(np.where(corner, frac, 1.0 - frac), axis=1)
        result += weight * values[tuple(idx.T)]
    return result


class FrozenGridDrift:
    """The sampler's grid drift as it was: frozen_interpolate from the raw points, once per axis."""

    def __init__(self, spec, grids):
        self.spec = spec
        self._grids = grids

    def gradient(self, points):
        points = np.atleast_2d(points)
        out = np.empty_like(points)
        for axis in range(self.spec.dim):
            out[:, axis] = frozen_interpolate(self._grids[axis], self.spec, points)
        return out


def frozen_wave_drift(wave):
    """The run's wave-drift grids as they were, read through FrozenGridDrift."""
    spec = wave.spec
    psi = wave.values
    rho = np.abs(psi) ** 2
    alive = rho > PHASE_DEAD_RELATIVE * float(np.max(rho))
    safe_rho = np.where(alive, rho, 1.0)
    grads = gradient_arrays(psi, spec)
    return FrozenGridDrift(spec, [
        np.where(alive, (np.imag(product) + np.real(product)) / safe_rho, 0.0)
        for product in (np.conj(psi) * g for g in grads)
    ])


def frozen_experiment_wave_drift(wave):
    """The run's wave-drift grids as red.experiment built them, before red.fields did."""
    spec = wave.spec
    psi = wave.values
    rho = wave.rho.values
    alive = rho > PHASE_DEAD_RELATIVE * float(np.max(rho))
    grads = []
    for axis in range(spec.dim):
        [product] = gradient_arrays(psi, spec, (axis,))
        np.conjugate(product, out=product)
        np.multiply(psi, product, out=product)
        grad = product.real - product.imag
        del product
        np.divide(grad, rho, out=grad, where=alive)
        grad[~alive] = 0.0
        grads.append(grad)
    return grads


def frozen_wrap_array(spec, positions):
    """model.wrap_array as it was: np.mod of every coordinate, then the L -> 0 fold."""
    wrapped = np.mod(positions, spec.axis_box)
    return np.where(wrapped == spec.axis_box, 0.0, wrapped)


def frozen_kernel_moments(points, drift, shift, spec, dt):
    """sampler.kernel_moments as it was: the mean as one expression of fresh arrays."""
    grad = drift.gradient(points)
    inv_mass = 1.0 / spec.axis_masses
    mean = spec.hbar * dt * grad * inv_mass - shift.per_axis * dt
    cov = spec.hbar * dt * inv_mass
    return mean, cov


def frozen_walker_step(walkers, drift, shift, dt, time):
    """The run's own walker step as it was, wrapping before the Ensemble wraps again."""
    spec = walkers.spec
    mean, cov = frozen_kernel_moments(walkers.positions, drift, shift, spec, dt)
    noise = stream(walkers.rng_seed, STREAM_WALK, walkers.step_index).standard_normal(
        walkers.positions.shape
    )
    positions = frozen_wrap_array(spec, walkers.positions + mean + np.sqrt(cov) * noise)
    return Ensemble(positions, spec, walkers.rng_seed, time, walkers.step_index + 1)


def frozen_evolve_ensemble(ensemble, drift_phi, shift, steps):
    """evolve_ensemble of a ScalarField drift as it was: its own loop over bare positions."""
    spec = ensemble.spec
    drift = FrozenGridDrift(spec, gradient_arrays(drift_phi.values, spec))
    positions = ensemble.positions.copy()
    dt = spec.dt
    for s in range(steps):
        mean, cov = frozen_kernel_moments(positions, drift, shift, spec, dt)
        noise = stream(ensemble.rng_seed, STREAM_WALK, ensemble.step_index + s).standard_normal(
            positions.shape
        )
        positions = frozen_wrap_array(spec, positions + mean + np.sqrt(cov) * noise)
    return Ensemble(positions, spec, ensemble.rng_seed, ensemble.time + steps * dt,
                    ensemble.step_index + steps)


def initial_walkers(config, wave, time):
    run = config.run
    rho0 = ScalarField(np.abs(wave.values) ** 2, config.spec)
    positions = sample_from_density(rho0, run.ensemble_k, stream(run.seed, STREAM_INIT, 0))
    return Ensemble(positions, config.spec, run.seed, time, 0)


def frozen_run_walkers(config):
    """Walker snapshots of the run loop with the frozen drift and step, keyed by step.

    The potential is relational, so each step matches its own half-kicked
    spectrum: the wave evolves first, and the walkers then move in the
    shift that step used, by the drift of the wave before it.
    """
    run = config.run
    wave = build_initial_wave(config)
    potential = build_potential(config)
    assert potential.relational_flag
    t0 = wave.time
    walkers = initial_walkers(config, wave, t0)
    snapshots = {0: walkers.positions}
    for step in range(1, run.steps + 1):
        evolved, shift = schrodinger_evolve(wave, potential, None, run.dt_pde, run.dt_pde,
                                            match=best_match_shift)
        walkers = frozen_walker_step(walkers, frozen_wave_drift(wave), shift, run.dt_pde,
                                     t0 + step * run.dt_pde)
        wave = evolved
        if step % run.snapshot_every == 0:
            snapshots[step] = walkers.positions
    return snapshots


def frozen_sample_walkers(config):
    """Walker snapshots of the sample loop with the frozen step, keyed by step."""
    spec, run = config.spec, config.run
    drift = build_drift(config)
    if drift.grids:
        assert not np.any(drift.slope)
        drift = FrozenGridDrift(spec, drift.grids)
    shift = ShiftVelocity(np.asarray(config.shift_mode["values"]), spec)
    walkers = initial_walkers(config, build_initial_wave(config), 0.0)
    snapshots = {0: walkers.positions}
    for step in range(1, run.steps + 1):
        walkers = frozen_walker_step(walkers, drift, shift, spec.dt, step * spec.dt)
        if step % run.snapshot_every == 0:
            snapshots[step] = walkers.positions
    return snapshots


WALKERS_2X1D = (
    {"n_particles": 2, "spatial_dim": 1, "masses": [1.0, 2.0], "box": [16.0], "grid": [32, 32],
     "dt": 0.02},
    {"preset": "gaussian_packet", "center": [7.0, 9.0], "sigma": [2.0, 2.5],
     "boost": [2.0 * np.pi / 16.0]},
)
# 16-corner stencils, whose corners cross the periodic seam on any of four axes
WALKERS_2X2D = (
    {"n_particles": 2, "spatial_dim": 2, "masses": [1.0, 2.0], "box": [8.0, 8.0],
     "grid": [8, 8, 8, 8], "dt": 0.02},
    {"preset": "gaussian_packet", "sigma": 4.0, "boost": [2.0 * np.pi / 8.0, 0.0]},
)


def walker_config(tmp_path, potential, shift_mode, ensemble_k=64, snapshot_every=2,
                  layout=WALKERS_2X1D):
    system, initial_state = layout
    doc = {
        "system": system,
        "initial_state": initial_state,
        "drift_or_potential": potential,
        "shift_mode": shift_mode,
        "run": {"steps": 6, "dt_pde": 0.01, "snapshot_every": snapshot_every,
                "ensemble_K": ensemble_k, "seed": 9},
        "outputs": str(tmp_path / "out"),
    }
    return parse_config(json.dumps(doc))


def assert_walker_snapshots_equal(out, config, snapshots):
    assert sorted(snapshots) == [0, 2, 4, 6]
    for step, want in snapshots.items():
        header, got = read_float_csv(out / f"walkers_{step:06d}.csv")
        assert header == [f"x_{a}" for a in range(config.spec.dim)]
        assert got.tobytes() == want.tobytes(), step


def test_run_walkers_match_frozen_walker_loop(tmp_path):
    for name, layout in (("2x1d", WALKERS_2X1D), ("2x2d", WALKERS_2X2D)):
        config = walker_config(tmp_path / name, {"preset": "smooth_harmonic_relational", "k": 0.4},
                               {"mode": "best_match"}, layout=layout)
        assert_walker_snapshots_equal(run_experiment(config), config, frozen_run_walkers(config))


@pytest.mark.parametrize("potential", [
    {"preset": "smooth_harmonic_relational", "k": 0.4},
    {"preset": "linear", "coefficients": [3.0, -1.0]},
    {"preset": "free"},
    # mean steps hbar dt c / m of 20 and -13 in a 16-wide box: every walker wraps on axis 0
    # on every step, and most do on axis 1
    {"preset": "linear", "coefficients": [1000.0, -1300.0]},
])
def test_sample_walkers_match_frozen_walker_loop(tmp_path, potential):
    config = walker_config(tmp_path, potential, {"mode": "fixed", "values": [0.3]})
    assert_walker_snapshots_equal(sample_experiment(config), config, frozen_sample_walkers(config))


def test_evolve_ensemble_matches_frozen_loop():
    # the second spec's hbar and 1/m are not powers of two, so the kernel mean's operation
    # order shows in its bits
    for spec in (SystemSpec(2, 1, (1.0, 2.0), (16.0,), (32, 32), dt=0.03),
                 SystemSpec(2, 1, (1.3, 0.7), (16.0,), (32, 32), dt=0.03, hbar=0.9)):
        x0, x1 = spec.mesh()
        drift = ScalarField(0.6 * np.sin(2 * np.pi * (x0 - 2.0 * x1) / 16.0), spec)
        shift = ShiftVelocity(np.array([-0.4]), spec)
        init = Ensemble(np.random.default_rng(4).uniform(0.0, 16.0, (200, 2)), spec, rng_seed=21,
                        time=0.7, step_index=3)
        got = evolve_ensemble(init, Drift.of(drift), shift, 7)
        want = frozen_evolve_ensemble(init, drift, shift, 7)
        assert got.positions.tobytes() == want.positions.tobytes()
        assert got.time == want.time
        assert got.step_index == want.step_index == 10


@pytest.mark.parametrize("n_particles, spatial_dim, box", [
    (1, 1, (16.0,)),
    (1, 2, (16.0, 0.7)),
    (2, 2, (3.3, 1e3)),
])
def test_wrap_array_matches_frozen_wrap_bitwise(n_particles, spatial_dim, box):
    spec = SystemSpec(n_particles, spatial_dim, (1.0,) * n_particles, box,
                      (8,) * (n_particles * spatial_dim), dt=0.01)
    edges = np.stack([
        np.array([0.0, -0.0, -5e-324, -1e-17, np.nextafter(length, 0.0), length, 3.0 * length,
                  1e6 * length + 0.3, -length, -3.0 * length, 0.5 * length])
        for length in spec.axis_box
    ], axis=1)
    rng = np.random.default_rng(spec.dim)
    positions = np.concatenate([
        edges, edges[::-1],
        rng.uniform(-2.0, 3.0, (500, spec.dim)) * spec.axis_box,
        rng.uniform(0.0, 1.0, (500, spec.dim)) * spec.axis_box,
    ])
    got = wrap_array(spec, positions)
    want = frozen_wrap_array(spec, positions)
    assert got.shape == positions.shape == (len(positions), spec.dim)
    assert got.tobytes() == want.tobytes()
    assert not np.any(np.signbit(got)) and np.all(got < spec.axis_box)
    # -1e-17 and -5e-324 round up to L under np.mod and fold back to +0.0
    assert got[2].tobytes() == got[3].tobytes() == np.zeros(spec.dim).tobytes()
    assert got is not positions and positions[1].tobytes() == np.full(spec.dim, -0.0).tobytes()


# ---------------------------------------------------------------- interpolation stencil


def stencil_points(spec, rng, count):
    """Random points in and around the box, the origin, grid nodes, L - ulp after wrapping, and the seam.

    Two points sit on the periodic seam unwrapped: exactly L, and -1e-17 h,
    whose low corner wraps to g - 1 and whose high corner crosses the seam to 0.
    """
    box = spec.axis_box
    nodes = np.stack([np.arange(6) % g for g in spec.grid_points], axis=1) * spec.spacing
    top = wrap_array(spec, np.nextafter(box, 0.0)[None, :])
    return np.concatenate([
        np.zeros((1, spec.dim)), nodes, top, box[None, :], -1e-17 * spec.spacing[None, :],
        wrap_array(spec, rng.uniform(0.0, 1.0, (count, spec.dim)) * box),
        rng.uniform(-box, 2.0 * box, (count // 4, spec.dim)),
    ])


@pytest.mark.parametrize("n_particles, spatial_dim, box, grid", [
    (1, 1, (3.0,), (8,)),
    (2, 1, (7.3,), (31, 33)),
    (2, 1, (16.0,), (128, 128)),
    (1, 3, (1.0, 2.0, 3.3), (6, 7, 5)),
    (2, 2, (5.0, 6.5), (16, 16, 16, 16)),
    (4, 2, (2.0, 3.0), (2, 3) * 4),
])
def test_stencil_interpolation_matches_frozen_interpolate_bitwise(n_particles, spatial_dim,
                                                                  box, grid):
    spec = SystemSpec(n_particles, spatial_dim, (1.0,) * n_particles, box, grid, dt=0.01)
    rng = np.random.default_rng(sum(grid))
    points = stencil_points(spec, rng, 4000)
    stencil = Stencil.at(spec, points)
    assert stencil.base.shape == (len(points),)
    assert len(stencil.offsets) == len(stencil.weight) == 2 ** spec.dim
    for values in (rng.normal(size=grid), rng.normal(size=grid) + 1j * rng.normal(size=grid)):
        got = interpolate(values, stencil)
        want = frozen_interpolate(values, spec, points)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    # the drift reads its spectral gradient grids through the same stencil
    field = ScalarField(rng.normal(size=grid), spec)
    gradient = Drift.of(field).gradient(points)
    assert gradient.dtype == np.float64
    for axis, grid_values in enumerate(gradient_arrays(field.values, spec)):
        want = frozen_interpolate(grid_values, spec, points)
        assert gradient[:, axis].tobytes() == want.tobytes()


def test_run_validates_one_wave_per_step(tmp_path, monkeypatch):
    config = walker_config(tmp_path, {"preset": "smooth_harmonic_relational", "k": 0.4},
                           {"mode": "best_match"}, ensemble_k=0, snapshot_every=6)
    built = []
    original = WaveField.__post_init__

    def counted(self):
        built.append(self.time)
        original(self)

    monkeypatch.setattr(WaveField, "__post_init__", counted)
    run_experiment(config)
    run = config.run
    assert len(built) == run.steps + 1
    assert built[1:] == [step * run.dt_pde for step in range(1, run.steps + 1)]
