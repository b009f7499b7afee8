import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import admissible_step, normalized_density, traced_peak
from red.errors import StateError
from red.fields import (
    OSMOTIC_EXACT,
    OSMOTIC_FLOOR,
    diffuse,
    entropy,
    entropy_rate,
    phase_gradient_arrays,
    regularized_log_density,
    state_drift_potential,
)
from red.model import (
    EpistemicState,
    ScalarField,
    SystemSpec,
    quadrature,
)
from red.presets import gaussian_density, gaussian_state
from red.quantum import WaveField


def spec_1p(n=256, box=20.0, dt=0.01, mass=1.0, hbar=1.0):
    return SystemSpec(1, 1, (mass,), (box,), (n,), dt, hbar)


def sine_drift(spec, amplitude):
    x = spec.axis_coords[0]
    return ScalarField(amplitude * np.sin(2 * np.pi * x / spec.box_length[0]), spec)


def test_phase_drift_round_trip():
    spec = spec_1p()
    rho = gaussian_density(spec, 10.0, 1.3)
    phi = sine_drift(spec, 1.0)
    phase = ScalarField(spec.hbar * (phi.values - 0.5 * regularized_log_density(rho)), spec)
    grid, slope = state_drift_potential(EpistemicState(rho, phase))
    assert np.max(np.abs(grid.values - phi.values)) < 1e-12
    assert np.array_equal(slope, [0.0])


def test_drift_potential_is_bitwise_the_out_of_place_sum():
    # phi is built in the logarithm's own buffer: a sum of two floats has the same bits in
    # either order, and 0.5 * log scales exactly
    spec = spec_1p(hbar=0.7)
    rho = gaussian_density(spec, 10.0, 1.3)
    state = EpistemicState(rho, ScalarField(0.3 * sine_drift(spec, 1.0).values, spec), np.array([0.4]))
    grid, slope = state_drift_potential(state)
    want = state.phase.values / spec.hbar + 0.5 * regularized_log_density(rho)
    assert grid.values.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert slope.tolist() == [0.4 / 0.7]


def frozen_regularized_log_density(vals):
    """The full-grid form: the bump blend is computed on every cell, then times excess."""
    top = float(np.max(vals))
    log_lo = np.log(OSMOTIC_FLOOR)
    width = np.log(OSMOTIC_EXACT) - log_lo
    excess = np.log(np.clip(vals / top, OSMOTIC_FLOOR, None)) - log_lo
    u = np.clip(excess / width, 0.0, 1.0)
    with np.errstate(divide="ignore", under="ignore"):
        lower = np.where(u > 0.0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        upper = np.where(u < 1.0, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
    return lower / (upper + lower) * excess + log_lo + np.log(top)


def test_regularized_log_density_is_bitwise_the_full_grid_blend():
    # cells below the band (u = 0), inside it, at its top (u exactly 1) and above it
    spec = spec_1p(n=256)
    ratios = np.concatenate([[0.0, 1e-300, 1e-20, OSMOTIC_FLOOR, OSMOTIC_EXACT, 1.0],
                             np.geomspace(1e-17, 1.0, 250)])
    vals = 0.37 * ratios
    width = np.log(OSMOTIC_EXACT) - np.log(OSMOTIC_FLOOR)
    u = (np.log(np.clip(ratios, OSMOTIC_FLOOR, None)) - np.log(OSMOTIC_FLOOR)) / width
    assert np.any(u == 0.0) and np.any((u > 0.0) & (u < 1.0))
    assert np.any(u == 1.0) and np.any(u > 1.0)
    got = regularized_log_density(ScalarField(vals, spec))
    assert got.view(np.uint64).tolist() == frozen_regularized_log_density(vals).view(np.uint64).tolist()
    state = gaussian_state(SystemSpec(1, 3, (1.0,), (16.0,) * 3, (32,) * 3, 0.05), sigma=1.0)
    got = regularized_log_density(state.rho)
    assert np.array_equal(got.view(np.uint64), frozen_regularized_log_density(state.rho.values).view(np.uint64))


def test_regularized_log_density_holds_about_two_grids():
    # the result, two masks of 1/8 grid and the band's cells (a shell of about 30 % of
    # gdecomp's 64^3 density): 2.03 grids, where the full-grid blend took 3.38
    spec = SystemSpec(1, 3, (1.0,), (16.0,) * 3, (64,) * 3, 0.05)
    rho = gaussian_state(spec, sigma=1.0).rho
    peak = traced_peak(lambda: regularized_log_density(rho))
    assert peak <= 2.5 * rho.values.nbytes, peak / rho.values.nbytes


def test_osmotic_phase_of_constant_drift_is_minus_half_log_rho():
    # exact wherever the density is above OSMOTIC_EXACT of its peak
    spec = spec_1p()
    rho = gaussian_density(spec, 10.0, 1.0)
    phase = -0.5 * spec.hbar * regularized_log_density(rho)
    exact = rho.values > 1e-8 * float(np.max(rho.values))
    assert np.allclose(phase[exact], -0.5 * np.log(rho.values[exact]), atol=1e-12)


def test_phase_gradient_handles_wrapped_phase():
    # a lattice-mode phase, known from the wave only modulo one period, still differentiates exactly
    spec = spec_1p(n=128)
    x = spec.axis_coords[0]
    k = 2 * np.pi * 3 / 20.0
    wave = WaveField(np.exp(1j * k * x) / np.sqrt(spec.volume), spec)
    assert np.max(np.abs(np.angle(wave.values))) > 0.9 * np.pi  # whose phase wraps
    (g,) = phase_gradient_arrays(wave, range(spec.dim))
    assert np.max(np.abs(g - k)) < 1e-10


@pytest.mark.parametrize("wave", [False, True])
def test_one_axis_phase_gradients_are_the_all_axes_ones_bitwise(wave):
    # the row asks for one axis at a time; each keeps the bits of the all-axes call,
    # on a smooth state with its slope and on a wave alike
    spec = SystemSpec(2, 1, (1.0, 1.5), (12.0,), (24, 20), dt=0.05)
    x0 = spec.axis_coords[0].reshape(-1, 1)
    x1 = spec.axis_coords[1].reshape(1, -1)
    rho = normalized_density(spec, np.exp(-0.3 * (x0 - 6.0) ** 2 - 0.4 * (x1 - 5.0) ** 2))
    phase = ScalarField(0.2 * np.sin(2 * np.pi * x0 / 12.0) * np.cos(2 * np.pi * x1 / 12.0), spec)
    state = EpistemicState(rho, phase, np.array([0.3, -0.7]))
    if wave:
        state = WaveField(np.sqrt(rho.values) * np.exp(1j * phase.values), spec)
    every = phase_gradient_arrays(state, range(spec.dim))
    assert len(every) == 2
    for axis in range(2):
        [one] = phase_gradient_arrays(state, (axis,))
        assert one.tobytes() == every[axis].tobytes()
    assert [g.tobytes() for g in phase_gradient_arrays(state, (1, 0))] == [
        every[1].tobytes(), every[0].tobytes()]


def test_fokker_planck_uniform_fixed_point():
    # a uniform density is a fixed point of free diffusion
    spec = spec_1p()
    out = diffuse(ScalarField.constant(spec, 1.0 / spec.volume), 1e-3, 1e-3)
    assert np.max(np.abs(out.values - 1.0 / spec.volume)) < 1e-12


def test_fokker_planck_conserves_mass():
    spec = spec_1p(n=256, box=20.0)
    out = diffuse(gaussian_density(spec, 10.0, 1.5), 5e-4, 5e-4)
    assert abs(quadrature(out) - 1.0) < 1e-12


def test_fokker_planck_stability_error_reports_admissible_dt():
    spec = spec_1p(n=256, box=20.0)
    rho = gaussian_density(spec, 10.0, 1.5)
    with pytest.raises(StateError, match="diffusive") as err:
        diffuse(rho, 0.1, 0.1)
    admissible = admissible_step(err.value)
    assert 0 < admissible < 0.1
    # the reported step must actually be admissible
    dt_pde = admissible * 0.99
    diffuse(rho, dt_pde, dt_pde)


@given(seed=st.integers(0, 2 ** 31))
@settings(max_examples=10, deadline=None)
def test_fokker_planck_mass_conservation_random_states(seed):
    spec = spec_1p(n=128, box=20.0)
    rng = np.random.default_rng(seed)
    x = spec.axis_coords[0]
    bumps = sum(
        rng.uniform(0.2, 1.0) * np.exp(-0.5 * ((x - rng.uniform(4, 16)) / rng.uniform(0.8, 2.0)) ** 2)
        for _ in range(3)
    )
    out = diffuse(normalized_density(spec, bumps + 0.01), 5e-3, 1e-3)
    assert abs(quadrature(out) - 1.0) < 1e-12
    assert float(np.min(out.values)) > -1e-10


def test_entropy_uniform_and_gaussian():
    spec = spec_1p(n=512, box=40.0)
    assert entropy(ScalarField.constant(spec, 1.0 / spec.volume)) == pytest.approx(
        np.log(spec.volume), abs=1e-12
    )
    rho = gaussian_density(spec, 20.0, 1.0)
    assert entropy(rho) == pytest.approx(0.5 * np.log(2 * np.pi * np.e), abs=1e-9)


def test_entropy_single_cell():
    spec = spec_1p(n=64, box=16.0)
    vals = np.zeros(spec.grid_points)
    vals[10] = 1.0 / spec.cell_volume
    assert entropy(ScalarField(vals, spec)) == pytest.approx(np.log(spec.cell_volume), abs=1e-12)


def test_entropy_rate_zero_for_linear_phase():
    spec = spec_1p()
    state = EpistemicState(
        gaussian_density(spec, 10.0, 1.0), ScalarField.constant(spec, 0.0), np.array([0.9])
    )
    assert abs(entropy_rate(state)) < 1e-12


def test_entropy_rate_matches_finite_difference_diffusion():
    # pure diffusion of a Gaussian: S(t) known, rate from the formula must match
    spec = spec_1p(n=512, box=40.0, dt=0.01)
    dt_pde = 1e-3
    t_probe = 0.1
    evolved = diffuse(gaussian_density(spec, 20.0, 1.0), t_probe, dt_pde)
    # the phase of zero drift: -hbar/2 log rho
    phase = ScalarField(-0.5 * spec.hbar * regularized_log_density(evolved), spec)
    rate = entropy_rate(EpistemicState(evolved, phase))

    delta = 2e-3
    fwd = diffuse(evolved, delta, dt_pde)
    # analytic oracle: variance grows linearly, S = 0.5 log(2 pi e s^2)
    s2 = 1.0 + 1.0 * t_probe  # hbar/m = 1
    analytic_rate = 0.5 / s2
    assert rate == pytest.approx(analytic_rate, rel=2e-3)
    fd_rate = (entropy(fwd) - entropy(evolved)) / delta
    assert rate == pytest.approx(fd_rate, rel=5e-3)


@pytest.mark.parametrize("total_time, dt_pde, message", [
    (0.1, 0.0, "dt_pde must be positive"),
    (0.1, float("nan"), "dt_pde must be positive"),
    (-0.1, 1e-3, "must not be negative"),
])
def test_diffuse_rejects_bad_step_parameters(total_time, dt_pde, message):
    spec = spec_1p(n=64)
    with pytest.raises(ValueError, match=message):
        diffuse(gaussian_density(spec, 10.0, 1.5), total_time, dt_pde)
