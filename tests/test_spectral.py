"""The spectral layer of red.model: oracles against the bare numpy transforms.

The steppers below are frozen copies of the complex-FFT right-hand sides
that hamilton_evolve and diffuse used before they moved to half-spectrum
transforms; the ported integrators must reproduce them to roundoff.
"""

import re
from pathlib import Path

import numpy as np
import pytest

import red
from red.errors import GridError, NumericalAbort, StabilityError
from red.fields import diffuse
from red.model import (
    EpistemicState,
    ScalarField,
    ShiftVelocity,
    SystemSpec,
    divergence_spectrum,
    fftn,
    gradient_arrays,
    ifftn,
    irfftn,
    laplacian_symbol,
    rfftn,
)
from red.presets import gaussian_density, gaussian_state
from red.quantum import Potential, hamilton_evolve

SHAPES = [(8,), (7,), (6, 7), (7, 6), (4, 5, 6), (5, 6, 5)]


def spec_for(shape):
    """One particle in len(shape) spatial dimensions, with unequal box lengths."""
    if len(shape) == 1:
        return SystemSpec(1, 1, (1.3,), (5.0,), shape, dt=0.01)
    if len(shape) == 2:
        return SystemSpec(1, 2, (1.3,), (5.0, 7.0), shape, dt=0.01)
    return SystemSpec(1, 3, (1.3,), (5.0, 7.0, 6.0), shape, dt=0.01)


def complex_derivative(values, spec, axis):
    k = spec.along(axis, spec.derivative_wavenumbers[axis])
    return np.fft.ifftn(1j * k * np.fft.fftn(values)).real


def test_only_the_model_module_names_numpy_fft():
    package = Path(red.__file__).parent
    naming = sorted(path.name for path in package.glob("*.py")
                    if re.search(r"\bnp\.fft\b|\bnumpy\.fft\b", path.read_text()))
    assert naming == ["model.py"]


@pytest.mark.parametrize("shape", [(16, 16, 16, 16), (128, 128), (31, 33), (7,)])
def test_full_transforms_are_the_bare_numpy_calls(shape):
    spec = SystemSpec(len(shape), 1, (1.0,) * len(shape), (5.0,), shape, dt=0.01)
    rng = np.random.default_rng(5)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert np.array_equal(fftn(values, spec), np.fft.fftn(values))
    assert np.array_equal(fftn(values.real, spec), np.fft.fftn(values.real))
    assert np.array_equal(ifftn(values, spec), np.fft.ifftn(values))


def test_along_broadcasts_on_the_grid_and_the_half_spectrum():
    spec = spec_for((4, 5, 6))
    grid_shapes = [(4, 1, 1), (1, 5, 1), (1, 1, 6)]
    for axis, want in enumerate(grid_shapes):
        assert spec.along(axis, spec.axis_coords[axis]).shape == want
        assert spec.mesh()[axis].shape == want
        assert spec.ik[axis].shape == want
    assert spec.along(2, np.arange(4.0)).shape == (1, 1, 4)
    assert [k.shape for k in spec.half_ik] == [(4, 1, 1), (1, 5, 1), (1, 1, 4)]
    assert [k.shape for k in spec.half_k2] == [(4, 1, 1), (1, 5, 1), (1, 1, 4)]
    half = rfftn(np.ones(spec.grid_points), spec)
    assert (spec.half_ik[2] * half).shape == half.shape == (4, 5, 4)


@pytest.mark.parametrize("shape", SHAPES)
def test_real_gradient_matches_complex_transform(shape):
    spec = spec_for(shape)
    values = np.random.default_rng(7).standard_normal(shape)
    grads = gradient_arrays(values, spec)
    assert len(grads) == spec.dim
    for axis, g in enumerate(grads):
        assert g.shape == shape and np.isrealobj(g)
        np.testing.assert_allclose(g, complex_derivative(values, spec, axis), rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", SHAPES)
def test_half_spectrum_round_trip_divergence_and_laplacian(shape):
    spec = spec_for(shape)
    rng = np.random.default_rng(11)
    values = rng.standard_normal(shape)
    np.testing.assert_allclose(irfftn(rfftn(values, spec), spec), values, rtol=0, atol=1e-13)

    fluxes = [rng.standard_normal(shape) for _ in range(spec.dim)]
    expected = sum(complex_derivative(f, spec, axis) for axis, f in enumerate(fluxes))
    got = irfftn(divergence_spectrum(fluxes, spec), spec)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    weights = [0.5 + axis for axis in range(spec.dim)]
    full_symbol = sum(w * spec.along(axis, spec.wavenumbers[axis]) ** 2
                      for axis, w in enumerate(weights))
    expected = np.fft.ifftn(-full_symbol * np.fft.fftn(values)).real
    got = irfftn(-laplacian_symbol(spec, weights) * rfftn(values, spec), spec)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-11 * np.max(full_symbol))


def test_complex_gradient_keeps_complex_path():
    spec = spec_for((6, 7))
    rng = np.random.default_rng(3)
    values = rng.standard_normal((6, 7)) + 1j * rng.standard_normal((6, 7))
    for axis, g in enumerate(gradient_arrays(values, spec)):
        k = spec.along(axis, spec.derivative_wavenumbers[axis])
        assert np.iscomplexobj(g)
        np.testing.assert_array_equal(g, np.fft.ifftn(1j * k * np.fft.fftn(values)))


def test_gradient_rejects_non_finite_arrays():
    spec = spec_for((6, 7))
    values = np.zeros((6, 7))
    values[2, 3] = np.nan
    with pytest.raises(GridError, match="non-finite"):
        gradient_arrays(values, spec)


# ---------------------------------------------------------------- frozen oracles


def complex_hamilton(state, potential, shift, steps, dt_pde):
    """The complex-FFT (rho, Phi) RK4 stepper, frozen as an oracle."""
    spec = state.spec
    u_values = potential.values.values
    inverse_masses = [1.0 / spec.axis_masses[axis] for axis in range(spec.dim)]
    curvature_weights = np.zeros(spec.grid_points)
    for axis in range(spec.dim):
        curvature_weights = curvature_weights + (
            spec.hbar ** 2 / (2.0 * spec.axis_masses[axis])
        ) * spec.along(axis, spec.wavenumbers[axis]) ** 2
    slope = state.phase_slope

    def rates(rho_values, phase_values):
        spectrum = np.fft.fftn(phase_values)
        phase_grads = [
            np.fft.ifftn(1j * spec.along(axis, spec.derivative_wavenumbers[axis]) * spectrum).real
            for axis in range(spec.dim)
        ]
        root = np.sqrt(rho_values)
        bent = np.fft.ifftn(-curvature_weights * np.fft.fftn(root)).real
        rho_rate = np.zeros_like(rho_values)
        phase_rate = -u_values + bent / root
        for axis in range(spec.dim):
            total_grad = phase_grads[axis] + slope[axis]
            relative = total_grad - spec.axis_masses[axis] * shift.per_axis[axis]
            phase_rate = phase_rate - 0.5 * inverse_masses[axis] * relative ** 2
            velocity = total_grad * inverse_masses[axis] - shift.per_axis[axis]
            flux = np.fft.fftn(rho_values * velocity)
            rho_rate = rho_rate - np.fft.ifftn(
                1j * spec.along(axis, spec.derivative_wavenumbers[axis]) * flux
            ).real
        return rho_rate, phase_rate

    rho, phase = state.rho.values, state.phase.values
    for _ in range(steps):
        r1, p1 = rates(rho, phase)
        r2, p2 = rates(rho + 0.5 * dt_pde * r1, phase + 0.5 * dt_pde * p1)
        r3, p3 = rates(rho + 0.5 * dt_pde * r2, phase + 0.5 * dt_pde * p2)
        r4, p4 = rates(rho + dt_pde * r3, phase + dt_pde * p3)
        rho = rho + (dt_pde / 6.0) * (r1 + 2 * r2 + 2 * r3 + r4)
        phase = phase + (dt_pde / 6.0) * (p1 + 2 * p2 + 2 * p3 + p4)
    return rho, phase


def complex_diffuse(rho, drift_phi, shift, steps, dt_pde):
    """The complex-FFT heat-plus-advection RK4 stepper, frozen as an oracle."""
    spec = drift_phi.spec
    drift_grads = [complex_derivative(drift_phi.values, spec, axis) for axis in range(spec.dim)]
    drift_velocity = [
        spec.hbar * drift_grads[axis] / spec.axis_masses[axis] - shift.per_axis[axis]
        for axis in range(spec.dim)
    ]
    osmotic = [0.5 * spec.hbar / spec.axis_masses[axis] for axis in range(spec.dim)]

    def rate(rho_values):
        spectrum = np.fft.fftn(rho_values)
        heat_symbol = np.zeros(spec.grid_points)
        for axis in range(spec.dim):
            heat_symbol = heat_symbol + osmotic[axis] * spec.along(axis, spec.wavenumbers[axis]) ** 2
        out = np.fft.ifftn(-heat_symbol * spectrum).real
        for axis in range(spec.dim):
            flux = np.fft.fftn(rho_values * drift_velocity[axis])
            out -= np.fft.ifftn(1j * spec.along(axis, spec.derivative_wavenumbers[axis]) * flux).real
        return out

    for _ in range(steps):
        k1 = rate(rho)
        k2 = rate(rho + 0.5 * dt_pde * k1)
        k3 = rate(rho + 0.5 * dt_pde * k2)
        k4 = rate(rho + dt_pde * k3)
        rho = rho + (dt_pde / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return rho


def relative_gap(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("grid", [(32, 32), (32, 31), (31, 32)])
def test_hamilton_evolve_matches_complex_oracle(grid):
    spec = SystemSpec(2, 1, (1.0, 2.0), (16.0,), grid, dt=0.05)
    x0, x1 = spec.mesh()
    base = gaussian_state(spec, center=np.array([7.0, 9.0]), sigma=2.0,
                          slope=np.array([2.0 * np.pi / 16.0, 0.0]), uniform_mix=1e-3)
    phase = ScalarField(0.3 * np.sin(2.0 * np.pi * (x0 - x1) / 16.0), spec)
    state = EpistemicState(base.rho, phase, base.phase_slope)
    potential = Potential.from_values(0.2 * np.cos(2.0 * np.pi * (x0 - x1) / 16.0), spec)
    shift = ShiftVelocity(np.array([0.15]), spec)
    dt_pde = 2e-3

    evolved = hamilton_evolve(state, potential, shift, 5 * dt_pde, dt_pde)
    rho, phase = complex_hamilton(state, potential, shift, 5, dt_pde)
    assert relative_gap(evolved.rho.values, rho) <= 1e-12
    assert relative_gap(evolved.phase.values, phase) <= 1e-12


@pytest.mark.parametrize("grid", [(32, 32), (32, 31), (31, 32)])
def test_diffuse_matches_complex_oracle(grid):
    spec = SystemSpec(2, 1, (1.0, 2.0), (16.0,), grid, dt=0.05)
    x0, x1 = spec.mesh()
    rho = gaussian_density(spec, (7.0, 9.0), 1.5)
    state = EpistemicState(rho, ScalarField.constant(spec, 0.0))
    drift = ScalarField(0.4 * np.sin(2.0 * np.pi * (x0 + 2.0 * x1) / 16.0), spec)
    shift = ShiftVelocity(np.array([-0.2]), spec)
    dt_pde = 2e-3

    evolved = diffuse(state, drift, shift, 5 * dt_pde, dt_pde)
    expected = complex_diffuse(rho.values, drift, shift, 5, dt_pde)
    assert relative_gap(evolved.rho.values, expected) <= 1e-12


# ---------------------------------------------------------------- guards
# density underflow and the dispersive bound of hamilton_evolve are covered
# in test_quantum


def test_hamilton_evolve_non_finite_rates_are_caught():
    # a potential this steep overflows the squared phase gradient within a step
    spec = SystemSpec(1, 1, (1.0,), (16.0,), (32,), dt=0.05)
    x = spec.mesh()[0]
    state = gaussian_state(spec, sigma=2.0, uniform_mix=1e-3)
    potential = Potential.from_values(1e300 * np.sin(2.0 * np.pi * x / 16.0), spec)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(GridError, match="non-finite"):
            hamilton_evolve(state, potential, ShiftVelocity.zero(spec), 1e-3, 1e-3)


def diffusion_setup(n=64):
    spec = SystemSpec(1, 1, (1.0,), (16.0,), (n,), dt=0.05)
    state = EpistemicState(gaussian_density(spec, 8.0, 1.5), ScalarField.constant(spec, 0.0))
    return spec, state


def test_diffuse_diffusive_bound_reports_admissible_dt():
    spec, state = diffusion_setup()
    drift = ScalarField.constant(spec, 0.0)
    with pytest.raises(StabilityError, match="diffusive") as info:
        diffuse(state, drift, ShiftVelocity.zero(spec), 0.1, 0.1)
    assert 0.0 < info.value.admissible_dt < 0.1


def test_diffuse_advective_bound_reports_admissible_dt():
    spec, state = diffusion_setup()
    drift = ScalarField.constant(spec, 0.0)
    with pytest.raises(StabilityError, match="advective") as info:
        diffuse(state, drift, ShiftVelocity(np.array([500.0]), spec), 0.01, 0.01)
    assert 0.0 < info.value.admissible_dt < 0.01


def test_diffuse_positivity_monitor_trips_on_a_top_hat():
    # the spectral Laplacian of a discontinuous density rings below zero
    spec, _ = diffusion_setup()
    x = spec.axis_coords[0]
    rho = np.where(np.abs(x - 8.0) < 2.0, 1.0, 0.0)
    state = EpistemicState(ScalarField(rho / (np.sum(rho) * spec.cell_volume), spec),
                           ScalarField.constant(spec, 0.0))
    drift = ScalarField.constant(spec, 0.0)
    with pytest.raises(NumericalAbort, match="positivity"):
        diffuse(state, drift, ShiftVelocity.zero(spec), 1e-3, 1e-3)
