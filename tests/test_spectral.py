"""The spectral layer of red.model: oracles against the bare numpy transforms.

Every first derivative is a one-axis transform pair, and the only n-D
real transforms are the multiplies by laplacian_symbol, which is pinned
bitwise to a frozen copy of its |k|^2 half-spectrum form.  The stepper
below is a frozen copy of the complex-FFT right-hand side that
hamilton_evolve used before it moved to real transforms; the integrator
must reproduce it to roundoff, and one of its steps is bitwise the same
step spelled out with one-axis derivatives.  diffuse, the exact grid
heat flow, is pinned to the closed-form heat kernel of a wrapped Gaussian
and to the semigroup law.
"""

import re
from pathlib import Path

import numpy as np
import pytest

import red
from helpers import normalized_density
from red.errors import NumericalAbort, StateError
from red.fields import diffuse
from red.model import (
    EpistemicState,
    ScalarField,
    ShiftVelocity,
    SystemSpec,
    fftn,
    gradient_arrays,
    ifftn,
    irfftn,
    laplacian_symbol,
    rfftn,
    rk4_step,
)
from red.presets import gaussian_density, gaussian_state
from red.quantum import Potential, hamilton_evolve

SHAPES = [(8,), (7,), (6, 7), (7, 6), (4, 5, 6), (5, 6, 5)]


def floored_state(state, floor=1e-3):
    """state with a flat floor mixed into its density, so sqrt(rho) never underflows."""
    spec = state.spec
    rho = normalized_density(spec, (1.0 - floor) * state.rho.values + floor / spec.volume)
    return EpistemicState(rho, state.phase, state.phase_slope)


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
    assert spec.along(2, np.arange(4.0)).shape == (1, 1, 4)
    half = rfftn(np.ones(spec.grid_points), spec)
    assert laplacian_symbol(spec, [1.0, 2.0, 3.0]).shape == half.shape == (4, 5, 4)


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
def test_half_spectrum_round_trip_and_laplacian(shape):
    spec = spec_for(shape)
    rng = np.random.default_rng(11)
    values = rng.standard_normal(shape)
    np.testing.assert_allclose(irfftn(rfftn(values, spec), spec), values, rtol=0, atol=1e-13)

    weights = [0.5 + axis for axis in range(spec.dim)]
    full_symbol = sum(w * spec.along(axis, spec.wavenumbers[axis]) ** 2
                      for axis, w in enumerate(weights))
    expected = np.fft.ifftn(-full_symbol * np.fft.fftn(values)).real
    got = irfftn(-laplacian_symbol(spec, weights) * rfftn(values, spec), spec)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-11 * np.max(full_symbol))


def frozen_laplacian_symbol(spec, axis_weights):
    """laplacian_symbol's |k|^2 form, frozen: the last axis keeps |k| of its g//2 + 1 leading bins."""
    half_k2 = []
    for axis, k in enumerate(spec.wavenumbers):
        if axis == spec.dim - 1:
            k = np.abs(k[: spec.grid_points[axis] // 2 + 1])
        half_k2.append(spec.along(axis, k) ** 2)
    return sum(w * k2 for w, k2 in zip(axis_weights, half_k2))


@pytest.mark.parametrize("shape", [(512,), (7,), (32, 31), (31, 32), (6, 7, 8), (16, 16, 16, 16),
                                   (128, 128)])
def test_laplacian_symbol_is_bitwise_the_abs_k_form(shape):
    # an even last axis ends on the Nyquist bin, which fftfreq makes negative
    spec = SystemSpec(len(shape), 1, tuple(1.0 + 0.7 * n for n in range(len(shape))), (40.0,),
                      shape, dt=0.01, hbar=0.9)
    for weights in ([0.5 * spec.hbar / m for m in spec.axis_masses],
                    spec.hbar ** 2 / (2.0 * spec.axis_masses)):
        got = laplacian_symbol(spec, weights)
        want = frozen_laplacian_symbol(spec, weights)
        assert got.shape == want.shape == rfftn(np.zeros(shape), spec).shape
        np.testing.assert_array_equal(got, want)


def one_axis_derivative(values, spec, axis):
    """d_A f from a forward and an inverse transform along A alone, times the 1-D i*k_A."""
    g = spec.grid_points[axis]
    k = spec.derivative_wavenumbers[axis]
    if np.isrealobj(values):
        spectrum = np.fft.rfftn(values, axes=(axis,))
        return np.fft.irfftn(spec.along(axis, 1j * k[: g // 2 + 1]) * spectrum, s=(g,), axes=(axis,))
    spectrum = np.fft.fftn(values, axes=(axis,))
    return np.fft.ifftn(spec.along(axis, 1j * k) * spectrum, axes=(axis,))


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("shape", [(7,), (6, 7), (4, 6, 5, 8)])
def test_gradient_is_the_one_axis_pair_and_matches_the_nd_derivative(shape, kind):
    spec = (SystemSpec(2, 2, (1.3, 0.7), (5.0, 7.0), shape, dt=0.01) if len(shape) == 4
            else spec_for(shape))
    rng = np.random.default_rng(13)
    values = rng.standard_normal(shape)
    if kind == "complex":
        values = values + 1j * rng.standard_normal(shape)
    grads = gradient_arrays(values, spec)
    assert len(grads) == spec.dim
    for axis, g in enumerate(grads):
        assert g.shape == shape and np.iscomplexobj(g) == (kind == "complex")
        np.testing.assert_array_equal(g, one_axis_derivative(values, spec, axis))
        k = spec.along(axis, spec.derivative_wavenumbers[axis])
        want = np.fft.ifftn(1j * k * np.fft.fftn(values))
        want = want.real if kind == "real" else want
        np.testing.assert_allclose(g, want, rtol=0, atol=1e-13 * float(np.max(np.abs(want))))


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


def relative_gap(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("grid", [(32, 32), (32, 31), (31, 32)])
def test_hamilton_evolve_matches_complex_oracle(grid):
    spec = SystemSpec(2, 1, (1.0, 2.0), (16.0,), grid, dt=0.05)
    x0, x1 = spec.mesh()
    base = floored_state(gaussian_state(spec, center=np.array([7.0, 9.0]), sigma=2.0,
                                        slope=np.array([2.0 * np.pi / 16.0, 0.0])))
    phase = ScalarField(0.3 * np.sin(2.0 * np.pi * (x0 - x1) / 16.0), spec)
    state = EpistemicState(base.rho, phase, base.phase_slope)
    potential = Potential.from_values(0.2 * np.cos(2.0 * np.pi * (x0 - x1) / 16.0), spec)
    shift = ShiftVelocity(np.array([0.15]), spec)
    dt_pde = 2e-3

    evolved = hamilton_evolve(state, potential, shift, 5 * dt_pde, dt_pde)
    rho, phase = complex_hamilton(state, potential, shift, 5, dt_pde)
    assert relative_gap(evolved.rho.values, rho) <= 1e-12
    assert relative_gap(evolved.phase.values, phase) <= 1e-12


DIFFUSION_CASES = pytest.mark.parametrize("spec, center, sigma", [
    # mcfp's density flow, and a heavier particle on its grid
    (SystemSpec(1, 1, (1.0,), (40.0,), (512,), dt=0.01), 20.0, 1.0),
    (SystemSpec(1, 1, (2.0,), (40.0,), (512,), dt=0.01), 20.0, 1.0),
    (SystemSpec(2, 1, (1.0, 2.0), (16.0,), (32, 31), dt=0.05), (7.0, 9.0), 1.5),
    (SystemSpec(2, 1, (1.0, 2.0), (16.0,), (31, 32), dt=0.05), (7.0, 9.0), 1.5),
], ids=["512", "512-mass2", "32x31", "31x32"])


@DIFFUSION_CASES
def test_diffuse_is_the_closed_form_heat_kernel(spec, center, sigma):
    # a wrapped Gaussian stays one under free diffusion, its variance growing by
    # hbar t / m_A on axis A
    rho = gaussian_density(spec, center, sigma)
    evolved = diffuse(rho, 1.0)
    widths = np.sqrt(sigma ** 2 + spec.hbar * 1.0 / spec.axis_masses)
    assert relative_gap(evolved.values, gaussian_density(spec, center, widths).values) <= 1e-14


@DIFFUSION_CASES
def test_diffuse_is_a_semigroup_that_starts_at_rho(spec, center, sigma):
    rho = gaussian_density(spec, center, sigma)
    once = diffuse(rho, 0.7).values
    assert relative_gap(diffuse(diffuse(rho, 0.2), 0.5).values, once) <= 1e-14
    assert relative_gap(diffuse(rho, 0.0).values, rho.values) <= 1e-14


# ---------------------------------------------------------------- guards
# density underflow and the dispersive bound of hamilton_evolve are covered
# in test_quantum


def one_axis_hamilton_step(state, potential, shift, dt_pde):
    """One hamilton_evolve RK4 step, each first derivative spelled out as a one-axis pair."""
    spec = state.spec
    shape, axes = spec.grid_points, tuple(range(spec.dim))
    curvature_symbol = laplacian_symbol(spec, spec.hbar ** 2 / (2.0 * spec.axis_masses))
    inverse_masses = [1.0 / spec.axis_masses[axis] for axis in range(spec.dim)]
    slope = state.phase_slope

    def rates(rho_values, phase_values):
        root = np.sqrt(rho_values)
        bent = np.fft.irfftn(-curvature_symbol * np.fft.rfftn(root), s=shape, axes=axes)
        phase_rate = -potential.values.values + bent / root
        rho_rate = 0.0
        for axis in range(spec.dim):
            total_grad = one_axis_derivative(phase_values, spec, axis) + slope[axis]
            relative = total_grad - spec.axis_masses[axis] * shift.per_axis[axis]
            phase_rate = phase_rate - 0.5 * inverse_masses[axis] * relative ** 2
            velocity = total_grad * inverse_masses[axis] - shift.per_axis[axis]
            rho_rate = rho_rate - one_axis_derivative(rho_values * velocity, spec, axis)
        return rho_rate, phase_rate

    return rk4_step(rates, (state.rho.values, state.phase.values), dt_pde)


@pytest.mark.parametrize("grid", [(12, 10), (11, 9)])
def test_hamilton_evolve_step_is_bitwise_the_one_axis_form(grid):
    spec = SystemSpec(2, 1, (1.0, 2.0), (16.0,), grid, dt=0.05)
    x0, x1 = spec.mesh()
    base = floored_state(gaussian_state(spec, center=np.array([7.0, 9.0]), sigma=2.0,
                                        slope=np.array([2.0 * np.pi / 16.0, 0.0])))
    phase = ScalarField(0.3 * np.sin(2.0 * np.pi * (x0 - x1) / 16.0), spec)
    state = EpistemicState(base.rho, phase, base.phase_slope)
    potential = Potential.from_values(0.2 * np.cos(2.0 * np.pi * (x0 - x1) / 16.0), spec)
    shift = ShiftVelocity(np.array([0.15]), spec)
    evolved = hamilton_evolve(state, potential, shift, 2e-3, 2e-3)
    rho, phase = one_axis_hamilton_step(state, potential, shift, 2e-3)
    np.testing.assert_array_equal(evolved.rho.values, rho)
    np.testing.assert_array_equal(evolved.phase.values, phase)


def test_hamilton_evolve_non_finite_rates_are_caught():
    # a potential this steep overflows the squared phase gradient within a step
    spec = SystemSpec(1, 1, (1.0,), (16.0,), (32,), dt=0.05)
    x = spec.mesh()[0]
    state = floored_state(gaussian_state(spec, sigma=2.0))
    potential = Potential.from_values(1e300 * np.sin(2.0 * np.pi * x / 16.0), spec)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(StateError, match="non-finite"):
            hamilton_evolve(state, potential, ShiftVelocity.zero(spec), 1e-3, 1e-3)


def test_diffuse_positivity_monitor_trips_on_a_top_hat():
    # the grid heat flow of a discontinuous density rings below zero (to -7e-4 here)
    spec = SystemSpec(1, 1, (1.0,), (16.0,), (64,), dt=0.05)
    x = spec.axis_coords[0]
    rho = np.where(np.abs(x - 8.0) < 2.0, 1.0, 0.0)
    with pytest.raises(NumericalAbort, match="positivity"):
        diffuse(ScalarField(rho / (np.sum(rho) * spec.cell_volume), spec), 1e-3)
