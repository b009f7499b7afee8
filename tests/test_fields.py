import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import translate_array
from red.errors import StabilityError
from red.fields import (
    diffuse,
    entropy,
    entropy_rate,
    osmotic_phase,
    phase_gradient_arrays,
    state_drift_potential,
)
from red.model import (
    EpistemicState,
    ScalarField,
    ShiftVelocity,
    SystemSpec,
    normalized_density,
    quadrature,
)
from red.presets import gaussian_density, gaussian_state
from red.quantum import WaveField, from_wavefunction


def spec_1p(n=256, box=20.0, dt=0.01, mass=1.0, hbar=1.0):
    return SystemSpec(1, 1, (mass,), (box,), (n,), dt, hbar)


def uniform_state(spec):
    rho = ScalarField.constant(spec, 1.0 / spec.volume)
    return EpistemicState(rho, ScalarField.constant(spec, 0.0))


def sine_drift(spec, amplitude):
    x = spec.axis_coords[0]
    return ScalarField(amplitude * np.sin(2 * np.pi * x / spec.box_length[0]), spec)


def test_osmotic_phase_uniform():
    # uniform rho: Phi = hbar*(phi + 0.5 log V), constant
    spec = spec_1p()
    rho = ScalarField.constant(spec, 1.0 / spec.volume)
    phase = osmotic_phase(ScalarField.constant(spec, 2.0), rho, spec)
    expected = 1.0 * (2.0 + 0.5 * np.log(spec.volume))
    assert np.allclose(phase.values, expected, atol=1e-12)


def test_phase_drift_round_trip():
    spec = spec_1p()
    rho = gaussian_density(spec, 10.0, 1.3)
    phi = sine_drift(spec, 1.0)
    grid, slope = state_drift_potential(EpistemicState(rho, osmotic_phase(phi, rho, spec)))
    assert np.max(np.abs(grid.values - phi.values)) < 1e-12
    assert np.array_equal(slope, [0.0])


def test_osmotic_phase_of_constant_drift_is_minus_half_log_rho():
    # exact wherever the density is above OSMOTIC_EXACT of its peak
    spec = spec_1p()
    rho = gaussian_density(spec, 10.0, 1.0)
    phase = osmotic_phase(ScalarField.constant(spec, 0.0), rho, spec)
    exact = rho.values > 1e-8 * float(np.max(rho.values))
    assert np.allclose(phase.values[exact], -0.5 * np.log(rho.values[exact]), atol=1e-12)


def test_phase_gradient_handles_wrapped_phase():
    # a lattice-mode phase stored wrapped into one period still differentiates exactly
    spec = spec_1p(n=128)
    x = spec.axis_coords[0]
    k = 2 * np.pi * 3 / 20.0
    wave = WaveField(np.exp(1j * k * x) / np.sqrt(spec.volume), spec)
    state = from_wavefunction(wave)
    assert state.phase_wrapped
    assert state.phase is None  # the state keeps the wave, not a phase grid
    assert np.max(np.abs(np.angle(state.wave_values))) > 0.9 * np.pi  # whose phase wraps
    (g,) = phase_gradient_arrays(state)
    assert np.max(np.abs(g - k)) < 1e-10


def test_fokker_planck_uniform_fixed_point():
    # a uniform density only translates under a constant shift
    spec = spec_1p()
    out = diffuse(uniform_state(spec), ScalarField.constant(spec, 0.0),
                  ShiftVelocity(np.array([0.8]), spec), 1e-3, 1e-3)
    assert np.max(np.abs(out.rho.values - 1.0 / spec.volume)) < 1e-12
    assert out.time == pytest.approx(1e-3)


def test_fokker_planck_advects_gaussian():
    # shift -v moves the center by v * t; spreading leaves the center alone
    spec = spec_1p(n=512, box=40.0)
    state = EpistemicState(gaussian_density(spec, 20.0, 1.0), ScalarField.constant(spec, 0.0))
    v, total_time = 0.5, 0.2
    out = diffuse(state, ScalarField.constant(spec, 0.0), ShiftVelocity(np.array([-v]), spec),
                  total_time, 1e-3)
    x = spec.axis_coords[0]
    center = quadrature(ScalarField(out.rho.values * x, spec))
    assert center == pytest.approx(20.0 + v * total_time, abs=1e-8)


def test_fokker_planck_conserves_mass_and_phase():
    # diffuse hands back the osmotic phase of its own final density
    spec = spec_1p(n=256, box=20.0)
    state = EpistemicState(gaussian_density(spec, 10.0, 1.5), ScalarField.constant(spec, 0.0))
    drift = sine_drift(spec, 0.3)
    out = diffuse(state, drift, ShiftVelocity(np.array([0.2]), spec), 5e-4, 5e-4)
    assert abs(quadrature(out.rho) - 1.0) < 1e-12
    assert np.array_equal(out.phase.values, osmotic_phase(drift, out.rho, spec).values)


def test_fokker_planck_stability_error_reports_admissible_dt():
    spec = spec_1p(n=256, box=20.0)
    state = EpistemicState(gaussian_density(spec, 10.0, 1.5), ScalarField.constant(spec, 0.0))
    drift = ScalarField.constant(spec, 0.0)
    shift = ShiftVelocity(np.array([50.0]), spec)
    with pytest.raises(StabilityError) as err:
        diffuse(state, drift, shift, 0.1, 0.1)
    admissible = err.value.admissible_dt
    assert 0 < admissible < 0.1
    # the reported step must actually be admissible
    dt_pde = admissible * 0.99
    diffuse(state, drift, shift, dt_pde, dt_pde)


def test_fokker_planck_shift_equivariance_second_order():
    # a step with shift vs a step without it composed with rigid advection
    spec = spec_1p(n=256, box=20.0)
    state = EpistemicState(gaussian_density(spec, 10.0, 1.2), ScalarField.constant(spec, 0.0))
    drift = sine_drift(spec, 0.4)
    xi = 0.7

    def mismatch(dt_pde):
        shifted = diffuse(state, drift, ShiftVelocity(np.array([xi]), spec), dt_pde, dt_pde)
        plain = diffuse(state, drift, ShiftVelocity.zero(spec), dt_pde, dt_pde)
        advected = translate_array(plain.rho.values, spec, np.array([-xi * dt_pde]))
        return float(np.max(np.abs(shifted.rho.values - advected)))

    coarse, fine = mismatch(2e-3), mismatch(1e-3)
    assert coarse < 1e-6
    assert coarse / fine > 3.0  # second-order in dt_pde


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
    state = EpistemicState(normalized_density(spec, bumps + 0.01), ScalarField.constant(spec, 0.0))
    out = diffuse(state, sine_drift(spec, 0.2), ShiftVelocity(np.array([0.1]), spec), 5e-3, 1e-3)
    assert abs(quadrature(out.rho) - 1.0) < 1e-12
    assert float(np.min(out.rho.values)) > -1e-10


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
    drift = ScalarField.constant(spec, 0.0)
    rho = gaussian_density(spec, 20.0, 1.0)
    state = EpistemicState(rho, osmotic_phase(drift, rho, spec))
    shift = ShiftVelocity.zero(spec)

    dt_pde = 1e-3
    t_probe = 0.1
    # diffuse hands back a state carrying the phase of its own density
    evolved = diffuse(state, drift, shift, t_probe, dt_pde)
    rate = entropy_rate(evolved)

    delta = 2e-3
    fwd = diffuse(evolved, drift, shift, delta, dt_pde)
    # analytic oracle: variance grows linearly, S = 0.5 log(2 pi e s^2)
    s2 = 1.0 + 1.0 * t_probe  # hbar/m = 1
    analytic_rate = 0.5 / s2
    assert rate == pytest.approx(analytic_rate, rel=2e-3)
    fd_rate = (entropy(fwd.rho) - entropy(evolved.rho)) / delta
    assert rate == pytest.approx(fd_rate, rel=5e-3)


@pytest.mark.parametrize("total_time, dt_pde, message", [
    (0.1, 0.0, "dt_pde must be positive"),
    (0.1, float("nan"), "dt_pde must be positive"),
    (-0.1, 1e-3, "must not be negative"),
])
def test_diffuse_rejects_bad_step_parameters(total_time, dt_pde, message):
    spec = spec_1p(n=64)
    state = EpistemicState(gaussian_density(spec, 10.0, 1.5), ScalarField.constant(spec, 0.0))
    drift = ScalarField.constant(spec, 0.0)
    with pytest.raises(ValueError, match=message):
        diffuse(state, drift, ShiftVelocity.zero(spec), total_time, dt_pde)


def test_diffuse_time_comes_from_the_step_index():
    # a running sum of 100 * 1e-3 gives 0.10000000000000007
    spec = spec_1p(n=64)
    state = EpistemicState(gaussian_density(spec, 10.0, 1.5), ScalarField.constant(spec, 0.0))
    drift = ScalarField.constant(spec, 0.0)
    evolved = diffuse(state, drift, ShiftVelocity.zero(spec), 0.1, 1e-3)
    assert evolved.time == 0.1
