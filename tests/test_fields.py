import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from red.errors import DensityFloorError, StabilityError
from red.fields import (
    current_velocity,
    diffuse,
    drift_from_phase,
    entropy,
    entropy_rate,
    fokker_planck_step,
    phase_from_drift,
    phase_gradient_arrays,
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


def spec_1p(n=256, box=20.0, dt=0.01, mass=1.0, hbar=1.0):
    return SystemSpec(1, 1, (mass,), (box,), (n,), dt, hbar)


def spec_2p(n=64, box=16.0, dt=0.01, masses=(1.0, 2.0)):
    return SystemSpec(2, 1, masses, (box,), (n, n), dt)


def uniform_state(spec, slope=None):
    rho = ScalarField.constant(spec, 1.0 / spec.volume)
    return EpistemicState(rho, ScalarField.constant(spec, 0.0), slope)


def test_phase_from_drift_uniform():
    # uniform rho: Phi = hbar*(phi + 0.5 log V), constant
    spec = spec_1p()
    rho = ScalarField.constant(spec, 1.0 / spec.volume)
    phi = ScalarField.constant(spec, 2.0)
    phase = phase_from_drift(phi, rho, spec)
    expected = 1.0 * (2.0 + 0.5 * np.log(spec.volume))
    assert np.allclose(phase.values, expected, atol=1e-12)


def test_phase_drift_round_trip():
    spec = spec_1p()
    rho = gaussian_density(spec, 10.0, 1.3)
    x = spec.axis_coords[0]
    phi = ScalarField(np.sin(2 * np.pi * x / 20.0), spec)
    phase = phase_from_drift(phi, rho, spec)
    back = drift_from_phase(phase, rho, spec)
    assert np.max(np.abs(back.values - phi.values)) < 1e-12


def test_phase_from_drift_constant_phi_gives_osmotic_phase():
    spec = spec_1p()
    rho = gaussian_density(spec, 10.0, 1.0)
    phase = phase_from_drift(ScalarField.constant(spec, 0.0), rho, spec)
    assert np.allclose(phase.values, -0.5 * np.log(rho.values), atol=1e-12)


def test_phase_from_drift_floor_error_names_cell():
    spec = spec_1p(n=32)
    vals = np.full(spec.grid_points, 1.0)
    vals[5] = 0.0
    rho = ScalarField(vals, spec)
    with pytest.raises(DensityFloorError, match=r"\(5,\)"):
        phase_from_drift(ScalarField.constant(spec, 0.0), rho, spec)


def test_phase_gradient_handles_wrapped_phase():
    # a lattice-mode phase stored wrapped into one period still differentiates exactly
    spec = spec_1p(n=128)
    x = spec.axis_coords[0]
    k = 2 * np.pi * 3 / 20.0
    wrapped = np.mod(k * x + np.pi, 2 * np.pi) - np.pi
    state = EpistemicState(
        ScalarField.constant(spec, 1.0 / spec.volume), ScalarField(wrapped, spec),
        phase_wrapped=True,
    )
    (g,) = phase_gradient_arrays(state)
    assert np.max(np.abs(g - k)) < 1e-10


def test_current_velocity_slope_and_shift_cancel():
    # Phi = c * sum_n m_n x_n with matching shift gives V = 0 identically
    spec = spec_2p(masses=(1.0, 2.0))
    c = 0.37
    state = uniform_state(spec, slope=c * spec.axis_masses)
    v = current_velocity(state, ShiftVelocity(np.array([c]), spec))
    for comp in v.components:
        assert np.max(np.abs(comp.values)) < 1e-13


def test_current_velocity_mass_scaling():
    spec = spec_2p(masses=(1.0, 2.0))
    state = uniform_state(spec, slope=np.array([1.0, 1.0]))
    v = current_velocity(state, ShiftVelocity.zero(spec))
    assert np.allclose(v.components[0].values, 1.0)
    assert np.allclose(v.components[1].values, 0.5)


def test_fokker_planck_uniform_fixed_point():
    spec = spec_1p()
    state = uniform_state(spec, slope=np.array([0.8]))  # constant velocity
    out = fokker_planck_step(state, ShiftVelocity.zero(spec), 1e-3)
    assert np.max(np.abs(out.values if hasattr(out, 'values') else out.rho.values - state.rho.values)) < 1e-12
    assert out.time == pytest.approx(1e-3)


def test_fokker_planck_advects_gaussian():
    # constant velocity v: center moves by v * dt
    spec = spec_1p(n=512, box=40.0)
    rho = gaussian_density(spec, 20.0, 1.0)
    v = 0.5
    state = EpistemicState(rho, ScalarField.constant(spec, 0.0), np.array([v]))
    dt_pde = 1e-3
    steps = 200
    current = state
    for _ in range(steps):
        current = fokker_planck_step(current, ShiftVelocity.zero(spec), dt_pde)
    x = spec.axis_coords[0]
    center = quadrature(ScalarField(current.rho.values * x, spec))
    assert center == pytest.approx(20.0 + v * steps * dt_pde, abs=1e-8)


def test_fokker_planck_conserves_mass_and_phase():
    spec = spec_1p(n=256, box=20.0)
    rho = gaussian_density(spec, 10.0, 1.5)
    x = spec.axis_coords[0]
    phase = ScalarField(0.3 * np.sin(2 * np.pi * x / 20.0), spec)
    state = EpistemicState(rho, phase)
    out = fokker_planck_step(state, ShiftVelocity(np.array([0.2]), spec), 5e-4)
    assert abs(quadrature(out.rho) - 1.0) < 1e-12
    assert np.array_equal(out.phase.values, phase.values)


def test_fokker_planck_stability_error_reports_admissible_dt():
    spec = spec_1p(n=256, box=20.0)
    state = uniform_state(spec, slope=np.array([50.0]))
    with pytest.raises(StabilityError) as err:
        fokker_planck_step(state, ShiftVelocity.zero(spec), 0.1)
    admissible = err.value.admissible_dt
    assert 0 < admissible < 0.1
    # the reported step must actually be admissible
    fokker_planck_step(state, ShiftVelocity.zero(spec), admissible * 0.99)


def test_fokker_planck_shift_equivariance_second_order():
    # step with shift vs step without shift composed with rigid advection
    from red.model import translate_array

    spec = spec_1p(n=256, box=20.0)
    rho = gaussian_density(spec, 10.0, 1.2)
    x = spec.axis_coords[0]
    phase = ScalarField(0.4 * np.sin(2 * np.pi * x / 20.0), spec)
    state = EpistemicState(rho, phase)
    xi = 0.7

    def mismatch(dt_pde):
        shifted = fokker_planck_step(state, ShiftVelocity(np.array([xi]), spec), dt_pde)
        plain = fokker_planck_step(state, ShiftVelocity.zero(spec), dt_pde)
        advected = translate_array(plain.rho.values, spec, np.array([-xi * dt_pde]))
        return float(np.max(np.abs(shifted.rho.values - advected)))

    coarse, fine = mismatch(2e-3), mismatch(1e-3)
    assert coarse < 1e-6
    assert coarse / fine > 3.0  # second-order in dt_pde


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
    state = EpistemicState(rho, phase_from_drift(drift, rho, spec))
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
    rho = normalized_density(spec, bumps + 0.01)
    phase = ScalarField(0.2 * np.sin(2 * np.pi * x / 20.0), spec)
    state = EpistemicState(rho, phase)
    out = fokker_planck_step(state, ShiftVelocity(np.array([0.1]), spec), 1e-3)
    assert abs(quadrature(out.rho) - 1.0) < 1e-12
    assert float(np.min(out.rho.values)) > -1e-10


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
