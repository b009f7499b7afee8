"""Wavefunction round trips, split-step evolution, Hamiltonian stepping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import admissible_step, normalized_density, shifted_kinetic_symbol, translate_array
from red.errors import NumericalAbort, StateError
from red.fields import alive_cells, phase_gradient_arrays
from red.geometry import ensemble_hamiltonian_h0, total_momentum
from red.model import (
    EpistemicState,
    ScalarField,
    ShiftVelocity,
    SystemSpec,
    quadrature,
)
from red.presets import (
    gaussian_state,
    harmonic_external_values,
    harmonic_relational_values,
    lattice_momentum,
    minimal_image_difference,
)
from red.quantum import (
    Potential,
    WaveField,
    ehrenfest_diagnostic,
    ehrenfest_force,
    expected_momentum,
    hamilton_evolve,
    schrodinger_evolve,
    to_wavefunction,
    total_energy,
)

SPEC_1D = SystemSpec(1, 1, (1.0,), (16.0,), (64,), dt=0.05)
SPEC_2P = SystemSpec(2, 1, (1.0, 2.0), (16.0,), (64, 64), dt=0.05)


def floored_state(state, floor=1e-3):
    """state with a flat floor mixed into its density, so sqrt(rho) never underflows."""
    spec = state.spec
    rho = normalized_density(spec, (1.0 - floor) * state.rho.values + floor / spec.volume)
    return EpistemicState(rho, state.phase, state.phase_slope)


def centered_spring(spec, k):
    """The external harmonic potential along axis 0, centered in the box."""
    return harmonic_external_values(spec, k, 0, spec.axis_box[0] / 2.0)


def packet_wave(spec, centers, sigmas, modes, weights=None):
    """Sum over particles of Gaussian amplitudes with lattice plane-wave factors.

    Amplitudes (not densities) are summed over periodic images, so the
    result is entire and its spectrum is dead at the grid edge; square
    roots of image-summed densities are not (their complex branch points
    sit only pi/L off the real axis).
    """
    mesh = spec.mesh()
    values = np.ones(spec.grid_points, dtype=complex)
    for axis in range(spec.dim):
        x = mesh[axis]
        box = spec.axis_box[axis]
        envelope = np.zeros_like(x)
        for image in (-1, 0, 1):
            envelope += np.exp(-0.25 * ((x - centers[axis] + image * box) / sigmas[axis]) ** 2)
        k = 2.0 * np.pi * modes[axis] / box
        values = values * envelope * np.exp(1j * k * x)
    norm = np.sqrt(np.sum(np.abs(values) ** 2) * spec.cell_volume)
    return WaveField(values / norm, spec)


def test_wave_field_rejects_bad_norm_and_shape():
    with pytest.raises(StateError):
        WaveField(np.ones(SPEC_1D.grid_points, dtype=complex), SPEC_1D)
    with pytest.raises(StateError):
        WaveField(np.ones(32, dtype=complex), SPEC_1D)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf), complex(np.nan, 0.0)])
def test_wave_field_names_non_finite_values_before_the_norm(bad):
    values = np.full(SPEC_1D.grid_points, SPEC_1D.volume ** -0.5, dtype=complex)
    values[3] = bad
    with pytest.raises(StateError, match="^wave values must be finite$"):
        WaveField(values, SPEC_1D)


def test_wave_field_norm_message_for_finite_values():
    unit = np.full(SPEC_1D.grid_points, SPEC_1D.volume ** -0.5, dtype=complex)
    with pytest.raises(StateError, match=r"^wave norm is 4\.0, expected 1 within 1e-10$"):
        WaveField(2.0 * unit, SPEC_1D)
    # finite values whose norm overflows are a norm error, not a finiteness one
    with pytest.raises(StateError, match="^wave norm is inf, expected 1 within 1e-10$"):
        WaveField(1e200 * unit, SPEC_1D)
    WaveField(unit * (1.0 + 4e-11), SPEC_1D)


def test_wavefunction_round_trip_preserves_density_and_phase():
    spec = SPEC_1D
    slope = np.array([lattice_momentum(spec, 0, 2)])
    state = gaussian_state(spec, sigma=1.5, slope=slope)
    x = spec.mesh()[0]
    phase = ScalarField(0.1 * np.sin(2.0 * np.pi * x / spec.axis_box[0]), spec)
    state = EpistemicState(state.rho, phase, slope)

    wave = to_wavefunction(state)

    np.testing.assert_allclose(wave.rho.values, state.rho.values, rtol=1e-12, atol=1e-300)
    # phases can only agree modulo 2 pi hbar; compare on the circle, away
    # from the masked tail cells
    total_in = state.phase.values + slope[0] * x
    alive = alive_cells(wave.rho.values)
    back_phase = spec.hbar * np.angle(wave.values)
    mismatch = np.exp(1j * (back_phase - total_in)[alive] / spec.hbar)
    assert np.max(np.abs(mismatch - 1.0)) < 1e-10


def test_wavefunction_masks_dead_tail_cells():
    wave = to_wavefunction(gaussian_state(SPEC_1D, sigma=0.9))
    alive = alive_cells(wave.rho.values)
    masked = int(np.sum(~alive))
    assert 0 < masked < SPEC_1D.grid_points[0] // 2
    # dead cells get gradient exactly zero
    (grad,) = phase_gradient_arrays(wave, range(SPEC_1D.dim))
    assert np.all(grad[~alive] == 0.0)


def test_to_wavefunction_rejects_non_lattice_slope():
    state = gaussian_state(SPEC_1D, sigma=1.5, slope=np.array([0.3]))
    with pytest.raises(StateError):
        to_wavefunction(state)


def test_kinetic_symbol_vanishes_on_matched_mode():
    spec = SPEC_1D
    p = lattice_momentum(spec, 0, 3)
    shift = ShiftVelocity(np.array([p / spec.masses[0]]), spec)
    symbol = shifted_kinetic_symbol(spec, shift)
    mode = np.argmin(np.abs(spec.wavenumbers[0] - p / spec.hbar))
    assert symbol[mode] == pytest.approx(0.0, abs=1e-14)
    assert np.min(symbol) == pytest.approx(0.0, abs=1e-14)


def test_matched_shift_plane_wave_is_stationary():
    spec = SPEC_1D
    p = lattice_momentum(spec, 0, 3)
    rho = ScalarField.constant(spec, 1.0 / spec.volume)
    state = EpistemicState(rho, ScalarField.constant(spec, 0.0), np.array([p]))
    wave = to_wavefunction(state)
    shift = ShiftVelocity(np.array([p / spec.masses[0]]), spec)
    evolved = schrodinger_evolve(wave, Potential.free(spec), shift, 2.0, 0.1)
    assert evolved.time == pytest.approx(2.0)
    assert np.max(np.abs(evolved.values - wave.values)) < 1e-12


def test_free_packet_spreading_law():
    # density variance grows as sigma^2 (1 + (hbar t / 2 m sigma^2)^2);
    # the free split step is exact per mode, so only the discretization
    # of the initial packet limits the agreement
    spec = SystemSpec(1, 1, (1.0,), (40.0,), (160,), dt=0.05)
    sigma0 = 2.0
    state = gaussian_state(spec, sigma=sigma0)
    wave = to_wavefunction(state)
    x = spec.mesh()[0]
    center = spec.axis_box[0] / 2.0

    for t in (2.0, 4.0):
        evolved = schrodinger_evolve(wave, Potential.free(spec), ShiftVelocity.zero(spec), t, 0.5)
        rho = np.abs(evolved.values) ** 2
        variance = float(np.sum(rho * (x - center) ** 2) * spec.cell_volume)
        expected = sigma0 ** 2 * (1.0 + (spec.hbar * t / (2.0 * spec.masses[0] * sigma0 ** 2)) ** 2)
        assert variance == pytest.approx(expected, rel=1e-9)


def test_boost_equivalence_free_particle():
    # evolving in a frame shifted at constant velocity must give the lab
    # density translated by the accumulated displacement
    spec = SPEC_1D
    state = gaussian_state(spec, sigma=1.5)
    wave = to_wavefunction(state)
    potential = Potential.free(spec)
    rate, t = 0.5, 2.0  # displacement 1.0 is a whole number of cells

    lab = schrodinger_evolve(wave, potential, ShiftVelocity.zero(spec), t, 0.05)
    moving = schrodinger_evolve(wave, potential, ShiftVelocity(np.array([rate]), spec), t, 0.05)

    lab_rho = np.abs(lab.values) ** 2
    moving_rho = np.abs(moving.values) ** 2
    expected = translate_array(lab_rho, spec, np.array([-rate * t]))
    np.testing.assert_allclose(moving_rho, expected, rtol=0, atol=1e-13)


def test_boost_equivalence_with_relational_potential():
    # exactness needs both factors spectrally dead at the grid edge: an
    # entire amplitude and a band-limited difference potential; the
    # minimal-image harmonic's seam kink would leak at the 1e-6 level
    spec = SPEC_2P
    wave = packet_wave(spec, centers=(6.0, 10.0), sigmas=(1.2, 1.4), modes=(2, -1))
    diff = minimal_image_difference(spec, 0, 1)
    values = 0.4 * np.cos(2.0 * np.pi * 2.0 * diff / spec.axis_box[0])
    potential = Potential.from_values(values, spec, relational_flag=True)
    rate, t = 0.5, 1.0

    lab = schrodinger_evolve(wave, potential, ShiftVelocity.zero(spec), t, 2e-3)
    moving = schrodinger_evolve(wave, potential, ShiftVelocity(np.array([rate]), spec), t, 2e-3)

    displacement = -rate * t * np.ones(spec.dim)
    expected = translate_array(np.abs(lab.values) ** 2, spec, displacement)
    np.testing.assert_allclose(np.abs(moving.values) ** 2, expected, rtol=0, atol=1e-13)


def translation_deviation(values, cells):
    """max |U(x + c) - U(x)| over global translations by each whole number of cells in `cells`."""
    return max(float(np.max(np.abs(np.roll(values, (c, c), axis=(0, 1)) - values))) for c in cells)


def test_relational_potentials_are_translation_invariant():
    spec = SPEC_2P
    cells = np.random.default_rng(7).integers(0, 64, size=16)
    # built from periodic relative coordinates: bitwise invariant
    assert translation_deviation(harmonic_relational_values(spec, 0.3), cells) == 0.0
    assert translation_deviation(centered_spring(spec, 0.3), cells) > 1.0
    assert translation_deviation(np.full(spec.grid_points, 2.5), cells[:4]) < 1e-10


def test_momentum_conserved_exactly_for_band_limited_difference_potential():
    spec = SPEC_2P
    wave = packet_wave(spec, centers=(6.0, 10.0), sigmas=(1.2, 1.4), modes=(2, -1))
    diff = minimal_image_difference(spec, 0, 1)
    potential = Potential.from_values(
        0.4 * np.cos(2.0 * np.pi * 2.0 * diff / spec.axis_box[0]), spec, relational_flag=True
    )
    before = expected_momentum(wave)
    assert before[0] == pytest.approx(
        lattice_momentum(spec, 0, 2) + lattice_momentum(spec, 1, -1), rel=1e-10
    )
    evolved = schrodinger_evolve(wave, potential, ShiftVelocity.zero(spec), 0.25, 5e-3)
    np.testing.assert_allclose(expected_momentum(evolved), before, rtol=0, atol=1e-12)
    norm = float(np.sum(np.abs(evolved.values) ** 2) * spec.cell_volume)
    assert norm == pytest.approx(1.0, abs=1e-13)


def test_momentum_constraint_holds_on_zero_momentum_subspace():
    # with the kinked minimal-image harmonic the product U*psi wraps the
    # spectrum and a moving packet leaks momentum at ~1e-8; on the mirror
    # symmetric zero-momentum subspace the wrapped transfers cancel
    spec = SystemSpec(2, 1, (1.0, 1.0), (16.0,), (64, 64), dt=0.05)
    left = packet_wave(spec, centers=(6.0, 10.0), sigmas=(1.2, 1.2), modes=(2, -2))
    potential = Potential.from_values(
        harmonic_relational_values(spec, 0.3), spec, relational_flag=True
    )
    assert abs(expected_momentum(left)[0]) < 1e-13
    evolved = schrodinger_evolve(left, potential, ShiftVelocity.zero(spec), 0.5, 5e-3)
    assert abs(expected_momentum(evolved)[0]) < 1e-10


@settings(max_examples=20, deadline=None)
@given(
    mode=st.integers(min_value=1, max_value=5),
    amplitude=st.floats(min_value=-1.0, max_value=1.0),
    offset=st.floats(min_value=0.0, max_value=2.0 * np.pi),
    k1=st.integers(min_value=-2, max_value=2),
    k2=st.integers(min_value=-2, max_value=2),
)
def test_any_difference_potential_conserves_momentum(mode, amplitude, offset, k1, k2):
    spec = SPEC_2P
    diff = minimal_image_difference(spec, 0, 1)
    values = amplitude * np.cos(2.0 * np.pi * mode * diff / spec.axis_box[0] + offset)
    potential = Potential.from_values(values, spec, relational_flag=True)
    assert translation_deviation(values, np.random.default_rng(0).integers(0, 64, size=4)) < 1e-10

    wave = packet_wave(spec, centers=(6.0, 10.0), sigmas=(1.2, 1.4), modes=(k1, k2))
    before = expected_momentum(wave)
    evolved = schrodinger_evolve(wave, potential, ShiftVelocity.zero(spec), 6e-3, 2e-3)
    np.testing.assert_allclose(expected_momentum(evolved), before, rtol=0, atol=1e-12)


def test_expected_momentum_matches_gradient_form_and_field_form():
    # box chosen so the slope 0.7 per axis is the mode-2 lattice momentum
    box = 4.0 * np.pi / 0.7
    spec = SystemSpec(2, 1, (1.0, 1.0), (box,), (64, 64), dt=0.05)
    state = gaussian_state(spec, sigma=1.8, slope=np.array([0.7, 0.7]))
    wave = to_wavefunction(state)

    assert expected_momentum(wave)[0] == pytest.approx(1.4, rel=1e-10)
    assert total_momentum(state)[0] == pytest.approx(1.4, rel=1e-10)

    # quadrature of Re[psi* (-i hbar) d psi] against the mode-space form
    grad = np.zeros(spec.grid_points, dtype=complex)
    for axis in range(spec.dim):
        spectrum = np.fft.fftn(wave.values)
        grad += np.fft.ifftn(1j * spec.along(axis, spec.derivative_wavenumbers[axis]) * spectrum)
    direct = float(
        np.sum(np.real(np.conj(wave.values) * (-1j * spec.hbar) * grad)) * spec.cell_volume
    )
    assert direct == pytest.approx(expected_momentum(wave)[0], abs=1e-10)


def test_ehrenfest_series_free_and_relational_and_external():
    spec = SPEC_2P
    dt, every, snaps = 2e-3, 25, 7
    wave = packet_wave(spec, centers=(6.0, 10.0), sigmas=(1.2, 1.4), modes=(2, -1))

    def trajectory(potential):
        out = [wave]
        for _ in range(snaps - 1):
            out.append(schrodinger_evolve(out[-1], potential, ShiftVelocity.zero(spec), every * dt, dt))
        return out

    free = ehrenfest_diagnostic(trajectory(Potential.free(spec)), Potential.free(spec))
    assert np.max(np.abs(free.momentum_rate)) < 1e-12
    assert np.max(np.abs(free.force)) < 1e-12

    # the conservation run lives on the zero-momentum subspace: there the
    # spectral wrap-around of the kinked minimal-image harmonic cancels
    # between mirror packets instead of accumulating
    eq_spec = SystemSpec(2, 1, (1.0, 1.0), (16.0,), (64, 64), dt=0.05)
    mirror = packet_wave(eq_spec, centers=(6.0, 10.0), sigmas=(1.2, 1.2), modes=(2, -2))
    relational = Potential.from_values(
        harmonic_relational_values(eq_spec, 0.3), eq_spec, relational_flag=True
    )
    run = [mirror]
    for _ in range(snaps - 1):
        run.append(schrodinger_evolve(run[-1], relational, ShiftVelocity.zero(eq_spec), every * dt, dt))
    series = ehrenfest_diagnostic(run, relational)
    assert np.max(np.abs(series.momentum_rate)) < 1e-8

    external = Potential.from_values(centered_spring(spec, 0.25), spec)
    series = ehrenfest_diagnostic(trajectory(external), external)
    np.testing.assert_allclose(series.momentum_rate, series.force, rtol=2e-4, atol=1e-9)
    assert np.min(np.abs(series.force)) > 1e-2  # the comparison is not vacuous


def test_ehrenfest_diagnostic_rejects_bad_spacing():
    spec = SPEC_1D
    wave = to_wavefunction(gaussian_state(spec, sigma=1.5))
    potential = Potential.free(spec)
    a = schrodinger_evolve(wave, potential, ShiftVelocity.zero(spec), 0.1, 0.05)
    b = schrodinger_evolve(a, potential, ShiftVelocity.zero(spec), 0.15, 0.05)
    with pytest.raises(StateError):
        ehrenfest_diagnostic([wave, a, b], potential)
    with pytest.raises(StateError):
        ehrenfest_diagnostic([wave, a], potential)


def test_external_force_from_midpoint_density_matches_momentum_rate():
    spec = SPEC_1D
    stiffness = 0.25
    state = gaussian_state(spec, center=np.array([9.5]), sigma=1.2)
    wave = to_wavefunction(state)
    potential = Potential.from_values(centered_spring(spec, stiffness), spec)
    shift = ShiftVelocity.zero(spec)
    dt = 1e-3

    half = schrodinger_evolve(wave, potential, shift, 0.5 * dt, 0.5 * dt)
    full = schrodinger_evolve(wave, potential, shift, dt, dt)
    measured = (expected_momentum(full)[0] - expected_momentum(wave)[0]) / dt
    predicted = ehrenfest_force(half.rho, potential)[0]

    assert predicted == pytest.approx(-stiffness * 1.5, rel=1e-5)
    assert measured == pytest.approx(predicted, rel=1e-6)


def test_split_step_conserves_energy_at_second_order():
    spec = SPEC_1D
    state = gaussian_state(spec, center=np.array([9.5]), sigma=1.2)
    wave = to_wavefunction(state)
    potential = Potential.from_values(centered_spring(spec, 0.25), spec)
    shift = ShiftVelocity.zero(spec)

    def energy(wave):
        return total_energy(wave, potential, ensemble_hamiltonian_h0(wave, shift))

    start = energy(wave)
    t = 0.5

    drifts = []
    for dt in (2e-3, 1e-3):
        evolved = schrodinger_evolve(wave, potential, shift, t, dt)
        drifts.append(abs(energy(evolved) - start))
    rate = np.log2(drifts[0] / drifts[1])
    assert rate > 1.9


def test_split_step_final_state_is_second_order_accurate():
    spec = SPEC_1D
    state = gaussian_state(spec, center=np.array([9.5]), sigma=1.2)
    wave = to_wavefunction(state)
    potential = Potential.from_values(centered_spring(spec, 0.25), spec)
    shift = ShiftVelocity.zero(spec)
    t = 0.2

    reference = schrodinger_evolve(wave, potential, shift, t, t / 1600).values
    coarse = schrodinger_evolve(wave, potential, shift, t, t / 100).values
    fine = schrodinger_evolve(wave, potential, shift, t, t / 200).values
    err_coarse = np.max(np.abs(coarse - reference))
    err_fine = np.max(np.abs(fine - reference))
    assert err_coarse / err_fine > 3.4


def test_hamilton_matches_schrodinger_on_smooth_potential():
    # the coupled density-phase equations and the unitary flow are two
    # faces of the same dynamics; with both integrators well resolved the
    # remaining gap is the splitting error
    spec = SPEC_1D
    x = spec.mesh()[0]
    base = floored_state(gaussian_state(spec, sigma=1.5))
    phase = ScalarField(0.2 * np.sin(2.0 * np.pi * x / spec.axis_box[0]), spec)
    state = EpistemicState(base.rho, phase, None)
    potential = Potential.from_values(
        0.3 * np.cos(2.0 * np.pi * (x - 5.0) / spec.axis_box[0]), spec
    )
    shift = ShiftVelocity.zero(spec)
    t, dt = 0.2, 1e-3

    ham = hamilton_evolve(state, potential, shift, t, dt)
    schrod = schrodinger_evolve(to_wavefunction(state), potential, shift, t, dt)

    assert quadrature(ham.rho) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(ham.rho.values - np.abs(schrod.values) ** 2)) < 1e-6
    p_ham = expected_momentum(to_wavefunction(ham))
    p_schrod = expected_momentum(schrod)
    np.testing.assert_allclose(p_ham, p_schrod, rtol=0, atol=1e-6)


def test_hamilton_step_underflow_points_to_wavefunction_path():
    # a bare Gaussian has tails below the curvature term's floor
    state = gaussian_state(SPEC_1D, sigma=1.0)
    potential = Potential.free(SPEC_1D)
    with pytest.raises(NumericalAbort, match="wavefunction"):
        hamilton_evolve(state, potential, ShiftVelocity.zero(SPEC_1D), 1e-3, 1e-3)


def test_hamilton_step_guards_dispersive_stability():
    state = floored_state(gaussian_state(SPEC_1D, sigma=1.5))
    potential = Potential.free(SPEC_1D)
    with pytest.raises(StateError) as info:
        hamilton_evolve(state, potential, ShiftVelocity.zero(SPEC_1D), 0.1, 0.1)
    assert 0.0 < admissible_step(info.value) < 0.1


def test_uniform_state_is_hamilton_fixed_point():
    spec = SPEC_1D
    rho = ScalarField.constant(spec, 1.0 / spec.volume)
    state = EpistemicState(rho, ScalarField.constant(spec, 0.0), None)
    evolved = hamilton_evolve(state, Potential.free(spec), ShiftVelocity.zero(spec), 0.05, 5e-3)
    np.testing.assert_allclose(evolved.rho.values, rho.values, rtol=0, atol=1e-15)
    np.testing.assert_allclose(evolved.phase.values, 0.0, rtol=0, atol=1e-15)


def test_expected_momentum_of_lattice_packet():
    spec = SPEC_2P
    wave = packet_wave(spec, centers=(6.0, 10.0), sigmas=(1.2, 1.4), modes=(3, -2))
    expected = lattice_momentum(spec, 0, 3) + lattice_momentum(spec, 1, -2)
    assert expected_momentum(wave)[0] == pytest.approx(expected, rel=1e-12)
