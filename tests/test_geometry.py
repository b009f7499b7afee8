"""Mismatch functional, its decomposition, Monte Carlo estimate, best matching."""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import normalized_density
import red.geometry
import red.quantum
from red.errors import StateError
from red.fields import phase_gradient_arrays, state_drift_potential
from red.geometry import (
    MonteCarloEstimate,
    best_match_fit,
    best_match_shift,
    ensemble_hamiltonian_h0,
    info_metric_g,
    info_metric_g_mc,
    kernel_spread_constant,
    total_momentum,
)
from red.model import (
    EpistemicState,
    ScalarField,
    ShiftVelocity,
    SystemSpec,
    gradient_arrays,
)
from red.presets import gaussian_density, gaussian_state, gaussian_wave_values
from red.quantum import WaveField
from red.sampler import STREAM_MONTE_CARLO, stream


def uniform_state(spec, slope=None):
    rho = ScalarField.constant(spec, 1.0 / spec.volume)
    return EpistemicState(rho, ScalarField.constant(spec, 0.0), slope)


def test_kernel_spread_constant_examples():
    # one particle in three dimensions, dt tuned so the constant is 15
    spec = SystemSpec(1, 3, (1.0,), (8.0, 8.0, 8.0), (8, 8, 8), dt=0.05)
    assert kernel_spread_constant(spec) == pytest.approx(15.0, abs=1e-12)
    # two particles in three dimensions at dt = 0.01 give 150
    spec2 = SystemSpec(2, 3, (1.0, 1.0), (8.0, 8.0, 8.0), (8,) * 6, dt=0.01)
    assert kernel_spread_constant(spec2) == pytest.approx(150.0, abs=1e-12)


def test_h0_uniform_slope_is_kinetic_energy():
    spec = SystemSpec(2, 1, (1.0, 2.0), (20.0,), (64, 64), dt=0.01)
    slope = np.array([0.7, -0.4])
    state = uniform_state(spec, slope)
    expected = 0.7 ** 2 / 2.0 + 0.4 ** 2 / (2.0 * 2.0)
    assert ensemble_hamiltonian_h0(state, ShiftVelocity.zero(spec)) == pytest.approx(
        expected, rel=1e-12
    )


def test_h0_gaussian_curvature_term():
    # for a width-sigma packet at rest the curvature term is hbar^2/(8 m sigma^2)
    spec = SystemSpec(1, 1, (1.3,), (40.0,), (512,), dt=0.01)
    state = gaussian_state(spec, sigma=1.0)
    expected = spec.hbar ** 2 / (8.0 * 1.3 * 1.0 ** 2)
    assert ensemble_hamiltonian_h0(state, ShiftVelocity.zero(spec)) == pytest.approx(
        expected, rel=1e-10
    )


def test_h0_shift_dependence_is_exactly_quadratic():
    spec = SystemSpec(2, 1, (1.0, 3.0), (20.0,), (128, 128), dt=0.01)
    rho = normalized_density(
        spec,
        gaussian_density(spec, (8.0, 12.0), 1.5).values,
    )
    state = EpistemicState(rho, ScalarField.constant(spec, 0.0), np.array([0.5, -0.2]))
    h0_zero = ensemble_hamiltonian_h0(state, ShiftVelocity.zero(spec))
    w = np.array([0.31])
    h0_shift = ensemble_hamiltonian_h0(state, ShiftVelocity(w, spec))
    momentum = total_momentum(state)
    mass = spec.total_mass
    predicted = h0_zero + 0.5 * mass * w[0] ** 2 - w[0] * momentum[0]
    assert h0_shift == pytest.approx(predicted, rel=1e-12)


def frozen_ensemble_hamiltonian_h0(state, shift):
    """H0 as its own loop once computed it: the root-gradient sums, then flow and curvature per axis."""
    spec = state.spec
    root_squares = [float(np.sum(np.square(grad)))
                     for grad in gradient_arrays(np.sqrt(np.clip(state.rho.values, 0.0, None)), spec)]
    total = 0.0
    for axis, grad in enumerate(phase_gradient_arrays(state, range(spec.dim))):
        mass = spec.axis_masses[axis]
        relative = grad - mass * shift.per_axis[axis]
        total += float(np.sum(np.square(relative) * state.rho.values) / (2.0 * mass)) * spec.cell_volume
        total += float(root_squares[axis] * spec.hbar ** 2 / (2.0 * mass)) * spec.cell_volume
    return total


def test_h0_of_a_smooth_sloped_state_is_bitwise_the_frozen_loop():
    # the wave's form is pinned in test_run_path; this is the smooth phase grid,
    # with a slope, a shift and a different mass and cell count on each of three axes
    spec = SystemSpec(3, 1, (1.0, 2.0, 0.5), (10.0,), (12, 14, 16), dt=0.05, hbar=0.8)
    x0, x1, x2 = spec.mesh()
    wave_number = 2.0 * np.pi / 10.0
    phase = 0.3 * np.cos(wave_number * x0) + 0.2 * np.sin(wave_number * x1) * np.cos(wave_number * x2)
    state = EpistemicState(gaussian_density(spec, (4.0, 5.0, 6.0), (1.5, 1.2, 1.8)),
                           ScalarField(phase, spec), np.array([0.4, -0.3, 0.7]))
    shift = ShiftVelocity(np.array([0.25]), spec)
    want = frozen_ensemble_hamiltonian_h0(state, shift)
    assert info_metric_g(state, shift).h0_term == want
    assert ensemble_hamiltonian_h0(state, shift) == want


def test_info_metric_terms_sum_to_total():
    spec = SystemSpec(1, 1, (1.0,), (40.0,), (512,), dt=0.05)
    state = gaussian_state(spec, sigma=1.2, slope=np.array([0.4]))
    report = info_metric_g(state, ShiftVelocity.zero(spec))
    assert report.g_total == report.constant_term + report.entropy_term + report.h0_term
    assert report.dt == 0.05
    payload = asdict(report)
    assert set(payload) == {"g_total", "constant_term", "entropy_term", "h0_term", "shift", "dt"}


def own_drift_state(rho, drift):
    """The state whose own drift potential is drift: Phi = hbar * (phi - 0.5 log rho)."""
    spec = rho.spec
    return EpistemicState(rho, ScalarField(spec.hbar * (drift.values - 0.5 * np.log(rho.values)), spec))


def cosine_drift_state():
    spec = SystemSpec(1, 1, (1.0,), (40.0,), (256,), dt=0.05)
    x = spec.axis_coords[0]
    drift = ScalarField(np.cos(2.0 * np.pi * x / 40.0), spec)
    return own_drift_state(gaussian_density(spec, 20.0, 2.0), drift)


def test_info_metric_mc_zero_variance_case():
    # a uniform density and a linear phase give a flat drift, so a constant
    # per-sample statistic: stderr exactly zero (0.75 - 0.25 keeps that constant
    # exact, so the sample mean equals it)
    spec = SystemSpec(1, 1, (2.0,), (20.0,), (128,), dt=0.05)
    state = uniform_state(spec, np.array([0.75 * spec.axis_masses[0]]))
    shift = ShiftVelocity(np.array([0.25]), spec)
    report = info_metric_g(state, shift)
    estimate = info_metric_g_mc(state, shift, n_samples=64, seed=7)
    by_hand = kernel_spread_constant(spec) + 0.5 * 2.0 * (0.75 - 0.25) ** 2
    assert estimate.value == pytest.approx(by_hand, abs=1e-12)
    assert estimate.stderr == 0.0
    assert report.entropy_term == pytest.approx(0.0, abs=1e-12)
    assert report.h0_term == pytest.approx(0.5 * 2.0 * (0.75 - 0.25) ** 2, rel=1e-12)


def test_info_metric_field_form_matches_sampled_form():
    # independent routes: quadrature of the decomposition versus sampling the
    # kernel variables, for a curved density and a periodic drift
    spec = SystemSpec(1, 1, (1.0,), (40.0,), (512,), dt=0.05)
    x = spec.axis_coords[0]
    drift = ScalarField(0.8 * np.sin(2.0 * np.pi * x / 40.0), spec)
    state = own_drift_state(gaussian_density(spec, 20.0, 1.0), drift)
    shift = ShiftVelocity(np.array([0.03]), spec)
    report = info_metric_g(state, shift)
    estimate = info_metric_g_mc(state, shift, n_samples=200_000, seed=11)
    assert abs(estimate.value - report.g_total) < 5.0 * estimate.stderr
    assert estimate.stderr < 1e-3


def test_mc_estimate_reproducible_and_stream_separated():
    state = cosine_drift_state()
    shift = ShiftVelocity.zero(state.spec)
    a = info_metric_g_mc(state, shift, n_samples=500, seed=3)
    b = info_metric_g_mc(state, shift, n_samples=500, seed=3)
    c = info_metric_g_mc(state, shift, n_samples=500, seed=4)
    assert a == b
    assert a.value != c.value


def test_mc_standard_error_scales_with_sample_count():
    state = cosine_drift_state()
    shift = ShiftVelocity.zero(state.spec)
    small = info_metric_g_mc(state, shift, n_samples=2_000, seed=5)
    large = info_metric_g_mc(state, shift, n_samples=8_000, seed=5)
    # quadrupling the samples should halve the standard error, up to noise
    ratio = large.stderr / small.stderr
    assert 0.35 < ratio < 0.65


def test_mc_rejects_degenerate_inputs():
    spec = SystemSpec(1, 1, (1.0,), (20.0,), (64,), dt=0.05)
    state = gaussian_state(spec, sigma=1.0)
    with pytest.raises(StateError):
        info_metric_g_mc(state, ShiftVelocity.zero(spec), n_samples=1, seed=0)


def frozen_info_metric_g_mc(rho, drift_phi, shift, n_samples, seed, drift_slope):
    """The Monte Carlo mismatch as it was: phi as a (field, slope) pair, differentiated here."""
    spec = rho.spec
    drift_slope = np.broadcast_to(np.asarray(drift_slope, dtype=float), (spec.dim,))
    drift_grads = gradient_arrays(drift_phi.values, spec)
    weights = np.clip(rho.values.reshape(-1), 0.0, None)
    rng = stream(seed, STREAM_MONTE_CARLO, 0)
    flat_cells = rng.choice(weights.size, size=n_samples, p=weights / float(np.sum(weights)))
    statistic = np.zeros(n_samples)
    for axis in range(spec.dim):
        mass = spec.axis_masses[axis]
        grads = drift_grads[axis].reshape(-1)[flat_cells] + drift_slope[axis]
        velocity = spec.hbar * grads / mass - shift.per_axis[axis]
        statistic += 0.5 * mass * velocity ** 2
    return MonteCarloEstimate(value=kernel_spread_constant(spec) + float(np.mean(statistic)),
                              stderr=float(np.std(statistic, ddof=1) / np.sqrt(n_samples)))


def test_mc_of_a_sloped_drift_matches_frozen_pair_estimator():
    # the gdecomp suite's kind of state, on a small grid: a boosted Gaussian
    spec = SystemSpec(1, 3, (1.0,), (16.0, 16.0, 16.0), (16, 16, 16), dt=0.05)
    state = gaussian_state(spec, sigma=2.0, slope=np.array([0.5, -0.25, 0.75]))
    shift = ShiftVelocity(np.array([0.1, 0.0, -0.2]), spec)
    grid, slope = state_drift_potential(state)
    assert np.all(slope != 0.0)
    got = info_metric_g_mc(state, shift, n_samples=5_000, seed=7)
    want = frozen_info_metric_g_mc(state.rho, grid, shift, 5_000, 7, slope)
    assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
    assert np.float64(got.stderr).tobytes() == np.float64(want.stderr).tobytes()


def test_total_momentum_uniform_slopes():
    spec = SystemSpec(2, 1, (1.0, 2.0), (20.0,), (64, 64), dt=0.01)
    slope = np.array([0.7, -0.4])
    state = uniform_state(spec, slope)
    momentum = total_momentum(state)
    assert momentum == pytest.approx([0.3], abs=1e-12)


def test_total_momentum_wrapped_and_smooth_channels_agree():
    # a wave, whose phase is known only wrapped, and a smooth state with the same slope
    spec = SystemSpec(1, 1, (1.0,), (20.0,), (128,), dt=0.01)
    x = spec.axis_coords[0]
    k = 2.0 * np.pi * 3 / 20.0
    rho = gaussian_density(spec, 10.0, 2.0)
    smooth = EpistemicState(rho, ScalarField(spec.hbar * k * x * 0.0, spec), np.array([k * spec.hbar]))
    wave = WaveField(np.sqrt(rho.values) * np.exp(1j * k * x), spec)
    assert total_momentum(smooth)[0] == pytest.approx(total_momentum(wave)[0], rel=1e-9)


def test_best_match_modes_agree():
    spec = SystemSpec(2, 1, (1.0, 3.0), (20.0,), (128, 128), dt=0.01)
    rho = normalized_density(spec, gaussian_density(spec, (8.0, 13.0), 1.5).values)
    state = EpistemicState(rho, ScalarField.constant(spec, 0.0), np.array([0.5, -0.9]))
    closed = best_match_shift(state)
    fitted = best_match_fit(state)
    assert fitted.components == pytest.approx(closed.components, abs=1e-10)


def fit_state(spatial_dim, masses, wave, dt=0.05):
    """Two particles with momentum along every spatial axis: a sloped smooth state, or a wave."""
    grid, box = {1: (64, 16.0), 2: (12, 10.0), 3: (6, 8.0)}[spatial_dim]
    spec = SystemSpec(2, spatial_dim, masses, (box,) * spatial_dim, (grid,) * (2 * spatial_dim), dt)
    if wave:
        modes = np.resize([1, 2, 1], spec.dim)
        return WaveField(gaussian_wave_values(spec, box / 2.0, 1.5, modes), spec)
    return gaussian_state(spec, sigma=1.5, slope=np.resize([0.5, -0.3, 0.8], spec.dim))


# the last two cases: at dt = 1e-10 g_total's spread constant would drown the
# probes' differences, and at masses 1e200 a unit probe shift would overflow
@pytest.mark.parametrize("spatial_dim, masses, dt", [
    (1, (1.0, 1.0), 0.05), (1, (1.0, 2.5), 0.05),
    (2, (1.0, 1.0), 0.05), (2, (1.0, 2.5), 0.05),
    (3, (1.0, 1.0), 0.05), (3, (1.0, 2.5), 0.05),
    (2, (1.0, 2.5), 1e-10), (2, (1e200, 2.5e200), 0.05),
])
@pytest.mark.parametrize("wave", [False, True])
def test_best_match_fit_is_momentum_over_mass(wave, spatial_dim, masses, dt):
    state = fit_state(spatial_dim, masses, wave, dt)
    want = total_momentum(state) / state.spec.total_mass
    assert best_match_fit(state).components == pytest.approx(want, rel=1e-14, abs=0.0)


def test_best_match_fit_reads_no_momentum(monkeypatch):
    state = fit_state(2, (1.0, 2.5), wave=True)
    want = total_momentum(state) / state.spec.total_mass
    for module, name in ((red.geometry, "total_momentum"), (red.geometry, "spectral_moments"),
                         (red.quantum, "expected_momentum"), (red.quantum, "spectral_moments")):
        monkeypatch.setattr(module, name, None)  # a call would raise
    assert best_match_fit(state).components == pytest.approx(want, rel=1e-14, abs=0.0)


def test_best_match_minimizes_the_mismatch():
    spec = SystemSpec(1, 1, (1.0,), (40.0,), (512,), dt=0.05)
    state = gaussian_state(spec, sigma=1.0, slope=np.array([0.6]))
    best = best_match_shift(state)
    g_best = info_metric_g(state, best).g_total
    for delta in (-0.05, 0.05):
        probe = ShiftVelocity(best.components + delta, spec)
        g_probe = info_metric_g(state, probe).g_total
        # exact quadratic growth away from the minimum
        assert g_probe - g_best == pytest.approx(
            0.5 * spec.total_mass * delta ** 2, rel=1e-9
        )


@given(
    p1=st.floats(-2.0, 2.0),
    p2=st.floats(-2.0, 2.0),
    boost=st.floats(-1.5, 1.5),
    m2=st.floats(0.5, 4.0),
)
@settings(max_examples=25, deadline=None)
def test_best_match_is_boost_covariant(p1, p2, boost, m2):
    # adding a uniform boost to every particle moves the optimum by the boost
    spec = SystemSpec(2, 1, (1.0, m2), (20.0,), (32, 32), dt=0.01)
    state = uniform_state(spec, np.array([p1, p2]))
    base = best_match_shift(state).components[0]
    boosted = uniform_state(
        spec, np.array([p1 + 1.0 * boost, p2 + m2 * boost])
    )
    moved = best_match_shift(boosted).components[0]
    assert moved == pytest.approx(base + boost, abs=1e-12)


def test_mismatch_is_translation_invariant():
    spec = SystemSpec(1, 1, (1.0,), (40.0,), (256,), dt=0.05)
    state = gaussian_state(spec, center=14.0, sigma=1.1, slope=np.array([0.3]))
    rolled = EpistemicState(
        ScalarField(np.roll(state.rho.values, 31), spec),
        ScalarField(np.roll(state.phase.values, 31), spec),
        state.phase_slope,
    )
    shift = ShiftVelocity(np.array([0.12]), spec)
    a = info_metric_g(state, shift)
    b = info_metric_g(rolled, shift)
    assert b.g_total == pytest.approx(a.g_total, rel=1e-10)
    assert total_momentum(rolled)[0] == pytest.approx(total_momentum(state)[0], abs=1e-12)
