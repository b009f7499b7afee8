import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from red.model import Ensemble, ScalarField, ShiftVelocity, SystemSpec, normalized_density
from red.sampler import (
    GridDrift,
    as_drift,
    constant_drift,
    evolve_ensemble,
    kernel_moments,
    linear_drift,
    minimal_image,
    sample_from_density,
    stream,
    walker_step,
    walkers_from_csv,
    walkers_to_csv,
)


def spec_1p(dt=0.01, mass=1.0, n=64, box=20.0):
    return SystemSpec(1, 1, (mass,), (box,), (n,), dt)


def spec_2p(dt=0.01, masses=(1.0, 2.0), n=32, box=20.0):
    return SystemSpec(2, 1, masses, (box,), (n, n), dt)


def moments_at_one_point(spec, drift, shift):
    mean, cov = kernel_moments(np.array([[5.0]]), drift, shift, spec, spec.dt)
    assert mean.shape == (1, 1) and cov.shape == (1,)
    return mean[0, 0], cov[0]


def test_kernel_example_unit_drift():
    # phi = 3x, unit mass: mean 0.03, covariance 0.01
    spec = spec_1p()
    mean, cov = moments_at_one_point(spec, linear_drift([3.0]), ShiftVelocity.zero(spec))
    assert mean == pytest.approx(0.03, abs=1e-15)
    assert cov == pytest.approx(0.01, abs=1e-15)


def test_kernel_example_constant_drift():
    spec = spec_1p()
    mean, cov = moments_at_one_point(spec, constant_drift(), ShiftVelocity.zero(spec))
    assert mean == 0.0
    assert cov == pytest.approx(0.01)


def test_kernel_example_with_shift():
    # shift 0.5 lowers the mean by 0.005
    spec = spec_1p()
    mean, cov = moments_at_one_point(spec, linear_drift([3.0]), ShiftVelocity(np.array([0.5]), spec))
    assert mean == pytest.approx(0.025, abs=1e-15)
    assert cov == pytest.approx(0.01)


def test_kernel_mass_scaling():
    spec = spec_2p(masses=(1.0, 2.0))
    _, cov = kernel_moments(np.zeros((1, 2)), constant_drift(), ShiftVelocity.zero(spec), spec, spec.dt)
    assert np.allclose(cov, [0.01, 0.005])


def test_kernel_rejects_bad_dt():
    spec = spec_1p()
    with pytest.raises(ValueError, match="dt"):
        kernel_moments(np.zeros((1, 1)), constant_drift(), ShiftVelocity.zero(spec), spec, 0.0)
    with pytest.raises(ValueError, match="dt"):
        kernel_moments(np.zeros((1, 1)), constant_drift(), ShiftVelocity.zero(spec), spec, np.nan)


def test_grid_drift_gradient_matches_analytic():
    spec = spec_1p(n=256)
    x = spec.axis_coords[0]
    k = 2 * np.pi / 20.0
    drift = as_drift(ScalarField(np.sin(k * x), spec))
    assert isinstance(drift, GridDrift)
    pts = np.array([[5.0], [7.3], [12.77]])
    grad = drift.gradient(pts)
    assert np.max(np.abs(grad[:, 0] - k * np.cos(k * pts[:, 0]))) < 5e-4  # multilinear interp error


def test_walker_step_deterministic_and_accounted():
    spec = spec_1p()
    init = Ensemble(np.array([[5.0], [19.99]]), spec, rng_seed=123, time=0.5, step_index=4)
    drift, shift = linear_drift([3.0]), ShiftVelocity.zero(spec)
    a = walker_step(init, drift, shift, spec.dt, 0.51)
    b = walker_step(init, drift, shift, spec.dt, 0.51)
    assert np.array_equal(a.positions, b.positions)
    assert a.time == 0.51 and a.step_index == 5
    assert np.all((a.positions >= 0.0) & (a.positions < 20.0))
    # the landing point is origin + mean + sqrt(cov) * (noise of stream index 4)
    noise = stream(123, 0, 4).standard_normal((2, 1))
    assert a.positions[0, 0] == pytest.approx(5.03 + 0.1 * noise[0, 0], abs=1e-14)


def test_one_step_moments_match_kernel():
    # Monte-Carlo mean within 5 standard errors, variance within 3 percent
    spec = spec_2p(masses=(1.0, 2.0))
    shift = ShiftVelocity(np.array([0.4]), spec)
    drift = linear_drift([3.0, 1.0])
    K = 100_000
    init = Ensemble(np.full((K, 2), 10.0), spec, rng_seed=42)
    out = evolve_ensemble(init, drift, shift, steps=1)
    disp = minimal_image(spec, out.positions - init.positions)
    mean, var = disp.mean(axis=0), disp.var(axis=0, ddof=1)
    expect_mean = np.array([0.01 * 3.0 / 1.0 - 0.004, 0.01 * 1.0 / 2.0 - 0.004])
    expect_var = np.array([0.01, 0.005])
    se = np.sqrt(expect_var / K)
    assert np.all(np.abs(mean - expect_mean) < 5 * se)
    assert np.all(np.abs(var - expect_var) / expect_var < 0.03)


def test_evolve_zero_steps_identity():
    spec = spec_1p()
    init = Ensemble(np.array([[1.0], [2.0]]), spec, rng_seed=5, time=1.5, step_index=7)
    out = evolve_ensemble(init, None, ShiftVelocity.zero(spec), steps=0)
    assert np.array_equal(out.positions, init.positions)
    assert out.time == init.time
    assert out.step_index == 7


def test_evolution_time_and_step_accounting():
    spec = spec_1p()
    init = Ensemble(np.zeros((4, 1)), spec, rng_seed=5)
    out = evolve_ensemble(init, None, ShiftVelocity.zero(spec), steps=10)
    assert out.time == pytest.approx(0.1)
    assert out.step_index == 10


def test_chained_evolution_reproduces_single_call():
    # counter-based streams make 5+5 steps identical to 10 steps, path by path
    spec = spec_1p()
    init = Ensemble(np.linspace(0, 19, 50)[:, None], spec, rng_seed=77)
    drift = linear_drift([1.0])
    shift = ShiftVelocity(np.array([0.2]), spec)
    once = evolve_ensemble(init, drift, shift, steps=10)
    twice = evolve_ensemble(evolve_ensemble(init, drift, shift, steps=5), drift, shift, steps=5)
    assert np.array_equal(once.positions, twice.positions)


@given(xi=st.floats(-1.0, 1.0, allow_nan=False), seed=st.integers(0, 2 ** 31))
@settings(max_examples=15, deadline=None)
def test_shift_covariance_path_by_path(xi, seed):
    # evolving with a shift equals evolving without it and translating each step
    spec = spec_1p(n=128)
    x = spec.axis_coords[0]
    drift = as_drift(ScalarField(np.sin(2 * np.pi * x / 20.0), spec))
    shift = ShiftVelocity(np.array([xi]), spec)
    init = Ensemble(np.linspace(1, 19, 20)[:, None], spec, rng_seed=seed % (2 ** 31))
    steps = 4
    with_shift = evolve_ensemble(init, drift, shift, steps=steps)

    manual = init
    for _ in range(steps):
        stepped = evolve_ensemble(manual, drift, ShiftVelocity.zero(spec), steps=1)
        manual = Ensemble(
            stepped.positions - xi * spec.dt,
            spec,
            stepped.rng_seed,
            stepped.time,
            stepped.step_index,
        )
    gap = minimal_image(spec, with_shift.positions - manual.positions)
    assert np.max(np.abs(gap)) < 1e-9


def test_fluctuations_shift_independent():
    # identical seeds: the noise part of each path must not depend on the shift
    spec = spec_1p()
    init = Ensemble(np.full((1000, 1), 10.0), spec, rng_seed=3)
    a = evolve_ensemble(init, None, ShiftVelocity.zero(spec), steps=1)
    b = evolve_ensemble(init, None, ShiftVelocity(np.array([0.7]), spec), steps=1)
    gap = minimal_image(spec, a.positions - b.positions)
    assert np.allclose(gap, 0.7 * spec.dt, atol=1e-12)


def test_minimal_image_displacements():
    # walkers crossing the wrap boundary report the short displacement
    spec = spec_1p(box=20.0)
    a = Ensemble(np.array([[19.5], [19.5]]), spec, 1)
    b = Ensemble(np.array([[0.5], [0.5]]), spec, 1)
    disp = minimal_image(spec, b.positions - a.positions)
    assert np.allclose(disp, 1.0)


def test_sample_from_density_histogram():
    spec = spec_1p(n=256, box=20.0)
    x = spec.axis_coords[0]
    rho = normalized_density(spec, np.exp(-0.5 * (x - 10.0) ** 2))
    pts = sample_from_density(rho, 40_000, stream(11, 1, 0))
    assert pts.shape == (40_000, 1)
    assert abs(pts.mean() - 10.0) < 0.025
    assert abs(pts.std() - 1.0) < 0.02


def test_walker_csv_round_trip(tmp_path):
    spec = spec_2p()
    e = Ensemble(np.array([[1.0, 2.0], [3.5, 4.25]]), spec, rng_seed=9, time=0.5)
    path = tmp_path / "walkers.csv"
    walkers_to_csv(e, path)
    header = path.read_text().splitlines()[0]
    assert header == "x_0,x_1"
    back = walkers_from_csv(path, spec, rng_seed=9, time=0.5)
    assert np.array_equal(back.positions, e.positions)
