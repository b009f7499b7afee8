import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import normalized_density
from red.errors import StateError
from red.model import (
    MAX_DIM,
    Ensemble,
    EpistemicState,
    ScalarField,
    ShiftVelocity,
    Stencil,
    SystemSpec,
    gradient_arrays,
    interpolate,
    quadrature,
    step_count,
    wrap_array,
)


def spec_1d(n=512, box=40.0, dt=0.01):
    return SystemSpec(1, 1, (1.0,), (box,), (n,), dt)


def spec_2p1d(n=64, box=16.0, dt=0.01, masses=(1.0, 2.0)):
    return SystemSpec(2, 1, masses, (box,), (n, n), dt)


def test_spec_derived_quantities():
    spec = SystemSpec(2, 1, (1.0, 2.0), (16.0,), (64, 32), 0.01)
    assert spec.dim == 2
    assert spec.total_mass == 3.0
    assert np.allclose(spec.axis_masses, [1.0, 2.0])
    assert np.allclose(spec.axis_box, [16.0, 16.0])
    assert np.allclose(spec.spacing, [0.25, 0.5])
    assert spec.cell_volume == pytest.approx(0.125)


def test_spec_rejects_bad_input():
    with pytest.raises(ValueError):
        SystemSpec(0, 1, (), (1.0,), (8,), 0.01)
    with pytest.raises(ValueError):
        SystemSpec(1, 4, (1.0,), (1.0, 1.0, 1.0, 1.0), (8, 8, 8, 8), 0.01)
    with pytest.raises(ValueError):
        SystemSpec(1, 1, (-1.0,), (1.0,), (8,), 0.01)
    with pytest.raises(ValueError):
        SystemSpec(1, 1, (1.0,), (1.0,), (8,), -0.5)
    with pytest.raises(ValueError):
        SystemSpec(2, 1, (1.0,), (1.0,), (8, 8), 0.01)  # wrong mass count
    with pytest.raises(ValueError):
        SystemSpec(1, 1, (1.0,), (1.0,), (8, 8), 0.01)  # wrong grid rank


def test_grid_budget_enforced():
    with pytest.raises(ValueError, match="budget"):
        SystemSpec(1, 3, (1.0,), (1.0, 1.0, 1.0), (256, 256, 256), 0.01)


def test_configuration_dimension_bounded():
    assert SystemSpec(MAX_DIM, 1, (1.0,) * MAX_DIM, (1.0,), (1,) * MAX_DIM, 0.01).dim == MAX_DIM
    with pytest.raises(ValueError, match=f"at most {MAX_DIM}"):
        SystemSpec(MAX_DIM + 1, 1, (1.0,) * (MAX_DIM + 1), (1.0,), (1,) * (MAX_DIM + 1), 0.01)


def test_quadrature_constant_field():
    spec = SystemSpec(1, 3, (1.0,), (2.0, 2.0, 2.0), (8, 8, 8), 0.01)
    assert quadrature(ScalarField.constant(spec, 1.0)) == pytest.approx(8.0, abs=1e-14)


def test_quadrature_zero_field():
    spec = spec_1d(64, 10.0)
    assert quadrature(ScalarField.constant(spec, 0.0)) == 0.0


@pytest.mark.parametrize("value", [0.0, 0.1, -3.7])
def test_constant_field_holds_one_value(value):
    # a read-only broadcast view: every stride is 0, and sums and spectral gradients of it
    # have the bits of the same value on a full grid
    spec = SystemSpec(2, 1, (1.0, 2.0), (16.0,), (32, 24), 0.01)
    field = ScalarField.constant(spec, value)
    full = np.full(spec.grid_points, value)
    assert field.values.strides == (0, 0)
    assert not field.values.flags.writeable
    with pytest.raises(ValueError):
        field.values[0, 0] = 1.0
    assert np.float64(quadrature(field)).view(np.uint64) == np.float64(
        quadrature(ScalarField(full, spec))).view(np.uint64)
    for got, want in zip(gradient_arrays(field.values, spec), gradient_arrays(full, spec)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_quadrature_normalized_gaussian():
    # normalized on the grid by construction, so the quadrature must be 1
    spec = spec_1d(512, 40.0)
    x = spec.axis_coords[0]
    raw = np.exp(-0.5 * (x - 20.0) ** 2)
    rho = normalized_density(spec, raw)
    assert quadrature(rho) == pytest.approx(1.0, abs=1e-10)


@given(
    alpha=st.floats(-5, 5, allow_nan=False),
    beta=st.floats(-5, 5, allow_nan=False),
    seed=st.integers(0, 2 ** 31),
)
@settings(max_examples=25, deadline=None)
def test_quadrature_linearity(alpha, beta, seed):
    spec = spec_1d(64, 10.0)
    rng = np.random.default_rng(seed)
    f = rng.normal(size=spec.grid_points)
    g = rng.normal(size=spec.grid_points)
    lhs = quadrature(ScalarField(alpha * f + beta * g, spec))
    rhs = alpha * quadrature(ScalarField(f, spec)) + beta * quadrature(ScalarField(g, spec))
    assert lhs == pytest.approx(rhs, abs=1e-9 * (1 + abs(alpha) + abs(beta)))


def test_gradient_of_constant_vanishes():
    spec = spec_2p1d()
    grads = gradient_arrays(ScalarField.constant(spec, 3.7).values, spec)
    for g in grads:
        assert np.max(np.abs(g)) < 1e-12


def test_gradient_sine_mode_analytic():
    # d/dx sin(2 pi x / L) = (2 pi / L) cos(2 pi x / L), exact for a lattice mode
    spec = spec_1d(128, 12.0)
    x = spec.axis_coords[0]
    k = 2 * np.pi / 12.0
    (g,) = gradient_arrays(np.sin(k * x), spec)
    assert np.max(np.abs(g - k * np.cos(k * x))) < 1e-10


def test_gradient_axes_independent():
    # a field depending on one axis only has zero derivative along the other
    spec = spec_2p1d(n=32)
    x0 = spec.axis_coords[0][:, None]
    k = 2 * np.pi / 16.0
    f = np.cos(k * x0) + 0.0 * spec.axis_coords[1][None, :]
    g0, g1 = gradient_arrays(f, spec)
    assert np.max(np.abs(g0 + k * np.sin(k * x0) * np.ones_like(f))) < 1e-10
    assert np.max(np.abs(g1)) < 1e-12


@given(shift0=st.integers(-40, 40), shift1=st.integers(-40, 40), seed=st.integers(0, 2 ** 31))
@settings(max_examples=20, deadline=None)
def test_gradient_commutes_with_whole_cell_shift(shift0, shift1, seed):
    spec = spec_2p1d(n=32)
    rng = np.random.default_rng(seed)
    # band-limited random field so the spectral derivative is exact
    spectrum = np.zeros(spec.grid_points, dtype=complex)
    spectrum[:5, :5] = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    values = np.fft.ifftn(spectrum).real
    rolled = np.roll(values, (shift0, shift1), axis=(0, 1))
    for ga, gb in zip(gradient_arrays(rolled, spec), gradient_arrays(values, spec)):
        assert np.max(np.abs(ga - np.roll(gb, (shift0, shift1), axis=(0, 1)))) < 1e-10


def test_gradient_rejects_non_finite():
    spec = spec_1d(16, 4.0)
    with pytest.raises(StateError):
        ScalarField(np.full(spec.grid_points, np.nan), spec)


def test_field_shape_mismatch_is_an_error():
    spec = spec_1d(16, 4.0)
    with pytest.raises(StateError, match="shape"):
        ScalarField(np.zeros(17), spec)


def test_wrap_examples():
    spec = spec_1d(16, 4.0)
    wrapped = wrap_array(spec, np.array([[4.5], [-1.0]]))
    assert wrapped[0, 0] == pytest.approx(0.5)
    assert wrapped[1, 0] == pytest.approx(3.0)


@given(x=st.floats(-1e6, 1e6, allow_nan=False), box=st.floats(0.5, 100.0))
@settings(max_examples=50, deadline=None)
def test_wrap_idempotent_and_in_box(x, box):
    spec = SystemSpec(1, 1, (1.0,), (box,), (8,), 0.01)
    once = wrap_array(spec, np.array([[x]]))
    twice = wrap_array(spec, once)
    assert 0.0 <= once[0, 0] < box or once[0, 0] == pytest.approx(0.0)
    assert twice[0, 0] == once[0, 0]


def test_wrap_point_idempotent():
    spec = spec_1d(16, 4.0)
    p = wrap_array(spec, np.array([[3.9]]))
    assert np.array_equal(wrap_array(spec, p), p)


def test_interpolate_exact_at_nodes_and_periodic():
    spec = spec_2p1d(n=16)
    rng = np.random.default_rng(3)
    values = rng.normal(size=spec.grid_points)
    pts = np.array([[spec.spacing[0] * 5, spec.spacing[1] * 11]])
    assert interpolate(values, Stencil.at(spec, pts))[0] == pytest.approx(values[5, 11], abs=1e-13)
    # halfway between the last node and the wrapped first node
    h = spec.spacing[0]
    pts = np.array([[16.0 - 0.5 * h, 0.0]])
    expected = 0.5 * (values[15, 0] + values[0, 0])
    assert interpolate(values, Stencil.at(spec, pts))[0] == pytest.approx(expected, abs=1e-13)


def test_stencil_layout_and_weights():
    spec = SystemSpec(1, 3, (1.0,), (2.0, 3.0, 4.0), (4, 5, 6), 0.01)
    pts = np.random.default_rng(8).uniform(0.0, 4.0, (50, 3))
    stencil = Stencil.at(spec, pts)
    # one base index per point and one weight per corner
    assert stencil.base.shape == (50,)
    assert len(stencil.offsets) == len(stencil.weight) == len(stencil.seams) == 8
    assert all(weight.shape == (50,) for weight in stencil.weight)
    # corner c sits at the strides (30, 6, 1) of the axes where it takes the high side
    assert stencil.offsets == tuple(30 * a + 6 * b + c
                                    for a, b, c in itertools.product((0, 1), repeat=3))
    low = np.stack(np.unravel_index(stencil.base, (4, 5, 6)), axis=1)
    crossings = 0
    for corner, offset, (who, index) in zip(itertools.product((0, 1), repeat=3),
                                            stencil.offsets, stencil.seams):
        # the seam lists hold exactly the points whose corner wraps, at its wrapped index
        wraps = np.any((low + corner) >= (4, 5, 6), axis=1)
        assert who.tolist() == np.flatnonzero(wraps).tolist()
        assert index.tolist() == np.ravel_multi_index(((low + corner) % (4, 5, 6))[wraps].T,
                                                      (4, 5, 6)).tolist()
        crossings += len(who)
    assert crossings > 0 and len(stencil.seams[0][0]) == 0
    assert np.allclose(sum(stencil.weight), 1.0, atol=1e-14)
    # values linear in the grid indices are reproduced inside a cell off the periodic seam
    inner = Stencil.at(spec, np.array([[0.5, 1.2, 1.9]]))  # indices (1, 2, 2.85)
    values = np.arange(120, dtype=float).reshape(4, 5, 6)  # 30 i + 6 j + k
    assert interpolate(values, inner)[0] == pytest.approx(30 + 12 + 2.85, abs=1e-12)


def test_epistemic_state_validation():
    spec = spec_1d(64, 10.0)
    x = spec.axis_coords[0]
    rho = normalized_density(spec, np.exp(-0.5 * (x - 5.0) ** 2))
    state = EpistemicState(rho, ScalarField.constant(spec, 0.0))
    assert not state.phase_wrapped
    with pytest.raises(StateError, match="quadrature"):
        EpistemicState(ScalarField(rho.values * 2.0, spec), ScalarField.constant(spec, 0.0))
    bad = rho.values.copy()
    bad[0] = -1e-6
    with pytest.raises(StateError, match="negative"):
        EpistemicState(ScalarField(bad, spec), ScalarField.constant(spec, 0.0))


def test_shift_velocity_layout():
    spec = spec_2p1d()
    shift = ShiftVelocity(np.array([0.4]), spec)
    assert np.allclose(shift.per_axis, [0.4, 0.4])
    assert np.allclose(ShiftVelocity.zero(spec).components, [0.0])


def test_ensemble_wraps_walkers():
    spec = spec_1d(16, 4.0)
    e = Ensemble(np.array([[4.5], [-0.5]]), spec, rng_seed=1)
    assert np.all(e.positions >= 0.0)
    assert np.all(e.positions < 4.0)
    assert e.positions.shape == (2, 1)


def test_step_count_validates_its_inputs():
    assert step_count(0.1, 1e-3) == 100
    assert step_count(0.0, 1e-3) == 0
    for total_time, dt_pde in [(0.1, 0.0), (0.1, -1e-3), (0.1, float("nan")), (0.1, float("inf")),
                               (float("nan"), 1e-3), (float("inf"), 1e-3), (-0.1, 1e-3),
                               (0.1, 0.03)]:
        with pytest.raises(ValueError):
            step_count(total_time, dt_pde)
