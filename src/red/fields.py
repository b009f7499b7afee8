"""Density evolution and field-level functionals.

The current velocity of a state is

    V_A = grad_A(Phi) / m_n - shift_a,      Phi = hbar * (phi - log sqrt(rho)),

and the density obeys the continuity equation d_t rho = -div(rho V).  With
no drift (phi = 0) and no shift that is free diffusion, the flow `diffuse`
integrates: d_t rho = sum_A hbar / (2 m_A) d_A^2 rho.

A state's phase gradient is the spectral derivative of its smooth phase
grid plus the explicit slope.  A wave's phase winds (it is known only modulo
one period), so it is differentiated through psi instead, which stays clean:
grad Phi = hbar * Im(conj(psi) grad psi) / rho.

Entropy here is S = -int rho log rho.  Its exact rate along the continuity
flow is dS/dt = + int rho m^{AB} d_A d_B Phi (the shift drops out); this is
evaluated in the integrated-by-parts form -int m^{AB} d_A(rho) d_B(Phi),
which is an identity for spectral derivatives on the periodic grid.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalAbort, StateError
from .model import (
    EpistemicState,
    ScalarField,
    check_step_bound,
    gradient_arrays,
    irfftn,
    laplacian_symbol,
    rfftn,
    rk4_step,
    step_count,
)
from .quantum import WaveField

POSITIVITY_MONITOR = -1e-10
PHASE_DEAD_RELATIVE = 1e-15
OSMOTIC_FLOOR = 1e-14
OSMOTIC_EXACT = 1e-8


def alive_cells(rho: np.ndarray) -> np.ndarray:
    """Cells with rho above PHASE_DEAD_RELATIVE * max(rho): the ones whose phase is usable."""
    return rho > PHASE_DEAD_RELATIVE * float(np.max(rho))


def phase_gradient_arrays(state: EpistemicState | WaveField, axes) -> list:
    """grad Phi along `axes` of a state (with its exact slope contribution) or of a wave.

    A caller that reduces one axis before it needs the next asks for one
    axis at a time, phase_gradient_arrays(state, (axis,)), and holds one
    real gradient grid, not D.

    A state's smooth phase grid is differentiated spectrally as it stands.
    That path involves no division by rho, so roundoff junk in exponentially
    dead density cells can never leak into the velocity; in a stepper that
    feeds its own output back in, any rho-dependent noise in the velocity is
    self-amplifying.

    A WaveField, whose phase is known only modulo 2*pi*hbar, is
    differentiated through psi, which is immune to the wraps, as
    hbar * Im(conj(psi) grad psi) / rho.  Cells outside alive_cells sit under
    the FFT roundoff floor, where that division is pure noise; psi is zeroed
    there before differentiating, they get gradient 0, and every consumer
    weights by rho anyway.  A wave with no dead cell is differentiated as it
    stands, with no masked copy.  Each derivative is conjugated and
    multiplied by psi in its own buffer: Im(psi conj(d psi)) is bitwise
    -Im(conj(psi) d psi) with psi as the first factor, so no conj(psi) grid
    is built.
    """
    spec = state.spec
    if not isinstance(state, WaveField):
        grads = gradient_arrays(state.phase.values, spec, axes)
        for axis, grad in zip(axes, grads):
            grad += state.phase_slope[axis]
        return grads
    rho = state.rho.values
    alive = alive_cells(rho)
    psi = state.values if np.all(alive) else np.where(alive, state.values, 0.0)
    grads = []
    for axis in axes:
        # one complex derivative at a time, reduced to its real gradient before the next
        [product] = gradient_arrays(psi, spec, (axis,))
        np.conjugate(product, out=product)
        # psi first: the last bits of a complex product depend on the order of its factors
        np.multiply(psi, product, out=product)
        grad = np.zeros(spec.grid_points)
        np.multiply(product.imag, spec.hbar, out=grad, where=alive)
        np.divide(grad, rho, out=grad, where=alive)
        # the sign as 0 - x: an exact zero of Im(psi conj(d psi)), either sign, gives +0.0
        np.subtract(0.0, grad, out=grad)
        grads.append(grad)
        del product
    return grads


def _bump_sigmoid(u: np.ndarray) -> np.ndarray:
    """Monotone 0 -> 1 switch, exactly 0 for u <= 0 and 1 for u >= 1, C-infinity between.

    Overwrites u.  Outside (0, 1) one exponential underflows to exactly 0,
    so the quotient is exactly 0 or 1 with no mask.
    """
    upper = _flat_exp_reciprocal(np.subtract(1.0, u))
    lower = _flat_exp_reciprocal(u)
    upper += lower
    return np.divide(lower, upper, out=lower)


def _flat_exp_reciprocal(x: np.ndarray) -> np.ndarray:
    """exp(-1 / x), exactly 0 for x <= 1e-300 (where it underflows), in x's buffer."""
    np.maximum(x, 1e-300, out=x)
    np.divide(-1.0, x, out=x)
    with np.errstate(under="ignore"):
        np.exp(x, out=x)
    return x


def regularized_log_density(rho: ScalarField) -> np.ndarray:
    """log rho with the exponentially dead tail frozen to a constant.

    state_drift_potential adds this to a phase grid whose gradients are
    then taken spectrally, for gdecomp's Monte Carlo drift.  The true
    logarithm of a dead tail is -inf where rho underflows, and elsewhere a
    tail that decays across the periodic seam (a Gaussian's logarithm is a
    parabola with a kink there) rings when differentiated spectrally.
    Below OSMOTIC_FLOOR relative density the result is instead exactly
    constant, so those cells give no gradient.  Above OSMOTIC_EXACT the
    true logarithm is returned unchanged.  The branches are joined by a
    C-infinity bump blend in log space: a transition of merely finite
    smoothness rings at the grid scale when differentiated spectrally, and
    the ringing puts spurious drift where the density holds real
    probability.  The blend is exactly 0 below its band and 1 above it, so
    it is computed on the band's cells alone, gathered into one short array.
    """
    vals = rho.values
    top = float(np.max(vals))
    if not top > 0.0:
        raise StateError("density has no positive cells to anchor the logarithm")
    log_lo = np.log(OSMOTIC_FLOOR)
    width = np.log(OSMOTIC_EXACT) - log_lo
    excess = np.divide(vals, top)
    np.clip(excess, OSMOTIC_FLOOR, None, out=excess)
    np.log(excess, out=excess)
    excess -= log_lo
    # blend * excess in excess's own buffer: 0 at or below the band (a log rounded
    # under log_lo is clamped to 0, as 0 * excess is), excess itself above it
    np.maximum(excess, 0.0, out=excess)
    band = excess > 0.0
    band &= excess < width
    inside = excess[band]
    blend = _bump_sigmoid(inside / width)
    blend *= inside
    excess[band] = blend
    excess += log_lo
    excess += np.log(top)
    return excess


def state_drift_potential(state: EpistemicState) -> tuple:
    """Drift potential of a state: (grid part, per-axis slope).

    phi = Phi / hbar + 0.5 * log rho, split the same way the state splits
    its phase: the grid holds the periodic part, the slope the linear part.
    Uses the dead-tail-safe logarithm so the grid part stays spectrally
    differentiable.
    """
    spec = state.spec
    # in the logarithm's own buffer: a sum of two floats is bitwise the same in either order
    grid = regularized_log_density(state.rho)
    grid *= 0.5
    grid += state.phase.values / spec.hbar
    return ScalarField(grid, spec), state.phase_slope / spec.hbar


def diffuse(rho: ScalarField, total_time: float, dt_pde: float) -> ScalarField:
    """Free diffusion of a density: d_t rho = sum_A hbar / (2 m_A) d_A^2 rho.

    The flow of walkers taking maximum-entropy steps with no drift.  The
    step is linear in rho, with no logarithm and no division by rho
    anywhere, so roundoff in exponentially dead tail cells is damped by the
    heat term rather than fed back.
    """
    steps = step_count(total_time, dt_pde)
    spec = rho.spec
    heat_symbol = laplacian_symbol(spec, [0.5 * spec.hbar / m for m in spec.axis_masses])
    check_step_bound(dt_pde, "diffusive stability", float(np.max(heat_symbol)), 2.78)

    def rate(rho_values: np.ndarray) -> tuple:
        return (irfftn(-heat_symbol * rfftn(rho_values, spec), spec),)

    values = rho.values
    for _ in range(steps):
        (values,) = rk4_step(rate, (values,), dt_pde)
        lowest = float(np.min(values))
        if lowest < POSITIVITY_MONITOR:
            raise NumericalAbort(
                f"density positivity monitor tripped: min rho = {lowest:.3e} during diffusion"
            )
    return ScalarField(values, spec)


def entropy(rho: ScalarField) -> float:
    """S = -int rho log rho with 0 log 0 = 0."""
    vals = np.clip(rho.values, 0.0, None)
    return float(-np.sum(vals * np.log(np.where(vals > 0, vals, 1.0))) * rho.spec.cell_volume)


def entropy_rate(state: EpistemicState | WaveField) -> float:
    """dS/dt along the continuity flow: + int rho m^{AB} d_A d_B Phi, of a state or a wave.

    Evaluated as -sum_A (1/m_A) int d_A(rho) d_A(Phi), exact under the
    spectral integration-by-parts identity.  Independent of the shift.
    """
    spec = state.spec
    total = 0.0
    for axis in range(spec.dim):
        [grad] = phase_gradient_arrays(state, (axis,))
        total -= entropy_rate_term(state, axis, grad)
        del grad
    return total * spec.cell_volume


def entropy_rate_term(state: EpistemicState | WaveField, axis: int, phase_grad: np.ndarray) -> float:
    """(1/m_A) sum over cells of d_A(rho) d_A(Phi) for one axis; phase_grad is left as it was."""
    spec = state.spec
    [product] = gradient_arrays(state.rho.values, spec, (axis,))
    product *= phase_grad
    return float(np.sum(product)) / spec.axis_masses[axis]
