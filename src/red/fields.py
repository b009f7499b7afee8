"""Density evolution and field-level functionals.

The current velocity of a state is

    V_A = grad_A(Phi) / m_n - shift_a,      Phi = hbar * (phi - log sqrt(rho)),

and the density obeys the continuity equation d_t rho = -div(rho V).

Phase gradients are computed through the unimodular field u = exp(i Phi / hbar)
plus the explicit slope, so a stored phase that winds (wrapped into one period)
still differentiates cleanly: grad Phi = hbar * Im(conj(u) grad u) + slope.

Entropy here is S = -int rho log rho.  Its exact rate along the continuity
flow is dS/dt = + int rho m^{AB} d_A d_B Phi (the shift drops out); this is
evaluated in the integrated-by-parts form -int m^{AB} d_A(rho) d_B(Phi),
which is an identity for spectral derivatives on the periodic grid.
"""

from __future__ import annotations

import numpy as np
from scipy.special import xlogy

from .errors import DensityFloorError, NumericalAbort
from .model import (
    EpistemicState,
    ScalarField,
    ShiftVelocity,
    SystemSpec,
    check_rk4_bound,
    divergence_spectrum,
    gradient_arrays,
    irfftn,
    laplacian_symbol,
    rfftn,
    rk4_step,
    step_count,
)

POSITIVITY_MONITOR = -1e-10
PHASE_DEAD_RELATIVE = 1e-15
OSMOTIC_FLOOR = 1e-14
OSMOTIC_EXACT = 1e-8


def masked_wave(state: EpistemicState) -> tuple:
    """(alive, psi) of a wrapped state: psi = sqrt(rho) exp(i Phi / hbar), 0 where not alive.

    alive marks cells with rho above PHASE_DEAD_RELATIVE * max(rho); the
    slope is not included.  A state read off a wavefunction carries psi as
    wave_values and skips the complex exponential.
    """
    rho = state.rho.values
    alive = rho > PHASE_DEAD_RELATIVE * float(np.max(rho))
    if state.wave_values is not None:
        return alive, np.where(alive, state.wave_values, 0.0)
    amplitude = np.where(alive, np.sqrt(np.clip(rho, 0.0, None)), 0.0)
    return alive, amplitude * np.exp(1j * state.phase.values / state.spec.hbar)


def phase_gradient_arrays(state: EpistemicState) -> list:
    """grad Phi per axis, plus the exact slope contribution.

    Smooth (unwrapped) phase grids are differentiated spectrally as they
    stand.  That path involves no division by rho, so roundoff junk in
    exponentially dead density cells can never leak into the velocity; in a
    stepper that feeds its own output back in, any rho-dependent noise in
    the velocity is self-amplifying.

    Wrapped phase grids (recovered from a wavefunction, stored modulo
    2*pi*hbar) go through psi = sqrt(rho) * exp(i Phi / hbar), which is
    immune to the wraps, with hbar * Im(conj(psi) grad psi) / rho.  Cells
    with rho below PHASE_DEAD_RELATIVE * max(rho) sit under the FFT
    roundoff floor, where that division is pure noise; they get gradient 0,
    and every consumer weights by rho anyway.
    """
    spec = state.spec
    if not state.phase_wrapped:
        grads = gradient_arrays(state.phase.values, spec)
        return [g + state.phase_slope[axis] for axis, g in enumerate(grads)]
    rho = state.rho.values
    alive, psi = masked_wave(state)
    grads = gradient_arrays(psi, spec)
    safe_rho = np.where(alive, rho, 1.0)
    return [
        np.where(alive, spec.hbar * np.imag(np.conj(psi) * g) / safe_rho, 0.0)
        + state.phase_slope[axis]
        for axis, g in enumerate(grads)
    ]


def _bump_sigmoid(u: np.ndarray) -> np.ndarray:
    """Monotone 0 -> 1 switch, exactly flat outside (0, 1), C-infinity inside."""
    u = np.clip(u, 0.0, 1.0)
    with np.errstate(divide="ignore", under="ignore"):
        lower = np.where(u > 0.0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        upper = np.where(u < 1.0, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
    return lower / (lower + upper)


def regularized_log_density(rho: ScalarField) -> np.ndarray:
    """log rho with the exponentially dead tail frozen to a constant.

    Below OSMOTIC_FLOOR relative density the result is exactly constant, so
    integrator roundoff living in dead cells transmits nothing into any
    field derived from the logarithm; a feedback loop through the continuity
    stepper amplifies any nonzero transmission exponentially.  Above
    OSMOTIC_EXACT the true logarithm is returned unchanged.  The branches
    are joined by a C-infinity bump blend in log space: a transition of
    merely finite smoothness rings at the grid scale when differentiated
    spectrally, and the ringing undershoots the density in regions that
    hold real probability.
    """
    vals = rho.values
    top = float(np.max(vals))
    if not top > 0.0:
        raise DensityFloorError("density has no positive cells to anchor the logarithm")
    log_lo = np.log(OSMOTIC_FLOOR)
    width = np.log(OSMOTIC_EXACT) - log_lo
    rel = np.clip(vals / top, OSMOTIC_FLOOR, None)
    excess = np.log(rel) - log_lo
    blend = _bump_sigmoid(excess / width)
    return log_lo + blend * excess + np.log(top)


def osmotic_phase(drift_phi: ScalarField, rho: ScalarField, spec: SystemSpec) -> ScalarField:
    """Phi from a drift potential with the dead-tail-safe logarithm."""
    return ScalarField(
        spec.hbar * (drift_phi.values - 0.5 * regularized_log_density(rho)), spec
    )


def state_drift_potential(state: EpistemicState) -> tuple:
    """Drift potential of a state: (grid part, per-axis slope).

    phi = Phi / hbar + 0.5 * log rho, split the same way the state splits
    its phase: the grid holds the periodic part, the slope the linear part.
    Uses the dead-tail-safe logarithm so the grid part stays spectrally
    differentiable.
    """
    if state.phase_wrapped:
        raise NumericalAbort(
            "cannot build a drift potential from a wrapped phase grid; "
            "unwrap through the wavefunction route first"
        )
    spec = state.spec
    grid = ScalarField(
        state.phase.values / spec.hbar + 0.5 * regularized_log_density(state.rho),
        spec,
    )
    return grid, state.phase_slope / spec.hbar


def diffuse(state: EpistemicState, drift_phi: ScalarField, shift: ShiftVelocity,
            total_time: float, dt_pde: float) -> EpistemicState:
    """Integrate the density flow of a prescribed drift potential.

    In the (drift, density) variables the equation is linear: the osmotic
    part of the flux is -hbar/(2 m) grad rho, so the step is heat plus
    advection with no logarithm and no division by rho anywhere.  That
    linearity is essential, not cosmetic: any velocity reconstructed from
    rho couples roundoff in exponentially dead tail cells back into the
    flux, and the loop amplifies it exponentially.  Here high-wavenumber
    junk is instead damped by the diffusion term.

    The returned state carries the regularized osmotic phase of its own
    final density, so it can be handed to entropy_rate directly.
    """
    steps = step_count(total_time, dt_pde)
    spec = state.spec

    drift_grads = gradient_arrays(drift_phi.values, spec)
    drift_velocity = [
        spec.hbar * drift_grads[axis] / spec.axis_masses[axis] - shift.per_axis[axis]
        for axis in range(spec.dim)
    ]
    osmotic = [0.5 * spec.hbar / spec.axis_masses[axis] for axis in range(spec.dim)]

    heat_symbol = laplacian_symbol(spec, osmotic)

    # RK4 stability: the heat symbol is real, the advective one imaginary
    # (a Courant number of at most 0.5)
    courant = max(float(np.max(np.abs(v))) / h for v, h in zip(drift_velocity, spec.spacing))
    check_rk4_bound(dt_pde, ("diffusive", float(np.max(heat_symbol)), 2.78),
                    ("advective", courant, 0.5))

    def rate(rho_values: np.ndarray) -> tuple:
        fluxes = [rho_values * v for v in drift_velocity]
        spectrum = -heat_symbol * rfftn(rho_values, spec) - divergence_spectrum(fluxes, spec)
        return (irfftn(spectrum, spec),)

    rho = state.rho.values
    for _ in range(steps):
        (rho,) = rk4_step(rate, (rho,), dt_pde)
        lowest = float(np.min(rho))
        if lowest < POSITIVITY_MONITOR:
            raise NumericalAbort(
                f"density positivity monitor tripped: min rho = {lowest:.3e} during diffusion"
            )
    final_rho = ScalarField(rho, spec)
    final_phase = osmotic_phase(drift_phi, final_rho, spec)
    return EpistemicState(final_rho, final_phase, None, state.time + steps * dt_pde)


def entropy(rho: ScalarField) -> float:
    """S = -int rho log rho with 0 log 0 = 0."""
    vals = np.clip(rho.values, 0.0, None)
    return float(-np.sum(xlogy(vals, vals)) * rho.spec.cell_volume)


def entropy_rate(state: EpistemicState) -> float:
    """dS/dt along the continuity flow: + int rho m^{AB} d_A d_B Phi.

    Evaluated as -sum_A (1/m_A) int d_A(rho) d_A(Phi), exact under the
    spectral integration-by-parts identity.  Independent of the shift.
    """
    spec = state.spec
    rho_grads = gradient_arrays(state.rho.values, spec)
    phase_grads = state.phase_gradients
    total = 0.0
    for axis in range(spec.dim):
        total -= float(np.sum(rho_grads[axis] * phase_grads[axis])) / spec.axis_masses[axis]
    return total * spec.cell_volume
