"""Information geometry of successive instants and entropic best matching.

The squared distance between the ensemble at one instant and the next is,
up to the kernel's own spread, a quadratic functional of the drift and the
global shift velocity.  Integrating the transition kernel analytically
collapses it to three pieces:

    g_total = N * d * hbar / (4 * dt)                (kernel spread)
            - (hbar / 2) * dS/dt                     (entropy production)
            + H0                                     (ensemble energy)

with H0 the sum of a flow kinetic term and a density-curvature term,

    H0 = int rho * sum_A [ (d_A Phi - m_A shift_A)^2 / (2 m_A) ]
       + int sum_A (hbar^2 / (2 m_A)) (d_A sqrt(rho))^2.

Minimizing g_total over the shift is linear: the optimum equalizes the
shift with the mean flow velocity, shift_a = P_a / M, where P is the total
flow momentum and M the total mass (best_match_shift).  As g is exactly
quadratic in the shift, three values of it per axis give the same optimum
(best_match_fit).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StateError
from .fields import entropy_rate_term, phase_gradient_arrays, state_drift_potential
from .model import (
    EpistemicState,
    ShiftVelocity,
    SystemSpec,
    gradient_arrays,
    root_gradient_squares,
)
from .quantum import WaveField, WaveSpectrum, spectrum_momentum
from .sampler import STREAM_MONTE_CARLO, stream

@dataclass(frozen=True)
class MismatchReport:
    """Decomposed value of the instant-to-instant information distance."""

    g_total: float
    constant_term: float
    entropy_term: float
    h0_term: float
    shift: tuple
    dt: float


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample-mean estimate with its standard error."""

    value: float
    stderr: float


def kernel_spread_constant(spec: SystemSpec) -> float:
    """N * d * hbar / (4 * dt): the shift- and state-independent piece."""
    return spec.dim * spec.hbar / (4.0 * spec.dt)


def info_metric_g(state: EpistemicState | WaveField, shift: ShiftVelocity) -> MismatchReport:
    """Mismatch between the instant and its entropic successor, decomposed.

    state is an EpistemicState or a WaveField; the kernel time step is
    spec.dt.  The three reported terms sum to g_total exactly by
    construction; each is also independently meaningful.
    The entropy rate and H0 share one loop over the axes, the only H0 loop:
    each phase gradient serves both, then is freed before the next axis is
    built, with the bits of fields.entropy_rate.  Per axis, H0 takes the flow
    term, then the curvature term int (hbar^2 / (2 m_A)) (d_A sqrt(rho))^2.
    """
    spec = state.spec
    constant = kernel_spread_constant(spec)
    root_squares = root_gradient_squares(state)  # before any phase gradient lives
    rate = 0.0
    h0_term = 0.0
    for axis in range(spec.dim):
        [grad] = phase_gradient_arrays(state, (axis,))
        rate -= entropy_rate_term(state, axis, grad)
        mass = spec.axis_masses[axis]
        grad -= mass * shift.per_axis[axis]  # the flow term, in grad's buffer
        np.square(grad, out=grad)
        grad *= state.rho.values
        h0_term += float(np.sum(grad) / (2.0 * mass)) * spec.cell_volume
        h0_term += float(root_squares[axis] * spec.hbar ** 2 / (2.0 * mass)) * spec.cell_volume
        del grad
    entropy_term = -0.5 * spec.hbar * (rate * spec.cell_volume)
    return MismatchReport(
        g_total=constant + entropy_term + h0_term,
        constant_term=constant,
        entropy_term=entropy_term,
        h0_term=h0_term,
        shift=tuple(float(c) for c in shift.components),
        dt=spec.dt,
    )


def ensemble_hamiltonian_h0(state: EpistemicState, shift: ShiftVelocity) -> float:
    """Flow kinetic energy relative to the shift plus the curvature term: info_metric_g's h0_term.

    No code path of red calls it; perfbench's traced layer list names it.
    """
    return info_metric_g(state, shift).h0_term


def info_metric_g_mc(state: EpistemicState, shift: ShiftVelocity, n_samples: int,
                     seed: int) -> MonteCarloEstimate:
    """Monte Carlo twin of info_metric_g, from the kernel's own variables.

    Positions are drawn from rho; the inner average over kernel fluctuations
    is carried out analytically, which leaves the per-sample statistic

        f(x) = sum_A m_A v_A(x)^2 / 2,   v_A = hbar d_A(phi) / m_A - shift_A,

    plus the deterministic spread constant; phi is the state's drift
    potential (fields.state_drift_potential).  Standard error scales with the
    sample variance of f: quadrupling the sample count halves it.  The cells
    are drawn before phi is built; each axis's gradient is then read there,
    with no interpolation, and freed before the next axis.
    """
    if n_samples < 2:
        raise StateError("need at least two samples for a standard error")
    spec = state.spec
    weights = np.clip(state.rho.values.reshape(-1), 0.0, None)
    total = float(np.sum(weights))
    if total <= 0.0:
        raise StateError("density has no positive cells to sample")
    weights /= total
    rng = stream(seed, STREAM_MONTE_CARLO)
    flat_cells = rng.choice(weights.size, size=n_samples, p=weights)
    del weights

    phi, slope = state_drift_potential(state)
    statistic = np.zeros(n_samples)
    for axis in range(spec.dim):
        mass = spec.axis_masses[axis]
        [grad] = gradient_arrays(phi.values, spec, (axis,))
        grads = grad.reshape(-1)[flat_cells] + slope[axis]
        del grad
        velocity = spec.hbar * grads / mass - shift.per_axis[axis]
        statistic += 0.5 * mass * velocity ** 2
        del grads, velocity
    value = kernel_spread_constant(spec) + float(np.mean(statistic))
    stderr = float(np.std(statistic, ddof=1) / np.sqrt(n_samples))
    return MonteCarloEstimate(value=value, stderr=stderr)


def total_momentum(state: EpistemicState | WaveField) -> np.ndarray:
    """Density-weighted total flow momentum per spatial axis, shape (d,).

    int rho d_A Phi from fields.phase_gradient_arrays, one axis at a time,
    summed onto the spatial axes, for a state or a wave (whose psi is
    differentiated).  A wave's <P> in mode space is WaveField.momentum
    (quantum.expected_momentum, kept with the wave).
    """
    spec = state.spec
    rho = state.rho.values
    out = np.zeros(spec.spatial_dim)
    for axis in range(spec.dim):
        [grad] = phase_gradient_arrays(state, (axis,))
        grad *= rho
        out[spec.spatial_of_axis(axis)] += float(np.sum(grad)) * spec.cell_volume
        del grad
    return out


def best_match_shift(state) -> ShiftVelocity:
    """Shift velocity minimizing the mismatch with the next instant: P / M.

    The closed form solves the stationarity condition directly.  state is an
    EpistemicState, whose P is total_momentum, a WaveField, whose P is
    WaveField.momentum and needs no phase gradient, or a WaveSpectrum, whose
    P is spectrum_momentum and needs no transform (the split step matches its
    half-kicked spectrum this way).  The P of a wave or spectrum is per unit
    norm, so it equals the wave's total_momentum only up to its norm error.
    """
    spec = state.spec
    mass = spec.total_mass
    if isinstance(state, WaveSpectrum):
        return ShiftVelocity(spectrum_momentum(state) / mass, spec)
    if isinstance(state, WaveField):
        return ShiftVelocity(state.momentum / mass, spec)
    return ShiftVelocity(total_momentum(state) / mass, spec)


def best_match_fit(state: EpistemicState | WaveField) -> ShiftVelocity:
    """The same optimum from info_metric_g alone, reading no momentum.

    The shift enters g only through H0's flow term, so h0_term is exactly
    quadratic in it, with no cross terms between spatial axes: its values g0,
    g+ and g- at 0 and +-h_a e_a give s_a = -h_a (g+ - g-) / (2 (g+ - 2 g0 + g-)).
    h_a = 2 pi hbar / (L_a M), the shift one lattice momentum quantum gives the
    system, scales with any mass; the ratio comes before the product, so
    neither underflows.  (g_total's spread constant would drown the
    differences at small dt.)  The result is P / (M int rho), which is P / M
    up to the state's norm error.
    """
    spec = state.spec
    g0 = info_metric_g(state, ShiftVelocity.zero(spec)).h0_term
    out = np.zeros(spec.spatial_dim)
    for a in range(spec.spatial_dim):
        step = np.zeros(spec.spatial_dim)
        step[a] = 2.0 * np.pi * spec.hbar / (spec.box_length[a] * spec.total_mass)
        g_plus = info_metric_g(state, ShiftVelocity(step, spec)).h0_term
        g_minus = info_metric_g(state, ShiftVelocity(-step, spec)).h0_term
        curvature = g_plus - 2.0 * g0 + g_minus
        if not (np.isfinite(curvature) and curvature > 0.0):
            raise StateError(f"best-match fit: the mismatch along spatial axis {a} has curvature "
                             f"{curvature:g}, not a finite positive value")
        out[a] = -step[a] * ((g_plus - g_minus) / (2.0 * curvature))
    return ShiftVelocity(out, spec)
