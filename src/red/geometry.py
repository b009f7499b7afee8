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
flow momentum and M the total mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError
from .fields import entropy_rate_term, phase_gradient_arrays, state_drift_potential
from .model import EpistemicState, ShiftVelocity, SystemSpec, gradient_arrays
from .quantum import WaveField, WaveSpectrum, spectrum_momentum
from .sampler import STREAM_MONTE_CARLO, stream

BEST_MATCH_GRAD_TOL = 1e-10
BEST_MATCH_MAX_ITER = 10_000


@dataclass(frozen=True)
class MismatchReport:
    """Decomposed value of the instant-to-instant information distance."""

    g_total: float
    constant_term: float
    entropy_term: float
    h0_term: float
    shift: tuple
    dt: float

    def as_dict(self) -> dict:
        return {
            "g_total": self.g_total,
            "constant_term": self.constant_term,
            "entropy_term": self.entropy_term,
            "h0_term": self.h0_term,
            "shift": list(self.shift),
            "dt": self.dt,
        }


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample-mean estimate with its standard error."""

    value: float
    stderr: float
    n_samples: int


def ensemble_hamiltonian_h0(state: EpistemicState, shift: ShiftVelocity) -> float:
    """Flow kinetic energy relative to the shift plus the curvature term."""
    root_squares = state.root_gradient_squares  # built before any phase gradient lives
    total = 0.0
    for axis in range(state.spec.dim):
        [grad] = phase_gradient_arrays(state, (axis,))
        total += _flow_energy(state, shift, axis, grad)
        total += _curvature_energy(state.spec, axis, root_squares[axis])
        del grad
    return total


def _flow_energy(state: EpistemicState, shift: ShiftVelocity, axis: int,
                 phase_grad: np.ndarray) -> float:
    """int rho (d_A Phi - m_A shift_A)^2 / (2 m_A) for one axis, computed in phase_grad's buffer."""
    spec = state.spec
    mass = spec.axis_masses[axis]
    phase_grad -= mass * shift.per_axis[axis]
    np.square(phase_grad, out=phase_grad)
    phase_grad *= state.rho.values
    return float(np.sum(phase_grad) / (2.0 * mass)) * spec.cell_volume


def _curvature_energy(spec: SystemSpec, axis: int, root_square: float) -> float:
    """int (hbar^2 / (2 m_A)) (d_A sqrt(rho))^2 for one axis, from its root_gradient_squares entry."""
    mass = spec.axis_masses[axis]
    return float(root_square * spec.hbar ** 2 / (2.0 * mass)) * spec.cell_volume


def kernel_spread_constant(spec: SystemSpec) -> float:
    """N * d * hbar / (4 * dt): the shift- and state-independent piece."""
    return spec.dim * spec.hbar / (4.0 * spec.dt)


def info_metric_g(state: EpistemicState, shift: ShiftVelocity) -> MismatchReport:
    """Mismatch between the instant and its entropic successor, decomposed.

    Uses the kernel time step spec.dt.  The three reported terms sum to
    g_total exactly by construction; each is also independently meaningful.
    The entropy rate and H0 share one loop over the axes: each phase
    gradient serves both, then is freed before the next axis is built, with
    the bits of fields.entropy_rate and ensemble_hamiltonian_h0.
    """
    spec = state.spec
    constant = kernel_spread_constant(spec)
    root_squares = state.root_gradient_squares  # built before any phase gradient lives
    rate = 0.0
    h0_term = 0.0
    for axis in range(spec.dim):
        [grad] = phase_gradient_arrays(state, (axis,))
        rate -= entropy_rate_term(state, axis, grad)
        h0_term += _flow_energy(state, shift, axis, grad)  # overwrites grad
        h0_term += _curvature_energy(spec, axis, root_squares[axis])
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
        raise ConsistencyError("need at least two samples for a standard error")
    spec = state.spec
    weights = np.clip(state.rho.values.reshape(-1), 0.0, None)
    total = float(np.sum(weights))
    if total <= 0.0:
        raise ConsistencyError("density has no positive cells to sample")
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
    return MonteCarloEstimate(value=value, stderr=stderr, n_samples=n_samples)


def total_momentum(state: EpistemicState) -> np.ndarray:
    """Density-weighted total flow momentum per spatial axis, shape (d,).

    int rho d_A Phi from fields.phase_gradient_arrays, one axis at a time,
    summed onto the spatial axes; smooth and wrapped states alike (a wrapped
    one differentiates the wave it carries).  The momentum of a WaveField is
    WaveField.momentum (quantum.expected_momentum, kept with the wave).
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


def best_match_shift(state, mode: str = "closed_form") -> ShiftVelocity:
    """Shift velocity minimizing the mismatch with the next instant.

    closed_form solves the stationarity condition directly, shift = P / M;
    numerical descends the quadrature gradient M * shift - P until it
    vanishes, as a cross-check of the same condition.  state is an
    EpistemicState, whose P is total_momentum, or, in the closed form only,
    a WaveField, whose P is WaveField.momentum and needs no phase grid, or a
    WaveSpectrum, whose P is spectrum_momentum and needs no transform (the
    split step matches its half-kicked spectrum this way).  The P of a wave
    or spectrum is per unit norm, so it equals that of
    from_wavefunction(wave) only up to the wave's norm error.
    """
    spec = state.spec
    mass = spec.total_mass
    if mode == "closed_form":
        if isinstance(state, WaveSpectrum):
            return ShiftVelocity(spectrum_momentum(state) / mass, spec)
        if isinstance(state, WaveField):
            return ShiftVelocity(state.momentum / mass, spec)
        return ShiftVelocity(total_momentum(state) / mass, spec)
    if mode != "numerical":
        raise ValueError(f"unknown best-match mode {mode!r}")

    rho = state.rho.values
    phase_grads = phase_gradient_arrays(state)

    def quadrature_gradient(shift_components: np.ndarray) -> np.ndarray:
        # d(g_total)/d(shift_a) = -int rho sum_n (d_A Phi - m_A shift_a)
        out = np.zeros(spec.spatial_dim)
        for axis in range(spec.dim):
            relative = phase_grads[axis] - spec.axis_masses[axis] * shift_components[
                spec.spatial_of_axis(axis)
            ]
            out[spec.spatial_of_axis(axis)] -= float(np.sum(rho * relative)) * spec.cell_volume
        return out

    shift = np.zeros(spec.spatial_dim)
    for _ in range(BEST_MATCH_MAX_ITER):
        gradient = quadrature_gradient(shift)
        if float(np.max(np.abs(gradient))) < BEST_MATCH_GRAD_TOL:
            return ShiftVelocity(shift, spec)
        shift = shift - gradient / mass
    raise ConsistencyError(
        f"best-match iteration failed to reach |gradient| < {BEST_MATCH_GRAD_TOL:g} "
        f"within {BEST_MATCH_MAX_ITER} iterations"
    )
