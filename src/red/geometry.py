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
from .fields import entropy_rate, masked_wave
from .model import (
    EpistemicState,
    ScalarField,
    ShiftVelocity,
    SystemSpec,
    gradient_arrays,
    mode_momentum,
    quadrature,
)
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
    spec = state.spec
    rho = state.rho.values
    phase_grads = state.phase_gradients
    root_grads = state.root_gradients
    total = 0.0
    for axis in range(spec.dim):
        mass = spec.axis_masses[axis]
        relative = phase_grads[axis] - mass * shift.per_axis[axis]
        total += float(np.sum(rho * relative ** 2) / (2.0 * mass)) * spec.cell_volume
        total += float(np.sum(root_grads[axis] ** 2) * spec.hbar ** 2 / (2.0 * mass)) * spec.cell_volume
    return total


def kernel_spread_constant(spec: SystemSpec) -> float:
    """N * d * hbar / (4 * dt): the shift- and state-independent piece."""
    return spec.dim * spec.hbar / (4.0 * spec.dt)


def info_metric_g(state: EpistemicState, shift: ShiftVelocity) -> MismatchReport:
    """Mismatch between the instant and its entropic successor, decomposed.

    Uses the kernel time step spec.dt.  The three reported terms sum to
    g_total exactly by construction; each is also independently meaningful.
    """
    spec = state.spec
    constant = kernel_spread_constant(spec)
    entropy_term = -0.5 * spec.hbar * entropy_rate(state)
    h0_term = ensemble_hamiltonian_h0(state, shift)
    return MismatchReport(
        g_total=constant + entropy_term + h0_term,
        constant_term=constant,
        entropy_term=entropy_term,
        h0_term=h0_term,
        shift=tuple(float(c) for c in shift.components),
        dt=spec.dt,
    )


def info_metric_g_mc(
    rho: ScalarField,
    drift_phi: ScalarField,
    shift: ShiftVelocity,
    n_samples: int,
    seed: int,
    sample_index: int = 0,
    drift_slope=None,
) -> MonteCarloEstimate:
    """Monte Carlo estimate of the mismatch from the kernel's own variables.

    Positions are drawn from rho; the inner average over kernel fluctuations
    is carried out analytically, which leaves the per-sample statistic

        f(x) = sum_A m_A v_A(x)^2 / 2,   v_A = hbar d_A(phi) / m_A - shift_A,

    plus the deterministic spread constant.  Standard error scales with the
    sample variance of f: quadrupling the sample count halves it.

    drift_slope carries the linear part of phi per configuration axis, the
    same device EpistemicState uses for its phase: a boost is not periodic
    on the grid, so it must bypass the spectral gradient.
    """
    if n_samples < 2:
        raise ConsistencyError("need at least two samples for a standard error")
    spec = rho.spec
    if drift_phi.spec != spec:
        raise ConsistencyError("density and drift potential live on different grids")
    if drift_slope is None:
        drift_slope = np.zeros(spec.dim)
    drift_slope = np.broadcast_to(np.asarray(drift_slope, dtype=float), (spec.dim,))
    drift_grads = gradient_arrays(drift_phi.values, spec)

    weights = np.clip(rho.values.reshape(-1), 0.0, None)
    total = float(np.sum(weights))
    if total <= 0.0:
        raise ConsistencyError("density has no positive cells to sample")
    rng = stream(seed, STREAM_MONTE_CARLO, sample_index)
    flat_cells = rng.choice(weights.size, size=n_samples, p=weights / total)

    statistic = np.zeros(n_samples)
    for axis in range(spec.dim):
        mass = spec.axis_masses[axis]
        grads = drift_grads[axis].reshape(-1)[flat_cells] + drift_slope[axis]
        velocity = spec.hbar * grads / mass - shift.per_axis[axis]
        statistic += 0.5 * mass * velocity ** 2
    value = kernel_spread_constant(spec) + float(np.mean(statistic))
    stderr = float(np.std(statistic, ddof=1) / np.sqrt(n_samples))
    return MonteCarloEstimate(value=value, stderr=stderr, n_samples=n_samples)


def total_momentum(state: EpistemicState) -> np.ndarray:
    """Density-weighted total flow momentum per spatial axis, shape (d,).

    A wrapped state is summed in mode space from one forward FFT of its
    masked wave (fields.masked_wave): by Parseval, int rho d_A Phi over the
    alive cells is hbar * cell_volume / N * sum_k k_A |psi_k|^2, and the
    slope adds slope_A * int rho.  A smooth phase is differentiated as it
    stands.
    """
    spec = state.spec
    rho = state.rho.values
    out = np.zeros(spec.spatial_dim)
    if state.phase_wrapped:
        _, psi = masked_wave(state)
        momentum, _ = mode_momentum(psi, spec)
        out += spec.hbar * spec.cell_volume / psi.size * momentum
        mass = float(np.sum(rho)) * spec.cell_volume
        for axis in range(spec.dim):
            out[spec.spatial_of_axis(axis)] += state.phase_slope[axis] * mass
        return out
    phase_grads = state.phase_gradients
    for axis in range(spec.dim):
        out[spec.spatial_of_axis(axis)] += float(np.sum(rho * phase_grads[axis])) * spec.cell_volume
    return out


def best_match_shift(state: EpistemicState, mode: str = "closed_form") -> ShiftVelocity:
    """Shift velocity minimizing the mismatch with the next instant.

    closed_form solves the stationarity condition directly; numerical
    descends the quadrature gradient M * shift - P until it vanishes, as a
    cross-check of the same condition.
    """
    spec = state.spec
    mass = spec.total_mass
    if mode == "closed_form":
        return ShiftVelocity(total_momentum(state) / mass, spec)
    if mode != "numerical":
        raise ValueError(f"unknown best-match mode {mode!r}")

    rho = state.rho.values
    phase_grads = state.phase_gradients

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
