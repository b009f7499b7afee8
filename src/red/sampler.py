"""Maximum-entropy transition kernel and walker-ensemble evolution.

One entropic step from x is Gaussian: per configuration axis A (particle n),

    mean_A = hbar * dt * grad_A(phi)(x) / m_n  -  shift_a * dt
    var_A  = hbar * dt / m_n

Fluctuations are independent of the shift; the drift potential phi enters
only through its gradient.

Randomness is counter-based (Philox).  The noise a walker receives is a
pure function of (rng_seed, stream purpose, step index, walker index), so
chained evolutions, restarts, and any internal parallel schedule all see
identical streams.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import ConsistencyError
from .io import write_float_csv
from .model import (
    Ensemble,
    ScalarField,
    ShiftVelocity,
    SystemSpec,
    gradient_arrays,
    interpolate,
)

# Purpose tags keep the Philox counter spaces of unrelated draws disjoint.
STREAM_WALK = 0
STREAM_INIT = 1
STREAM_MONTE_CARLO = 2
STREAM_CHECKS = 3


def stream(seed: int, purpose: int, index: int = 0) -> np.random.Generator:
    """Independent generator for (seed, purpose, index), schedule-free."""
    bit_gen = np.random.Philox(key=np.uint64(seed), counter=[0, 0, purpose, index])
    return np.random.Generator(bit_gen)


class GridDrift:
    """Drift-potential gradient held per configuration axis on the grid, evaluated multilinearly."""

    def __init__(self, spec: SystemSpec, grids: list):
        self.spec = spec
        self.grids = grids

    def gradient(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        out = np.empty_like(points)
        for axis in range(self.spec.dim):
            out[:, axis] = interpolate(self.grids[axis], self.spec, points)
        return out


class AnalyticDrift:
    """Drift potential with a closed-form gradient, evaluated exactly."""

    def __init__(self, gradient_fn):
        self._gradient_fn = gradient_fn

    def gradient(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        return np.asarray(self._gradient_fn(points), dtype=float).reshape(points.shape)


def linear_drift(coefficients) -> AnalyticDrift:
    """phi(x) = c . x; the gradient is the constant coefficient vector."""
    coeffs = np.asarray(coefficients, dtype=float)
    return AnalyticDrift(lambda pts: np.broadcast_to(coeffs, pts.shape).copy())


def constant_drift() -> AnalyticDrift:
    """phi constant: no drift, pure diffusion."""
    return AnalyticDrift(lambda pts: np.zeros_like(pts))


def as_drift(drift_phi):
    """Accept a ScalarField (differentiated spectrally), a drift object, or None (no drift)."""
    if drift_phi is None:
        return constant_drift()
    if isinstance(drift_phi, ScalarField):
        return GridDrift(drift_phi.spec, gradient_arrays(drift_phi.values, drift_phi.spec))
    if hasattr(drift_phi, "gradient"):
        return drift_phi
    raise TypeError(f"cannot interpret {type(drift_phi).__name__} as a drift potential")


def kernel_moments(points: np.ndarray, drift, shift: ShiftVelocity, spec: SystemSpec, dt: float):
    """Vectorized kernel mean (K, D) and shared covariance diagonal (D,)."""
    if not (dt > 0 and np.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    grad = as_drift(drift).gradient(points)
    if not np.all(np.isfinite(grad)):
        raise ConsistencyError("drift gradient is not finite at a requested point")
    inv_mass = 1.0 / spec.axis_masses
    mean = spec.hbar * dt * grad * inv_mass - shift.per_axis * dt
    cov = spec.hbar * dt * inv_mass
    return mean, cov


def walker_step(ensemble: Ensemble, drift, shift: ShiftVelocity, dt: float,
                time: float) -> Ensemble:
    """One kernel step of duration dt for every walker, landing at `time`.

    The noise is the Philox stream (rng_seed, STREAM_WALK, step_index);
    walker i reads lanes [i*D, (i+1)*D) of it.  Ensemble wraps the landing
    points into the box.
    """
    spec = ensemble.spec
    mean, cov = kernel_moments(ensemble.positions, drift, shift, spec, dt)
    noise = stream(ensemble.rng_seed, STREAM_WALK, ensemble.step_index).standard_normal(
        ensemble.positions.shape
    )
    return Ensemble(ensemble.positions + mean + np.sqrt(cov) * noise, spec,
                    ensemble.rng_seed, time, ensemble.step_index + 1)


def evolve_ensemble(ensemble: Ensemble, drift_phi, shift: ShiftVelocity, steps: int) -> Ensemble:
    """Advance every walker `steps` entropic instants of duration spec.dt."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    drift = as_drift(drift_phi)
    t0, dt = ensemble.time, ensemble.spec.dt
    for s in range(1, steps + 1):
        ensemble = walker_step(ensemble, drift, shift, dt, t0 + s * dt)
    return ensemble


def minimal_image(spec: SystemSpec, displacement: np.ndarray) -> np.ndarray:
    """Fold displacements into (-L/2, L/2] per configuration axis."""
    box = spec.axis_box
    return displacement - box * np.round(displacement / box)


def sample_from_density(rho: ScalarField, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n points from the grid measure rho * cell_volume (support on grid nodes)."""
    spec = rho.spec
    weights = np.clip(rho.values.reshape(-1), 0.0, None) * spec.cell_volume
    weights = weights / weights.sum()
    flat = rng.choice(weights.size, size=n, p=weights)
    idx = np.unravel_index(flat, spec.grid_points)
    return np.stack([spec.axis_coords[axis][idx[axis]] for axis in range(spec.dim)], axis=1)


def walkers_to_csv(ensemble: Ensemble, path) -> None:
    """Write walker positions as CSV with header x_0,...,x_{D-1}."""
    write_float_csv(path, [f"x_{a}" for a in range(ensemble.spec.dim)], ensemble.positions)


def walkers_from_csv(path, spec: SystemSpec, rng_seed: int = 0, time: float = 0.0) -> Ensemble:
    """Read walker positions written by walkers_to_csv."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        expected = [f"x_{a}" for a in range(spec.dim)]
        if header != expected:
            raise ConsistencyError(f"walker CSV header {header} does not match {expected}")
        rows = [[float(v) for v in row] for row in reader]
    return Ensemble(np.asarray(rows, dtype=float), spec, rng_seed, time)
