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

import numpy as np

from .errors import StateError
from .io import write_float_csv
from .model import (
    Ensemble,
    ScalarField,
    ShiftVelocity,
    Stencil,
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


class Drift:
    """Gradient of a drift potential phi: per-axis grids plus a constant per-axis slope.

    phi splits the way a boosted state's phase does: a periodic part, held
    as its spectral gradient on the grid and read multilinearly through one
    Stencil per call, and a linear part slope . x.  A linear phi has no
    grids; a periodic phi has a zero slope.
    """

    def __init__(self, spec: SystemSpec, grids=(), slope=None):
        self.spec = spec
        self.grids = tuple(grids)
        self.slope = np.zeros(spec.dim) if slope is None else np.broadcast_to(
            np.asarray(slope, dtype=float), (spec.dim,)).copy()

    @classmethod
    def of(cls, drift_phi: ScalarField) -> "Drift":
        """Drift of the grid potential drift_phi, differentiated spectrally."""
        return cls(drift_phi.spec, gradient_arrays(drift_phi.values, drift_phi.spec))

    def gradient(self, points: np.ndarray) -> np.ndarray:
        """grad phi at (K, D) points, as a new (K, D) array the caller owns."""
        points = np.atleast_2d(points)
        if not self.grids:
            return np.broadcast_to(self.slope, points.shape).copy()
        stencil = Stencil.at(self.spec, points)  # one stencil serves all D axes
        out = np.empty_like(points)
        for axis in range(self.spec.dim):
            out[:, axis] = interpolate(self.grids[axis], stencil) + self.slope[axis]
        return out


def kernel_moments(points: np.ndarray, drift: Drift, shift: ShiftVelocity, spec: SystemSpec,
                   dt: float):
    """Vectorized kernel mean (K, D) and shared covariance diagonal (D,)."""
    if not (dt > 0 and np.isfinite(dt)):
        raise StateError(f"dt must be positive and finite, got {dt!r}")
    mean = drift.gradient(points)
    if not np.all(np.isfinite(mean)):
        raise StateError("drift gradient is not finite at a requested point")
    inv_mass = 1.0 / spec.axis_masses
    # ((hbar dt) grad) (1/m) - shift dt, in place on the gradient's own new array and one
    # column at a time: a (D,) row broadcast over (K, D) runs numpy's loop D elements at a time
    for column, inv, drift_shift in zip(mean.T, inv_mass, shift.per_axis * dt):
        column *= spec.hbar * dt
        column *= inv
        column -= drift_shift
    cov = spec.hbar * dt * inv_mass
    return mean, cov


def walker_step(ensemble: Ensemble, drift: Drift, shift: ShiftVelocity, dt: float,
                time: float) -> Ensemble:
    """One kernel step of duration dt for every walker, landing at `time`.

    The noise is the Philox stream (rng_seed, STREAM_WALK, step_index);
    walker i reads lanes [i*D, (i+1)*D) of it.  Ensemble wraps the landing
    points into the box.
    """
    spec = ensemble.spec
    landing, cov = kernel_moments(ensemble.positions, drift, shift, spec, dt)
    noise = stream(ensemble.rng_seed, STREAM_WALK, ensemble.step_index).standard_normal(
        ensemble.positions.shape
    )
    # (positions + mean) + sqrt(cov) * noise, in place on the mean's and the noise's arrays
    # (the noise scaled a column at a time, as in kernel_moments)
    landing += ensemble.positions
    for column, sigma in zip(noise.T, np.sqrt(cov)):
        column *= sigma
    landing += noise
    return Ensemble(landing, spec, ensemble.rng_seed, time, ensemble.step_index + 1)


def evolve_ensemble(ensemble: Ensemble, drift: Drift, shift: ShiftVelocity, steps: int) -> Ensemble:
    """Advance every walker `steps` entropic instants of duration spec.dt."""
    if steps < 0:
        raise StateError("steps must be non-negative")
    t0, dt = ensemble.time, ensemble.spec.dt
    for s in range(1, steps + 1):
        ensemble = walker_step(ensemble, drift, shift, dt, t0 + s * dt)
    return ensemble


def minimal_image(spec: SystemSpec, displacement: np.ndarray) -> np.ndarray:
    """Fold displacements into (-L/2, L/2] per configuration axis, as a new array."""
    box = spec.axis_box
    # in the result's own buffer: a real product is bitwise the same in either order
    folded = np.divide(displacement, box)
    np.round(folded, out=folded)
    folded *= box
    return np.subtract(displacement, folded, out=folded)


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
