"""Initial states, drift potentials, and interaction potentials.

Gaussians are periodized by summing a few translated images per axis, so
the grid data is smooth-periodic to machine precision rather than carrying
a tiny seam at the box boundary.
"""

from __future__ import annotations

import numpy as np

from .errors import StateError
from .model import (
    EpistemicState,
    ScalarField,
    SystemSpec,
)

GAUSSIAN_IMAGES = 3


def periodic_gaussian_axis(coords: np.ndarray, box: float, center: float, sigma: float) -> np.ndarray:
    """1-D wrapped Gaussian profile (unnormalized)."""
    out = np.zeros_like(coords)
    # far from the center the square overflows to inf, whose exponential is the exact 0
    with np.errstate(over="ignore"):
        for image in range(-GAUSSIAN_IMAGES, GAUSSIAN_IMAGES + 1):
            out += np.exp(-0.5 * ((coords - center + image * box) / sigma) ** 2)
    return out


def gaussian_density(spec: SystemSpec, center, sigma) -> ScalarField:
    """Normalized product of wrapped Gaussians, one factor per configuration axis, in one grid."""
    center = np.broadcast_to(np.asarray(center, dtype=float), (spec.dim,))
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), (spec.dim,))
    if np.any(sigma <= 0):
        raise StateError("sigma must be positive")
    values = np.ones(spec.grid_points)
    for axis in range(spec.dim):
        profile = periodic_gaussian_axis(
            spec.axis_coords[axis], spec.axis_box[axis], center[axis], sigma[axis]
        )
        values *= spec.along(axis, profile)
    total = float(np.sum(values) * spec.cell_volume)
    if total <= 0:
        raise StateError("cannot normalize a field with non-positive total")
    values /= total
    return ScalarField(values, spec)


def gaussian_state(spec: SystemSpec, center=None, sigma=1.0, slope=None) -> EpistemicState:
    """Gaussian density with a linear phase of the given slope per axis."""
    if center is None:
        center = spec.axis_box / 2.0
    rho = gaussian_density(spec, center, sigma)
    slope = np.zeros(spec.dim) if slope is None else np.broadcast_to(
        np.asarray(slope, dtype=float), (spec.dim,)
    ).copy()
    return EpistemicState(rho, ScalarField.constant(spec, 0.0), slope)


def lattice_momentum(spec: SystemSpec, axis: int, mode: int) -> float:
    """Momentum hbar * 2 pi mode / L_axis, always commensurate with the box."""
    return spec.hbar * 2.0 * np.pi * mode / spec.axis_box[axis]


def gaussian_wave_values(spec: SystemSpec, center, sigma, modes) -> np.ndarray:
    """Normalized complex packet: image-summed Gaussian amplitude times a
    lattice plane wave, one factor per configuration axis.

    The amplitude is periodized by summing translated Gaussian amplitudes,
    not by taking the square root of an image-summed density.  The sum of
    amplitudes is an entire function, so its grid spectrum decays like a
    true Gaussian's; the square root of a sum of density images has branch
    points a fraction of a cell off the real axis, which floors the
    spectrum near 1e-6 and leaks through products under the grid's periodic
    convolution.  Conservation checks at 1e-12 need the entire form.
    """
    center = np.broadcast_to(np.asarray(center, dtype=float), (spec.dim,))
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), (spec.dim,))
    modes = np.broadcast_to(np.asarray(modes, dtype=int), (spec.dim,))
    if np.any(sigma <= 0):
        raise StateError("sigma must be positive")
    values = np.ones(spec.grid_points, dtype=complex)
    for axis in range(spec.dim):
        coords = spec.axis_coords[axis]
        box = spec.axis_box[axis]
        amplitude = np.zeros_like(coords)
        for image in range(-GAUSSIAN_IMAGES, GAUSSIAN_IMAGES + 1):
            amplitude += np.exp(-((coords - center[axis] + image * box) ** 2) / (4.0 * sigma[axis] ** 2))
        factor = amplitude * np.exp(2j * np.pi * modes[axis] * coords / box)
        values = values * spec.along(axis, factor)
    norm = np.sqrt(np.sum(np.abs(values) ** 2) * spec.cell_volume)
    return values / norm


def minimal_image_difference(spec: SystemSpec, axis_a: int, axis_b: int) -> np.ndarray:
    """Grid array of the minimal-image difference x_A - x_B between two axes."""
    if spec.grid_points[axis_a] != spec.grid_points[axis_b] or not np.isclose(
        spec.axis_box[axis_a], spec.axis_box[axis_b]
    ):
        raise StateError(
            "relative coordinates need matching grids on the two axes"
        )
    xa = spec.along(axis_a, spec.axis_coords[axis_a])
    xb = spec.along(axis_b, spec.axis_coords[axis_b])
    diff = xa - xb
    box = spec.axis_box[axis_a]
    return diff - box * np.round(diff / box)


def harmonic_relational_values(spec: SystemSpec, k: float, particles=(0, 1)) -> np.ndarray:
    """U = k/2 * sum_a d(x_1a, x_2a)^2 with minimal-image distances."""
    if spec.n_particles < 2:
        raise StateError("a relational potential needs at least two particles")
    p, q = particles
    values = np.zeros(spec.grid_points)
    for a in range(spec.spatial_dim):
        diff = minimal_image_difference(spec, p * spec.spatial_dim + a, q * spec.spatial_dim + a)
        values = values + 0.5 * k * diff ** 2
    return values


def smooth_harmonic_relational_values(spec: SystemSpec, k: float, particles=(0, 1)) -> np.ndarray:
    """Band-limited periodization of the relational harmonic well.

    U = k/2 * sum_a (L/pi)^2 sin^2(pi d_a / L) agrees with k/2 d^2 near the
    minimum but is smooth across the box seam, unlike the minimal-image
    form whose gradient jumps there.  Hamilton-Jacobi integration needs the
    smooth form: the velocity field of a kinked potential is discontinuous
    at the seam and no grid representation of (rho, phase) can carry that.
    """
    if spec.n_particles < 2:
        raise StateError("a relational potential needs at least two particles")
    p, q = particles
    values = np.zeros(spec.grid_points)
    for a in range(spec.spatial_dim):
        diff = minimal_image_difference(spec, p * spec.spatial_dim + a, q * spec.spatial_dim + a)
        box = spec.axis_box[p * spec.spatial_dim + a]
        values = values + 0.5 * k * (box / np.pi) ** 2 * np.sin(np.pi * diff / box) ** 2
    return values


def harmonic_external_values(spec: SystemSpec, k: float, axis: int, center: float) -> np.ndarray:
    """U = k/2 * (x_axis - center)^2 along one configuration axis (box frame)."""
    coords = spec.along(axis, spec.axis_coords[axis] - center)
    return np.broadcast_to(0.5 * k * coords ** 2, spec.grid_points).copy()
