"""Configuration space, fields, and grid operations.

N particles in d spatial dimensions live on a single periodic box.  The
configuration space has D = N*d axes, indexed A = n*d + a for particle n
and spatial axis a.  Every axis carries a uniform grid; integrals are
rectangle-rule sums (spectrally accurate for smooth periodic data) and
derivatives are Fourier derivatives.

The phase of an epistemic state is stored as a plain grid field plus an
explicit linear slope per configuration axis.  The slope carries any open
(winding) component exactly, so boosted states whose momentum is not a
lattice mode of the box still have exact gradients.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GridError, StabilityError, StateError

GRID_BUDGET = 2 ** 22
NORMALIZATION_TOL = 1e-10
NEGATIVE_DENSITY_TOL = -1e-10


@dataclass(frozen=True)
class SystemSpec:
    """Immutable description of the N-particle system and its grid."""

    n_particles: int
    spatial_dim: int
    masses: tuple
    box_length: tuple
    grid_points: tuple
    dt: float
    hbar: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "masses", tuple(float(m) for m in np.atleast_1d(self.masses)))
        object.__setattr__(self, "box_length", tuple(float(b) for b in np.atleast_1d(self.box_length)))
        object.__setattr__(self, "grid_points", tuple(int(g) for g in np.atleast_1d(self.grid_points)))
        if self.n_particles < 1:
            raise ValueError("n_particles must be at least 1")
        if self.spatial_dim not in (1, 2, 3):
            raise ValueError("spatial_dim must be 1, 2, or 3")
        if len(self.masses) != self.n_particles:
            raise ValueError(f"need {self.n_particles} masses, got {len(self.masses)}")
        if any(m <= 0 for m in self.masses):
            raise ValueError("masses must be positive")
        if len(self.box_length) != self.spatial_dim:
            raise ValueError(f"need {self.spatial_dim} box lengths, got {len(self.box_length)}")
        if any(b <= 0 for b in self.box_length):
            raise ValueError("box lengths must be positive")
        if len(self.grid_points) != self.dim:
            raise ValueError(f"need {self.dim} grid sizes, got {len(self.grid_points)}")
        if any(g < 1 for g in self.grid_points):
            raise ValueError("grid sizes must be positive")
        if int(np.prod(self.grid_points)) > GRID_BUDGET:
            raise ValueError(f"grid has {int(np.prod(self.grid_points))} cells, budget is {GRID_BUDGET}")
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValueError("dt must be positive and finite")
        if not (self.hbar > 0 and np.isfinite(self.hbar)):
            raise ValueError("hbar must be positive and finite")

    @property
    def dim(self) -> int:
        return self.n_particles * self.spatial_dim

    @property
    def total_mass(self) -> float:
        return float(sum(self.masses))

    def spatial_of_axis(self, axis: int) -> int:
        return axis % self.spatial_dim

    @cached_property
    def axis_masses(self) -> np.ndarray:
        """Mass attached to each configuration axis, shape (D,)."""
        return np.repeat(np.asarray(self.masses, dtype=float), self.spatial_dim)

    @cached_property
    def axis_box(self) -> np.ndarray:
        """Box length of each configuration axis, shape (D,)."""
        return np.tile(np.asarray(self.box_length, dtype=float), self.n_particles)

    @cached_property
    def spacing(self) -> np.ndarray:
        return self.axis_box / np.asarray(self.grid_points, dtype=float)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def volume(self) -> float:
        return float(np.prod(self.axis_box))

    @cached_property
    def axis_coords(self) -> list:
        """Grid-node coordinates x_i = i*h per axis; nodes double as quadrature points."""
        return [
            np.arange(g) * h
            for g, h in zip(self.grid_points, self.spacing)
        ]

    @cached_property
    def wavenumbers(self) -> list:
        """Angular wavenumbers 2*pi*fftfreq per axis."""
        return [
            2.0 * np.pi * np.fft.fftfreq(g, d=h)
            for g, h in zip(self.grid_points, self.spacing)
        ]

    @cached_property
    def derivative_wavenumbers(self) -> list:
        """Wavenumbers for odd-order derivatives: Nyquist mode zeroed on even grids.

        For even g the sawtooth mode has no odd-symmetric image, and keeping
        i*k there turns real fields into complex ones (an imaginary sawtooth
        that feeds back through density-weighted velocities).
        """
        out = []
        for g, k in zip(self.grid_points, self.wavenumbers):
            k = k.copy()
            if g % 2 == 0:
                k[g // 2] = 0.0
            out.append(k)
        return out

    def wavenumber_grid(self, axis: int) -> np.ndarray:
        """Wavenumbers of one axis broadcast against the full grid shape."""
        shape = [1] * self.dim
        shape[axis] = self.grid_points[axis]
        return self.wavenumbers[axis].reshape(shape)

    def derivative_wavenumber_grid(self, axis: int) -> np.ndarray:
        """Derivative wavenumbers of one axis broadcast against the grid shape."""
        shape = [1] * self.dim
        shape[axis] = self.grid_points[axis]
        return self.derivative_wavenumbers[axis].reshape(shape)

    def _half_spectrum(self, per_axis: list) -> list:
        """Per-axis modes on the real-FFT spectrum; the last axis keeps g//2 + 1 bins of |k|."""
        out = []
        for axis, k in enumerate(per_axis):
            if axis == self.dim - 1:
                k = np.abs(k[: self.grid_points[axis] // 2 + 1])
            shape = [1] * self.dim
            shape[axis] = k.size
            out.append(k.reshape(shape))
        return out

    @cached_property
    def half_ik(self) -> list:
        """i*k_A on the half spectrum, with the even-grid Nyquist mode zeroed."""
        return [1j * k for k in self._half_spectrum(self.derivative_wavenumbers)]

    @cached_property
    def half_k2(self) -> list:
        """k_A^2 on the half spectrum."""
        return [k ** 2 for k in self._half_spectrum(self.wavenumbers)]

    def mesh(self) -> list:
        """Dense coordinate arrays, one full-shape array per configuration axis."""
        grids = np.meshgrid(*self.axis_coords, indexing="ij", sparse=True)
        return list(grids)


def wrap_array(spec: SystemSpec, positions: np.ndarray) -> np.ndarray:
    """Reduce coordinates into [0, L) per configuration axis.

    np.mod of a tiny negative value can round up to exactly L; fold that
    case back to 0 so the half-open interval invariant really holds.
    """
    wrapped = np.mod(positions, spec.axis_box)
    return np.where(wrapped == spec.axis_box, 0.0, wrapped)


@dataclass(frozen=True)
class ConfigPoint:
    """A single point of the N-particle configuration space."""

    coordinates: np.ndarray
    spec: SystemSpec

    def __post_init__(self):
        coords = np.asarray(self.coordinates, dtype=float)
        if coords.shape != (self.spec.dim,):
            raise GridError(f"expected {self.spec.dim} coordinates, got shape {coords.shape}")
        if not np.all(np.isfinite(coords)):
            raise GridError("coordinates must be finite")
        object.__setattr__(self, "coordinates", wrap_array(self.spec, coords))


def wrap(point: ConfigPoint) -> ConfigPoint:
    """Idempotent reduction of a configuration point into the box."""
    return ConfigPoint(point.coordinates, point.spec)


@dataclass(frozen=True)
class ShiftVelocity:
    """Global shift velocity: one component per spatial axis, particle-independent."""

    components: np.ndarray
    spec: SystemSpec

    def __post_init__(self):
        comps = np.atleast_1d(np.asarray(self.components, dtype=float))
        if comps.shape != (self.spec.spatial_dim,):
            raise GridError(f"expected {self.spec.spatial_dim} shift components, got shape {comps.shape}")
        if not np.all(np.isfinite(comps)):
            raise GridError("shift components must be finite")
        object.__setattr__(self, "components", comps)

    @classmethod
    def zero(cls, spec: SystemSpec) -> "ShiftVelocity":
        return cls(np.zeros(spec.spatial_dim), spec)

    @cached_property
    def per_axis(self) -> np.ndarray:
        """Shift replicated over configuration axes (upper index), shape (D,)."""
        return np.tile(self.components, self.spec.n_particles)

    @cached_property
    def mass_lowered(self) -> np.ndarray:
        """m_n * shift per configuration axis (lower index), shape (D,)."""
        return self.spec.axis_masses * self.per_axis


@dataclass(frozen=True)
class ScalarField:
    """Real scalar field sampled on the configuration grid."""

    values: np.ndarray
    spec: SystemSpec

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != tuple(self.spec.grid_points):
            raise GridError(
                f"field shape {vals.shape} does not match grid {tuple(self.spec.grid_points)}"
            )
        if not np.all(np.isfinite(vals)):
            raise GridError("field values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, spec: SystemSpec, value: float) -> "ScalarField":
        return cls(np.full(spec.grid_points, float(value)), spec)


def quadrature(f: ScalarField) -> float:
    """Rectangle-rule integral over the periodic box (fixed reduction order)."""
    return float(np.sum(f.values) * f.spec.cell_volume)


def gradient(f: ScalarField) -> list:
    """Fourier-spectral gradient, one ScalarField per configuration axis."""
    return [ScalarField(g, f.spec) for g in gradient_arrays(f.values, f.spec)]


def rfftn(values: np.ndarray, spec: SystemSpec) -> np.ndarray:
    """Half spectrum of a real grid array over every configuration axis."""
    return np.fft.rfftn(values, s=spec.grid_points, axes=tuple(range(spec.dim)))


def irfftn(spectrum: np.ndarray, spec: SystemSpec) -> np.ndarray:
    """Real grid array from its half spectrum."""
    return np.fft.irfftn(spectrum, s=spec.grid_points, axes=tuple(range(spec.dim)))


def laplacian_symbol(spec: SystemSpec, axis_weights) -> np.ndarray:
    """sum_A w_A k_A^2 on the half spectrum: the symbol of -sum_A w_A d_A^2."""
    return sum(w * k2 for w, k2 in zip(axis_weights, spec.half_k2))


def divergence_spectrum(fluxes: list, spec: SystemSpec) -> np.ndarray:
    """Half spectrum of sum_A d_A F_A, summed in k-space for one inverse transform."""
    return sum(ik * rfftn(f, spec) for ik, f in zip(spec.half_ik, fluxes))


def gradient_arrays(values: np.ndarray, spec: SystemSpec) -> list:
    """Spectral gradient of a real or complex grid array, as plain arrays."""
    if not np.all(np.isfinite(values)):
        raise GridError("cannot differentiate non-finite field values")
    if np.isrealobj(values):
        spectrum = rfftn(values, spec)
        return [irfftn(ik * spectrum, spec) for ik in spec.half_ik]
    spectrum = np.fft.fftn(values)
    return [
        np.fft.ifftn(1j * spec.derivative_wavenumber_grid(axis) * spectrum)
        for axis in range(spec.dim)
    ]


def translate_array(values: np.ndarray, spec: SystemSpec, displacement: np.ndarray) -> np.ndarray:
    """Spectral translation: result(x) = values(x - displacement), exact for band-limited data."""
    displacement = np.asarray(displacement, dtype=float)
    spectrum = np.fft.fftn(values)
    for axis in range(spec.dim):
        phase = np.exp(-1j * spec.wavenumber_grid(axis) * displacement[axis])
        g = spec.grid_points[axis]
        if g % 2 == 0:
            # the sawtooth mode has no definite sign of k; the symmetric
            # choice cos(k*s) keeps real fields real and matches np.roll
            # exactly for whole-cell displacements
            index = [slice(None)] * spec.dim
            index[axis] = slice(g // 2, g // 2 + 1)
            phase[tuple(index)] = np.cos(
                spec.wavenumber_grid(axis)[tuple(index)] * displacement[axis]
            )
        spectrum = spectrum * phase
    out = np.fft.ifftn(spectrum)
    return out.real if np.isrealobj(values) else out


def step_count(total_time: float, dt_pde: float) -> int:
    """Number of dt_pde steps spanning total_time; the one time-step validator."""
    if not (dt_pde > 0 and np.isfinite(dt_pde)):
        raise ValueError(f"dt_pde must be positive and finite, got {dt_pde!r}")
    if not np.isfinite(total_time):
        raise ValueError(f"total_time must be finite, got {total_time!r}")
    steps = int(round(total_time / dt_pde))
    if abs(steps * dt_pde - total_time) > 1e-9 * max(1.0, abs(total_time)):
        raise ValueError("total_time must be an integer multiple of dt_pde")
    if steps < 0:
        raise ValueError("total_time must not be negative")
    return steps


def check_rk4_bound(kind: str, rate: float, limit: float, dt_pde: float) -> None:
    """RK4 on a spectral term needs rate * dt_pde <= limit; report the admissible step."""
    if rate * dt_pde > limit:
        raise StabilityError(
            f"dt_pde={dt_pde:.3e} exceeds the {kind} stability bound; "
            f"largest admissible step is {limit / rate:.3e}",
            admissible_dt=limit / rate,
        )


def interpolate(values: np.ndarray, spec: SystemSpec, points: np.ndarray) -> np.ndarray:
    """Periodic multilinear interpolation of a grid array at (K, D) points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    scaled = points / spec.spacing
    base = np.floor(scaled).astype(int)
    frac = scaled - base
    shape = np.asarray(spec.grid_points)
    result = np.zeros(points.shape[0], dtype=values.dtype)
    for corner in itertools.product((0, 1), repeat=spec.dim):
        corner = np.asarray(corner)
        idx = np.mod(base + corner, shape)
        weight = np.prod(np.where(corner, frac, 1.0 - frac), axis=1)
        result += weight * values[tuple(idx.T)]
    return result


@dataclass(frozen=True)
class EpistemicState:
    """Probability density plus phase on the configuration grid.

    The full phase is phase.values + phase_slope @ x; the slope part keeps
    boosts exact even when they are not lattice modes of the box.

    phase_wrapped marks grids that store the phase modulo 2*pi*hbar, as
    recovered from a wavefunction argument.  Smooth (unwrapped) phase grids
    can be differentiated directly; wrapped ones must go through the
    complex exponential.
    """

    rho: ScalarField
    phase: ScalarField
    phase_slope: np.ndarray = None
    time: float = 0.0
    phase_mask: np.ndarray = None
    phase_wrapped: bool = False

    def __post_init__(self):
        if self.phase.spec is not self.rho.spec and self.phase.spec != self.rho.spec:
            raise StateError("rho and phase live on different grids")
        slope = self.phase_slope
        slope = np.zeros(self.spec.dim) if slope is None else np.asarray(slope, dtype=float)
        if slope.shape != (self.spec.dim,):
            raise StateError(f"phase_slope must have shape ({self.spec.dim},)")
        if not np.all(np.isfinite(slope)):
            raise StateError("phase_slope must be finite")
        object.__setattr__(self, "phase_slope", slope)
        if float(np.min(self.rho.values)) < NEGATIVE_DENSITY_TOL:
            raise StateError(
                f"density has negative cells below tolerance: min={float(np.min(self.rho.values)):.3e}"
            )
        total = quadrature(self.rho)
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise StateError(f"density quadrature is {total!r}, expected 1 within {NORMALIZATION_TOL}")
        if self.phase_mask is not None:
            mask = np.asarray(self.phase_mask, dtype=bool)
            if mask.shape != tuple(self.spec.grid_points):
                raise StateError("phase_mask shape does not match the grid")
            object.__setattr__(self, "phase_mask", mask)

    @property
    def spec(self) -> SystemSpec:
        return self.rho.spec

    @property
    def masked_cell_count(self) -> int:
        return 0 if self.phase_mask is None else int(np.sum(self.phase_mask))

    def replace_rho(self, values: np.ndarray, time: float = None) -> "EpistemicState":
        return EpistemicState(
            ScalarField(values, self.spec), self.phase, self.phase_slope,
            self.time if time is None else time, self.phase_mask, self.phase_wrapped,
        )


def normalized_density(spec: SystemSpec, values: np.ndarray) -> ScalarField:
    """Clip negligible negatives and rescale so the quadrature is exactly 1."""
    values = np.asarray(values, dtype=float)
    total = float(np.sum(values) * spec.cell_volume)
    if total <= 0:
        raise StateError("cannot normalize a field with non-positive total")
    return ScalarField(values / total, spec)


@dataclass(frozen=True)
class Ensemble:
    """A set of walkers carrying its own counter-based RNG identity."""

    positions: np.ndarray
    spec: SystemSpec
    rng_seed: int
    time: float = 0.0
    step_index: int = 0

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != self.spec.dim:
            raise GridError(f"positions must have shape (K, {self.spec.dim})")
        if not np.all(np.isfinite(pos)):
            raise GridError("walker positions must be finite")
        object.__setattr__(self, "positions", wrap_array(self.spec, pos))
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be a non-negative integer")

    @property
    def size(self) -> int:
        return self.positions.shape[0]
