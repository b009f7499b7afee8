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

    def along(self, axis: int, values: np.ndarray) -> np.ndarray:
        """A 1-D array reshaped to broadcast along one axis of the grid or the half spectrum."""
        shape = [1] * self.dim
        shape[axis] = -1
        return np.reshape(values, shape)

    def _half_spectrum(self, per_axis: list) -> list:
        """Per-axis modes on the real-FFT spectrum; the last axis keeps g//2 + 1 bins of |k|."""
        out = []
        for axis, k in enumerate(per_axis):
            if axis == self.dim - 1:
                k = np.abs(k[: self.grid_points[axis] // 2 + 1])
            out.append(self.along(axis, k))
        return out

    @cached_property
    def ik(self) -> list:
        """i*k_A on the full spectrum, with the even-grid Nyquist mode zeroed."""
        return [1j * self.along(axis, k) for axis, k in enumerate(self.derivative_wavenumbers)]

    @cached_property
    def half_ik(self) -> list:
        """i*k_A on the half spectrum, with the even-grid Nyquist mode zeroed."""
        return [1j * k for k in self._half_spectrum(self.derivative_wavenumbers)]

    @cached_property
    def half_k2(self) -> list:
        """k_A^2 on the half spectrum."""
        return [k ** 2 for k in self._half_spectrum(self.wavenumbers)]

    def mesh(self) -> list:
        """Coordinate arrays, one per configuration axis, broadcast against the grid."""
        return [self.along(axis, x) for axis, x in enumerate(self.axis_coords)]


def wrap_array(spec: SystemSpec, positions: np.ndarray) -> np.ndarray:
    """Reduce coordinates into [0, L) per configuration axis.

    np.mod of a tiny negative value can round up to exactly L; fold that
    case back to 0 so the half-open interval invariant really holds.
    """
    wrapped = np.mod(positions, spec.axis_box)
    return np.where(wrapped == spec.axis_box, 0.0, wrapped)


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


def fftn(values: np.ndarray, spec: SystemSpec) -> np.ndarray:
    """Full spectrum of a real or complex grid array over every configuration axis."""
    return np.fft.fftn(values, s=spec.grid_points, axes=tuple(range(spec.dim)))


def ifftn(spectrum: np.ndarray, spec: SystemSpec) -> np.ndarray:
    """Complex grid array from its full spectrum."""
    return np.fft.ifftn(spectrum, s=spec.grid_points, axes=tuple(range(spec.dim)))


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


def mode_momentum(psi: np.ndarray, spec: SystemSpec) -> tuple:
    """(sum_k k_A |psi_k|^2 summed onto the spatial axes, shape (d,), sum_k |psi_k|^2).

    psi_k = fftn(psi).  The k_A are the odd-derivative wavenumbers of
    gradient_arrays, so by Parseval hbar * cell_volume / N times the first
    part is the quadrature of Im(conj(psi) grad_A psi) per spatial axis.
    Each axis is reduced to its 1-D marginal first, which needs no
    full-grid wavenumber array.
    """
    power = np.abs(fftn(psi, spec)) ** 2
    out = np.zeros(spec.spatial_dim)
    for axis in range(spec.dim):
        others = tuple(a for a in range(spec.dim) if a != axis)
        marginal = np.sum(power, axis=others)
        out[spec.spatial_of_axis(axis)] += float(spec.derivative_wavenumbers[axis] @ marginal)
    return out, float(np.sum(power))


def gradient_arrays(values: np.ndarray, spec: SystemSpec) -> list:
    """Spectral gradient of a real or complex grid array, as plain arrays."""
    if not np.all(np.isfinite(values)):
        raise GridError("cannot differentiate non-finite field values")
    if np.isrealobj(values):
        spectrum = rfftn(values, spec)
        return [irfftn(ik * spectrum, spec) for ik in spec.half_ik]
    spectrum = fftn(values, spec)
    return [ifftn(ik * spectrum, spec) for ik in spec.ik]


def translate_array(values: np.ndarray, spec: SystemSpec, displacement: np.ndarray) -> np.ndarray:
    """Spectral translation: result(x) = values(x - displacement), exact for band-limited data."""
    displacement = np.asarray(displacement, dtype=float)
    spectrum = fftn(values, spec)
    for axis, (g, k) in enumerate(zip(spec.grid_points, spec.wavenumbers)):
        phase = np.exp(-1j * k * displacement[axis])
        if g % 2 == 0:
            # the sawtooth mode has no definite sign of k; the symmetric
            # choice cos(k*s) keeps real fields real and matches np.roll
            # exactly for whole-cell displacements
            phase[g // 2] = np.cos(k[g // 2] * displacement[axis])
        spectrum = spectrum * spec.along(axis, phase)
    out = ifftn(spectrum, spec)
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


def check_rk4_bound(dt_pde: float, *bounds) -> None:
    """RK4 on spectral terms needs rate * dt_pde <= limit for every (kind, rate, limit).

    A violation reports the tightest bound, whose admissible step satisfies them all.
    """
    kind, rate, limit = max(bounds, key=lambda bound: bound[1] / bound[2])
    if rate * dt_pde > limit:
        raise StabilityError(
            f"dt_pde={dt_pde:.3e} exceeds the {kind} stability bound; "
            f"largest admissible step is {limit / rate:.3e}",
            admissible_dt=limit / rate,
        )


def rk4_step(rate, values: tuple, dt_pde: float) -> tuple:
    """One classical RK4 step of d(values)/dt = rate(*values) for a tuple of arrays."""
    def stage(k, h):
        return rate(*(v + h * dv for v, dv in zip(values, k)))

    k1 = rate(*values)
    k2 = stage(k1, 0.5 * dt_pde)
    k3 = stage(k2, 0.5 * dt_pde)
    k4 = stage(k3, dt_pde)
    return tuple(v + (dt_pde / 6.0) * (a + 2 * b + 2 * c + d)
                 for v, a, b, c, d in zip(values, k1, k2, k3, k4))


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
    complex exponential.  wave_values, when given, is that exponential
    times sqrt(rho) (the slope part excluded): the wavefunction a wrapped
    state was read from, which spares rebuilding it.
    """

    rho: ScalarField
    phase: ScalarField
    phase_slope: np.ndarray = None
    time: float = 0.0
    phase_wrapped: bool = False
    wave_values: np.ndarray = None

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
        if self.wave_values is not None and np.shape(self.wave_values) != tuple(self.spec.grid_points):
            raise StateError("wave_values shape does not match the grid")

    @property
    def spec(self) -> SystemSpec:
        return self.rho.spec

    @cached_property
    def phase_gradients(self) -> tuple:
        """fields.phase_gradient_arrays of this state, computed once; read-only arrays."""
        from .fields import phase_gradient_arrays  # fields builds on this module

        return _read_only(phase_gradient_arrays(self))

    @cached_property
    def root_gradients(self) -> tuple:
        """grad sqrt(rho) per axis (negligible negative cells clipped), computed once; read-only."""
        return _read_only(gradient_arrays(np.sqrt(np.clip(self.rho.values, 0.0, None)), self.spec))


def _read_only(arrays) -> tuple:
    arrays = tuple(arrays)
    for array in arrays:
        array.flags.writeable = False
    return arrays


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
