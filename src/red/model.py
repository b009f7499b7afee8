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

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import StateError

GRID_BUDGET = 2 ** 22
# configuration axes D = N·d: past 22 the grid budget leaves some axis one cell wide
MAX_DIM = 22
FLOAT_MAX = float(np.finfo(float).max)
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
            raise StateError("n_particles must be at least 1")
        if self.spatial_dim not in (1, 2, 3):
            raise StateError("spatial_dim must be 1, 2, or 3")
        if self.dim > MAX_DIM:
            raise StateError(f"n_particles · spatial_dim must be at most {MAX_DIM}")
        if len(self.masses) != self.n_particles:
            raise StateError(f"need {self.n_particles} masses, got {len(self.masses)}")
        if any(m <= 0 for m in self.masses):
            raise StateError("masses must be positive")
        if len(self.box_length) != self.spatial_dim:
            raise StateError(f"need {self.spatial_dim} box lengths, got {len(self.box_length)}")
        if any(b <= 0 for b in self.box_length):
            raise StateError("box lengths must be positive")
        if len(self.grid_points) != self.dim:
            raise StateError(f"need {self.dim} grid sizes, got {len(self.grid_points)}")
        if any(g < 1 for g in self.grid_points):
            raise StateError("grid sizes must be positive")
        if int(np.prod(self.grid_points)) > GRID_BUDGET:
            raise StateError(f"grid has {int(np.prod(self.grid_points))} cells, budget is {GRID_BUDGET}")
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise StateError("dt must be positive and finite")
        if not (self.hbar > 0 and np.isfinite(self.hbar)):
            raise StateError("hbar must be positive and finite")

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

    def mesh(self) -> list:
        """Coordinate arrays, one per configuration axis, broadcast against the grid."""
        return [self.along(axis, x) for axis, x in enumerate(self.axis_coords)]


def wrap_array(spec: SystemSpec, positions: np.ndarray) -> np.ndarray:
    """Reduce (..., D) coordinates into [0, L) per configuration axis, as a new array.

    np.mod(x, L) returns x itself for 0 < x < L, so only the coordinates
    outside that open interval go through it (±0.0 too, which maps -0.0 to
    +0.0).  np.mod of a tiny negative value can round up to exactly L; fold
    that case back to 0 so the half-open interval invariant really holds.
    """
    wrapped = np.array(positions, dtype=float, order="C")
    for column, length in zip(wrapped.reshape(-1, spec.dim).T, spec.axis_box):
        outside = np.flatnonzero((column <= 0.0) | (column >= length))
        if outside.size:
            folded = np.mod(column[outside], length)
            folded[folded == length] = 0.0
            column[outside] = folded
    return wrapped


@dataclass(frozen=True)
class ShiftVelocity:
    """Global shift velocity: one component per spatial axis, particle-independent."""

    components: np.ndarray
    spec: SystemSpec

    def __post_init__(self):
        comps = np.atleast_1d(np.asarray(self.components, dtype=float))
        if comps.shape != (self.spec.spatial_dim,):
            raise StateError(f"expected {self.spec.spatial_dim} shift components, got shape {comps.shape}")
        if not np.all(np.isfinite(comps)):
            raise StateError("shift components must be finite")
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
            raise StateError(
                f"field shape {vals.shape} does not match grid {tuple(self.spec.grid_points)}"
            )
        if not np.all(np.isfinite(vals)):
            raise StateError("field values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, spec: SystemSpec, value: float) -> "ScalarField":
        """One value on every cell: a read-only broadcast view that holds no grid."""
        return cls(np.broadcast_to(float(value), spec.grid_points), spec)


def quadrature(f: ScalarField) -> float:
    """Rectangle-rule integral over the periodic box (fixed reduction order)."""
    return float(np.sum(f.values) * f.spec.cell_volume)


def _transform_axes(spec: SystemSpec, axes) -> dict:
    """numpy's s and axes for a transform over `axes`, by default every configuration axis."""
    axes = tuple(range(spec.dim)) if axes is None else tuple(axes)
    return {"s": tuple(spec.grid_points[axis] for axis in axes), "axes": axes}


def fftn(values: np.ndarray, spec: SystemSpec, axes=None, out=None) -> np.ndarray:
    """Full spectrum of a real or complex grid array over `axes` (default: all), into out if given."""
    return np.fft.fftn(values, out=out, **_transform_axes(spec, axes))


def ifftn(spectrum: np.ndarray, spec: SystemSpec, axes=None, out=None) -> np.ndarray:
    """Complex grid array from its full spectrum over `axes` (default: all), into out if given."""
    return np.fft.ifftn(spectrum, out=out, **_transform_axes(spec, axes))


def rfftn(values: np.ndarray, spec: SystemSpec, axes=None) -> np.ndarray:
    """Half spectrum of a real grid array over `axes` (default: all); the last one is halved."""
    return np.fft.rfftn(values, **_transform_axes(spec, axes))


def irfftn(spectrum: np.ndarray, spec: SystemSpec, axes=None) -> np.ndarray:
    """Real grid array from its half spectrum over `axes` (default: all)."""
    return np.fft.irfftn(spectrum, **_transform_axes(spec, axes))


def laplacian_symbol(spec: SystemSpec, axis_weights) -> np.ndarray:
    """sum_A w_A k_A^2 on the half spectrum: the symbol of -sum_A w_A d_A^2.

    The last axis keeps its g//2 + 1 leading modes; on an even grid the
    last is the Nyquist bin, negative in fftfreq, and squares to its |k|^2.
    """
    symbol = 0.0
    for axis, (w, k) in enumerate(zip(axis_weights, spec.wavenumbers)):
        if axis == spec.dim - 1:
            k = k[: spec.grid_points[axis] // 2 + 1]
        symbol = symbol + w * spec.along(axis, k) ** 2
    return symbol


def gradient_arrays(values: np.ndarray, spec: SystemSpec, axes=None) -> list:
    """Spectral derivatives of a real or complex grid array along `axes` (default: all).

    d_A f is a one-axis transform pair: forward along A, times the 1-D i*k_A
    of derivative_wavenumbers, inverse along A.  That is 2*D axis passes
    where an n-D spectrum and D n-D inverses take D + D^2, to rounding alike.
    Each pair works in its own spectrum (a complex derivative is that
    buffer), so a caller that reduces one axis before it needs the next
    asks for one axis at a time and holds one derivative grid, not D.
    """
    real = np.isrealobj(values)
    forward = rfftn if real else fftn
    grads = []
    for axis in range(spec.dim) if axes is None else axes:
        k = spec.derivative_wavenumbers[axis]
        if real:
            k = k[: spec.grid_points[axis] // 2 + 1]
        spectrum = forward(values, spec, (axis,))
        # i*k stays the first factor: a complex product is not bitwise commutative
        np.multiply(spec.along(axis, 1j * k), spectrum, out=spectrum)
        grads.append(irfftn(spectrum, spec, (axis,)) if real
                     else ifftn(spectrum, spec, (axis,), out=spectrum))
    return grads


def step_count(total_time: float, dt_pde: float) -> int:
    """Number of dt_pde steps spanning total_time; the one time-step validator."""
    if not (dt_pde > 0 and np.isfinite(dt_pde)):
        raise StateError(f"dt_pde must be positive and finite, got {dt_pde!r}")
    if not np.isfinite(total_time):
        raise StateError(f"total_time must be finite, got {total_time!r}")
    steps = int(round(total_time / dt_pde))
    if abs(steps * dt_pde - total_time) > 1e-9 * max(1.0, abs(total_time)):
        raise StateError("total_time must be an integer multiple of dt_pde")
    if steps < 0:
        raise StateError("total_time must not be negative")
    return steps


def check_step_bound(dt_pde: float, bound: str, rate: float, limit: float) -> str:
    """What is wrong with a step of dt_pde, which needs rate * dt_pde <= limit, or "" when it fits.

    A violation reports the admissible step.  The rate is that of RK4 on a
    spectral term, or the phase a split step turns per unit time.
    """
    if rate * dt_pde > limit:
        return (f"dt_pde={dt_pde:.3e} exceeds the {bound} bound; "
                f"largest admissible step is {limit / rate:.3e}")
    return ""


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


@dataclass(frozen=True)
class Stencil:
    """Periodic multilinear interpolation weights for K points, shared by every grid array.

    `base` is each point's flat C-order low-corner index.  Corner c, in
    itertools.product((0, 1), repeat=D) order, has weight[c], the per-axis
    factors multiplied left to right, and sits at base + offsets[c], the
    strides of the axes where c takes the high side, except where it crosses
    the periodic seam: `seams[c]` lists those points and their corner's true
    flat index.  A stencil holds 8 * (2^D + 1) * K bytes plus 16 per seam
    crossing (2.0 MB for K = 50,000 at D = 2 on 128^2).
    """

    base: np.ndarray
    offsets: tuple
    weight: tuple
    seams: tuple

    @classmethod
    def at(cls, spec: SystemSpec, points: np.ndarray) -> "Stencil":
        """The stencil of (K, D) points, which need not lie in the box."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        base = weight = None
        offsets, wraps, last = [0], [0], []
        for axis, g in enumerate(spec.grid_points):
            # in place: frac goes from the scaled coordinate to its fractional part, and
            # rest from its floor to the low corner's factor 1 - frac
            frac = points[:, axis] / spec.spacing[axis]
            rest = np.floor(frac)
            low = rest.astype(int)
            frac -= rest
            np.subtract(1.0, frac, out=rest)
            outside = (low < 0) | (low >= g)
            if outside.any():
                low[outside] = np.mod(low[outside], g)
            last.append(low == g - 1)
            stride = int(np.prod(spec.grid_points[axis + 1:]))
            low *= stride
            offsets = [offset + side for offset in offsets for side in (0, stride)]
            wraps = [wrap + side for wrap in wraps for side in (0, g * stride)]
            if base is None:
                base, weight = low, [rest, frac]
                continue
            base += low
            del low  # before the corner weights take their own arrays
            weight = _corners(weight, rest, frac)
        # the points on the last cell of some axis, bit D-1-A marking axis A as bit D-1-A
        # of a corner's number marks its high side there
        near = np.flatnonzero(reduce(np.logical_or, last))
        edge = np.zeros(len(near), dtype=int)
        for on in last:
            edge <<= 1
            edge |= on[near]
        seams, wraps = [], np.array(wraps)
        for corner, offset in enumerate(offsets):
            # corner c crosses the seam on the axes of c & edge, g * stride lower on each
            crossed = corner & edge
            hit = np.flatnonzero(crossed)
            who = near[hit]
            seams.append((who, base[who] + offset - wraps[crossed[hit]]))
        return cls(base, tuple(offsets), tuple(weight), tuple(seams))


def _corners(prefixes: list, low: np.ndarray, high: np.ndarray) -> list:
    """[p * low, p * high for p in prefixes]: axis 0 varies slowest, factors join left to right.

    Each product goes into an array that is not read again (a prefix, or the
    factors for the last prefix); a real product commutes bitwise.
    """
    out = []
    for prefix in prefixes[:-1]:
        out += [prefix * low, np.multiply(prefix, high, out=prefix)]
    last = prefixes[-1]
    return out + [np.multiply(low, last, out=low), np.multiply(high, last, out=high)]


def interpolate(values: np.ndarray, stencil: Stencil) -> np.ndarray:
    """Periodic multilinear interpolation of a grid array at a stencil's points."""
    flat = values.reshape(-1)
    result = np.zeros(len(stencil.base), dtype=values.dtype)
    corner = np.empty_like(result)
    for offset, weight, (who, index) in zip(stencil.offsets, stencil.weight, stencil.seams):
        # numpy buffers a gather into out= under mode="raise", not under "clip"; an index
        # past the end belongs to a seam crossing, whose value is then put right; the
        # weight scales the corner in place as its first factor
        flat[offset:].take(stencil.base, out=corner, mode="clip")
        corner[who] = flat.take(index)
        result += np.multiply(weight, corner, out=corner)
    return result


@dataclass(frozen=True)
class EpistemicState:
    """Probability density plus phase on the configuration grid.

    The full phase is phase.values + phase_slope @ x; the slope part keeps
    boosts exact even when they are not lattice modes of the box.  A wave
    psi = sqrt(rho) exp(i Phi / hbar) is the other face of the same pair and
    is not a state: quantum.WaveField has its own rho, and the functionals
    of a phase gradient take either (fields.phase_gradient_arrays).
    """

    rho: ScalarField
    phase: ScalarField
    phase_slope: np.ndarray = None

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

    @property
    def spec(self) -> SystemSpec:
        return self.rho.spec


def root_gradient_squares(state) -> list:
    """Grid sum of (d_A sqrt(rho))^2 per axis (negatives clipped): D floats.

    state is an EpistemicState or a quantum.WaveField: only its rho is read.
    sqrt(rho) is clipped and rooted in one grid.  Each axis is squared and
    summed in its own derivative grid, which is freed before the next axis
    is built.
    """
    spec = state.spec
    root = np.clip(state.rho.values, 0.0, None)
    np.sqrt(root, out=root)
    squares = []
    for axis in range(spec.dim):
        [grad] = gradient_arrays(root, spec, (axis,))
        squares.append(float(np.sum(np.square(grad, out=grad))))
        del grad
    return squares


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
            raise StateError(f"positions must have shape (K, {self.spec.dim})")
        if not np.all(np.isfinite(pos)):
            raise StateError("walker positions must be finite")
        object.__setattr__(self, "positions", wrap_array(self.spec, pos))
        if self.rng_seed < 0:
            raise StateError("rng_seed must be a non-negative integer")
