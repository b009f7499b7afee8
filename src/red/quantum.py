"""Constrained Hamiltonian flow of the density-phase pair.

Demanding that the entropic updating preserve a Hamiltonian generates the
familiar pair of coupled equations for (rho, Phi); with the curvature term
included they are the real and imaginary parts of a linear wave equation
for psi = sqrt(rho) * exp(i Phi / hbar).  Both faces are implemented: a
split-step unitary integrator for psi, and a direct RK4 integrator for
(rho, Phi) that exposes the same flow in the epistemic variables.

The generator in a frame moving with shift velocity per spatial axis is

    sum_A (p_A - m_A shift_A)^2 / (2 m_A) + U,

so plane-wave modes pick up the symbol sum_A (hbar k_A - m_A shift_A)^2 /
(2 m_A).  Potentials that depend only on coordinate differences commute
with the total momentum per spatial axis; the split-step integrator then
conserves it up to spectral wrap-around of the product U * psi.  That
wrap-around vanishes for band-limited difference potentials, and cancels
by symmetry on the zero-momentum subspace, which is where the constraint
is imposed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalAbort, StateError
from .model import (
    NORMALIZATION_TOL,
    EpistemicState,
    ScalarField,
    ShiftVelocity,
    SystemSpec,
    check_step_bound,
    divergence_spectrum,
    fftn,
    ifftn,
    irfftn,
    laplacian_symbol,
    rfftn,
    rk4_step,
    step_count,
)

HAMILTON_DENSITY_RELATIVE = 1e-12
RK4_IMAG_STABILITY = 2.82


@dataclass(frozen=True)
class WaveField:
    """Normalized complex amplitude on the configuration grid, and a state in its own right."""

    values: np.ndarray
    spec: SystemSpec
    time: float = 0.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != tuple(self.spec.grid_points):
            raise StateError(
                f"wave shape {vals.shape} does not match grid {tuple(self.spec.grid_points)}"
            )
        # sum |psi|^2 over the (re, im) pairs, with no real grid and no BLAS call
        # (np.vdot's raises peak RSS); a non-finite value can only show as a
        # non-finite norm, so the finiteness scan runs only then
        flat = vals.reshape(-1).view(float)
        norm = float(np.einsum("i,i->", flat, flat)) * self.spec.cell_volume
        if not np.isfinite(norm) and not np.all(np.isfinite(vals)):
            raise StateError("wave values must be finite")
        if abs(norm - 1.0) > NORMALIZATION_TOL:
            raise StateError(f"wave norm is {norm!r}, expected 1 within {NORMALIZATION_TOL}")
        object.__setattr__(self, "values", vals)

    @cached_property
    def rho(self) -> ScalarField:
        """|psi|^2, computed once and read-only; the row, the drift and the walkers share it."""
        rho = ScalarField(np.abs(self.values) ** 2, self.spec)
        rho.values.flags.writeable = False
        return rho

    @cached_property
    def moments(self) -> tuple:
        """spectral_moments of fftn(psi), computed once: (<P>, read-only, and <T>/hbar); no grid kept.

        The step bound, the first best match, the row and expected_momentum
        read them, so a wave is transformed for its moments once, into one
        fresh buffer: the computation holds it and |psi_k|^2 at most.
        """
        buffer = np.empty(self.spec.grid_points, dtype=complex)
        momentum, rate = spectral_moments(WaveSpectrum(fftn(self.values, self.spec, out=buffer),
                                                       self.spec))
        momentum.flags.writeable = False
        return momentum, rate


@dataclass(frozen=True)
class WaveSpectrum:
    """Full spectrum fftn(psi) of a wave on the mode grid: the wave's third representation."""

    values: np.ndarray
    spec: SystemSpec


@dataclass(frozen=True)
class Potential:
    """Real potential energy on the grid.

    relational_flag declares that the values depend only on relative
    particle positions, so the potential commutes with total momentum.
    """

    values: ScalarField
    relational_flag: bool = False

    @property
    def spec(self) -> SystemSpec:
        return self.values.spec

    @classmethod
    def from_values(cls, values: np.ndarray, spec: SystemSpec, relational_flag: bool = False) -> "Potential":
        return cls(ScalarField(np.asarray(values, dtype=float), spec), relational_flag)

    @classmethod
    def free(cls, spec: SystemSpec) -> "Potential":
        return cls.from_values(np.zeros(spec.grid_points), spec, relational_flag=True)

    def split_factors(self, dt_pde: float) -> tuple:
        """(half-potential, rest-frame kinetic) multipliers of a split step of dt_pde.

        exp(-i dt_pde U / (2 hbar)) and exp(-i dt_pde kinetic_symbol / hbar), both
        read-only; the pair of the last dt_pde is kept on the potential.
        """
        memo = self.__dict__.get("_split_factors")
        if memo is None or memo[0] != dt_pde:
            spec = self.spec
            half = _phase_factor(-0.5j * dt_pde, self.values.values, spec.hbar)
            rest = _phase_factor(-1j * dt_pde, kinetic_symbol(spec), spec.hbar)
            memo = (dt_pde, half, rest)
            object.__setattr__(self, "_split_factors", memo)
        return memo[1], memo[2]


def _phase_factor(scale: complex, grid: np.ndarray, hbar: float) -> np.ndarray:
    """exp(scale * grid / hbar), read-only."""
    # one complex grid: the exponent, then its exponential in place
    factor = np.multiply(scale, grid)
    factor /= hbar
    np.exp(factor, out=factor)
    factor.flags.writeable = False
    return factor


def to_wavefunction(state: EpistemicState) -> WaveField:
    """psi = sqrt(rho) exp(i (phase + slope . x) / hbar).

    The slope part is single-valued on the box only when each component is
    a lattice momentum; anything else cannot be represented by a periodic
    wavefunction and is rejected.
    """
    spec = state.spec
    mesh = spec.mesh()
    total_phase = state.phase.values.copy()
    for axis in range(spec.dim):
        slope = state.phase_slope[axis]
        if slope != 0.0:
            winding = slope * spec.axis_box[axis] / (2.0 * np.pi * spec.hbar)
            if abs(winding - round(winding)) > 1e-9:
                raise StateError(
                    f"phase slope {slope!r} on axis {axis} is not a lattice momentum "
                    f"of the box; it winds {winding!r} times and cannot close periodically"
                )
            total_phase = total_phase + slope * mesh[axis]
    amplitude = np.sqrt(np.clip(state.rho.values, 0.0, None))
    return WaveField(amplitude * np.exp(1j * total_phase / spec.hbar), spec)


def from_wavefunction(wave: WaveField) -> WaveField:
    """The state of a wave, which is the wave itself.

    Every functional of a state takes a WaveField (fields.phase_gradient_arrays
    differentiates psi), so this view builds nothing.  No code path of red
    calls it; perfbench's traced layer list names it.
    """
    return wave


def kinetic_symbol(spec: SystemSpec) -> np.ndarray:
    """Rest-frame sum_A (hbar k_A)^2 / (2 m_A) on the full mode grid; kinetic_factor adds a shift."""
    symbol = np.zeros(spec.grid_points)
    for axis, k in enumerate(spec.wavenumbers):
        symbol += (spec.hbar * spec.along(axis, k)) ** 2 / (2.0 * spec.axis_masses[axis])
    return symbol


def kinetic_factor(spec: SystemSpec, shift: ShiftVelocity, dt_pde: float,
                   rest: np.ndarray) -> np.ndarray:
    """exp(-i dt_pde sum_A (hbar k_A - m_A s_A)^2 / (2 m_A hbar)) from the rest-frame factor.

    (hbar k_A - m_A s_A)^2 / (2 m_A hbar) = hbar k_A^2 / (2 m_A) - k_A s_A + m_A s_A^2 / (2 hbar),
    so a shift multiplies the rest-frame factor by per-axis 1-D phases
    exp(i dt_pde k_A s_A) and one global phase: a few complex multiplies per
    cell instead of a full-grid exponential.  rest is the shift-free factor
    (Potential.split_factors keeps it); with a zero shift it is returned as is.
    """
    if not np.any(shift.components):
        return rest
    per_axis = shift.per_axis
    moved = np.exp(-1j * dt_pde * float(np.sum(spec.axis_masses * per_axis ** 2)) / (2.0 * spec.hbar))
    for axis, k in enumerate(spec.wavenumbers):
        moved = moved * np.exp(1j * dt_pde * spec.along(axis, k) * per_axis[axis])
    # the product of one 1-D phase per axis already spans the grid: rest goes into it
    return np.multiply(rest, moved, out=moved)


def schrodinger_evolve(
    wave: WaveField,
    potential: Potential,
    shift: ShiftVelocity,
    total_time: float,
    dt_pde: float,
    time: float = None,
    match=None,
):
    """Strang split-step evolution, landing at `time` (default wave.time + steps * dt_pde).

    The half-potential and rest-frame kinetic factors are kept on the
    potential between calls with the same dt_pde; the shift enters through
    per-axis 1-D phases (kinetic_factor).  A call works in one grid buffer:
    the first half-kick allocates it, so wave.values is never written, and
    the transforms and products after it write into it.

    With match (and shift None) the frame is chosen inside each step: match
    gets the WaveSpectrum of the half-kicked wave, which it reads but must
    not write or keep, the step's kinetic factor is built from the
    ShiftVelocity it returns, and the call returns (wave, the last step's
    shift).  A potential that commutes with the total momentum leaves <P>
    unchanged by the half kick, so geometry.best_match_shift of that
    spectrum is the start-of-step best match without a transform of its own.
    """
    steps = step_count(total_time, dt_pde)
    spec = wave.spec
    if potential.spec != spec:
        raise StateError("potential and wave live on different grids")
    half_potential, rest = potential.split_factors(dt_pde)
    if match is None:
        kinetic = kinetic_factor(spec, shift, dt_pde, rest)
    values = wave.values
    for step in range(steps):
        values = np.multiply(values, half_potential, out=values if step else None)
        fftn(values, spec, out=values)
        if match is not None:
            shift = match(WaveSpectrum(values, spec))
            kinetic = kinetic_factor(spec, shift, dt_pde, rest)
        # spectrum first: the last bits of a complex product depend on the order
        # of its factors, and the reference outputs were made in this one
        values *= kinetic
        ifftn(values, spec, out=values)
        values *= half_potential
    if not np.all(np.isfinite(values.real)) or not np.all(np.isfinite(values.imag)):
        raise NumericalAbort(
            f"non-finite wave values after {steps} split steps of {dt_pde!r}"
        )
    evolved = WaveField(values, spec, wave.time + steps * dt_pde if time is None else time)
    return evolved if match is None else (evolved, shift)


def spectral_moments(spectrum: WaveSpectrum) -> tuple:
    """(<P> per spatial axis, <T>/hbar) of a spectrum, from one pass over |psi_k|^2.

    <P>_a = hbar sum_k k_A |psi_k|^2 / sum_k |psi_k|^2, summed over the axes
    A of spatial axis a.  By Parseval it equals the quadrature of Re[psi*
    (-i hbar) sum_n d psi / dx_n^a] exactly (both use the odd-derivative
    wavenumbers, so the empty sawtooth mode counts as 0).  Divided by the
    total mass it is the best match of the spectrum (geometry.best_match_shift).

    <T>/hbar = hbar sum_A <k_A^2> / (2 m_A) is the phase per unit time the
    kinetic energy turns.  hbar multiplies last, in Python floats: the rate
    stays finite, or becomes inf, with no overflow warning for any hbar and
    masses the config accepts.

    Both read the 1-D marginal of |psi_k|^2 on each axis, so no full-grid
    wavenumber array or kinetic symbol is built; |psi_k|^2 is freed on return.
    """
    spec = spectrum.spec
    power = np.abs(spectrum.values) ** 2
    total = float(np.sum(power))
    momentum = np.zeros(spec.spatial_dim)
    rate = 0.0
    for axis, (k, mass) in enumerate(zip(spec.wavenumbers, spec.axis_masses)):
        marginal = np.sum(power, axis=tuple(a for a in range(spec.dim) if a != axis))
        momentum[spec.spatial_of_axis(axis)] += float(spec.derivative_wavenumbers[axis] @ marginal)
        rate += float((k * k) @ marginal) / total / (2.0 * float(mass))
    return spec.hbar * momentum / total, float(spec.hbar) * rate


def expected_momentum(wave: WaveField) -> np.ndarray:
    """Total momentum expectation of a wave per spatial axis, read-only: the <P> of WaveField.moments."""
    return wave.moments[0]


def total_energy(state: EpistemicState | WaveField, potential: Potential, h0: float) -> float:
    """Discrete ensemble Hamiltonian: flow plus curvature terms plus potential average.

    This is the conserved quantity of the coupled (rho, Phi) equations;
    the split-step integrator preserves it to second order in dt_pde.  state
    is an EpistemicState or a WaveField; only its rho is read.  h0 holds the
    flow and curvature pieces: the h0_term of the state's mismatch report
    (geometry.info_metric_g), which computes H0 in its one loop over the axes.
    """
    return h0 + float(np.sum(potential.values.values * state.rho.values)) * state.spec.cell_volume


def ehrenfest_force(rho: ScalarField, potential: Potential) -> np.ndarray:
    """-<sum_n dU/dx_n^a> per spatial axis, via central differences.

    The central difference is exact for quadratic potentials, and is used
    instead of the spectral gradient: the minimal-image seam of a relational
    potential would ring globally under the Fourier derivative, while the
    local stencil confines the error to the seam cells, where the density is
    expected to be negligible.
    """
    spec = rho.spec
    if potential.spec != spec:
        raise StateError("potential and density live on different grids")
    out = np.zeros(spec.spatial_dim)
    values = potential.values.values
    for axis in range(spec.dim):
        grad = (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2.0 * spec.spacing[axis])
        out[spec.spatial_of_axis(axis)] -= float(np.sum(rho.values * grad)) * spec.cell_volume
    return out


@dataclass(frozen=True)
class EhrenfestSeries:
    """Momentum balance along a trajectory of uniformly spaced snapshots.

    times: interior snapshot times, shape (T-2,)
    momentum_rate: central-difference d<P>/dt per axis, shape (T-2, d)
    force: -<sum_n dU/dx_n^a> at the interior snapshots, shape (T-2, d)
    """

    times: np.ndarray
    momentum_rate: np.ndarray
    force: np.ndarray


def ehrenfest_diagnostic(trajectory, potential: Potential) -> EhrenfestSeries:
    """Compare d<P>/dt against the mean force along a snapshot sequence."""
    waves = list(trajectory)
    if len(waves) < 3:
        raise StateError("ehrenfest diagnostic needs at least 3 snapshots")
    times = np.array([w.time for w in waves])
    gaps = np.diff(times)
    if not np.allclose(gaps, gaps[0], rtol=1e-9, atol=1e-12) or gaps[0] <= 0:
        raise StateError(f"snapshots must be uniformly spaced in time, got gaps {gaps!r}")
    dt = float(gaps[0])
    momenta = np.array([expected_momentum(w) for w in waves])
    rate = (momenta[2:] - momenta[:-2]) / (2.0 * dt)
    force = np.array([ehrenfest_force(w.rho, potential) for w in waves[1:-1]])
    return EhrenfestSeries(times[1:-1], rate, force)


def hamilton_evolve(
    state: EpistemicState,
    potential: Potential,
    shift: ShiftVelocity,
    total_time: float,
    dt_pde: float,
) -> EpistemicState:
    """RK4 integration of the coupled (rho, Phi) equations with a fixed shift.

    Needs the density alive everywhere: the curvature term divides by
    sqrt(rho), so states with exponentially dead regions must be evolved in
    the wavefunction representation instead (see schrodinger_evolve); an
    underflow here aborts with that advice.  The phase grid must be smooth
    (unwrapped): the right-hand side squares its gradient.

    The phase gradient keeps the n-D form (one half spectrum, D n-D
    inverses), not gradient_arrays' one-axis pairs: madelung's halving
    ratio of ~1e-10 density gaps is referenced to these exact bits.
    """
    steps = step_count(total_time, dt_pde)
    spec = state.spec
    if potential.spec != spec:
        raise StateError("potential and state live on different grids")

    curvature_symbol = laplacian_symbol(spec, spec.hbar ** 2 / (2.0 * spec.axis_masses))
    # dispersive stability of the curvature term at the largest wavenumber
    dispersion = float(np.max(curvature_symbol)) / spec.hbar
    problem = check_step_bound(dt_pde, "dispersive stability", dispersion, RK4_IMAG_STABILITY)
    if problem:
        raise StateError(problem)

    u_values = potential.values.values
    inverse_masses = [1.0 / spec.axis_masses[axis] for axis in range(spec.dim)]
    slope = state.phase_slope

    def curvature(rho_values: np.ndarray) -> np.ndarray:
        top = float(np.max(rho_values))
        if float(np.min(rho_values)) < HAMILTON_DENSITY_RELATIVE * top:
            raise NumericalAbort(
                f"density underflow: min rho = {float(np.min(rho_values)):.3e} against "
                f"peak {top:.3e}; evolve this state as a wavefunction instead "
                "(to_wavefunction / schrodinger_evolve)"
            )
        root = np.sqrt(rho_values)
        bent = irfftn(-curvature_symbol * rfftn(root, spec), spec)
        return bent / root

    def rates(rho_values: np.ndarray, phase_values: np.ndarray):
        if not np.all(np.isfinite(phase_values)):
            raise StateError("cannot differentiate non-finite field values")
        phase_spectrum = rfftn(phase_values, spec)
        phase_grads = [irfftn(ik * phase_spectrum, spec) for ik in spec.half_ik]
        # the curvature term enters the phase rate with a plus sign
        phase_rate = -u_values + curvature(rho_values)
        fluxes = []
        for axis in range(spec.dim):
            total_grad = phase_grads[axis] + slope[axis]
            relative = total_grad - spec.axis_masses[axis] * shift.per_axis[axis]
            phase_rate = phase_rate - 0.5 * inverse_masses[axis] * relative ** 2
            velocity = total_grad * inverse_masses[axis] - shift.per_axis[axis]
            fluxes.append(rho_values * velocity)
        return -irfftn(divergence_spectrum(fluxes, spec), spec), phase_rate

    rho = state.rho.values
    phase = state.phase.values
    for _ in range(steps):
        rho, phase = rk4_step(rates, (rho, phase), dt_pde)
    return EpistemicState(ScalarField(rho, spec), ScalarField(phase, spec), slope)
