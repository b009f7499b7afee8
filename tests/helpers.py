"""Oracles, readers and probes shared by several test modules; nothing in `red` calls them."""

import re
import tracemalloc

import numpy as np

from red.io import read_float_csv
from red.errors import StateError
from red.model import ScalarField, ShiftVelocity, SystemSpec, fftn, ifftn


def read_observables(path) -> dict:
    """Columns of an observables.csv as {name: array}."""
    header, table = read_float_csv(path)
    return {name: table[:, i] for i, name in enumerate(header)}


def admissible_step(error) -> float:
    """The largest admissible step that a StateError's message reports, to its 4 digits."""
    return float(re.search(r"largest admissible step is (\S+)$", str(error)).group(1))


def normalized_density(spec: SystemSpec, values: np.ndarray) -> ScalarField:
    """values rescaled, in a new array, so that the quadrature is exactly 1."""
    values = np.asarray(values, dtype=float)
    total = float(np.sum(values) * spec.cell_volume)
    if total <= 0:
        raise StateError("cannot normalize a field with non-positive total")
    return ScalarField(values / total, spec)


def shifted_kinetic_symbol(spec: SystemSpec, shift: ShiftVelocity) -> np.ndarray:
    """sum_A (hbar k_A - m_A shift_A)^2 / (2 m_A) on the full mode grid: kinetic_factor's oracle."""
    symbol = np.zeros(spec.grid_points)
    for axis, k in enumerate(spec.wavenumbers):
        mass = spec.axis_masses[axis]
        offset = spec.hbar * spec.along(axis, k) - mass * shift.per_axis[axis]
        symbol = symbol + offset ** 2 / (2.0 * mass)
    return symbol


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


def traced_peak(call) -> int:
    """Peak bytes of the Python and numpy allocations made during call(), above those before it."""
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
