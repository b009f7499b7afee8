"""Oracles shared by several test modules; nothing in `red` calls them."""

import numpy as np

from red.model import SystemSpec, fftn, ifftn


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
