"""Potential and packet presets added for the harness and verify suites."""

import numpy as np
import pytest

from red.model import SystemSpec
from red.presets import (
    gaussian_density,
    gaussian_wave_values,
    harmonic_relational_values,
    lattice_momentum,
    minimal_image_difference,
    smooth_harmonic_relational_values,
)
from red.quantum import WaveField, expected_momentum

SPEC = SystemSpec(2, 1, (1.0, 1.0), (16.0,), (64, 64), dt=0.05)


def test_smooth_harmonic_matches_kinked_near_the_well():
    smooth = smooth_harmonic_relational_values(SPEC, 0.3)
    kinked = harmonic_relational_values(SPEC, 0.3)
    diff = np.abs(minimal_image_difference(SPEC, 0, 1))
    near = diff < 1.0
    # sin^2 periodization deviates from d^2 at fourth order in pi*d/L
    bound = 0.5 * 0.3 * np.pi ** 2 * diff[near] ** 4 / (3.0 * 16.0 ** 2)
    assert np.all(np.abs(smooth[near] - kinked[near]) <= bound * 1.01 + 1e-15)


def test_smooth_harmonic_is_band_limited():
    smooth = smooth_harmonic_relational_values(SPEC, 0.3)
    spectrum = np.fft.fft2(smooth)
    magnitude = np.abs(spectrum) / np.abs(spectrum).max()
    # only the difference modes 0 and +-1 carry weight: cos(2 pi d / L)
    mask = np.zeros_like(magnitude, dtype=bool)
    for m in (0, 1, 63):
        mask[m, (-m) % 64] = True
    assert magnitude[~mask].max() < 1e-13


def test_smooth_harmonic_is_relational():
    values = smooth_harmonic_relational_values(SPEC, 0.3)
    # moving both particles by the same whole number of cells leaves U alone
    for cells in np.random.default_rng(1).integers(0, 64, size=16):
        rolled = np.roll(values, (cells, cells), axis=(0, 1))
        assert np.max(np.abs(rolled - values)) < 1e-10


def test_gaussian_wave_is_normalized_with_lattice_momentum():
    values = gaussian_wave_values(SPEC, (8.0, 8.0), 1.2, (2, -1))
    wave = WaveField(values, SPEC)
    momentum = lattice_momentum(SPEC, 0, 2) + lattice_momentum(SPEC, 1, -1)
    assert expected_momentum(wave)[0] == pytest.approx(momentum, abs=1e-12)


def test_amplitude_images_beat_sqrt_density_spectrally():
    spec = SystemSpec(1, 1, (1.0,), (16.0,), (64,), dt=0.05)
    entire = gaussian_wave_values(spec, 8.0, 1.2, 0).real
    rooted = np.sqrt(gaussian_density(spec, 8.0, 1.2).values)
    floor_entire = np.abs(np.fft.fft(entire))[32] / np.abs(np.fft.fft(entire)).max()
    floor_rooted = np.abs(np.fft.fft(rooted))[32] / np.abs(np.fft.fft(rooted)).max()
    # sqrt of an image-summed density has branch points near the axis; its
    # spectrum floors around 1e-6 while the amplitude sum keeps decaying
    assert floor_entire < 1e-12
    assert floor_rooted > 1e-8
