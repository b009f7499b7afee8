"""The shared test oracles in helpers.py."""

import numpy as np

from helpers import translate_array
from red.model import SystemSpec


def test_translate_array_whole_cell_matches_roll():
    spec = SystemSpec(2, 1, (1.0, 2.0), (16.0,), (32, 32), 0.01)
    rng = np.random.default_rng(7)
    values = rng.normal(size=spec.grid_points)
    shifted = translate_array(values, spec, np.array([3 * spec.spacing[0], 0.0]))
    assert np.max(np.abs(shifted - np.roll(values, 3, axis=0))) < 1e-10
