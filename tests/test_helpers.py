"""The shared test oracles in helpers.py."""

import numpy as np
import pytest

from helpers import shifted_kinetic_symbol, translate_array
from red.model import ShiftVelocity, SystemSpec
from red.quantum import kinetic_symbol


def test_translate_array_whole_cell_matches_roll():
    spec = SystemSpec(2, 1, (1.0, 2.0), (16.0,), (32, 32), 0.01)
    rng = np.random.default_rng(7)
    values = rng.normal(size=spec.grid_points)
    shifted = translate_array(values, spec, np.array([3 * spec.spacing[0], 0.0]))
    assert np.max(np.abs(shifted - np.roll(values, 3, axis=0))) < 1e-10


@pytest.mark.parametrize("spec", [
    SystemSpec(2, 1, (1.0, 1.5), (16.0,), (16, 17), dt=0.05),
    SystemSpec(2, 2, (1.0, 2.5), (7.0, 9.0), (6, 7, 5, 8), dt=0.05, hbar=0.7),
], ids=["2x1d", "2x2d"])
def test_shifted_kinetic_symbol_at_zero_shift_is_the_rest_frame_symbol(spec):
    got = shifted_kinetic_symbol(spec, ShiftVelocity.zero(spec))
    assert got.tobytes() == kinetic_symbol(spec).tobytes()

