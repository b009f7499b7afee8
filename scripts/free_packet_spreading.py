"""Free Gaussian packet: measured width against the analytic spreading law."""

import numpy as np

from red.fields import entropy
from red.model import ShiftVelocity, SystemSpec
from red.presets import gaussian_state
from red.quantum import Potential, schrodinger_evolve, to_wavefunction

L = 40.0
CELLS = 512
SIGMA0 = 1.0
DT_PDE = 0.01
TIMES = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0]

spec = SystemSpec(1, 1, (1.0,), (L,), (CELLS,), dt=DT_PDE)
rest = ShiftVelocity(np.zeros(1), spec)
free = Potential.free(spec)

wave = to_wavefunction(gaussian_state(spec, L / 2.0, SIGMA0))
x = np.arange(CELLS) * (L / CELLS)


def packet_width(density_values):
    # second moment about the mean, fine on this box since the packet
    # stays far from the seam for the whole scan
    cell = spec.cell_volume
    mass = density_values.sum() * cell
    mean = (density_values * x).sum() * cell / mass
    return np.sqrt((density_values * (x - mean) ** 2).sum() * cell / mass)


print(f"{'t':>5} {'width':>12} {'analytic':>12} {'rel err':>10} {'entropy':>10}")
t = 0.0
for target in TIMES:
    wave = schrodinger_evolve(wave, free, rest, target - t, DT_PDE)
    t = target
    width = packet_width(wave.rho.values)
    exact = SIGMA0 * np.sqrt(1.0 + (t / (2.0 * SIGMA0 ** 2)) ** 2)
    rel = abs(width - exact) / exact
    print(f"{t:5.2f} {width:12.8f} {exact:12.8f} {rel:10.2e} "
          f"{entropy(wave.rho):10.6f}")
