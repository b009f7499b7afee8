"""Walker fluctuations calibrate duration: equal spread in equal steps.

Draws an ensemble from a sharp density, advances it with the short-step
transition kernel, and checks that the per-step spread of each particle
stays at hbar*dt/m independent of the drift pushing it around.
"""

import numpy as np

from red.model import Ensemble, ShiftVelocity, SystemSpec
from red.presets import gaussian_density
from red.sampler import (
    STREAM_INIT,
    Drift,
    evolve_ensemble,
    minimal_image,
    sample_from_density,
    stream,
)

K = 200_000
STEPS = 8
SEED = 11

spec = SystemSpec(2, 1, (1.0, 4.0), (20.0,), (128, 128), dt=0.01)
drift = Drift(spec, slope=[3.0, -1.0])
rest = ShiftVelocity(np.zeros(1), spec)

density = gaussian_density(spec, (10.0, 10.0), (0.05, 0.05))
positions = sample_from_density(density, K, stream(SEED, STREAM_INIT, 0))
walkers = Ensemble(positions, spec, rng_seed=SEED)

print(f"{'step':>4} {'spread p0':>12} {'spread p1':>12} "
      f"{'expect p0':>12} {'expect p1':>12}")
previous = walkers.positions.copy()
for step in range(1, STEPS + 1):
    walkers = evolve_ensemble(walkers, drift, rest, 1)
    hops = minimal_image(spec, walkers.positions - previous)
    previous = walkers.positions.copy()
    spread = hops.var(axis=0, ddof=1)
    expect = spec.hbar * spec.dt / np.array(spec.masses)
    print(f"{step:4d} {spread[0]:12.6f} {spread[1]:12.6f} "
          f"{expect[0]:12.6f} {expect[1]:12.6f}")

print()
print("heavier particles fluctuate less in the same interval; the ratio of")
print(f"spreads over the run: {spread[1] / spread[0]:.4f} (inverse mass ratio 0.25)")
