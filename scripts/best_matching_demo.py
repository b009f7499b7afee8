"""Best matching over global shifts for a uniformly boosted two-particle packet.

Scans the mismatch between successive instants as a function of the trial
shift velocity, then compares the scan minimum with the closed form P / M
and with the minimizer fitted to the mismatch alone. Finally adds a frame
boost to the phase and shows the optimal shift moving by exactly that
amount while the minimum value stays put.
"""

import numpy as np

from red.geometry import best_match_fit, best_match_shift, info_metric_g
from red.model import ShiftVelocity, SystemSpec
from red.presets import gaussian_state

BOX = 16.0
GRID = 64
SLOPE = 0.7
FRAME_BOOST = 0.3


def boosted_state(spec, extra_slope=0.0):
    state = gaussian_state(spec, BOX / 2.0, 1.5,
                           slope=np.full(2, SLOPE + extra_slope))
    return state


def mismatch_scan(state, spec, trials):
    rows = []
    for value in trials:
        shift = ShiftVelocity(np.array([value]), spec)
        rows.append((value, info_metric_g(state, shift).g_total))
    return rows


def main():
    spec = SystemSpec(2, 1, (1.0, 1.0), (BOX,), (GRID, GRID), dt=0.05)
    state = boosted_state(spec)

    trials = np.linspace(0.0, 1.4, 15)
    rows = mismatch_scan(state, spec, trials)
    best_row = min(rows, key=lambda row: row[1])
    print(f"{'trial shift':>12} {'mismatch':>18}")
    for value, g_total in rows:
        marker = "  <- scan minimum" if value == best_row[0] else ""
        print(f"{value:12.3f} {g_total:18.12f}{marker}")

    closed = best_match_shift(state).per_axis[0]
    fitted = best_match_fit(state).per_axis[0]
    print()
    print(f"closed-form shift   {closed:.12f}")
    print(f"mismatch-fit shift  {fitted:.12f}")
    print(f"momentum / mass     {SLOPE * 2 / 2.0:.12f}")

    boosted = boosted_state(spec, extra_slope=FRAME_BOOST)
    shifted = best_match_shift(boosted).per_axis[0]
    g_base = info_metric_g(state, best_match_shift(state)).g_total
    g_boost = info_metric_g(boosted, best_match_shift(boosted)).g_total
    print()
    print(f"after boosting the frame by {FRAME_BOOST}:")
    print(f"  shift moved by    {shifted - closed:.12f}")
    print(f"  minimum changed by {abs(g_boost - g_base):.3e}")


if __name__ == "__main__":
    main()
