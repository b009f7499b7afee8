"""Verification suites: quantitative acceptance checks, one named suite each.

Every suite is a pure in-memory computation returning a list of checks
(name, measured value, tolerance, pass flag).  Default seeds and grid
parameters are pinned here so that `verify` is deterministic; suites with a
stated runtime budget get a final runtime_seconds row.

Suite map:
    moments       one-step kernel mean / variance / cross-covariance
    mcfp          walker histogram vs the exact grid heat flow vs heat kernel
    gdecomp       Monte Carlo vs field form of the mismatch functional
    bestmatch     closed-form vs mismatch-fit optimum shift, flat gradient
    boostcov      best-match covariance under a boost of the phase
    madelung      hamilton vs schrodinger trajectories, dt convergence
    conservation  relational momentum conservation and the Ehrenfest rate
    constraint    zero-momentum preparation stays zero under relational U
    entropyrate   entropy rate identity vs central-differenced entropy
    spreading     free-packet width law and the matched-shift eigenstate
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fields import diffuse, entropy, entropy_rate
from .geometry import best_match_fit, best_match_shift, info_metric_g, info_metric_g_mc
from .model import (
    Ensemble,
    EpistemicState,
    ShiftVelocity,
    SystemSpec,
)
from .presets import (
    gaussian_density,
    gaussian_state,
    gaussian_wave_values,
    harmonic_external_values,
    harmonic_relational_values,
    lattice_momentum,
    smooth_harmonic_relational_values,
)
from .quantum import (
    Potential,
    WaveField,
    ehrenfest_diagnostic,
    expected_momentum,
    hamilton_evolve,
    schrodinger_evolve,
    to_wavefunction,
)
from .sampler import (
    Drift,
    evolve_ensemble,
    minimal_image,
    sample_from_density,
    stream,
    STREAM_CHECKS,
)

DEFAULT_SEED = 7


@dataclass(frozen=True)
class Check:
    """One measured quantity against its tolerance.

    direction is "below" (measured must stay under tolerance) or "above"
    (measured must reach at least tolerance, e.g. a convergence ratio).
    """

    name: str
    measured: float
    tolerance: float
    passed: bool
    direction: str = "below"

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "direction": self.direction,
            "pass": self.passed,
        }


def below(name: str, measured: float, tolerance: float) -> Check:
    return Check(name, float(measured), float(tolerance), bool(measured <= tolerance))


def above(name: str, measured: float, tolerance: float) -> Check:
    return Check(name, float(measured), float(tolerance), bool(measured >= tolerance),
                 direction="above")


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checks: tuple
    elapsed_seconds: float

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "elapsed_seconds": self.elapsed_seconds,
            "pass": self.passed,
            "checks": [check.as_dict() for check in self.checks],
        }

    def lines(self) -> list:
        out = [f"suite {self.suite}: {'PASS' if self.passed else 'FAIL'} "
               f"({self.elapsed_seconds:.2f}s)"]
        for check in self.checks:
            relation = "<=" if check.direction == "below" else ">="
            out.append(
                f"  [{'pass' if check.passed else 'FAIL'}] {check.name}: "
                f"{check.measured:.6g} {relation} {check.tolerance:.6g}"
            )
        return out


def suite_moments() -> list:
    """One-step kernel statistics at K = 1e5 against the exact moments."""
    spec = SystemSpec(2, 1, (1.0, 2.0), (20.0,), (16, 16), dt=0.01)
    drift = Drift(spec, slope=[3.0, 1.0])
    shift = ShiftVelocity(np.array([0.4]), spec)
    k_samples = 100_000
    # each walker array is dropped once read: the Ensemble holds its own copy of the start
    before = Ensemble(np.tile(np.array([10.0, 10.0]), (k_samples, 1)), spec, DEFAULT_SEED, 0.0, 0)
    after = evolve_ensemble(before, drift, shift, 1)
    disp = after.positions - before.positions
    del before, after
    disp = minimal_image(spec, disp)
    mean = disp.mean(axis=0)
    var = disp.var(axis=0, ddof=1)
    cross = float(np.cov(disp.T, ddof=1)[0, 1])

    checks = []
    for axis in range(spec.dim):
        mass = spec.axis_masses[axis]
        exact_mean = spec.hbar * spec.dt * [3.0, 1.0][axis] / mass - 0.4 * spec.dt
        exact_var = spec.hbar * spec.dt / mass
        se_mean = np.sqrt(exact_var / k_samples)
        checks.append(below(f"mean_axis{axis}_se_units",
                            abs(mean[axis] - exact_mean) / se_mean, 5.0))
        checks.append(below(f"variance_axis{axis}_relative",
                            abs(var[axis] / exact_var - 1.0), 0.03))
    se_cross = np.sqrt(spec.hbar * spec.dt / 1.0 * spec.hbar * spec.dt / 2.0 / k_samples)
    checks.append(below("cross_covariance_se_units", abs(cross) / se_cross, 5.0))
    return checks


def suite_mcfp() -> list:
    """Free diffusion three ways: walkers, the exact grid heat flow, analytic kernel."""
    spec = SystemSpec(1, 1, (1.0,), (40.0,), (512,), dt=0.01)
    sigma0, total_time, k_samples, bins = 1.0, 1.0, 100_000, 64
    rho0 = gaussian_density(spec, 20.0, sigma0)

    positions = sample_from_density(rho0, k_samples, stream(DEFAULT_SEED, STREAM_CHECKS, 0))
    walkers = Ensemble(positions, spec, DEFAULT_SEED, 0.0, 0)
    walkers = evolve_ensemble(walkers, Drift(spec), ShiftVelocity.zero(spec), 100)
    hist, _ = np.histogram(walkers.positions[:, 0], bins=bins, range=(0.0, 40.0))
    hist = hist / k_samples

    evolved = diffuse(rho0, total_time)
    cells_per_bin = spec.grid_points[0] // bins
    fp_mass = evolved.values.reshape(bins, cells_per_bin).sum(axis=1) * spec.cell_volume

    sigma_final = np.sqrt(sigma0 ** 2 + spec.hbar * total_time / spec.masses[0])
    exact_mass = gaussian_density(spec, 20.0, sigma_final).values.reshape(
        bins, cells_per_bin).sum(axis=1) * spec.cell_volume

    return [
        below("l1_walkers_vs_fp", float(np.abs(hist - fp_mass).sum()), 0.05),
        below("l1_walkers_vs_exact", float(np.abs(hist - exact_mass).sum()), 0.05),
        below("l1_fp_vs_exact", float(np.abs(fp_mass - exact_mass).sum()), 0.05),
    ]


def suite_gdecomp() -> list:
    """Monte Carlo estimate of the mismatch against the field quadrature."""
    spec = SystemSpec(1, 3, (1.0,), (16.0, 16.0, 16.0), (64, 64, 64), dt=0.05)
    state = gaussian_state(spec, sigma=1.0, slope=np.full(3, 0.5))
    shift = ShiftVelocity.zero(spec)
    # each form holds one gradient grid at a time, the estimate after it has drawn its cells
    estimate = info_metric_g_mc(state, shift, n_samples=100_000, seed=DEFAULT_SEED)
    report = info_metric_g(state, shift)
    return [
        below("constant_term_deviation", abs(report.constant_term - 15.0), 0.0),
        below("mc_vs_field_se_units",
              abs(estimate.value - report.g_total) / estimate.stderr, 3.0),
    ]


def _bestmatch_state():
    spec = SystemSpec(2, 1, (1.0, 1.0), (16.0,), (64, 64), dt=0.05)
    state = gaussian_state(spec, sigma=1.5, slope=np.array([0.7, 0.7]))
    return spec, state


def suite_bestmatch() -> list:
    """Optimum shift three ways: closed form, fit of the mismatch, flat finite difference."""
    spec, state = _bestmatch_state()
    closed = best_match_shift(state)
    numerical = best_match_fit(state)
    eps = 1e-3
    g_plus = info_metric_g(state, ShiftVelocity(closed.components + eps, spec)).g_total
    g_minus = info_metric_g(state, ShiftVelocity(closed.components - eps, spec)).g_total
    fd_gradient = abs(g_plus - g_minus) / (2.0 * eps)
    return [
        below("closed_form_deviation", abs(float(closed.components[0]) - 0.7), 1e-10),
        below("numerical_relative_deviation",
              abs(float(numerical.components[0]) - 0.7) / 0.7, 1e-8),
        below("fd_gradient_at_optimum", fd_gradient, 1e-8),
    ]


def suite_boostcov() -> list:
    """Boosting the phase moves the optimum exactly; the minimum value stays."""
    spec, state = _bestmatch_state()
    boosted_slope = state.phase_slope + 0.3 * spec.axis_masses
    boosted = EpistemicState(state.rho, state.phase, boosted_slope)
    base_shift = best_match_shift(state)
    boosted_shift = best_match_shift(boosted)
    g_base = info_metric_g(state, base_shift).g_total
    g_boosted = info_metric_g(boosted, boosted_shift).g_total
    return [
        below("shift_response_deviation",
              abs(float(boosted_shift.components[0] - base_shift.components[0]) - 0.3), 1e-10),
        below("minimum_value_change", abs(g_boosted - g_base), 1e-10),
    ]


def suite_madelung() -> list:
    """hamilton and schrodinger trajectories agree at second order in dt."""
    spec = SystemSpec(2, 1, (1.0, 1.0), (16.0,), (128, 128), dt=0.05)
    boost = lattice_momentum(spec, 0, 2)
    state = gaussian_state(spec, center=np.array([7.0, 9.0]), sigma=2.4,
                           slope=np.array([boost, -boost]))
    potential = Potential.from_values(
        smooth_harmonic_relational_values(spec, 0.3), spec, relational_flag=True)
    shift = ShiftVelocity.zero(spec)
    total_time = 0.1
    gaps = {}
    for dt_pde in (1e-3, 5e-4):
        ham = hamilton_evolve(state, potential, shift, total_time, dt_pde)
        sch = schrodinger_evolve(to_wavefunction(state), potential, shift, total_time, dt_pde)
        gaps[dt_pde] = float(np.max(np.abs(ham.rho.values - np.abs(sch.values) ** 2)))
    return [
        below("linf_density_gap", gaps[1e-3], 1e-3),
        above("halving_ratio", gaps[1e-3] / gaps[5e-4], 3.0),
    ]


def suite_conservation() -> list:
    """Momentum under a relational potential; Ehrenfest under an external one."""
    spec = SystemSpec(2, 1, (1.0, 1.0), (16.0,), (64, 64), dt=0.05)
    wave = WaveField(gaussian_wave_values(spec, (8.0, 8.0), 1.2, (2, 2)), spec)
    potential = Potential.from_values(
        harmonic_relational_values(spec, 0.3), spec, relational_flag=True)
    shift = ShiftVelocity.zero(spec)
    reference = expected_momentum(wave)
    drift = 0.0
    for _ in range(50):
        wave = schrodinger_evolve(wave, potential, shift, 0.02, 1e-3)
        drift = max(drift, float(np.max(np.abs(expected_momentum(wave) - reference))))

    external = Potential.from_values(
        harmonic_external_values(spec, 0.25, axis=0, center=8.0), spec)
    packet = gaussian_state(spec, center=np.array([6.0, 8.0]), sigma=1.2)
    snapshots = [to_wavefunction(packet)]
    for _ in range(20):
        snapshots.append(schrodinger_evolve(snapshots[-1], external, shift, 0.01, 1e-3))
    series = ehrenfest_diagnostic(snapshots, external)
    ehrenfest_rel = float(np.max(
        np.abs(series.momentum_rate[:, 0] - series.force[:, 0]) / np.abs(series.force[:, 0])
    ))
    return [
        below("momentum_drift_1000_steps", drift, 1e-8),
        below("ehrenfest_relative_deviation", ehrenfest_rel, 1e-4),
        above("ehrenfest_force_scale", float(np.min(np.abs(series.force[:, 0]))), 0.1),
    ]


def suite_constraint() -> list:
    """Symmetric superposition of opposite boosts stays at zero momentum."""
    spec = SystemSpec(2, 1, (1.0, 1.0), (16.0,), (64, 64), dt=0.05)
    momentum = lattice_momentum(spec, 0, 2)
    envelope = np.sqrt(gaussian_density(spec, np.array([8.0, 8.0]), 1.2).values)
    x0 = spec.axis_coords[0].reshape(-1, 1)
    x1 = spec.axis_coords[1].reshape(1, -1)
    values = envelope * np.cos(momentum * (x0 + x1) / spec.hbar).astype(complex)
    values = values / np.sqrt(np.sum(np.abs(values) ** 2) * spec.cell_volume)
    wave = WaveField(values, spec)
    potential = Potential.from_values(
        harmonic_relational_values(spec, 0.3), spec, relational_flag=True)
    shift = ShiftVelocity.zero(spec)
    worst = float(np.max(np.abs(expected_momentum(wave))))
    for _ in range(25):
        wave = schrodinger_evolve(wave, potential, shift, 0.02, 1e-3)
        worst = max(worst, float(np.max(np.abs(expected_momentum(wave)))))
    return [below("max_expected_momentum", worst, 1e-8)]


def suite_entropyrate() -> list:
    """entropy_rate against the central difference of the entropy series."""
    spec = SystemSpec(1, 1, (1.0,), (40.0,), (512,), dt=0.05)
    wave = to_wavefunction(gaussian_state(spec, sigma=1.0))
    potential = Potential.free(spec)
    shift = ShiftVelocity.zero(spec)
    wave = schrodinger_evolve(wave, potential, shift, 0.5, 1e-2)
    spacing = 0.01
    entropies, rates = [], []
    for _ in range(101):
        entropies.append(entropy(wave.rho))
        rates.append(entropy_rate(wave))
        wave = schrodinger_evolve(wave, potential, shift, spacing, 1e-2)
    entropies = np.asarray(entropies)
    rates = np.asarray(rates)
    central = (entropies[2:] - entropies[:-2]) / (2.0 * spacing)
    worst = float(np.max(np.abs(rates[1:-1] - central) / np.abs(central)))
    return [below("entropy_rate_relative_deviation", worst, 1e-4)]


def suite_spreading() -> list:
    """Free-packet width law; matched-shift plane wave is stationary."""
    spec = SystemSpec(1, 1, (1.0,), (40.0,), (256,), dt=0.05)
    wave = to_wavefunction(gaussian_state(spec, sigma=1.0))
    potential = Potential.free(spec)
    shift = ShiftVelocity.zero(spec)
    x = spec.axis_coords[0]
    worst = 0.0
    for step in range(1, 5):
        wave = schrodinger_evolve(wave, potential, shift, 0.5, 0.01)
        rho = np.abs(wave.values) ** 2
        width = np.sqrt(float(np.sum((x - 20.0) ** 2 * rho) * spec.cell_volume))
        target = np.sqrt(1.0 + (0.5 * step) ** 2 / 4.0)
        worst = max(worst, abs(width / target - 1.0))

    momentum = lattice_momentum(spec, 0, 3)
    plane = WaveField(
        np.exp(1j * momentum * x / spec.hbar) / np.sqrt(spec.volume), spec)
    matched = ShiftVelocity(np.array([momentum / spec.masses[0]]), spec)
    evolved = schrodinger_evolve(plane, potential, matched, 1.0, 0.01)
    stationarity = float(np.max(np.abs(
        np.abs(evolved.values) ** 2 - np.abs(plane.values) ** 2
    ))) * spec.volume
    return [
        below("width_law_relative_deviation", worst, 1e-6),
        below("matched_shift_density_drift", stationarity, 1e-12),
    ]


SUITES = {
    "moments": suite_moments,
    "mcfp": suite_mcfp,
    "gdecomp": suite_gdecomp,
    "bestmatch": suite_bestmatch,
    "boostcov": suite_boostcov,
    "madelung": suite_madelung,
    "conservation": suite_conservation,
    "constraint": suite_constraint,
    "entropyrate": suite_entropyrate,
    "spreading": suite_spreading,
}

SUITE_BUDGETS_SECONDS = {
    "moments": 10.0,
    "mcfp": 60.0,
    "gdecomp": 60.0,
    "bestmatch": 10.0,
    "madelung": 120.0,
    "conservation": 60.0,
}


def run_suite(name: str) -> SuiteReport:
    """Run one suite of the registry, by a name from suite_names."""
    start = time.perf_counter()
    checks = SUITES[name]()
    elapsed = time.perf_counter() - start
    if name in SUITE_BUDGETS_SECONDS:
        budget = SUITE_BUDGETS_SECONDS[name]
        checks = checks + [below("runtime_seconds", elapsed, budget)]
    return SuiteReport(name, tuple(checks), elapsed)


def suite_names(name: str) -> list:
    """The suites a name selects; `all` is the full registry in order.

    An unknown name is a ConfigError at pointer `suite` listing the known suites.
    """
    if name == "all":
        return list(SUITES)
    if name not in SUITES:
        available = ", ".join(list(SUITES) + ["all"])
        raise ConfigError([("suite", f"unknown suite {name!r}; available: {available}")])
    return [name]
