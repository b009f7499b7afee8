"""End-to-end benchmark of the `red` command, with a traced per-layer mode.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark builds the workload's inputs
from the seed (config JSON, plus an initial wave CSV for snapshots_2x1d),
then drives the real `python -m red ...` command as a closed loop: one
client, one child process at a time, each started after the previous one
ended.  Every run is checked (exit code, artifacts, invariant drift,
snapshot reload, byte-identical reruns, reference observables for the
default seed).  The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 a traced
child (perfbench/child.py) also runs, and the metrics are the per-layer
calls, total and self seconds.  A fuller record, with the environment and
every sample, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from child import VERIFY_SUITES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORK = HERE / "work"
SPEC = ROOT / "BENCHMARK.json"
BASELINE = HERE / "baseline.json"

DEFAULT_SEED = 1
MIN_SAMPLES = 3            # timed runs per invocation, even past --seconds
MIN_TRACED_SAMPLES = 2
CHILD_TIMEOUT_S = 45.0
LOOP_LIMIT_S = 110.0       # no new child after this, so a run ends within 180 s

# Correctness tolerances.  Each drift is also recorded as a number.
NORM_TOL = 1e-9            # |norm - 1| on every observables row
MOMENTUM_TOL = 1e-8        # max |P(t) - P(0)| under a relational potential
# The energy column is taken in the frame of the step's shift; with a fixed
# shift or a best-matched one it is conserved by the split step up to O(dt).
ENERGY_TOL = 1e-4          # max |E(t) - E(0)| / |E(0)|
WALKER_L1_TOL = 0.06       # walker histogram vs |psi|^2 on 8x8-cell blocks; ~0.03 seen,
                           # 0.14-0.25 against the initial density
WALKER_BLOCK = 8
REFERENCE_RTOL = 1e-9      # default-seed observables vs baseline.json
REFERENCE_ATOL = 1e-12
# verify check values include roundoff-level residuals (1e-10 .. 1e-17), which
# any reordering of the arithmetic moves; each suite also gates its own.
VERIFY_REFERENCE_RTOL = 1e-6
VERIFY_REFERENCE_ATOL = 1e-9

# Host-speed scaling.  The shared host's speed drifts by 20-30 % over minutes
# (CPU time slows alike, so it is not steal), and a longer run does not
# average the drift away.  A fixed calibration kernel (HostSpeed) is timed
# just before and just after every `red` child; the timings are reported as
#     median over samples x CALIBRATION_NOMINAL_S / mean kernel time of the run,
# that is, in seconds of a host on which the kernel takes
# CALIBRATION_NOMINAL_S.  The unscaled medians are printed and recorded.
CALIBRATION_NOMINAL_S = 0.13


@dataclass(frozen=True)
class Workload:
    kind: str              # "run" or "verify"
    steps: int = 0
    relational: bool = False
    ensemble_k: int = 0
    snapshot_every: int = 1
    dt_pde: float = 0.005


WORKLOADS = {
    "spectral_4d": Workload("run", steps=24, relational=True, snapshot_every=24),
    # walkers move ~5 cells, so the walker-vs-density check can tell motion apart
    "walkers_2x1d": Workload("run", steps=24, relational=True, ensemble_k=50_000, snapshot_every=24,
                             dt_pde=0.02),
    "snapshots_2x1d": Workload("run", steps=4, snapshot_every=1),
    "verify_all": Workload("verify", steps=10),  # the ten suites count as steps
}


# ---------------------------------------------------------------- inputs


def _lattice_boost(rng: random.Random, box: float, modes: int) -> float:
    """A nonzero lattice momentum, so the wave's imaginary part (and the CSV size) never collapses."""
    return 2.0 * math.pi * rng.choice([m for m in range(-modes, modes + 1) if m]) / box


def make_config(name: str, seed: int, work: Path) -> dict:
    """Workload config from the seed; grid, steps and K are fixed per workload."""
    rng = random.Random(f"{name}:{seed}")
    load = WORKLOADS[name]
    run = {"steps": load.steps, "dt_pde": load.dt_pde, "snapshot_every": load.snapshot_every,
           "ensemble_K": load.ensemble_k, "seed": seed}
    if name == "spectral_4d":
        box = 10.0
        return {
            "system": {"n_particles": 2, "spatial_dim": 2, "masses": [1.0, rng.choice([1.0, 1.5, 2.0])],
                       "box": [box, box], "grid": [16, 16, 16, 16], "dt": 0.01},
            "initial_state": {"preset": "gaussian_packet",
                              "center": [rng.uniform(3.5, 6.5) for _ in range(4)],
                              "sigma": [rng.uniform(2.5, 3.0) for _ in range(4)],
                              "boost": [_lattice_boost(rng, box, 2) for _ in range(2)]},
            "drift_or_potential": {"preset": "smooth_harmonic_relational", "k": rng.uniform(0.2, 0.6)},
            "shift_mode": {"mode": "best_match"},
            "run": run,
        }
    if name == "walkers_2x1d":
        box = 16.0
        return {
            "system": {"n_particles": 2, "spatial_dim": 1, "masses": [1.0, rng.choice([1.0, 1.5, 2.0])],
                       "box": [box], "grid": [128, 128], "dt": 0.01},
            "initial_state": {"preset": "gaussian_packet",
                              "center": [rng.uniform(6.0, 10.0) for _ in range(2)],
                              "sigma": [rng.uniform(1.2, 2.0) for _ in range(2)],
                              "boost": [_lattice_boost(rng, box, 3)]},
            "drift_or_potential": {"preset": "smooth_harmonic_relational", "k": rng.uniform(0.2, 0.6)},
            "shift_mode": {"mode": "fixed", "values": [0.0]},
            "run": run,
        }
    if name == "snapshots_2x1d":
        box, cells = 16.0, 256
        wave_path = work / "initial_wave.csv"
        write_initial_wave(rng, wave_path, box, cells)
        return {
            "system": {"n_particles": 2, "spatial_dim": 1, "masses": [1.0, 1.0],
                       "box": [box], "grid": [cells, cells], "dt": 0.01},
            "initial_state": {"file": str(wave_path)},
            "drift_or_potential": {"preset": "harmonic_external", "k": rng.uniform(0.2, 0.6),
                                   "axis": rng.randint(0, 1)},
            "shift_mode": {"mode": "best_match"},
            "run": run,
        }
    raise ValueError(f"{name} takes no config")


def write_initial_wave(rng: random.Random, path: Path, box: float, cells: int) -> None:
    """A boosted periodic Gaussian with a smooth phase ripple, in red's wave CSV format."""
    import numpy as np

    h = box / cells
    x = np.arange(cells) * h
    axes = []
    for _ in range(2):
        center, sigma = rng.uniform(6.0, 10.0), rng.uniform(1.2, 2.0)
        d = (x - center + box / 2.0) % box - box / 2.0
        phase = _lattice_boost(rng, box, 3) * x + rng.uniform(0.0, 0.5) * np.sin(2.0 * np.pi * x / box)
        axes.append(np.exp(-d ** 2 / (4.0 * sigma ** 2) + 1j * phase))
    values = axes[0][:, None] * axes[1][None, :]
    values /= math.sqrt(float(np.sum(np.abs(values) ** 2)) * h * h)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["real", "imaginary"])
        for value in values.reshape(-1):
            writer.writerow([format(float(value.real), ".17g"), format(float(value.imag), ".17g")])
    sidecar = {"box": [box, box], "kind": "wavefunction", "order": "C",
               "shape": [cells, cells], "time": 0.0}
    path.with_suffix(".json").write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------- children


def child_env() -> dict:
    threads = str(min(2, len(os.sched_getaffinity(0))))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["RED_THREADS"] = threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


@dataclass
class ChildResult:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_child(args: list, cwd: Path, env: dict) -> ChildResult:
    """One child process, waited for with os.wait4 for its own peak RSS."""
    cwd.mkdir(parents=True, exist_ok=True)
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                       out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def red_args(name: str, config_path: Path) -> list:
    if WORKLOADS[name].kind == "verify":
        return ["verify", "all", "--out", "out"]
    return ["run", "--config", str(config_path), "--out", "out"]


def setup_args(name: str, config_path: Path) -> list:
    if WORKLOADS[name].kind == "verify":
        return [str(HERE / "child.py"), "setup", "--verify"]
    return [str(HERE / "child.py"), "setup", "--config", str(config_path)]


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def dir_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            digest.update(p.relative_to(path).as_posix().encode() + b"\0")
            digest.update(hashlib.sha256(p.read_bytes()).digest())
    return digest.hexdigest()


def verify_values(out: Path) -> dict:
    """Measured value of every non-timing check in a `verify --out` directory."""
    values = {}
    for path in sorted(out.glob("verify_*.json")):
        report = json.loads(path.read_text())
        for check in report["checks"]:
            if check["name"] != "runtime_seconds":
                values[f"{report['suite']}.{check['name']}"] = check["measured"]
    return values


# ---------------------------------------------------------------- checks


class Gate:
    """Collects failed correctness checks and the drift values behind them."""

    def __init__(self):
        self.failures = []
        self.drifts = {}

    def require(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return ok

    def bound(self, name: str, value: float, tol: float) -> None:
        self.drifts[name] = value
        self.require(value <= tol, f"{name} = {value:.3e} exceeds {tol:.1e}")


def read_observables(path: Path) -> dict:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    return {name: [float(row[i]) for row in body] for i, name in enumerate(header)}


def snapshot_steps(load: Workload) -> list:
    return [s for s in range(load.steps + 1) if s % load.snapshot_every == 0]


def check_run_outputs(name: str, config: dict, out: Path, gate: Gate) -> dict:
    """Artifacts, invariant drift, walker cross-check and snapshot reload."""
    load = WORKLOADS[name]
    steps = snapshot_steps(load)
    expected = ["manifest.json", "observables.csv"]
    for s in steps:
        expected += [f"wave_{s:06d}.csv", f"wave_{s:06d}.json"]
        if load.ensemble_k:
            expected.append(f"walkers_{s:06d}.csv")
    missing = [f for f in expected if not (out / f).is_file()]
    if not gate.require(not missing, f"missing artifacts: {missing}"):
        return {}
    gate.require(not (out / "error.json").exists(), "run left error.json")
    obs = read_observables(out / "observables.csv")
    if not gate.require(len(obs["t"]) == len(steps),
                        f"observables has {len(obs['t'])} rows, expected {len(steps)}"):
        return obs

    gate.bound("norm_drift", max(abs(n - 1.0) for n in obs["norm"]), NORM_TOL)
    energy = obs["energy"]
    gate.bound("energy_drift", max(abs(e - energy[0]) for e in energy) / abs(energy[0]), ENERGY_TOL)
    if load.relational:
        axes = [k[len("momentum_"):] for k in obs if k.startswith("momentum_")]
        drift = max(abs(p - obs[f"momentum_{a}"][0]) for a in axes for p in obs[f"momentum_{a}"])
        gate.bound("momentum_drift", drift, MOMENTUM_TOL)

    import numpy as np
    from red.config import parse_config
    from red.io import wave_from_csv

    spec = parse_config(json.dumps(config)).spec
    waves = {}
    for s in steps:
        try:
            waves[s] = wave_from_csv(out / f"wave_{s:06d}.csv", spec)
        except Exception as exc:  # any failure to reload is a failed check
            gate.require(False, f"wave_{s:06d}.csv does not reload: {exc!r}")
    if load.ensemble_k and steps[-1] in waves:
        last = steps[-1]
        with open(out / f"walkers_{last:06d}.csv", newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        positions = np.asarray(rows, dtype=float)
        cells = np.asarray(spec.grid_points)
        blocks = cells // WALKER_BLOCK
        idx = np.mod(np.rint(positions / spec.spacing).astype(int), cells) // WALKER_BLOCK
        walker_hist = np.zeros(blocks)
        np.add.at(walker_hist, tuple(idx.T), 1.0 / len(positions))
        rho = np.abs(waves[last].values) ** 2 * spec.cell_volume
        rho_blocks = rho.reshape([b for n in blocks for b in (n, WALKER_BLOCK)]).sum(
            axis=tuple(range(1, 2 * len(blocks), 2)))
        gate.bound("walker_l1", float(np.abs(walker_hist - rho_blocks).sum()), WALKER_L1_TOL)
    return obs


def check_reference(name: str, observed: dict, gate: Gate) -> None:
    """Default seed: observables (or verify values) match baseline.json."""
    rtol, atol = ((VERIFY_REFERENCE_RTOL, VERIFY_REFERENCE_ATOL) if WORKLOADS[name].kind == "verify"
                  else (REFERENCE_RTOL, REFERENCE_ATOL))
    if not BASELINE.exists():
        gate.require(False, "baseline.json is missing")
        return
    reference = json.loads(BASELINE.read_text()).get("reference", {}).get(name)
    if not gate.require(reference is not None, f"baseline.json has no reference for {name}"):
        return
    worst = 0.0
    for key, ref in reference.items():
        if not gate.require(key in observed, f"reference value {key} was not produced"):
            continue
        diff = abs(observed[key] - ref)
        allowed = rtol * max(abs(ref), abs(observed[key])) + atol
        worst = max(worst, diff / allowed)
        gate.require(diff <= allowed, f"{key} = {observed[key]!r}, reference {ref!r}")
    gate.drifts["reference_worst_over_tol"] = worst


def final_row(obs: dict) -> dict:
    return {k: v[-1] for k, v in obs.items()}


# ---------------------------------------------------------------- environment


def environment() -> dict:
    import numpy
    import scipy

    env = child_env()
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sources = [p.read_bytes() for p in sorted((ROOT / "src" / "red").glob("*.py"))]
    # which FFT modules red calls, by a scan of its source; both wrap pocketfft
    text = b"\n".join(sources)
    backends = [name for name, needles in (("numpy.fft", (b"np.fft.", b"numpy.fft")),
                                           ("scipy.fft", (b"scipy.fft", b"from scipy import fft")))
                if any(n in text for n in needles)]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fft_backend": " + ".join(f"{b} (pocketfft)" for b in backends) or "none found",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: env[k] for k in ("RED_THREADS", "OMP_NUM_THREADS",
                                        "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "src_sha256": hashlib.sha256(text).hexdigest(),
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


# ---------------------------------------------------------------- measurement


class HostSpeed:
    """Client of a `child.py calibrate` process, which times the host-speed kernel.

    The kernel runs in its own process so that its arrays never count in the
    peak RSS of a `red` child forked from this one.
    """

    def __init__(self, env: dict):
        self._proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), "calibrate"],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)

    def sample(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration process exited with {self._proc.wait()}")
        return float(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        try:
            self._proc.stdin.close()
            self._proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait()
            self._proc.stdout.close()


def median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    load = WORKLOADS[name]
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        with HostSpeed(child_env()) as speed:
            return _measure(name, load, seed, seconds, trace, work, speed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other invocation is using it
        except OSError:
            pass


def _measure(name: str, load: Workload, seed: int, seconds: float, trace: bool, work: Path,
             speed: HostSpeed) -> dict:
    env = child_env()
    config = None
    config_path = work / "config.json"
    if load.kind == "run":
        config = make_config(name, seed, work)
        config_path.write_text(json.dumps(config, indent=2) + "\n")
    gate = Gate()
    attempted = failed = 0

    # warm-up: byte-compile and page in red, numpy and scipy; not timed
    run_child(setup_args(name, config_path), work / "warmup", env)
    speed.sample()  # not kept: the first one pages the kernel in
    calibrations = []

    setup_walls, setup_calls = [], []
    walls, rss, out_bytes, digests = [], [], [], []
    traced_walls, traced_stats = [], []
    reference_out = None
    runs_ok = 0  # red and traced runs that exited 0 and matched the first output
    start = time.perf_counter()
    i = 0
    while True:
        if i % 2 == 0:  # set-up samples every other iteration leave more room for runs
            probe = run_child(setup_args(name, config_path), work / f"setup_{i}", env)
            attempted += 1
            if gate.require(probe.code == 0, f"set-up child exited {probe.code}: {probe.stderr[-500:]}"):
                setup_walls.append(probe.wall_s)
                setup_calls.append(json.loads(probe.stdout.strip().splitlines()[-1]))
            else:
                failed += 1

        run_dir = work / f"run_{i}"
        calibrations.append(speed.sample())
        result = run_child(["-m", "red", *red_args(name, config_path)], run_dir, env)
        calibrations.append(speed.sample())
        attempted += 1
        ok = gate.require(result.code == 0, f"red exited {result.code}: {result.stderr[-500:]}")
        if ok:
            walls.append(result.wall_s)
            rss.append(result.peak_rss_mb)
            out_bytes.append(dir_bytes(run_dir / "out"))
            digests.append(verify_values(run_dir / "out") if load.kind == "verify"
                           else dir_digest(run_dir / "out"))
            if reference_out is None:
                reference_out = run_dir / "out"
            ok = gate.require(digests[-1] == digests[0], "reruns with the same seed differ")
        failed += not ok
        runs_ok += ok
        if run_dir / "out" != reference_out:
            shutil.rmtree(run_dir, ignore_errors=True)

        if trace:
            traced_dir = work / f"traced_{i}"
            stats_path = traced_dir / "stats.json"
            traced = run_child([str(HERE / "child.py"), "trace", "--stats", str(stats_path), "--",
                                *red_args(name, config_path)], traced_dir, env)
            attempted += 1
            ok = gate.require(traced.code == 0, f"traced red exited {traced.code}: {traced.stderr[-500:]}")
            if ok:
                traced_walls.append(traced.wall_s)
                traced_stats.append(json.loads(stats_path.read_text()))
                same = (verify_values(traced_dir / "out") if load.kind == "verify"
                        else dir_digest(traced_dir / "out"))
                ok = gate.require(same == digests[0] if digests else False,
                                  "traced run output differs from the untraced run")
            failed += not ok
            runs_ok += ok
            shutil.rmtree(traced_dir, ignore_errors=True)

        i += 1
        enough = len(walls) >= MIN_SAMPLES and (not trace or len(traced_walls) >= MIN_TRACED_SAMPLES)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (enough or i >= 2 * MIN_SAMPLES) or elapsed >= LOOP_LIMIT_S:
            break

    # the output checks judge the first run's output, which every run in
    # runs_ok reproduced exactly: if they fail, all of those runs failed
    failures_before = len(gate.failures)
    observed = {}
    if reference_out is not None:
        if load.kind == "verify":
            reports = [json.loads(p.read_text()) for p in sorted(reference_out.glob("verify_*.json"))]
            gate.require(len(reports) == 10, f"verify wrote {len(reports)} reports, expected 10")
            gate.require(all(r["pass"] for r in reports), "a verify suite failed")
            observed = verify_values(reference_out)
        else:
            observed = final_row(check_run_outputs(name, config, reference_out, gate))
        if seed == DEFAULT_SEED:
            check_reference(name, observed, gate)
    if trace and traced_stats:
        check_trace_counts(name, traced_stats, gate)
    if len(gate.failures) > failures_before:
        failed += runs_ok

    scale = CALIBRATION_NOMINAL_S / statistics.mean(calibrations)
    wall = median(walls) * scale
    setup = median(setup_walls) * scale
    work_s = wall - setup
    end_to_end = {
        "wall_s": (wall, "s"),
        "setup_s": (setup, "s"),
        "steps_per_s": (load.steps / work_s if work_s > 0 else 0.0, "1/s"),
        "peak_rss_mb": (median(rss), "MB"),
        "output_mb": (median(out_bytes) / 1e6, "MB"),
        "pass_frac": ((attempted - failed) / attempted, "ratio"),
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "samples": {"wall_s": walls, "setup_s": setup_walls, "peak_rss_mb": rss,
                    "output_bytes": out_bytes, "traced_wall_s": traced_walls,
                    "calibration_s": calibrations},
        "host_speed_scale": scale,
        "setup_calls_s": {k: median([c[k] for c in setup_calls]) for k in (setup_calls[0] if setup_calls else {})},
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "drift": gate.drifts,
        "final_observables": observed,
        "failures": gate.failures,
        "attempted": attempted,
        "failed": failed,
    }
    if trace:
        record["per_layer"] = per_layer_metrics(traced_stats, traced_walls, median(walls))
    return record


# ---------------------------------------------------------------- tracing


def per_layer_names() -> list:
    spec = json.loads(SPEC.read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def per_layer_metrics(stats: list, traced_walls: list, untraced_wall: float) -> dict:
    """Counts from the first traced run; times are medians over traced runs."""
    out = {}
    for metric, unit in per_layer_names():
        if metric == "trace.overhead_s":
            value = median(traced_walls) - untraced_wall if traced_walls else 0.0
        elif unit == "s":
            value = median([s.get(metric, 0.0) for s in stats])
        else:
            value = stats[0].get(metric, 0) if stats else 0
        out[metric] = {"value": value, "unit": unit}
    return out


def expected_calls(name: str) -> dict:
    """Calls each workload must (N or '+') or must not (0) make, per wrapper."""
    load = WORKLOADS[name]
    steps, snaps = load.steps, len(snapshot_steps(load))
    every_run = {
        "config.load_config": 1, "experiment.run_experiment": 1,
        "experiment.build_initial_wave": 1, "experiment.build_potential": 1,
        "quantum.schrodinger_evolve": steps, "io.wave_to_csv": snaps,
        "io.ObservablesWriter.write": 1, "quantum.total_energy": snaps,
        "geometry.info_metric_g": snaps, "quantum.hamilton_evolve": 0,
        "fields.diffuse": 0, "sampler.evolve_ensemble": 0, "model.fft": "+",
    }
    table = {
        "spectral_4d": {**every_run, "geometry.best_match_shift": steps + 1,
                        "model.gradient_arrays": "+", "sampler.kernel_moments": 0,
                        "model.interpolate": 0, "io.wave_from_csv": 0},
        "walkers_2x1d": {**every_run, "sampler.kernel_moments": steps, "model.interpolate": 2 * steps,
                         "sampler.sample_from_density": 1, "sampler.walkers_to_csv": snaps,
                         "geometry.best_match_shift": 0, "io.wave_from_csv": 0},
        "snapshots_2x1d": {**every_run, "io.wave_from_csv": 1, "geometry.best_match_shift": steps + 1,
                           "sampler.kernel_moments": 0},
        "verify_all": {"quantum.hamilton_evolve": "+", "fields.diffuse": "+",
                       "sampler.evolve_ensemble": "+", "sampler.kernel_moments": "+",
                       "quantum.schrodinger_evolve": "+", "geometry.best_match_shift": "+",
                       "experiment.run_experiment": 0, "io.wave_to_csv": 0, "model.fft": "+",
                       **{f"verify.run_suite.{suite}": 1 for suite in VERIFY_SUITES}},
    }
    return table[name]


def check_trace_counts(name: str, stats: list, gate: Gate) -> None:
    def counts(run: dict) -> dict:
        return {k: v for k, v in run.items() if not k.endswith("_s")}

    gate.require(all(counts(run) == counts(stats[0]) for run in stats),
                 "traced call counts differ between runs")
    for layer, want in expected_calls(name).items():
        calls = stats[0].get(f"{layer}.calls", 0)
        if want == "+":
            gate.require(calls > 0, f"trace: {layer} recorded 0 calls, expected some")
        else:
            gate.require(calls == want, f"trace: {layer} recorded {calls} calls, expected {want}")


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time; defaults to run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "red" / "__init__.py").is_file():
        print(f"perfbench: no red package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 64:
        print("perfbench: --seed must fit in an unsigned 64-bit integer", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    sys.path.insert(0, str(ROOT / "src"))

    record = measure(args.workload, args.seed, seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    result_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    metrics = record["per_layer"] if args.trace else record["end_to_end"]
    for key, value in sorted(record["drift"].items()):
        print(f"drift {key} = {value:.6g}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    for key, metric in metrics.items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    samples = record["samples"]
    print(f"unscaled medians: wall_s = {median(samples['wall_s']):.6g} s, setup_s = "
          f"{median(samples['setup_s']):.6g} s; host-speed scale {record['host_speed_scale']:.4f}")
    print(f"record written to {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
