"""Child processes of the benchmark: the set-up probe and the traced run.

    python3 perfbench/child.py setup --config CFG       # time the input build
    python3 perfbench/child.py setup --verify           # import what `verify` needs
    python3 perfbench/child.py trace --stats OUT.json -- <red arguments>
    python3 perfbench/child.py calibrate                # time the host-speed kernel

`setup` starts Python, imports `red` and builds the run's inputs the way
`run_experiment` does (config, initial wave, potential and, when K > 0, the
walker sample), timing each call; it prints one JSON object.

`trace` wraps the public functions of every `red` module from outside the
package, runs `red.cli.main` with the given arguments, and writes per-wrapper
calls, total seconds and self seconds (total minus the time covered by
wrapped callees) to OUT.json.  Nothing inside `src/` is changed: each
function is replaced in every `red` module namespace that holds it, because
modules bind names with `from .x import f`.

`calibrate` times a fixed kernel, which runs no `red` code, once per line
read from stdin and prints each time; run.py scales its timings by it.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# (module, attribute path) of every wrapped layer function, in report order.
LAYERS = (
    ("quantum", "schrodinger_evolve"),
    ("quantum", "hamilton_evolve"),
    ("quantum", "from_wavefunction"),
    ("quantum", "expected_momentum"),
    ("quantum", "total_energy"),
    ("geometry", "best_match_shift"),
    ("geometry", "info_metric_g"),
    ("geometry", "ensemble_hamiltonian_h0"),
    ("fields", "phase_gradient_arrays"),
    ("fields", "entropy_rate"),
    ("fields", "entropy"),
    ("fields", "diffuse"),
    ("model", "gradient_arrays"),
    ("model", "interpolate"),
    ("sampler", "kernel_moments"),
    ("sampler", "evolve_ensemble"),
    ("sampler", "sample_from_density"),
    ("sampler", "walkers_to_csv"),
    ("io", "wave_to_csv"),
    ("io", "wave_from_csv"),
    ("io", "write_json"),
    ("io", "ObservablesWriter.write"),
    ("experiment", "build_initial_wave"),
    ("experiment", "build_potential"),
    ("experiment", "run_experiment"),
    ("config", "load_config"),
)
VERIFY_SUITES = (
    "moments", "mcfp", "gdecomp", "bestmatch", "boostcov",
    "madelung", "conservation", "constraint", "entropyrate", "spreading",
)
RED_MODULES = (
    "model", "errors", "presets", "fields", "quantum", "sampler", "geometry",
    "io", "config", "experiment", "verify", "cli",
)
FFT_ENTRY_POINTS = ("fftn", "ifftn", "rfftn", "irfftn", "fft2", "ifft2", "rfft2", "irfft2")


class Tracer:
    """Spans kept in memory: per-key calls, total and self seconds."""

    def __init__(self):
        self.calls = {}
        self.total = {}
        self.self_time = {}
        self._child_time = []  # one accumulator per open span
        self.fft_calls = 0
        self.fft_cells = 0
        self.fft_bytes = 0
        self.walker_steps = 0

    def span(self, key: str, fn, args, kwargs):
        self._child_time.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            children = self._child_time.pop()
            if self._child_time:
                self._child_time[-1] += elapsed
            self.calls[key] = self.calls.get(key, 0) + 1
            self.total[key] = self.total.get(key, 0.0) + elapsed
            self.self_time[key] = self.self_time.get(key, 0.0) + elapsed - children

    def wrap(self, key: str, fn, key_from_args=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = key if key_from_args is None else key_from_args(args, kwargs)
            if key == "sampler.kernel_moments":  # one walker step per point
                tracer.walker_steps += len(args[0])
            return tracer.span(name, fn, args, kwargs)

        return wrapper

    def count_fft(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(x, *args, **kwargs):
            out = fn(x, *args, **kwargs)
            tracer.fft_calls += 1
            tracer.fft_cells += int(getattr(x, "size", 0))
            tracer.fft_bytes += int(getattr(x, "nbytes", 0)) + int(getattr(out, "nbytes", 0))
            return out

        return wrapper

    def report(self) -> dict:
        out = {}
        for key in self.calls:
            out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.total_s"] = self.total[key]
            out[f"{key}.self_s"] = self.self_time[key]
        out["model.fft.calls"] = self.fft_calls
        out["model.fft.cells"] = self.fft_cells
        out["model.fft.computed_mb"] = self.fft_bytes / 1e6
        out["sampler.walker_steps"] = self.walker_steps
        return out


def _replace_everywhere(modules, original, replacement) -> int:
    """Point every module attribute bound to `original` at `replacement`."""
    hits = 0
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                hits += 1
    return hits


def install(tracer: Tracer) -> None:
    """Wrap the FFT entry points, then every listed `red` function."""
    import numpy.fft
    import scipy.fft

    fft_modules = (numpy.fft, scipy.fft)
    originals = []
    for module in fft_modules:
        for name in FFT_ENTRY_POINTS:
            fn = getattr(module, name, None)
            if fn is not None:
                originals.append(fn)
                setattr(module, name, tracer.count_fft(fn))
    red_modules = [importlib.import_module("red")] + [
        importlib.import_module(f"red.{name}") for name in RED_MODULES]
    # names bound by `from numpy.fft import fftn` inside red count too
    for fn in originals:
        _replace_everywhere(red_modules, fn, tracer.count_fft(fn))

    for module_name, attr in LAYERS:
        module = importlib.import_module(f"red.{module_name}")
        key = f"{module_name}.{attr}"
        if "." in attr:
            owner_name, method = attr.split(".")
            owner = getattr(module, owner_name)
            setattr(owner, method, tracer.wrap(key, getattr(owner, method)))
            continue
        original = getattr(module, attr)
        if _replace_everywhere(red_modules, original, tracer.wrap(key, original)) == 0:
            raise SystemExit(f"trace: red.{key} was not found in any module")
    verify = importlib.import_module("red.verify")
    verify.run_suite = tracer.wrap(
        "verify.run_suite", verify.run_suite,
        key_from_args=lambda args, kwargs: f"verify.run_suite.{args[0] if args else kwargs['name']}",
    )


class HostSpeed:
    """A fixed kernel of the kinds of work `red` does.

    Five parts of 20-35 ms each on the reference host: a pure-Python loop, n-D
    FFTs, a streaming multiply over 32 MB, a gather-interpolation and float
    formatting.  Its inputs never change, and nothing of `red` runs in it.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        rng = np.random.default_rng(0)
        self._wave = rng.standard_normal((48, 48, 48)) + 1j * rng.standard_normal((48, 48, 48))
        self._stream = np.ones(4_000_000)
        self._stream_out = np.empty_like(self._stream)
        self._points = rng.uniform(0.0, 4094.0, 200_000)
        self._table = rng.standard_normal(4096)
        self._numbers = rng.standard_normal(40_000).tolist()

    def sample(self) -> float:
        np = self._np
        start = time.perf_counter()
        acc = 0
        for k in range(300_000):
            acc += k * k % 7
        wave = self._wave
        for _ in range(4):
            wave = np.fft.ifftn(np.fft.fftn(wave) * 0.5)
        for _ in range(3):
            np.multiply(self._stream, 1.0001, out=self._stream_out)
        index = self._points.astype(np.int64)
        frac = self._points - index
        for _ in range(8):
            self._table[index] * (1.0 - frac) + self._table[index + 1] * frac
        ",".join(format(x, ".17g") for x in self._numbers)
        return time.perf_counter() - start


def _command_calibrate() -> None:
    """Time the kernel once per line read from stdin; print each time in seconds."""
    speed = HostSpeed()
    for _ in sys.stdin:
        print(repr(speed.sample()), flush=True)


def _command_setup(args) -> dict:
    timings = {}

    def timed(name, fn, *call_args):
        start = time.perf_counter()
        result = fn(*call_args)
        timings[name] = time.perf_counter() - start
        return result

    if args.verify:
        import red.cli  # noqa: F401
        import red.verify  # noqa: F401
        return timings
    import numpy as np

    from red import config, experiment, model, sampler

    cfg = timed("config.load_config", config.load_config, args.config)
    wave = timed("experiment.build_initial_wave", experiment.build_initial_wave, cfg)
    timed("experiment.build_potential", experiment.build_potential, cfg)
    if cfg.run.ensemble_k > 0:
        rho0 = model.ScalarField(np.abs(wave.values) ** 2, cfg.spec)
        timed("sampler.sample_from_density", sampler.sample_from_density, rho0,
              cfg.run.ensemble_k, sampler.stream(cfg.run.seed, sampler.STREAM_INIT, 0))
    return timings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/child.py")
    sub = parser.add_subparsers(dest="command", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("--config")
    setup.add_argument("--verify", action="store_true")
    trace = sub.add_parser("trace")
    trace.add_argument("--stats", required=True)
    trace.add_argument("red_args", nargs=argparse.REMAINDER)
    sub.add_parser("calibrate")
    args = parser.parse_args(argv)

    if args.command == "calibrate":
        _command_calibrate()
        return 0

    if args.command == "setup":
        print(json.dumps(_command_setup(args), sort_keys=True))
        return 0
    tracer = Tracer()
    install(tracer)
    from red.cli import main as red_main

    red_args = args.red_args[1:] if args.red_args[:1] == ["--"] else args.red_args
    code = red_main(red_args)
    Path(args.stats).write_text(json.dumps(tracer.report(), sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
