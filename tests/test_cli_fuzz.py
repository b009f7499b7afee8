"""Mutated configs through the CLI: each ends in exit 0, 2, 3 or 4, never in a traceback."""

import json
import os
import tempfile

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from red.cli import main

SMALL = {
    "system": {"n_particles": 1, "spatial_dim": 1, "masses": [1.0], "box": [16.0], "grid": [32],
               "dt": 0.05, "hbar": 1.0},
    "initial_state": {"preset": "gaussian_packet", "sigma": 2.0, "center": [8.0],
                      "boost": [0.39269908169872414]},
    "drift_or_potential": {"preset": "harmonic_external", "k": 0.3, "axis": 0, "center": 8.0},
    "shift_mode": {"mode": "fixed", "values": [0.0]},
    "run": {"steps": 2, "dt_pde": 0.01, "snapshot_every": 1, "ensemble_K": 20, "seed": 3},
    "outputs": "out",
}
VALUES = (
    "x", True, None, 0, -1, 3, 0.5, 10 ** 400, 1e308, -1e308, float("nan"), [1.0] * 40, [0.0], [],
    {"a": {"b": [1, {"c": None}]}}, {},
    "gaussian_packet", "plane_wave", "two_packet", "free", "linear", "harmonic_relational",
    "smooth_harmonic_relational", "best_match", "zero_constrained", "config.json",
)
KEYS = ("preset", "file", "k", "boost", "sigma", "center", "values", "mode", "steps", "ensemble_K",
        "seed", "masses", "grid", "particles", "axis", "coefficients", "unknown")


def _paths(node, prefix=()):
    """The path of every dict key and list entry below node."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


PATHS = list(_paths(SMALL))
DICTS = [()] + [path for path in PATHS if isinstance(_at(SMALL, path), dict)]


@st.composite
def mutated(draw):
    """SMALL with one key replaced, deleted or added, anywhere."""
    doc = json.loads(json.dumps(SMALL))
    action = draw(st.sampled_from(("replace", "delete", "add")))
    if action == "add":
        _at(doc, draw(st.sampled_from(DICTS)))[draw(st.sampled_from(KEYS))] = draw(st.sampled_from(VALUES))
        return doc
    path = draw(st.sampled_from(PATHS))
    if action == "delete":
        del _at(doc, path[:-1])[path[-1]]
    else:
        _at(doc, path[:-1])[path[-1]] = draw(st.sampled_from(VALUES))
    return doc


def _long_run(doc) -> bool:
    run = doc.get("run")
    steps = run.get("steps") if isinstance(run, dict) else None
    return isinstance(steps, int) and not isinstance(steps, bool) and steps > 3


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(doc=mutated())
def test_mutated_configs_exit_with_a_code(doc):
    assume(not _long_run(doc))
    text = json.dumps(doc)
    home = os.getcwd()
    for command in ("run", "sample"):
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                with open("config.json", "w") as handle:
                    handle.write(text)
                assert main([command, "--config", "config.json"]) in (0, 2, 3, 4)
            finally:
                os.chdir(home)
