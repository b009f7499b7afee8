"""Deterministic file formats: CSV tables and JSON sidecars.

Every writer here is a pure function of its inputs: floats are rendered
with repr precision (.17g), JSON keys are sorted, and nothing records a
timestamp or hostname.  Reruns with identical inputs produce byte-identical
files, which the experiment harness relies on.
"""

from __future__ import annotations

import csv
import json
import warnings
from pathlib import Path

import numpy as np

from .errors import ConsistencyError
from .model import FLOAT_MAX, SystemSpec
from .quantum import WaveField

FLOAT_FORMAT = ".17g"
CSV_BLOCK_ROWS = 4096


def write_float_csv(path, header: list, table: np.ndarray) -> None:
    """A header row and the rows of a 2-D float table, every value in .17g.

    The bytes are those csv.writer writes for the same strings (comma
    separated, \r\n line ends, nothing to quote); the body is formatted
    CSV_BLOCK_ROWS rows at a time by one %-operation per block.
    """
    table = np.asarray(table, dtype=float)
    row_format = ",".join(["%" + FLOAT_FORMAT] * table.shape[1]) + "\r\n"
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerow(header)
        for start in range(0, table.shape[0], CSV_BLOCK_ROWS):
            block = table[start:start + CSV_BLOCK_ROWS]
            handle.write(row_format * block.shape[0] % tuple(block.reshape(-1).tolist()))


def write_json(path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    Path(path).write_text(text + "\n")


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())


def _sidecar_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".json")


def _grid_sidecar(spec: SystemSpec, time: float, kind: str, extra: dict = None) -> dict:
    payload = {
        "kind": kind,
        "order": "C",
        "shape": list(spec.grid_points),
        "box": list(spec.axis_box),
        "time": time,
    }
    if extra:
        payload.update(extra)
    return payload


def wave_to_csv(wave: WaveField, csv_path) -> None:
    """Wavefunction as a two-column CSV (real, imaginary), C-order flat.

    A JSON sidecar with the same stem records the grid shape, box, and time
    needed to reassemble the array.
    """
    # a C-ordered complex array viewed as float is its (real, imaginary) pairs
    pairs = np.ascontiguousarray(wave.values).reshape(-1).view(float).reshape(-1, 2)
    write_float_csv(csv_path, ["real", "imaginary"], pairs)
    write_json(_sidecar_path(csv_path), _grid_sidecar(wave.spec, wave.time, "wavefunction"))


def read_float_csv(path) -> tuple:
    """Header and (rows, columns) float table of a CSV, as write_float_csv writes it.

    A missing header, a malformed row or a row whose width differs from the
    header raises ConsistencyError.
    """
    with open(path, newline="") as handle:
        header = next(csv.reader(handle), None)
    if not header:
        raise ConsistencyError(f"CSV {path} has no header row")
    try:
        with warnings.catch_warnings():  # an empty body is a table of zero rows
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None)
    except ValueError as exc:
        raise ConsistencyError(f"malformed CSV row in {path}: {exc}") from None
    if table.size == 0:
        table = table.reshape(0, len(header))
    if table.shape[1] != len(header):
        raise ConsistencyError(
            f"CSV {path} rows hold {table.shape[1]} values under a header of {len(header)}"
        )
    return header, table


def _wave_sidecar(csv_path) -> tuple:
    """(shape, time) of a wavefunction snapshot's JSON sidecar, validated."""
    try:
        sidecar = read_json(_sidecar_path(csv_path))
    except ValueError as exc:
        raise ConsistencyError(f"wavefunction sidecar is not valid JSON: {exc}") from None
    if not isinstance(sidecar, dict):
        raise ConsistencyError("wavefunction sidecar must be a JSON object")
    shape, time = sidecar.get("shape"), sidecar.get("time")
    if not isinstance(shape, list):
        raise ConsistencyError("wavefunction sidecar needs a `shape` list")
    # a comparison, not isfinite: it also rejects JSON integers too large for a float
    if isinstance(time, bool) or not isinstance(time, (int, float)) or not abs(time) <= FLOAT_MAX:
        raise ConsistencyError(f"wavefunction sidecar needs a finite `time`, got {time!r}")
    return shape, float(time)


def wave_from_csv(csv_path, spec: SystemSpec) -> WaveField:
    shape, time = _wave_sidecar(csv_path)
    if tuple(shape) != spec.grid_points:
        raise ConsistencyError(
            f"snapshot shape {shape} does not match grid {list(spec.grid_points)}"
        )
    header, table = read_float_csv(csv_path)
    if header != ["real", "imaginary"]:
        raise ConsistencyError(f"wavefunction CSV header {header} is not [real, imaginary]")
    cells = int(np.prod(spec.grid_points))
    if table.shape[0] != cells:
        raise ConsistencyError(
            f"wavefunction CSV holds {table.shape[0]} rows, expected {cells}"
        )
    flat = table.view(complex).reshape(spec.grid_points)
    return WaveField(flat, spec, time=time)


class ObservablesWriter:
    """Accumulates observable rows and writes one CSV with a fixed header."""

    def __init__(self, spatial_dim: int):
        axes = range(spatial_dim)
        self.header = (
            ["t"]
            + [f"momentum_{a}" for a in axes]
            + ["energy", "norm", "entropy"]
            + [f"shift_{a}" for a in axes]
            + ["g_total", "g_constant", "g_entropy", "g_h0"]
        )
        self.rows = []

    def add(self, **named) -> None:
        row = []
        consumed = set()
        for column in self.header:
            if column not in named:
                raise ConsistencyError(f"observable row is missing column {column!r}")
            row.append(float(named[column]))
            consumed.add(column)
        unknown = set(named) - consumed
        if unknown:
            raise ConsistencyError(f"unknown observable columns: {sorted(unknown)}")
        self.rows.append(row)

    def write(self, path) -> None:
        table = np.array(self.rows, dtype=float).reshape(len(self.rows), len(self.header))
        write_float_csv(path, self.header, table)


def read_observables(path) -> dict:
    """Columns of an observables.csv as {name: array}."""
    header, table = read_float_csv(path)
    return {name: table[:, i] for i, name in enumerate(header)}
