"""Deterministic file formats: CSV tables and JSON sidecars.

Every writer here is a pure function of its inputs: floats are rendered
with repr precision (.17g), JSON keys are sorted, and nothing records a
timestamp or hostname.  Reruns with identical inputs produce byte-identical
files, which the experiment harness relies on.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import warnings
from pathlib import Path

import numpy as np

from .errors import StateError
from .model import FLOAT_MAX, SystemSpec
from .quantum import WaveField

FLOAT_FORMAT = ".17g"
CSV_BLOCK_ROWS = 4096

# write_float_csv renders a finite x as ±D·10^(e−16), with a 17-digit
# significand D in [1e16, 1e17).  Each value owns a row of _WIDTH byte
# slots, and a keep mask picks the slots its text uses:
#   0 '-' | 1-5 "0.000" | 6-38 d0 . d1 . … . d16 | 39-41 'e' '+' '-'
#   | 42-44 exponent digits | 45 ',' or '\r' | 46 '\n'
_WIDTH = 47
_TEXT_SLOTS = 45  # the slots before the separator
_TEMPLATE = np.frombuffer(b"-0.000" + b"0." * 16 + b"0e+-000,\n", dtype=np.uint8)
_DEKKER_SPLIT = 134217729.0  # 2^27 + 1 splits a double into two 26-bit halves
_FAST_MIN, _FAST_MAX = 1e-280, 1e280  # inside, the double-double product neither overflows nor goes subnormal
_TIE_WINDOW = 1e-9
_POWER_MIN, _POWER_MAX = -266, 298  # 10^(16 − e) for every e of the fast range, ± 1


def _power_of_ten(k: int) -> tuple:
    """(hi, lo): hi is 10^k rounded to a double, lo the rounded rest."""
    if k >= 0:
        exact = 10 ** k
        hi = float(exact)
        return hi, float(exact - int(hi))
    scale = 10 ** -k
    hi = 1 / scale  # int true division rounds correctly
    num, den = hi.as_integer_ratio()
    return hi, (den - num * scale) / (den * scale)


@functools.cache
def _render_tables() -> tuple:
    """The renderer's lookup tables, built on the first CSV write rather than at import."""
    hi, lo = np.array([_power_of_ten(k) for k in range(_POWER_MIN, _POWER_MAX + 1)]).T
    split = hi * _DEKKER_SPLIT
    high = split - (split - hi)
    powers = (hi, high, hi - high, lo)

    n = np.arange(10_000)
    digits = np.empty((10_000, 4), dtype=np.uint8)
    trailing = np.zeros(10_000, dtype=np.int64)  # zeros ending n
    for column, place in enumerate((1000, 100, 10, 1)):
        digits[:, column] = n // place % 10 + ord("0")
        trailing += n % (10_000 // place) == 0
    quads = digits.view(np.uint32).reshape(-1)  # "dddd" of n as one item

    # one keep mask per (layout, digit count 1..17); the sign and the line end are set per value
    layout = np.arange(25)[:, None, None]
    count = np.arange(1, 18)[:, None]
    slot = np.arange(_WIDTH)
    fixed = layout <= 20  # layouts 0-20: fixed notation with e = layout − 4
    e = layout - 4
    whole = np.where(fixed, np.maximum(e + 1, 0), 1)  # digits before the point
    digit = (slot - 6) // 2  # of slot 6 + 2i, and of the point slot after it
    is_digit = (slot >= 6) & (slot <= 38) & (slot % 2 == 0)
    is_point = (slot >= 7) & (slot <= 37) & (slot % 2 == 1)
    keep = (
        ((slot >= 1) & (slot <= 5) & (slot <= np.where(fixed & (e < 0), 1 - e, 0)))  # "0." and −e − 1 zeros
        | (is_digit & (digit < np.maximum(count, whole)))
        | (is_point & (digit == whole - 1) & (count > whole))
        # exponent layouts: 21 e in [−99, −5], 22 e <= −100, 23 e in [17, 99], 24 e >= 100
        | ((slot == 39) & ~fixed)
        | ((slot == 40) & (layout >= 23))
        | ((slot == 41) & ~fixed & (layout <= 22))
        | ((slot == 42) & ((layout == 22) | (layout == 24)))
        | ((slot >= 43) & (slot <= 44) & ~fixed)
        | (slot == 45)
    )
    return powers, quads, trailing, keep.reshape(-1, _WIDTH)


def _scaled(magnitude: np.ndarray, e: np.ndarray, powers: tuple) -> tuple:
    """magnitude·10^(16−e) as an unevaluated sum hi + lo, by Dekker's product (no FMA).

    Exact where 10^(16−e) is a double; otherwise off by less than 1e-14 below 1e17.
    """
    index = 16 - _POWER_MIN - e
    hi_power, high_power, low_power, lo_power = powers
    high = magnitude * _DEKKER_SPLIT
    high -= high - magnitude
    low = magnitude - high
    hi = magnitude * hi_power[index]
    power = high_power[index]
    lo = high * power
    lo -= hi
    lo += low * power
    power = low_power[index]
    lo += high * power
    lo += low * power
    lo += magnitude * lo_power[index]
    return hi, lo


def _significand(flat: np.ndarray, powers: tuple) -> tuple:
    """(D, e, slow): |flat| = D·10^(e−16) with D in [1e16, 1e17) rounded to the nearest integer.

    A zero gets D = 0 and e = 0, which renders as "0".  slow indexes the
    values that Python's '%.17g' renders instead: subnormals, inf, nan,
    values outside [1e-280, 1e280] and values whose D·10^(e−16) lies within
    1e-9 of a rounding tie.
    """
    magnitude = np.abs(flat)
    zero = np.flatnonzero(magnitude == 0)
    fast = (magnitude >= _FAST_MIN) & (magnitude <= _FAST_MAX)
    magnitude[~fast] = 1.0  # D = 10^16, e = 0
    e = np.floor(np.log10(magnitude)).astype(np.int64)
    hi, lo = _scaled(magnitude, e, powers)
    # log10 can miss by one next to a power of ten: move e until hi + lo lies in [1e16, 1e17)
    shift = ((hi - 1e17) + lo >= 0).astype(np.int64) - ((hi - 1e16) + lo < 0)
    moved = np.flatnonzero(shift)
    if moved.size:
        e[moved] += shift[moved]
        hi[moved], lo[moved] = _scaled(magnitude[moved], e[moved], powers)
    # hi >= 1e16 is an integer, so the fraction of hi + lo is that of lo
    rounded = np.rint(lo)
    lo -= rounded
    fast &= np.abs(np.abs(lo) - 0.5) >= _TIE_WINDOW
    significand = hi.astype(np.int64)
    significand += rounded.astype(np.int64)
    carry = np.flatnonzero(significand == 10 ** 17)
    significand[carry] = 10 ** 16
    e[carry] += 1
    significand[zero] = 0
    fast[zero] = True
    return significand, e, np.flatnonzero(~fast)


def _write_digits(text: np.ndarray, significand: np.ndarray, quads: np.ndarray,
                  trailing: np.ndarray) -> np.ndarray:
    """Write the 17 digits of each significand into its row of text; return its trailing zeros."""
    upper = significand // 10 ** 8
    lower = significand - upper * 10 ** 8
    lead = upper // 10 ** 8
    text[:, 6] = lead + ord("0")
    upper -= lead * 10 ** 8
    groups = np.empty((significand.size, 4), dtype=np.int64)  # four groups of four digits
    groups[:, 0] = upper // 10 ** 4
    groups[:, 1] = upper - groups[:, 0] * 10 ** 4
    groups[:, 2] = lower // 10 ** 4
    groups[:, 3] = lower - groups[:, 2] * 10 ** 4
    text[:, 8:39:2] = quads[groups].view(np.uint8)
    zeros = trailing[groups[:, 3]]
    for group in (2, 1, 0):
        ended = np.flatnonzero(zeros == 12 - 4 * group)  # every later group is 0000
        zeros[ended] += trailing[groups[ended, group]]
    return zeros


def _fill_block(block: np.ndarray, slots: np.ndarray, keep: np.ndarray, tables: tuple) -> np.ndarray:
    """Fill the (rows, columns, _WIDTH) slots and keep mask of a 2-D block.

    slots holds _TEMPLATE in every row on entry.  Returns the flat indices
    of the values that Python's '%.17g' rendered, whose template slots the
    caller restores.
    """
    powers, quads, trailing, masks = tables
    flat = block.reshape(-1)
    significand, e, slow = _significand(flat, powers)
    text = slots.reshape(-1, _WIDTH)
    zeros = _write_digits(text, significand, quads, trailing)
    exponent = np.abs(e)
    text[:, 42:45] = quads[exponent].view(np.uint8).reshape(-1, 4)[:, 1:]

    layout = np.where((e >= -4) & (e <= 16), e + 4, 21 + (exponent >= 100) + 2 * (e > 0))
    code = (layout * 17 + 16 - zeros).reshape(block.shape)
    np.take(masks, code, axis=0, out=keep, mode="clip")  # "clip" writes straight into keep
    keep[:, -1, 46] = True  # the last column ends its row
    keep_text = keep.reshape(-1, _WIDTH)
    keep_text[:, 0] = np.signbit(flat)
    if slow.size:
        # numpy pads each text with NUL bytes to _TEXT_SLOTS; the keep mask drops them
        texts = np.array([("%" + FLOAT_FORMAT) % value for value in flat[slow].tolist()],
                         dtype=f"S{_TEXT_SLOTS}")
        text[slow, :_TEXT_SLOTS] = texts.view(np.uint8).reshape(-1, _TEXT_SLOTS)
        keep_text[slow, :_TEXT_SLOTS] = text[slow, :_TEXT_SLOTS] != 0
    return slow


def _block_rows(columns: int) -> int:
    """Rows per rendered block: CSV_BLOCK_ROWS, or fewer so a block holds at most 2·CSV_BLOCK_ROWS values."""
    return max(1, min(CSV_BLOCK_ROWS, 2 * CSV_BLOCK_ROWS // columns))


def write_float_csv(path, header: list, table: np.ndarray) -> None:
    """A header row and the rows of a 2-D float table, every value in .17g.

    The bytes are those csv.writer writes for the same strings (comma
    separated, \r\n line ends, nothing to quote).  The body is rendered in
    numpy, _block_rows(columns) rows at a time, byte for byte as '%.17g'
    renders each value.  A nonzero value that is subnormal, not finite,
    outside [1e-280, 1e280] or within 1e-9 of a rounding tie goes through
    '%.17g' itself.
    """
    table = np.asarray(table, dtype=float)
    heading = io.StringIO()
    csv.writer(heading).writerow(header)
    with open(path, "wb") as handle:
        handle.write(heading.getvalue().encode())
        if table.size == 0:
            return
        tables = _render_tables()
        block_rows = _block_rows(table.shape[1])
        shape = (min(table.shape[0], block_rows), table.shape[1], _WIDTH)
        slots = np.empty(shape, dtype=np.uint8)
        slots[...] = _TEMPLATE
        slots[:, -1, _TEXT_SLOTS] = ord("\r")  # the last column ends its row
        keep = np.empty(shape, dtype=bool)
        quarter = max(1, block_rows // 4)
        for start in range(0, table.shape[0], block_rows):
            block = table[start:start + block_rows]
            count = block.shape[0]
            slow = _fill_block(block, slots[:count], keep[:count], tables)
            # np.compress gathers through one index per kept byte: a quarter block at a time
            for part in range(0, count, quarter):
                rows = slice(part, part + quarter)
                handle.write(np.compress(keep[:count][rows].reshape(-1), slots[:count][rows].reshape(-1)))
            slots.reshape(-1, _WIDTH)[slow, :_TEXT_SLOTS] = _TEMPLATE[:_TEXT_SLOTS]


def write_json(path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    Path(path).write_text(text + "\n")


def read_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _sidecar_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".json")


def wave_to_csv(wave: WaveField, csv_path) -> None:
    """Wavefunction as a two-column CSV (real, imaginary), C-order flat.

    A JSON sidecar with the same stem records the grid shape, box, and time
    needed to reassemble the array.
    """
    # a C-ordered complex array viewed as float is its (real, imaginary) pairs
    pairs = np.ascontiguousarray(wave.values).reshape(-1).view(float).reshape(-1, 2)
    write_float_csv(csv_path, ["real", "imaginary"], pairs)
    write_json(_sidecar_path(csv_path), {
        "kind": "wavefunction",
        "order": "C",
        "shape": list(wave.spec.grid_points),
        "box": list(wave.spec.axis_box),
        "time": wave.time,
    })


def read_float_csv(path) -> tuple:
    """Header and (rows, columns) float table of a CSV, as write_float_csv writes it.

    Text that is not UTF-8, a missing header, a malformed row or a row whose
    width differs from the header raises StateError.
    """
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            header = next(csv.reader(handle), None)
    except UnicodeDecodeError as exc:
        raise StateError(f"CSV {path} is not UTF-8 text: {exc}") from None
    if not header:
        raise StateError(f"CSV {path} has no header row")
    try:
        with warnings.catch_warnings():  # an empty body is a table of zero rows
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None)
    except ValueError as exc:
        raise StateError(f"malformed CSV row in {path}: {exc}") from None
    if table.size == 0:
        table = table.reshape(0, len(header))
    if table.shape[1] != len(header):
        raise StateError(
            f"CSV {path} rows hold {table.shape[1]} values under a header of {len(header)}"
        )
    return header, table


def _wave_sidecar(csv_path) -> tuple:
    """(shape, time) of a wavefunction snapshot's JSON sidecar, validated."""
    try:
        sidecar = read_json(_sidecar_path(csv_path))
    except (ValueError, RecursionError) as exc:
        raise StateError(f"wavefunction sidecar is not valid JSON: {exc}") from None
    if not isinstance(sidecar, dict):
        raise StateError("wavefunction sidecar must be a JSON object")
    shape, time = sidecar.get("shape"), sidecar.get("time")
    if not isinstance(shape, list):
        raise StateError("wavefunction sidecar needs a `shape` list")
    # a comparison, not isfinite: it also rejects JSON integers too large for a float
    if isinstance(time, bool) or not isinstance(time, (int, float)) or not abs(time) <= FLOAT_MAX:
        raise StateError(f"wavefunction sidecar needs a finite `time`, got {time!r}")
    return shape, float(time)


def wave_from_csv(csv_path, spec: SystemSpec) -> WaveField:
    shape, time = _wave_sidecar(csv_path)
    if tuple(shape) != spec.grid_points:
        raise StateError(
            f"snapshot shape {shape} does not match grid {list(spec.grid_points)}"
        )
    header, table = read_float_csv(csv_path)
    if header != ["real", "imaginary"]:
        raise StateError(f"wavefunction CSV header {header} is not [real, imaginary]")
    cells = int(np.prod(spec.grid_points))
    if table.shape[0] != cells:
        raise StateError(
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
                raise StateError(f"observable row is missing column {column!r}")
            row.append(float(named[column]))
            consumed.add(column)
        unknown = set(named) - consumed
        if unknown:
            raise StateError(f"unknown observable columns: {sorted(unknown)}")
        self.rows.append(row)

    def write(self, path) -> None:
        table = np.array(self.rows, dtype=float).reshape(len(self.rows), len(self.header))
        write_float_csv(path, self.header, table)
