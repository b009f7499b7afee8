"""Snapshot and table formats: round trips, validation, determinism."""

import csv
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import read_observables
from red.errors import StateError
from red.io import (
    CSV_BLOCK_ROWS,
    ObservablesWriter,
    _block_rows,
    _render_tables,
    _significand,
    read_float_csv,
    read_json,
    wave_from_csv,
    wave_to_csv,
    write_float_csv,
    write_json,
)
from red.model import Ensemble, SystemSpec
from red.presets import gaussian_wave_values
from red.quantum import WaveField
from red.sampler import walkers_to_csv

SPEC = SystemSpec(1, 1, (1.0,), (16.0,), (32,), dt=0.05)
SPEC_2D = SystemSpec(2, 1, (1.0, 2.0), (16.0,), (16, 16), dt=0.05)


def make_wave(spec, time=0.0):
    return WaveField(gaussian_wave_values(spec, 8.0, 1.5, 1), spec, time=time)


def test_wave_round_trip_exact(tmp_path):
    wave = make_wave(SPEC_2D, time=0.75)
    path = tmp_path / "wave.csv"
    wave_to_csv(wave, path)
    back = wave_from_csv(path, SPEC_2D)
    assert back.time == 0.75
    # .17g rendering is repr-precision: the round trip is bit-exact
    assert np.array_equal(back.values, wave.values)


def test_wave_sidecar_records_grid(tmp_path):
    wave = make_wave(SPEC)
    wave_to_csv(wave, tmp_path / "wave.csv")
    sidecar = read_json(tmp_path / "wave.json")
    assert sidecar["kind"] == "wavefunction"
    assert sidecar["shape"] == [32]
    assert sidecar["box"] == [16.0]
    assert sidecar["order"] == "C"


def test_wave_shape_mismatch_rejected(tmp_path):
    wave = make_wave(SPEC)
    wave_to_csv(wave, tmp_path / "wave.csv")
    other = SystemSpec(1, 1, (1.0,), (16.0,), (64,), dt=0.05)
    with pytest.raises(StateError):
        wave_from_csv(tmp_path / "wave.csv", other)


def test_wave_header_checked(tmp_path):
    wave = make_wave(SPEC)
    wave_to_csv(wave, tmp_path / "wave.csv")
    body = (tmp_path / "wave.csv").read_text().splitlines()
    body[0] = "re,im"
    (tmp_path / "wave.csv").write_text("\n".join(body) + "\n")
    with pytest.raises(StateError):
        wave_from_csv(tmp_path / "wave.csv", SPEC)


def _csv_writer_reference(path, header, table):
    """The row-at-a-time csv.writer output the block writer must reproduce."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in table:
            writer.writerow([format(float(v), ".17g") for v in row])


EDGE_VALUES = np.array([-0.0, 5e-324, 1e300, 0.1, 1.0, -1e-300, 2.0 ** 53 + 1, -123.456])
ROW_COUNTS = [0, 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1]


def _edge_table(rows, columns):
    """rows x columns of edge values, cycled so both sides of a block boundary see each one."""
    return np.resize(EDGE_VALUES, rows * columns).reshape(rows, columns)


@pytest.mark.parametrize("columns, header", [(2, ["real", "imaginary"]), (4, ["x_0", "x_1", "x_2", "x_3"])])
@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_float_csv_bytes_match_csv_writer(tmp_path, rows, columns, header):
    table = _edge_table(rows, columns)
    write_float_csv(tmp_path / "block.csv", header, table)
    _csv_writer_reference(tmp_path / "reference.csv", header, table)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_float_csv_renders_repr_precision(tmp_path):
    write_float_csv(tmp_path / "edge.csv", ["a", "b"], EDGE_VALUES[:4].reshape(2, 2))
    assert (tmp_path / "edge.csv").read_bytes() == (
        b"a,b\r\n-0,4.9406564584124654e-324\r\n1.0000000000000001e+300,0.10000000000000001\r\n"
    )


def _unit_wave(values):
    """A 1-D wave holding exactly these values: the box is chosen to make the norm 1."""
    cells = values.size
    box = cells / float(np.sum(np.abs(values) ** 2))
    spec = SystemSpec(1, 1, (1.0,), (box,), (cells,), dt=0.05)
    return WaveField(values, spec)


@pytest.mark.parametrize("rows", ROW_COUNTS[1:])
def test_wave_csv_bytes_match_csv_writer(tmp_path, rows):
    raw = np.resize(np.array([1.0, -0.0, -0.0, 5e-324, 0.1, 1.0, 0.5, 0.1]), 2 * rows)
    wave = _unit_wave(raw[0::2] + 1j * raw[1::2])
    wave_to_csv(wave, tmp_path / "wave.csv")
    pairs = np.column_stack((wave.values.real, wave.values.imag))
    _csv_writer_reference(tmp_path / "reference.csv", ["real", "imaginary"], pairs)
    assert (tmp_path / "wave.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    back = wave_from_csv(tmp_path / "wave.csv", wave.spec)
    assert np.array_equal(back.values, wave.values)


@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_walker_csv_bytes_match_csv_writer(tmp_path, rows):
    spec = SystemSpec(2, 2, (1.0, 1.0), (1e301, 1e301), (4, 4, 4, 4), dt=0.05)
    ensemble = Ensemble(np.abs(_edge_table(rows, spec.dim)), spec, rng_seed=0)
    walkers_to_csv(ensemble, tmp_path / "walkers.csv")
    _csv_writer_reference(tmp_path / "reference.csv", ["x_0", "x_1", "x_2", "x_3"], ensemble.positions)
    assert (tmp_path / "walkers.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("row", ["1.0,abc", "1.0", "1.0,2.0,3.0", "#1.0,2.0"])
def test_wave_malformed_row_rejected(tmp_path, row):
    wave = make_wave(SPEC)
    wave_to_csv(wave, tmp_path / "wave.csv")
    body = (tmp_path / "wave.csv").read_text().splitlines()
    body[5] = row
    (tmp_path / "wave.csv").write_text("\n".join(body) + "\n")
    with pytest.raises(StateError):
        wave_from_csv(tmp_path / "wave.csv", SPEC)


def test_wave_row_count_checked(tmp_path):
    wave = make_wave(SPEC)
    wave_to_csv(wave, tmp_path / "wave.csv")
    body = (tmp_path / "wave.csv").read_text().splitlines()
    (tmp_path / "wave.csv").write_text("\n".join(body[:-1]) + "\n")
    with pytest.raises(StateError, match="rows"):
        wave_from_csv(tmp_path / "wave.csv", SPEC)


def test_write_json_deterministic(tmp_path):
    payload = {"b": 2, "a": [1.5, {"z": True}]}
    write_json(tmp_path / "one.json", payload)
    write_json(tmp_path / "two.json", payload)
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()
    assert read_json(tmp_path / "one.json") == payload


def test_observables_writer_round_trip(tmp_path):
    writer = ObservablesWriter(spatial_dim=1)
    row = {
        "t": 0.0, "momentum_0": 0.7, "energy": 1.25, "norm": 1.0,
        "entropy": 2.5, "shift_0": 0.7, "g_total": 15.5, "g_constant": 15.0,
        "g_entropy": -0.25, "g_h0": 0.75,
    }
    writer.add(**row)
    writer.write(tmp_path / "obs.csv")
    table = read_observables(tmp_path / "obs.csv")
    for key, value in row.items():
        assert table[key][0] == value


def test_observables_writer_bytes_match_csv_writer(tmp_path):
    writer = ObservablesWriter(spatial_dim=1)
    writer.write(tmp_path / "empty.csv")
    assert (tmp_path / "empty.csv").read_bytes() == (",".join(writer.header) + "\r\n").encode()
    table = _edge_table(3, len(writer.header))
    for row in table:
        writer.add(**dict(zip(writer.header, row)))
    writer.write(tmp_path / "obs.csv")
    _csv_writer_reference(tmp_path / "reference.csv", writer.header, table)
    assert (tmp_path / "obs.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_observables_writer_rejects_bad_rows():
    writer = ObservablesWriter(spatial_dim=1)
    with pytest.raises(StateError, match="missing column"):
        writer.add(t=0.0)
    full = {name: 0.0 for name in writer.header}
    with pytest.raises(StateError, match="unknown observable"):
        writer.add(extra=1.0, **full)


@pytest.mark.parametrize("sidecar", [
    "not json",
    "[1, 2]",
    '{"kind": "wavefunction"}',
    '{"kind": "wavefunction", "shape": 32, "time": 0.0}',
    '{"kind": "wavefunction", "shape": [32]}',
    '{"kind": "wavefunction", "shape": [32], "time": "abc"}',
    '{"kind": "wavefunction", "shape": [32], "time": NaN}',
    '{"kind": "wavefunction", "shape": [32], "time": true}',
    '{"kind": "wavefunction", "shape": [32], "time": 1' + "0" * 400 + '}',
])
def test_wave_sidecar_validated(tmp_path, sidecar):
    wave_to_csv(make_wave(SPEC), tmp_path / "wave.csv")
    (tmp_path / "wave.json").write_text(sidecar)
    with pytest.raises(StateError, match="sidecar"):
        wave_from_csv(tmp_path / "wave.csv", SPEC)


def test_read_float_csv_header_and_table(tmp_path):
    table = _edge_table(5, 3)
    write_float_csv(tmp_path / "t.csv", ["a", "b", "c"], table)
    header, back = read_float_csv(tmp_path / "t.csv")
    assert header == ["a", "b", "c"]
    assert back.tobytes() == table.tobytes()
    write_float_csv(tmp_path / "empty.csv", ["a", "b"], np.zeros((0, 2)))
    header, back = read_float_csv(tmp_path / "empty.csv")
    assert header == ["a", "b"] and back.shape == (0, 2)


@pytest.mark.parametrize("text", ["", "a,b\r\n1.0,abc\r\n", "a,b\r\n1.0\r\n", "a,b\r\n1,2,3\r\n4,5,6\r\n"])
def test_read_float_csv_rejects_malformed_tables(tmp_path, text):
    (tmp_path / "t.csv").write_text(text)
    with pytest.raises(StateError):
        read_float_csv(tmp_path / "t.csv")


def test_read_observables_rejects_a_malformed_row(tmp_path):
    writer = ObservablesWriter(spatial_dim=1)
    writer.add(**{name: 1.0 for name in writer.header})
    writer.write(tmp_path / "obs.csv")
    text = (tmp_path / "obs.csv").read_text()
    (tmp_path / "obs.csv").write_text(text.replace("1,", "one,", 1))
    with pytest.raises(StateError, match="malformed"):
        read_observables(tmp_path / "obs.csv")


# ---------------------------------------------------------------- the renderer against '%.17g'


def _oracle(header, table):
    """The bytes of csv.writer over '%.17g' % v of every value: what write_float_csv must write."""
    lines = [",".join(header)] + [",".join(["%.17g" % v for v in row]) for row in table.tolist()]
    return ("\r\n".join(lines) + "\r\n").encode()


def _assert_renders_like_oracle(tmp_path, values, columns=1):
    table = np.asarray(values, dtype=float).reshape(-1, columns)
    header = [f"c{i}" for i in range(columns)]
    write_float_csv(tmp_path / "rendered.csv", header, table)
    assert (tmp_path / "rendered.csv").read_bytes() == _oracle(header, table)


def _with_neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def test_renderer_matches_oracle_on_random_bit_patterns(tmp_path):
    bits = np.random.default_rng(20).integers(0, 2 ** 64, size=1_000_000, dtype=np.uint64)
    values = bits.view(float).copy()
    # one pattern in 2^63 is an infinity: put both in, beside the random nan and subnormals
    values[:4] = [np.inf, -np.inf, 2.2250738585072009e-308, -5e-324]
    kinds = np.isnan(values), np.isinf(values), (values != 0) & (np.abs(values) < 2.2250738585072014e-308)
    assert all(kind.any() for kind in kinds)
    _assert_renders_like_oracle(tmp_path, values, columns=2)


def test_renderer_matches_oracle_on_powers_of_ten(tmp_path):
    powers = [float(f"1e{k}") for k in range(-307, 309)]
    _assert_renders_like_oracle(tmp_path, np.concatenate([_with_neighbours(powers), -np.array(powers)]))


def test_renderer_matches_oracle_on_exact_ties(tmp_path):
    # 2^-25 has 18 significant digits ending in 5: %.17g rounds the tie to even
    assert "%.17g" % 2.0 ** -25 == "2.9802322387695312e-08"
    halves = [2.0 ** -k for k in range(1, 1075)]
    _assert_renders_like_oracle(tmp_path, halves + [-h for h in halves] + [2.0 ** -25])


def test_renderer_matches_oracle_at_the_style_edges(tmp_path):
    edges = [1e-5, 1e-4, 1e16, 1e17, 9.9999999999999995e-05, 9.9999999999999995e-06,
             99999999999999998.0, 9999999999999998.0, 0.1, 1.0, 10.0]
    _assert_renders_like_oracle(tmp_path, np.concatenate([_with_neighbours(edges), -_with_neighbours(edges)]))


def test_renderer_matches_oracle_on_zeros_and_integers(tmp_path):
    rng = np.random.default_rng(21)
    integers = rng.integers(0, 2 ** 63, size=20_000, dtype=np.uint64, endpoint=True).astype(float)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** 63, 2.0 ** 53 + 2, 1.0, 100.0, 123456789.0]
    powers_of_two = [2.0 ** k for k in range(64)]
    _assert_renders_like_oracle(tmp_path, np.concatenate([special, powers_of_two, integers]))


def test_renderer_matches_oracle_on_a_real_wave(tmp_path):
    # a real initial wave (two_packet, an unboosted gaussian_packet) has an imaginary column
    # of signed zeros, and its tails underflow to subnormals and zeros
    x = np.linspace(-40.0, 40.0, 3 * _block_rows(2) + 5)
    table = np.column_stack((np.exp(-x ** 2), np.where(x < 0, -0.0, 0.0)))
    _assert_renders_like_oracle(tmp_path, table, columns=2)


def test_renderer_renders_zeros_without_the_fallback():
    significand, e, slow = _significand(np.array([0.0, -0.0, 1.0, 5e-324]), _render_tables()[0])
    assert significand[:2].tolist() == [0, 0] and e[:2].tolist() == [0, 0]
    assert slow.tolist() == [3]


BLOCK_SHAPES = {
    "empty": lambda block: 0,
    "one_row": lambda block: 1,
    "block_less_one": lambda block: block - 1,
    "block": lambda block: block,
    "block_plus_one": lambda block: block + 1,
}


@pytest.mark.parametrize("columns", [1, 2, 4, 12])
@pytest.mark.parametrize("shape", BLOCK_SHAPES)
def test_renderer_matches_oracle_on_every_block_shape(tmp_path, shape, columns):
    rows = BLOCK_SHAPES[shape](_block_rows(columns))
    rng = np.random.default_rng(rows * 13 + columns)
    values = rng.normal(size=rows * columns) * 10.0 ** rng.integers(-8, 8, size=rows * columns)
    values[::7] = 0.0
    values[::11] = np.inf
    _assert_renders_like_oracle(tmp_path, values, columns)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=64))
def test_renderer_matches_oracle_on_any_floats(tmp_path_factory, values):
    _assert_renders_like_oracle(tmp_path_factory.mktemp("floats"), values)


def test_renderer_tables_are_built_on_first_write_not_at_import():
    code = "import red.cli, red.io; print(red.io._render_tables.cache_info().currsize)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "0"
