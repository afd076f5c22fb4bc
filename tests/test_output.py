"""Output formats: series CSV, PGM snapshots, raw dumps."""

import io
import struct

import numpy as np
import pytest

from vorspec import (
    CsvSeriesWriter,
    Grid,
    RAW_MAGIC,
    ScalarField,
    SeriesRecord,
    format_float,
    read_raw,
    write_pgm,
    write_raw,
)


def sample_record(t=0.5):
    return SeriesRecord(t=t, l2_omega=2 * np.pi, h1_omega=1.0 / 3.0,
                        energy=0.25, enstrophy=2 * np.pi**2,
                        div_error=3.2e-32, max_omega=4 * np.pi,
                        F=19.7, G1=1559.8)


def test_format_float_round_trips_doubles():
    for x in (1.0 / 3.0, np.pi, 2e-308, 1e308, 0.1, -7.25):
        assert float(format_float(x)) == x


def test_csv_header_and_rows():
    buf = io.StringIO()
    writer = CsvSeriesWriter(buf)
    writer.write(sample_record(0.0))
    writer.write(sample_record(1.0))
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == ("t,l2_omega,h1_omega,energy,enstrophy,"
                        "div_error,max_omega,F,G1")
    assert len(lines) == 3
    first = lines[1].split(",")
    assert len(first) == 9
    # %.17g text restores each double exactly
    assert float(first[1]) == 2 * np.pi
    assert float(first[5]) == 3.2e-32


def test_csv_writer_is_incremental():
    buf = io.StringIO()
    writer = CsvSeriesWriter(buf)
    assert buf.getvalue().endswith("G1\n")
    writer.write(sample_record())
    assert buf.getvalue().count("\n") == 2


def test_pgm_header_and_payload():
    g = Grid(8)
    X, Y = g.nodes()
    f = ScalarField.from_physical(g, X)  # ramp along x
    buf = io.BytesIO()
    write_pgm(buf, f)
    data = buf.getvalue()
    assert data.startswith(b"P5\n# min=0 max=0.875\n8 8\n255\n")
    payload = data.split(b"255\n", 1)[1]
    assert len(payload) == 64
    img = np.frombuffer(payload, dtype=np.uint8).reshape(8, 8)
    # rows are constant-y scanlines: within a row the ramp varies
    assert img[0, 0] == 0
    assert img[0, -1] == 255
    np.testing.assert_array_equal(img[0], img[5])


def test_pgm_constant_field_midgray():
    g = Grid(4)
    f = ScalarField.from_physical(g, np.full((4, 4), 2.5))
    buf = io.BytesIO()
    write_pgm(buf, f)
    payload = buf.getvalue().split(b"255\n", 1)[1]
    assert set(payload) == {128}


def test_pgm_row_orientation():
    # first payload row must be the y = 0 scanline
    g = Grid(4)
    phys = np.zeros((4, 4))
    phys[:, 0] = 1.0  # bright along y = 0
    buf = io.BytesIO()
    write_pgm(buf, ScalarField.from_physical(g, phys))
    payload = buf.getvalue().split(b"255\n", 1)[1]
    img = np.frombuffer(payload, dtype=np.uint8).reshape(4, 4)
    assert np.all(img[0] == 255)
    assert np.all(img[1:] == 0)


def test_raw_round_trip(noise, monkeypatch):
    g = Grid(16)
    f = noise(g, nyquist_free=False)
    buf = io.BytesIO()
    write_raw(buf, f)
    buf.seek(0)
    back = read_raw(buf)
    np.testing.assert_array_equal(back, f.physical)
    # a payload read over many chunks, the last one partial
    monkeypatch.setattr("vorspec.output._RAW_CHUNK", 24)
    buf.seek(0)
    np.testing.assert_array_equal(read_raw(buf), f.physical)


def test_raw_layout():
    g = Grid(4)
    phys = np.arange(16, dtype=float).reshape(4, 4)
    buf = io.BytesIO()
    write_raw(buf, ScalarField.from_physical(g, phys))
    data = buf.getvalue()
    assert data[:8] == RAW_MAGIC
    assert data[8:16] == (4).to_bytes(4, "little") * 2
    vals = np.frombuffer(data[16:], dtype="<f8")
    # x-major: the first ny values are the x = 0 row
    np.testing.assert_array_equal(vals[:4], phys[0])


def test_read_raw_rejects_bad_magic():
    with pytest.raises(ValueError):
        read_raw(io.BytesIO(b"NOTMAGIC" + b"\0" * 24))


def test_read_raw_rejects_truncation(tmp_path):
    g = Grid(4)
    buf = io.BytesIO()
    write_raw(buf, ScalarField.zeros(g))
    data = buf.getvalue()[:-8]
    with pytest.raises(ValueError):
        read_raw(io.BytesIO(data))
    with pytest.raises(ValueError, match="truncated raw header"):
        read_raw(io.BytesIO(RAW_MAGIC + b"\x01"))
    # dims of 2^32 - 1 promise a payload no stream holds
    corrupt = RAW_MAGIC + struct.pack("<II", 0xFFFFFFFF, 0xFFFFFFFF)
    with pytest.raises(ValueError, match="truncated raw payload"):
        read_raw(io.BytesIO(corrupt))
    path = tmp_path / "corrupt.raw"
    path.write_bytes(corrupt)
    with path.open("rb") as fh, pytest.raises(
            ValueError, match="truncated raw payload"):
        read_raw(fh)


def test_csv_row_bytes_match_format_float():
    values = (0.1, 1.0 / 3.0, -0.0, 5e-324, 1e308, np.inf, np.nan,
              np.float64(-2.5e-17), 7.0)
    record = SeriesRecord(*values)
    buf = io.StringIO()
    CsvSeriesWriter(buf).write(record)
    row = buf.getvalue().split("\n", 1)[1]
    assert row == ",".join(format_float(v) for v in values) + "\n"
    assert row == ("0.10000000000000001,0.33333333333333331,-0,"
                   "4.9406564584124654e-324,1e+308,inf,nan,"
                   "-2.4999999999999999e-17,7\n")
