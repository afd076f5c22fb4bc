"""Series, image, and raw-array output.

Three formats, all plain and inspectable:

* time series: CSV with a fixed header, floats printed with %.17g so a
  round trip through text is bit-exact for doubles;
* snapshots for eyeballing: 8-bit binary PGM (P5), linearly rescaled, with
  the original min/max recorded in a comment line;
* snapshots for postprocessing: a small raw container (magic, dimensions,
  then the array) defined below.
"""

from __future__ import annotations

import struct
from typing import IO

import numpy as np

from .diagnostics import SeriesRecord
from .errors import GridMismatchError
from .spectral import ScalarField

__all__ = [
    "format_float",
    "CsvSeriesWriter",
    "write_pgm",
    "write_raw",
    "read_raw",
    "RAW_MAGIC",
]

RAW_MAGIC = b"VORSPEC1"


def format_float(x: float) -> str:
    """Shortest decimal form that still reproduces the double exactly."""
    return "%.17g" % float(x)


class CsvSeriesWriter:
    """Incremental CSV writer for diagnostic records.

    Writes the header on construction, one line per record thereafter.
    The stream is flushed after every record so a crashed run still leaves
    a usable series behind.
    """

    def __init__(self, stream: IO[str]):
        self.stream = stream
        self.stream.write(",".join(SeriesRecord.FIELDS) + "\n")

    def write(self, record: SeriesRecord):
        self.stream.write(",".join(format_float(v) for v in record.values()))
        self.stream.write("\n")
        self.stream.flush()


def write_pgm(stream: IO[bytes], field: ScalarField):
    """8-bit binary PGM of a scalar field for quick visual checks.

    Values are rescaled linearly to 0..255 (a constant field maps to 128).
    Image rows run along x with y increasing downward the way viewers
    expect, so the first row is the y = 0 line. The pre-rescale min and
    max are kept in a comment so amplitudes stay recoverable.
    """
    phys = field.physical
    lo = float(phys.min())
    hi = float(phys.max())
    if hi > lo:
        img = np.round((phys - lo) * (255.0 / (hi - lo)))
    else:
        img = np.full_like(phys, 128.0)
    # phys is indexed [x, y]; transpose so rows are constant-y scanlines
    img = img.astype(np.uint8).T
    n = field.grid.n
    header = f"P5\n# min={format_float(lo)} max={format_float(hi)}\n{n} {n}\n255\n"
    stream.write(header.encode("ascii"))
    stream.write(img.tobytes(order="C"))


def write_raw(stream: IO[bytes], field: ScalarField):
    """Raw dump: magic, two u32 little-endian dims, then the samples.

    The payload is the physical array in C order with the x index slowest,
    each value a little-endian float64. Layout:

        bytes 0..7    magic b"VORSPEC1"
        bytes 8..15   nx, ny as uint32 little-endian
        bytes 16..    nx*ny float64 little-endian, x-major
    """
    phys = np.ascontiguousarray(field.physical, dtype="<f8")
    n = field.grid.n
    stream.write(RAW_MAGIC)
    stream.write(struct.pack("<II", n, n))
    stream.write(phys.tobytes(order="C"))


def read_raw(stream: IO[bytes]) -> np.ndarray:
    """Read back a raw dump written by write_raw."""
    magic = stream.read(8)
    if magic != RAW_MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected {RAW_MAGIC!r}")
    nx, ny = struct.unpack("<II", stream.read(8))
    data = np.frombuffer(stream.read(8 * nx * ny), dtype="<f8")
    if data.size != nx * ny:
        raise ValueError("truncated raw payload")
    return data.reshape(nx, ny).copy()
