"""On-disk interchange formats.

Binary formats (all little-endian) open with one block: the 4-byte magic
that names the format, u32 dims, then the row-major f32 payload they declare.
    NCSP: complex matrix; dims rows, bins; (re, im) pairs per cell. The
          rows are frames for spectrograms and taps for fit-fir's filters.
    NCIR: impulse response; dims tap count; then the room spec, the rate
          and tap budget (sample_rate, max_rir_len) and what calibration
          measured (measured_rt60, renders, images) as a trailing
          key=value text block.
    NCFT: feature matrix; dims rows, cols.

CSV outputs use repr() for floats (shortest round-trip form), which keeps
rerun outputs byte-identical.
"""

import csv
import math
import os
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np

from .dsp import SAMPLE_RATE
from .rir import Rir, RoomSpec


def fmt(value) -> str:
    """Deterministic CSV field formatting; None is an empty field."""
    # np.float64 is a float subclass whose repr is "np.float64(...)"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return "" if value is None else str(value)


def write_csv(path, header, rows) -> None:
    """Write a header and rows of mixed scalars with deterministic float
    formatting.

    Fields holding a comma or a quote are quoted, so any reader that
    follows RFC 4180 (such as Python's csv module) gets them back intact.
    """
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([fmt(v) for v in row] for row in rows)


def _write_block(path, magic: bytes, values, ndims: int, tail: bytes = b"") -> None:
    """Write ``magic``, the first ``ndims`` dims of ``values`` as u32, the
    cells of ``values`` (little-endian f32, or ``<c8`` for (re, im) f32
    pairs) in row-major order and then ``tail``."""
    values = np.ascontiguousarray(values)
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack(f"<{ndims}I", *values.shape[:ndims]))
        fh.write(values.data)
        fh.write(tail)


def _block_layout(path, head: bytes, size: int, magic: bytes, ndims: int, cell=()):
    """(shape, payload start, payload stop) of a block file of ``size``
    bytes whose first bytes are ``head``.

    Raises ValueError naming the file for another magic or a header or
    payload shorter than it declares.
    """
    kind = magic.decode("ascii")
    if head[:4] != magic:
        raise ValueError(f"not an {kind} file: magic {head[:4]!r} ({path})")
    start = 4 + 4 * ndims
    if size < start:
        raise ValueError(f"truncated {kind} file {path}: {size} bytes, "
                         f"the header needs {start}")
    shape = struct.unpack_from(f"<{ndims}I", head, 4) + tuple(cell)
    stop = start + 4 * math.prod(shape)
    if size < stop:
        raise ValueError(f"truncated {kind} file {path}: {size} bytes, "
                         f"{shape} f32 values need {stop}")
    return shape, start, stop


def _read_block(path, magic: bytes, ndims: int, cell=(), data=None):
    """Read what ``_write_block`` wrote: (values of shape dims + ``cell``, tail).
    ``data``, when given, holds the file's bytes as already read."""
    raw = Path(path).read_bytes() if data is None else data
    shape, start, stop = _block_layout(path, raw, len(raw), magic, ndims, cell)
    values = np.frombuffer(raw, dtype="<f4", count=math.prod(shape), offset=start)
    return values.reshape(shape), raw[stop:]


def write_spectrogram(values, path) -> None:
    """Dump a complex (frames or taps, bins) matrix in NCSP format."""
    values = np.asarray(values, dtype=np.complex128)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {values.shape}")
    _write_block(path, b"NCSP", values.astype("<c8"), 2)


def read_spectrogram(path, data=None) -> np.ndarray:
    """Read an NCSP dump back as a complex128 (rows, bins) matrix."""
    # the interleaved (re, im) f32 pairs are little-endian complex64 cells
    values = _read_block(path, b"NCSP", 2, (2,), data)[0]
    return values.view("<c8")[:, :, 0].astype(np.complex128)


def write_features(feats, path) -> None:
    """Dump a real feature matrix in NCFT format."""
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {feats.shape}")
    _write_block(path, b"NCFT", feats.astype("<f4"), 2)


def read_features(path, data=None) -> np.ndarray:
    """Read an NCFT dump as its stored, read-only little-endian f32 matrix;
    callers that compute at float64 widen it themselves."""
    return _read_block(path, b"NCFT", 2, data=data)[0]


def features_shape(path) -> tuple:
    """(rows, cols) of an NCFT file from its header alone, checked
    against the file's size as by ``read_features``."""
    with open(path, "rb") as fh:
        head = fh.read(12)
        size = os.fstat(fh.fileno()).st_size
    return _block_layout(path, head, size, b"NCFT", 2)[0]


# Rir's calibration record: its fields after taps and spec
_CALIBRATION = fields(Rir)[2:]


def write_rir(rir: Rir, path) -> None:
    """Dump taps, then the room spec, its rate and tap budget and the
    calibration record as key=value lines."""
    pairs = ([(f.name, getattr(rir.spec, f.name)) for f in fields(RoomSpec)]
             + [("sample_rate", SAMPLE_RATE), ("max_rir_len", rir.spec.max_rir_len)]
             + [(f.name, getattr(rir, f.name)) for f in _CALIBRATION])
    text = "".join(
        f"{key}={','.join(map(fmt, value)) if isinstance(value, tuple) else fmt(value)}\n"
        for key, value in pairs)
    _write_block(path, b"NCIR", np.asarray(rir.taps, dtype="<f4"), 1, text.encode("ascii"))


def read_rir(path) -> Rir:
    """Read an NCIR dump; a missing calibration key keeps Rir's default.

    Raises ValueError naming the file unless its sample_rate is SAMPLE_RATE.
    """
    taps, tail = _read_block(path, b"NCIR", 1)
    text = dict(line.split("=", 1) for line in tail.decode("ascii").splitlines()
                if line.strip())
    if text.get("sample_rate") != str(SAMPLE_RATE):
        raise ValueError(f"{path} is sampled at {text.get('sample_rate')} Hz; "
                         f"only {SAMPLE_RATE} Hz is accepted")
    spec = RoomSpec(**{f.name: tuple(map(float, text[f.name].split(",")))
                       if f.type is tuple else f.type(text[f.name])
                       for f in fields(RoomSpec)})
    return Rir(taps.astype(np.float64), spec,
               **{f.name: f.type(text[f.name]) for f in _CALIBRATION if f.name in text})
