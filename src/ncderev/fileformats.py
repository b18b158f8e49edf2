"""On-disk interchange formats.

Binary formats (all little-endian):
    NCSP: complex spectrogram. magic "NCSP", u32 frames, u32 bins, then
          frames*bins interleaved (re, im) f32 pairs, row-major.
    NCIR: impulse response. magic "NCIR", u32 tap count, f32 taps, then
          the room spec and what calibration measured (measured_rt60,
          renders, images) as a trailing key=value text block.
    NCFT: feature matrix. magic "NCFT", u32 rows, u32 cols, row-major f32.

CSV outputs use repr() for floats (shortest round-trip form), which keeps
rerun outputs byte-identical.
"""

import contextlib
import csv
import struct

import numpy as np

from .rir import Rir, RoomSpec


def fmt(value) -> str:
    """Deterministic CSV field formatting."""
    # np.float64 is a float subclass whose repr is "np.float64(...)"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


@contextlib.contextmanager
def csv_rows(path, header):
    """Open a CSV for writing one row at a time; yields a function that
    writes one row of mixed scalars with deterministic float formatting.

    Fields holding a comma or a quote are quoted, so any reader that
    follows RFC 4180 (such as Python's csv module) gets them back intact.
    """
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        yield lambda row: writer.writerow([fmt(v) for v in row])


def write_csv(path, header, rows) -> None:
    """Write all rows at once, formatted as by ``csv_rows``."""
    with csv_rows(path, header) as write_row:
        for row in rows:
            write_row(row)


def write_spectrogram(values, path) -> None:
    """Dump complex frame-by-bin values in NCSP format."""
    values = np.asarray(getattr(values, "values", values), dtype=np.complex128)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {values.shape}")
    n, k = values.shape
    inter = np.empty((n, k, 2), dtype="<f4")
    inter[:, :, 0] = values.real
    inter[:, :, 1] = values.imag
    with open(path, "wb") as fh:
        fh.write(b"NCSP")
        fh.write(struct.pack("<II", n, k))
        fh.write(inter.tobytes())


def read_spectrogram(path) -> np.ndarray:
    """Read an NCSP dump back as a complex128 (frames, bins) matrix."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != b"NCSP":
            raise ValueError(f"not an NCSP file: magic {magic!r}")
        n, k = struct.unpack("<II", fh.read(8))
        data = np.frombuffer(fh.read(n * k * 8), dtype="<f4")
    if data.size != n * k * 2:
        raise ValueError("truncated NCSP file")
    data = data.reshape(n, k, 2).astype(np.float64)
    return data[:, :, 0] + 1j * data[:, :, 1]


def write_features(feats, path) -> None:
    """Dump a real feature matrix in NCFT format."""
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {feats.shape}")
    with open(path, "wb") as fh:
        fh.write(b"NCFT")
        fh.write(struct.pack("<II", feats.shape[0], feats.shape[1]))
        fh.write(feats.astype("<f4").tobytes())


def read_features(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != b"NCFT":
            raise ValueError(f"not an NCFT file: magic {magic!r}")
        rows, cols = struct.unpack("<II", fh.read(8))
        data = np.frombuffer(fh.read(rows * cols * 4), dtype="<f4")
    if data.size != rows * cols:
        raise ValueError("truncated NCFT file")
    return data.reshape(rows, cols).astype(np.float64)


def write_rir(rir: Rir, path) -> None:
    """Dump taps, the room spec and the calibration record as key=value text."""
    spec = rir.spec
    with open(path, "wb") as fh:
        fh.write(b"NCIR")
        fh.write(struct.pack("<I", rir.taps.size))
        fh.write(rir.taps.astype("<f4").tobytes())
        lines = [
            f"dims={spec.dims[0]!r},{spec.dims[1]!r},{spec.dims[2]!r}",
            f"src={spec.src[0]!r},{spec.src[1]!r},{spec.src[2]!r}",
            f"mic={spec.mic[0]!r},{spec.mic[1]!r},{spec.mic[2]!r}",
            f"rt60={spec.rt60!r}",
            f"sample_rate={spec.sample_rate}",
            f"max_rir_len={spec.max_rir_len}",
            f"measured_rt60={rir.measured_rt60!r}",
            f"renders={rir.renders}",
            f"images={rir.images}",
        ]
        fh.write(("\n".join(lines) + "\n").encode("ascii"))


def read_rir(path) -> Rir:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != b"NCIR":
            raise ValueError(f"not an NCIR file: magic {magic!r}")
        (count,) = struct.unpack("<I", fh.read(4))
        taps = np.frombuffer(fh.read(count * 4), dtype="<f4").astype(np.float64)
        if taps.size != count:
            raise ValueError("truncated NCIR file")
        fields = {}
        for line in fh.read().decode("ascii").splitlines():
            if line.strip():
                key, value = line.split("=", 1)
                fields[key] = value
    spec = RoomSpec(
        dims=tuple(float(v) for v in fields["dims"].split(",")),
        src=tuple(float(v) for v in fields["src"].split(",")),
        mic=tuple(float(v) for v in fields["mic"].split(",")),
        rt60=float(fields["rt60"]),
        sample_rate=int(fields["sample_rate"]),
        max_rir_len=int(fields["max_rir_len"]),
    )
    return Rir(taps, spec.sample_rate, spec,
               measured_rt60=float(fields.get("measured_rt60", "nan")),
               renders=int(fields.get("renders", 0)),
               images=int(fields.get("images", 0)))


def write_filters_csv(taps, q, path) -> None:
    """Per-bin filter dump: bin, tap_index (-q..p), g_real, g_imag.

    taps is the (bins, p+q+1) complex array of a spectrogram fit; tap
    index j = i - q of column i multiplies x(n - j).
    """
    write_csv(path, ["bin", "tap_index", "g_real", "g_imag"],
              ((k, i - q, g.real, g.imag)
               for k, row in enumerate(np.asarray(taps).tolist())
               for i, g in enumerate(row)))


def write_sweep_csv(rows, path) -> None:
    """Context-sweep table: p, q, taps, ratio_percent, mean_err, utterance_count."""
    write_csv(
        path,
        ["p", "q", "taps", "ratio_percent", "mean_err", "utterance_count"],
        ((r.p, r.q, r.taps, r.ratio_percent, r.mean_err, r.utterance_count)
         for r in rows),
    )
