"""Readers for the program's artifacts, written from the layouts in the
README so that the checks share no code with the program.

NCSP: magic, u32 frames, u32 bins, interleaved (re, im) little-endian f32.
NCFT: magic, u32 rows, u32 cols, row-major little-endian f32.
NCIR: magic, u32 tap count, f32 taps, then a key=value text block.
Model JSON: layer dims plus base64 little-endian f32 weights and biases.
"""

import base64
import csv
import json
import struct
import wave
from pathlib import Path

import numpy as np


def _header(data: bytes, magic: bytes, path):
    if data[:4] != magic:
        raise ValueError(f"{path}: magic {data[:4]!r}, expected {magic!r}")


def read_ncsp(path) -> np.ndarray:
    data = Path(path).read_bytes()
    _header(data, b"NCSP", path)
    frames, bins = struct.unpack("<II", data[4:12])
    values = np.frombuffer(data, dtype="<f4", offset=12)
    if values.size != frames * bins * 2:
        raise ValueError(f"{path}: {values.size} floats for {frames}x{bins} complex")
    values = values.reshape(frames, bins, 2).astype(np.float64)
    return values[:, :, 0] + 1j * values[:, :, 1]


def read_ncft(path) -> np.ndarray:
    data = Path(path).read_bytes()
    _header(data, b"NCFT", path)
    rows, cols = struct.unpack("<II", data[4:12])
    values = np.frombuffer(data, dtype="<f4", offset=12)
    if values.size != rows * cols:
        raise ValueError(f"{path}: {values.size} floats for {rows}x{cols}")
    return values.reshape(rows, cols).astype(np.float64)


def read_ncir(path):
    """(float32 taps as float64, key=value fields)."""
    data = Path(path).read_bytes()
    _header(data, b"NCIR", path)
    (count,) = struct.unpack("<I", data[4:8])
    taps = np.frombuffer(data[8:8 + 4 * count], dtype="<f4").astype(np.float64)
    if taps.size != count:
        raise ValueError(f"{path}: truncated taps")
    fields = dict(line.split("=", 1)
                  for line in data[8 + 4 * count:].decode("ascii").splitlines() if line)
    return taps, fields


def read_pcm16(path):
    """(samples scaled by 1/32768, raw int16 samples, sample rate)."""
    with wave.open(str(path), "rb") as fh:
        if fh.getnchannels() != 1 or fh.getsampwidth() != 2:
            raise ValueError(f"{path}: not 16-bit mono PCM")
        rate = fh.getframerate()
        raw = np.frombuffer(fh.readframes(fh.getnframes()), dtype="<i2")
    return raw / 32768.0, raw, rate


def read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_model(path):
    """(layer dims, [(weights fan_in x fan_out, bias), ...], recorded seed)."""
    payload = json.loads(Path(path).read_text())
    dims = [int(d) for d in payload["layer_dims"]]
    layers = []
    for i, layer in enumerate(payload["layers"]):
        w = np.frombuffer(base64.b64decode(layer["weights"]), dtype="<f4")
        b = np.frombuffer(base64.b64decode(layer["bias"]), dtype="<f4")
        layers.append((w.astype(np.float64).reshape(dims[i], dims[i + 1]),
                       b.astype(np.float64)))
    return dims, layers, payload.get("seed")
