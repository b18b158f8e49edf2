import csv
from dataclasses import astuple, fields

import numpy as np
import pytest

from ncderev import corpus
from ncderev import fileformats as ff
from ncderev.fir import SweepRow
from ncderev.rir import Rir, RoomSpec


def test_spectrogram_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.normal(size=(12, 7)) + 1j * rng.normal(size=(12, 7))
    path = tmp_path / "x.ncsp"
    ff.write_spectrogram(values, path)
    back = ff.read_spectrogram(path)
    assert back.shape == (12, 7)
    assert np.max(np.abs(back - values)) <= 1e-6  # f32 storage

    raw = path.read_bytes()
    assert raw[:4] == b"NCSP"
    assert int.from_bytes(raw[4:8], "little") == 12
    assert int.from_bytes(raw[8:12], "little") == 7
    assert len(raw) == 12 + 12 * 7 * 8


def test_spectrogram_bad_magic(tmp_path):
    path = tmp_path / "bad.ncsp"
    path.write_bytes(b"XXXX" + bytes(8))
    with pytest.raises(ValueError, match="magic"):
        ff.read_spectrogram(path)


def test_features_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(9, 40))
    path = tmp_path / "f.ncft"
    ff.write_features(feats, path)
    back = ff.read_features(path)
    assert back.shape == (9, 40)
    assert np.max(np.abs(back - feats)) <= 1e-6
    assert path.read_bytes()[:4] == b"NCFT"


def test_rir_roundtrip(tmp_path):
    spec = RoomSpec((7.0, 5.0, 4.0), (2.0, 2.0, 1.5), (3.0, 3.0, 1.5), 0.75)
    taps = np.zeros(100)
    taps[10] = 0.5
    taps[40] = -0.1
    impulse = Rir(taps, spec)
    path = tmp_path / "h.ncir"
    ff.write_rir(impulse, path)
    back = ff.read_rir(path)
    assert np.max(np.abs(back.taps - taps)) <= 1e-7
    assert back.spec.dims == spec.dims
    assert back.spec.rt60 == spec.rt60
    assert back.spec.max_rir_len == spec.max_rir_len
    assert path.read_bytes()[:4] == b"NCIR"


def test_rir_calibration_record_roundtrip(tmp_path):
    spec = RoomSpec((7.0, 5.0, 4.0), (2.0, 2.0, 1.5), (3.0, 3.0, 1.5), 0.75)
    impulse = Rir(np.array([0.0, 1.0, 0.25]), spec,
                  measured_rt60=0.7612345678901234, renders=3, images=123456)
    path = tmp_path / "h.ncir"
    ff.write_rir(impulse, path)
    back = ff.read_rir(path)
    assert back.measured_rt60 == impulse.measured_rt60
    assert (back.renders, back.images) == (3, 123456)
    block = path.read_bytes()[8 + 3 * 4:].decode("ascii").splitlines()
    assert block[-5:] == ["sample_rate=16000", "max_rir_len=14400",
                          "measured_rt60=0.7612345678901234", "renders=3", "images=123456"]


def test_rir_of_another_rate_is_value_error_naming_the_file(tmp_path):
    spec = RoomSpec((7.0, 5.0, 4.0), (2.0, 2.0, 1.5), (3.0, 3.0, 1.5), 0.75)
    path = tmp_path / "h.ncir"
    ff.write_rir(Rir(np.ones(3), spec), path)
    path.write_bytes(path.read_bytes().replace(b"sample_rate=16000", b"sample_rate=8000"))
    with pytest.raises(ValueError, match=r"h\.ncir is sampled at 8000 Hz"):
        ff.read_rir(path)


BLOCKS = {  # writer of a small file, reader, header bytes
    "NCSP": (lambda path: ff.write_spectrogram(np.ones((3, 2)) * 1j, path),
             ff.read_spectrogram, 12),
    "NCFT": (lambda path: ff.write_features(np.ones((3, 2)), path), ff.read_features, 12),
    "NCIR": (lambda path: ff.write_rir(Rir(np.ones(3), RoomSpec(
        (7.0, 5.0, 4.0), (2.0, 2.0, 1.5), (3.0, 3.0, 1.5), 0.75)), path),
        ff.read_rir, 8),
}


@pytest.mark.parametrize("kind", sorted(BLOCKS))
@pytest.mark.parametrize("part", ["header", "payload"])
def test_truncated_block_is_value_error_naming_the_file(tmp_path, kind, part):
    write, read, header = BLOCKS[kind]
    path = tmp_path / f"x.{kind.lower()}"
    write(path)
    # the header loses its last 2 bytes, or the payload keeps 1 value of 3+
    path.write_bytes(path.read_bytes()[:header - 2 if part == "header" else header + 4])
    with pytest.raises(ValueError, match=f"truncated {kind} file .*x.{kind.lower()}"):
        read(path)


@pytest.mark.parametrize("size", [None, 10, 12 + 4 * 5])
def test_features_shape_from_the_header(tmp_path, size):
    path = tmp_path / "x.ncft"
    ff.write_features(np.ones((4, 3)), path)
    if size is None:
        assert ff.features_shape(path) == ff.read_features(path).shape == (4, 3)
        return
    # a header cut short, or a payload shorter than the header declares
    path.write_bytes(path.read_bytes()[:size])
    with pytest.raises(ValueError, match=r"truncated NCFT file .*x\.ncft"):
        ff.features_shape(path)


def test_features_shape_rejects_another_magic(tmp_path):
    path = tmp_path / "x.ncsp"
    ff.write_spectrogram(np.ones((2, 2)), path)
    with pytest.raises(ValueError, match="not an NCFT file"):
        ff.features_shape(path)


def test_sweep_csv(tmp_path):
    # sweep-context writes one line per SweepRow, its fields as the columns
    rows = [SweepRow(p=2, q=2, taps=5, ratio_percent=50.0, mean_err=0.125,
                     utterance_count=3)]
    path = tmp_path / "sweep.csv"
    ff.write_csv(path, [f.name for f in fields(SweepRow)], map(astuple, rows))
    assert path.read_text().splitlines() == [
        "p,q,taps,ratio_percent,mean_err,utterance_count", "2,2,5,50.0,0.125,3"]


def test_csv_writes_are_byte_deterministic(tmp_path):
    rows = [(1, 0.1 + 0.2, float("nan"), "x")]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    ff.write_csv(a, ["i", "v", "n", "s"], rows)
    ff.write_csv(b, ["i", "v", "n", "s"], rows)
    assert a.read_bytes() == b.read_bytes()
    assert "0.30000000000000004" in a.read_text()


def test_fmt_numpy_scalar_is_plain_float():
    assert ff.fmt(np.float64(0.25)) == "0.25"
    assert ff.fmt(np.float32(0.5)) == "0.5"


def test_fmt_none_is_an_empty_field(tmp_path):
    assert ff.fmt(None) == ""
    path = tmp_path / "sparse.csv"
    ff.write_csv(path, ["epoch", "train_mse", "valid_mse"], [(1, None, 0.5), (2, 0.25, 0.75)])
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["train_mse"] for r in rows] == ["", "0.25"]
    assert [r["valid_mse"] for r in rows] == ["0.5", "0.75"]


def test_manifest_roundtrip_name_with_comma(tmp_path):
    row = corpus.ManifestRow(
        utterance="b,comma", rir_id=3, rt60=0.5, distance=1.25, split="train",
        gain=1.0, clean_path=str(tmp_path / "clean" / "b,comma.wav"),
        reverb_path="reverb/b,comma.wav", rir_path="rirs/rir00003.ncir",
    )
    path = tmp_path / "manifest.csv"
    corpus.write_manifest([row], path)
    assert corpus.read_manifest(path) == [row]


def test_spectrogram_roundtrip_keeps_signed_zeros(tmp_path):
    # each stored f32 (re, im) pair comes back as it was, -0.0 parts included
    values = np.array([[complex(-0.0, -0.0), complex(-0.0, 0.0)],
                       [complex(0.0, -0.0), complex(1.5, -0.0)],
                       [complex(-2.25, 0.0), complex(0.0, 0.0)]])
    path = tmp_path / "zeros.ncsp"
    ff.write_spectrogram(values, path)
    back = ff.read_spectrogram(path)
    assert back.dtype == np.complex128
    assert back.view(np.float64).tobytes() == values.view(np.float64).tobytes()
