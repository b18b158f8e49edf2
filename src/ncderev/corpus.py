"""Reverberant corpus synthesis: RIR assignment, convolution, manifest.

Each utterance is convolved with its own impulse response (assignment
without replacement), gets a deterministic hash-based train/dev/test
split, and is recorded in a manifest CSV. ``build_corpus`` also returns
the sha256 of each clean WAV's bytes as they were convolved. All
randomness derives from (seed, index) pairs so any parallel schedule
produces identical output.
"""

import csv
import hashlib
import io
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from . import dsp, rir
from .fileformats import write_csv, write_rir

PEAK_LIMIT = 0.99


@dataclass(frozen=True)
class ManifestRow:
    """One manifest line; the fields, in order, are the CSV columns."""

    utterance: str
    rir_id: int
    rt60: float
    distance: float
    split: str
    gain: float
    clean_path: str
    reverb_path: str
    rir_path: str


MANIFEST_COLUMNS = [f.name for f in fields(ManifestRow)]


def split_of(utterance: str) -> str:
    """Deterministic 80/10/10 split from a hash of the utterance id."""
    digest = hashlib.md5(utterance.encode("utf-8")).hexdigest()
    bucket = int(digest[:8], 16) % 10
    if bucket < 8:
        return "train"
    return "dev" if bucket == 8 else "test"


def scan_clean_dir(clean_dir) -> list:
    """Sorted (utterance_id, path) pairs for every WAV in a directory."""
    clean_dir = Path(clean_dir)
    if not clean_dir.is_dir():
        raise FileNotFoundError(f"clean WAV directory not found: {clean_dir}")
    pairs = sorted((p.stem, p) for p in clean_dir.glob("*.wav"))
    if not pairs:
        raise FileNotFoundError(f"no WAV files in {clean_dir}")
    return pairs


def _synthesize_one(task):
    (utt, clean_path, spec, rir_id, out_dir) = task
    out_dir = Path(out_dir)
    # first, so a bad file fails before its room renders
    data = Path(clean_path).read_bytes()
    clean = dsp.read_wav(clean_path, data)
    impulse = rir.image_method_rir(spec)
    reverb = dsp.convolve(clean, impulse.taps)
    peak = float(np.max(np.abs(reverb))) if len(reverb) else 0.0
    gain = PEAK_LIMIT / peak if peak > PEAK_LIMIT else 1.0
    if gain != 1.0:
        reverb = reverb * gain
    reverb_path = out_dir / "reverb" / f"{utt}.wav"
    rir_path = out_dir / "rirs" / f"rir{rir_id:05d}.ncir"
    for path in (reverb_path, rir_path):
        path.parent.mkdir(parents=True, exist_ok=True)
    dsp.write_wav(reverb, reverb_path)
    write_rir(impulse, rir_path)
    return ManifestRow(
        utterance=utt,
        rir_id=rir_id,
        rt60=spec.rt60,
        distance=spec.distance,
        split=split_of(utt),
        gain=gain,
        clean_path=str(clean_path),
        reverb_path=str(reverb_path.relative_to(out_dir)),
        rir_path=str(rir_path.relative_to(out_dir)),
    ), hashlib.sha256(data).hexdigest()


def build_corpus(clean_pairs, out_dir, seed: int, nominal_dims=rir.NOMINAL_DIMS,
                 rt60_range=rir.RT60_RANGE, jobs: int = 1) -> list:
    """Convolve each clean utterance with its own sampled impulse response.

    One RIR is sampled per utterance, and a seeded permutation assigns
    them, so no two utterances share a response.

    Args:
        clean_pairs: (utterance_id, wav_path) pairs, e.g. from scan_clean_dir.

    Returns:
        (manifest row, sha256 of the clean WAV bytes it convolved) pairs,
        sorted by utterance id.
    """
    clean_pairs = sorted(clean_pairs)
    n_utts = len(clean_pairs)
    specs = rir.make_rir_set(seed, n_utts, nominal_dims, rt60_range=rt60_range)
    order = np.random.default_rng((seed, n_utts)).permutation(n_utts)
    tasks = [
        (utt, str(path), specs[order[i]], int(order[i]), str(out_dir))
        for i, (utt, path) in enumerate(clean_pairs)
    ]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only paid for when used

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            made = list(pool.map(_synthesize_one, tasks))
    else:
        made = [_synthesize_one(task) for task in tasks]
    return sorted(made, key=lambda pair: pair[0].utterance)


def write_manifest(rows, path) -> None:
    write_csv(path, MANIFEST_COLUMNS, map(astuple, rows))


def read_manifest(path, data=None) -> list:
    """Rows of a manifest; ``data``, when given, holds the file's bytes as
    already read. ValueError naming the file for a header other than
    MANIFEST_COLUMNS, a row of another length or a field that does not
    convert to its ManifestRow type."""
    types = [f.type for f in fields(ManifestRow)]
    data = Path(path).read_bytes() if data is None else data
    reader = csv.reader(io.StringIO(data.decode("ascii"), newline=""))
    header = next(reader, None)
    if header != MANIFEST_COLUMNS:
        raise ValueError(f"{path}: header {header} is not {MANIFEST_COLUMNS}")
    rows = []
    for record in reader:
        try:
            if len(record) != len(types):
                raise ValueError(f"{len(record)} fields, expected {len(types)}")
            rows.append(ManifestRow(*(kind(v) for kind, v in zip(types, record))))
        except ValueError as exc:
            raise ValueError(f"{path} line {reader.line_num}: {exc}") from exc
    return rows
