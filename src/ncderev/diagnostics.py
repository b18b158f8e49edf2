"""Analysis artifacts: normalized autocorrelation of bin trajectories,
spectrogram exports, and MSE reports.

Reverberation shows up as heavier autocorrelation tails in the complex
trajectory of each frequency bin; the corpus-average curve and its tail
mass scalarize that comparison between clean, reverberated and
dereverberated material.
"""

from dataclasses import dataclass

import numpy as np

from .dsp import ComplexSpectrogram
from .mlp import mse_loss


@dataclass(frozen=True)
class AutocorrCurve:
    """Normalized autocorrelation values for lags 0..max_lag."""

    lags: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        lags = np.asarray(self.lags, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.float64)
        if lags.shape != values.shape or lags.ndim != 1:
            raise ValueError("lags and values must be equal-length 1-D arrays")
        object.__setattr__(self, "lags", lags)
        object.__setattr__(self, "values", values)

    @property
    def max_lag(self) -> int:
        return int(self.lags[-1])


def _autocorr_columns(values: np.ndarray, max_lag: int, magnitude: bool):
    """Normalized autocorrelation of every column of a 2-D array.

    Each column is mean-removed; the numerators for all columns come from
    one zero-padded FFT (Wiener-Khinchin), the denominators from prefix
    sums of the energy. Columns that are constant, have (numerically) zero
    energy, or are not longer than max_lag are unusable.

    Returns:
        (curves, usable): curves is (max_lag + 1, n_usable), usable is a
        boolean mask over the columns.
    """
    s = np.abs(values) if magnitude else values
    if not np.iscomplexobj(s):
        s = s.astype(np.float64)
    n = s.shape[0]
    usable = np.zeros(s.shape[1], dtype=bool)
    if n > max_lag:
        # compared exactly: a constant column's mean need not round to its value
        usable = np.any(s != s[0], axis=0)
        s = s - s.mean(axis=0)
        energy = s.real ** 2 + s.imag ** 2
        usable &= ~(energy.sum(axis=0) < 1e-300)  # a NaN column stays and shows
    if not usable.any():
        return np.zeros((max_lag + 1, 0)), usable
    s, energy = s[:, usable], energy[:, usable]
    # Re sum_n conj(s(n)) s(n+tau) is the sum of the real and imaginary
    # parts' autocorrelations; padding to n + max_lag avoids wrap-around
    nfft = 1 << (n + max_lag - 1).bit_length()
    power = np.abs(np.fft.rfft(s.real, nfft, axis=0)) ** 2
    if np.iscomplexobj(s):
        power += np.abs(np.fft.rfft(s.imag, nfft, axis=0)) ** 2
    num = np.fft.irfft(power, nfft, axis=0)[:max_lag + 1]
    head = np.cumsum(energy, axis=0)           # head[i] = sum of energy[:i+1]
    tail = np.cumsum(energy[::-1], axis=0)[::-1]
    lags = np.arange(max_lag + 1)
    denom = np.sqrt(head[n - lags - 1] * tail[lags])
    positive = denom > 0
    curves = np.where(positive, num / np.where(positive, denom, 1.0), 0.0)
    return curves, usable


def normalized_autocorr(series, max_lag: int, magnitude: bool = False) -> AutocorrCurve:
    """Normalized autocorrelation of one (complex or real) sequence.

    The series is mean-removed, then r(tau) = sum_n conj(s(n)) s(n+tau)
    over the lag overlap, normalized per lag by the geometric mean of the
    two windowed energies (Cauchy-Schwarz bound keeps |r| <= 1, and an
    exactly periodic series scores exactly 1 at its period); the real
    part is reported for complex input. With ``magnitude=True`` the
    correlation is computed on |s|.

    Raises ValueError for constant (zero-variance) series or when the
    series is not longer than max_lag.
    """
    s = np.asarray(series)
    if s.ndim != 1:
        raise ValueError("series must be 1-D")
    if s.size <= max_lag:
        raise ValueError(f"series length {s.size} must exceed max_lag {max_lag}")
    curves, usable = _autocorr_columns(s[:, None], max_lag, magnitude)
    if not usable[0]:
        raise ValueError("constant series has no autocorrelation")
    return AutocorrCurve(np.arange(max_lag + 1), curves[:, 0])


class AutocorrSums:
    """Running sums of ``average_autocorr`` over spectrograms added one at
    a time, so a corpus never has to be held in memory at once.

    ``sums`` holds the per-lag sum of the usable trajectories' curves;
    ``used`` and ``skipped`` count usable and degenerate trajectories.
    """

    def __init__(self, max_lag: int, magnitude: bool = False):
        self.max_lag = max_lag
        self.magnitude = magnitude
        self.sums = np.zeros(max_lag + 1)
        self.used = 0
        self.skipped = 0

    def add(self, spec) -> None:
        """Fold in every bin trajectory of one ComplexSpectrogram (or bare
        complex frames-by-bins array)."""
        values = spec.values if isinstance(spec, ComplexSpectrogram) else np.asarray(spec)
        curves, usable = _autocorr_columns(values, self.max_lag, self.magnitude)
        self.sums += curves.sum(axis=1)
        self.used += int(usable.sum())
        self.skipped += int(np.count_nonzero(~usable))

    def curve(self) -> AutocorrCurve:
        """The mean curve; ValueError when no trajectory was usable."""
        if self.used == 0:
            raise ValueError("no usable bin trajectories in the corpus")
        return AutocorrCurve(np.arange(self.max_lag + 1), self.sums / self.used)


def average_autocorr(spectrograms, max_lag: int, magnitude: bool = False):
    """Mean normalized autocorrelation over all bins of all utterances.

    Degenerate trajectories (constant, or shorter than max_lag + 1) are
    skipped and counted.

    Args:
        spectrograms: iterable of ComplexSpectrogram (or bare complex
            frames-by-bins arrays).

    Returns:
        (curve, skipped): the averaged AutocorrCurve and the number of
        skipped trajectories.

    Raises ValueError when every trajectory is degenerate or the corpus
    is empty.
    """
    sums = AutocorrSums(max_lag, magnitude)
    for spec in spectrograms:
        sums.add(spec)
    return sums.curve(), sums.skipped


def tail_mass(curve: AutocorrCurve, from_lag: int) -> float:
    """Mean absolute autocorrelation over lags from_lag..max_lag."""
    if from_lag > curve.max_lag:
        raise ValueError(f"from_lag {from_lag} exceeds max_lag {curve.max_lag}")
    return float(np.mean(np.abs(curve.values[from_lag:])))


def export_spectrogram(data, path, fmt: str = "csv") -> None:
    """Write a spectrogram or feature matrix for inspection.

    Complex input is converted to dB magnitudes; real matrices (log
    energies) are written as-is. "csv" writes frames x bins values;
    "pgm" writes a min-max scaled 8-bit binary portable graymap with
    frames on the horizontal axis.
    """
    if isinstance(data, ComplexSpectrogram):
        data = data.values
    data = np.asarray(data)
    if np.iscomplexobj(data):
        mag = np.abs(data)
        tiny = np.finfo(np.float64).tiny
        data = 20.0 * np.log10(np.maximum(mag, tiny))
    data = data.astype(np.float64)
    if fmt == "csv":
        with open(path, "w", encoding="ascii", newline="") as fh:
            for row in data.tolist():
                fh.write(",".join(map(repr, row)))
                fh.write("\n")
    elif fmt == "pgm":
        lo = float(data.min())
        hi = float(data.max())
        scale = 255.0 / (hi - lo) if hi > lo else 0.0
        img = np.round((data - lo) * scale).astype(np.uint8)
        img = img.T[::-1]  # frequency upward, time rightward
        with open(path, "wb") as fh:
            fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
            fh.write(img.tobytes())
    else:
        raise ValueError(f"unknown format {fmt!r}; use 'csv' or 'pgm'")


def mse_row(utt_id, est, ref):
    """(utterance_id, n_frames, mse) of one aligned feature pair."""
    est = np.asarray(est, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if est.shape != ref.shape:
        raise ValueError(
            f"{utt_id}: misaligned pair {est.shape} vs {ref.shape}"
        )
    return utt_id, est.shape[0], mse_loss(est, ref)


def corpus_mse(mses) -> float:
    """Corpus mean of per-utterance MSEs; ValueError when there are none."""
    if not mses:
        raise ValueError("no pairs supplied")
    return float(np.mean(mses))


def mse_report(pairs):
    """Per-utterance and corpus-mean MSE between aligned feature pairs.

    Args:
        pairs: iterable of (utterance_id, estimate, reference) with
            equal-shaped 2-D arrays.

    Returns:
        (rows, corpus_mean): rows are (utterance_id, n_frames, mse).
    """
    rows = [mse_row(*pair) for pair in pairs]
    return rows, corpus_mse([row[2] for row in rows])
