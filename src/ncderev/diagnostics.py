"""Analysis artifacts: normalized autocorrelation of bin trajectories and
spectrogram exports.

Spectrograms are complex (frames, bins) arrays, column k holding bin k's
trajectory. An autocorrelation curve is a plain float64 array whose entry
tau is the value at lag tau, for lags 0..max_lag. Reverberation shows up
as heavier autocorrelation tails in the magnitude trajectory of each
frequency bin; the corpus-average curve, folded one spectrogram at a time
by ``AutocorrSums``, and its tail mass scalarize that comparison between
clean, reverberated and dereverberated material.

The autocorrelations run BLOCK trajectories at a time: each block's
trajectories are copied into contiguous rows, so that the FFTs and the
prefix sums read memory in order, and the block's buffers (a few
hundred kB for a few hundred frames) are reused. Transforming every
trajectory at once along the strided frame axis would allocate half a
dozen spectrogram-sized temporaries per call.
"""

import numpy as np

# bin trajectories _autocorr_columns transforms at once
BLOCK = 32


def _autocorr_columns(values: np.ndarray, max_lag: int):
    """Normalized autocorrelation of the magnitudes of every column of a
    2-D array.

    Each column's magnitudes are mean-removed; the numerators for all
    columns come from one zero-padded FFT (Wiener-Khinchin), the
    denominators from prefix sums of the energy. Columns whose magnitudes
    are constant, have (numerically) zero energy, or are not longer than
    max_lag are unusable.

    The column means, energies and energy totals are reduced over the
    whole array, whose bits a reduction over fewer columns need not give.
    The usable columns then go through the FFTs and prefix sums BLOCK at a
    time, each column by itself, into the one output array.

    Returns:
        (curves, usable): curves is (max_lag + 1, n_usable), usable is a
        boolean mask over the columns.
    """
    # the magnitudes are the function's own, and their mean is removed in place
    s = np.abs(values).astype(np.float64, copy=False)
    n = s.shape[0]
    usable = np.zeros(s.shape[1], dtype=bool)
    if n > max_lag:
        # compared exactly: a constant column's mean need not round to its value
        usable = np.any(s != s[0], axis=0)
        s -= s.mean(axis=0)
        energy = np.square(s)
        usable &= ~(energy.sum(axis=0) < 1e-300)  # a NaN column stays and shows
    columns = np.flatnonzero(usable)
    curves = np.empty((max_lag + 1, len(columns)))
    if not len(columns):
        return curves, usable
    # padding to n + max_lag avoids wrap-around
    nfft = 1 << (n + max_lag - 1).bit_length()
    width = min(BLOCK, len(columns))
    spectra = np.empty((width, nfft // 2 + 1), dtype=np.complex128)
    power = np.empty((width, nfft // 2 + 1))
    lagged = np.empty((width, nfft))
    sums = np.empty((width, n))
    ends = n - 1 - np.arange(max_lag + 1)  # head[n-1-tau] and tail[tau] sit here
    for first in range(0, len(columns), BLOCK):
        block = columns[first:first + BLOCK]
        m = len(block)
        # s.T[block] gathers the block's columns as contiguous rows
        np.fft.rfft(s.T[block], nfft, axis=1, out=spectra[:m])
        np.abs(spectra[:m], out=power[:m])
        np.square(power[:m], out=power[:m])
        # the real power as a complex input, which irfft would cast it to
        spectra[:m] = power[:m]
        num = np.fft.irfft(spectra[:m], nfft, axis=1, out=lagged[:m])[:, :max_lag + 1]
        head = np.cumsum(energy.T[block], axis=1, out=sums[:m])[:, ends]
        tail = np.cumsum(energy[::-1].T[block], axis=1, out=sums[:m])[:, ends]
        denom = np.sqrt(head * tail)
        positive = denom > 0
        curves[:, first:first + m] = np.where(
            positive, num / np.where(positive, denom, 1.0), 0.0).T
    return curves, usable


class AutocorrSums:
    """Mean normalized autocorrelation over all bins of all utterances,
    folded from spectrograms added one at a time, so a corpus never has
    to be held in memory at once.

    Each bin trajectory's magnitudes m = |s| are mean-removed, then
    r(tau) = sum_n m(n) m(n+tau) over the lag overlap, normalized per lag
    by the geometric mean of the two windowed energies (Cauchy-Schwarz
    keeps |r| <= 1, and an exactly periodic trajectory scores exactly 1 at
    its period). Magnitudes expose the smearing that per-bin phase drift
    hides in the complex values. One sequence's curve is that of a
    (frames, 1) spectrogram.

    ``sums`` holds the per-lag sum of the usable trajectories' curves;
    ``used`` and ``skipped`` count usable trajectories and degenerate ones
    (constant, or not longer than max_lag), which are left out.
    """

    def __init__(self, max_lag: int):
        if max_lag < 0:
            raise ValueError(f"max_lag must be >= 0, got {max_lag}")
        self.max_lag = max_lag
        self.sums = np.zeros(max_lag + 1)
        self.used = 0
        self.skipped = 0

    def add(self, spec) -> None:
        """Fold in every bin trajectory (column) of one spectrogram."""
        curves, usable = _autocorr_columns(np.asarray(spec), self.max_lag)
        self.sums += curves.sum(axis=1)
        self.used += int(usable.sum())
        self.skipped += int(np.count_nonzero(~usable))

    def curve(self) -> np.ndarray:
        """The mean curve; ValueError when no trajectory was usable."""
        if self.used == 0:
            raise ValueError("no usable bin trajectories in the corpus")
        return self.sums / self.used


def tail_mass(curve: np.ndarray, from_lag: int) -> float:
    """Mean absolute autocorrelation over lags from_lag..max_lag."""
    max_lag = len(curve) - 1
    if not 0 <= from_lag <= max_lag:
        raise ValueError(f"from_lag {from_lag} is outside 0..max_lag {max_lag}")
    return float(np.mean(np.abs(curve[from_lag:])))


def export_spectrogram(data, path, fmt: str = "csv") -> None:
    """Write a spectrogram or feature matrix for inspection.

    Complex input is converted to dB magnitudes; real matrices (log
    energies) are written as-is. "csv" writes frames x bins values;
    "pgm" writes a min-max scaled 8-bit binary portable graymap with
    frames on the horizontal axis.
    """
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

