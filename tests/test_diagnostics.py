import tracemalloc

import numpy as np
import pytest

from ncderev import diagnostics


def loop_autocorr(series, max_lag):
    """Per-lag oracle on the magnitudes: direct lag sums over prefix-sum
    energy denominators."""
    s = np.abs(np.asarray(series)).astype(np.float64)
    if s.size <= max_lag:
        raise ValueError(f"series length {s.size} must exceed max_lag {max_lag}")
    # compared exactly: the mean of a constant series need not round to it
    if np.all(s == s[0]):
        raise ValueError("constant series has no autocorrelation")
    s = s - s.mean()
    energy = s ** 2
    if float(energy.sum()) < 1e-300:
        raise ValueError("silent series has no autocorrelation")
    head = np.cumsum(energy)
    tail = np.cumsum(energy[::-1])[::-1]
    values = np.empty(max_lag + 1)
    for tau in range(max_lag + 1):
        num = float((s[:s.size - tau] * s[tau:]).sum())
        denom = np.sqrt(head[s.size - tau - 1] * tail[tau])
        values[tau] = num / denom if denom > 0 else 0.0
    return values


def oneshot_autocorr_columns(values, max_lag):
    """Every column's magnitude curve from one FFT along the frame axis of
    the whole array: (curves of the usable columns, usable mask)."""
    s = np.abs(values).astype(np.float64)
    n = s.shape[0]
    usable = np.zeros(s.shape[1], dtype=bool)
    if n > max_lag:
        usable = np.any(s != s[0], axis=0)
        s = s - s.mean(axis=0)
        energy = s ** 2
        usable &= ~(energy.sum(axis=0) < 1e-300)
    if not usable.any():
        return np.zeros((max_lag + 1, 0)), usable
    s, energy = s[:, usable], energy[:, usable]
    nfft = 1 << (n + max_lag - 1).bit_length()
    power = np.abs(np.fft.rfft(s, nfft, axis=0)) ** 2
    num = np.fft.irfft(power, nfft, axis=0)[:max_lag + 1]
    head = np.cumsum(energy, axis=0)
    tail = np.cumsum(energy[::-1], axis=0)[::-1]
    lags = np.arange(max_lag + 1)
    denom = np.sqrt(head[n - lags - 1] * tail[lags])
    positive = denom > 0
    return np.where(positive, num / np.where(positive, denom, 1.0), 0.0), usable


def loop_average(spectrograms, max_lag):
    """Per-bin oracle for AutocorrSums: (mean curve, skipped count)."""
    curves, skipped = [], 0
    for values in spectrograms:
        for k in range(values.shape[1]):
            try:
                curves.append(loop_autocorr(values[:, k], max_lag))
            except ValueError:
                skipped += 1
    return np.mean(curves, axis=0), skipped


def folded(spectrograms, max_lag):
    """The spectrograms folded into one AutocorrSums, in order."""
    sums = diagnostics.AutocorrSums(max_lag)
    for spec in spectrograms:
        sums.add(spec)
    return sums


def series_curve(series, max_lag):
    """One sequence's curve: the mean over a (frames, 1) spectrogram."""
    return folded([np.asarray(series)[:, None]], max_lag).curve()


class TestNormalizedAutocorr:
    def test_lag_zero_is_one(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=500) + 1j * rng.normal(size=500)
        curve = series_curve(s, 20)
        assert curve[0] == pytest.approx(1.0)
        assert np.all(np.abs(curve) <= 1.0 + 1e-9)

    def test_white_noise_small_tails(self):
        rng = np.random.default_rng(1)
        s = rng.normal(size=10_000)
        curve = series_curve(s, 50)
        assert np.max(np.abs(curve[1:])) <= 0.05

    def test_periodic_square_wave(self):
        # magnitudes 1 and 3: mean-removed, the same +-1 wave
        period = 8
        s = np.tile(np.concatenate([np.ones(period // 2), 3.0 * np.ones(period // 2)]),
                    200).astype(float)
        curve = series_curve(s, 3 * period)
        assert curve[period] == pytest.approx(1.0, abs=1e-9)
        assert curve[2 * period] == pytest.approx(1.0, abs=1e-9)

    def test_ar1_matches_analytic_autocorrelation(self):
        # AR(1) with coefficient a has r(tau) = a^tau; offset to stay
        # positive, its magnitudes are the series, and the mean is removed
        rng = np.random.default_rng(2)
        n = 100_000
        a = 0.9
        e = rng.normal(size=n)
        s = np.empty(n)
        s[0] = e[0]
        for i in range(1, n):
            s[i] = a * s[i - 1] + e[i]
        assert s.min() > -100.0
        curve = series_curve(s + 100.0, 30)
        want = a ** np.arange(31)
        assert np.max(np.abs(curve - want)) <= 0.05

    def test_constant_series_rejected(self):
        sums = folded([np.ones((100, 1))], 10)
        assert (sums.used, sums.skipped) == (0, 1)
        with pytest.raises(ValueError, match="no usable"):
            sums.curve()

    @pytest.mark.parametrize("value", [np.sqrt(5.0), 0.1 + 0.7j, -3.3])
    def test_constant_series_with_inexact_mean_rejected(self, value):
        s = np.full(150, value)
        with pytest.raises(ValueError, match="no usable"):
            series_curve(s, 10)

    def test_too_short_series_rejected(self):
        sums = folded([np.arange(10.0)[:, None]], 10)
        assert (sums.used, sums.skipped) == (0, 1)
        with pytest.raises(ValueError, match="no usable"):
            sums.curve()

    def test_negative_max_lag_rejected(self):
        with pytest.raises(ValueError, match="max_lag must be >= 0"):
            series_curve(np.arange(10.0), -1)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        s = rng.normal(size=400) + 1j * rng.normal(size=400)
        a = series_curve(s, 25)
        b = series_curve((3.7 - 0.2j) * s, 25)
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_magnitude_domain_flag(self):
        # complex input is correlated through its magnitudes
        rng = np.random.default_rng(4)
        s = rng.normal(size=400) + 1j * rng.normal(size=400)
        a = series_curve(s, 10)
        b = series_curve(np.abs(s), 10)
        assert np.allclose(a, b)


class TestAgainstLoopOracle:
    # the input kinds: complex values, signed reals and their magnitudes
    @pytest.mark.parametrize("kind", ["complex", "real", "magnitude"])
    @pytest.mark.parametrize("n, max_lag", [(500, 40), (101, 100), (64, 0)])
    def test_single_series(self, kind, n, max_lag):
        rng = np.random.default_rng(n + max_lag)
        s = rng.normal(size=n) + 1.5
        if kind != "real":
            s = s + 1j * rng.normal(size=n)
        if kind == "magnitude":
            s = np.abs(s)
        got = series_curve(s, max_lag)
        want = loop_autocorr(s, max_lag)
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("real", [False, True])
    def test_spectrogram_with_constant_bins(self, real):
        # complex spectrograms, or their signed real parts
        rng = np.random.default_rng(11)
        a = rng.normal(size=(150, 9)) + 1j * rng.normal(size=(150, 9))
        a[:, 0] = 2.0 - 1.0j        # constant
        a[:, 8] = 0.0               # silent
        b = rng.normal(size=(90, 9)) + 1j * rng.normal(size=(90, 9))
        b[:, 3] = 0.5
        short = rng.normal(size=(30, 9)) + 0j   # too short for max_lag 30
        spectrograms = [v.real.copy() if real else v for v in (a, b, short)]
        sums = folded(spectrograms, 30)
        curve, skipped = sums.curve(), sums.skipped
        want, want_skipped = loop_average(spectrograms, 30)
        assert skipped == want_skipped == 2 + 1 + 9
        assert np.max(np.abs(curve - want)) <= 1e-12


    @pytest.mark.parametrize("kind", ["complex", "real", "magnitude"])
    @pytest.mark.parametrize("n, max_lag", [(300, 20), (101, 100), (100, 100), (1000, 100)])
    def test_257_bins_match_the_one_shot_fft_bit_for_bit(self, kind, n, max_lag):
        # constant, silent and tiny columns at the edges of the blocks of
        # diagnostics.BLOCK = 32 columns; at n <= max_lag every column is
        # too short
        rng = np.random.default_rng(n)
        spec = rng.normal(size=(n, 257)) + 1j * rng.normal(size=(n, 257))
        if kind == "real":
            spec = spec.real.copy()
        spec[:, 0] = spec[0, 0]
        spec[:, [31, 64, 256]] = 0.0
        spec[:, 32] = 0.5
        spec[:, 63] = 3e-200 * rng.normal(size=n)
        if kind == "magnitude":
            spec = np.abs(spec)
        got, usable = diagnostics._autocorr_columns(spec, max_lag)
        want, want_usable = oneshot_autocorr_columns(spec, max_lag)
        assert np.array_equal(usable, want_usable)
        assert usable.sum() == (251 if n > max_lag else 0)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        sums = diagnostics.AutocorrSums(max_lag)
        sums.add(spec)
        assert sums.sums.tobytes() == want.sum(axis=1).tobytes()


class TestAverageAutocorr:
    def test_single_trajectory_corpus(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(120, 9)) + 1j * rng.normal(size=(120, 9))
        one_bin = values[:, 4:5]
        sums = folded([one_bin], 20)
        want = loop_autocorr(values[:, 4], 20)
        assert sums.skipped == 0
        assert np.allclose(sums.curve(), want)

    def test_mean_over_bins(self):
        rng = np.random.default_rng(6)
        values = rng.normal(size=(200, 5)) + 1j * rng.normal(size=(200, 5))
        sums = folded([values], 15)
        manual = np.mean([series_curve(values[:, k], 15) for k in range(5)], axis=0)
        assert sums.skipped == 0
        assert np.allclose(sums.curve(), manual)

    def test_degenerate_trajectories_skipped_with_count(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(100, 4)).astype(complex)
        values[:, 2] = 1.0  # constant: zero variance
        sums = folded([values], 10)
        curve = sums.curve()
        assert sums.skipped == 1
        assert curve[0] == pytest.approx(1.0)

    def test_all_degenerate_rejected(self):
        with pytest.raises(ValueError, match="no usable"):
            folded([np.ones((50, 3), complex)], 5).curve()

    def test_negative_max_lag_rejected(self):
        with pytest.raises(ValueError, match="max_lag must be >= 0"):
            diagnostics.AutocorrSums(-1)

    def test_add_holds_the_magnitudes_their_energy_and_one_block(self):
        # diagnose's fold of a 2000-frame spectrogram: the column statistics
        # need the magnitudes and their energy as two whole real arrays; the
        # FFTs and prefix sums hold about five (BLOCK, nfft) real arrays
        n, max_lag = 2000, 20
        rng = np.random.default_rng(9)
        spec = rng.normal(size=(n, 257)) + 1j * rng.normal(size=(n, 257))
        sums = diagnostics.AutocorrSums(max_lag)
        real = n * 257 * 8
        block = diagnostics.BLOCK * (1 << (n + max_lag - 1).bit_length()) * 8
        tracemalloc.start()
        try:
            sums.add(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sums.used == 257
        assert peak <= 2 * real + 6 * block


class TestTailMass:
    def test_zero_tail(self):
        assert diagnostics.tail_mass(np.array([1, 0, 0, 0, 0, 0.0]), 1) == 0.0

    def test_constant_tail(self):
        assert diagnostics.tail_mass(np.array([1, .5, .5, .5, .5]), 1) == pytest.approx(0.5)

    def test_from_lag_bound(self):
        with pytest.raises(ValueError, match="from_lag 5 is outside 0..max_lag 2"):
            diagnostics.tail_mass(np.ones(3), 5)

    def test_negative_from_lag_rejected(self):
        with pytest.raises(ValueError, match="from_lag -3 is outside 0..max_lag 5"):
            diagnostics.tail_mass(np.ones(6), -3)


class TestExportSpectrogram:
    def test_csv_verbatim(self, tmp_path):
        data = np.array([[1.5, -2.25], [0.0, 42.0]])
        path = tmp_path / "m.csv"
        diagnostics.export_spectrogram(data, path, "csv")
        assert path.read_text() == "1.5,-2.25\n0.0,42.0\n"

    def test_csv_matches_per_value_float_repr(self, tmp_path):
        # the special values plus random values of every magnitude: each
        # field is repr of the value as a Python float
        rng = np.random.default_rng(0)
        special = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, 0.1, -1e-5]
        data = np.concatenate(
            [special, rng.normal(size=40) * 10.0 ** rng.integers(-300, 300, 40)]
        ).reshape(6, 8)
        path = tmp_path / "m.csv"
        diagnostics.export_spectrogram(data, path, "csv")
        want = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in data)
        assert path.read_bytes() == want.encode("ascii")

    def test_constant_matrix_uniform_gray(self, tmp_path):
        data = np.full((4, 3), 7.0)
        path = tmp_path / "m.pgm"
        diagnostics.export_spectrogram(data, path, "pgm")
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n4 3\n255\n")
        pixels = raw.split(b"255\n", 1)[1]
        assert len(pixels) == 12
        assert len(set(pixels)) == 1

    def test_complex_input_converted_to_db(self, tmp_path):
        path = tmp_path / "s.csv"
        diagnostics.export_spectrogram(np.full((3, 9), 10.0 + 0.0j), path, "csv")
        first = float(path.read_text().splitlines()[0].split(",")[0])
        assert first == pytest.approx(20.0)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown format"):
            diagnostics.export_spectrogram(np.ones((2, 2)), tmp_path / "x", "png")

