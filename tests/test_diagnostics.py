import numpy as np
import pytest

from ncderev import diagnostics
from ncderev.dsp import ComplexSpectrogram, StftConfig


def loop_autocorr(series, max_lag, magnitude=False):
    """Per-lag oracle: direct lag sums over prefix-sum energy denominators."""
    s = np.asarray(series)
    if s.size <= max_lag:
        raise ValueError(f"series length {s.size} must exceed max_lag {max_lag}")
    if magnitude:
        s = np.abs(s)
    s = s.astype(np.complex128)
    s = s - s.mean()
    energy = s.real ** 2 + s.imag ** 2
    if float(energy.sum()) < 1e-300:
        raise ValueError("constant series has no autocorrelation")
    head = np.cumsum(energy)
    tail = np.cumsum(energy[::-1])[::-1]
    values = np.empty(max_lag + 1)
    for tau in range(max_lag + 1):
        num = float((np.conj(s[:s.size - tau]) * s[tau:]).real.sum())
        denom = np.sqrt(head[s.size - tau - 1] * tail[tau])
        values[tau] = num / denom if denom > 0 else 0.0
    return values


def loop_average(spectrograms, max_lag, magnitude=False):
    """Per-bin oracle for average_autocorr: (mean curve, skipped count)."""
    curves, skipped = [], 0
    for values in spectrograms:
        for k in range(values.shape[1]):
            try:
                curves.append(loop_autocorr(values[:, k], max_lag, magnitude))
            except ValueError:
                skipped += 1
    return np.mean(curves, axis=0), skipped


class TestNormalizedAutocorr:
    def test_lag_zero_is_one(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=500) + 1j * rng.normal(size=500)
        curve = diagnostics.normalized_autocorr(s, 20)
        assert curve.values[0] == pytest.approx(1.0)
        assert np.all(np.abs(curve.values) <= 1.0 + 1e-9)

    def test_white_noise_small_tails(self):
        rng = np.random.default_rng(1)
        s = rng.normal(size=10_000)
        curve = diagnostics.normalized_autocorr(s, 50)
        assert np.max(np.abs(curve.values[1:])) <= 0.05

    def test_periodic_square_wave(self):
        period = 8
        s = np.tile(np.concatenate([np.ones(period // 2), -np.ones(period // 2)]),
                    200).astype(float)
        curve = diagnostics.normalized_autocorr(s, 3 * period)
        assert curve.values[period] == pytest.approx(1.0, abs=1e-9)
        assert curve.values[2 * period] == pytest.approx(1.0, abs=1e-9)

    def test_ar1_matches_analytic_autocorrelation(self):
        # AR(1) with coefficient a has r(tau) = a^tau
        rng = np.random.default_rng(2)
        n = 100_000
        a = 0.9
        e = rng.normal(size=n)
        s = np.empty(n)
        s[0] = e[0]
        for i in range(1, n):
            s[i] = a * s[i - 1] + e[i]
        curve = diagnostics.normalized_autocorr(s, 30)
        want = a ** np.arange(31)
        assert np.max(np.abs(curve.values - want)) <= 0.05

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            diagnostics.normalized_autocorr(np.ones(100), 10)

    @pytest.mark.parametrize("value", [np.sqrt(5.0), 0.1 + 0.7j, -3.3])
    def test_constant_series_with_inexact_mean_rejected(self, value):
        s = np.full(150, value)
        with pytest.raises(ValueError, match="constant"):
            diagnostics.normalized_autocorr(s, 10)
        with pytest.raises(ValueError, match="constant"):
            diagnostics.normalized_autocorr(s, 10, magnitude=True)

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            diagnostics.normalized_autocorr(np.arange(10.0), 10)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        s = rng.normal(size=400) + 1j * rng.normal(size=400)
        a = diagnostics.normalized_autocorr(s, 25).values
        b = diagnostics.normalized_autocorr(
            (3.7 - 0.2j) * s, 25).values
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_magnitude_domain_flag(self):
        rng = np.random.default_rng(4)
        s = rng.normal(size=400) + 1j * rng.normal(size=400)
        a = diagnostics.normalized_autocorr(s, 10, magnitude=True).values
        b = diagnostics.normalized_autocorr(np.abs(s), 10).values
        assert np.allclose(a, b)


class TestAgainstLoopOracle:
    @pytest.mark.parametrize("kind", ["complex", "real", "magnitude"])
    @pytest.mark.parametrize("n, max_lag", [(500, 40), (101, 100), (64, 0)])
    def test_single_series(self, kind, n, max_lag):
        rng = np.random.default_rng(n + max_lag)
        s = rng.normal(size=n) + 1.5
        if kind != "real":
            s = s + 1j * rng.normal(size=n)
        magnitude = kind == "magnitude"
        got = diagnostics.normalized_autocorr(s, max_lag, magnitude=magnitude).values
        want = loop_autocorr(s, max_lag, magnitude)
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("magnitude", [False, True])
    def test_spectrogram_with_constant_bins(self, magnitude):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(150, 9)) + 1j * rng.normal(size=(150, 9))
        a[:, 0] = 2.0 - 1.0j        # constant
        a[:, 8] = 0.0               # silent
        b = rng.normal(size=(90, 9)) + 1j * rng.normal(size=(90, 9))
        b[:, 3] = 0.5
        short = rng.normal(size=(30, 9)) + 0j   # too short for max_lag 30
        specs = [a, ComplexSpectrogram(b, StftConfig(16, 8, 16), 16000), short]
        curve, skipped = diagnostics.average_autocorr(specs, 30, magnitude=magnitude)
        want, want_skipped = loop_average([a, b, short], 30, magnitude)
        assert skipped == want_skipped == 2 + 1 + 9
        assert np.max(np.abs(curve.values - want)) <= 1e-12


class TestAverageAutocorr:
    def test_single_trajectory_corpus(self):
        rng = np.random.default_rng(5)
        config = StftConfig(16, 8, 16)
        values = rng.normal(size=(120, 9)) + 1j * rng.normal(size=(120, 9))
        spec = ComplexSpectrogram(values, config, 16000)
        one_bin = values[:, 4:5]
        curve, skipped = diagnostics.average_autocorr([one_bin], 20)
        want = diagnostics.normalized_autocorr(values[:, 4], 20)
        assert skipped == 0
        assert np.allclose(curve.values, want.values)

    def test_mean_over_bins(self):
        rng = np.random.default_rng(6)
        values = rng.normal(size=(200, 5)) + 1j * rng.normal(size=(200, 5))
        curve, skipped = diagnostics.average_autocorr([values], 15)
        manual = np.mean(
            [diagnostics.normalized_autocorr(values[:, k], 15).values
             for k in range(5)], axis=0)
        assert skipped == 0
        assert np.allclose(curve.values, manual)

    def test_degenerate_trajectories_skipped_with_count(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(100, 4)).astype(complex)
        values[:, 2] = 1.0  # constant: zero variance
        curve, skipped = diagnostics.average_autocorr([values], 10)
        assert skipped == 1
        assert curve.values[0] == pytest.approx(1.0)

    def test_all_degenerate_rejected(self):
        with pytest.raises(ValueError, match="no usable"):
            diagnostics.average_autocorr([np.ones((50, 3), complex)], 5)


class TestTailMass:
    def test_zero_tail(self):
        curve = diagnostics.AutocorrCurve(np.arange(6), np.array([1, 0, 0, 0, 0, 0.0]))
        assert diagnostics.tail_mass(curve, 1) == 0.0

    def test_constant_tail(self):
        curve = diagnostics.AutocorrCurve(np.arange(5), np.array([1, .5, .5, .5, .5]))
        assert diagnostics.tail_mass(curve, 1) == pytest.approx(0.5)

    def test_from_lag_bound(self):
        curve = diagnostics.AutocorrCurve(np.arange(3), np.ones(3))
        with pytest.raises(ValueError):
            diagnostics.tail_mass(curve, 5)


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
        config = StftConfig(16, 8, 16)
        values = np.full((3, 9), 10.0 + 0.0j)
        spec = ComplexSpectrogram(values, config, 16000)
        path = tmp_path / "s.csv"
        diagnostics.export_spectrogram(spec, path, "csv")
        first = float(path.read_text().splitlines()[0].split(",")[0])
        assert first == pytest.approx(20.0)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown format"):
            diagnostics.export_spectrogram(np.ones((2, 2)), tmp_path / "x", "png")


class TestMseReport:
    def test_identical_pair_zero(self):
        rows, mean = diagnostics.mse_report([("u0", np.ones((5, 4)), np.ones((5, 4)))])
        assert rows == [("u0", 5, 0.0)]
        assert mean == 0.0

    def test_constant_offset(self):
        est = np.zeros((4, 10))
        ref = np.ones((4, 10))
        rows, mean = diagnostics.mse_report([("u0", est, ref)])
        assert rows[0][2] == pytest.approx(1.0)

    def test_corpus_mean_is_mean_of_rows(self):
        rng = np.random.default_rng(8)
        pairs = [(f"u{i}", rng.normal(size=(6, 3)), rng.normal(size=(6, 3)))
                 for i in range(5)]
        rows, mean = diagnostics.mse_report(pairs)
        assert mean == pytest.approx(np.mean([r[2] for r in rows]), abs=1e-12)

    def test_misaligned_pair_rejected(self):
        with pytest.raises(ValueError, match="misaligned"):
            diagnostics.mse_report([("u0", np.ones((5, 4)), np.ones((6, 4)))])
