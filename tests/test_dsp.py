import numpy as np
import pytest

from ncderev.dsp import (ComplexSpectrogram, StftConfig, Waveform, convolve,
                         istft, read_wav, stft, write_wav)


def direct_convolve(x, h):
    """O(N*M) convolution oracle."""
    out = np.zeros(len(x) + len(h) - 1)
    for i, xi in enumerate(x):
        for j, hj in enumerate(h):
            out[i + j] += xi * hj
    return out


def loop_istft(spec):
    """Per-frame overlap-add oracle: frame n is added at n*shift in turn,
    then divided by the summed squared window where that sum is nonzero."""
    config = spec.config
    window = config.analysis_window()
    frames = np.fft.irfft(spec.values, n=config.fft_size, axis=1)[:, :config.frame_len]
    frames = frames * window
    out_len = (spec.frames - 1) * config.frame_shift + config.frame_len
    x = np.zeros(out_len)
    wsum = np.zeros(out_len)
    for n in range(spec.frames):
        start = n * config.frame_shift
        x[start:start + config.frame_len] += frames[n]
        wsum[start:start + config.frame_len] += window * window
    nz = wsum > 1e-12
    x[nz] /= wsum[nz]
    x[~nz] = 0.0
    return x


class TestWavIO:
    def test_silence_roundtrip(self, tmp_path):
        path = tmp_path / "silence.wav"
        write_wav(Waveform(np.zeros(16000), 16000), path)
        w = read_wav(path)
        assert w.sample_rate == 16000
        assert len(w) == 16000
        assert np.all(w.samples == 0.0)

    def test_full_scale_square_wave_scaling(self, tmp_path):
        # writing +-1.0 clips to the 16-bit rails: +32767/32768 and -1.0
        sq = np.tile([1.0, -1.0], 100)
        path = tmp_path / "square.wav"
        write_wav(Waveform(sq, 16000), path)
        w = read_wav(path)
        assert np.all(w.samples[::2] == 32767.0 / 32768.0)
        assert np.all(w.samples[1::2] == -1.0)

    def test_8bit_wav_rejected(self, tmp_path):
        import wave

        path = tmp_path / "eight.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(1)
            fh.setframerate(16000)
            fh.writeframes(bytes(100))
        with pytest.raises(ValueError, match="unsupported encoding"):
            read_wav(path)

    def test_stereo_rejected_naming_channel_count(self, tmp_path):
        import wave

        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(bytes(400))
        with pytest.raises(ValueError, match="2 channels"):
            read_wav(path)

    def test_random_roundtrip_within_one_lsb(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1.0, 32767.0 / 32768.0, size=5000)
        path = tmp_path / "rand.wav"
        write_wav(Waveform(x, 16000), path)
        w = read_wav(path)
        assert np.max(np.abs(w.samples - x)) <= 1.0 / 32768.0

    def test_nan_rejected(self, tmp_path):
        x = np.zeros(10)
        x[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            write_wav(Waveform(x, 16000), tmp_path / "nan.wav")

    def test_empty_waveform_roundtrips(self, tmp_path):
        path = tmp_path / "empty.wav"
        write_wav(Waveform(np.zeros(0), 16000), path)
        w = read_wav(path)
        assert len(w) == 0

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_wav(tmp_path / "nope.wav")


class TestStft:
    def test_framing_arithmetic(self):
        w = Waveform(np.zeros(16000), 16000)
        spec = stft(w, StftConfig(400, 160, 512))
        assert spec.frames == 98
        assert spec.bins == 257

    def test_bin_centered_cosine_energy_concentration(self):
        config = StftConfig(400, 160, 512)
        fs = 16000
        k = 64  # bin-centered: 64 * fs / 512 = 2000 Hz
        t = np.arange(16000) / fs
        w = Waveform(0.5 * np.cos(2 * np.pi * (k * fs / 512) * t), fs)
        spec = stft(w, config)
        power = np.abs(spec.values) ** 2
        neighborhood = power[:, k - 1:k + 2].sum(axis=1)
        assert np.all(neighborhood >= 0.9 * power.sum(axis=1))

    def test_zero_input_zero_spectrogram(self):
        spec = stft(Waveform(np.zeros(1000), 16000), StftConfig(400, 160, 512))
        assert np.all(spec.values == 0)

    def test_too_short_waveform(self):
        with pytest.raises(ValueError, match="shorter than one"):
            stft(Waveform(np.zeros(399), 16000), StftConfig(400, 160, 512))

    @pytest.mark.parametrize("n", [400, 401, 16, 7])
    def test_analysis_window_is_periodic_hann(self, n):
        config = StftConfig(n, min(n, 160), 512)
        w = config.analysis_window()
        want = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n) / n)
        assert w.shape == (n,)
        assert np.max(np.abs(w - want)) <= 1e-15
        assert w[0] == 0.0
        if n % 2 == 0:
            assert w[n // 2] == 1.0

    def test_linearity(self):
        rng = np.random.default_rng(1)
        config = StftConfig(400, 160, 512)
        x = rng.normal(size=4000)
        y = rng.normal(size=4000)
        a, b = 0.7, -0.3
        sx = stft(Waveform(x, 16000), config).values
        sy = stft(Waveform(y, 16000), config).values
        sxy = stft(Waveform(a * x + b * y, 16000), config).values
        assert np.linalg.norm(sxy - (a * sx + b * sy)) <= 1e-9 * np.linalg.norm(sxy)

    def test_per_frame_parseval(self):
        rng = np.random.default_rng(2)
        config = StftConfig(400, 160, 512)
        w = Waveform(rng.normal(size=3000), 16000)
        spec = stft(w, config)
        window = config.analysis_window()
        for n in range(spec.frames):
            frame = w.samples[n * 160:n * 160 + 400] * window
            time_energy = np.sum(frame ** 2)
            half = np.abs(spec.values[n]) ** 2
            spectrum_energy = half[0] + 2 * half[1:-1].sum() + half[-1]
            assert abs(time_energy - spectrum_energy / 512) <= 1e-9 * time_energy

    @pytest.mark.parametrize("n", [400, 401, 559, 16000, 88123])
    def test_matches_index_matrix_framing(self, n):
        # row n of the index matrix is n*shift + arange(frame_len)
        config = StftConfig(400, 160, 512)
        x = np.random.default_rng(n).normal(size=n)
        idx = (np.arange(config.n_frames(n))[:, None] * config.frame_shift
               + np.arange(config.frame_len))
        want = np.fft.rfft(x[idx] * config.analysis_window(), n=config.fft_size, axis=1)
        assert np.array_equal(stft(Waveform(x, 16000), config).values, want)

    def test_frame_coverage_offsets(self):
        # frame n covers samples [n*shift, n*shift + frame_len)
        config = StftConfig(400, 160, 512)
        x = np.zeros(1200)
        x[810] = 1.0  # frames with n*160 <= 810 < n*160+400 (and nonzero window)
        spec = stft(Waveform(x, 16000), config)
        active = np.flatnonzero(np.abs(spec.values).sum(axis=1) > 0)
        assert active.tolist() == [3, 4, 5]


class TestIstft:
    def test_interior_reconstruction(self):
        rng = np.random.default_rng(3)
        config = StftConfig(400, 160, 512)
        w = Waveform(rng.normal(size=8000) * 0.2, 16000)
        back = istft(stft(w, config))
        a = w.samples[400:-400]
        b = back.samples[400:len(w) - 400]
        assert np.linalg.norm(a - b) <= 1e-6 * np.linalg.norm(a)

    def test_zero_spectrogram(self):
        config = StftConfig(400, 160, 512)
        spec = ComplexSpectrogram(np.zeros((10, 257), dtype=complex), config, 16000)
        assert np.all(istft(spec).samples == 0)

    def test_single_frame_recovers_windowed_frame(self):
        rng = np.random.default_rng(4)
        config = StftConfig(400, 160, 512)
        w = Waveform(rng.normal(size=400) * 0.1, 16000)
        back = istft(stft(w, config))
        window = config.analysis_window()
        # synthesis divides by window^2, so samples with nonzero window recover
        nz = window > 1e-6
        assert np.allclose(back.samples[nz], w.samples[nz], atol=1e-9)

    @pytest.mark.parametrize("config, n_frames", [
        (StftConfig(400, 160, 512), 1),
        (StftConfig(400, 160, 512), 2),
        (StftConfig(400, 160, 512), 37),
        (StftConfig(400, 400, 512), 5),
        (StftConfig(256, 100, 256), 64),
    ])
    def test_matches_per_frame_overlap_add(self, config, n_frames):
        # same additions in the same order: bit-identical, not just close
        rng = np.random.default_rng(n_frames)
        values = (rng.normal(size=(n_frames, config.n_bins))
                  + 1j * rng.normal(size=(n_frames, config.n_bins)))
        spec = ComplexSpectrogram(values, config, 16000)
        assert np.array_equal(istft(spec).samples, loop_istft(spec))

    def test_inconsistent_bins_rejected(self):
        config = StftConfig(400, 160, 512)
        with pytest.raises(ValueError, match="bins"):
            ComplexSpectrogram(np.zeros((5, 100), dtype=complex), config, 16000)


class TestConvolve:
    def test_unit_impulse_identity(self, speech):
        out = convolve(speech, np.array([1.0]))
        assert np.allclose(out.samples, speech.samples, atol=1e-12)

    def test_shift_kernel(self):
        x = Waveform(np.arange(1, 6, dtype=float) / 10, 16000)
        out = convolve(x, np.array([0.0, 1.0]))
        assert np.allclose(out.samples, np.concatenate([[0.0], x.samples]))

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=50)
        h = rng.normal(size=8)
        got = convolve(Waveform(x, 16000), h).samples
        want = direct_convolve(x, h)
        assert len(got) == 50 + 8 - 1
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_exhaustive_small_lengths(self):
        rng = np.random.default_rng(6)
        for n in range(1, 65):
            m = int(rng.integers(1, 17))
            x = rng.normal(size=n)
            h = rng.normal(size=m)
            got = convolve(Waveform(x, 16000), h).samples
            want = direct_convolve(x, h)
            assert np.linalg.norm(got - want) <= 1e-10 * max(np.linalg.norm(want), 1e-30)

    def test_taps_longer_than_waveform(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=9)
        h = rng.normal(size=70)
        got = convolve(Waveform(x, 16000), h).samples
        want = direct_convolve(x, h)
        assert len(got) == 9 + 70 - 1
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_empty_input_gives_empty_waveform(self):
        empty_x = convolve(Waveform(np.zeros(0), 16000), np.array([1.0, 0.5]))
        empty_h = convolve(Waveform(np.ones(10), 16000), np.zeros(0))
        for out in (empty_x, empty_h):
            assert isinstance(out, Waveform)
            assert len(out) == 0
            assert out.sample_rate == 16000

    def test_sample_rate_mismatch(self):
        from ncderev.rir import Rir, RoomSpec

        spec = RoomSpec((5, 4, 3.5), (1.5, 1.5, 1.5), (2.5, 2.0, 1.5), 0.5, 8000)
        impulse = Rir(np.array([1.0, 0.5]), 8000, spec)
        with pytest.raises(ValueError, match="mismatch"):
            convolve(Waveform(np.zeros(100), 16000), impulse)
