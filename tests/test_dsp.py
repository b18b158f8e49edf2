import re
import tracemalloc
import wave
from pathlib import Path

import numpy as np
import pytest

from conftest import write_wav_at_rate
from ncderev.dsp import (FFT_SIZE, FRAME_LEN, FRAME_SHIFT, WINDOW, convolve, istft, read_wav,
                         stft, write_wav)


def direct_convolve(x, h):
    """O(N*M) convolution oracle."""
    out = np.zeros(len(x) + len(h) - 1)
    for i, xi in enumerate(x):
        for j, hj in enumerate(h):
            out[i + j] += xi * hj
    return out


def loop_istft(values):
    """Per-frame overlap-add oracle: frame n is added at n*shift in turn,
    then divided by the summed squared window where that sum is nonzero."""
    frames = np.fft.irfft(values, n=FFT_SIZE, axis=1)[:, :FRAME_LEN]
    frames = frames * WINDOW
    out_len = (len(values) - 1) * FRAME_SHIFT + FRAME_LEN
    x = np.zeros(out_len)
    wsum = np.zeros(out_len)
    for n in range(len(values)):
        start = n * FRAME_SHIFT
        x[start:start + FRAME_LEN] += frames[n]
        wsum[start:start + FRAME_LEN] += WINDOW * WINDOW
    nz = wsum > 1e-12
    x[nz] /= wsum[nz]
    x[~nz] = 0.0
    return x


class TestWavIO:
    def test_silence_roundtrip(self, tmp_path):
        path = tmp_path / "silence.wav"
        write_wav(np.zeros(16000), path)
        with wave.open(str(path), "rb") as fh:
            assert fh.getframerate() == 16000
        w = read_wav(path)
        assert w.shape == (16000,) and w.dtype == np.float64
        assert np.all(w == 0.0)

    def test_full_scale_square_wave_scaling(self, tmp_path):
        # writing +-1.0 clips to the 16-bit rails: +32767/32768 and -1.0
        sq = np.tile([1.0, -1.0], 100)
        path = tmp_path / "square.wav"
        write_wav(sq, path)
        w = read_wav(path)
        assert np.all(w[::2] == 32767.0 / 32768.0)
        assert np.all(w[1::2] == -1.0)

    def test_8bit_wav_rejected(self, tmp_path):
        path = tmp_path / "eight.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(1)
            fh.setframerate(16000)
            fh.writeframes(bytes(100))
        with pytest.raises(ValueError, match="unsupported encoding"):
            read_wav(path)

    def test_stereo_rejected_naming_channel_count(self, tmp_path):
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
        write_wav(x, path)
        assert np.max(np.abs(read_wav(path) - x)) <= 1.0 / 32768.0

    def test_nan_rejected(self, tmp_path):
        x = np.zeros(10)
        x[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            write_wav(x, tmp_path / "nan.wav")

    def test_two_dimensional_samples_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="1-D"):
            write_wav(np.zeros((10, 2)), tmp_path / "two.wav")

    def test_empty_waveform_roundtrips(self, tmp_path):
        path = tmp_path / "empty.wav"
        write_wav(np.zeros(0), path)
        assert read_wav(path).shape == (0,)

    def test_other_rate_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "narrow.wav"
        write_wav_at_rate(np.zeros(800), path, 8000)
        with pytest.raises(ValueError, match=re.escape(
                f"{path} is sampled at 8000 Hz; only 16000 Hz is accepted")):
            read_wav(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_wav(tmp_path / "nope.wav")


class TestStft:
    def test_framing_arithmetic(self):
        spec = stft(np.zeros(16000))
        assert spec.shape == (98, 257) and spec.dtype == np.complex128

    def test_bin_centered_cosine_energy_concentration(self):
        fs = 16000
        k = 64  # bin-centered: 64 * fs / 512 = 2000 Hz
        t = np.arange(16000) / fs
        power = np.abs(stft(0.5 * np.cos(2 * np.pi * (k * fs / 512) * t))) ** 2
        neighborhood = power[:, k - 1:k + 2].sum(axis=1)
        assert np.all(neighborhood >= 0.9 * power.sum(axis=1))

    def test_zero_input_zero_spectrogram(self):
        assert np.all(stft(np.zeros(1000)) == 0)

    def test_too_short_waveform(self):
        with pytest.raises(ValueError, match="shorter than one"):
            stft(np.zeros(399))

    def test_two_dimensional_samples_rejected(self):
        with pytest.raises(ValueError, match="not 1-D"):
            stft(np.zeros((1000, 2)))

    def test_analysis_window_is_periodic_hann(self):
        want = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(400) / 400)
        assert WINDOW.shape == (FRAME_LEN,) == (400,)
        assert np.max(np.abs(WINDOW - want)) <= 1e-15
        assert WINDOW[0] == 0.0 and WINDOW[200] == 1.0
        assert not WINDOW.flags.writeable

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=4000)
        y = rng.normal(size=4000)
        a, b = 0.7, -0.3
        sx = stft(x)
        sy = stft(y)
        sxy = stft(a * x + b * y)
        assert np.linalg.norm(sxy - (a * sx + b * sy)) <= 1e-9 * np.linalg.norm(sxy)

    def test_per_frame_parseval(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=3000)
        spec = stft(w)
        for n in range(len(spec)):
            frame = w[n * 160:n * 160 + 400] * WINDOW
            time_energy = np.sum(frame ** 2)
            half = np.abs(spec[n]) ** 2
            spectrum_energy = half[0] + 2 * half[1:-1].sum() + half[-1]
            assert abs(time_energy - spectrum_energy / 512) <= 1e-9 * time_energy

    # 10480, 10640 and 20880 samples make 64, 65 and 129 frames: one
    # block, one more frame and two blocks and one
    @pytest.mark.parametrize("n", [400, 401, 559, 16000, 88123, 10480, 10640, 20880])
    def test_matches_index_matrix_framing(self, n):
        # row n of the index matrix is n*shift + arange(frame_len)
        x = np.random.default_rng(n).normal(size=n)
        idx = np.arange(1 + (n - 400) // 160)[:, None] * 160 + np.arange(400)
        want = np.fft.rfft(x[idx] * WINDOW, n=512, axis=1)
        assert np.array_equal(stft(x), want)

    def test_allocates_the_output_and_one_block(self):
        # 2000 frames: the whole windowed-frame array would be 6.4 MB beside
        # the 8.2 MB output
        x = np.random.default_rng(5).normal(size=FRAME_LEN + 1999 * FRAME_SHIFT)
        tracemalloc.start()
        try:
            out = stft(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (2000, 257)
        assert peak <= out.nbytes + 1e6

    def test_frame_coverage_offsets(self):
        # frame n covers samples [n*shift, n*shift + frame_len)
        x = np.zeros(1200)
        x[810] = 1.0  # frames with n*160 <= 810 < n*160+400 (and nonzero window)
        active = np.flatnonzero(np.abs(stft(x)).sum(axis=1) > 0)
        assert active.tolist() == [3, 4, 5]


class TestIstft:
    def test_interior_reconstruction(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=8000) * 0.2
        back = istft(stft(w))
        a = w[400:-400]
        b = back[400:len(w) - 400]
        assert np.linalg.norm(a - b) <= 1e-6 * np.linalg.norm(a)

    def test_zero_spectrogram(self):
        assert np.all(istft(np.zeros((10, 257), dtype=complex)) == 0)

    def test_single_frame_recovers_windowed_frame(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=400) * 0.1
        back = istft(stft(w))
        # synthesis divides by window^2, so samples with nonzero window recover
        nz = WINDOW > 1e-6
        assert np.allclose(back[nz], w[nz], atol=1e-9)

    @pytest.mark.parametrize("n_frames", [1, 2, 37, 63, 64, 65, 128, 129])
    def test_matches_per_frame_overlap_add(self, n_frames):
        # same additions in the same order: bit-identical, not just close
        rng = np.random.default_rng(n_frames)
        values = rng.normal(size=(n_frames, 257)) + 1j * rng.normal(size=(n_frames, 257))
        assert np.array_equal(istft(values), loop_istft(values))

    def test_allocates_the_output_and_one_block(self):
        # 2000 frames: the whole synthesized-frame array would be 8.2 MB and
        # the window sum another output-sized array, beside the 2.6 MB output
        rng = np.random.default_rng(6)
        values = rng.normal(size=(2000, 257)) + 1j * rng.normal(size=(2000, 257))
        tracemalloc.start()
        try:
            out = istft(values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out) == FRAME_LEN + 1999 * FRAME_SHIFT
        assert peak <= out.nbytes + 1e6

    def test_inconsistent_bins_rejected(self):
        with pytest.raises(ValueError, match="bins"):
            istft(np.zeros((5, 100), dtype=complex))


class TestConvolve:
    def test_unit_impulse_identity(self, speech):
        out = convolve(speech, np.array([1.0]))
        assert np.allclose(out, speech, atol=1e-12)

    def test_shift_kernel(self):
        x = np.arange(1, 6, dtype=float) / 10
        out = convolve(x, np.array([0.0, 1.0]))
        assert np.allclose(out, np.concatenate([[0.0], x]))

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=50)
        h = rng.normal(size=8)
        got = convolve(x, h)
        want = direct_convolve(x, h)
        assert len(got) == 50 + 8 - 1
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_exhaustive_small_lengths(self):
        rng = np.random.default_rng(6)
        for n in range(1, 65):
            m = int(rng.integers(1, 17))
            x = rng.normal(size=n)
            h = rng.normal(size=m)
            got = convolve(x, h)
            want = direct_convolve(x, h)
            assert np.linalg.norm(got - want) <= 1e-10 * max(np.linalg.norm(want), 1e-30)

    def test_taps_longer_than_waveform(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=9)
        h = rng.normal(size=70)
        got = convolve(x, h)
        want = direct_convolve(x, h)
        assert len(got) == 9 + 70 - 1
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_empty_input_gives_empty_waveform(self):
        empty_x = convolve(np.zeros(0), np.array([1.0, 0.5]))
        empty_h = convolve(np.ones(10), np.zeros(0))
        for out in (empty_x, empty_h):
            assert out.shape == (0,) and out.dtype == np.float64


def test_declared_numpy_floor_has_fft_out():
    # stft, istft and the diagnostics' autocorrelation pass out= to
    # np.fft.rfft and irfft, which numpy added in 2.0
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    floor = re.search(r'"numpy>=(\d+)', text)
    assert floor and int(floor.group(1)) >= 2
