import math

import numpy as np
import pytest

from conftest import hstack_context
from ncderev import features
from ncderev.dsp import stft


def tone_spectrogram(freq, fs=16000):
    t = np.arange(8000) / fs
    return stft(0.5 * np.sin(2 * np.pi * freq * t))


class TestMelBank:
    def test_paper_configuration_shape(self):
        bank = features.MEL_BANK
        assert bank.shape == (40, 257)
        assert np.all(bank >= 0)

    def test_peaks_strictly_increasing(self):
        bank = features.MEL_BANK
        peaks = bank.argmax(axis=1)
        assert np.all(np.diff(peaks) > 0)

    def test_interior_bins_covered(self):
        bank = features.MEL_BANK
        peaks = bank.argmax(axis=1)
        interior = np.arange(peaks[0], peaks[-1] + 1)
        assert np.all(bank[:, interior].sum(axis=0) > 0)

    def test_matches_closed_form_triangles(self):
        # filter k of 40 on 42 edges equally spaced in Mel from 0 Hz to
        # 8 kHz: 0 up to edge k, a line to 1 at edge k+1, a line to 0 at
        # edge k+2, evaluated at bin b's frequency b * 16000 / 512
        top = 2595.0 * math.log10(1.0 + 8000.0 / 700.0)
        edges = [700.0 * (10.0 ** (top * j / 41 / 2595.0) - 1.0) for j in range(42)]
        want = np.zeros((40, 257))
        for k in range(40):
            lo, mid, hi = edges[k:k + 3]
            for b in range(257):
                f = b * 16000 / 512
                if lo < f <= mid:
                    want[k, b] = (f - lo) / (mid - lo)
                elif mid < f < hi:
                    want[k, b] = (hi - f) / (hi - mid)
        assert features.MEL_BANK.shape == want.shape
        assert np.max(np.abs(features.MEL_BANK - want)) <= 1e-12
        # every filter covers at least one bin
        assert np.all(features.MEL_BANK.max(axis=1) > 0)

    def test_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            features.MEL_BANK[0, 0] = 1.0

    def test_mel_scale_formula(self):
        assert np.isclose(features.hz_to_mel(700.0), 2595.0 * np.log10(2.0))
        assert np.isclose(features.mel_to_hz(features.hz_to_mel(1234.5)), 1234.5)


class TestLogMel:
    def test_zero_spectrogram_hits_floor(self):
        spec = np.zeros((5, 257), complex)
        bank = features.MEL_BANK
        out = features.log_mel(spec)
        assert np.all(out == np.log(np.finfo(np.float64).tiny))
        # otherwise the floor is 1e-10 of the largest filter energy
        values = np.zeros((5, 257), complex)
        values[2, 100] = 1.0
        out = features.log_mel(values)
        assert out.min() == np.log(1e-10 * bank[:, 100].max())

    def test_scaling_shifts_by_two_log_c(self, speech):
        a = features.log_mel(stft(speech))
        b = features.log_mel(stft(0.5 * speech))
        assert np.allclose(b - a, 2 * np.log(0.5), atol=1e-9)

    def test_tone_peaks_at_matching_filter(self):
        for freq in (300.0, 1000.0, 3000.0):
            spec = tone_spectrogram(freq)
            out = features.log_mel(spec)
            k = int(np.median(out.argmax(axis=1)))
            centers_hz = features.mel_to_hz(
                np.linspace(features.hz_to_mel(0), features.hz_to_mel(8000), 42)
            )[1:-1]
            nearest = int(np.argmin(np.abs(centers_hz - freq)))
            assert abs(k - nearest) <= 1

    def test_monotone_in_bin_power(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(6, 257)) + 1j * rng.normal(size=(6, 257))
        bank = features.MEL_BANK
        base = features.log_mel(values)
        boosted = values.copy()
        boosted[2, 100] *= 3.0
        out = features.log_mel(boosted)
        touched = bank[:, 100] > 0
        assert np.all(out[2, touched] >= base[2, touched])
        assert np.allclose(out[2, ~touched], base[2, ~touched])


class TestMvn:
    def test_statistics(self, speech):
        out = features.mvn(features.log_mel(stft(speech)))
        assert np.max(np.abs(out.mean(axis=0))) <= 1e-9
        assert np.max(np.abs(out.var(axis=0) - 1.0)) <= 1e-6

    def test_constant_trajectory_centered_only(self):
        x = np.ones((10, 3))
        x[:, 1] = np.linspace(0, 1, 10)
        out = features.mvn(x)
        assert np.all(out[:, 0] == 0)
        assert np.all(out[:, 2] == 0)
        assert abs(out[:, 1].var() - 1.0) <= 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 8)) * 3 + 5
        once = features.mvn(x)
        twice = features.mvn(once)
        assert np.max(np.abs(once - twice)) <= 1e-9

    def test_single_frame_rejected(self):
        with pytest.raises(ValueError):
            features.mvn(np.ones((1, 40)))


def stack(feats, p, q):
    """Every frame's context vector of one utterance, gathered by ContextFrames."""
    return features.ContextFrames([feats], p, q).rows(slice(None))


class TestStackContext:
    def test_identity_for_zero_context(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(7, 40))
        assert np.array_equal(stack(x, 0, 0), x)

    def test_edge_rule(self):
        x = np.arange(1.0, 4.0)[:, None] * np.ones((1, 2))  # frames 1, 2, 3
        out = stack(x, 1, 1)
        assert out.shape == (3, 6)
        assert np.array_equal(out[0], [0, 0, 1, 1, 2, 2])
        assert np.array_equal(out[1], [1, 1, 2, 2, 3, 3])
        assert np.array_equal(out[2], [2, 2, 3, 3, 0, 0])

    def test_paper_dimensionality(self):
        x = np.zeros((30, 40))
        assert stack(x, 10, 10).shape == (30, 840)

    def test_center_columns_equal_input(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(12, 40))
        p, q = 3, 2
        out = stack(x, p, q)
        assert np.array_equal(out[:, p * 40:(p + 1) * 40], x)


class TestContextFrames:
    """Gathered rows against the hstack oracle of the concatenated utterances."""

    @staticmethod
    def blocks(lengths, d=40, seed=0):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=(n, d)) for n in lengths]

    @staticmethod
    def oracle(blocks, p, q):
        return np.vstack([hstack_context(b, p, q) for b in blocks])

    @pytest.mark.parametrize("p, q", [(10, 10), (3, 1), (0, 4), (5, 0), (0, 0)])
    def test_random_index_sets(self, p, q):
        blocks = self.blocks([37, 52, 9, 60])
        frames = features.ContextFrames(blocks, p, q)
        expected = self.oracle(blocks, p, q)
        rng = np.random.default_rng(p * 10 + q)
        for size in (1, 7, 64, len(expected)):
            idx = rng.choice(len(expected), size=size, replace=False)
            assert np.array_equal(frames.rows(idx), expected[idx])
        assert np.array_equal(frames.rows(slice(None)), expected)

    @pytest.mark.parametrize("p, q", [(10, 10), (2, 7), (0, 3), (3, 0)])
    def test_first_and_last_frames(self, p, q):
        blocks = self.blocks([30], seed=1)
        frames = features.ContextFrames(blocks, p, q)
        expected = self.oracle(blocks, p, q)
        edges = np.r_[np.arange(p + 1), np.arange(30 - q - 1, 30)]
        assert np.array_equal(frames.rows(edges), expected[edges])

    @pytest.mark.parametrize("lengths", [[1], [3], [20], [1, 2, 1, 5]])
    def test_utterances_shorter_than_the_context(self, lengths):
        blocks = self.blocks(lengths, seed=2)
        frames = features.ContextFrames(blocks, 10, 10)
        assert np.array_equal(frames.rows(np.arange(len(frames))),
                              self.oracle(blocks, 10, 10))

    def test_several_utterances_in_one_block(self):
        blocks = self.blocks([25, 40, 12], seed=3)
        frames = features.ContextFrames(blocks, 4, 6)
        assert len(frames) == 77
        # every utterance keeps its own zero edges: no frame sees a neighbour's
        assert frames.padded.shape == (77 + 3 * 10, 40)
        starts = np.cumsum([0, 25, 40])
        for block, start in zip(blocks, starts):
            rows = frames.rows(np.arange(start, start + len(block)))
            assert np.array_equal(rows, hstack_context(block, 4, 6))

    @pytest.mark.parametrize("p, q", [(10, 10), (2, 5), (0, 0)])
    def test_blocks_drawn_one_at_a_time_given_their_shapes(self, p, q):
        blocks = self.blocks([25, 3, 40, 12], seed=5)

        def draw():
            for b in blocks:
                b = b.copy()
                yield b
                b[:] = np.nan  # the set has copied it before drawing the next

        frames = features.ContextFrames(draw(), p, q, shapes=[b.shape for b in blocks])
        want = features.ContextFrames(blocks, p, q)
        assert np.array_equal(frames.padded, want.padded)
        assert np.array_equal(frames.rows(slice(None)), self.oracle(blocks, p, q))
        if p == q == 0:  # the padded block is the blocks concatenated
            assert np.array_equal(frames.padded, np.concatenate(blocks))

    @pytest.mark.parametrize("drawn", [False, True])
    def test_float32_blocks_held_at_float32(self, drawn):
        # as train-mlp reads them: drawn one at a time, given their shapes
        blocks = [b.astype(np.float32) for b in self.blocks([25, 3, 40], seed=7)]
        frames = (features.ContextFrames(iter(blocks), 2, 3, shapes=[b.shape for b in blocks])
                  if drawn else features.ContextFrames(blocks, 2, 3))
        assert frames.padded.dtype == np.float32
        rows = frames.rows(slice(None))
        assert rows.dtype == np.float32
        assert np.array_equal(rows, self.oracle(blocks, 2, 3))

    @pytest.mark.parametrize("shapes", [
        [(25, 40), (4, 40)],            # a block longer than its shape says
        [(25, 40), (3, 40), (1, 40)],   # more shapes than blocks
        [(25, 40)],                     # more blocks than shapes
    ])
    def test_blocks_that_disagree_with_their_shapes_rejected(self, shapes):
        blocks = self.blocks([25, 3], seed=6)
        with pytest.raises(ValueError):
            features.ContextFrames(iter(blocks), 2, 2, shapes=shapes)

    def test_stack_context_is_the_gather_of_one_utterance(self):
        (x,) = self.blocks([45], d=8, seed=4)
        for p, q in [(0, 0), (10, 10), (2, 0), (0, 5)]:
            assert np.array_equal(stack(x, p, q), hstack_context(x, p, q))

    @pytest.mark.parametrize("blocks, p, q", [
        ([np.ones(5)], 1, 1),
        ([np.ones((5, 4)), np.ones((5, 3))], 1, 1),
        ([], 1, 1),
        ([np.ones((5, 4))], -1, 0),
        ([np.ones((5, 4))], 0, -1),
    ])
    def test_bad_input_rejected(self, blocks, p, q):
        with pytest.raises(ValueError):
            features.ContextFrames(blocks, p, q)


class TestAlignPairs:
    def test_equal_lengths_unchanged(self):
        x = np.ones((5, 4))
        a, b = features.align_pairs(x, x)
        assert a.shape == b.shape == (5, 4)

    def test_truncation(self):
        reverb = np.ones((105, 4))
        clean = np.ones((98, 4))
        a, b = features.align_pairs(reverb, clean)
        assert a.shape == (98, 4)
        assert b.shape == (98, 4)

    def test_clean_longer_rejected(self):
        with pytest.raises(ValueError, match="longer"):
            features.align_pairs(np.ones((98, 4)), np.ones((99, 4)))


def test_pipeline_determinism(speech):
    def run():
        return features.mvn(features.log_mel(stft(speech)))

    assert np.array_equal(run(), run())
