"""Frame geometry, log-Mel features, frame stacking, and audio file IO."""

import numpy as np
import pytest

from avmoe.errors import ConfigError, DataError, DimensionError, IngestError
from avmoe.frontend import (
    MEL_FLOOR,
    LogMelSpectrogram,
    Waveform,
    frame_signal,
    log_mel,
    log_mel_from_waveform,
    mel_filterbank,
    read_f64,
    read_waveform,
    read_wav,
    stack_frames,
    window_sizes,
    write_f64,
)
from avmoe.tensor import Tensor

from helpers import check_grad, mel_center_frequencies, write_wav


def tone(freq: float, seconds: float, rate: int = 16000) -> Waveform:
    t = np.arange(int(seconds * rate)) / rate
    return Waveform(samples=0.5 * np.sin(2 * np.pi * freq * t), sample_rate=rate)


class TestFraming:
    def test_one_second_at_16k_gives_98_frames(self):
        framed = frame_signal(tone(440.0, 1.0))
        win, hop = window_sizes(16000)
        assert (win, hop) == (400, 160)
        assert framed.shape == (98, 400)

    def test_exactly_one_window_is_one_frame(self):
        w = Waveform(samples=np.zeros(400), sample_rate=16000)
        assert frame_signal(w).shape[0] == 1

    def test_one_sample_short_is_an_error(self):
        w = Waveform(samples=np.zeros(399), sample_rate=16000)
        with pytest.raises(DataError, match="400"):
            frame_signal(w)

    def test_frame_count_formula_over_random_lengths(self):
        rng = np.random.default_rng(0)
        win, hop = window_sizes(16000)
        for _ in range(100):
            n = int(rng.integers(win, 40000))
            w = Waveform(samples=rng.uniform(-0.1, 0.1, n), sample_rate=16000)
            assert frame_signal(w).shape[0] == (n - win) // hop + 1

    def test_frames_cover_expected_samples(self):
        w = Waveform(samples=np.arange(1000, dtype=np.float64) / 1000.0, sample_rate=16000)
        framed = frame_signal(w)
        window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(400) / 400)
        np.testing.assert_allclose(framed[1], w.samples[160:560] * window, atol=1e-15)

    def test_matches_per_frame_loop(self):
        w = Waveform(samples=np.random.default_rng(5).uniform(-1, 1, 3333), sample_rate=16000)
        win, hop = window_sizes(16000)
        window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(win) / win)
        count = (w.samples.size - win) // hop + 1
        expected = np.empty((count, win))
        for t in range(count):
            expected[t] = w.samples[t * hop : t * hop + win]
        np.testing.assert_array_equal(frame_signal(w), expected * window)


class TestLogMel:
    def test_silence_hits_the_floor_everywhere(self):
        w = Waveform(samples=np.zeros(1600), sample_rate=16000)
        mel = log_mel_from_waveform(w)
        np.testing.assert_array_equal(mel.frames, np.log(MEL_FLOOR))

    def test_pure_tone_peaks_at_nearest_center(self):
        mel = log_mel_from_waveform(tone(1000.0, 1.0))
        centers = mel_center_frequencies(80, 16000)
        expected_bin = int(np.argmin(np.abs(centers - 1000.0)))
        peaks = mel.frames.argmax(axis=1)
        assert (peaks == expected_bin).all()

    def test_fft_power_matches_naive_dft_oracle(self):
        w = tone(1000.0, 0.05)
        framed = frame_signal(w)
        frame = framed[0]
        n_fft = 512
        # Direct O(n^2) DFT of the same windowed frame.
        k = np.arange(n_fft // 2 + 1)[:, None]
        n = np.arange(n_fft)[None, :]
        padded = np.zeros(n_fft)
        padded[: frame.size] = frame
        basis = np.exp(-2j * np.pi * k * n / n_fft)
        oracle_power = np.abs(basis @ padded) ** 2
        spectrum = np.fft.rfft(frame, n=n_fft)
        np.testing.assert_allclose(
            spectrum.real**2 + spectrum.imag**2, oracle_power, rtol=1e-9, atol=1e-9
        )

    def test_doubling_amplitude_adds_log4(self):
        w = tone(700.0, 0.5)
        loud = Waveform(samples=2.0 * w.samples, sample_rate=w.sample_rate)
        quiet_mel = log_mel_from_waveform(w).frames
        loud_mel = log_mel_from_waveform(loud).frames
        above = quiet_mel > np.log(MEL_FLOOR) + 1.0
        np.testing.assert_allclose(
            loud_mel[above] - quiet_mel[above], np.log(4.0), atol=1e-6
        )

    def test_trailing_samples_below_hop_add_no_frame(self):
        rng = np.random.default_rng(1)
        win, hop = window_sizes(16000)
        n = win + 7 * hop  # last frame ends exactly at the signal end
        samples = rng.uniform(-0.5, 0.5, n)
        base = log_mel_from_waveform(Waveform(samples=samples, sample_rate=16000))
        extended = np.concatenate([samples, rng.uniform(-0.5, 0.5, hop - 1)])
        grown = log_mel_from_waveform(Waveform(samples=extended, sample_rate=16000))
        assert grown.num_frames == base.num_frames
        np.testing.assert_array_equal(grown.frames, base.frames)

    def test_filterbank_rows_nonnegative_and_bin_weights_bounded(self):
        bank = mel_filterbank(80, 512, 16000)
        assert (bank >= 0.0).all()
        assert (bank.sum(axis=0) <= 1.0 + 1e-9).all()

    def test_filterbank_matches_per_row_loop(self):
        for n_mels, n_fft, rate in [(80, 512, 16000), (40, 512, 16000), (23, 1024, 8000)]:
            n_bins = n_fft // 2 + 1
            bin_mels = 2595.0 * np.log10(1.0 + np.arange(n_bins) * rate / n_fft / 700.0)
            grid = np.linspace(0.0, 2595.0 * np.log10(1.0 + rate / 2.0 / 700.0), n_mels + 2)
            expected = np.zeros((n_mels, n_bins))
            for m in range(n_mels):
                lo, center, hi = grid[m], grid[m + 1], grid[m + 2]
                rising = (bin_mels - lo) / (center - lo)
                falling = (hi - bin_mels) / (hi - center)
                expected[m] = np.clip(np.minimum(rising, falling), 0.0, None)
            np.testing.assert_array_equal(mel_filterbank(n_mels, n_fft, rate), expected)

    def test_filterbank_is_built_once_and_read_only(self):
        bank = mel_filterbank(80, 512, 16000)
        assert mel_filterbank(80, 512, 16000) is bank
        with pytest.raises(ValueError):
            bank[0, 0] = 1.0

    def test_filterbank_partitions_unity_between_outer_centers(self):
        bank = mel_filterbank(40, 512, 16000)
        centers = mel_center_frequencies(40, 16000)
        freqs = np.arange(512 // 2 + 1) * 16000 / 512
        inside = (freqs >= centers[0]) & (freqs <= centers[-1])
        np.testing.assert_allclose(bank.sum(axis=0)[inside], 1.0, atol=1e-9)


class TestStacking:
    def test_98_frames_stack_to_25_tokens(self):
        mel = log_mel_from_waveform(tone(500.0, 1.0))
        assert mel.num_frames == 98
        proj = Tensor(np.random.default_rng(0).normal(size=(4 * 80, 16)))
        tokens = stack_frames([mel], 4, proj)
        assert tokens.shape == (25, 16)

    def test_last_group_zero_padded(self):
        frames = np.arange(10.0).reshape(5, 2)
        mel = LogMelSpectrogram(frames=frames, n_mels=2)
        eye = Tensor(np.eye(6))
        tokens = stack_frames([mel], 3, eye)
        assert tokens.shape == (2, 6)
        np.testing.assert_array_equal(tokens.data[1], [6.0, 7.0, 8.0, 9.0, 0.0, 0.0])

    def test_factor_one_identity_projection_keeps_frames(self):
        frames = np.random.default_rng(2).normal(size=(7, 3))
        mel = LogMelSpectrogram(frames=frames, n_mels=3)
        tokens = stack_frames([mel], 1, Tensor(np.eye(3)))
        assert tokens.shape == (7, 3)
        np.testing.assert_array_equal(tokens.data, frames)

    def test_spectrograms_pack_one_after_another(self):
        rng = np.random.default_rng(4)
        mels = [LogMelSpectrogram(frames=rng.normal(size=(n, 2)), n_mels=2)
                for n in (5, 2, 7)]
        proj = Tensor(rng.normal(size=(6, 4)))
        packed = stack_frames(mels, 3, proj)
        one_by_one = [stack_frames([mel], 3, proj).data for mel in mels]
        assert packed.shape == (2 + 1 + 3, 4)
        # One product instead of three: BLAS may round the rows differently.
        np.testing.assert_allclose(packed.data, np.concatenate(one_by_one), rtol=1e-13)

    def test_bad_factor_rejected(self):
        mel = LogMelSpectrogram(frames=np.zeros((4, 2)), n_mels=2)
        with pytest.raises(ConfigError):
            stack_frames([mel], 0, Tensor(np.eye(2)))

    def test_projection_width_checked(self):
        mel = LogMelSpectrogram(frames=np.zeros((4, 2)), n_mels=2)
        with pytest.raises(DimensionError):
            stack_frames([mel], 2, Tensor(np.eye(3)))

    def test_gradient_flows_through_projection(self):
        rng = np.random.default_rng(3)
        mel = LogMelSpectrogram(frames=rng.normal(size=(5, 3)), n_mels=3)
        proj = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        weights = Tensor(rng.normal(size=(3, 4)))
        check_grad(lambda: (stack_frames([mel], 2, proj) * weights).sum(), [proj], tol=1e-5)


class TestAudioIO:
    def test_f64_roundtrip_bit_exact(self, tmp_path):
        w = tone(333.0, 0.1)
        path = tmp_path / "a.f64"
        write_f64(path, w)
        back = read_f64(path)
        assert back.sample_rate == 16000
        np.testing.assert_array_equal(back.samples, w.samples)

    def test_f64_golden_bytes(self, tmp_path):
        path = tmp_path / "a.f64"
        write_f64(path, Waveform(samples=np.array([1.0, -0.5]), sample_rate=8000))
        assert path.read_bytes() == (
            b"F64LE 2 8000\n"
            + bytes.fromhex("000000000000f03f")  # 1.0
            + bytes.fromhex("000000000000e0bf")  # -0.5
        )

    def test_wav_roundtrip_within_quantization(self, tmp_path):
        w = tone(333.0, 0.1)
        path = tmp_path / "a.wav"
        write_wav(path, w)
        back = read_wav(path)
        assert back.sample_rate == 16000
        np.testing.assert_allclose(back.samples, w.samples, atol=1.0 / 32768)

    def test_sniffing_picks_the_right_reader(self, tmp_path):
        w = tone(100.0, 0.05)
        write_wav(tmp_path / "a.wav", w)
        write_f64(tmp_path / "a.f64", w)
        assert read_waveform(tmp_path / "a.wav").samples.shape == w.samples.shape
        np.testing.assert_array_equal(read_waveform(tmp_path / "a.f64").samples, w.samples)

    def test_unknown_container_rejected(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"GARBAGE HEADER")
        with pytest.raises(IngestError):
            read_waveform(path)

    def test_truncated_riff_header_is_ingest_error(self, tmp_path):
        path = tmp_path / "cut.wav"
        write_wav(path, tone(100.0, 0.05))
        for size in (6, 20):
            path.write_bytes(path.read_bytes()[:size])
            with pytest.raises(IngestError, match="not a readable WAV"):
                read_waveform(path)

    def test_truncated_f64_payload_rejected(self, tmp_path):
        path = tmp_path / "short.f64"
        path.write_bytes(b"F64LE 10 16000\n" + b"\x00" * 24)
        with pytest.raises(IngestError, match="expected 10"):
            read_f64(path)

    def test_f64_rate_not_positive_is_ingest_error(self, tmp_path):
        path = tmp_path / "zero.f64"
        for rate in (0, -16000):
            path.write_bytes(f"F64LE 2 {rate}\n".encode() + b"\x00" * 16)
            with pytest.raises(IngestError, match="sample rate"):
                read_f64(path)

    def test_wav_rate_zero_is_ingest_error(self, tmp_path):
        path = tmp_path / "zero.wav"
        write_wav(path, tone(100.0, 0.05))
        blob = bytearray(path.read_bytes())
        blob[24:28] = b"\x00\x00\x00\x00"  # the fmt chunk's sample rate
        path.write_bytes(bytes(blob))
        with pytest.raises(IngestError, match="sample rate"):
            read_waveform(path)

    def test_f64_non_finite_sample_names_byte_offset(self, tmp_path):
        path = tmp_path / "nan.f64"
        samples = np.zeros(4)
        samples[2] = np.nan
        header = b"F64LE 4 16000\n"
        path.write_bytes(header + samples.astype("<f8").tobytes())
        with pytest.raises(IngestError, match=f"byte offset {len(header) + 16}"):
            read_f64(path)
