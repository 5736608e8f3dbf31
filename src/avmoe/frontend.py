"""Waveform ingestion and log-Mel feature extraction.

Frame geometry: 25 ms Hann windows every 10 ms. Features are
magnitude-squared spectra pushed through a triangular Mel filterbank
(HTK scale, 0 Hz to Nyquist) and floored at 1e-10 before the natural log.
Frames are then stacked in groups and linearly projected into the model
width to form speech tokens.

Two audio file formats are read, sniffed by their leading bytes:
  * single-channel 16-bit PCM WAV
  * raw float64: header ``F64LE <count> <rate>\\n`` then ``count``
    little-endian doubles, read and written by the shared float64 file codec
    (``f64file``)
"""

from __future__ import annotations

import functools
import wave
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, DimensionError, IngestError
from .f64file import read_f64_file, write_f64_file
from .tensor import Tensor, matmul

MEL_FLOOR = 1e-10
FRAME_LENGTH_MS = 25.0
FRAME_SHIFT_MS = 10.0


@dataclass
class Waveform:
    samples: np.ndarray
    sample_rate: int = 16000

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.sample_rate <= 0:
            raise ConfigError(f"sample rate must be positive, got {self.sample_rate}")


@dataclass
class LogMelSpectrogram:
    frames: np.ndarray  # (num_frames, n_mels)
    n_mels: int

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def window_sizes(sample_rate: int) -> tuple[int, int]:
    """Samples per window and per hop at ``sample_rate``."""
    win = int(round(sample_rate * FRAME_LENGTH_MS / 1000.0))
    hop = int(round(sample_rate * FRAME_SHIFT_MS / 1000.0))
    return win, hop


def frame_signal(waveform: Waveform) -> np.ndarray:
    """Slice the signal into Hann-windowed frames of shape (num_frames, win)."""
    win, hop = window_sizes(waveform.sample_rate)
    n = waveform.samples.shape[0]
    if n < win:
        raise DataError(f"waveform too short: {n} samples, need at least {win}")
    # Periodic Hann, the STFT convention.
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(win) / win)
    return np.lib.stride_tricks.sliding_window_view(waveform.samples, win)[::hop] * window


@functools.lru_cache(maxsize=16)
def mel_filterbank(n_mels: int, n_fft: int, sample_rate: int) -> np.ndarray:
    """Triangular filters, linear in Mel between a uniform Mel grid.

    Adjacent triangles are complementary, so each FFT bin's total weight is
    at most 1 (edge bins below the first / above the last center get less).
    Built once per (n_mels, n_fft, sample_rate); the array is shared between
    callers and therefore read-only.
    """
    if n_mels < 1:
        raise ConfigError(f"need at least one Mel bin, got {n_mels}")
    n_bins = n_fft // 2 + 1
    bin_mels = hz_to_mel(np.arange(n_bins) * sample_rate / n_fft)
    grid = np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0), n_mels + 2)
    lo, center, hi = grid[:-2, None], grid[1:-1, None], grid[2:, None]
    rising = (bin_mels - lo) / (center - lo)
    falling = (hi - bin_mels) / (hi - center)
    bank = np.clip(np.minimum(rising, falling), 0.0, None)
    bank.setflags(write=False)
    return bank


def log_mel(framed: np.ndarray, n_mels: int = 80, sample_rate: int = 16000) -> LogMelSpectrogram:
    """Windowed frames -> power spectrum -> Mel energies -> floored natural log."""
    win = framed.shape[1]
    n_fft = 1 << (win - 1).bit_length()
    spectrum = np.fft.rfft(framed, n=n_fft, axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    bank = mel_filterbank(n_mels, n_fft, sample_rate)
    energies = power @ bank.T
    frames = np.log(np.maximum(energies, MEL_FLOOR))
    return LogMelSpectrogram(frames=frames, n_mels=n_mels)


def log_mel_from_waveform(waveform: Waveform, n_mels: int = 80) -> LogMelSpectrogram:
    return log_mel(frame_signal(waveform), n_mels=n_mels, sample_rate=waveform.sample_rate)


def stack_frames(mels: Sequence[LogMelSpectrogram], stack_factor: int, proj: Tensor) -> Tensor:
    """Group ``stack_factor`` consecutive frames and project to model width.

    Each spectrogram's last group is zero-padded, so it gives
    ceil(num_frames / stack_factor) rows; the rows of all spectrograms are
    packed one after another and projected by one product. Gradients flow
    into ``proj`` only (features are constants).
    """
    if stack_factor < 1:
        raise ConfigError(f"stack factor must be >= 1, got {stack_factor}")
    blocks = []
    for mel in mels:
        expected_in = stack_factor * mel.n_mels
        if proj.shape[0] != expected_in:
            raise DimensionError(
                f"stack projection expects {expected_in} input columns "
                f"({stack_factor} x {mel.n_mels}), got {proj.shape}"
            )
        count = mel.num_frames
        groups = -(-count // stack_factor)
        padded = np.zeros((groups * stack_factor, mel.n_mels), dtype=np.float64)
        padded[:count] = mel.frames
        blocks.append(padded.reshape(groups, expected_in))
    return matmul(Tensor(np.concatenate(blocks)), proj)


# -- audio file IO -----------------------------------------------------------


def read_wav(path) -> Waveform:
    try:
        with wave.open(str(path), "rb") as wf:
            if wf.getnchannels() != 1 or wf.getsampwidth() != 2:
                raise IngestError(
                    f"{path}: expected mono 16-bit PCM, got "
                    f"{wf.getnchannels()} channel(s) at {wf.getsampwidth()} byte(s)"
                )
            rate = wf.getframerate()
            raw = wf.readframes(wf.getnframes())
    except wave.Error as exc:
        raise IngestError(f"{path}: not a readable WAV file ({exc})") from exc
    except EOFError as exc:
        raise IngestError(f"{path}: not a readable WAV file (it ends inside a chunk)") from exc
    if rate <= 0:
        raise IngestError(f"{path}: sample rate must be positive, got {rate} (byte offset 24)")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples=samples, sample_rate=rate)


def _f64le_count(fields: tuple[int, ...]) -> int:
    count, rate = fields
    if rate <= 0:
        raise ValueError(f"sample rate must be positive, got {rate}")
    return count


def read_f64(path) -> Waveform:
    """Read F64LE audio: header fields ``<count> <rate>``, the rate positive."""
    (_, rate), samples = read_f64_file(path, "F64LE", _f64le_count)
    return Waveform(samples=samples, sample_rate=rate)


def write_f64(path, waveform: Waveform) -> None:
    fields = (waveform.samples.shape[0], waveform.sample_rate)
    write_f64_file(path, "F64LE", fields, waveform.samples)


def read_waveform(path) -> Waveform:
    """Read WAV or raw-float audio, sniffing the format from leading bytes."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(6)
    except OSError as exc:
        raise DataError(f"{path}: cannot read the audio file: {exc.strerror}") from exc
    if head.startswith(b"RIFF"):
        return read_wav(path)
    if head.startswith(b"F64LE "):
        return read_f64(path)
    raise IngestError(f"{path}: unknown audio container (byte offset 0)")
