"""Time-frequency analysis: STFT/ISTFT, A-weighting, log-frequency axis.

The STFT uses a periodic Hann window and centered frames (reflect
padding of half a window on both ends), so frame t is centered on
sample t*hop_size. The window is built with numpy alone, as
0.5 + 0.5 cos over window_size + 1 points from -pi to pi with the last
point dropped. For every power-of-two size up to 2**15 that is bitwise
scipy's get_window("hann", n, fftbins=True), whose module is not
imported: it alone costs about 45 MB and 1 s of import. The inverse
applies weighted overlap-add with the same window and divides by the
accumulated squared window, which makes istft(stft(x)) exact to
rounding error for any hop <= window. stft returns an Stft, which holds
only the signal and the geometry: magnitude() and istft() read it a
block of frames at a time, so no complex spectrum is ever held whole.
istft(spec, m) inverts the magnitudes m with spec's own phase
X / max(|X|, tiny), the resynthesis of a masked mixture.

The log-frequency resampling fits a natural cubic spline across each
frame's bins and evaluates it on the grid that the magnitude's Nyquist
rate fixes (LogFrequencyGrid.for_nyquist). Its tridiagonal system is
solved by cyclic reduction in numpy, which needs no scipy.linalg and is
faster than its solve_banded on these sizes.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import AudioSignal

__all__ = [
    "Stft",
    "MagnitudeSpectrogram",
    "LogFrequencyGrid",
    "LogSpectrogram",
    "stft",
    "istft",
    "magnitude",
    "a_weight_at",
    "apply_a_weighting",
    "to_log_frequency",
]

# Amplitude floor applied before dB conversion: 20*log10(1e-10) = -200 dB.
DB_FLOOR_AMPLITUDE = 1e-10
DB_FLOOR = -200.0

# Frames per block in the stages that work a block of frames at a time
# (Stft.blocks and so magnitude and istft, to_log_frequency, saliency.shs,
# saliency.f0_enhancement, the Wiener and binary masks and the solver's
# clip in rpca.decompose), and rows per block of the tracker's full-max
# fallback. Every one of them is elementwise or row-wise, so the block
# size bounds their buffers without changing a bit of their output.
BLOCK_FRAMES = 16


def row_blocks(n_rows: int):
    """Slices of BLOCK_FRAMES consecutive rows that cover n_rows rows."""
    for first in range(0, n_rows, BLOCK_FRAMES):
        yield slice(first, first + BLOCK_FRAMES)


def _hann(n: int) -> np.ndarray:
    """Periodic Hann window of n samples: the symmetric n + 1 point
    window without its last sample."""
    return (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)))[:-1]


def _validate_geometry(window_size: int, hop_size: int) -> None:
    if window_size < 64 or (window_size & (window_size - 1)) != 0:
        raise ValueError(
            "window_size must be a power of two >= 64, got %r" % (window_size,)
        )
    if not 0 < hop_size <= window_size:
        raise ValueError(
            "hop_size must satisfy 0 < hop_size <= window_size, got %r" % (hop_size,)
        )


@dataclass(frozen=True)
class Stft:
    """The short-time Fourier transform X of a signal, formed when read.

    No complex array is held: blocks() transforms the signal's centered
    Hann frames a block of BLOCK_FRAMES frames at a time, and rfft rows
    do not depend on the batch, so each block is bitwise those rows of
    one whole-array transform. The signal must be at least one window
    long.
    """

    signal: AudioSignal
    window_size: int
    hop_size: int

    def __post_init__(self):
        _validate_geometry(self.window_size, self.hop_size)
        if self.n_samples < self.window_size:
            raise ValueError(
                "signal of %d samples is shorter than one %d-sample window"
                % (self.n_samples, self.window_size)
            )

    @property
    def n_samples(self) -> int:
        return self.signal.samples.size

    @property
    def sample_rate(self) -> int:
        return self.signal.sample_rate

    @property
    def n_frames(self) -> int:
        return 1 + self.n_samples // self.hop_size

    @property
    def n_bins(self) -> int:
        return self.window_size // 2 + 1

    def blocks(self, magnitudes: np.ndarray | None = None):
        """(rows, X[rows]) for each block of BLOCK_FRAMES frames, or with
        magnitudes, a (frames, bins) array, (rows, X[rows] /
        max(|X[rows]|, tiny) * magnitudes[rows]): the magnitudes with X's
        own phase, zero bins taking phase 0. Each block is a fresh
        complex array, not held once the next one forms."""
        shape = (self.n_frames, self.n_bins)
        if magnitudes is not None and magnitudes.shape != shape:
            raise ValueError(
                "magnitudes %s and spectrogram %s shapes differ" % (magnitudes.shape, shape)
            )
        window_size = self.window_size
        padded = np.pad(self.signal.samples, window_size // 2, mode="reflect")
        window = _hann(window_size)
        frames = sliding_window_view(padded, window_size)[:: self.hop_size][: self.n_frames]
        tiny = np.finfo(np.float64).tiny
        for rows in row_blocks(self.n_frames):
            block = np.fft.rfft(frames[rows] * window, axis=1)
            if magnitudes is not None:
                np.divide(block, np.maximum(np.abs(block), tiny), out=block)
                block *= magnitudes[rows]
            yield rows, block
            del block  # not held while the next block forms


@dataclass(frozen=True)
class MagnitudeSpectrogram:
    """Nonnegative float64 magnitudes on one STFT grid: values has shape
    (frames, bins), and the window is 2 * (bins - 1) samples, a power of
    two. Derive a spectrogram on the same grid with
    dataclasses.replace(spec, values=...), which re-runs the checks."""

    values: np.ndarray
    hop_size: int
    sample_rate: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("values must have shape (frames, bins), got %s" % (values.shape,))
        object.__setattr__(self, "values", values)
        _validate_geometry(self.window_size, self.hop_size)
        if values.size and values.min() < 0:
            raise ValueError("magnitudes must be nonnegative")

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def n_bins(self) -> int:
        return self.values.shape[1]

    @property
    def window_size(self) -> int:
        return 2 * (self.n_bins - 1)

    @property
    def hop_seconds(self) -> float:
        return self.hop_size / self.sample_rate

    @property
    def bin_hz(self) -> np.ndarray:
        """Center frequency of each bin in Hz."""
        return np.arange(self.n_bins) * (self.sample_rate / self.window_size)

    @property
    def nyquist_hz(self) -> float:
        return self.sample_rate / 2.0


@dataclass(frozen=True)
class LogFrequencyGrid:
    """Log-spaced frequency axis: bin c (1-based) is centered on
    h_low * 2**((c - 1) * cents_per_bin / 1200).
    """

    n_bins: int
    h_low_hz: float = 30.0
    cents_per_bin: float = 10.0

    def __post_init__(self):
        if self.h_low_hz <= 0:
            raise ValueError("h_low_hz must be positive")
        if self.cents_per_bin <= 0:
            raise ValueError("cents_per_bin must be positive")
        if self.n_bins < 1:
            raise ValueError("n_bins must be >= 1")

    @classmethod
    def for_nyquist(cls, nyquist_hz: float) -> "LogFrequencyGrid":
        """Largest grid of the default h_low_hz and cents_per_bin whose
        top bin center stays at or below nyquist_hz."""
        h_low_hz, cents_per_bin = cls.h_low_hz, cls.cents_per_bin
        if nyquist_hz <= h_low_hz:
            raise ValueError(
                "nyquist_hz (%r) must exceed h_low_hz (%r)" % (nyquist_hz, h_low_hz)
            )
        n = int(math.floor(1200.0 * math.log2(nyquist_hz / h_low_hz) / cents_per_bin)) + 1
        return cls(n_bins=n)

    @property
    def centers_hz(self) -> np.ndarray:
        """Center frequencies, index 0 holding bin number 1."""
        c = np.arange(self.n_bins, dtype=np.float64)
        return self.h_low_hz * 2.0 ** (c * self.cents_per_bin / 1200.0)


@dataclass(frozen=True)
class _GridFrames:
    """Finite float64 values on a LogFrequencyGrid, (frames, grid bins)."""

    values: np.ndarray
    grid: LogFrequencyGrid
    hop_seconds: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != self.grid.n_bins:
            raise ValueError(
                "values must have shape (frames, grid.n_bins), got %s" % (values.shape,)
            )
        if values.size and not np.all(np.isfinite(values)):
            raise ValueError("%s values must be finite" % type(self).__name__)
        object.__setattr__(self, "values", values)

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class LogSpectrogram(_GridFrames):
    """dB magnitudes resampled onto a LogFrequencyGrid, (frames, grid bins)."""


def stft(signal: AudioSignal, window_size: int, hop_size: int) -> Stft:
    """Short-time Fourier transform with centered Hann frames.

    Parameters
    ----------
    signal : AudioSignal
    window_size : int
        Power of two, >= 64. The signal must be at least one window long.
    hop_size : int
        Frame advance in samples, 0 < hop_size <= window_size.

    Returns
    -------
    Stft
        1 + len(signal)//hop_size frames of window_size//2 + 1 bins,
        transformed a block at a time when read.
    """
    return Stft(signal, window_size, hop_size)


def istft(spec: Stft, magnitudes: np.ndarray | None = None) -> AudioSignal:
    """Invert an Stft by weighted overlap-add.

    Uses the analysis Hann window for synthesis and normalizes by the
    accumulated squared window, then trims the centered padding. Without
    magnitudes this returns the signal to rounding error for any hop <=
    window. With magnitudes, a (frames, bins) array, it inverts those
    magnitudes with spec's phase, X / max(|X|, tiny) * magnitudes: the
    least-squares estimate of a signal with that modified STFT (Griffin
    & Lim 1984). Each block of frames comes from spec.blocks() and is
    inverted on its own, so no whole complex spectrum is ever held.
    """
    window_size = spec.window_size
    hop = spec.hop_size
    pad = window_size // 2
    n_padded = pad + spec.n_samples + pad
    window = _hann(window_size)
    window_sq = window * window
    total = max(n_padded, (spec.n_frames - 1) * hop + window_size)
    acc = np.zeros(total)
    wsum = np.zeros(total)
    # irfft a block of frames at a time, so the (frames, window) array of
    # all frames is never held; irfft rows do not depend on the batch.
    # The overlap-add stays in frame order, which fixes its roundings.
    for rows, block in spec.blocks(magnitudes):
        frames = np.fft.irfft(block, n=window_size, axis=1)
        frames *= window
        for t, frame in enumerate(frames, start=rows.start):
            start = t * hop
            acc[start : start + window_size] += frame
            wsum[start : start + window_size] += window_sq
        del block, frames, frame  # not held while the next block forms
    out = acc[pad : pad + spec.n_samples]
    norm = wsum[pad : pad + spec.n_samples]
    if norm.min() <= 0:
        raise ValueError(
            "overlap-add window sum vanished; hop %d too large for window %d"
            % (hop, window_size)
        )
    out = out / norm
    return AudioSignal(samples=out, sample_rate=spec.sample_rate)


def magnitude(spec: Stft) -> MagnitudeSpectrogram:
    """Elementwise complex magnitude |X| of an STFT, filled a block of
    frames at a time."""
    values = np.empty((spec.n_frames, spec.n_bins))
    for rows, block in spec.blocks():
        np.abs(block, out=values[rows])
    return MagnitudeSpectrogram(values=values, hop_size=spec.hop_size, sample_rate=spec.sample_rate)


def a_weight_at(freq_hz) -> np.ndarray:
    """A-weighting response on a linear amplitude scale.

    R(h) = 12200^2 h^4 / ((h^2+20.6^2)(h^2+12200^2))
           / sqrt((h^2+107.7^2)(h^2+737.9^2))

    Zero at DC, ~0.794 at 1 kHz, peaking a little above unity near 2.5 kHz.
    """
    h = np.asarray(freq_hz, dtype=np.float64)
    if np.any(h < 0):
        raise ValueError("frequencies must be nonnegative")
    h2 = h * h
    num = (12200.0**2) * h2 * h2
    den = (h2 + 20.6**2) * (h2 + 12200.0**2)
    den2 = np.sqrt((h2 + 107.7**2) * (h2 + 737.9**2))
    return num / (den * den2)


def apply_a_weighting(mag: MagnitudeSpectrogram) -> MagnitudeSpectrogram:
    """Scale each frequency bin by the A-weighting response at its center."""
    weights = a_weight_at(mag.bin_hz)
    return dataclasses.replace(mag, values=mag.values * weights[np.newaxis, :])


def to_log_frequency(mag: MagnitudeSpectrogram) -> LogSpectrogram:
    """Resample a magnitude spectrogram in dB onto the log-frequency
    grid LogFrequencyGrid.for_nyquist(mag.nyquist_hz).

    Magnitudes are floored at 1e-10 (-200 dB), converted to dB, and
    interpolated across frequency with a natural cubic spline evaluated
    at the grid centers, a block of frames at a time.
    """
    grid = LogFrequencyGrid.for_nyquist(mag.nyquist_hz)
    positions = grid.centers_hz / (mag.sample_rate / mag.window_size)
    values = np.empty((mag.n_frames, grid.n_bins))
    for rows in row_blocks(mag.n_frames):
        db = np.maximum(mag.values[rows], DB_FLOOR_AMPLITUDE)
        np.log10(db, out=db)
        db *= 20.0
        np.maximum(_natural_spline(db, positions), DB_FLOOR, out=values[rows])
    return LogSpectrogram(values=values, grid=grid, hop_seconds=mag.hop_seconds)


def _natural_spline(y: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Natural cubic spline through the rows of y, knots at 0, 1, ...,
    F-1, evaluated at positions in [0, F-1].

    The knot second derivatives m solve the tridiagonal system
    m[i-1] + 4 m[i] + m[i+1] = 6 (y[i-1] - 2 y[i] + y[i+1]) with
    m[0] = m[F-1] = 0. On interval j, with b = p - j, the spline is
    y[j] + b (y[j+1] - y[j]) + (a^3 - a)/6 m[j] + (b^3 - b)/6 m[j+1],
    a = 1 - b. Costs two (frames, F) buffers and two (frames, positions)
    ones, where scipy's CubicSpline holds several full coefficient arrays.
    The knots are the bins of a power-of-two window, so F - 2 is always
    2**k - 1, the size _solve_spline_system needs.
    """
    n_knots = y.shape[1]
    # inner[:, i] holds m[i+1]; filled with the second difference, then
    # solved in place
    inner = np.subtract(y[:, 2:], y[:, 1:-1])
    inner -= y[:, 1:-1]
    inner += y[:, :-2]
    inner *= 6.0
    _solve_spline_system(inner)

    j = np.minimum(np.floor(positions).astype(np.intp), n_knots - 2)
    b = positions - j
    a = 1.0 - b
    # the end knots carry m = 0, so their terms get weight 0 (and read
    # a clipped column of inner); mode="clip" also keeps take unbuffered
    weight_lo = np.where(j > 0, (a * a * a - a) / 6.0, 0.0)
    weight_hi = np.where(j + 1 < n_knots - 1, (b * b * b - b) / 6.0, 0.0)

    out = y[:, j]
    term = np.take(y, j + 1, axis=1)
    term -= out
    term *= b
    out += term
    np.take(inner, j - 1, axis=1, out=term, mode="clip")
    term *= weight_lo
    out += term
    np.take(inner, j, axis=1, out=term, mode="clip")
    term *= weight_hi
    out += term
    return out


def _solve_spline_system(rhs: np.ndarray) -> np.ndarray:
    """Solve m[i-1] + 4 m[i] + m[i+1] = rhs[:, i] along each row of rhs,
    with m = 0 beyond both ends, in place by cyclic reduction.

    The row length must be 2**k - 1. Each level eliminates the even
    unknowns (0-based) from the odd equations, which leaves a system of
    half the size with the same shape: off-diagonal a' = -a**2/b and
    diagonal b' = b - 2 a**2/b. At size 1 the system is m = r/b; going
    back up, each even unknown is (r - a (left + right)) / b from its
    solved odd neighbours. The matrix is diagonally dominant, so the
    reduction is stable, and a/b shrinks about quadratically per level.
    """
    n = rhs.shape[1]
    if n < 1 or (n + 1) & n:
        raise ValueError("system size must be 2**k - 1, got %d" % (n,))
    levels = []
    a, b = 1.0, 4.0
    r = rhs
    while r.shape[1] > 1:
        levels.append((r, a, b))
        ratio = a / b
        reduced = np.add(r[:, :-2:2], r[:, 2::2])
        reduced *= -ratio
        reduced += r[:, 1::2]
        a, b = -a * ratio, b - 2.0 * a * ratio
        r = reduced
    r /= b
    for full, a, b in reversed(levels):
        full[:, 1::2] = r
        r *= a
        even = full[:, ::2]
        even[:, 1:] -= r
        even[:, :-1] -= r
        even /= b
        r = full
    return r
