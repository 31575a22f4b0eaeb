"""Time-frequency masks and masked resynthesis.

Three mask families: soft (Wiener-style ratio of the sparse RPCA part
to sparse+low-rank), binary (sparse magnitude exceeding gamma times the
low-rank magnitude), and harmonic (Tukey lobes around each partial of a
tracked F0 contour). A mask's dtype is its kind: a binary mask holds
bool values, the soft and harmonic masks float64 ones. Masks integrate
by elementwise product into a soft mask, which integrate_binary
thresholds back to a binary one. separate()
resynthesizes the masked vocal with the mixture phases in one ISTFT and
takes the accompaniment as the mixture minus the vocal.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .audio import AudioSignal
from .rpca import RpcaResult
from .spectrogram import MagnitudeSpectrogram, istft, row_blocks, stft
from .tracking import F0Contour

__all__ = [
    "TimeFrequencyMask",
    "SeparationResult",
    "wiener_mask",
    "binary_mask",
    "harmonic_mask",
    "integrate_soft",
    "integrate_binary",
    "separate",
]

# Shape parameter of the Tukey taper over each harmonic-mask lobe: the
# cosine edges take TUKEY_SHAPE / 2 of the lobe width on each side.
TUKEY_SHAPE = 0.5


@dataclass(frozen=True)
class TimeFrequencyMask:
    """(frames, bins) mask with values in [0, 1].

    The dtype says which kind of mask it is. bool values make a binary
    mask, a byte a cell instead of eight. Any other values make a soft
    mask: they are stored as float64 and must be finite and lie in
    [0, 1]. Either kind multiplies a float64 magnitude to the same bits.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 2 or values.size == 0:
            raise ValueError("mask must be a non-empty 2-d array")
        if values.dtype != bool:
            values = values.astype(np.float64, copy=False)
            if not np.all(np.isfinite(values)):
                raise ValueError("mask values must be finite")
            if values.min() < 0 or values.max() > 1:
                raise ValueError("mask values must lie in [0, 1]")
        object.__setattr__(self, "values", values)

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def n_bins(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SeparationResult:
    """Separated vocal/accompaniment signals with their magnitude
    spectrograms. vocal_spec + accomp_spec equals the mixture magnitude."""

    vocal: AudioSignal
    accompaniment: AudioSignal
    vocal_spec: MagnitudeSpectrogram
    accomp_spec: MagnitudeSpectrogram


def wiener_mask(result: RpcaResult) -> TimeFrequencyMask:
    """Soft mask |X_S| / (|X_S| + |X_L|), with 0/0 mapped to 0, built a
    block of frames at a time."""
    values = np.zeros(result.sparse.shape)
    for rows in row_blocks(values.shape[0]):
        s = np.abs(result.sparse[rows])
        total = np.abs(result.low_rank[rows])
        total += s
        # no clamp to 1 needed: rounding is monotone, so the rounded
        # total is >= |X_S|, and a correctly rounded |X_S| / total <= 1
        np.divide(s, total, out=values[rows], where=total > 0)
    return TimeFrequencyMask(values=values)


def binary_mask(result: RpcaResult, gamma: float) -> TimeFrequencyMask:
    """Binary mask keeping cells where |X_S| > gamma * |X_L|, built a
    block of frames at a time."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    values = np.empty(result.sparse.shape, dtype=bool)
    for rows in row_blocks(values.shape[0]):
        values[rows] = np.abs(result.sparse[rows]) > gamma * np.abs(result.low_rank[rows])
    return TimeFrequencyMask(values=values)


def _tukey_taper(positions: np.ndarray, shape: float) -> np.ndarray:
    """Tukey (tapered cosine) window evaluated at positions in [0, 1]."""
    out = np.ones_like(positions)
    edge = shape / 2.0
    left = positions < edge
    right = positions > 1.0 - edge
    out[left] = 0.5 * (1.0 + np.cos(np.pi * (2.0 * positions[left] / shape - 1.0)))
    out[right] = 0.5 * (
        1.0 + np.cos(np.pi * (2.0 * (1.0 - positions[right]) / shape - 1.0))
    )
    return out


def harmonic_mask(
    contour: F0Contour, mag: MagnitudeSpectrogram, n_partials: int, width_hz: float
) -> TimeFrequencyMask:
    """Soft mask with a Tukey lobe over each F0 partial.

    For voiced frame t and partial n = 1..n_partials, bins whose center
    frequency falls inside [n*f0 - width_hz/2, n*f0 + width_hz/2] get
    the Tukey taper value (shape TUKEY_SHAPE) at their position in that
    interval; overlapping lobes combine by elementwise max. Partials
    above Nyquist are skipped; unvoiced frames stay all-zero. A voiced
    f0 at or beyond Nyquist (or <= 0) is an error.
    """
    if n_partials < 1:
        raise ValueError("n_partials must be >= 1")
    if width_hz <= 0:
        raise ValueError("width_hz must be positive")
    if contour.n_frames != mag.n_frames:
        raise ValueError(
            "contour has %d frames but spectrogram has %d"
            % (contour.n_frames, mag.n_frames)
        )
    bin_hz = mag.bin_hz
    nyquist = mag.nyquist_hz
    voiced_f0 = contour.f0_hz[contour.voiced]
    if voiced_f0.size and (voiced_f0.min() <= 0 or voiced_f0.max() >= nyquist):
        raise ValueError("voiced f0 values must lie strictly between 0 and Nyquist")

    values = np.zeros((contour.n_frames, bin_hz.size))
    half = width_hz / 2.0
    frames = np.flatnonzero(contour.voiced)
    f0 = contour.f0_hz[frames]
    for n in range(1, n_partials + 1):
        center = n * f0
        inside = center <= nyquist
        if not inside.any():
            break
        rows, left = frames[inside], center[inside] - half
        lo = np.searchsorted(bin_hz, left, side="left")
        hi = np.searchsorted(bin_hz, center[inside] + half, side="right")
        # lobe k covers bins lo[k] .. hi[k]-1: lay the lobes out as the
        # rows of a (lobes, widest lobe) rectangle and drop the padding
        cols = lo[:, None] + np.arange((hi - lo).max())
        in_lobe = cols < hi[:, None]
        lobe, _ = np.nonzero(in_lobe)
        cols, rows = cols[in_lobe], rows[lobe]
        positions = (bin_hz[cols] - left[lobe]) / width_hz
        # (row, col) pairs are distinct within one partial, so the
        # fancy-indexed read-max-write drops no update
        taper = _tukey_taper(positions, TUKEY_SHAPE)
        values[rows, cols] = np.maximum(values[rows, cols], taper)
    return TimeFrequencyMask(values=values)


def integrate_soft(a: TimeFrequencyMask, b: TimeFrequencyMask) -> TimeFrequencyMask:
    """Elementwise product of two masks, as a soft mask even when both
    are binary."""
    if a.values.shape != b.values.shape:
        raise ValueError(
            "mask shapes differ: %s vs %s" % (a.values.shape, b.values.shape)
        )
    return TimeFrequencyMask(values=np.multiply(a.values, b.values, dtype=np.float64))


def integrate_binary(mask: TimeFrequencyMask) -> TimeFrequencyMask:
    """Binarize a mask at the 0.5 level (strictly greater passes)."""
    return TimeFrequencyMask(values=mask.values > 0.5)


def separate(
    mixture: AudioSignal, mag: MagnitudeSpectrogram, mask: TimeFrequencyMask
) -> SeparationResult:
    """Split a mixture into vocal and accompaniment signals.

    mag is the mixture's STFT magnitude |X|, and it must have the
    mixture's rate and the frame count stft gives it. The vocal
    magnitude is mask * |X|; the accompaniment magnitude is the
    remainder |X| - vocal. The vocal resynthesizes with the mixture's
    own phase: istft(stft(mixture), vocal) forms X / max(|X|, tiny)
    (zero bins get phase 0) a block of frames at a time from a transform
    of that block's frames, so neither the complex vocal spectrum nor
    the mixture's is ever held whole, and the phase has unit modulus
    whatever mag holds. The accompaniment is mixture - vocal in the time
    domain: the ISTFT is linear and inverts the STFT to rounding, so
    that equals resynthesizing the remainder, and the two signals sum
    back to the mixture to one rounding. None of the inputs is written
    to, so mag may be reused across calls. The mask is let go once the
    vocal magnitude is formed, so a caller that passes its only
    reference (as run() does) does not hold it through the
    resynthesis.
    """
    if mask.values.shape != mag.values.shape:
        raise ValueError(
            "mask %s and magnitude %s shapes differ" % (mask.values.shape, mag.values.shape)
        )
    spec = stft(mixture, mag.window_size, mag.hop_size)
    if mag.sample_rate != spec.sample_rate or mag.n_frames != spec.n_frames:
        raise ValueError(
            "magnitude of %d frames at %d Hz is not the STFT of %d samples at %d Hz"
            % (mag.n_frames, mag.sample_rate, spec.n_samples, spec.sample_rate)
        )
    vocal_mag = mask.values * mag.values
    del mask  # frees the mask when the caller passed its only reference
    accomp_mag = mag.values - vocal_mag
    # re-deriving the vocal part from the rounded remainder makes
    # vocal + accomp == mixture bitwise (one of the two subtractions is
    # always exact by Sterbenz); shifts the vocal by at most one ulp
    np.subtract(mag.values, accomp_mag, out=vocal_mag)
    vocal_spec = dataclasses.replace(mag, values=vocal_mag)
    accomp_spec = dataclasses.replace(mag, values=accomp_mag)
    vocal = istft(spec, vocal_mag)
    accompaniment = AudioSignal(
        samples=mixture.samples - vocal.samples, sample_rate=mixture.sample_rate
    )
    return SeparationResult(
        vocal=vocal, accompaniment=accompaniment, vocal_spec=vocal_spec, accomp_spec=accomp_spec
    )
