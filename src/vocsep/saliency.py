"""Pitch saliency: subharmonic summation and comb-structure enhancement.

Subharmonic summation folds each harmonic's energy down to its
fundamental on the log-frequency axis by shifted, geometrically decayed
sums. The enhancement term measures how comb-like each frame of the
binary vocal mask is: the magnitude DFT of the mask row peaks at lags
matching the harmonic spacing, and sampling it at lag floor(h_top/h_c)
scores grid bin c. Both terms lie on the grid that the Nyquist rate
fixes, LogFrequencyGrid.for_nyquist. Raising the enhancement to an
exponent alpha and multiplying into the summation sharpens true-F0
peaks.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass

import numpy as np

from .masks import TimeFrequencyMask
from .spectrogram import LogFrequencyGrid, LogSpectrogram, _GridFrames, row_blocks

logger = logging.getLogger(__name__)

__all__ = ["SaliencySpectrogram", "shs", "f0_enhancement", "combine"]

# The n-th subharmonic summation term is weighted SHS_DECAY**(n - 1).
SHS_DECAY = 0.86


@dataclass(frozen=True)
class SaliencySpectrogram(_GridFrames):
    """Nonnegative (frames, grid bins) saliency values."""

    def __post_init__(self):
        super().__post_init__()
        if self.values.size and self.values.min() < 0:
            raise ValueError("saliency values must be nonnegative")


def shs(logspec: LogSpectrogram, n_partials: int) -> SaliencySpectrogram:
    """Subharmonic summation of n_partials terms over a log-frequency
    dB spectrogram.

    Input dB values are clamped below at 0 before summing, so silence
    (at the -200 dB floor) contributes nothing. The n-th partial of bin
    c sits floor(1200*log2(n)/cents_per_bin) bins above c and weighs
    SHS_DECAY**(n - 1); shifts past the top of the grid are dropped.
    The sum runs a block of frames at a time.
    """
    if n_partials < 1:
        raise ValueError("n_partials must be >= 1")
    n_bins = logspec.grid.n_bins
    terms = []
    for n in range(1, n_partials + 1):
        shift = int(np.floor(1200.0 * np.log2(n) / logspec.grid.cents_per_bin))
        if shift >= n_bins:
            break
        terms.append((SHS_DECAY ** (n - 1), shift))
    out = np.zeros_like(logspec.values)
    for rows in row_blocks(logspec.n_frames):
        clamped = np.maximum(logspec.values[rows], 0.0)
        block = out[rows]
        for weight, shift in terms:
            block[:, : n_bins - shift] += weight * clamped[:, shift:]
    return SaliencySpectrogram(
        values=out, grid=logspec.grid, hop_seconds=logspec.hop_seconds
    )


def f0_enhancement(
    mask: TimeFrequencyMask, h_top_hz: float, hop_seconds: float
) -> SaliencySpectrogram:
    """Comb-structure saliency from a binary vocal mask whose top bin
    lies at h_top_hz (the Nyquist rate), on the grid
    LogFrequencyGrid.for_nyquist(h_top_hz).

    Each frame's mask row (length F) is DFT'd; grid bin c with center
    h_c samples the magnitude at lag k = floor(h_top / h_c), read from
    the real-input half spectrum at min(k, F - k). Lags past
    F-1 (possible when the grid reaches far below h_top/F) clamp to F-1
    with a logged diagnostic. The rows are transformed a block of frames
    at a time.
    """
    if mask.values.dtype != bool:
        raise ValueError("f0_enhancement requires a bool mask, got %s values" % mask.values.dtype)
    if hop_seconds <= 0:
        raise ValueError("hop_seconds must be positive")
    grid = LogFrequencyGrid.for_nyquist(h_top_hz)
    n_bins = mask.n_bins
    lags = np.floor(h_top_hz / grid.centers_hz).astype(np.intp)
    clamped = int(np.count_nonzero(lags > n_bins - 1))
    if clamped:
        logger.warning(
            "f0_enhancement: %d grid bins map past DFT lag %d and were clamped",
            clamped, n_bins - 1,
        )
        lags = np.minimum(lags, n_bins - 1)
    # a real row has |X[k]| = |X[F - k]|, so the half spectrum serves
    # every lag: one past F // 2 reads its mirror
    lags = np.minimum(lags, n_bins - lags)
    values = np.empty((mask.n_frames, lags.size))
    for rows in row_blocks(mask.n_frames):
        values[rows] = np.abs(np.fft.rfft(mask.values[rows], axis=1))[:, lags]
    return SaliencySpectrogram(values=values, grid=grid, hop_seconds=hop_seconds)


def combine(
    summation: SaliencySpectrogram, enhancement: SaliencySpectrogram, alpha: float
) -> SaliencySpectrogram:
    """Blend: summation * enhancement**alpha (with 0**0 == 1, so
    alpha = 0 returns the summation untouched)."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if summation.values.shape != enhancement.values.shape:
        raise ValueError(
            "saliency shapes differ: %s vs %s"
            % (summation.values.shape, enhancement.values.shape)
        )
    if summation.grid != enhancement.grid:
        raise ValueError("saliency grids differ")
    values = np.power(enhancement.values, alpha)
    np.multiply(summation.values, values, out=values)
    return dataclasses.replace(summation, values=values)
