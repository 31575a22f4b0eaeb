"""Vocal F0 contour selection over a saliency spectrogram.

The tracker maximizes the summed log of per-frame normalized saliency
plus Laplacian log transition weights on the cents distance between
consecutive bins. Among score-equal paths it returns the one with the
lexicographically smallest bin sequence (ties break toward the lower
bin, earliest frame first). A backward pass scores the best path from
each (frame, bin) onward, and a forward greedy pass picks the path.
The backward pass is an L1 distance transform (Felzenszwalb &
Huttenlocher, "Distance Transforms of Sampled Functions"), so each
frame costs O(bins) rather than O(bins^2), apart from the rows whose
winner rounding could rank either way. The transition weight depends
only on the bin distance, so no (bins x bins) table is held. Voicing
detection is out of scope: every frame of a tracked contour is voiced.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .spectrogram import row_blocks

if TYPE_CHECKING:  # import would be circular at runtime (saliency -> masks -> here)
    from .saliency import SaliencySpectrogram

__all__ = [
    "F0Contour",
    "viterbi",
    "align_contour",
    "write_f0_csv",
    "read_f0_csv",
    "CENTS_REFERENCE_HZ",
    "ALIGNMENT_TICK_SECONDS",
    "F0_MIN_HZ",
    "F0_MAX_HZ",
    "TRANSITION_SCALE_CENTS",
    "SALIENCY_FLOOR",
]

# Reference for the informational f0_cents field; comparisons between
# contours always go through f0_hz.
CENTS_REFERENCE_HZ = 30.0

# Contours are compared on a common 10 ms clock.
ALIGNMENT_TICK_SECONDS = 0.01

# The tracker's search range: grid bins centered in [F0_MIN_HZ, F0_MAX_HZ].
F0_MIN_HZ = 80.0
F0_MAX_HZ = 720.0
# Laplacian scale b of the transition weight G(d) = exp(-|d|/b) / (2b),
# which makes the standard deviation of the frame-to-frame pitch move
# 150 cents.
TRANSITION_SCALE_CENTS = math.sqrt(150.0**2 / 2.0)
# Added to the saliency before each frame is normalised, so a silent
# frame has finite log emissions.
SALIENCY_FLOOR = 1e-12


@dataclass(frozen=True)
class F0Contour:
    """Per-frame fundamental frequency estimates.

    f0_hz is strictly positive at voiced frames and exactly 0 at
    unvoiced ones. f0_cents mirrors f0_hz in cents above
    CENTS_REFERENCE_HZ (0 where unvoiced). voiced_contour() builds one
    from f0_hz alone.
    """

    f0_hz: np.ndarray
    f0_cents: np.ndarray
    voiced: np.ndarray
    hop_seconds: float

    def __post_init__(self):
        f0 = np.asarray(self.f0_hz, dtype=np.float64)
        cents = np.asarray(self.f0_cents, dtype=np.float64)
        voiced = np.asarray(self.voiced, dtype=bool)
        if not (f0.ndim == cents.ndim == voiced.ndim == 1):
            raise ValueError("contour arrays must be 1-d")
        if not (f0.size == cents.size == voiced.size):
            raise ValueError("contour arrays must have equal length")
        if f0.size == 0:
            raise ValueError("contour must have at least one frame")
        if self.hop_seconds <= 0:
            raise ValueError("hop_seconds must be positive")
        if np.any(f0[voiced] <= 0):
            raise ValueError("voiced frames require f0_hz > 0")
        if np.any(f0[~voiced] != 0):
            raise ValueError("unvoiced frames require f0_hz == 0")
        if not np.all(np.isfinite(f0)):
            raise ValueError("f0_hz must be finite")
        object.__setattr__(self, "f0_hz", f0)
        object.__setattr__(self, "f0_cents", cents)
        object.__setattr__(self, "voiced", voiced)

    @property
    def n_frames(self) -> int:
        return self.f0_hz.size

    @property
    def duration_seconds(self) -> float:
        return self.n_frames * self.hop_seconds

    @property
    def times_seconds(self) -> np.ndarray:
        return np.arange(self.n_frames) * self.hop_seconds


def voiced_contour(f0_hz, hop_seconds: float) -> F0Contour:
    """Build a contour from f0 values where 0 marks unvoiced frames.

    Every contour the package makes comes from here: voiced is f0 > 0,
    and f0_cents is the cents above CENTS_REFERENCE_HZ (0 where
    unvoiced).
    """
    f0 = np.asarray(f0_hz, dtype=np.float64)
    voiced = f0 > 0
    cents = np.zeros_like(f0)
    cents[voiced] = 1200.0 * np.log2(f0[voiced] / CENTS_REFERENCE_HZ)
    return F0Contour(f0_hz=f0, f0_cents=cents, voiced=voiced, hop_seconds=hop_seconds)


def _emissions(values, floor):
    shifted = values + floor
    return np.log(shifted) - np.log(shifted.sum(axis=1, keepdims=True))


def _running_max(values):
    """Running max of a 1-d array, the last index attaining it, and the
    running second-largest value (an equal value counts as second)."""
    top = np.maximum.accumulate(values)
    at = np.maximum.accumulate(np.where(values == top, np.arange(values.size), 0))
    second = np.empty_like(values)
    second[0] = -np.inf
    np.minimum(values[1:], top[:-1], out=second[1:])
    np.maximum.accumulate(second, out=second)
    return top, at, second


def _best_transition(following, log_g, kj, c0):
    """max_j (log_g[i, j] + following[j]) for every bin i, bitwise.

    log_g[i, j] is c0 - k|i - j| up to rounding, so for j <= i the max
    is a running max of following[j] + k*j, and for j >= i one of
    following[j] - k*j taken from the right. Each side's winner is
    scored again with the exact log_g expression. Where a side's
    runner-up comes within rounding of its winner, rounding may rank
    them either way, so those rows take the full O(bins) max, a block
    of BLOCK_FRAMES rows at a time.
    """
    n_bins = following.size
    rows = np.arange(n_bins)
    top_l, at_l, second_l = _running_max(following + kj)
    top_r, at_r, second_r = (a[::-1] for a in _running_max((following - kj)[::-1]))
    at_r = n_bins - 1 - at_r
    score = np.maximum(
        log_g[rows, at_l] + following[at_l], log_g[rows, at_r] + following[at_r]
    )
    # With M bounding every magnitude here, a sweep value and an exact
    # score each round by under 2 eps M, so a runner-up more than
    # 8 eps M below its side's winner cannot score above it.
    tol = 16.0 * np.finfo(np.float64).eps * (np.abs(following).max() + kj[-1] + abs(c0))
    close = np.flatnonzero((second_l >= top_l - tol) | (second_r >= top_r - tol))
    # a block of BLOCK_FRAMES rows at a time: on a silent stretch the
    # scores are exact plateaus and almost every row is close
    for block in row_blocks(close.size):
        rows = close[block]
        score[rows] = np.max(log_g[rows] + following, axis=1)
    return score


def viterbi(s: SaliencySpectrogram) -> F0Contour:
    """Pick the best contour through a saliency spectrogram.

    Only grid bins whose center lies in [F0_MIN_HZ, F0_MAX_HZ] are
    candidates. Per-frame emissions are log((S+floor)/sum(S+floor)) with
    floor SALIENCY_FLOOR and the sum over the candidate bins, so scaling
    the saliency by any positive constant leaves the path unchanged
    apart from the floor. Transitions are weighted by the Laplacian of
    scale TRANSITION_SCALE_CENTS on the cents distance: the log weights
    are a zero-copy (bins x bins) view of their 2 * bins - 1 distinct
    values. Rows of the backward pass that need the full max over every
    transition (almost all of them on a silent stretch, whose scores are
    flat) take it BLOCK_FRAMES rows at a time.

    Returns
    -------
    F0Contour
        One voiced estimate per frame.
    """
    centers = s.grid.centers_hz
    candidates = np.flatnonzero((centers >= F0_MIN_HZ) & (centers <= F0_MAX_HZ))
    if candidates.size == 0:
        raise ValueError("no grid bins between %g and %g Hz" % (F0_MIN_HZ, F0_MAX_HZ))
    lo = int(candidates[0])
    n_bins = int(candidates[-1]) - lo + 1
    em = _emissions(s.values[:, lo : lo + n_bins], SALIENCY_FLOOR)
    n_frames = em.shape[0]

    offsets = np.arange(n_bins, dtype=np.float64)
    b = TRANSITION_SCALE_CENTS
    c0 = -math.log(2.0 * b)
    # log_g[i, j] = c0 - |i - j| * cents_per_bin / b depends on i - j
    # alone: a (bins x bins) view of its 2 * bins - 1 distinct values,
    # computed with the same operations in the same order as the whole
    # table, so every entry is bitwise the table's
    line = np.arange(1 - n_bins, n_bins, dtype=np.float64)
    np.abs(line, out=line)
    line *= s.grid.cents_per_bin
    line /= b
    np.subtract(c0, line, out=line)
    # row i is line[n_bins - 1 + i - j] over j: window i of the line,
    # read backwards
    log_g = sliding_window_view(line, n_bins)[:, ::-1]
    kj = (s.grid.cents_per_bin / b) * offsets

    # best[t, j]: best achievable score over frames t..T-1 starting at j
    best = np.empty_like(em)
    best[-1] = em[-1]
    for t in range(n_frames - 2, -1, -1):
        best[t] = em[t] + _best_transition(best[t + 1], log_g, kj, c0)

    path = np.empty(n_frames, dtype=np.intp)
    path[0] = np.argmax(best[0])
    for t in range(1, n_frames):
        path[t] = np.argmax(log_g[path[t - 1]] + best[t])

    # every center is at least F0_MIN_HZ, so every frame is voiced
    return voiced_contour(centers[path + lo], s.hop_seconds)


def align_contour(contour: F0Contour, n_frames: int, hop_seconds: float) -> F0Contour:
    """Resample a contour onto n_frames ticks hop_seconds apart by
    nearest frame (for feeding external ground truth into run())."""
    times = np.arange(n_frames) * hop_seconds
    idx = np.minimum(
        np.rint(times / contour.hop_seconds).astype(np.intp), contour.n_frames - 1
    )
    return voiced_contour(contour.f0_hz[idx], hop_seconds)


def write_f0_csv(contour: F0Contour, path) -> None:
    """Write a contour as ``time_seconds,f0_hz`` rows (0 = unvoiced)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_seconds", "f0_hz"])
        for t, f0 in zip(contour.times_seconds, contour.f0_hz):
            writer.writerow(["%.6f" % t, "%.6f" % f0])


def read_f0_csv(path) -> F0Contour:
    """Read a ``time_seconds,f0_hz`` file; 0 (or negative) f0 = unvoiced.

    Only the first row may be a header: a later row that does not parse
    as two numbers is an error naming its line, as is a time that does
    not increase on the row before. The frame hop is inferred from the
    median time step; single-row files fall back to the 10 ms alignment
    tick.
    """
    times = []
    f0s = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or not row[0].strip():
                continue
            try:
                t, f0 = float(row[0]), float(row[1])
            except ValueError:
                if reader.line_num == 1:
                    continue  # header
                raise ValueError(
                    "%s line %d: %r is not a time_seconds,f0_hz row"
                    % (path, reader.line_num, ",".join(row))
                ) from None
            except IndexError:
                raise ValueError(
                    "%s line %d: expected time_seconds,f0_hz rows" % (path, reader.line_num)
                ) from None
            if times and not t > times[-1]:
                raise ValueError(
                    "%s line %d: time %r does not increase on %r"
                    % (path, reader.line_num, t, times[-1])
                )
            times.append(t)
            f0s.append(f0)
    if not times:
        raise ValueError("%s contains no contour rows" % (path,))
    f0 = np.maximum(np.asarray(f0s), 0.0)
    if len(times) > 1:
        hop = float(np.median(np.diff(times)))
    else:
        hop = ALIGNMENT_TICK_SECONDS
    return voiced_contour(f0, hop)
