"""Separation quality and pitch accuracy metrics.

Separation scores follow the BSS-Eval decomposition restricted to
gain-only (zero-delay) projections: the estimate splits into a target
component (projection onto the reference), an interference component
(what the reference+interferer span adds beyond that), and an artifact
remainder. SDR/SIR/SAR are the usual energy ratios in dB, with infinite
ratios capped at +-300 dB so scores stay finite and orderable.
"""

from __future__ import annotations

import numpy as np

from .audio import AudioSignal
from .tracking import ALIGNMENT_TICK_SECONDS, F0Contour, align_contour

__all__ = [
    "DB_CAP",
    "PITCH_TOLERANCE_CENTS",
    "decompose_estimate",
    "sdr_sir_sar",
    "nsdr",
    "gnsdr",
    "raw_pitch_accuracy",
    "voiced_region_mask",
    "snr_gain",
]

DB_CAP = 300.0
# Raw pitch accuracy counts an estimate within this many cents of the
# true pitch as a hit.
PITCH_TOLERANCE_CENTS = 50.0


def _as_signal_array(x) -> np.ndarray:
    arr = np.asarray(getattr(x, "samples", x), dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a non-empty 1-d signal")
    if not np.all(np.isfinite(arr)):
        raise ValueError("signal contains NaN or Inf")
    return arr


def decompose_estimate(estimate, target, interferer):
    """Split an estimate into target, interference, and artifact parts.

    Parameters
    ----------
    estimate, target, interferer : AudioSignal or 1-d array
        Equal-length signals; target and interferer must not both be
        all-zero.

    Returns
    -------
    (s_target, e_interf, e_artif) : np.ndarray triple
        s_target is the projection of the estimate onto the target;
        e_interf extends it to the target+interferer span; e_artif is
        the remainder. The three sum to the estimate.
    """
    est = _as_signal_array(estimate)
    tgt = _as_signal_array(target)
    itf = _as_signal_array(interferer)
    if not (est.size == tgt.size == itf.size):
        raise ValueError(
            "signal lengths differ: %d, %d, %d" % (est.size, tgt.size, itf.size)
        )
    tgt_energy = tgt @ tgt
    if tgt_energy == 0 and itf @ itf == 0:
        raise ValueError("target and interferer must not both be all-zero")

    if tgt_energy > 0:
        s_target = ((est @ tgt) / tgt_energy) * tgt
    else:
        s_target = np.zeros_like(est)
    basis = np.stack([tgt, itf], axis=1)
    coeffs, *_ = np.linalg.lstsq(basis, est, rcond=None)
    span_proj = basis @ coeffs
    e_interf = span_proj - s_target
    e_artif = est - span_proj
    return s_target, e_interf, e_artif


def _db_ratio(num: float, den: float) -> float:
    if num <= 0:
        return -DB_CAP
    if den <= 0:
        return DB_CAP
    return float(np.clip(10.0 * np.log10(num / den), -DB_CAP, DB_CAP))


def sdr_sir_sar(parts) -> tuple:
    """Energy-ratio scores from a decompose_estimate triple.

    Returns
    -------
    (sdr, sir, sar) : floats in dB
        sdr = target vs interference+artifact, sir = target vs
        interference, sar = target+interference vs artifact.
    """
    s_target, e_interf, e_artif = (np.asarray(p, dtype=np.float64) for p in parts)
    target_energy = float(s_target @ s_target)
    distortion = e_interf + e_artif
    sdr = _db_ratio(target_energy, float(distortion @ distortion))
    sir = _db_ratio(target_energy, float(e_interf @ e_interf))
    kept = s_target + e_interf
    sar = _db_ratio(float(kept @ kept), float(e_artif @ e_artif))
    return sdr, sir, sar


def _sdr_against(estimate: np.ndarray, target: np.ndarray) -> float:
    # SDR needs no interferer: e_interf + e_artif is the projection residual
    tgt_energy = target @ target
    if tgt_energy == 0:
        raise ValueError("target is all-zero")
    s_target = ((estimate @ target) / tgt_energy) * target
    resid = estimate - s_target
    return _db_ratio(float(s_target @ s_target), float(resid @ resid))


def nsdr(estimate, target, mixture) -> float:
    """SDR improvement of an estimate over the unprocessed mixture, dB."""
    est = _as_signal_array(estimate)
    tgt = _as_signal_array(target)
    mix = _as_signal_array(mixture)
    if not (est.size == tgt.size == mix.size):
        raise ValueError("signal lengths differ")
    return _sdr_against(est, tgt) - _sdr_against(mix, tgt)


def gnsdr(scores_and_lengths) -> float:
    """Length-weighted mean of per-clip scores.

    Parameters
    ----------
    scores_and_lengths : iterable of (score, length) pairs
        Lengths must be positive; any consistent unit works.
    """
    pairs = list(scores_and_lengths)
    if not pairs:
        raise ValueError("no clips to aggregate")
    total = 0.0
    weight = 0.0
    for score, length in pairs:
        if length <= 0:
            raise ValueError("clip lengths must be positive, got %r" % (length,))
        total += score * length
        weight += length
    return total / weight


def check_tolerance_cents(tolerance_cents: float) -> None:
    """A pitch tolerance must be positive and finite."""
    if not (np.isfinite(tolerance_cents) and tolerance_cents > 0):
        raise ValueError(
            "tolerance_cents must be positive and finite, got %r" % (tolerance_cents,)
        )


def raw_pitch_accuracy(
    estimate: F0Contour, truth: F0Contour, tolerance_cents: float = PITCH_TOLERANCE_CENTS
) -> float:
    """Fraction of voiced ground-truth frames whose estimate lies within
    tolerance_cents of the true pitch.

    Both contours are compared on a 10 ms clock by nearest frame. An
    unvoiced estimate (f0 = 0) at a voiced truth tick is a miss. A truth
    contour with no voiced frames is an error, as is a tolerance that is
    not positive and finite.
    """
    check_tolerance_cents(tolerance_cents)
    n_ticks = max(int(round(truth.duration_seconds / ALIGNMENT_TICK_SECONDS)), 1)
    truth_ticks = align_contour(truth, n_ticks, ALIGNMENT_TICK_SECONDS)
    est_ticks = align_contour(estimate, n_ticks, ALIGNMENT_TICK_SECONDS)
    keep = truth_ticks.voiced
    est_hz, truth_hz = est_ticks.f0_hz[keep], truth_ticks.f0_hz[keep]
    if truth_hz.size == 0:
        raise ValueError("ground truth has no voiced frames")
    hits = np.zeros(truth_hz.size, dtype=bool)
    sounding = est_hz > 0
    errors = 1200.0 * np.log2(est_hz[sounding] / truth_hz[sounding])
    hits[sounding] = np.abs(errors) <= tolerance_cents
    return float(np.mean(hits))


def voiced_region_mask(signal: AudioSignal, truth: F0Contour) -> AudioSignal:
    """Zero the samples of frames the ground truth marks unvoiced.

    Sample s belongs to frame floor(s / hop_samples); the final frame
    extends to the end of the signal. The contour must cover the signal
    (up to that one-frame extension).
    """
    hop_samples = int(round(truth.hop_seconds * signal.sample_rate))
    if hop_samples < 1:
        raise ValueError("contour hop is shorter than one sample")
    n = signal.samples.size
    if n > (truth.n_frames + 1) * hop_samples:
        raise ValueError(
            "contour covers %d frames of %d samples but the signal has %d samples"
            % (truth.n_frames, hop_samples, n)
        )
    frame_idx = np.minimum(np.arange(n) // hop_samples, truth.n_frames - 1)
    gated = signal.samples * truth.voiced[frame_idx]
    return AudioSignal(samples=gated, sample_rate=signal.sample_rate)


def snr_gain(target: np.ndarray, interferer: np.ndarray, snr_db: float) -> float:
    """Gain on interferer that puts the energy ratio of target to
    gain * interferer at snr_db. Energies are taken over the whole
    arrays; neither source may be silent."""
    target_energy = float(target @ target)
    interferer_energy = float(interferer @ interferer)
    if target_energy == 0 or interferer_energy == 0:
        raise ValueError("cannot set an SNR with a silent source")
    return float(np.sqrt(target_energy / (interferer_energy * 10.0 ** (snr_db / 10.0))))
