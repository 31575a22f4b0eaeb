"""Synthetic test material: vibrato vocal tones over repeating loops.

The generated clips exercise the full pipeline: the "vocal" is a
harmonic tone whose F0 wanders and vibrates (never repeating itself),
the "accompaniment" is an exactly repeating bar loop (chord pad, bass
pattern, percussive noise bursts), and the two mix at a chosen SNR.
Ground truth F0 is known in closed form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .audio import AudioSignal, write_wav
from .metrics import snr_gain
from .tracking import F0Contour, voiced_contour, write_f0_csv

__all__ = [
    "SyntheticClip",
    "vibrato_f0",
    "harmonic_tone",
    "loop_accompaniment",
    "mix_at_snr",
    "make_clip",
    "write_demo_corpus",
]


@dataclass(frozen=True)
class SyntheticClip:
    mixture: AudioSignal
    vocal: AudioSignal
    accompaniment: AudioSignal
    truth: F0Contour


def vibrato_f0(n_samples: int, sample_rate: int) -> np.ndarray:
    """Per-sample F0 track: 220 Hz, plus a 30 Hz drift at 0.1 Hz, plus a
    10 Hz vibrato at 2 Hz.

    The track stays within [180, 260] Hz and keeps the pitch moving:
    a line that pauses on one note for hundreds of milliseconds, or
    revisits the same note many times, starts to look like part of the
    repeating background instead of a melody. The vibrato is deeper
    than one analysis bin so even at drift turning points the spectrum
    keeps changing, and slow enough not to smear harmonics within one
    analysis window.
    """
    t = np.arange(n_samples) / sample_rate
    return (
        220.0
        + 30.0 * np.sin(2 * np.pi * (0.1 * t))
        + 10.0 * np.sin(2 * np.pi * 2.0 * t)
    )


def harmonic_tone(
    f0_track: np.ndarray,
    sample_rate: int,
    n_harmonics: int = 8,
    decay: float = 0.6,
    peak: float = 0.35,
) -> np.ndarray:
    """Sum of n_harmonics phase-continuous partials of a varying F0."""
    phase = 2 * np.pi * np.cumsum(f0_track) / sample_rate
    out = np.zeros_like(f0_track)
    for n in range(1, n_harmonics + 1):
        out += decay ** (n - 1) * np.sin(n * phase)
    return out * (peak / np.abs(out).max())


def _one_bar(bar_samples: int, sample_rate: int, rng: np.random.Generator) -> np.ndarray:
    # Sustained partials stay clear of the melody's F0 band (180-260 Hz):
    # a realistic accompaniment shares spectrum with the voice higher up
    # but does not park a steady tone on the melody fundamental itself.
    t = np.arange(bar_samples) / sample_rate
    bar = np.zeros(bar_samples)
    # sustained chord pad: D3, F#4, A4, D5 with a couple of overtones
    for hz, amp in ((146.83, 0.45), (369.99, 0.3), (440.0, 0.3), (587.33, 0.2)):
        for k, kamp in ((1, 1.0), (2, 0.4), (3, 0.2)):
            bar += amp * kamp * np.sin(2 * np.pi * hz * k * t + 0.7 * k)
    # eighth-note bass alternating A1/E2, pure sines
    n_eighths = 8
    step = bar_samples // n_eighths
    for i in range(n_eighths):
        hz = 55.0 if i % 2 == 0 else 82.41
        seg = slice(i * step, (i + 1) * step)
        env = np.exp(-6.0 * np.arange(step) / step)
        bar[seg] += 0.6 * env * np.sin(2 * np.pi * hz * np.arange(step) / sample_rate)
    # percussive noise bursts on each quarter
    burst_len = max(sample_rate // 100, 8)
    for i in range(4):
        start = i * (bar_samples // 4)
        burst = rng.standard_normal(burst_len) * np.exp(
            -8.0 * np.arange(burst_len) / burst_len
        )
        bar[start : start + burst_len] += 0.5 * burst
    return bar


def loop_accompaniment(
    n_samples: int,
    sample_rate: int,
    bars: int | None = None,
    seed: int = 0,
    peak: float = 0.35,
) -> np.ndarray:
    """Exactly repeating accompaniment: one bar tiled `bars` times.

    When `bars` is None the bar period is held near 1.0 s so longer
    clips repeat the loop more often instead of stretching it. A whole
    second also keeps repetitions aligned to 10 ms analysis frames.
    """
    if bars is None:
        bars = max(1, round(n_samples / float(sample_rate)))
    if bars < 1:
        raise ValueError("bars must be >= 1")
    bar_samples = n_samples // bars
    if bar_samples < sample_rate // 10:
        raise ValueError("bars too short to be meaningful")
    rng = np.random.default_rng(seed)
    bar = _one_bar(bar_samples, sample_rate, rng)
    out = np.tile(bar, bars + 1)[:n_samples]
    return out * (peak / np.abs(out).max())


def mix_at_snr(vocal: np.ndarray, accomp: np.ndarray, snr_db: float):
    """Scale the accompaniment so vocal/accompaniment energy hits snr_db.

    Returns (mixture, scaled_accompaniment). Energies are measured over
    the full extent of the given arrays, so pass voiced-region slices to
    target a voiced-region SNR.
    """
    scaled = snr_gain(vocal, accomp, snr_db) * accomp
    return vocal + scaled, scaled


def make_clip(
    duration_seconds: float = 10.0,
    sample_rate: int = 16000,
    hop_size: int = 160,
    snr_db: float = 0.0,
    seed: int = 0,
    n_harmonics: int = 8,
) -> SyntheticClip:
    """Build a synthetic mixture with known references and F0 truth.

    The truth contour is sampled at the STFT frame centers (hop_size
    samples apart) so it lines up with pipeline estimates.
    """
    n = int(round(duration_seconds * sample_rate))
    f0_track = vibrato_f0(n, sample_rate)
    vocal = harmonic_tone(f0_track, sample_rate, n_harmonics=n_harmonics)
    accomp = loop_accompaniment(n, sample_rate, seed=seed)
    mixture, accomp = mix_at_snr(vocal, accomp, snr_db)

    peak = np.abs(mixture).max()
    if peak > 0.98:  # keep WAV-friendly headroom without changing the SNR
        scale = 0.98 / peak
        mixture, vocal, accomp = mixture * scale, vocal * scale, accomp * scale

    n_frames = 1 + n // hop_size
    frame_samples = np.minimum(np.arange(n_frames) * hop_size, n - 1)
    truth = voiced_contour(f0_track[frame_samples], hop_size / sample_rate)
    return SyntheticClip(
        mixture=AudioSignal(mixture, sample_rate),
        vocal=AudioSignal(vocal, sample_rate),
        accompaniment=AudioSignal(accomp, sample_rate),
        truth=truth,
    )


def write_demo_corpus(
    directory,
    n_clips: int = 2,
    duration_seconds: float = 4.0,
    sample_rate: int = 16000,
    hop_size: int = 160,
    snr_db: float = 0.0,
) -> str:
    """Write clips + references + truth CSVs and a corpus manifest.

    The manifest holds absolute paths, so it can be used from any
    working directory. Returns the manifest path.
    """
    from pathlib import Path

    directory = Path(directory).resolve()
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for i in range(n_clips):
        clip = make_clip(
            duration_seconds=duration_seconds,
            sample_rate=sample_rate,
            hop_size=hop_size,
            snr_db=snr_db,
            seed=i,
        )
        clip_id = "clip%02d" % i
        paths = {
            "mixture_path": str(directory / ("%s_mix.wav" % clip_id)),
            "vocal_path": str(directory / ("%s_vocal.wav" % clip_id)),
            "accomp_path": str(directory / ("%s_accomp.wav" % clip_id)),
            "f0_path": str(directory / ("%s_f0.csv" % clip_id)),
        }
        write_wav(paths["mixture_path"], clip.mixture)
        write_wav(paths["vocal_path"], clip.vocal)
        write_wav(paths["accomp_path"], clip.accompaniment)
        write_f0_csv(clip.truth, paths["f0_path"])
        entries.append({"id": clip_id, **paths})
    manifest = directory / "manifest.json"
    with open(manifest, "w") as fh:
        json.dump(entries, fh, indent=2)
    return str(manifest)
