"""End-to-end separation and F0 estimation pipeline.

Stages: STFT -> low-rank/sparse split -> binary mask -> A-weighted
log-frequency vocal spectrogram -> subharmonic summation + comb
enhancement -> contour tracking -> harmonic mask -> soft mask ->
mask integration -> masked resynthesis.

run() wires the stage helpers (the STFT, the RPCA solve, the binary
mask, the contour, the Wiener mask and the vocal mask) and
resynthesizes with separate(). The helpers pass each stage function the
PipelineConfig fields it reads as plain arguments (lam, n_partials,
width_hz); the settings no caller tunes are constants of the stage
modules. Stage results go in a plain dict memo, so a stage whose inputs
repeat is computed once. A memo holds one mixture at one (window_size,
hop_size, lambda_f0, lambda_sep), so its keys name only what varies
within it: "stft", ("rpca", lam), ("binary", gamma), "wiener" and
("contour", gamma, alpha, n_partials).

One analysis, _analyse(), fills a memo in one fixed order for the
configs that share it, and the memo keeps what their runs read: |X|,
each contour and the Wiener mask. A solve or binary mask leaves once
nothing left to build reads it. run() analyses its config in a memo of
its own. grid_search analyses each clip once per RPCA setting for all
its cells, with the clip itself under "clip", and passes that memo
through evaluate() to each cell's run(), which then costs the harmonic
mask, the integration and the resynthesis. No stage writes into an
array it got from the memo.

Every stage releases its intermediates after their last use. No complex
spectrum is held: stft returns a lazy spectrogram.Stft of the mixture,
the STFT stage keeps only its |X|, and the resynthesis inverts the
vocal magnitude with the mixture's own phase, formed a block of frames
at a time from a fresh transform of the mixture's frames. The STFT, the
log-frequency resampling, the subharmonic summation, the comb
enhancement, the Wiener and binary masks and the resynthesis work a
block of frames at a time. That keeps the peak of run() at about 5
times the float64 magnitude spectrogram, and that of a grid sweep at
about 6.5 (tests/test_memory.py bounds them at 5.5 and 7.0).

Also hosts corpus evaluation (with optional SNR remixing from the
references, reading each clip once for every SNR) and grid search over
pipeline parameters.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import logging
import numbers
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import rpca
from .audio import AudioSignal, read_wav
from .masks import (
    SeparationResult,
    binary_mask,
    harmonic_mask,
    integrate_binary,
    integrate_soft,
    separate,
    wiener_mask,
)
from .metrics import (
    PITCH_TOLERANCE_CENTS,
    check_tolerance_cents,
    decompose_estimate,
    gnsdr,
    nsdr,
    raw_pitch_accuracy,
    sdr_sir_sar,
    snr_gain,
    voiced_region_mask,
)
from .report import mask_to_csv, mask_to_pgm, saliency_to_csv, trace_to_csv
from .saliency import combine, f0_enhancement, shs
from .spectrogram import apply_a_weighting, magnitude, stft, to_log_frequency
from .tracking import F0Contour, align_contour, read_f0_csv, viterbi, voiced_contour

logger = logging.getLogger(__name__)

__all__ = [
    "PipelineConfig",
    "GridAxis",
    "GridSearchSpec",
    "CorpusEntry",
    "run",
    "estimate_f0",
    "evaluate",
    "grid_search",
    "load_corpus",
    "align_contour",
]

@dataclass(frozen=True)
class PipelineConfig:
    """The pipeline tunables. Defaults are the 16 kHz settings; use
    for_sample_rate() to pick the right geometry for a signal.

    lambda_sep and lambda_f0 weight the sparse term for the separation
    and F0-estimation decompositions; gamma sets the binary mask
    threshold; n_partials, w and alpha control the partial count (of
    both the subharmonic summation and the harmonic mask), the harmonic
    mask lobe width, and the enhancement exponent. Every other setting
    is a module constant: the F0 range and transition prior in
    tracking, the log-frequency grid's defaults in spectrogram, the SHS
    decay in saliency, the Tukey shape in masks, and the solver
    tolerance and iteration cap in rpca.

    The int fields take whole numbers only (160.0 is stored as 160) and
    the other numeric fields take finite numbers. The lambdas and w must
    be positive, gamma and alpha nonnegative and n_partials at least 1.
    Anything else is a ValueError, raised before any stage runs.
    """

    window_size: int = 2048
    hop_size: int = 160
    lambda_sep: float = 0.8
    lambda_f0: float = 0.8
    gamma: float = 1.0
    n_partials: int = 10
    w: float = 50.0
    alpha: float = 0.6
    mask_mode: str = "soft"

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            number = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if field.type == "int":
                if not number or not (
                    isinstance(value, numbers.Integral) or float(value).is_integer()
                ):
                    raise ValueError(
                        "%s must be a whole number, got %r" % (field.name, value)
                    )
                object.__setattr__(self, field.name, int(value))
            elif field.type == "float":
                if not number:
                    raise ValueError("%s must be a number, got %r" % (field.name, value))
                if not np.isfinite(value):
                    raise ValueError("%s must be finite, got %r" % (field.name, value))
        if self.mask_mode not in ("soft", "binary"):
            raise ValueError("mask_mode must be 'soft' or 'binary'")
        # the stages check these too, for callers outside the pipeline;
        # checking here fails a run before its first solve
        if self.lambda_sep <= 0 or self.lambda_f0 <= 0:
            raise ValueError("lambda weights must be positive")
        if self.w <= 0:
            raise ValueError("w must be positive")
        if self.n_partials < 1:
            raise ValueError("n_partials must be >= 1")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")

    @classmethod
    def for_sample_rate(cls, sample_rate: int) -> "PipelineConfig":
        """The field defaults up to 32 kHz; above, 4096/441 with 20
        partials and 70 Hz lobes."""
        if sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if sample_rate <= 32000:
            return cls()
        return cls(window_size=4096, hop_size=441, n_partials=20, w=70.0)

    def with_overrides(self, overrides: dict) -> "PipelineConfig":
        """Replace fields from a {field_name: value} mapping; unknown
        names are an error."""
        known = {f.name for f in dataclasses.fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise ValueError("unknown config fields: %s" % (sorted(unknown),))
        return dataclasses.replace(self, **overrides)

    @classmethod
    def from_json(cls, path, sample_rate: int) -> "PipelineConfig":
        """The for_sample_rate() defaults with overrides from a JSON
        object whose keys mirror the PipelineConfig field names."""
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config JSON must be an object of field overrides")
        return cls.for_sample_rate(sample_rate).with_overrides(data)


def _stft_stage(signal: AudioSignal, cfg: PipelineConfig, memo: dict):
    """The mixture's STFT magnitude |X|, computed once per memo; the
    memo keeps no other part of the STFT. separate() forms the mixture's
    phase from a fresh stft of the mixture when it resynthesizes."""
    if "stft" not in memo:
        mag = magnitude(stft(signal, cfg.window_size, cfg.hop_size))
        logger.info("stft: %d frames x %d bins", mag.n_frames, mag.n_bins)
        memo["stft"] = mag
    return memo["stft"]


def _rpca_stage(mag, lam: float, memo: dict, stage: str):
    """Low-rank/sparse split of the magnitude at sparsity weight lam."""
    key = ("rpca", lam)
    if key not in memo:
        t0 = time.perf_counter()
        memo[key] = rpca.decompose(mag.values, lam)
        _log_rpca(stage, memo[key], t0)
    return memo[key]


def _soft_stage(mag, cfg: PipelineConfig, memo: dict):
    """The Wiener mask of the lambda_sep split, stored next to it."""
    if "wiener" not in memo:
        memo["wiener"] = wiener_mask(_rpca_stage(mag, cfg.lambda_sep, memo, "rpca[sep]"))
    return memo["wiener"]


def _dump_dir(path) -> Path | None:
    """The debug dump directory, created if missing; None for no dumps."""
    if path is not None:
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
    return path


def _binary_stage(mag, cfg: PipelineConfig, memo: dict, dump_dir=None):
    """The binary mask of the lambda_f0 split at gamma, the contour's
    only use of that split. Debug artifacts are written when the mask is
    computed, not on a memo hit."""
    key = ("binary", cfg.gamma)
    if key not in memo:
        decomposition = _rpca_stage(mag, cfg.lambda_f0, memo, "rpca[f0]")
        memo[key] = binary_mask(decomposition, cfg.gamma)
        if dump_dir is not None:
            trace_to_csv(decomposition, dump_dir / "rpca_trace.csv")
            mask_to_pgm(memo[key], dump_dir / "binary_rpca.pgm")
    return memo[key]


def _contour_key(cfg: PipelineConfig) -> tuple:
    return ("contour", cfg.gamma, cfg.alpha, cfg.n_partials)


def _contour_stage(mag, cfg: PipelineConfig, memo: dict, dump_dir=None) -> F0Contour:
    """F0 contour from the binary mask of the lambda_f0 split. Frames
    whose binary-masked vocal spectrogram is identically zero come back
    unvoiced. saliency.csv is written when the contour is computed, not
    on a memo hit. Each intermediate is released after its last use.
    """
    key = _contour_key(cfg)
    if key in memo:
        return memo[key]
    mask_b = _binary_stage(mag, cfg, memo, dump_dir)
    vocal_mag = dataclasses.replace(mag, values=mask_b.values * mag.values)
    sounding = vocal_mag.values.max(axis=1) > 0
    weighted = apply_a_weighting(vocal_mag)
    del vocal_mag
    logspec = to_log_frequency(weighted)
    del weighted
    summation = shs(logspec, cfg.n_partials)
    del logspec
    enhancement = f0_enhancement(mask_b, mag.nyquist_hz, mag.hop_seconds)
    del mask_b
    saliency = combine(summation, enhancement, cfg.alpha)
    del summation, enhancement
    if dump_dir is not None:
        saliency_to_csv(saliency, dump_dir / "saliency.csv")
    contour = viterbi(saliency)

    if not sounding.all():
        contour = voiced_contour(np.where(sounding, contour.f0_hz, 0.0), contour.hop_seconds)
    memo[key] = contour
    return contour


def _mask_stage(mag, contour: F0Contour, soft, cfg: PipelineConfig, dump_dir=None):
    """The vocal mask: the Wiener mask soft times the harmonic mask,
    binarised in binary mode."""
    harmonic = harmonic_mask(contour, mag, cfg.n_partials, cfg.w)
    integrated = integrate_soft(soft, harmonic)
    if cfg.mask_mode == "binary":
        integrated = integrate_binary(integrated)
    if dump_dir is not None:
        mask_to_pgm(soft, dump_dir / "wiener.pgm")
        mask_to_pgm(harmonic, dump_dir / "harmonic.pgm")
        mask_to_csv(integrated, dump_dir / "integrated.csv")
    return integrated


def _analyse(
    signal: AudioSignal, cfgs: list, contours: bool, memo: dict, dump_dir=None
) -> None:
    """Fill a memo of one mixture at one RPCA setting with what run()
    reads of it at each of cfgs but the harmonic mask: |X|, with
    contours each cfg's contour, and the Wiener mask.

    The order is fixed so that each solve and binary mask leaves as soon
    as nothing left here reads it, and a clean analysis leaves only
    "stft", the contours and "wiener"; with equal lambdas the Wiener
    mask is built before the shared solve goes. A stage that raises
    leaves all built so far, so a later analysis meets the error again
    without solving again.
    """
    cfg = cfgs[0]
    mag = _stft_stage(signal, cfg, memo)
    missing = [c for c in cfgs if contours and _contour_key(c) not in memo]
    for cell_cfg in missing:
        _binary_stage(mag, cell_cfg, memo, dump_dir)
    if cfg.lambda_f0 == cfg.lambda_sep:
        _soft_stage(mag, cfg, memo)
    memo.pop(("rpca", cfg.lambda_f0), None)
    for cell_cfg in missing:
        _contour_stage(mag, cell_cfg, memo, dump_dir)
    for cell_cfg in missing:
        memo.pop(("binary", cell_cfg.gamma), None)
    _soft_stage(mag, cfg, memo)
    memo.pop(("rpca", cfg.lambda_sep), None)


def estimate_f0(
    signal: AudioSignal, cfg: PipelineConfig, dump_dir: str | Path | None = None
) -> F0Contour:
    """Estimate the vocal F0 contour of a mixture (the STFT and contour
    stages of run()). With dump_dir, writes rpca_trace.csv, saliency.csv
    and binary_rpca.pgm there."""
    dump_dir = _dump_dir(dump_dir)
    memo = {}
    mag = _stft_stage(signal, cfg, memo)
    _binary_stage(mag, cfg, memo, dump_dir)
    del memo["rpca", cfg.lambda_f0]  # the contour reads only the binary mask
    return _contour_stage(mag, cfg, memo, dump_dir)


def _log_rpca(stage, result, t0):
    logger.info(
        "%s: %d iterations, residual %.2e%s (%.2fs)",
        stage, result.iterations, result.final_residual,
        "" if result.converged else " [not converged]",
        time.perf_counter() - t0,
    )


def run(
    signal: AudioSignal,
    cfg: PipelineConfig | None = None,
    ground_truth_f0: F0Contour | None = None,
    dump_dir: str | Path | None = None,
    *,
    _memo: dict | None = None,
):
    """Separate a mixture and estimate its vocal F0.

    Parameters
    ----------
    signal : AudioSignal
        Mono mixture.
    cfg : PipelineConfig, optional
        Defaults to the geometry for the signal's sample rate.
    ground_truth_f0 : F0Contour, optional
        Skip F0 estimation and build the harmonic mask from this
        contour instead (align it with align_contour first).
    dump_dir : str or Path, optional
        Directory for debug artifacts, created if missing:
        rpca_trace.csv (the lambda_f0 solve), saliency.csv and
        binary_rpca.pgm from the contour stage; wiener.pgm,
        harmonic.pgm and integrated.csv from the mask stage.
    _memo : dict, optional
        grid_search's memo of this mixture at this cfg's window_size,
        hop_size and lambdas, which its keys do not record, filled by
        _analyse(). run() analyses only what it lacks, so it adds the
        harmonic mask alone. Stages taken from it write no debug
        artifacts, and nothing in it is written to. Without it, run()
        analyses in a memo of its own.

    Returns
    -------
    (SeparationResult, F0Contour)
    """
    if cfg is None:
        cfg = PipelineConfig.for_sample_rate(signal.sample_rate)
    # a memo of run()'s own hands its Wiener mask to the mask stage as
    # the only reference, so that the mask goes before the resynthesis
    memo, take = ({}, dict.pop) if _memo is None else (_memo, dict.get)
    dump_dir = _dump_dir(dump_dir)
    t_start = time.perf_counter()
    mag = _stft_stage(signal, cfg, memo)
    if ground_truth_f0 is not None and ground_truth_f0.n_frames != mag.n_frames:
        raise ValueError(
            "ground-truth contour has %d frames, expected %d; align it "
            "with align_contour()" % (ground_truth_f0.n_frames, mag.n_frames)
        )
    _analyse(signal, [cfg], ground_truth_f0 is None, memo, dump_dir)
    contour = memo[_contour_key(cfg)] if ground_truth_f0 is None else ground_truth_f0
    # separate() gets the only reference to the vocal mask, and lets it
    # go before the resynthesis
    result = separate(
        signal, mag, _mask_stage(mag, contour, take(memo, "wiener"), cfg, dump_dir)
    )
    logger.info("pipeline done (%.2fs total)", time.perf_counter() - t_start)
    return result, contour


# ---------------------------------------------------------------------------
# corpus evaluation


@dataclass(frozen=True)
class CorpusEntry:
    """One manifest row; paths to the mixture, references, and truth."""

    clip_id: str
    mixture_path: str
    vocal_path: str
    accomp_path: str
    f0_path: str


def load_corpus(manifest_path) -> list:
    """Read a corpus manifest: a JSON list of {id, mixture_path,
    vocal_path, accomp_path, f0_path} objects."""
    with open(manifest_path) as fh:
        data = json.load(fh)
    if not isinstance(data, list) or not data:
        raise ValueError("manifest must be a non-empty JSON list")
    entries = []
    for row in data:
        try:
            entries.append(
                CorpusEntry(
                    clip_id=str(row["id"]),
                    mixture_path=row["mixture_path"],
                    vocal_path=row["vocal_path"],
                    accomp_path=row["accomp_path"],
                    f0_path=row["f0_path"],
                )
            )
        except (KeyError, TypeError) as exc:
            raise ValueError("bad manifest row %r: %s" % (row, exc)) from exc
    return entries


class _Clip(NamedTuple):
    """A clip's mixture, references and truth contour. The mixture is
    None in a clip read to be remixed from its references."""

    mixture: AudioSignal | None
    vocal: AudioSignal
    accomp: AudioSignal
    truth: F0Contour


def _read_clip(entry: CorpusEntry, remix: bool) -> _Clip:
    """Read a clip's references and truth, and its mixture unless remix."""
    ref_vocal = read_wav(entry.vocal_path)
    ref_accomp = read_wav(entry.accomp_path)
    truth = read_f0_csv(entry.f0_path)
    if ref_vocal.sample_rate != ref_accomp.sample_rate:
        raise ValueError("reference sample rates differ for %s" % entry.clip_id)
    mixture = None if remix else read_wav(entry.mixture_path)
    return _Clip(mixture, ref_vocal, ref_accomp, truth)


def _mix_clip(entry: CorpusEntry, clip: _Clip, snr_db: float | None) -> _Clip:
    """The clip to score: with snr_db, its references remixed at that
    SNR, measured over voiced samples; otherwise its own mixture. The
    signals are trimmed to their common length."""
    mixture, ref_vocal, ref_accomp, truth = clip
    if snr_db is not None:
        gain = snr_gain(
            voiced_region_mask(ref_vocal, truth).samples,
            voiced_region_mask(ref_accomp, truth).samples,
            snr_db,
        )
        ref_accomp = AudioSignal(ref_accomp.samples * gain, ref_accomp.sample_rate)
        mixture = AudioSignal(
            ref_vocal.samples + ref_accomp.samples, ref_vocal.sample_rate
        )
    if mixture.sample_rate != ref_vocal.sample_rate:
        raise ValueError("mixture sample rate differs for %s" % entry.clip_id)
    n = min(mixture.samples.size, ref_vocal.samples.size, ref_accomp.samples.size)
    return _Clip(
        *(AudioSignal(s.samples[:n], s.sample_rate) for s in (mixture, ref_vocal, ref_accomp)),
        truth,
    )


def _score_clip(
    entry: CorpusEntry,
    clip: _Clip,
    cfg: PipelineConfig,
    tolerance_cents: float,
    use_ground_truth_f0: bool,
    memo: dict | None,
) -> dict:
    """Separate a mixed clip (see _mix_clip) and score it; returns a
    per-clip report dict. memo is passed on to run()."""
    mixture, ref_vocal, ref_accomp, truth = clip
    n = mixture.samples.size
    gt = None
    if use_ground_truth_f0:
        n_frames = 1 + n // cfg.hop_size
        gt = align_contour(truth, n_frames, cfg.hop_size / mixture.sample_rate)
    separation, contour = run(mixture, cfg, ground_truth_f0=gt, _memo=memo)

    gated = {
        "est_vocal": voiced_region_mask(separation.vocal, truth),
        "est_accomp": voiced_region_mask(separation.accompaniment, truth),
        "ref_vocal": voiced_region_mask(ref_vocal, truth),
        "ref_accomp": voiced_region_mask(ref_accomp, truth),
        "mixture": voiced_region_mask(mixture, truth),
    }

    def _score(est, ref, other):
        parts = decompose_estimate(gated[est], gated[ref], gated[other])
        sdr, sir, sar = sdr_sir_sar(parts)
        improvement = nsdr(gated[est], gated[ref], gated["mixture"])
        return {"sdr": sdr, "sir": sir, "sar": sar, "nsdr": improvement}

    return {
        "id": entry.clip_id,
        "length_seconds": n / mixture.sample_rate,
        "vocal": _score("est_vocal", "ref_vocal", "ref_accomp"),
        "accompaniment": _score("est_accomp", "ref_accomp", "ref_vocal"),
        "raw_pitch_accuracy": raw_pitch_accuracy(contour, truth, tolerance_cents),
    }


def _clip_failure(entry: CorpusEntry, exc: Exception) -> dict:
    """The report entry of a clip that raised exc."""
    logger.warning("clip %s failed: %s", entry.clip_id, exc)
    return {"id": entry.clip_id, "error": "%s: %s" % (type(exc).__name__, exc)}


def _aggregate(clips: list) -> dict:
    scored = [c for c in clips if "error" not in c]
    section = {
        "clips": clips,
        "n_clips": len(clips),
        "n_failed": len(clips) - len(scored),
    }
    if scored:
        lengths = [c["length_seconds"] for c in scored]
        for source in ("vocal", "accompaniment"):
            pairs = lambda key: [
                (c[source][key], l) for c, l in zip(scored, lengths)
            ]
            section[source] = {
                "gnsdr": gnsdr(pairs("nsdr")),
                "gsir": gnsdr(pairs("sir")),
                "gsar": gnsdr(pairs("sar")),
            }
        section["raw_pitch_accuracy_mean"] = float(
            np.mean([c["raw_pitch_accuracy"] for c in scored])
        )
        section["total_seconds"] = float(sum(lengths))
    return section


def _check_scoring(workers: int, tolerance_cents: float) -> None:
    """Reject arguments that would fail every clip, before any clip runs."""
    if workers != 1:
        raise ValueError("workers must be 1, got %r: clips are scored serially" % (workers,))
    check_tolerance_cents(tolerance_cents)


def evaluate(
    entries: list,
    cfg: PipelineConfig,
    snr_list: list | None = None,
    tolerance_cents: float = PITCH_TOLERANCE_CENTS,
    workers: int = 1,
    use_ground_truth_f0: bool = False,
    *,
    _memo: dict | None = None,
) -> dict:
    """Score a corpus: per-clip SDR/SIR/SAR/NSDR for both sources, raw
    pitch accuracy, and length-weighted global aggregates.

    With snr_list, the mixtures are remixed from the references at each
    SNR (dB, measured over voiced samples) and the report contains one
    section per SNR; otherwise the manifest mixtures are scored
    directly. snr_list must not be empty, and each SNR must be finite.
    Clip failures are recorded per clip, never fatal. Clips are scored
    one after another, and each is read once and then mixed at each SNR
    in turn, so only one clip is held at a time. _memo is grid_search's
    analysed memo of one clip at one RPCA setting: evaluate() takes the clip
    from it, as _read_clip read it, when it holds one under "clip", and
    passes it on to run(). No other caller passes one.

    workers must be 1; any other value is a ValueError. The keyword
    goes once the benchmark harness stops passing workers=1.
    """
    if not entries:
        raise ValueError("empty corpus")
    _check_scoring(workers, tolerance_cents)
    snrs = list(snr_list) if snr_list is not None else [None]
    if not snrs:
        raise ValueError("snr_list is empty; pass None to score the manifest mixtures")
    if snr_list is not None and not np.all(np.isfinite(snrs)):
        raise ValueError("SNRs must be finite, got %r" % (snrs,))
    sections = [[] for _ in snrs]
    for entry in entries:
        # one clip at a time, read once and mixed at each SNR
        try:
            if _memo is not None and "clip" in _memo:
                clip = _memo["clip"]
            else:
                clip = _read_clip(entry, remix=snr_list is not None)
        except Exception as exc:  # per-clip failures must not sink the corpus
            for clips in sections:
                clips.append(_clip_failure(entry, exc))
            continue
        for snr_db, clips in zip(snrs, sections):
            try:
                clips.append(
                    _score_clip(
                        entry, _mix_clip(entry, clip, snr_db), cfg, tolerance_cents,
                        use_ground_truth_f0, _memo,
                    )
                )
            except Exception as exc:
                clips.append(_clip_failure(entry, exc))
    sections = [_aggregate(clips) for clips in sections]

    if snr_list is None:
        report = sections[0]
    else:
        report = {
            "sections": [
                {"snr_db": snr_db, **section} for snr_db, section in zip(snrs, sections)
            ]
        }
    report["config"] = dataclasses.asdict(cfg)
    return report


# ---------------------------------------------------------------------------
# grid search


@dataclass(frozen=True)
class GridAxis:
    """Inclusive swept range for one config field.

    name may be any numeric PipelineConfig field, or "lambda" to sweep
    lambda_sep and lambda_f0 together. The integer fields (window_size,
    hop_size, n_partials) take only whole values; a fractional one makes
    its cell fail. start, stop and step must be finite, and the range may
    hold no more steps than a Python list can (sys.maxsize).
    """

    name: str
    start: float
    stop: float
    step: float

    def __post_init__(self):
        for name in ("start", "stop", "step"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError("%s must be finite, got %r" % (name, value))
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.stop < self.start:
            raise ValueError("stop must be >= start")
        steps = (self.stop - self.start) / self.step
        if not steps < sys.maxsize:  # also an overflow to inf
            raise ValueError(
                "axis %r spans %r steps of %r, more values than a list can hold"
                % (self.name, steps, self.step)
            )

    def values(self) -> list:
        # floored (int() of a nonnegative ratio), so no value passes
        # stop; the slack keeps the last point of a range that the step
        # divides up to rounding
        count = int((self.stop - self.start) / self.step + 1e-9) + 1
        return [round(self.start + k * self.step, 10) for k in range(count)]


def _axis_fields(name: str) -> tuple:
    """The config fields an axis sets: "lambda" sets both weights."""
    return ("lambda_sep", "lambda_f0") if name == "lambda" else (name,)


# The names an axis may take: "lambda" and the numeric config fields.
_AXIS_NAMES = ("lambda",) + tuple(
    f.name for f in dataclasses.fields(PipelineConfig) if f.type in ("int", "float")
)


@dataclass(frozen=True)
class GridSearchSpec:
    """Axes to sweep and the objective to record ("gnsdr" on the vocal
    estimate, or "rpa"). Each axis is named "lambda", which sets
    lambda_sep and lambda_f0, or after a numeric PipelineConfig field,
    and no two axes may set the same config field. "rpa" with
    use_ground_truth_f0 is rejected: run() then returns the truth
    contour, which scores itself."""

    axes: tuple
    objective: str = "gnsdr"
    use_ground_truth_f0: bool = False

    def __post_init__(self):
        if not self.axes:
            raise ValueError("grid search needs at least one axis")
        if self.objective not in ("gnsdr", "rpa"):
            raise ValueError("objective must be 'gnsdr' or 'rpa'")
        if self.objective == "rpa" and self.use_ground_truth_f0:
            raise ValueError(
                "objective 'rpa' cannot rank cells that use the ground-truth f0: "
                "each cell's contour is the truth itself"
            )
        object.__setattr__(self, "axes", tuple(self.axes))
        unknown = [axis.name for axis in self.axes if axis.name not in _AXIS_NAMES]
        if unknown:
            raise ValueError(
                "unknown grid axes %s; an axis is one of %s" % (unknown, ", ".join(_AXIS_NAMES))
            )
        fields = [field for axis in self.axes for field in _axis_fields(axis.name)]
        if len(set(fields)) < len(fields):
            raise ValueError("axes %s set a config field twice" % ([a.name for a in self.axes],))


def _apply_axes(cfg: PipelineConfig, names, values) -> PipelineConfig:
    overrides = {}
    for name, value in zip(names, values):
        overrides.update(dict.fromkeys(_axis_fields(name), value))
    return cfg.with_overrides(overrides)


def grid_search(
    entries: list,
    spec: GridSearchSpec,
    cfg: PipelineConfig,
    tolerance_cents: float = PITCH_TOLERANCE_CENTS,
    workers: int = 1,
) -> list:
    """Sweep the axes' cartesian product, scoring the corpus per cell.

    Returns one dict per cell, in the order of the product: axis values,
    the objective value (None if every clip failed), and the per-cell
    failure count. Each cell's scores are those of evaluate() on the
    whole corpus at the cell's config. A cell whose config is invalid
    fails before any clip is read, and a failing cell never aborts the
    sweep. An empty corpus is a ValueError.

    Clips run one at a time, and each is read once. Within a clip, the
    cells that share RPCA settings (window_size, hop_size and both
    lambdas) form a group with one memo. Before the group's first cell
    the memo gets the clip, under "clip", and _analyse() of all the
    group's configs, which leaves what the cells read: |X|, every
    contour and the Wiener mask. Each cell's evaluate() then takes the
    clip from the memo, and its run() adds only the harmonic mask, the
    integration and the resynthesis. So each clip is solved once per
    setting whatever the order of the axes, and no solve is held while a
    cell runs. An analysis that raises leaves what it built, and each
    cell meets the error again without solving again. The memo's keys
    record neither the clip nor these settings, so this grouping is what
    keeps one clip's or one setting's results from serving another. The
    memo goes before the next setting, so the sweep holds one clip's
    memo at one RPCA setting, however large the corpus. A clip that
    fails to read goes in no memo: each cell reads it again and records
    the error as evaluate() does.

    workers must be 1, as in evaluate(), and goes with its keyword there.
    """
    if not entries:
        raise ValueError("empty corpus")
    _check_scoring(workers, tolerance_cents)
    names = [axis.name for axis in spec.axes]
    combos = list(itertools.product(*(axis.values() for axis in spec.axes)))
    logger.info("grid search: %d cells over axes %s", len(combos), names)
    cells, groups = [], {}
    for combo in combos:
        cell = dict(zip(names, combo))
        cells.append(cell)
        try:
            cell_cfg = _apply_axes(cfg, names, combo)
        except ValueError as exc:  # record and continue the sweep
            logger.warning("grid cell %s failed: %s", cell, exc)
            cell["value"] = None
            cell["n_failed"] = len(entries)
            cell["error"] = "%s: %s" % (type(exc).__name__, exc)
            continue
        settings = (
            cell_cfg.window_size, cell_cfg.hop_size, cell_cfg.lambda_f0, cell_cfg.lambda_sep
        )
        groups.setdefault(settings, []).append((cell, cell_cfg, []))
    if not groups:  # every cell is invalid: read no clip
        return cells

    for entry in entries:
        try:
            clip = _read_clip(entry, remix=False)
            mixture = _mix_clip(entry, clip, None).mixture
        except Exception:  # each cell reads the clip itself and records the error
            clip = None
        for group in groups.values():
            memo = {}
            if clip is not None:
                memo["clip"] = clip
                cfgs = [cell_cfg for _, cell_cfg, _ in group]
                try:
                    _analyse(mixture, cfgs, not spec.use_ground_truth_f0, memo)
                except Exception:  # left to the cells, which find what it made so far
                    pass
            for _, cell_cfg, clips in group:
                report = evaluate(
                    [entry],
                    cell_cfg,
                    tolerance_cents=tolerance_cents,
                    use_ground_truth_f0=spec.use_ground_truth_f0,
                    _memo=memo,
                )
                clips.extend(report["clips"])

    for group in groups.values():
        for cell, _, clips in group:
            section = _aggregate(clips)
            if spec.objective == "gnsdr":
                cell["value"] = section.get("vocal", {}).get("gnsdr")
            else:
                cell["value"] = section.get("raw_pitch_accuracy_mean")
            cell["n_failed"] = section["n_failed"]
    return cells
