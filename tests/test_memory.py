"""Peak memory of run(), estimate_f0(), magnitude(stft()) and the
tracker, and what a caller's memo holds after run(), as a multiple of
the float64 magnitude spectrogram: frames x (window_size/2 + 1) x 8
bytes."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import vocsep.pipeline as pipeline_mod
from vocsep.pipeline import PipelineConfig, estimate_f0, run
from vocsep.spectrogram import magnitude, stft
from vocsep.synth import make_clip

# Peak traced allocation above the baseline, over the magnitude's nbytes.
# The worst case measured is 5.94, run() on the 1 s 16 kHz clip, inside
# to_log_frequency: |X| (1), the Wiener and binary masks (2), the
# A-weighted vocal magnitude (1), the resampled output (0.94) and one
# block's buffers. No complex spectrum is held past the STFT. The bound
# leaves about 0.5 of margin for allocator and library differences.
PEAK_BOUND = 6.5
# The same for magnitude(stft()): |X| (1), the padded signal, and one
# block's windowed frames, transform and modulus; stft() alone holds no
# array. 2.21 measured on the 1 s 44.1 kHz clip, where a block is the
# largest share of the frames (1.45-1.47 on the 4 s clips); a complex
# spectrum held whole read 3.15-3.21.
STFT_PEAK_BOUND = 2.6
# The same for the viterbi call alone on a 1 s, 16 kHz clip, where its
# (bins x bins) transition table is about twice the magnitude's size.
VITERBI_PEAK_BOUND = 3.0


@pytest.fixture(
    scope="module",
    params=[(16000, 4.0), (44100, 4.0), (16000, 1.0), (44100, 1.0)],
    ids=["16k-2048-160", "44k-4096-441", "16k-2048-160-1s", "44k-4096-441-1s"],
)
def clip_and_cfg(request):
    sample_rate, seconds = request.param
    cfg = PipelineConfig.for_sample_rate(sample_rate)
    # 1 s is the benchmark's clip length and gives the highest multiples,
    # since the buffers of one block of frames are a larger share of a
    # short magnitude; 4 s for longer inputs
    clip = make_clip(
        duration_seconds=seconds, sample_rate=sample_rate, hop_size=cfg.hop_size, seed=7
    )
    return clip.mixture, cfg


def _mag_nbytes(signal, cfg):
    n_frames = 1 + signal.samples.size // cfg.hop_size
    return n_frames * (cfg.window_size // 2 + 1) * 8


def _peak_multiple(call, signal, cfg):
    """Peak of call() over the magnitude nbytes of signal under cfg."""
    mag_nbytes = _mag_nbytes(signal, cfg)
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - baseline) / mag_nbytes


@pytest.mark.parametrize(
    "fn,overrides",
    [(run, {}), (run, {"lambda_f0": 1.0}), (estimate_f0, {})],
    ids=["run", "run-two-solves", "estimate_f0"],
)
def test_peak_within_bound(fn, overrides, clip_and_cfg):
    signal, cfg = clip_and_cfg
    cfg = cfg.with_overrides(overrides)
    multiple = _peak_multiple(lambda: fn(signal, cfg), signal, cfg)
    assert multiple <= PEAK_BOUND, "peak %.2fx the magnitude" % multiple


def test_stft_peak_within_bound(clip_and_cfg):
    signal, cfg = clip_and_cfg
    multiple = _peak_multiple(
        lambda: magnitude(stft(signal, cfg.window_size, cfg.hop_size)), signal, cfg
    )
    assert multiple <= STFT_PEAK_BOUND, "peak %.2fx the magnitude" % multiple


def _array_nbytes(value):
    """Bytes of the ndarray fields of a memo value: a dataclass or a
    tuple of them."""
    items = value if isinstance(value, tuple) else (value,)
    return sum(
        array.nbytes
        for item in items
        for array in (getattr(item, field.name) for field in dataclasses.fields(item))
        if isinstance(array, np.ndarray)
    )


@pytest.mark.parametrize(
    "overrides,solves", [({}, 1), ({"lambda_f0": 1.0}, 2)], ids=["one-solve", "two-solves"]
)
def test_memo_hold_per_clip(overrides, solves, clip_and_cfg):
    # |X| (1), each solve's two parts (2 each) and the Wiener mask (1),
    # plus the contour: what a grid memo keeps per clip, and no more; the
    # unit phase is formed from the mixture when the resynthesis runs
    signal, cfg = clip_and_cfg
    cfg = cfg.with_overrides(overrides)
    memo = {}
    run(signal, cfg, memo=memo)
    assert [key[0] for key in memo].count("rpca") == solves
    held = sum(_array_nbytes(value) for value in memo.values())
    contour = sum(_array_nbytes(value) for key, value in memo.items() if key[0] == "contour")
    mag_nbytes = _mag_nbytes(signal, cfg)
    assert held <= (2 + 2 * solves) * mag_nbytes + contour
    assert contour < 0.01 * mag_nbytes


def test_viterbi_peak_within_bound(monkeypatch):
    cfg = PipelineConfig.for_sample_rate(16000)
    clip = make_clip(duration_seconds=1.0, sample_rate=16000, hop_size=cfg.hop_size, seed=7)
    saliencies = []
    viterbi = pipeline_mod.viterbi

    def record(saliency, *args, **kwargs):
        saliencies.append(saliency)
        return viterbi(saliency, *args, **kwargs)

    monkeypatch.setattr(pipeline_mod, "viterbi", record)
    estimate_f0(clip.mixture, cfg)
    (saliency,) = saliencies
    multiple = _peak_multiple(lambda: viterbi(saliency), clip.mixture, cfg)
    assert multiple <= VITERBI_PEAK_BOUND, "peak %.2fx the magnitude" % multiple
