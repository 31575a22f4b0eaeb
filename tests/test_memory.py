"""Peak memory of run(), estimate_f0(), magnitude(stft()), the solver,
the tracker and grid sweeps, and what a shared memo holds after run(),
as a multiple of the float64 magnitude spectrogram: frames x
(window_size/2 + 1) x 8 bytes."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import vocsep.pipeline as pipeline_mod
from vocsep import rpca
from vocsep.audio import AudioSignal, read_wav
from vocsep.pipeline import (
    GridAxis,
    GridSearchSpec,
    PipelineConfig,
    estimate_f0,
    grid_search,
    load_corpus,
    run,
)
from vocsep.spectrogram import magnitude, stft
from vocsep.synth import make_clip, write_demo_corpus

# Peak traced allocation above the baseline, over the magnitude's nbytes.
# The worst case measured is 5.12, run() on the 4 s 16 kHz clip (5.08 on
# the 1 s ones, with and without leading silence), inside combine: |X|
# (1), the Wiener mask (1), the binary mask the analysis holds until
# every contour is tracked (0.125, bool), the subharmonic summation and
# the comb enhancement (0.94 each) and their product (0.94). No complex
# spectrum is held past the STFT, and the solver keeps three work
# buffers. The bound leaves about 0.4 of margin for allocator and
# library differences. Python 3.10 keeps a call's arguments alive until
# it returns, so there separate() cannot free the vocal mask before the
# resynthesis: a run that holds the mask that way reads up to 5.44 on
# Python 3.11.
PEAK_BOUND = 5.5
# The same for magnitude(stft()): |X| (1), the padded signal, and one
# block's windowed frames, transform and modulus; stft() alone holds no
# array. 2.21 measured on the 1 s 44.1 kHz clip, where a block is the
# largest share of the frames (1.45-1.47 on the 4 s clips); a complex
# spectrum held whole read 3.15-3.21.
STFT_PEAK_BOUND = 2.6
# The same for decompose alone, past its input: the three work buffers
# (3) and the SVT's short-side Gram matrix and eigenvectors. 3.79
# measured on the 4 s 16 kHz clip, whose 401 x 401 Gram matrix is 0.39
# of the magnitude (3.32-3.57 on the others); a fourth full buffer
# would read 4.24 or more.
DECOMPOSE_PEAK_BOUND = 4.0
# The same for the viterbi call alone on 1 s, 16 kHz clips: the
# backward scores and the emissions (frames x the 381 candidate bins,
# 0.37 each) and, on a silent stretch, one block of fallback rows. 1.21
# measured without silence and 1.19 with 0.25 s of it; a (bins x bins)
# transition table read 2.21, and whole-array fallback rows 4.16.
VITERBI_PEAK_BOUND = 1.7
# The same for a grid_search sweep over two 1 s, 16 kHz clips. 6.52
# measured on lambda x w and 6.51 on lambda_sep x w (6.50-6.51 on
# lambda_f0 x w, gamma and ground-truth sweeps, and on 4 s clips), in a
# cell's scoring after its run() returns: the memo's |X| and Wiener mask
# (1 each) and clip (0.48), the run's two magnitudes and two signals
# (2.3), and the voiced-gated signals being scored. The analysis that
# fills the memo peaks at 6.44. The bound leaves about 0.5 of margin,
# as PEAK_BOUND does; a solve held in the memo through the first cell's
# resynthesis read 8.52 and 10.52.
GRID_PEAK_BOUND = 7.0

# (sample rate, seconds, seed, leading zero samples): 1 s is the
# benchmark's clip length and gives the highest multiples, since the
# buffers of one block of frames are a larger share of a short
# magnitude; 4 s for longer inputs; leading silence, whose all-zero
# frames leave the tracker's scores flat
CLIPS = [
    (16000, 4.0, 7, 0),
    (44100, 4.0, 7, 0),
    (16000, 1.0, 7, 0),
    (44100, 1.0, 7, 0),
    (16000, 1.0, 3, 4000),
    (8000, 1.5, 7, 2000),
]
CLIP_IDS = [
    "16k-2048-160", "44k-4096-441", "16k-2048-160-1s", "44k-4096-441-1s",
    "16k-2048-160-1s-silence", "8k-1024-80-silence",
]


def _clip(sample_rate, seconds, seed, zeros):
    cfg = PipelineConfig.for_sample_rate(sample_rate)
    clip = make_clip(
        duration_seconds=seconds, sample_rate=sample_rate, hop_size=cfg.hop_size, seed=seed
    )
    samples = np.concatenate([np.zeros(zeros), clip.mixture.samples])
    return AudioSignal(samples, sample_rate), cfg


@pytest.fixture(scope="module", params=CLIPS, ids=CLIP_IDS)
def clip_and_cfg(request):
    return _clip(*request.param)


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
    "overrides", [{}, {"lambda_f0": 1.0}], ids=["one-solve", "two-solves"]
)
def test_memo_hold_per_clip(overrides, clip_and_cfg):
    # |X| (1) and the Wiener mask (1), plus the contour: what a memo
    # that run() did not make holds after it, as after grid_search's
    # analysis (which adds the clip); no solve or binary mask is left,
    # and the phase is formed from the mixture when the resynthesis runs
    signal, cfg = clip_and_cfg
    cfg = cfg.with_overrides(overrides)
    memo = {}
    run(signal, cfg, _memo=memo)
    contour_key = ("contour", cfg.gamma, cfg.alpha, cfg.n_partials)
    assert set(memo) == {"stft", "wiener", contour_key}
    held = sum(_array_nbytes(value) for value in memo.values())
    contour = _array_nbytes(memo[contour_key])
    mag_nbytes = _mag_nbytes(signal, cfg)
    assert held <= 2 * mag_nbytes + contour
    assert contour < 0.01 * mag_nbytes


@pytest.fixture(scope="module")
def grid_entries(tmp_path_factory):
    """Four 1 s, 16 kHz demo clips, after a one-cell sweep over the
    first: numpy imports numpy.ma on first use, 0.7x the magnitude in
    the first sweep of a process."""
    root = tmp_path_factory.mktemp("grid")
    entries = load_corpus(write_demo_corpus(root, n_clips=4, duration_seconds=1.0))
    grid_search(entries[:1], GridSearchSpec(axes=(GridAxis("w", 30.0, 30.0, 20.0),)), PipelineConfig())
    return entries


@pytest.mark.parametrize("name", ["lambda", "lambda_sep"])
def test_grid_search_peak_within_bound(name, grid_entries):
    # no solve is held while a cell runs: the group's analysis drops
    # each one once it has the contours and the Wiener mask
    entries = grid_entries[:2]
    cfg = PipelineConfig()
    spec = GridSearchSpec(axes=(GridAxis(name, 0.8, 1.0, 0.2), GridAxis("w", 30.0, 70.0, 20.0)))
    signal = read_wav(entries[0].mixture_path)
    multiple = _peak_multiple(lambda: grid_search(entries, spec, cfg), signal, cfg)
    assert multiple <= GRID_PEAK_BOUND, "peak %.2fx the magnitude" % multiple


def test_grid_search_peak_does_not_grow_with_the_corpus(grid_entries):
    # the sweep holds one clip's memo at one RPCA setting at a time, so
    # twice the clips add no more than allocator noise to its peak; one
    # memo shared by every clip read 12.5x the magnitude over 2 clips
    # and 20.6x over 4
    entries = grid_entries
    cfg = PipelineConfig()
    spec = GridSearchSpec(
        axes=(GridAxis("lambda", 0.8, 1.0, 0.2), GridAxis("w", 30.0, 50.0, 20.0))
    )
    signal = read_wav(entries[0].mixture_path)
    two = _peak_multiple(lambda: grid_search(entries[:2], spec, cfg), signal, cfg)
    four = _peak_multiple(lambda: grid_search(entries, spec, cfg), signal, cfg)
    assert four <= two + 0.5, "peak %.2fx over 4 clips, %.2fx over 2" % (four, two)


def test_decompose_peak_within_bound(clip_and_cfg):
    signal, cfg = clip_and_cfg
    mag = magnitude(stft(signal, cfg.window_size, cfg.hop_size))
    multiple = _peak_multiple(lambda: rpca.decompose(mag.values, cfg.lambda_sep), signal, cfg)
    assert multiple <= DECOMPOSE_PEAK_BOUND, "peak %.2fx the magnitude" % multiple


@pytest.mark.parametrize(
    "clip", [(16000, 1.0, 7, 0), (16000, 1.0, 3, 4000)], ids=["16k-1s", "16k-1s-silence"]
)
def test_viterbi_peak_within_bound(clip, monkeypatch):
    signal, cfg = _clip(*clip)
    saliencies = []
    viterbi = pipeline_mod.viterbi

    def record(saliency, *args, **kwargs):
        saliencies.append(saliency)
        return viterbi(saliency, *args, **kwargs)

    monkeypatch.setattr(pipeline_mod, "viterbi", record)
    estimate_f0(signal, cfg)
    (saliency,) = saliencies
    multiple = _peak_multiple(lambda: viterbi(saliency), signal, cfg)
    assert multiple <= VITERBI_PEAK_BOUND, "peak %.2fx the magnitude" % multiple
