"""Peak memory of run(), estimate_f0() and the tracker, as a multiple of
the float64 magnitude spectrogram: frames x (window_size/2 + 1) x 8 bytes."""

import tracemalloc

import pytest

import vocsep.pipeline as pipeline_mod
from vocsep.pipeline import PipelineConfig, estimate_f0, run
from vocsep.synth import make_clip

# Peak traced allocation above the baseline, over the magnitude's nbytes.
PEAK_BOUND = 13.0
# The same for the viterbi call alone on a 1 s, 16 kHz clip, where its
# (bins x bins) transition table is about twice the magnitude's size.
VITERBI_PEAK_BOUND = 3.0


@pytest.fixture(scope="module", params=[16000, 44100], ids=["16k-2048-160", "44k-4096-441"])
def clip_and_cfg(request):
    cfg = PipelineConfig.for_sample_rate(request.param)
    # 4 s, because the tracker's (bins x bins) tables have a fixed size,
    # several times the magnitude of a 1 s 16 kHz clip
    clip = make_clip(duration_seconds=4.0, sample_rate=request.param, hop_size=cfg.hop_size, seed=7)
    return clip.mixture, cfg


def _peak_multiple(call, signal, cfg):
    """Peak of call() over the magnitude nbytes of signal under cfg."""
    n_frames = 1 + signal.samples.size // cfg.hop_size
    mag_nbytes = n_frames * (cfg.window_size // 2 + 1) * 8
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
