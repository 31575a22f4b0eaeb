"""Peak memory of run() and estimate_f0(), as a multiple of the float64
magnitude spectrogram: frames x (window_size/2 + 1) x 8 bytes."""

import tracemalloc

import pytest

from vocsep.pipeline import PipelineConfig, estimate_f0, run
from vocsep.synth import make_clip

# Peak traced allocation above the baseline, over the magnitude's nbytes.
PEAK_BOUND = 13.0


@pytest.fixture(scope="module", params=[16000, 44100], ids=["16k-2048-160", "44k-4096-441"])
def clip_and_cfg(request):
    cfg = PipelineConfig.for_sample_rate(request.param)
    # 4 s, because the tracker's (bins x bins) tables have a fixed size,
    # several times the magnitude of a 1 s 16 kHz clip
    clip = make_clip(duration_seconds=4.0, sample_rate=request.param, hop_size=cfg.hop_size, seed=7)
    return clip.mixture, cfg


def _peak_multiple(fn, signal, cfg):
    n_frames = 1 + signal.samples.size // cfg.hop_size
    mag_nbytes = n_frames * (cfg.window_size // 2 + 1) * 8
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(signal, cfg)
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
    multiple = _peak_multiple(fn, signal, cfg.with_overrides(overrides))
    assert multiple <= PEAK_BOUND, "peak %.2fx the magnitude" % multiple
