"""Checks of the benchmark itself: failed ops are counted, not fatal, and
the tracer fails loudly when a wrapped site goes quiet.

    python3 -m pytest perfbench
"""

import dataclasses

import numpy as np
import pytest

import run as bench
import spans
from vocsep import pipeline, spectrogram


def test_invalid_grid_cell_counts_as_failed(tmp_path):
    # lambda = 0 is rejected by PipelineConfig; grid_search must report
    # the cell and the benchmark must count it, not crash
    grid = bench.Grid(16000, 0.5, 2, (pipeline.GridAxis("lambda", 0.0, 0.8, 0.8),))
    assert grid.setup(tmp_path, seed=5).failed == 0
    unit = grid.unit()
    assert (unit.ops, unit.failed) == (2, 1)
    assert "lambda weights must be positive" in unit.reasons[0]


def test_raising_run_counts_as_failed(tmp_path, monkeypatch):
    sep = bench.Separate(16000, 0.5, 1)
    assert sep.setup(tmp_path, seed=5).reasons == []

    def broken(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(pipeline, "run", broken)
    unit = sep.unit()
    assert (unit.ops, unit.failed) == (1, 1)
    assert "injected" in unit.reasons[0]


def test_check_separation_flags_wrong_outputs(tmp_path):
    sep = bench.Separate(16000, 0.5, 1)
    sep.setup(tmp_path, seed=5)
    item = sep.inputs[0]
    separation, contour = pipeline.run(item.mixture, sep.cfg)
    n = item.mixture.samples.size
    assert bench.check_separation(separation, contour, item.mixture_mag, n) == []

    off_by_ulp = item.mixture_mag.copy()
    off_by_ulp[3, 7] = np.nextafter(off_by_ulp[3, 7], np.inf)
    assert bench.check_separation(separation, contour, off_by_ulp, n)

    short = dataclasses.replace(
        contour, f0_hz=contour.f0_hz[:-1], f0_cents=contour.f0_cents[:-1], voiced=contour.voiced[:-1]
    )
    assert bench.check_separation(separation, short, item.mixture_mag, n)

    separation.vocal.samples[0] = np.nan
    assert any("vocal has non-finite" in r for r in bench.check_separation(separation, contour, item.mixture_mag, n))


def test_quiet_site_fails_loudly_and_originals_come_back(short_signal):
    site = ("vocsep.spectrogram", "stft")
    original = spectrogram.stft
    quiet = spans.Tracer()
    with quiet.installed([site]):
        assert spectrogram.stft is not original
    assert spectrogram.stft is original
    with pytest.raises(RuntimeError, match="vocsep.spectrogram.stft"):
        spans.require_calls([quiet], [site])

    busy = spans.Tracer()
    with busy.installed([site]):
        spectrogram.stft(short_signal, 2048, 160)
    spans.require_calls([quiet, busy], [site])


def test_self_time_is_span_minus_children():
    t = spans.Tracer()
    t.spans = [
        spans.Span("p.run", "run", "pipeline", None, 0.0, 10.0),
        spans.Span("p.stft", "stft", "spectrogram", 0, 1.0, 3.0),
        spans.Span("p.decompose", "decompose", "rpca", 0, 4.0, 9.0),
        spans.Span("m.nsdr", "nsdr", "metrics", None, 11.0, 12.0),
        spans.Span("m.inner", "sdr", "metrics", 3, 11.2, 11.7),
    ]
    assert t.self_time("run") == pytest.approx(3.0)
    assert t.total("run") == pytest.approx(10.0)
    # nested calls within one layer count once
    assert t.layer_total("metrics") == pytest.approx(1.0)


def test_traced_run_reaches_every_site_and_yields_every_metric(tmp_path):
    sep = bench.Separate(16000, 0.5, 1)
    sep.setup(tmp_path, seed=5)
    tracer = spans.Tracer()
    with tracer.installed():
        unit = sep.unit()
    assert unit.failed == 0
    spans.require_calls([tracer], sep.sites)
    layers = spans.layer_metrics(tracer)
    declared = set(bench.declared_metrics()["per_layer"])
    assert set(layers) | {"trace.overhead_s"} == declared
    assert layers["rpca.solves"] == 1 and layers["pipeline.rpca_distinct_share"] == 1.0
    assert layers["rpca.decompose_s"] < layers["pipeline.run_s"]


@pytest.fixture
def short_signal():
    from vocsep.synth import make_clip

    return make_clip(duration_seconds=0.5, sample_rate=16000, seed=1).mixture
