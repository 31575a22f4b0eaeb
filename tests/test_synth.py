"""Synthetic clip generator used by the end-to-end tests."""

import json
from pathlib import Path

import numpy as np
import pytest

from vocsep.audio import read_wav
from vocsep.pipeline import PipelineConfig, evaluate, load_corpus
from vocsep.synth import (
    harmonic_tone,
    loop_accompaniment,
    make_clip,
    mix_at_snr,
    vibrato_f0,
    write_demo_corpus,
)
from vocsep.tracking import read_f0_csv


class TestVibratoF0:
    def test_stays_inside_band(self):
        track = vibrato_f0(160000, 16000)
        assert track.min() >= 180.0
        assert track.max() <= 260.0

    def test_keeps_moving(self):
        # no 200 ms stretch sits still: the vibrato alone spans several Hz
        track = vibrato_f0(160000, 16000)
        for start in range(0, 160000 - 3200, 3200):
            window = track[start : start + 3200]
            assert window.max() - window.min() > 2.0

    def test_length(self):
        assert vibrato_f0(1234, 16000).size == 1234


class TestHarmonicTone:
    def test_peak_normalized(self):
        track = vibrato_f0(16000, 16000)
        tone = harmonic_tone(track, 16000, peak=0.35)
        assert np.abs(tone).max() == pytest.approx(0.35)

    def test_single_harmonic_is_a_sine(self):
        track = np.full(16000, 100.0)
        tone = harmonic_tone(track, 16000, n_harmonics=1, peak=1.0)
        # 100 Hz fits 100 cycles in one second; count zero crossings
        crossings = np.sum(np.diff(np.signbit(tone)))
        assert abs(int(crossings) - 200) <= 2


class TestLoopAccompaniment:
    def test_exactly_periodic(self):
        out = loop_accompaniment(32000, 16000)
        np.testing.assert_array_equal(out[:16000], out[16000:])

    def test_three_second_clip_repeats_three_times(self):
        out = loop_accompaniment(48000, 16000)
        np.testing.assert_array_equal(out[:16000], out[16000:32000])
        np.testing.assert_array_equal(out[:16000], out[32000:])

    def test_peak_normalized(self):
        out = loop_accompaniment(32000, 16000, peak=0.35)
        assert np.abs(out).max() == pytest.approx(0.35)

    def test_seed_changes_bursts(self):
        a = loop_accompaniment(16000, 16000, seed=0)
        b = loop_accompaniment(16000, 16000, seed=1)
        assert not np.array_equal(a, b)

    def test_too_many_bars_rejected(self):
        with pytest.raises(ValueError):
            loop_accompaniment(16000, 16000, bars=11)

    def test_zero_bars_rejected(self):
        with pytest.raises(ValueError):
            loop_accompaniment(16000, 16000, bars=0)


class TestMixAtSnr:
    @pytest.mark.parametrize("snr_db", [-5.0, 0.0, 5.0])
    def test_hits_requested_ratio(self, rng, snr_db):
        vocal = rng.standard_normal(8000)
        accomp = 3.0 * rng.standard_normal(8000)
        mixture, scaled = mix_at_snr(vocal, accomp, snr_db)
        measured = 10.0 * np.log10((vocal @ vocal) / (scaled @ scaled))
        assert measured == pytest.approx(snr_db, abs=1e-9)
        np.testing.assert_array_equal(mixture, vocal + scaled)

    def test_silent_source_rejected(self, rng):
        with pytest.raises(ValueError):
            mix_at_snr(np.zeros(100), rng.standard_normal(100), 0.0)
        with pytest.raises(ValueError):
            mix_at_snr(rng.standard_normal(100), np.zeros(100), 0.0)


class TestMakeClip:
    def test_parts_sum_to_mixture(self, short_clip):
        total = short_clip.vocal.samples + short_clip.accompaniment.samples
        np.testing.assert_allclose(short_clip.mixture.samples, total, atol=1e-12)

    def test_truth_geometry(self, short_clip):
        n = short_clip.mixture.samples.size
        assert short_clip.truth.n_frames == 1 + n // 160
        assert short_clip.truth.hop_seconds == pytest.approx(0.01)
        assert np.all(short_clip.truth.voiced)
        assert short_clip.truth.f0_hz.min() >= 180.0
        assert short_clip.truth.f0_hz.max() <= 260.0

    def test_headroom(self, short_clip):
        assert np.abs(short_clip.mixture.samples).max() <= 0.98 + 1e-9

    def test_snr_preserved_after_rescale(self):
        clip = make_clip(duration_seconds=2.0, snr_db=5.0, seed=3)
        v = clip.vocal.samples
        a = clip.accompaniment.samples
        assert 10.0 * np.log10((v @ v) / (a @ a)) == pytest.approx(5.0, abs=1e-9)

    def test_deterministic(self):
        a = make_clip(duration_seconds=2.0, seed=4)
        b = make_clip(duration_seconds=2.0, seed=4)
        np.testing.assert_array_equal(a.mixture.samples, b.mixture.samples)
        np.testing.assert_array_equal(a.truth.f0_hz, b.truth.f0_hz)


class TestWriteDemoCorpus:
    def test_relative_directory_evaluates_from_elsewhere(self, tmp_path, monkeypatch):
        (tmp_path / "build").mkdir()
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "build")
        manifest = write_demo_corpus("corpus", n_clips=1, duration_seconds=1.0)
        with open(manifest) as fh:
            entry = json.load(fh)[0]
        assert all(Path(entry[key]).is_absolute() for key in entry if key.endswith("_path"))
        manifest = Path(manifest).resolve()

        monkeypatch.chdir(tmp_path / "elsewhere")
        report = evaluate(load_corpus(manifest), PipelineConfig.for_sample_rate(16000))
        assert report["n_failed"] == 0

    def test_manifest_and_files(self, demo_corpus):
        with open(demo_corpus) as fh:
            entries = json.load(fh)
        assert len(entries) == 2
        assert len({e["id"] for e in entries}) == 2
        for entry in entries:
            mix = read_wav(entry["mixture_path"])
            vocal = read_wav(entry["vocal_path"])
            accomp = read_wav(entry["accomp_path"])
            assert mix.samples.size == vocal.samples.size == accomp.samples.size
            truth = read_f0_csv(entry["f0_path"])
            assert truth.n_frames == 1 + mix.samples.size // 160
