"""End-to-end pipeline, corpus evaluation, and parameter sweeps."""

import collections
import dataclasses
import hashlib
import inspect
import itertools
import json
import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vocsep.masks as masks_mod
import vocsep.pipeline as pipeline_mod
import vocsep.rpca as rpca_mod
import vocsep.saliency as saliency_mod
from vocsep.audio import AudioSignal, read_wav, write_wav
from vocsep.metrics import PITCH_TOLERANCE_CENTS, snr_gain, voiced_region_mask
from vocsep.spectrogram import MagnitudeSpectrogram, magnitude, stft
from vocsep.pipeline import (
    GridAxis,
    GridSearchSpec,
    PipelineConfig,
    _analyse,
    _apply_axes,
    align_contour,
    estimate_f0,
    evaluate,
    grid_search,
    load_corpus,
    run,
)
from vocsep.report import report_failures, write_grid_csv, write_report_csv
from vocsep.synth import make_clip, write_demo_corpus
from vocsep.tracking import CENTS_REFERENCE_HZ, read_f0_csv, voiced_contour, write_f0_csv


@pytest.fixture(scope="module")
def tiny_clip():
    return make_clip(duration_seconds=1.2, sample_rate=16000, seed=11)


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny_corpus")
    return write_demo_corpus(root, n_clips=1, duration_seconds=1.5)


@pytest.fixture
def solves(monkeypatch):
    """The lambda of every RPCA solve made while the test runs."""
    calls = []
    original = rpca_mod.decompose

    def counting(x, lam):
        calls.append(lam)
        return original(x, lam)

    monkeypatch.setattr(rpca_mod, "decompose", counting)
    return calls


def _memo_digests(memo):
    """SHA-256 of every array the memo's entries hold, by key and field."""
    digests = {}
    for key, value in memo.items():
        for i, item in enumerate(value if isinstance(value, tuple) else (value,)):
            for field in dataclasses.fields(item):
                array = getattr(item, field.name)
                if isinstance(array, np.ndarray):
                    digests[key, i, field.name] = hashlib.sha256(array.tobytes()).hexdigest()
    return digests


def _count_calls(monkeypatch, sites):
    """A Counter, by name, of the calls made through the (module, name)
    globals in sites while the test runs."""
    calls = collections.Counter()
    for module, name in sites:
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


READS = [(pipeline_mod, "read_wav"), (pipeline_mod, "read_f0_csv")]


@pytest.fixture(scope="module")
def two_lengths_corpus(tmp_path_factory, tiny_corpus):
    """Entries of a 1 s clip and the 1.5 s tiny_corpus clip, which a
    stage can tell apart by their frame counts (101 and 151)."""
    root = tmp_path_factory.mktemp("one_second")
    return load_corpus(write_demo_corpus(root, n_clips=1, duration_seconds=1.0)) + load_corpus(
        tiny_corpus
    )


@pytest.fixture(scope="module")
def demo_report(demo_corpus):
    entries = load_corpus(demo_corpus)
    return evaluate(entries, PipelineConfig())


class TestPipelineConfig:
    def test_geometry_for_16k(self):
        cfg = PipelineConfig.for_sample_rate(16000)
        assert (cfg.window_size, cfg.hop_size) == (2048, 160)
        assert cfg.n_partials == 10
        assert cfg.w == 50.0

    def test_geometry_for_44k(self):
        cfg = PipelineConfig.for_sample_rate(44100)
        assert (cfg.window_size, cfg.hop_size) == (4096, 441)
        assert cfg.n_partials == 20
        assert cfg.w == 70.0

    def test_up_to_32k_is_the_field_defaults(self):
        for sr in (8000, 16000, 32000):
            assert PipelineConfig.for_sample_rate(sr) == PipelineConfig()

    def test_geometry_boundary(self):
        assert PipelineConfig.for_sample_rate(32000).window_size == 2048
        assert PipelineConfig.for_sample_rate(32001).window_size == 4096

    def test_shared_defaults(self):
        for sr in (16000, 44100):
            cfg = PipelineConfig.for_sample_rate(sr)
            assert cfg.lambda_sep == 0.8
            assert cfg.lambda_f0 == 0.8
            assert cfg.alpha == 0.6

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            PipelineConfig.for_sample_rate(0)

    def test_with_overrides(self):
        cfg = PipelineConfig().with_overrides({"alpha": 1.2, "gamma": 0.5})
        assert cfg.alpha == 1.2
        assert cfg.gamma == 0.5

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            PipelineConfig().with_overrides({"lambda": 0.9})

    def test_mask_mode_validated(self):
        with pytest.raises(ValueError):
            PipelineConfig(mask_mode="hard")

    def test_lambda_positivity_validated(self):
        with pytest.raises(ValueError):
            PipelineConfig(lambda_sep=0.0)
        with pytest.raises(ValueError):
            PipelineConfig(lambda_f0=-0.1)

    def test_from_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"alpha": 1.4, "mask_mode": "binary"}))
        cfg = PipelineConfig.from_json(path, sample_rate=16000)
        assert cfg.alpha == 1.4
        assert cfg.mask_mode == "binary"
        assert cfg.window_size == 2048

    @pytest.mark.parametrize("name", ["window_size", "hop_size", "n_partials"])
    def test_int_fields_store_whole_numbers_as_int(self, name):
        cfg = PipelineConfig(**{name: 320.0})
        assert getattr(cfg, name) == 320
        assert isinstance(getattr(cfg, name), int)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"hop_size": 160.5}, "hop_size must be a whole number"),
            ({"n_partials": "10"}, "n_partials must be a whole number"),
            ({"window_size": True}, "window_size must be a whole number"),
            ({"n_partials": float("inf")}, "n_partials must be a whole number"),
            ({"alpha": "0.6"}, "alpha must be a number"),
            ({"lambda_sep": None}, "lambda_sep must be a number"),
            ({"w": [50.0]}, "w must be a number"),
        ],
        ids=["fraction", "string-int", "bool", "inf", "string-float", "none", "list"],
    )
    def test_wrong_types_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            PipelineConfig().with_overrides(overrides)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["lambda_sep", "lambda_f0", "gamma", "w", "alpha"])
    def test_non_finite_floats_rejected(self, name, value):
        with pytest.raises(ValueError, match="%s must be finite" % name):
            PipelineConfig(**{name: value})

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"w": -5.0}, "w must be positive"),
            ({"w": 0.0}, "w must be positive"),
            ({"n_partials": 0}, "n_partials must be >= 1"),
            ({"gamma": -1.0}, "gamma must be nonnegative"),
            ({"alpha": -0.5}, "alpha must be nonnegative"),
        ],
        ids=["w-negative", "w-zero", "n_partials", "gamma", "alpha"],
    )
    def test_stage_values_checked_at_construction(self, overrides, message):
        # the CLI tests check that such a run makes no solve
        for sample_rate in (16000, 44100):
            with pytest.raises(ValueError, match=message):
                PipelineConfig.for_sample_rate(sample_rate).with_overrides(overrides)
        with pytest.raises(ValueError, match=message):
            PipelineConfig().with_overrides(overrides)

    def test_from_json_with_sample_rate(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"alpha": 0.2}))
        cfg = PipelineConfig.from_json(path, sample_rate=44100)
        assert cfg.window_size == 4096
        assert cfg.alpha == 0.2

    def test_from_json_rejects_zero_sample_rate(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"alpha": 0.2}))
        with pytest.raises(ValueError, match="sample_rate must be positive"):
            PipelineConfig.from_json(path, sample_rate=0)

    def test_from_json_rejects_non_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError):
            PipelineConfig.from_json(path, sample_rate=16000)

    @pytest.mark.parametrize(
        "stage, name",
        [
            (rpca_mod.decompose, "lam"),
            (masks_mod.binary_mask, "gamma"),
            (masks_mod.harmonic_mask, "n_partials"),
            (masks_mod.harmonic_mask, "width_hz"),
            (saliency_mod.shs, "n_partials"),
            (saliency_mod.combine, "alpha"),
            (pipeline_mod.stft, "window_size"),
            (pipeline_mod.stft, "hop_size"),
        ],
    )
    def test_stages_take_config_values_without_defaults(self, stage, name):
        # a tunable's default lives in PipelineConfig alone
        parameter = inspect.signature(stage).parameters[name]
        assert parameter.default is inspect.Parameter.empty

    def test_asdict_round_trips(self):
        # a report's "config" section is dataclasses.asdict of its config
        cfg = PipelineConfig(alpha=0.9)
        rebuilt = PipelineConfig().with_overrides(dataclasses.asdict(cfg))
        assert rebuilt == cfg


class TestAlignContour:
    def test_downsample_by_two(self):
        contour = voiced_contour(np.linspace(100, 199, 100), 0.01)
        aligned = align_contour(contour, 50, 0.02)
        np.testing.assert_array_equal(aligned.f0_hz, contour.f0_hz[::2])
        assert aligned.hop_seconds == 0.02

    def test_extends_past_the_end(self):
        contour = voiced_contour([100.0, 110.0], 0.01)
        aligned = align_contour(contour, 5, 0.01)
        np.testing.assert_array_equal(
            aligned.f0_hz, [100.0, 110.0, 110.0, 110.0, 110.0]
        )

    def test_preserves_voicing(self):
        contour = voiced_contour([100.0, 0.0, 120.0, 0.0], 0.01)
        aligned = align_contour(contour, 4, 0.01)
        np.testing.assert_array_equal(aligned.voiced, contour.voiced)


class TestContourFields:
    """Every contour the package builds derives voiced and f0_cents from
    f0_hz alone, the way voiced_contour() does."""

    @staticmethod
    def _assert_derived_from_f0(contour):
        f0 = contour.f0_hz
        voiced = f0 > 0
        ratio = np.where(voiced, f0, CENTS_REFERENCE_HZ) / CENTS_REFERENCE_HZ
        cents = np.where(voiced, 1200.0 * np.log2(ratio), 0.0)
        assert np.array_equal(contour.voiced, voiced)
        assert contour.f0_cents.tobytes() == cents.tobytes()

    def test_tracked_aligned_read_and_run_contours(self, tiny_clip, monkeypatch, tmp_path):
        tracked = []
        original = pipeline_mod.viterbi

        def recording(saliency):
            tracked.append(original(saliency))
            return tracked[-1]

        monkeypatch.setattr(pipeline_mod, "viterbi", recording)
        sr = tiny_clip.mixture.sample_rate
        padded = np.concatenate([np.zeros(sr // 2), tiny_clip.mixture.samples])
        _, contour = run(AudioSignal(padded, sr), PipelineConfig())
        # the leading silence comes back unvoiced, the clip voiced
        assert 0 < np.count_nonzero(contour.voiced) < contour.n_frames
        assert len(tracked) == 1 and tracked[0].voiced.all()
        write_f0_csv(contour, tmp_path / "f0.csv")
        for built in (
            tracked[0],
            contour,
            align_contour(contour, 77, 0.013),
            read_f0_csv(tmp_path / "f0.csv"),
        ):
            self._assert_derived_from_f0(built)


# the cells of an analysis: two gammas, and two alphas at one gamma
_ANALYSED_CHANGES = [{}, {"gamma": 0.5}, {"alpha": 0.0}]
_BINARY = {("binary", 1.0), ("binary", 0.5)}
_CONTOURS = {("contour", 1.0, 0.6, 10), ("contour", 0.5, 0.6, 10), ("contour", 1.0, 0.0, 10)}


class TestRun:
    def test_equal_lambdas_run_one_decomposition(self, tiny_clip, solves):
        run(tiny_clip.mixture, PipelineConfig())
        assert solves == [0.8]

    def test_different_lambdas_run_two(self, tiny_clip, solves):
        run(tiny_clip.mixture, PipelineConfig(lambda_sep=1.0, lambda_f0=0.8))
        assert solves == [0.8, 1.0]

    def test_memo_hit_changes_nothing(self, tiny_clip, solves):
        cfg = PipelineConfig(lambda_sep=1.0)
        memo = {}
        first, contour_a = run(tiny_clip.mixture, cfg, _memo=memo)
        assert solves == [0.8, 1.0]
        reused, contour_b = run(tiny_clip.mixture, cfg, _memo=memo)
        assert solves == [0.8, 1.0]
        assert contour_b is contour_a
        fresh, contour_c = run(tiny_clip.mixture, cfg)
        assert solves == [0.8, 1.0, 0.8, 1.0]
        np.testing.assert_array_equal(contour_c.f0_hz, contour_a.f0_hz)
        for sep in (reused, fresh):
            np.testing.assert_array_equal(sep.vocal_spec.values, first.vocal_spec.values)
            np.testing.assert_array_equal(sep.vocal.samples, first.vocal.samples)

    def test_fft_calls_keep_to_the_lowest_declared_numpy(self, tiny_clip, monkeypatch):
        # pyproject.toml declares numpy>=1.24, whose rfft and irfft take
        # (a, n, axis, norm) and no out=
        for name in ("rfft", "irfft"):
            def strict(a, n=None, axis=-1, norm=None, _fft=getattr(np.fft, name)):
                return _fft(a, n=n, axis=axis, norm=norm)

            monkeypatch.setattr(np.fft, name, strict)
        expected, _ = run(tiny_clip.mixture, PipelineConfig())
        monkeypatch.undo()
        got, _ = run(tiny_clip.mixture, PipelineConfig())
        np.testing.assert_array_equal(expected.vocal.samples, got.vocal.samples)

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        sample_rate=st.sampled_from([8000, 16000, 22050, 44100, 48000]),
        length=st.floats(0.0, 1.0),
    )
    @example(seed=11, sample_rate=8000, length=1.0)
    @example(seed=3, sample_rate=16000, length=0.0)
    def test_negated_mixture_negates_the_sources(self, seed, sample_rate, length):
        # every stage is odd or even in x and round-to-nearest is
        # sign-symmetric, so the relation is exact
        window = PipelineConfig.for_sample_rate(sample_rate).window_size
        n = window + int(length * (sample_rate - window))
        mixture = make_clip(duration_seconds=1.0, sample_rate=sample_rate, seed=seed).mixture
        mixture = AudioSignal(mixture.samples[:n], sample_rate)
        sep, contour = run(mixture)
        neg_sep, neg_contour = run(AudioSignal(-mixture.samples, sample_rate))
        assert neg_contour.f0_hz.tobytes() == contour.f0_hz.tobytes()
        for part in ("vocal", "accompaniment"):
            assert (-getattr(neg_sep, part).samples).tobytes() == (
                getattr(sep, part).samples.tobytes()
            )

    def test_memo_hit_runs_one_istft_and_no_analysis(self, tiny_clip, monkeypatch):
        memo = {}
        run(tiny_clip.mixture, PipelineConfig(), _memo=memo)
        calls = _count_calls(
            monkeypatch, [(pipeline_mod, "stft"), (pipeline_mod, "magnitude"), (masks_mod, "istft")]
        )
        cfg = PipelineConfig(w=70.0)
        hit, hit_contour = run(tiny_clip.mixture, cfg, _memo=memo)
        assert calls == {"istft": 1}
        fresh, fresh_contour = run(tiny_clip.mixture, cfg)
        assert calls == {"istft": 2, "stft": 1, "magnitude": 1}
        for part in ("vocal", "accompaniment"):
            assert np.array_equal(getattr(hit, part).samples, getattr(fresh, part).samples)
        for part in ("vocal_spec", "accomp_spec"):
            assert np.array_equal(getattr(hit, part).values, getattr(fresh, part).values)
        assert np.array_equal(hit_contour.f0_hz, fresh_contour.f0_hz)

    def test_memo_hit_reuses_the_wiener_mask(self, tiny_clip, solves, monkeypatch):
        calls = []
        original = pipeline_mod.wiener_mask

        def counting(result):
            calls.append(result)
            return original(result)

        monkeypatch.setattr(pipeline_mod, "wiener_mask", counting)
        cfgs = [
            PipelineConfig(lambda_f0=1.0, w=70.0),
            PipelineConfig(lambda_f0=1.0, mask_mode="binary"),
            PipelineConfig(lambda_f0=1.0, alpha=0.0),
        ]
        memo = {}
        _analyse(tiny_clip.mixture, [PipelineConfig(lambda_f0=1.0)] + cfgs, True, memo)
        assert len(calls) == 1
        for cfg in cfgs:
            hit, hit_contour = run(tiny_clip.mixture, cfg, _memo=memo)
            assert len(calls) == 1
            fresh, fresh_contour = run(tiny_clip.mixture, cfg)
            assert len(calls) == 2
            del calls[1:]
            for part in ("vocal", "accompaniment"):
                assert np.array_equal(getattr(hit, part).samples, getattr(fresh, part).samples)
            for part in ("vocal_spec", "accomp_spec"):
                assert np.array_equal(getattr(hit, part).values, getattr(fresh, part).values)
            assert np.array_equal(hit_contour.f0_hz, fresh_contour.f0_hz)
        # the analysis's two solves, then two per fresh run
        assert solves.count(0.8) == solves.count(1.0) == 4

    def test_runs_leave_the_memo_arrays_unchanged(self, tiny_clip, solves):
        # leading silence gives all-zero STFT bins, which a clamp of |X|
        # would change
        sr = tiny_clip.mixture.sample_rate
        mixture = AudioSignal(np.concatenate([np.zeros(sr // 2), tiny_clip.mixture.samples]), sr)
        memo = {}
        cfg = PipelineConfig()
        run(mixture, cfg, _memo=memo)
        assert set(memo) == {"stft", "wiener", ("contour", cfg.gamma, cfg.alpha, cfg.n_partials)}
        # |X| is all the memo keeps of the STFT
        mag = memo["stft"]
        assert isinstance(mag, MagnitudeSpectrogram)
        assert np.any(mag.values == 0)
        before = _memo_digests(memo)
        for cfg in (PipelineConfig(w=70.0), PipelineConfig(mask_mode="binary")):
            run(mixture, cfg, _memo=memo)
        assert solves == [0.8]
        assert _memo_digests(memo) == before

    def test_contour_fields_recompute_the_contour_only(self, tiny_clip, solves):
        memo = {}
        _analyse(tiny_clip.mixture, [PipelineConfig(), PipelineConfig(alpha=0.0)], True, memo)
        _, base = run(tiny_clip.mixture, PipelineConfig(), _memo=memo)
        _, other = run(tiny_clip.mixture, PipelineConfig(alpha=0.0), _memo=memo)
        _, fresh = run(tiny_clip.mixture, PipelineConfig(alpha=0.0))
        assert solves == [0.8, 0.8]
        assert other is not base
        np.testing.assert_array_equal(other.f0_hz, fresh.f0_hz)

    @pytest.mark.parametrize(
        "lambda_sep,contours,left_by_error",
        [
            (
                0.8, True,
                {"viterbi": {"wiener"} | _BINARY, "wiener_mask": {("rpca", 0.8)} | _BINARY},
            ),
            (1.0, True, {"viterbi": _BINARY, "wiener_mask": {("rpca", 1.0)} | _CONTOURS}),
            (0.8, False, {"wiener_mask": {("rpca", 0.8)}}),
        ],
        ids=["equal-lambdas", "different-lambdas", "ground-truth"],
    )
    def test_analysis_leaves_what_cells_read(
        self, tiny_clip, solves, monkeypatch, lambda_sep, contours, left_by_error
    ):
        base = PipelineConfig(lambda_sep=lambda_sep)
        cfgs = [base.with_overrides(change) for change in _ANALYSED_CHANGES]
        memo = {}
        _analyse(tiny_clip.mixture, cfgs, contours, memo)
        # each contour and the Wiener mask, and no solve or binary mask
        assert set(memo) == {"stft", "wiener"} | (_CONTOURS if contours else set())
        assert solves == (sorted({0.8, lambda_sep}) if contours else [lambda_sep])
        for stage, left in left_by_error.items():
            original = getattr(pipeline_mod, stage)
            monkeypatch.setattr(pipeline_mod, stage, lambda *args: 1 / 0)
            memo = {}
            with pytest.raises(ZeroDivisionError):
                _analyse(tiny_clip.mixture, cfgs, contours, memo)
            # what was made before the error stays, so the next analysis
            # meets the error again without solving again
            assert set(memo) == {"stft"} | left
            made = len(solves)
            with pytest.raises(ZeroDivisionError):
                _analyse(tiny_clip.mixture, cfgs, contours, memo)
            assert set(memo) == {"stft"} | left
            assert len(solves) == made
            monkeypatch.setattr(pipeline_mod, stage, original)

    def test_memo_filled_at_base_matches_a_fresh_run_for_every_field(self, tmp_path):
        # one valid alternative per PipelineConfig field, each changing
        # this clip's outputs; a field added without a case here fails
        # the first assertion
        alternatives = {
            "window_size": 1024,
            "hop_size": 320,
            "lambda_sep": 1.0,
            "lambda_f0": 1.0,
            "gamma": 0.5,
            "n_partials": 5,
            "w": 70.0,
            "alpha": 1.2,
            "mask_mode": "binary",
        }
        assert list(alternatives) == [f.name for f in dataclasses.fields(PipelineConfig)]
        # a memo holds one RPCA setting, so grid_search gives each its own
        rpca_settings = ["window_size", "hop_size", "lambda_sep", "lambda_f0"]
        entries = load_corpus(write_demo_corpus(tmp_path, n_clips=1, duration_seconds=0.5))
        mixture = read_wav(entries[0].mixture_path)
        base = PipelineConfig()
        base_memo = {}
        base_sep, base_contour = run(mixture, base, _memo=base_memo)
        base_report = evaluate(entries, base)
        for name, value in alternatives.items():
            cfg = dataclasses.replace(base, **{name: value})
            if name in rpca_settings:
                low, high = sorted([getattr(base, name), value])
                spec = GridSearchSpec(axes=(GridAxis(name, low, high, high - low),))
                reports = {getattr(base, name): base_report, value: evaluate(entries, cfg)}
                scores = [
                    (report["vocal"]["gnsdr"], report["raw_pitch_accuracy_mean"])
                    for report in reports.values()
                ]
                assert scores[0] != scores[1], name
                cells = grid_search(entries, spec, base)
                assert [cell[name] for cell in cells] == [low, high], name
                for cell in cells:
                    assert cell["value"] == reports[cell[name]]["vocal"]["gnsdr"], name
                    assert cell["n_failed"] == 0, name
                continue
            sep, contour = run(mixture, cfg, _memo=dict(base_memo))
            fresh_sep, fresh_contour = run(mixture, cfg)
            assert not (
                np.array_equal(fresh_sep.vocal.samples, base_sep.vocal.samples)
                and np.array_equal(fresh_contour.f0_hz, base_contour.f0_hz)
            ), name
            np.testing.assert_array_equal(sep.vocal.samples, fresh_sep.vocal.samples, err_msg=name)
            np.testing.assert_array_equal(
                sep.accompaniment.samples, fresh_sep.accompaniment.samples, err_msg=name
            )
            np.testing.assert_array_equal(contour.f0_hz, fresh_contour.f0_hz, err_msg=name)

    def test_memo_is_not_public(self, tiny_clip, tiny_corpus, solves):
        # a memo serves one mixture at one RPCA setting, which only
        # grid_search keeps to
        with pytest.raises(TypeError, match="memo"):
            run(tiny_clip.mixture, PipelineConfig(), memo={})
        with pytest.raises(TypeError, match="memo"):
            evaluate(load_corpus(tiny_corpus), PipelineConfig(), memo={})
        assert solves == []

    def test_ground_truth_skips_estimation_pass(self, tiny_clip, solves):
        sep, contour = run(
            tiny_clip.mixture, PipelineConfig(), ground_truth_f0=tiny_clip.truth
        )
        assert len(solves) == 1
        assert contour is tiny_clip.truth
        assert sep.vocal.samples.size == tiny_clip.mixture.samples.size

    def test_ground_truth_frame_mismatch_rejected(self, tiny_clip):
        short = voiced_contour([200.0, 210.0], 0.01)
        with pytest.raises(ValueError, match="align"):
            run(tiny_clip.mixture, PipelineConfig(), ground_truth_f0=short)

    def test_silent_input_gives_silence_and_no_voicing(self):
        silent = AudioSignal(np.zeros(16000), 16000)
        sep, contour = run(silent, PipelineConfig())
        assert np.all(sep.vocal.samples == 0)
        assert np.all(sep.accompaniment.samples == 0)
        assert not np.any(contour.voiced)

    def test_leading_silence_comes_back_unvoiced(self, tiny_clip):
        sr = tiny_clip.mixture.sample_rate
        padded = np.concatenate([np.zeros(sr // 2), tiny_clip.mixture.samples])
        sep, contour = run(AudioSignal(padded, sr), PipelineConfig())
        # frames fully inside the silent half second (avoiding edges
        # blurred by the centered analysis window)
        assert not np.any(contour.voiced[8:40])
        assert np.mean(contour.voiced[60:]) > 0.5

    def test_binary_mask_mode_splits_cells_whole(self, tiny_clip):
        sep, _ = run(tiny_clip.mixture, PipelineConfig(mask_mode="binary"))
        v = sep.vocal_spec.values
        a = sep.accomp_spec.values
        assert np.all((v == 0) | (a == 0))

    def test_deterministic(self, tiny_clip):
        cfg = PipelineConfig()
        sep_a, contour_a = run(tiny_clip.mixture, cfg)
        sep_b, contour_b = run(tiny_clip.mixture, cfg)
        np.testing.assert_array_equal(sep_a.vocal.samples, sep_b.vocal.samples)
        np.testing.assert_array_equal(contour_a.f0_hz, contour_b.f0_hz)

    def test_dump_artifacts_written(self, tiny_clip, tmp_path):
        dump = tmp_path / "dumps"
        run(tiny_clip.mixture, PipelineConfig(), dump_dir=dump)
        assert (dump / "wiener.pgm").exists()
        assert (dump / "harmonic.pgm").exists()
        assert (dump / "integrated.csv").exists()
        assert (dump / "binary_rpca.pgm").exists()
        assert (dump / "saliency.csv").exists()
        assert (dump / "rpca_trace.csv").exists()

    def test_estimate_f0_alone(self, tiny_clip):
        contour = estimate_f0(tiny_clip.mixture, PipelineConfig())
        n = tiny_clip.mixture.samples.size
        assert contour.n_frames == 1 + n // 160
        assert contour.hop_seconds == pytest.approx(0.01)


class TestDegenerateInput:
    """Behaviour on inputs outside the music the method targets, pinned so
    that solver or tracker changes cannot alter it unnoticed. Silence is
    pinned by TestRun.test_silent_input_gives_silence_and_no_voicing."""

    SR = 16000

    def _run_checked(self, samples, sample_rate=SR):
        signal = AudioSignal(samples, sample_rate)
        cfg = PipelineConfig.for_sample_rate(sample_rate)
        sep, contour = run(signal, cfg)
        mix = magnitude(stft(signal, cfg.window_size, cfg.hop_size)).values
        assert np.array_equal(sep.vocal_spec.values + sep.accomp_spec.values, mix)
        for out in (sep.vocal.samples, sep.accompaniment.samples):
            assert out.size == samples.size
            assert np.all(np.isfinite(out))
        assert contour.n_frames == 1 + samples.size // cfg.hop_size
        return sep, contour

    @pytest.mark.parametrize("sample_rate", [8000, 22050, 48000])
    def test_other_sample_rates(self, sample_rate):
        clip = make_clip(duration_seconds=0.5, sample_rate=sample_rate, seed=3)
        self._run_checked(clip.mixture.samples, sample_rate)

    def test_impulse_goes_to_the_accompaniment(self):
        x = np.zeros(self.SR)
        x[self.SR // 2] = 1.0
        sep, contour = self._run_checked(x)
        assert not np.any(contour.voiced)
        assert np.all(sep.vocal.samples == 0)
        assert np.abs(sep.accompaniment.samples).max() == pytest.approx(1.0)

    def test_exactly_one_window(self, tiny_clip):
        sep, contour = self._run_checked(tiny_clip.mixture.samples[:2048])
        assert contour.n_frames == 13
        assert np.all(contour.voiced)
        assert np.all((contour.f0_hz > 200) & (contour.f0_hz < 250))
        assert np.any(sep.vocal.samples != 0)

    def test_near_zero_amplitude(self, tiny_clip):
        # At 1e-12 the tracker's absolute saliency floor dominates every
        # frame, so the contour sits on the lowest candidate throughout.
        x = tiny_clip.mixture.samples * 1e-12
        sep, contour = self._run_checked(x)
        assert np.all(contour.voiced)
        assert np.all(contour.f0_hz == contour.f0_hz[0])
        assert contour.f0_hz[0] == pytest.approx(80.0, abs=0.5)
        assert 0 < np.abs(sep.vocal.samples).max() < 1e-12

    def test_dc_is_voiced_but_has_no_vocal(self):
        sep, contour = self._run_checked(np.full(self.SR, 0.5))
        assert contour.n_frames == 101
        assert int(np.count_nonzero(contour.voiced)) == 101
        assert np.all(sep.vocal.samples == 0)
        assert np.abs(sep.accompaniment.samples).max() > 0.4

    def test_steady_tone_goes_mostly_to_the_vocal(self):
        t = np.arange(self.SR) / self.SR
        sep, contour = self._run_checked(0.5 * np.sin(2 * np.pi * 220.0 * t))
        assert np.all(contour.voiced)
        assert np.all(np.abs(1200 * np.log2(contour.f0_hz / 220.0)) < 50)
        vocal = np.sum(sep.vocal_spec.values ** 2)
        accomp = np.sum(sep.accomp_spec.values ** 2)
        assert vocal / (vocal + accomp) > 0.95


class TestLoadCorpus:
    def test_reads_manifest(self, demo_corpus):
        entries = load_corpus(demo_corpus)
        assert len(entries) == 2
        assert entries[0].clip_id == "clip00"

    def test_rejects_non_list(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            load_corpus(path)

    def test_rejects_empty_list(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("[]")
        with pytest.raises(ValueError):
            load_corpus(path)

    def test_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([{"id": "x", "mixture_path": "x.wav"}]))
        with pytest.raises(ValueError, match="bad manifest row"):
            load_corpus(path)


class TestEvaluate:
    def test_report_structure(self, demo_report):
        assert demo_report["n_clips"] == 2
        assert demo_report["n_failed"] == 0
        assert len(demo_report["clips"]) == 2
        for clip in demo_report["clips"]:
            for source in ("vocal", "accompaniment"):
                for key in ("sdr", "sir", "sar", "nsdr"):
                    assert np.isfinite(clip[source][key])
            assert 0.0 <= clip["raw_pitch_accuracy"] <= 1.0
        for source in ("vocal", "accompaniment"):
            assert set(demo_report[source]) == {"gnsdr", "gsir", "gsar"}
        assert demo_report["config"]["window_size"] == 2048

    def test_aggregate_matches_by_hand(self, demo_report):
        clips = demo_report["clips"]
        lengths = [c["length_seconds"] for c in clips]
        expected = sum(c["vocal"]["nsdr"] * l for c, l in zip(clips, lengths)) / sum(lengths)
        assert demo_report["vocal"]["gnsdr"] == pytest.approx(expected)

    def test_snr_list_makes_sections(self, tiny_corpus):
        entries = load_corpus(tiny_corpus)
        report = evaluate(entries, PipelineConfig(), snr_list=[-5.0, 0.0, 5.0])
        assert [s["snr_db"] for s in report["sections"]] == [-5.0, 0.0, 5.0]
        for section in report["sections"]:
            assert section["n_clips"] == 1
        assert report_failures(report) == 0

    def test_snr_list_reads_each_clip_once(self, two_lengths_corpus, monkeypatch):
        snrs = [-5.0, 0.0, 5.0]
        singles = [evaluate(two_lengths_corpus, PipelineConfig(), snr_list=[snr]) for snr in snrs]
        reads = _count_calls(monkeypatch, READS)
        report = evaluate(two_lengths_corpus, PipelineConfig(), snr_list=snrs)
        # the two references of each clip, and no mixture
        assert reads == {"read_wav": 4, "read_f0_csv": 2}
        assert report["sections"] == [single["sections"][0] for single in singles]
        assert [s["snr_db"] for s in report["sections"]] == snrs
        assert report_failures(report) == 0

    def test_snr_list_records_a_read_failure_in_every_section(
        self, two_lengths_corpus, tmp_path, solves
    ):
        entries = [
            two_lengths_corpus[0],
            dataclasses.replace(two_lengths_corpus[1], f0_path=str(tmp_path / "missing.csv")),
        ]
        report = evaluate(entries, PipelineConfig(), snr_list=[-5.0, 5.0])
        for section in report["sections"]:
            scored, failed = section["clips"]
            assert "vocal" in scored
            assert failed["error"].startswith("FileNotFoundError") and "missing.csv" in failed["error"]
        assert solves == [0.8, 0.8]

    def test_snr_remix_trims_unequal_references(self, tmp_path):
        entry = load_corpus(write_demo_corpus(tmp_path, n_clips=1, duration_seconds=1.0))[0]
        vocal = read_wav(entry.vocal_path)
        write_wav(entry.vocal_path, AudioSignal(vocal.samples[:-800], vocal.sample_rate))
        cfg = PipelineConfig()
        plain = evaluate([entry], cfg)
        assert plain["n_failed"] == 0
        assert plain["clips"][0]["length_seconds"] == 15200 / 16000
        report = evaluate([entry], cfg, snr_list=[-5.0, 0.0])
        # by hand: both references trimmed to the shorter, then remixed
        vocal, accomp = read_wav(entry.vocal_path), read_wav(entry.accomp_path)
        truth = read_f0_csv(entry.f0_path)
        n = vocal.samples.size
        assert (n, accomp.samples.size) == (15200, 16000)
        accomp = AudioSignal(accomp.samples[:n], accomp.sample_rate)
        for section in report["sections"]:
            assert section["n_failed"] == 0
            gain = snr_gain(
                voiced_region_mask(vocal, truth).samples,
                voiced_region_mask(accomp, truth).samples,
                section["snr_db"],
            )
            scaled = AudioSignal(accomp.samples * gain, accomp.sample_rate)
            mixture = AudioSignal(vocal.samples + scaled.samples, vocal.sample_rate)
            expected = pipeline_mod._score_clip(
                entry, pipeline_mod._Clip(mixture, vocal, scaled, truth), cfg,
                PITCH_TOLERANCE_CENTS, False, None,
            )
            assert section["clips"] == [expected]

    def test_clip_failure_is_isolated(self, demo_corpus, tmp_path):
        entries = load_corpus(demo_corpus)
        broken = dataclasses.replace(
            entries[0], mixture_path=str(tmp_path / "missing.wav")
        )
        report = evaluate([broken, entries[1]], PipelineConfig())
        assert report["n_failed"] == 1
        assert report_failures(report) == 1
        failed, scored = report["clips"]
        assert "error" in failed
        assert "vocal" in scored

    def test_clip_with_an_unparsable_truth_row_fails(self, demo_corpus, tmp_path):
        entries = load_corpus(demo_corpus)
        rows = open(entries[0].f0_path).read().splitlines()
        rows[3] = rows[3].replace(",", "x,", 1)
        f0_path = tmp_path / "truth.csv"
        f0_path.write_text("\n".join(rows) + "\n")
        broken = dataclasses.replace(entries[0], f0_path=str(f0_path))
        report = evaluate([broken, entries[1]], PipelineConfig())
        assert report["n_failed"] == 1
        failed, scored = report["clips"]
        assert "line 4" in failed["error"]
        assert "vocal" in scored

    def test_ground_truth_path_scores_perfect_pitch(self, tiny_corpus):
        entries = load_corpus(tiny_corpus)
        report = evaluate(entries, PipelineConfig(), use_ground_truth_f0=True)
        assert report["raw_pitch_accuracy_mean"] == 1.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            evaluate([], PipelineConfig())

    @pytest.mark.parametrize("tolerance", [0.0, -10.0, float("nan"), float("inf")])
    def test_bad_tolerance_rejected_before_any_clip(self, tiny_corpus, monkeypatch, tolerance):
        runs = []
        monkeypatch.setattr(pipeline_mod, "run", lambda *args, **kwargs: runs.append(args))
        entries = load_corpus(tiny_corpus)
        with pytest.raises(ValueError, match="tolerance_cents"):
            evaluate(entries, PipelineConfig(), tolerance_cents=tolerance)
        spec = GridSearchSpec(axes=(GridAxis("alpha", 0.6, 0.6, 0.2),))
        with pytest.raises(ValueError, match="tolerance_cents"):
            grid_search(entries, spec, PipelineConfig(), tolerance_cents=tolerance)
        assert runs == []

    @pytest.mark.parametrize(
        "snr_list", [[float("nan")], [float("inf")], [0.0, float("-inf")]],
        ids=["nan", "inf", "minus-inf-second"],
    )
    def test_non_finite_snr_rejected_before_any_clip(self, tiny_corpus, solves, snr_list):
        entries = load_corpus(tiny_corpus)
        with pytest.raises(ValueError, match="SNRs must be finite"):
            evaluate(entries, PipelineConfig(), snr_list=snr_list)
        assert solves == []

    def test_empty_snr_list_rejected_before_any_clip(self, tiny_corpus, solves):
        entries = load_corpus(tiny_corpus)
        with pytest.raises(ValueError, match="snr_list is empty"):
            evaluate(entries, PipelineConfig(), snr_list=[])
        assert solves == []

    @pytest.mark.parametrize("workers", [0, 2])
    def test_workers_other_than_one_rejected_before_any_solve(
        self, tiny_corpus, solves, workers
    ):
        entries = load_corpus(tiny_corpus)
        with pytest.raises(ValueError, match="workers must be 1"):
            evaluate(entries, PipelineConfig(), workers=workers)
        spec = GridSearchSpec(axes=(GridAxis("alpha", 0.6, 0.6, 0.2),))
        with pytest.raises(ValueError, match="workers must be 1"):
            grid_search(entries, spec, PipelineConfig(), workers=workers)
        assert solves == []


class TestGridAxis:
    def test_lambda_range_has_seven_values(self):
        values = GridAxis("lambda", 0.6, 1.2, 0.1).values()
        np.testing.assert_allclose(values, [0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2])

    def test_width_range_has_eight_values(self):
        assert GridAxis("w", 20.0, 90.0, 10.0).values() == [
            20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0,
        ]

    def test_alpha_range_has_eleven_values(self):
        values = GridAxis("alpha", 0.0, 2.0, 0.2).values()
        assert len(values) == 11
        np.testing.assert_allclose(values, np.arange(11) * 0.2)

    def test_short_lambda_range_has_six_values(self):
        assert len(GridAxis("lambda", 0.6, 1.1, 0.1).values()) == 6

    def test_single_point(self):
        assert GridAxis("alpha", 0.6, 0.6, 0.1).values() == [0.6]

    @pytest.mark.parametrize(
        "axis, expected",
        [
            (GridAxis("alpha", 0.0, 1.0, 0.6), [0.0, 0.6]),
            (GridAxis("w", 20.0, 90.0, 40.0), [20.0, 60.0]),
            (GridAxis("lambda", 0.6, 1.27, 0.1), [0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2]),
        ],
        ids=["alpha", "w", "lambda"],
    )
    def test_step_that_does_not_divide_stops_before_stop(self, axis, expected):
        np.testing.assert_allclose(axis.values(), expected)
        assert max(axis.values()) <= axis.stop

    def test_validation(self):
        with pytest.raises(ValueError):
            GridAxis("alpha", 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            GridAxis("alpha", 1.0, 0.0, 0.1)

    @pytest.mark.parametrize(
        "start, stop, step",
        [(1.0, 1e308, 1e-10), (-1e308, 1e308, 1.0), (0.0, 1.0, 1e-300), (0.0, 2.0**63, 1.0)],
        ids=["overflows", "overflows-from-finite-span", "past-maxsize", "at-maxsize"],
    )
    def test_more_values_than_a_list_holds_rejected(self, start, stop, step):
        # rejected at construction; values() would raise OverflowError,
        # or try to build a list longer than memory
        with pytest.raises(ValueError, match="more values than a list can hold"):
            GridAxis("w", start, stop, step)

    def test_huge_but_listable_axis_is_accepted(self):
        # a finite sweep that is merely huge is the caller's to choose
        GridAxis("w", 0.0, 2.0**62, 1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["start", "stop", "step"])
    def test_non_finite_bound_rejected(self, field, value):
        bounds = dict(start=0.6, stop=1.0, step=0.2)
        bounds[field] = value
        with pytest.raises(ValueError, match="%s must be finite" % field):
            GridAxis("lambda", **bounds)


def _record_evaluate(monkeypatch):
    """The (entries, cfg, keywords, report) of every evaluate() call made
    through pipeline's global while the test runs."""
    calls = []

    def recording(entries, cfg, **kwargs):
        report = evaluate(entries, cfg, **kwargs)
        calls.append((entries, cfg, kwargs, report))
        return report

    monkeypatch.setattr(pipeline_mod, "evaluate", recording)
    return calls


def _failure_spec(ground_truth=False):
    """A 4-cell sweep with two RPCA settings, one of them two solves."""
    axes = (GridAxis("lambda_sep", 0.8, 1.0, 0.2), GridAxis("w", 30.0, 70.0, 40.0))
    return GridSearchSpec(axes=axes, use_ground_truth_f0=ground_truth)


def _assert_cells_score_as_evaluate(entries, spec, cells, calls, evaluated=None):
    """Each of the grid's evaluate() calls reports what evaluate() does
    without the memo, and each cell's value is that of evaluate() on the
    corpus, with the second clip failed. evaluated, by default every
    entry, are the clips that each cell calls evaluate() for."""
    assert len(calls) == len(cells) * len(entries if evaluated is None else evaluated)
    for entries_, cfg, kwargs, report in calls:
        assert kwargs.pop("_memo") is not None
        assert report == evaluate(entries_, cfg, **kwargs)
    names = [axis.name for axis in spec.axes]
    for cell in cells:
        cfg = _apply_axes(PipelineConfig(), names, [cell[name] for name in names])
        report = evaluate(entries, cfg, use_ground_truth_f0=spec.use_ground_truth_f0)
        assert report["n_failed"] == cell["n_failed"] == 1
        assert cell["value"] == report["vocal"]["gnsdr"]


class TestGridSearch:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GridSearchSpec(axes=())
        with pytest.raises(ValueError):
            GridSearchSpec(axes=(GridAxis("alpha", 0, 1, 1),), objective="sdr")
        for names in [("alpha", "alpha"), ("lambda", "lambda_sep"), ("lambda_f0", "lambda")]:
            with pytest.raises(ValueError, match="twice"):
                GridSearchSpec(axes=tuple(GridAxis(name, 0.2, 0.4, 0.2) for name in names))

    @pytest.mark.parametrize("name", ["lamda", "mask_mode", "Lambda", ""])
    def test_unknown_axis_rejected(self, name):
        with pytest.raises(ValueError, match="unknown grid axes") as info:
            GridSearchSpec(axes=(GridAxis(name, 0.0, 1.0, 1.0),))
        assert repr(name) in str(info.value)
        for valid in [
            "lambda", "window_size", "hop_size", "lambda_sep", "lambda_f0", "gamma",
            "n_partials", "w", "alpha",
        ]:
            assert valid in str(info.value)
            GridSearchSpec(axes=(GridAxis(valid, 1.0, 1.0, 1.0),))

    def test_rpa_of_the_truth_contour_rejected(self):
        axes = (GridAxis("w", 30.0, 70.0, 40.0),)
        with pytest.raises(ValueError, match="ground-truth"):
            GridSearchSpec(axes=axes, objective="rpa", use_ground_truth_f0=True)
        # the truth contour can still rank cells by separation, and RPA
        # still ranks the estimated contours
        GridSearchSpec(axes=axes, objective="gnsdr", use_ground_truth_f0=True)
        GridSearchSpec(axes=axes, objective="rpa")

    def test_lambda_axis_sets_both_weights(self):
        cfg = _apply_axes(PipelineConfig(), ["lambda"], [0.9])
        assert cfg.lambda_sep == 0.9
        assert cfg.lambda_f0 == 0.9

    @pytest.mark.parametrize("name", ["n_partials", "hop_size", "window_size"])
    def test_n_partials_axis_casts_to_int(self, name):
        cfg = _apply_axes(PipelineConfig(), [name], [320.0])
        assert getattr(cfg, name) == 320
        assert isinstance(getattr(cfg, name), int)

    def test_fractional_int_axis_value_rejected(self):
        with pytest.raises(ValueError, match="whole number"):
            _apply_axes(PipelineConfig(), ["n_partials"], [1.5])

    def test_invalid_width_cell_fails_without_a_solve(self, tiny_corpus, solves, monkeypatch):
        entries = load_corpus(tiny_corpus)
        reads = _count_calls(monkeypatch, READS)
        spec = GridSearchSpec(axes=(GridAxis("w", -10.0, -10.0, 1.0),))
        cells = grid_search(entries, spec, PipelineConfig())
        assert len(cells) == 1
        assert cells[0]["value"] is None
        assert cells[0]["n_failed"] == len(entries)
        assert "w must be positive" in cells[0]["error"]
        assert solves == []
        assert reads == {}

    def test_hop_size_axis_scores_every_cell(self, tiny_corpus):
        entries = load_corpus(tiny_corpus)
        spec = GridSearchSpec(axes=(GridAxis("hop_size", 160.0, 320.0, 160.0),))
        cells = grid_search(entries, spec, PipelineConfig())
        assert [c["hop_size"] for c in cells] == [160.0, 320.0]
        for cell in cells:
            assert cell["n_failed"] == 0
            assert cell["value"] is not None

    def test_single_cell_matches_direct_evaluate(self, tiny_corpus):
        entries = load_corpus(tiny_corpus)
        spec = GridSearchSpec(
            axes=(GridAxis("lambda", 0.8, 0.8, 0.1),), objective="rpa"
        )
        cells = grid_search(entries, spec, PipelineConfig())
        direct = evaluate(entries, PipelineConfig())
        assert len(cells) == 1
        assert cells[0]["lambda"] == 0.8
        assert cells[0]["value"] == pytest.approx(direct["raw_pitch_accuracy_mean"])
        assert cells[0]["n_failed"] == 0

    def test_bad_cell_recorded_and_sweep_continues(self, tiny_corpus):
        entries = load_corpus(tiny_corpus)
        spec = GridSearchSpec(
            axes=(GridAxis("lambda", -0.5, 0.8, 1.3),), objective="rpa"
        )
        cells = grid_search(entries, spec, PipelineConfig())
        assert len(cells) == 2
        assert cells[0]["value"] is None
        assert "error" in cells[0]
        assert cells[1]["value"] is not None

    def test_empty_corpus_rejected(self, solves):
        spec = GridSearchSpec(axes=(GridAxis("alpha", 0.6, 0.6, 0.2),))
        with pytest.raises(ValueError, match="empty corpus"):
            grid_search([], spec, PipelineConfig())
        assert solves == []

    @pytest.mark.parametrize(
        "order", [("lambda", "w"), ("w", "lambda")], ids=["lambda-w", "w-lambda"]
    )
    def test_each_clip_solves_each_rpca_setting_once(self, demo_corpus, solves, order):
        entries = load_corpus(demo_corpus)
        axes = {"lambda": GridAxis("lambda", 0.8, 1.0, 0.2), "w": GridAxis("w", 30.0, 50.0, 20.0)}
        spec = GridSearchSpec(axes=tuple(axes[name] for name in order))
        cells = grid_search(entries, spec, PipelineConfig())
        assert [tuple(c[name] for name in order) for c in cells] == list(
            itertools.product(*(axes[name].values() for name in order))
        )
        assert sorted(solves) == [0.8] * len(entries) + [1.0] * len(entries)

    @pytest.mark.parametrize(
        "axes,solves_per_clip",
        [
            ((GridAxis("lambda", 0.8, 1.0, 0.2), GridAxis("w", 30.0, 70.0, 20.0)), [0.8, 1.0]),
            # one contour per alpha in each group, from its lambda_f0 solve
            (
                (GridAxis("alpha", 0.0, 1.2, 0.6), GridAxis("lambda_sep", 0.8, 1.0, 0.2)),
                [0.8, 0.8, 1.0],
            ),
        ],
        ids=["lambda-w", "alpha-lambda_sep"],
    )
    def test_reads_each_clip_once_and_runs_no_solve_in_a_cell(
        self, two_lengths_corpus, solves, monkeypatch, axes, solves_per_clip
    ):
        reads = _count_calls(monkeypatch, READS)
        held, solved_in_run = [], []
        original = pipeline_mod.run

        def recording(signal, cfg, ground_truth_f0=None, dump_dir=None, *, _memo):
            held.extend(key for key in _memo if isinstance(key, tuple) and key[0] == "rpca")
            n_solves = len(solves)
            result = original(signal, cfg, ground_truth_f0, dump_dir, _memo=_memo)
            solved_in_run.append(len(solves) - n_solves)
            return result

        monkeypatch.setattr(pipeline_mod, "run", recording)
        cells = grid_search(two_lengths_corpus, GridSearchSpec(axes=axes), PipelineConfig())
        assert len(cells) == 6
        assert all(cell["n_failed"] == 0 for cell in cells)
        assert reads == {"read_wav": 6, "read_f0_csv": 2}
        assert sorted(solves) == sorted(solves_per_clip * 2)
        # the group's analysis made every solve, and let each go before
        # the cells ran
        assert solved_in_run == [0] * 12
        assert held == []

    @pytest.mark.parametrize("ground_truth", [False, True], ids=["estimated", "ground-truth"])
    def test_clip_that_fails_to_read_fails_in_every_cell(
        self, two_lengths_corpus, tmp_path, monkeypatch, caplog, ground_truth
    ):
        missing = str(tmp_path / "missing.wav")
        entries = [
            two_lengths_corpus[0],
            dataclasses.replace(two_lengths_corpus[1], vocal_path=missing),
        ]
        paths, errors = [], []
        read_wav_, clip_failure = pipeline_mod.read_wav, pipeline_mod._clip_failure

        def reading(path):
            paths.append(path)
            return read_wav_(path)

        def recording(entry, exc):
            errors.append(clip_failure(entry, exc))
            return errors[-1]

        monkeypatch.setattr(pipeline_mod, "read_wav", reading)
        monkeypatch.setattr(pipeline_mod, "_clip_failure", recording)
        calls = _record_evaluate(monkeypatch)
        spec = _failure_spec(ground_truth)
        caplog.set_level(logging.WARNING, logger=pipeline_mod.logger.name)
        cells = grid_search(entries, spec, PipelineConfig())
        # read once for the sweep, and failed in each cell with no
        # evaluate() call and one warning
        assert paths.count(missing) == 1
        assert [entries_ for entries_, _, _, _ in calls] == [entries[:1]] * len(cells)
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == len(cells) == 4
        assert all(w.startswith("clip clip00 failed: ") and "missing.wav" in w for w in warnings)
        assert [e["id"] for e in errors] == ["clip00"] * 4
        assert all(
            e["error"].startswith("FileNotFoundError") and "missing.wav" in e["error"]
            for e in errors
        )
        _assert_cells_score_as_evaluate(entries, spec, cells, calls, evaluated=entries[:1])

    @pytest.mark.parametrize(
        "stage,frames,failing_clip_solves",
        [
            # met by the group's analysis, first, midway and last; the
            # cells reuse the solves it made before the error
            ("binary_mask", lambda result: result.sparse.shape[0], [0.8, 0.8]),
            ("viterbi", lambda saliency: saliency.values.shape[0], [0.8, 0.8]),
            ("wiener_mask", lambda result: result.sparse.shape[0], [0.8, 0.8, 1.0]),
            # met by each cell's own run()
            ("harmonic_mask", lambda contour: contour.f0_hz.size, [0.8, 0.8, 1.0]),
        ],
        ids=["binary_mask", "viterbi", "wiener_mask", "harmonic_mask"],
    )
    def test_stage_that_fails_on_one_clip_fails_in_every_cell(
        self, two_lengths_corpus, solves, monkeypatch, stage, frames, failing_clip_solves
    ):
        original = getattr(pipeline_mod, stage)

        def failing(first, *args):
            if frames(first) == 151:  # the 1.5 s clip
                raise RuntimeError("%s failed on this clip" % stage)
            return original(first, *args)

        monkeypatch.setattr(pipeline_mod, stage, failing)
        calls = _record_evaluate(monkeypatch)
        spec = _failure_spec()
        cells = grid_search(two_lengths_corpus, spec, PipelineConfig())
        assert sorted(solves) == sorted([0.8, 0.8, 1.0] + failing_clip_solves)
        _assert_cells_score_as_evaluate(two_lengths_corpus, spec, cells, calls)
        errors = [
            report["clips"][0]["error"]
            for entries_, _, _, report in calls
            if entries_[0] is two_lengths_corpus[1]
        ]
        assert errors == ["RuntimeError: %s failed on this clip" % stage] * 4

    @pytest.mark.parametrize(
        "axes",
        [
            (GridAxis("gamma", 0.5, 1.0, 0.5),),
            (GridAxis("alpha", 0.6, 1.2, 0.6), GridAxis("n_partials", 0.0, 10.0, 10.0)),
            # the memo's keys record none of these fields, so only
            # grid_search's grouping keeps their cells apart
            (GridAxis("window_size", 1024.0, 2048.0, 1024.0),),
            (GridAxis("hop_size", 160.0, 320.0, 160.0), GridAxis("w", 30.0, 70.0, 40.0)),
            (GridAxis("w", 30.0, 70.0, 40.0), GridAxis("lambda_sep", 0.8, 1.0, 0.2)),
            (GridAxis("lambda_f0", 0.8, 1.0, 0.2), GridAxis("gamma", 0.5, 1.0, 0.5)),
        ],
        ids=[
            "gamma", "alpha-n_partials", "window_size", "hop_size-w", "w-lambda_sep",
            "lambda_f0-gamma",
        ],
    )
    def test_every_cell_scores_as_evaluate(self, demo_corpus, axes):
        entries = load_corpus(demo_corpus)
        cfg = PipelineConfig()
        names = [axis.name for axis in axes]
        cells = grid_search(entries, GridSearchSpec(axes=axes), cfg)
        combos = list(itertools.product(*(axis.values() for axis in axes)))
        assert [tuple(c[name] for name in names) for c in cells] == combos
        for cell, combo in zip(cells, combos):
            if cell.get("n_partials") == 0:
                assert cell["value"] is None
                assert "n_partials must be >= 1" in cell["error"]
                assert cell["n_failed"] == len(entries)
                continue
            report = evaluate(entries, _apply_axes(cfg, names, combo))
            assert cell["value"] == report["vocal"]["gnsdr"]
            assert cell["n_failed"] == report["n_failed"] == 0
            assert "error" not in cell

    def test_cells_sharing_lambda_reuse_solves(self, tiny_corpus, solves):
        entries = load_corpus(tiny_corpus)
        cfg = PipelineConfig()
        lam = GridAxis("lambda", 0.8, 1.0, 0.2)
        width = GridAxis("w", 30.0, 50.0, 20.0)
        cells = grid_search(entries, GridSearchSpec(axes=(lam, width)), cfg)
        assert len(solves) == 2 * len(entries)

        fresh = {}
        for cell in cells:
            report = evaluate(entries, _apply_axes(cfg, ["lambda", "w"], [cell["lambda"], cell["w"]]))
            fresh[cell["lambda"], cell["w"]] = report
            assert cell["value"] == report["vocal"]["gnsdr"]
            assert cell["n_failed"] == report["n_failed"] == 0

        swapped = grid_search(entries, GridSearchSpec(axes=(width, lam)), cfg)
        key = lambda c: (c["lambda"], c["w"])
        assert sorted(swapped, key=key) == sorted(cells, key=key)

        # an invalid cell between valid ones is recorded and leaves them be
        del solves[:]
        mixed = grid_search(
            entries, GridSearchSpec(axes=(width, GridAxis("lambda", -0.5, 0.8, 1.3))), cfg
        )
        assert [(c["w"], c["lambda"]) for c in mixed] == [
            (30.0, -0.5), (30.0, 0.8), (50.0, -0.5), (50.0, 0.8),
        ]
        for cell in mixed[0::2]:
            assert cell["value"] is None and "error" in cell
            assert cell["n_failed"] == len(entries)
        for cell in mixed[1::2]:
            report = fresh[0.8, cell["w"]]
            assert cell["value"] == report["vocal"]["gnsdr"]
            assert cell["n_failed"] == 0
        assert len(solves) == len(entries)


class TestCsvWriters:
    def test_grid_csv_orders_best_first(self, tmp_path):
        spec = GridSearchSpec(axes=(GridAxis("lambda", 0.6, 0.8, 0.1),))
        cells = [
            {"lambda": 0.6, "value": 1.0, "n_failed": 0},
            {"lambda": 0.7, "value": 2.5, "n_failed": 0},
            {"lambda": 0.8, "value": None, "n_failed": 2, "error": "boom"},
        ]
        path = tmp_path / "grid.csv"
        write_grid_csv(cells, spec, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",") == ["lambda", "gnsdr", "n_failed", "error"]
        assert lines[1].startswith("0.7,2.5")
        assert lines[2].startswith("0.6,1.0")
        assert lines[3].startswith("0.8,,2,boom")

    def test_report_csv_flat_rows(self, tmp_path):
        score = {"sdr": 1.0, "sir": 2.0, "sar": 3.0, "nsdr": 0.5}
        report = {
            "clips": [
                {
                    "id": "a",
                    "length_seconds": 2.0,
                    "vocal": dict(score),
                    "accompaniment": dict(score),
                    "raw_pitch_accuracy": 0.9,
                },
                {"id": "b", "error": "ValueError: nope"},
            ],
            "n_clips": 2,
            "n_failed": 1,
        }
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[1] == "a"
        assert lines[2].split(",")[1] == "b"
        assert lines[2].endswith("ValueError: nope")

    def test_report_csv_with_sections(self, tmp_path):
        report = {
            "sections": [
                {"snr_db": -5.0, "clips": [{"id": "a", "error": "x"}]},
                {"snr_db": 5.0, "clips": [{"id": "a", "error": "x"}]},
            ]
        }
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[1].split(",")[0] == "-5.0"
        assert lines[2].split(",")[0] == "5.0"
