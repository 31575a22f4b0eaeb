"""Command line behavior: outputs, exit codes, determinism."""

import hashlib
import json
import logging
import struct

import numpy as np
import pytest

import vocsep.cli as cli_mod
import vocsep.pipeline as pipeline_mod
import vocsep.rpca as rpca_mod
from vocsep.audio import AudioSignal, read_wav, write_wav
from vocsep.cli import EXIT_INVALID_INPUT, EXIT_OK, EXIT_PARTIAL_FAILURE, main
from vocsep.synth import make_clip, write_demo_corpus
from vocsep.tracking import read_f0_csv


def _sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


RUN_DUMPS = [
    "binary_rpca.pgm", "harmonic.pgm", "integrated.csv",
    "rpca_trace.csv", "saliency.csv", "wiener.pgm",
]
CONTOUR_DUMPS = ["binary_rpca.pgm", "rpca_trace.csv", "saliency.csv"]


@pytest.fixture(scope="module")
def mix_wav(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "mix.wav"
    clip = make_clip(duration_seconds=1.2, sample_rate=16000, seed=5)
    write_wav(path, clip.mixture)
    return str(path)


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_corpus")
    return write_demo_corpus(root, n_clips=1, duration_seconds=1.5)


@pytest.fixture(scope="module")
def corpus_44k(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus_44k")
    return write_demo_corpus(root, n_clips=1, duration_seconds=1.0, sample_rate=44100)


class TestSeparate:
    def test_writes_outputs(self, mix_wav, tmp_path):
        vocal = tmp_path / "vocal.wav"
        accomp = tmp_path / "accomp.wav"
        f0 = tmp_path / "f0.csv"
        code = main([
            "separate", mix_wav,
            "--vocal", str(vocal), "--accomp", str(accomp), "--f0-csv", str(f0),
        ])
        assert code == EXIT_OK
        mix = read_wav(mix_wav)
        v = read_wav(vocal)
        a = read_wav(accomp)
        assert v.samples.size == mix.samples.size
        assert a.samples.size == mix.samples.size
        contour = read_f0_csv(f0)
        assert contour.n_frames == 1 + mix.samples.size // 160

    def test_deterministic_across_runs(self, mix_wav, tmp_path):
        digests = []
        for tag in ("a", "b"):
            vocal = tmp_path / ("vocal_%s.wav" % tag)
            accomp = tmp_path / ("accomp_%s.wav" % tag)
            f0 = tmp_path / ("f0_%s.csv" % tag)
            code = main([
                "separate", mix_wav,
                "--vocal", str(vocal), "--accomp", str(accomp), "--f0-csv", str(f0),
            ])
            assert code == EXIT_OK
            digests.append((_sha(vocal), _sha(accomp), _sha(f0)))
        assert digests[0] == digests[1]

    def test_missing_input_fails_cleanly(self, tmp_path):
        code = main([
            "separate", str(tmp_path / "nope.wav"),
            "--vocal", str(tmp_path / "v.wav"), "--accomp", str(tmp_path / "a.wav"),
        ])
        assert code == EXIT_INVALID_INPUT

    def test_stereo_needs_mixdown(self, tmp_path):
        from scipy.io import wavfile

        stereo = tmp_path / "stereo.wav"
        clip = make_clip(duration_seconds=1.2, sample_rate=16000, seed=6)
        data = np.stack([clip.mixture.samples, clip.mixture.samples], axis=1)
        wavfile.write(stereo, 16000, data.astype(np.float32))

        args = [
            "separate", str(stereo),
            "--vocal", str(tmp_path / "v.wav"), "--accomp", str(tmp_path / "a.wav"),
        ]
        assert main(args) == EXIT_INVALID_INPUT
        assert main(args + ["--mixdown"]) == EXIT_OK

    def test_dump_dir_is_created(self, mix_wav, tmp_path):
        dump = tmp_path / "new" / "dumps"
        vocal, accomp, f0 = tmp_path / "v.wav", tmp_path / "a.wav", tmp_path / "f0.csv"
        code = main([
            "separate", mix_wav, "--vocal", str(vocal), "--accomp", str(accomp),
            "--f0-csv", str(f0), "--dump-dir", str(dump),
        ])
        assert code == EXIT_OK
        assert sorted(p.name for p in dump.iterdir()) == RUN_DUMPS
        assert vocal.exists() and accomp.exists() and f0.exists()

    def test_dump_dir_that_is_a_file_fails_before_output(self, mix_wav, tmp_path):
        dump = tmp_path / "taken"
        dump.write_text("")
        vocal, accomp = tmp_path / "v.wav", tmp_path / "a.wav"
        code = main([
            "separate", mix_wav, "--vocal", str(vocal), "--accomp", str(accomp),
            "--dump-dir", str(dump),
        ])
        assert code == EXIT_INVALID_INPUT
        assert not vocal.exists() and not accomp.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_are_invalid_input(self, tmp_path, bad):
        from scipy.io import wavfile

        samples = make_clip(duration_seconds=0.5, sample_rate=16000, seed=5).mixture.samples
        samples = samples.astype(np.float32)
        samples[100] = bad
        wav = tmp_path / "bad.wav"
        wavfile.write(wav, 16000, samples)
        vocal, accomp = tmp_path / "v.wav", tmp_path / "a.wav"
        code = main(["separate", str(wav), "--vocal", str(vocal), "--accomp", str(accomp)])
        assert code == EXIT_INVALID_INPUT
        assert not vocal.exists() and not accomp.exists()

    def test_rate_the_output_header_cannot_hold_is_invalid_input(
        self, tmp_path, caplog, monkeypatch
    ):
        # read_wav takes any 32-bit rate, but a written header holds
        # rates below 2**30 Hz only; the rate fails before any solve
        solves = []
        monkeypatch.setattr(rpca_mod, "decompose", lambda *args: solves.append(args))
        wav = tmp_path / "fast.wav"
        samples = make_clip(duration_seconds=0.5, sample_rate=16000, seed=5).mixture.samples
        write_wav(wav, AudioSignal(samples[:5000], 16000))
        raw = bytearray(wav.read_bytes())
        struct.pack_into("<I", raw, 24, 2**31)  # the fmt chunk's sample rate
        wav.write_bytes(bytes(raw))
        vocal, accomp = tmp_path / "v.wav", tmp_path / "a.wav"
        with caplog.at_level(logging.ERROR, logger="vocsep"):
            code = main(["separate", str(wav), "--vocal", str(vocal), "--accomp", str(accomp)])
        assert code == EXIT_INVALID_INPUT
        assert not vocal.exists() and not accomp.exists()
        assert "sample rate of %d Hz" % 2**31 in caplog.text
        assert solves == []

    def test_unknown_config_field_fails(self, mix_wav, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"no_such_knob": 1}))
        code = main([
            "separate", mix_wav,
            "--vocal", str(tmp_path / "v.wav"), "--accomp", str(tmp_path / "a.wav"),
            "--config", str(cfg),
        ])
        assert code == EXIT_INVALID_INPUT

    @pytest.mark.parametrize(
        "overrides", [{"hop_size": 160.5}, {"n_partials": "10"}], ids=["fraction", "string"]
    )
    def test_wrong_config_type_is_invalid_input(self, mix_wav, tmp_path, overrides):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        vocal, accomp = tmp_path / "v.wav", tmp_path / "a.wav"
        code = main([
            "separate", mix_wav, "--vocal", str(vocal), "--accomp", str(accomp),
            "--config", str(cfg),
        ])
        assert code == EXIT_INVALID_INPUT
        assert not vocal.exists() and not accomp.exists()


    @pytest.mark.parametrize(
        "config, flags",
        [
            ('{"lambda_sep": NaN}', []),
            ('{"lambda_f0": Infinity}', []),
            ('{"alpha": NaN}', []),
            (None, ["--w", "-5"]),
            (None, ["--n-partials", "0"]),
            (None, ["--gamma", "-1"]),
            (None, ["--alpha", "-0.5"]),
        ],
        ids=["nan-lambda-sep", "inf-lambda-f0", "nan-alpha", "w", "n-partials", "gamma", "alpha"],
    )
    def test_bad_config_value_fails_before_any_solve(
        self, mix_wav, tmp_path, monkeypatch, config, flags
    ):
        solves = []
        monkeypatch.setattr(rpca_mod, "decompose", lambda *args: solves.append(args))
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(config)
            flags = ["--config", str(path)]
        vocal, accomp, f0 = tmp_path / "v.wav", tmp_path / "a.wav", tmp_path / "f0.csv"
        code = main([
            "separate", mix_wav, "--vocal", str(vocal), "--accomp", str(accomp),
            "--f0-csv", str(f0),
        ] + flags)
        assert code == EXIT_INVALID_INPUT
        assert not vocal.exists() and not accomp.exists() and not f0.exists()
        assert solves == []


class TestEstimateF0:
    def test_writes_contour(self, mix_wav, tmp_path):
        out = tmp_path / "f0.csv"
        code = main(["estimate-f0", mix_wav, "--out", str(out)])
        assert code == EXIT_OK
        contour = read_f0_csv(out)
        mix = read_wav(mix_wav)
        assert contour.n_frames == 1 + mix.samples.size // 160
        voiced = contour.f0_hz[contour.voiced]
        assert voiced.size > 0
        assert np.all((voiced >= 80.0) & (voiced <= 720.0))

    def test_dump_dir_is_created(self, mix_wav, tmp_path):
        dump = tmp_path / "new" / "dumps"
        out = tmp_path / "f0.csv"
        code = main(["estimate-f0", mix_wav, "--out", str(out), "--dump-dir", str(dump)])
        assert code == EXIT_OK
        assert sorted(p.name for p in dump.iterdir()) == CONTOUR_DUMPS
        assert out.exists()


class TestEvaluate:
    def test_json_report(self, cli_corpus, tmp_path):
        out = tmp_path / "report.json"
        code = main(["evaluate", "--corpus", cli_corpus, "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["n_clips"] == 1
        assert report["n_failed"] == 0
        assert "vocal" in report

    def test_snr_sections(self, cli_corpus, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "evaluate", "--corpus", cli_corpus, "--out", str(out), "--snr=-5,0,5",
        ])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert [s["snr_db"] for s in report["sections"]] == [-5.0, 0.0, 5.0]

    def test_csv_report(self, cli_corpus, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["evaluate", "--corpus", cli_corpus, "--out", str(out), "--csv"])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("snr_db,id,")
        assert len(lines) == 2

    def test_broken_clip_gives_partial_failure(self, cli_corpus, tmp_path):
        with open(cli_corpus) as fh:
            entries = json.load(fh)
        entries.append(dict(entries[0], id="ghost", mixture_path=str(tmp_path / "no.wav")))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(entries))
        out = tmp_path / "report.json"
        code = main(["evaluate", "--corpus", str(manifest), "--out", str(out)])
        assert code == EXIT_PARTIAL_FAILURE
        report = json.loads(out.read_text())
        assert report["n_failed"] == 1

    @pytest.mark.parametrize(
        "path_key, message",
        [
            ("accomp_path", "reference sample rates differ for late"),
            ("mixture_path", "mixture sample rate differs for late"),
        ],
        ids=["accompaniment", "mixture"],
    )
    def test_clip_file_at_another_rate_fails_alone(self, cli_corpus, tmp_path, path_key, message):
        with open(cli_corpus) as fh:
            (entry,) = json.load(fh)
        resampled = tmp_path / "other_rate.wav"
        signal = read_wav(entry[path_key])
        write_wav(resampled, AudioSignal(signal.samples, 2 * signal.sample_rate))
        late = dict(entry, id="late", **{path_key: str(resampled)})
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([entry, late]))

        report = pipeline_mod.evaluate(
            pipeline_mod.load_corpus(manifest), pipeline_mod.PipelineConfig()
        )
        assert (report["n_clips"], report["n_failed"]) == (2, 1)
        assert report["clips"][1]["error"] == "ValueError: " + message
        out = tmp_path / "report.json"
        code = main(["evaluate", "--corpus", str(manifest), "--out", str(out)])
        assert code == EXIT_PARTIAL_FAILURE
        assert json.loads(out.read_text())["clips"][1]["error"] == "ValueError: " + message

    @pytest.mark.parametrize(
        "command", [["evaluate"], ["grid-search", "--axis", "alpha:0.6:0.6:0.2"]]
    )
    def test_workers_flag_is_unknown(self, cli_corpus, tmp_path, command):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--corpus", cli_corpus, "--out", str(out), "--workers", "2"])
        assert exit_info.value.code == EXIT_INVALID_INPUT
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", [["evaluate"], ["grid-search", "--axis", "alpha:0.6:0.6:0.2"]]
    )
    @pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-5"])
    def test_bad_tolerance_is_invalid_input(
        self, cli_corpus, tmp_path, monkeypatch, command, tolerance
    ):
        solves = []
        monkeypatch.setattr(rpca_mod, "decompose", lambda *args: solves.append(args))
        out = tmp_path / "out"
        code = main(
            command + ["--corpus", cli_corpus, "--out", str(out), "--tolerance-cents", tolerance]
        )
        assert code == EXIT_INVALID_INPUT
        assert not out.exists()
        assert solves == []

    @pytest.mark.parametrize("snr", ["nan", "inf", "0,-inf"])
    def test_non_finite_snr_is_invalid_input(self, cli_corpus, tmp_path, monkeypatch, snr):
        solves = []
        monkeypatch.setattr(rpca_mod, "decompose", lambda *args: solves.append(args))
        out = tmp_path / "report.json"
        code = main(["evaluate", "--corpus", cli_corpus, "--out", str(out), "--snr=" + snr])
        assert code == EXIT_INVALID_INPUT
        assert not out.exists()
        assert solves == []

    def test_malformed_manifest_is_invalid_input(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("{}")
        code = main([
            "evaluate", "--corpus", str(manifest), "--out", str(tmp_path / "r.json"),
        ])
        assert code == EXIT_INVALID_INPUT


class TestCorpusGeometry:
    """evaluate and grid-search take their geometry defaults from the
    rate of the first clip's vocal reference."""

    @pytest.mark.parametrize(
        "config, expected",
        [
            (None, (4096, 441, 20, 70.0)),
            ({"window_size": 2048, "hop_size": 160}, (2048, 160, 20, 70.0)),
        ],
        ids=["defaults", "config"],
    )
    def test_evaluate_geometry_follows_corpus_rate(
        self, corpus_44k, tmp_path, config, expected
    ):
        out = tmp_path / "report.json"
        flags = []
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            flags = ["--config", str(path)]
        code = main(["evaluate", "--corpus", corpus_44k, "--out", str(out)] + flags)
        assert code == EXIT_OK
        cfg = json.loads(out.read_text())["config"]
        assert (cfg["window_size"], cfg["hop_size"], cfg["n_partials"], cfg["w"]) == expected

    def test_grid_search_geometry_follows_corpus_rate(self, corpus_44k, tmp_path, monkeypatch):
        seen = []
        sweep = pipeline_mod.grid_search

        def recording(entries, spec, cfg, **kwargs):
            seen.append(cfg)
            return sweep(entries, spec, cfg, **kwargs)

        monkeypatch.setattr(pipeline_mod, "grid_search", recording)
        out = tmp_path / "grid.csv"
        code = main([
            "grid-search", "--corpus", corpus_44k, "--out", str(out),
            "--axis", "alpha:0.6:0.6:0.2",
        ])
        assert code == EXIT_OK
        assert [(c.window_size, c.hop_size, c.n_partials, c.w) for c in seen] == [
            (4096, 441, 20, 70.0)
        ]
        assert len(out.read_text().strip().splitlines()) == 2

    @pytest.mark.parametrize(
        "command",
        [["evaluate"], ["grid-search", "--axis", "alpha:0.6:0.6:0.2"]],
        ids=["evaluate", "grid-search"],
    )
    @pytest.mark.parametrize("fault", ["missing", "zero-rate"])
    def test_unreadable_first_reference_is_invalid_input(
        self, cli_corpus, tmp_path, monkeypatch, command, fault
    ):
        solves = []
        monkeypatch.setattr(rpca_mod, "decompose", lambda *args: solves.append(args))
        with open(cli_corpus) as fh:
            entries = json.load(fh)
        vocal = tmp_path / "vocal.wav"
        if fault == "zero-rate":
            with open(entries[0]["vocal_path"], "rb") as fh:
                raw = bytearray(fh.read())
            struct.pack_into("<I", raw, 24, 0)  # the fmt chunk's sample rate
            vocal.write_bytes(bytes(raw))
        entries[0]["vocal_path"] = str(vocal)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(entries))
        out = tmp_path / "out"
        code = main(command + ["--corpus", str(manifest), "--out", str(out)])
        assert code == EXIT_INVALID_INPUT
        assert not out.exists()
        assert solves == []


    @pytest.mark.parametrize(
        "command",
        [["evaluate"], ["grid-search", "--axis", "alpha:0.6:0.6:0.2"]],
        ids=["evaluate", "grid-search"],
    )
    @pytest.mark.parametrize("first", ["16k", "44k"])
    def test_mixed_rates_are_invalid_input(
        self, cli_corpus, corpus_44k, tmp_path, monkeypatch, caplog, command, first
    ):
        solves = []
        monkeypatch.setattr(rpca_mod, "decompose", lambda *args: solves.append(args))
        corpora = {}
        for name, path in (("16k", cli_corpus), ("44k", corpus_44k)):
            with open(path) as fh:
                (entry,) = json.load(fh)
            entry["id"] = "clip-" + name
            corpora[name] = entry
        second = "44k" if first == "16k" else "16k"
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([corpora[first], corpora[first], corpora[second]]))
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR, logger="vocsep"):
            code = main(command + ["--corpus", str(manifest), "--out", str(out)])
        assert code == EXIT_INVALID_INPUT
        assert not out.exists()
        assert solves == []
        assert "'clip-%s'" % second in caplog.text


class TestGridSearch:
    def test_single_cell_sweep(self, cli_corpus, tmp_path):
        out = tmp_path / "grid.csv"
        code = main([
            "grid-search", "--corpus", cli_corpus, "--out", str(out),
            "--axis", "alpha:0.6:0.6:0.2", "--objective", "rpa",
        ])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "alpha,rpa,n_failed,error"
        assert len(lines) == 2

    def test_malformed_axis_is_invalid_input(self, cli_corpus, tmp_path):
        code = main([
            "grid-search", "--corpus", cli_corpus, "--out", str(tmp_path / "g.csv"),
            "--axis", "alpha:0.6:0.6",
        ])
        assert code == EXIT_INVALID_INPUT

    @pytest.mark.parametrize(
        "axis", ["lambda:0.8:inf:0.1", "lambda:nan:1.0:0.1", "alpha:0.6:0.6:nan"]
    )
    def test_non_finite_axis_is_invalid_input(self, cli_corpus, tmp_path, axis):
        out = tmp_path / "grid.csv"
        code = main(["grid-search", "--corpus", cli_corpus, "--out", str(out), "--axis", axis])
        assert code == EXIT_INVALID_INPUT
        assert not out.exists()

    def test_repeated_axis_field_is_invalid_input(self, cli_corpus, tmp_path):
        out = tmp_path / "grid.csv"
        code = main([
            "grid-search", "--corpus", cli_corpus, "--out", str(out),
            "--axis", "alpha:0.2:0.4:0.2", "--axis", "alpha:0.6:0.8:0.2",
        ])
        assert code == EXIT_INVALID_INPUT
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["--axis", "lamda:0.8:1.0:0.2"],
            ["--axis", "mask_mode:0:1:1"],
            ["--axis", "w:30:70:40", "--objective", "rpa", "--ground-truth-f0"],
            ["--axis", "w:1:1e308:1e-10"],
            ["--axis", "w:0:1:1e-300"],
        ],
        ids=[
            "misspelled-axis", "non-numeric-field", "rpa-of-the-truth-contour",
            "value-count-overflows", "value-count-past-maxsize",
        ],
    )
    def test_invalid_spec_exits_before_reading_audio(self, cli_corpus, tmp_path, monkeypatch, args):
        reads = []

        def recorded_read(path, **kwargs):
            reads.append(path)
            return read_wav(path, **kwargs)

        monkeypatch.setattr(cli_mod, "read_wav", recorded_read)
        monkeypatch.setattr(pipeline_mod, "read_wav", recorded_read)
        out = tmp_path / "grid.csv"
        code = main(["grid-search", "--corpus", cli_corpus, "--out", str(out)] + args)
        assert code == EXIT_INVALID_INPUT
        assert not out.exists()
        assert reads == []

    def test_failing_cell_gives_partial_failure(self, cli_corpus, tmp_path):
        out = tmp_path / "grid.csv"
        code = main([
            "grid-search", "--corpus", cli_corpus, "--out", str(out),
            "--axis", "lambda:-0.5:-0.5:1.0", "--objective", "rpa",
        ])
        assert code == EXIT_PARTIAL_FAILURE
        assert out.exists()
