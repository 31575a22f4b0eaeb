"""Batch command line interface.

Subcommands: separate, estimate-f0, evaluate, grid-search. Progress and
stage timings go to stderr; results go only to the requested output
files. Exit codes: 0 success, 2 invalid input, 3 partial corpus failure
(some clips or grid cells failed but the sweep finished).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys

from . import pipeline
from .audio import check_wav_rate, read_wav, write_wav
from .metrics import PITCH_TOLERANCE_CENTS
from .pipeline import GridAxis, GridSearchSpec, PipelineConfig
from .report import report_failures, write_grid_csv, write_report_csv
from .tracking import write_f0_csv

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_PARTIAL_FAILURE = 3

logger = logging.getLogger("vocsep")


def _config_from_args(args, sample_rate: int) -> PipelineConfig:
    """Every command's config: the defaults for the audio's sample rate,
    then --config, then the config flags given."""
    if args.config:
        cfg = PipelineConfig.from_json(args.config, sample_rate=sample_rate)
    else:
        cfg = PipelineConfig.for_sample_rate(sample_rate)
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(PipelineConfig)
        if getattr(args, f.name, None) is not None
    }
    return cfg.with_overrides(overrides)


def _cmd_separate(args) -> int:
    signal = read_wav(args.input, mixdown=args.mixdown)
    # the outputs take the input's rate, so check it before the separation runs
    check_wav_rate(signal.sample_rate)
    cfg = _config_from_args(args, signal.sample_rate)
    result, contour = pipeline.run(signal, cfg, dump_dir=args.dump_dir)
    write_wav(args.vocal, result.vocal)
    write_wav(args.accomp, result.accompaniment)
    if args.f0_csv:
        write_f0_csv(contour, args.f0_csv)
    logger.info("wrote %s and %s", args.vocal, args.accomp)
    return EXIT_OK


def _cmd_estimate_f0(args) -> int:
    signal = read_wav(args.input, mixdown=args.mixdown)
    cfg = _config_from_args(args, signal.sample_rate)
    contour = pipeline.estimate_f0(signal, cfg, dump_dir=args.dump_dir)
    write_f0_csv(contour, args.out)
    logger.info("wrote %s", args.out)
    return EXIT_OK


def _corpus_and_config(args):
    """The manifest entries and their config. The geometry defaults
    follow the rate of the first clip's vocal reference, which every
    evaluation reads. A clip whose vocal reference has another rate is
    invalid input: one geometry would score it at the wrong resolution."""
    entries = pipeline.load_corpus(args.corpus)
    rate = read_wav(entries[0].vocal_path).sample_rate
    for entry in entries[1:]:
        other = read_wav(entry.vocal_path).sample_rate
        if other != rate:
            raise ValueError(
                "clip %r has a %d Hz vocal reference, but the corpus runs at the "
                "first clip's %d Hz; evaluate one sample rate at a time"
                % (entry.clip_id, other, rate)
            )
    return entries, _config_from_args(args, rate)


def _cmd_evaluate(args) -> int:
    entries, cfg = _corpus_and_config(args)
    snr_list = [float(s) for s in args.snr.split(",")] if args.snr else None
    report = pipeline.evaluate(
        entries,
        cfg,
        snr_list=snr_list,
        tolerance_cents=args.tolerance_cents,
    )
    if args.csv:
        write_report_csv(report, args.out)
    else:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    failed = report_failures(report)
    if failed:
        logger.warning("%d clip evaluations failed", failed)
        return EXIT_PARTIAL_FAILURE
    logger.info("wrote %s", args.out)
    return EXIT_OK


def _parse_axis(text: str) -> GridAxis:
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError(
            "axis must be name:start:stop:step, got %r" % (text,)
        )
    return GridAxis(
        name=parts[0], start=float(parts[1]), stop=float(parts[2]), step=float(parts[3])
    )


def _cmd_grid_search(args) -> int:
    spec = GridSearchSpec(
        axes=tuple(_parse_axis(a) for a in args.axis),
        objective=args.objective,
        use_ground_truth_f0=args.ground_truth_f0,
    )
    entries, cfg = _corpus_and_config(args)
    cells = pipeline.grid_search(entries, spec, cfg, tolerance_cents=args.tolerance_cents)
    write_grid_csv(cells, spec, args.out)
    failed_cells = sum(1 for c in cells if c["value"] is None or c["n_failed"])
    if failed_cells:
        logger.warning("%d grid cells had failures", failed_cells)
        return EXIT_PARTIAL_FAILURE
    logger.info("wrote %s", args.out)
    return EXIT_OK


def _parent_parsers():
    """The arguments shared by the audio commands (separate,
    estimate-f0) and by the corpus commands (evaluate, grid-search)."""
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="JSON file of PipelineConfig field overrides")

    audio = argparse.ArgumentParser(add_help=False, parents=[config])
    audio.add_argument("input", help="mixture WAV (mono; see --mixdown)")
    audio.add_argument("--mixdown", action="store_true", help="average multichannel input")
    audio.add_argument("--dump-dir", help="directory for debug dumps, created if missing")
    audio.add_argument("--lambda-sep", type=float, dest="lambda_sep")
    audio.add_argument("--lambda-f0", type=float, dest="lambda_f0")
    audio.add_argument("--gamma", type=float)
    audio.add_argument("--n-partials", type=int, dest="n_partials")
    audio.add_argument("--w", type=float, help="harmonic mask lobe width in Hz")
    audio.add_argument("--alpha", type=float, help="enhancement exponent")
    audio.add_argument("--mask-mode", choices=["soft", "binary"], dest="mask_mode")

    corpus = argparse.ArgumentParser(add_help=False, parents=[config])
    corpus.add_argument("--corpus", required=True, help="manifest JSON")
    corpus.add_argument("--out", required=True, help="report or grid CSV path")
    corpus.add_argument(
        "--tolerance-cents", type=float, default=PITCH_TOLERANCE_CENTS, dest="tolerance_cents"
    )
    return audio, corpus


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vocsep",
        description="Separate singing voice from accompaniment and estimate vocal F0.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)
    audio, corpus = _parent_parsers()

    p = sub.add_parser(
        "separate", parents=[audio], help="split a mixture WAV into vocal/accompaniment"
    )
    p.add_argument("--vocal", required=True, help="output WAV for the vocal estimate")
    p.add_argument("--accomp", required=True, help="output WAV for the accompaniment")
    p.add_argument("--f0-csv", dest="f0_csv", help="also write the tracked F0 contour")
    p.set_defaults(func=_cmd_separate)

    p = sub.add_parser(
        "estimate-f0", parents=[audio], help="write the vocal F0 contour of a mixture"
    )
    p.add_argument("--out", required=True, help="output CSV (time_seconds,f0_hz)")
    p.set_defaults(func=_cmd_estimate_f0)

    p = sub.add_parser("evaluate", parents=[corpus], help="score a corpus manifest")
    p.add_argument("--csv", action="store_true", help="write CSV instead of JSON")
    p.add_argument("--snr", help="comma-separated SNRs in dB to remix at, e.g. -5,0,5")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser(
        "grid-search", parents=[corpus], help="sweep config fields over a corpus"
    )
    p.add_argument("--axis", action="append", required=True,
                   help="name:start:stop:step (repeatable); name 'lambda' sets both weights")
    p.add_argument("--objective", choices=["gnsdr", "rpa"], default="gnsdr")
    p.add_argument("--ground-truth-f0", action="store_true", dest="ground_truth_f0",
                   help="build harmonic masks from the truth contours")
    p.set_defaults(func=_cmd_grid_search)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        logger.error("%s", exc)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
