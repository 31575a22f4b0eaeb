#!/usr/bin/env python3
"""Separate one synthetic clip end to end and report the scores.

Writes vocal/accompaniment estimates and the F0 contour next to the
mixture, then prints raw pitch accuracy and the separation gains against
the known references.
"""

import argparse
import logging
from pathlib import Path

from vocsep.audio import write_wav
from vocsep.metrics import PITCH_TOLERANCE_CENTS, nsdr, raw_pitch_accuracy
from vocsep.pipeline import PipelineConfig, run
from vocsep.synth import make_clip
from vocsep.tracking import write_f0_csv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo_out", help="output directory")
    parser.add_argument("--duration", type=float, default=10.0)
    parser.add_argument("--sample-rate", type=int, default=16000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--mask-mode", choices=("soft", "binary"), default="soft")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args()

    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    clip = make_clip(
        duration_seconds=args.duration,
        sample_rate=args.sample_rate,
        seed=args.seed,
    )
    cfg = PipelineConfig.for_sample_rate(args.sample_rate).with_overrides(
        {"mask_mode": args.mask_mode}
    )
    result, contour = run(clip.mixture, cfg)

    write_wav(out / "mixture.wav", clip.mixture)
    write_wav(out / "vocal_est.wav", result.vocal)
    write_wav(out / "accomp_est.wav", result.accompaniment)
    write_f0_csv(contour, out / "f0.csv")

    rpa = raw_pitch_accuracy(contour, clip.truth)
    print("raw pitch accuracy (%g cents): %.4f" % (PITCH_TOLERANCE_CENTS, rpa))
    print("vocal NSDR: %+.2f dB" % nsdr(result.vocal, clip.vocal, clip.mixture))
    print(
        "accompaniment NSDR: %+.2f dB"
        % nsdr(result.accompaniment, clip.accompaniment, clip.mixture)
    )
    print("outputs in %s" % out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
