"""Text formats of reports and debug dumps: the RPCA solver trace,
saliency and mask dumps, the grid-search CSV and the flattened
evaluation report. Formats read back by the program stay next to their
readers: WAV in audio.py, F0 CSV in tracking.py, manifests and config
JSON in pipeline.py.
"""

from __future__ import annotations

import contextlib
import csv

import numpy as np

from .masks import TimeFrequencyMask
from .rpca import RpcaResult
from .saliency import SaliencySpectrogram

__all__ = [
    "trace_to_csv",
    "mask_to_pgm",
    "mask_to_csv",
    "saliency_to_csv",
    "write_grid_csv",
    "write_report_csv",
    "report_failures",
]


@contextlib.contextmanager
def _rows(path, **dialect):
    """A csv.writer on a new file at path."""
    with open(path, "w", newline="") as fh:
        yield csv.writer(fh, **dialect)


def _write_frames(writer, values) -> None:
    """One frame per row, %.8g per value."""
    for row in values:
        writer.writerow(["%.8g" % v for v in row])


def trace_to_csv(result: RpcaResult, path) -> None:
    """Dump the per-iteration solver trace for debugging."""
    with _rows(path) as writer:
        writer.writerow(["iteration", "residual", "rank_estimate", "nnz"])
        writer.writerows(result.trace)


def mask_to_pgm(mask: TimeFrequencyMask, path) -> None:
    """Write a mask as an ASCII PGM image (bins across, frames down)."""
    with _rows(path, delimiter=" ", lineterminator="\n") as writer:
        writer.writerows([["P2"], [mask.n_bins, mask.n_frames], [255]])
        writer.writerows(np.rint(mask.values * 255).astype(int).tolist())


def mask_to_csv(mask: TimeFrequencyMask, path) -> None:
    """Write a mask as CSV, one frame per row."""
    with _rows(path) as writer:
        _write_frames(writer, mask.values)


def saliency_to_csv(s: SaliencySpectrogram, path) -> None:
    """Write saliency values as CSV: a row of grid centres in Hz, then
    one frame per row."""
    with _rows(path) as writer:
        writer.writerow(["%.6f" % hz for hz in s.grid.centers_hz])
        _write_frames(writer, s.values)


def write_grid_csv(cells: list, spec, path) -> None:
    """Write grid_search cells under a GridSearchSpec as CSV, best
    objective first (failures last)."""
    names = [axis.name for axis in spec.axes]
    ordered = sorted(
        cells,
        key=lambda c: (c["value"] is None, -(c["value"] if c["value"] is not None else 0)),
    )
    with _rows(path) as writer:
        writer.writerow(names + [spec.objective, "n_failed", "error"])
        for cell in ordered:
            writer.writerow(
                [cell[n] for n in names]
                + [
                    "" if cell["value"] is None else "%.6f" % cell["value"],
                    cell["n_failed"],
                    cell.get("error", ""),
                ]
            )


def _sections(report: dict) -> list:
    """The sections of an evaluate() report: its "sections" list when
    it was scored at several SNRs, else the report itself."""
    return report.get("sections") or [report]


def write_report_csv(report: dict, path) -> None:
    """Flatten a report's per-clip scores into CSV rows."""
    with _rows(path) as writer:
        writer.writerow(
            [
                "snr_db", "id", "length_seconds",
                "vocal_sdr", "vocal_sir", "vocal_sar", "vocal_nsdr",
                "accomp_sdr", "accomp_sir", "accomp_sar", "accomp_nsdr",
                "raw_pitch_accuracy", "error",
            ]
        )
        for section in _sections(report):
            snr = section.get("snr_db", "")
            for clip in section.get("clips", []):
                if "error" in clip:
                    writer.writerow([snr, clip["id"]] + [""] * 10 + [clip["error"]])
                    continue
                v, a = clip["vocal"], clip["accompaniment"]
                writer.writerow(
                    [
                        snr, clip["id"], "%.3f" % clip["length_seconds"],
                        "%.4f" % v["sdr"], "%.4f" % v["sir"], "%.4f" % v["sar"], "%.4f" % v["nsdr"],
                        "%.4f" % a["sdr"], "%.4f" % a["sir"], "%.4f" % a["sar"], "%.4f" % a["nsdr"],
                        "%.6f" % clip["raw_pitch_accuracy"], "",
                    ]
                )


def report_failures(report: dict) -> int:
    """Total failed clips across a report's sections."""
    return sum(s.get("n_failed", 0) for s in _sections(report))
