#!/usr/bin/env python3
"""Outside-in benchmark of vocsep's run() and grid_search.

    python3 perfbench/run.py --workload separate_44k --seed 1 --seconds 45 --trace 0

Builds its inputs from --seed with vocsep.synth.make_clip, sets up
SETUP_REPEATS times (inputs plus one warm-up op each), then repeats the
workload's unit of work until --seconds is used up, checking every op's
output. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json; with --trace 1 untraced and
traced units alternate, and the metrics are the per-layer ones, taken from
spans recorded around the calls vocsep makes into its own modules (see
spans.py). Machine facts, every op's timing and failures, contour digests
and the RPCA kept-rank curves go to perfbench/results/.

Everything runs in this one process with evaluate/grid_search at
workers=1; BLAS threads stay at the machine default and are recorded.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import vocsep  # noqa: E402
from vocsep import audio, metrics, pipeline, spectrogram, synth, tracking  # noqa: E402

import spans  # noqa: E402

if not Path(vocsep.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError("vocsep was imported from %s, not from %s" % (vocsep.__file__, ROOT / "src"))

SETUP_REPEATS = 3
TOLERANCE_CENTS = 50.0
# acceptance criterion 5's quality floor for a synthetic clip
RPA_FLOOR = 0.95
VOCAL_NSDR_FLOOR_DB = 0.0


@dataclass
class Unit:
    """One unit of measured work: one run() or one grid_search sweep."""

    seconds: float
    ops: int
    failed: int
    audio_seconds: float
    reasons: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    digests: list = field(default_factory=list)
    traced: bool = False


def check_separation(separation, contour, mixture_mag, n_samples) -> list:
    """Reasons the outputs of one run() are wrong; empty when they hold."""
    reasons = []
    vocal, accomp = separation.vocal_spec.values, separation.accomp_spec.values
    if not np.array_equal(vocal + accomp, mixture_mag):
        reasons.append("vocal + accompaniment magnitude is not bitwise the mixture magnitude")
    arrays = {
        "vocal": separation.vocal.samples,
        "accompaniment": separation.accompaniment.samples,
        "vocal_spec": vocal,
        "accomp_spec": accomp,
        "f0_hz": contour.f0_hz,
    }
    reasons += ["%s has non-finite values" % k for k, v in arrays.items() if not np.all(np.isfinite(v))]
    if contour.n_frames != mixture_mag.shape[0]:
        reasons.append("contour has %d frames, spectrogram %d" % (contour.n_frames, mixture_mag.shape[0]))
    for name in ("vocal", "accompaniment"):
        if arrays[name].size != n_samples:
            reasons.append("%s has %d samples, mixture %d" % (name, arrays[name].size, n_samples))
    return reasons


def cell_failure(cell) -> str | None:
    """Why a grid cell failed, or None. A cell fails when it raised, has no
    objective value, or lost clips."""
    if "error" in cell:
        return "cell %s raised: %s" % (cell, cell["error"])
    value = cell.get("value")
    if value is None or not np.isfinite(value):
        return "cell %s has objective %r" % (cell, value)
    if cell.get("n_failed", 0) > 0:
        return "cell %s has %d failed clips" % (cell, cell["n_failed"])
    return None


@dataclass
class SeparateInput:
    clip: object  # vocsep.synth.SyntheticClip with the references and truth
    path: Path
    mixture: object  # the mixture as read back from `path`
    mixture_mag: np.ndarray


class Separate:
    """Each op reads one synthetic mixture from WAV and runs run() on it,
    cycling through n_clips clips so quality figures average over inputs."""

    sites = spans.RUN_SITES + spans.SEPARATE_SITES

    def __init__(self, sample_rate: int, duration_seconds: float, n_clips: int):
        self.sample_rate = sample_rate
        self.duration_seconds = duration_seconds
        self.n_clips = n_clips
        self.cfg = pipeline.PipelineConfig.for_sample_rate(sample_rate)
        self.reference_digests = {}  # clip index -> contour digest of its first op

    def setup(self, workdir: Path, seed: int) -> Unit:
        self.inputs = []
        for i in range(self.n_clips):
            clip = synth.make_clip(
                duration_seconds=self.duration_seconds,
                sample_rate=self.sample_rate,
                hop_size=self.cfg.hop_size,
                seed=seed + i,
            )
            path = workdir / ("mixture_seed%d.wav" % (seed + i))
            audio.write_wav(path, clip.mixture)
            # the pipeline sees the float32-quantised file, so check and score against that
            mixture = audio.read_wav(path)
            mag = spectrogram.magnitude(spectrogram.stft(mixture, self.cfg.window_size, self.cfg.hop_size))
            self.inputs.append(SeparateInput(clip, path, mixture, mag.values))
        self.done = 0
        return self.unit()

    def unit(self) -> Unit:
        index = self.done % self.n_clips
        self.done += 1
        item = self.inputs[index]
        t0 = time.perf_counter()
        try:
            signal = audio.read_wav(item.path)
            separation, contour = pipeline.run(signal, self.cfg)
        except Exception as exc:  # a failed op is counted, not fatal
            return Unit(time.perf_counter() - t0, 1, 1, item.mixture.duration_seconds,
                        reasons=["run() raised %s: %s" % (type(exc).__name__, exc)])
        seconds = time.perf_counter() - t0
        reasons = check_separation(separation, contour, item.mixture_mag, item.mixture.samples.size)
        quality = {
            "rpa": metrics.raw_pitch_accuracy(contour, item.clip.truth, TOLERANCE_CENTS),
            "vocal_nsdr_db": metrics.nsdr(separation.vocal, item.clip.vocal, item.mixture),
            "accomp_nsdr_db": metrics.nsdr(separation.accompaniment, item.clip.accompaniment, item.mixture),
        }
        if not quality["rpa"] >= RPA_FLOOR:
            reasons.append("raw pitch accuracy %.4f below %.2f" % (quality["rpa"], RPA_FLOOR))
        if not quality["vocal_nsdr_db"] > VOCAL_NSDR_FLOOR_DB:
            reasons.append("vocal NSDR %.3f dB not above %.1f" % (quality["vocal_nsdr_db"], VOCAL_NSDR_FLOOR_DB))
        digest = spans.contour_digest(contour)
        if self.reference_digests.setdefault(index, digest) != digest:
            reasons.append("contour differs from the first op's on the same input")
        return Unit(seconds, 1, int(bool(reasons)), item.mixture.duration_seconds,
                    reasons=reasons, quality=quality, digests=[digest])


class Grid:
    """Each op is one cell of a grid_search sweep over a corpus on disk."""

    sites = spans.RUN_SITES + spans.GRID_SITES

    def __init__(self, sample_rate: int, duration_seconds: float, n_clips: int, axes):
        self.sample_rate = sample_rate
        self.duration_seconds = duration_seconds
        self.n_clips = n_clips
        self.cfg = pipeline.PipelineConfig.for_sample_rate(sample_rate)
        self.spec = pipeline.GridSearchSpec(axes=tuple(axes), objective="gnsdr")
        self.n_cells = int(np.prod([len(axis.values()) for axis in axes]))

    def setup(self, workdir: Path, seed: int) -> Unit:
        rows = []
        for i in range(self.n_clips):
            clip = synth.make_clip(
                duration_seconds=self.duration_seconds,
                sample_rate=self.sample_rate,
                hop_size=self.cfg.hop_size,
                seed=seed + i,
            )
            clip_id = "clip%02d_seed%d" % (i, seed + i)
            row = {"id": clip_id}
            for key, signal in (("mixture", clip.mixture), ("vocal", clip.vocal), ("accomp", clip.accompaniment)):
                row[key + "_path"] = str(workdir / ("%s_%s.wav" % (clip_id, key)))
                audio.write_wav(row[key + "_path"], signal)
            row["f0_path"] = str(workdir / ("%s_f0.csv" % clip_id))
            tracking.write_f0_csv(clip.truth, row["f0_path"])
            rows.append(row)
        manifest = workdir / "manifest.json"
        manifest.write_text(json.dumps(rows, indent=2))
        self.entries = pipeline.load_corpus(manifest)
        self.corpus_seconds = self.n_clips * self.duration_seconds

        # warm-up op: the base config is one of the cells, scored by evaluate directly
        t0 = time.perf_counter()
        report = pipeline.evaluate(self.entries, self.cfg, tolerance_cents=TOLERANCE_CENTS, workers=1)
        seconds = time.perf_counter() - t0
        self.base = {
            "vocal_nsdr_db": report.get("vocal", {}).get("gnsdr"),
            "rpa": report.get("raw_pitch_accuracy_mean"),
            "accomp_nsdr_db": report.get("accompaniment", {}).get("gnsdr"),
        }
        reasons = ["evaluate lost %d clips" % report["n_failed"]] if report["n_failed"] else []
        reasons += ["evaluate %s is %r" % kv for kv in self.base.items() if kv[1] is None or not np.isfinite(kv[1])]
        return Unit(seconds, 1, int(bool(reasons)), self.corpus_seconds, reasons=reasons, quality=dict(self.base))

    def _is_base_cell(self, cell) -> bool:
        return cell.get("lambda") == self.cfg.lambda_sep and cell.get("w") == self.cfg.w

    def unit(self) -> Unit:
        t0 = time.perf_counter()
        try:
            cells = pipeline.grid_search(
                self.entries, self.spec, self.cfg, tolerance_cents=TOLERANCE_CENTS, workers=1
            )
        except Exception as exc:  # grid_search promises per-cell failures; count a crash as all cells
            return Unit(time.perf_counter() - t0, self.n_cells, self.n_cells, self.n_cells * self.corpus_seconds,
                        reasons=["grid_search raised %s: %s" % (type(exc).__name__, exc)])
        seconds = time.perf_counter() - t0
        reasons = []
        for cell in cells:
            reason = cell_failure(cell)
            if reason is None and self._is_base_cell(cell) and cell["value"] != self.base["vocal_nsdr_db"]:
                reason = "cell %s differs from evaluate() at the same config (%r)" % (cell, self.base["vocal_nsdr_db"])
            if reason:
                reasons.append(reason)
        failed = len(reasons)
        if len(cells) != self.n_cells:
            reasons.append("grid_search returned %d cells, expected %d" % (len(cells), self.n_cells))
            failed = self.n_cells
        values = [c["value"] for c in cells if cell_failure(c) is None]
        quality = dict(self.base, vocal_nsdr_db=float(np.mean(values))) if values else {}
        return Unit(seconds, self.n_cells, failed, self.n_cells * self.corpus_seconds,
                    reasons=reasons, quality=quality)


WORKLOADS = {
    # run() alone, in the 4096/441 geometry with 20 partials: a wide 101x2049
    # RPCA problem and the largest resampling and harmonic-mask shares
    "separate_44k": lambda: Separate(44100, 1.0, 4),
    # the tuning path in the paper's 2048/160 geometry (101x1025 problems):
    # 2 lambdas x 3 widths x 2 clips = 12 solves of 4 distinct problems
    "grid_16k": lambda: Grid(
        16000, 1.0, 2,
        (pipeline.GridAxis("lambda", 0.8, 1.0, 0.2), pipeline.GridAxis("w", 30.0, 70.0, 20.0)),
    ),
}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def declared_metrics() -> dict:
    """{"end_to_end"|"per_layer": {name: unit}} from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def end_to_end(units, setup_seconds, attempted, failed) -> dict:
    measured = [u for u in units if not u.traced]
    rated = [u for u in measured if u.quality]
    return {
        "latency_s.p50": statistics.median(u.seconds / u.ops for u in measured),
        "audio_x_realtime": statistics.median(u.audio_seconds / u.seconds for u in measured),
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
        **{k: statistics.median(u.quality[k] for u in rated) for k in ("rpa", "vocal_nsdr_db", "accomp_nsdr_db")},
    }


def per_layer(units, layers) -> dict:
    out = {k: statistics.fmean(d[k] for d in layers) for k in layers[0]}
    out["trace.overhead_s"] = (
        statistics.median(u.seconds for u in units if u.traced)
        - statistics.median(u.seconds for u in units if not u.traced)
    )
    return out


def bench(workload_name: str, seed: int, seconds: float, trace: bool):
    workload = WORKLOADS[workload_name]()
    work_root = HERE / "work"
    work_root.mkdir(exist_ok=True)
    setup_seconds, setup_units, units, tracers = [], [], [], []
    with contextlib.ExitStack() as stack:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workdir = Path(stack.enter_context(tempfile.TemporaryDirectory(dir=work_root)))
            setup_units.append(workload.setup(workdir, seed))
            setup_seconds.append(time.perf_counter() - t0)

        start = time.perf_counter()
        loop_seconds = []
        while True:
            t0 = time.perf_counter()
            traced = trace and len(units) % 2 == 1
            if traced:
                tracer = spans.Tracer()
                with tracer.installed():
                    unit = workload.unit()
                unit.traced = True
                tracers.append(tracer)
            else:
                unit = workload.unit()
            units.append(unit)
            loop_seconds.append(time.perf_counter() - t0)
            # stop at the unit boundary nearest the deadline, once every needed kind has run
            kinds_done = len(units) >= (2 if trace else 1)
            if kinds_done and time.perf_counter() - start + statistics.median(loop_seconds) / 2 > seconds:
                break

    if trace:
        spans.require_calls(tracers, workload.sites)
    attempted = sum(u.ops for u in units)
    failed = sum(u.failed for u in units)
    setup_failures = [r for u in setup_units for r in u.reasons]
    layers = [spans.layer_metrics(t) for t in tracers]
    values = per_layer(units, layers) if trace else end_to_end(units, setup_seconds, attempted, failed)
    declared = declared_metrics()["per_layer" if trace else "end_to_end"]
    if set(values) != set(declared):
        raise RuntimeError("computed metrics %s differ from BENCHMARK.json %s" % (sorted(values), sorted(declared)))

    details = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_facts(),
        "setup_s": setup_seconds,
        "setup_failures": setup_failures,
        "units": [
            {k: getattr(u, k) for k in ("seconds", "ops", "failed", "traced", "reasons", "quality", "digests")}
            for u in units
        ],
        "contour_sha256": sorted(
            {d for u in setup_units + units for d in u.digests}
            | {info["f0_sha256"] for t in tracers for info in t.infos("run")}
        ),
        "per_layer_by_unit": layers,
        "rpca_kept_rank_curves": [[s["kept_ranks"] for s in t.infos("decompose")] for t in tracers],
        "metrics": values,
    }
    result = {
        "correct": failed == 0 and not setup_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result, details = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    out.write_text(json.dumps(details, indent=1))
    print("perfbench %s seed=%d trace=%d: %d/%d ops ok; details in %s" % (
        args.workload, args.seed, args.trace, result["attempted"] - result["failed"],
        result["attempted"], out.relative_to(ROOT)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
