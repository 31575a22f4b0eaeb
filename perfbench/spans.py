"""Outside-in tracing of vocsep: wrap the names the program looks up at
call time and record one span per call.

vocsep calls its stages through module globals (``vocsep.pipeline.viterbi``,
``vocsep.rpca.decompose`` reached as ``rpca.decompose``, ``vocsep.masks.istft``
and so on). Replacing such a global with a timing wrapper times every call
made through that site without touching the program's source. A refactor
that moves a call to another lookup site makes the old wrapper record no
calls; ``require_calls`` turns that into an error rather than a silently
missing span.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import time
from dataclasses import dataclass, field

import numpy as np

# Sites reached by every run() call.
RUN_SITES = (
    [
        ("vocsep.pipeline", name)
        for name in (
            "run", "stft", "magnitude", "binary_mask", "apply_a_weighting",
            "to_log_frequency", "shs", "f0_enhancement", "combine", "viterbi",
            "wiener_mask", "harmonic_mask", "integrate_soft", "separate",
        )
    ]
    + [("vocsep.rpca", "decompose"), ("vocsep.masks", "istft")]
)
# Sites the benchmark itself calls around a single run().
SEPARATE_SITES = [
    ("vocsep.audio", "read_wav"),
    ("vocsep.metrics", "raw_pitch_accuracy"),
    ("vocsep.metrics", "nsdr"),
]
# Sites reached by grid_search -> evaluate -> per-clip scoring.
GRID_SITES = [
    ("vocsep.pipeline", name)
    for name in (
        "grid_search", "evaluate", "read_wav", "read_f0_csv", "voiced_region_mask",
        "decompose_estimate", "sdr_sir_sar", "nsdr", "raw_pitch_accuracy", "gnsdr",
    )
]
ALL_SITES = RUN_SITES + SEPARATE_SITES + GRID_SITES


@dataclass
class Span:
    site: str  # "module.name" where the call was looked up
    func: str  # name of the wrapped function
    layer: str  # defining module without the package, e.g. "tracking"
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _solve_info(args, kwargs, result) -> dict:
    """Per-solve RPCA facts; the problem key identifies (matrix, config)
    so repeated solves of one problem can be counted."""
    x = np.ascontiguousarray(np.asarray(getattr(args[0], "values", args[0]), dtype=np.float64))
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
    key = hashlib.sha1(x.tobytes()).hexdigest() + repr(x.shape) + repr(cfg)
    ranks = [int(row[2]) for row in result.trace]
    return {
        "problem": key,
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "final_rank": ranks[-1] if ranks else 0,
        "kept_ranks": ranks,
        "min_dim": int(min(x.shape)),
    }


def contour_digest(contour) -> str:
    """SHA-256 of the contour's f0_hz bytes, for bin-identical parity checks."""
    return hashlib.sha256(np.ascontiguousarray(contour.f0_hz).tobytes()).hexdigest()


def _run_info(args, kwargs, result) -> dict:
    _, contour = result
    return {"voiced_frac": float(np.mean(contour.voiced)), "f0_sha256": contour_digest(contour)}


_OBSERVERS = {"decompose": _solve_info, "run": _run_info}


class Tracer:
    """Records spans for calls through the wrapped sites while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, site: str, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        observe = _OBSERVERS.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = Span(site, fn.__name__, layer, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                span.info = observe(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, sites=ALL_SITES):
        """Replace each (module, name) site by a traced wrapper; restore
        the originals on exit."""
        saved = []
        try:
            for module_name, name in sites:
                module = importlib.import_module(module_name)
                original = getattr(module, name)
                saved.append((module, name, original))
                setattr(module, name, self._wrap("%s.%s" % (module_name, name), original))
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    def calls(self, site: str) -> int:
        return sum(1 for s in self.spans if s.site == site)

    def children(self, idx: int) -> list[Span]:
        return [s for s in self.spans if s.parent == idx]

    def _outermost(self, same) -> list[Span]:
        """Spans matching `same` with no matching ancestor, so nested
        calls of one function or layer are not counted twice."""
        out = []
        for span in self.spans:
            if not same(span):
                continue
            parent = span.parent
            while parent is not None and not same(self.spans[parent]):
                parent = self.spans[parent].parent
            if parent is None:
                out.append(span)
        return out

    def total(self, func: str) -> float:
        return sum(s.seconds for s in self._outermost(lambda s: s.func == func))

    def layer_total(self, layer: str) -> float:
        return sum(s.seconds for s in self._outermost(lambda s: s.layer == layer))

    def self_time(self, func: str) -> float:
        """Span time of `func` minus the time its direct child spans cover."""
        total = 0.0
        for idx, span in enumerate(self.spans):
            if span.func == func:
                total += span.seconds - sum(c.seconds for c in self.children(idx))
        return total

    def infos(self, func: str) -> list[dict]:
        return [s.info for s in self.spans if s.func == func]


def require_calls(tracers: list[Tracer], sites) -> None:
    """Fail loudly when a site the workload must reach recorded no calls."""
    missing = [
        "%s.%s" % site for site in sites
        if not any(t.calls("%s.%s" % site) for t in tracers)
    ]
    if missing:
        raise RuntimeError(
            "traced sites recorded no calls: %s; the program no longer looks "
            "these names up where the benchmark wraps them" % ", ".join(missing)
        )


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced unit of work (one run() or one
    grid_search sweep)."""
    solves = tracer.infos("decompose")
    runs = tracer.infos("run")
    iterations = sum(s["iterations"] for s in solves)
    decompose_s = tracer.total("decompose")
    return {
        "rpca.decompose_s": decompose_s,
        "rpca.solves": len(solves),
        "rpca.iterations": iterations / len(solves),
        "rpca.s_per_iteration": decompose_s / iterations,
        "rpca.final_rank": float(np.mean([s["final_rank"] for s in solves])),
        "rpca.converged_frac": float(np.mean([s["converged"] for s in solves])),
        # useful-over-computed: kept singular values over all the full SVDs computed
        "rpca.kept_rank_share": sum(sum(s["kept_ranks"]) for s in solves)
        / sum(s["iterations"] * s["min_dim"] for s in solves),
        "pipeline.run_s": tracer.total("run"),
        "pipeline.run_self_s": tracer.self_time("run"),
        "pipeline.rpca_distinct_share": len({s["problem"] for s in solves}) / len(solves),
        "tracking.viterbi_s": tracer.total("viterbi"),
        "tracking.voiced_frac": float(np.mean([r["voiced_frac"] for r in runs])),
        "masks.harmonic_mask_s": tracer.total("harmonic_mask"),
        "masks.wiener_mask_s": tracer.total("wiener_mask"),
        "masks.binary_mask_s": tracer.total("binary_mask"),
        "masks.separate_self_s": tracer.self_time("separate"),
        "spectrogram.stft_s": tracer.total("stft"),
        "spectrogram.log_frequency_s": tracer.total("to_log_frequency"),
        "spectrogram.istft_s": tracer.total("istft"),
        "saliency.shs_s": tracer.total("shs"),
        "saliency.f0_enhancement_s": tracer.total("f0_enhancement"),
        "metrics.score_s": tracer.layer_total("metrics"),
        "audio.read_wav_s": tracer.total("read_wav"),
    }
