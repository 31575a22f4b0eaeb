"""The benchmark's traced call sites are still reached.

perfbench/spans.py times vocsep by wrapping the module globals the
program looks its stages up through. A call moved to another module
leaves its wrapper with no calls, and the benchmark fails only when it
is traced. This runs a one-cell grid search under the tracer so that
such a move fails the test suite instead.
"""

import importlib.util
import sys
from pathlib import Path

from vocsep import pipeline
from vocsep.synth import write_demo_corpus

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # registered before it runs: its dataclasses look their module up
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_grid_search_reaches_every_run_and_grid_site(tmp_path, monkeypatch):
    spans = _load_spans(monkeypatch)
    entries = pipeline.load_corpus(write_demo_corpus(tmp_path, n_clips=1, duration_seconds=1.0))
    spec = pipeline.GridSearchSpec(axes=(pipeline.GridAxis("alpha", 0.6, 0.6, 0.2),))
    sites = spans.RUN_SITES + spans.GRID_SITES
    tracer = spans.Tracer()
    with tracer.installed(sites):
        cells = pipeline.grid_search(entries, spec, pipeline.PipelineConfig())
    assert [cell["n_failed"] for cell in cells] == [0]
    spans.require_calls([tracer], sites)
