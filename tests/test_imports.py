"""What importing and running vocsep loads, checked in a fresh interpreter
because other test modules import scipy as a reference."""

import os
import subprocess
import sys
from pathlib import Path

import vocsep

SCRIPT = """
import sys
import tempfile
from pathlib import Path

import vocsep
import vocsep.cli
from vocsep.audio import read_wav, write_wav
from vocsep.synth import make_clip

for sample_rate in (16000, 44100):
    mixture = make_clip(duration_seconds=1.0, sample_rate=sample_rate, seed=1).mixture
    result, _ = vocsep.run(mixture)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "vocal.wav"
    write_wav(path, result.vocal)
    assert read_wav(path).samples.size == mixture.samples.size
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_run_never_loads_scipy():
    env = dict(os.environ)
    src = str(Path(vocsep.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
