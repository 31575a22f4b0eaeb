"""Shared fixtures: RNG, a small synthetic clip, an on-disk corpus, and
the frame counts and block sizes of the block-wise stage tests."""

import numpy as np
import pytest

import vocsep.spectrogram as spectrogram_mod
from vocsep.synth import make_clip, write_demo_corpus

_BLOCK = spectrogram_mod.BLOCK_FRAMES


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def short_clip():
    # 3 s keeps RPCA fast while leaving enough loop repetitions to matter
    return make_clip(duration_seconds=3.0, sample_rate=16000, seed=7)


@pytest.fixture(scope="session")
def demo_corpus(tmp_path_factory):
    """Manifest path of a two-clip corpus written to a temp directory."""
    root = tmp_path_factory.mktemp("corpus")
    return write_demo_corpus(root, n_clips=2, duration_seconds=2.0)


@pytest.fixture(
    params=[1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5],
    ids=lambda n: "%d-frames" % n,
)
def block_test_frames(request):
    """Frame counts around the block size: one frame, a block less one,
    one block, one more, and three blocks with a tail."""
    return request.param


@pytest.fixture(params=[None, 1, 7, "all"], ids=lambda b: "block-%s" % (b or "default",))
def block_frames(request, block_test_frames, monkeypatch):
    """spectrogram.BLOCK_FRAMES for the test: the default, 1, 7 or every
    frame of block_test_frames in one block."""
    block = block_test_frames if request.param == "all" else request.param
    if block is not None:
        monkeypatch.setattr(spectrogram_mod, "BLOCK_FRAMES", block)
    return spectrogram_mod.BLOCK_FRAMES
