"""Singing-voice separation and vocal F0 estimation.

A mixture spectrogram splits into a low-rank (repeating accompaniment)
and sparse (voice) part; a binary mask over the sparse part feeds pitch
saliency computation and contour tracking; the tracked contour shapes a
harmonic mask that refines the separation mask; masked magnitudes
resynthesize with the mixture phases.
"""

from .audio import AudioSignal, read_wav, write_wav
from .masks import (
    SeparationResult,
    TimeFrequencyMask,
    binary_mask,
    harmonic_mask,
    integrate_binary,
    integrate_soft,
    separate,
    wiener_mask,
)
from .metrics import (
    decompose_estimate,
    gnsdr,
    nsdr,
    raw_pitch_accuracy,
    sdr_sir_sar,
    voiced_region_mask,
)
from .pipeline import (
    CorpusEntry,
    GridAxis,
    GridSearchSpec,
    PipelineConfig,
    estimate_f0,
    evaluate,
    grid_search,
    load_corpus,
    run,
)
from .rpca import RpcaResult, decompose
from .saliency import SaliencySpectrogram, combine, f0_enhancement, shs
from .spectrogram import (
    LogFrequencyGrid,
    LogSpectrogram,
    MagnitudeSpectrogram,
    Stft,
    a_weight_at,
    apply_a_weighting,
    istft,
    magnitude,
    stft,
    to_log_frequency,
)
from .tracking import (
    F0Contour,
    read_f0_csv,
    viterbi,
    voiced_contour,
    write_f0_csv,
)

__version__ = "0.1.0"
