"""End-to-end acceptance suite.

One check per release criterion, each printing a single PASS/FAIL line
with the measured numbers. Run with
`python3 -m pytest tests/test_acceptance.py -q -s` to see the lines on
success as well.
"""

import dataclasses
import hashlib
import itertools
import math
import time

import numpy as np
import pytest

from vocsep.audio import write_wav
from vocsep.cli import main
from vocsep.audio import AudioSignal
from vocsep.masks import (
    TimeFrequencyMask,
    binary_mask,
    harmonic_mask,
    integrate_binary,
    integrate_soft,
    separate,
    wiener_mask,
)
from vocsep.metrics import decompose_estimate, gnsdr, nsdr, raw_pitch_accuracy
from vocsep.pipeline import (
    GridAxis,
    GridSearchSpec,
    PipelineConfig,
    _stft_stage,
    grid_search,
    load_corpus,
    run,
)
from vocsep.report import write_grid_csv
from vocsep.rpca import RpcaResult, decompose
from vocsep.saliency import SaliencySpectrogram, combine, f0_enhancement, shs
from vocsep.spectrogram import (
    LogFrequencyGrid,
    apply_a_weighting,
    istft,
    magnitude,
    stft,
    to_log_frequency,
)
from vocsep.synth import make_clip, write_demo_corpus
from vocsep.tracking import (
    F0_MAX_HZ,
    F0_MIN_HZ,
    SALIENCY_FLOOR,
    TRANSITION_SCALE_CENTS,
    viterbi,
    voiced_contour,
)


def _check(num: int, slug: str, ok: bool, detail: str) -> None:
    print("ACCEPTANCE %d %s: %s (%s)" % (num, slug, "PASS" if ok else "FAIL", detail))
    assert ok, "acceptance %d %s failed: %s" % (num, slug, detail)


def _random_signal(rng, n, sample_rate=16000):
    return AudioSignal(
        samples=rng.uniform(-0.5, 0.5, n).astype(np.float64), sample_rate=sample_rate
    )


@pytest.fixture(scope="module")
def bench_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    return load_corpus(write_demo_corpus(root, n_clips=1, duration_seconds=1.0))


def test_criterion_1_rpca_planted_recovery():
    rng = np.random.default_rng(42)
    low = rng.normal(size=(50, 2)) @ rng.normal(size=(2, 50))
    sparse = np.zeros((50, 50))
    hits = rng.permutation(2500)[: int(0.05 * 2500)]
    sparse.flat[hits] = rng.choice([-10.0, 10.0], size=hits.size)

    t0 = time.perf_counter()
    result = decompose(low + sparse, 1.0)
    elapsed = time.perf_counter() - t0
    rel = np.linalg.norm(result.low_rank - low) / np.linalg.norm(low)
    ok = rel < 1e-5 and result.iterations < 500 and elapsed < 5.0
    _check(
        1, "rpca-planted-recovery", ok,
        "rel_err=%.2e, iterations=%d, %.2fs" % (rel, result.iterations, elapsed),
    )


def _enumerate_best_path(values, grid):
    """Exhaustive path search over the in-range bins, scored exactly as
    the tracker scores them; first maximum wins, which is the
    lexicographically smallest optimal path."""
    centers = grid.centers_hz
    cand = np.flatnonzero((centers >= F0_MIN_HZ) & (centers <= F0_MAX_HZ))
    lo, hi = int(cand[0]), int(cand[-1])
    window = values[:, lo : hi + 1] + SALIENCY_FLOOR
    em = np.log(window) - np.log(window.sum(axis=1, keepdims=True))
    n_frames, n_bins = em.shape
    b = TRANSITION_SCALE_CENTS
    paths = np.array(list(itertools.product(range(n_bins), repeat=n_frames)))
    scores = em[0][paths[:, 0]].astype(np.float64)
    for t in range(1, n_frames):
        gap = np.abs(paths[:, t] - paths[:, t - 1]) * grid.cents_per_bin
        scores += -math.log(2.0 * b) - gap / b + em[t][paths[:, t]]
    return paths[int(np.argmax(scores))] + lo


def test_criterion_2_tracker_matches_enumeration():
    rng = np.random.default_rng(7)
    mismatches = 0
    solver_time = 0.0
    for _ in range(200):
        n_frames = int(rng.integers(1, 7))
        n_bins = int(rng.integers(2, 9))
        grid = LogFrequencyGrid(h_low_hz=100.0, cents_per_bin=100.0, n_bins=n_bins)
        values = rng.random((n_frames, n_bins))
        values[rng.random(values.shape) < 0.2] = 0.0
        s = SaliencySpectrogram(values=values, grid=grid, hop_seconds=0.01)
        t0 = time.perf_counter()
        contour = viterbi(s)
        solver_time += time.perf_counter() - t0
        expected = grid.centers_hz[_enumerate_best_path(values, grid)]
        if not np.array_equal(contour.f0_hz, expected):
            mismatches += 1
    ok = mismatches == 0 and solver_time < 1.0
    _check(
        2, "tracker-oracle-equivalence", ok,
        "200 instances, mismatches=%d, solver %.3fs" % (mismatches, solver_time),
    )


def test_criterion_3_mask_algebra():
    rng = np.random.default_rng(11)
    n_trials = 20
    failures = 0
    for _ in range(n_trials):
        n = 2048 + int(rng.integers(0, 1600))
        signal = _random_signal(rng, n)
        mag = _stft_stage(signal, PipelineConfig(), {})
        shape = (mag.n_frames, mag.n_bins)
        fake = RpcaResult(
            low_rank=rng.normal(size=shape),
            sparse=rng.normal(size=shape),
            converged=True,
        )
        soft = wiener_mask(fake)
        contour = voiced_contour(rng.uniform(100.0, 400.0, mag.n_frames), 160 / 16000)
        harmonic = harmonic_mask(contour, mag, 10, 50.0)
        integrated = integrate_soft(soft, harmonic)

        ok = np.all((soft.values >= 0) & (soft.values <= 1))
        ok = ok and np.all(integrated.values <= soft.values)
        ok = ok and np.all(integrated.values <= harmonic.values)

        result = separate(signal, mag, integrated)
        vocal, accomp = result.vocal_spec.values, result.accomp_spec.values
        mix = magnitude(stft(signal, 2048, 160)).values
        ok = ok and np.array_equal(vocal + accomp, mix)
        ok = ok and np.array_equal(accomp, mix - vocal)

        probe = integrated.values.copy()
        probe.flat[:: max(1, probe.size // 50)] = 0.5  # exact threshold hits
        hard = integrate_binary(TimeFrequencyMask(values=probe))
        ok = ok and np.array_equal(hard.values, (probe > 0.5).astype(np.float64))
        failures += 0 if ok else 1
    _check(
        3, "mask-algebra", failures == 0,
        "%d/%d randomized trials clean" % (n_trials - failures, n_trials),
    )


def test_criterion_4_stft_round_trip():
    rng = np.random.default_rng(5)
    worst = 0.0
    for sample_rate, window, hop in ((16000, 2048, 160), (44100, 4096, 441)):
        for _ in range(10):
            signal = _random_signal(rng, sample_rate // 2, sample_rate)
            back = istft(stft(signal, window, hop))
            rel = np.linalg.norm(back.samples - signal.samples) / np.linalg.norm(
                signal.samples
            )
            worst = max(worst, rel)
    _check(
        4, "stft-round-trip", worst < 1e-6,
        "20 signals over both geometries, worst rel L2 %.2e" % worst,
    )


def test_criterion_5_synthetic_end_to_end():
    clip = make_clip(duration_seconds=10.0, sample_rate=16000, seed=7)
    t0 = time.perf_counter()
    result, contour = run(clip.mixture)
    elapsed = time.perf_counter() - t0
    rpa = raw_pitch_accuracy(contour, clip.truth, tolerance_cents=50.0)
    vocal_nsdr = nsdr(result.vocal, clip.vocal, clip.mixture)
    ok = rpa >= 0.95 and vocal_nsdr > 0.0 and elapsed < 60.0
    _check(
        5, "synthetic-end-to-end", ok,
        "rpa=%.4f, vocal nsdr=%+.2f dB, %.1fs for 10 s clip" % (rpa, vocal_nsdr, elapsed),
    )


def test_criterion_6_alpha_zero_degeneracy():
    clip = make_clip(duration_seconds=0.5, sample_rate=16000, seed=13)
    mag = magnitude(stft(clip.mixture, 2048, 160))
    summation = shs(to_log_frequency(mag), 10)
    mask_b = binary_mask(decompose(mag.values, 1.0), 1.0)
    enhancement = f0_enhancement(mask_b, mag.nyquist_hz, mag.hop_seconds)
    combined = combine(summation, enhancement, alpha=0.0)
    ok = combined.values.tobytes() == summation.values.tobytes()
    _check(
        6, "alpha-zero-degeneracy", ok,
        "combined saliency bit-identical to plain subharmonic summation",
    )


def test_criterion_7_metrics_identities():
    rng = np.random.default_rng(3)
    est, tgt, itf = (rng.normal(size=256) for _ in range(3))
    s_target, e_interf, e_artif = decompose_estimate(est, tgt, itf)
    additivity = np.max(np.abs(s_target + e_interf + e_artif - est))
    mixture = tgt + itf
    mixture_nsdr = nsdr(mixture, tgt, mixture)
    even = gnsdr([(2.0, 5.0), (4.0, 5.0)])
    weighted = gnsdr([(0.0, 1.0), (4.0, 3.0)])
    ok = (
        additivity <= 1e-9
        and mixture_nsdr == 0.0
        and even == 3.0
        and weighted == 3.0
    )
    _check(
        7, "metrics-identities", ok,
        "additivity gap %.1e, nsdr(mixture)=%g, weighted means %g/%g"
        % (additivity, mixture_nsdr, even, weighted),
    )


def test_criterion_8_grid_shapes(bench_corpus, tmp_path):
    cfg = PipelineConfig()
    spec_a = GridSearchSpec(
        axes=(GridAxis("lambda", 0.6, 1.2, 0.1), GridAxis("w", 20.0, 90.0, 10.0))
    )
    spec_b = GridSearchSpec(
        axes=(GridAxis("lambda", 0.6, 1.1, 0.1), GridAxis("alpha", 0.0, 2.0, 0.2))
    )
    shapes = (
        tuple(len(axis.values()) for axis in spec_a.axes),
        tuple(len(axis.values()) for axis in spec_b.axes),
    )
    cells_a = grid_search(bench_corpus, spec_a, cfg)
    cells_b = grid_search(bench_corpus, spec_b, cfg)
    write_grid_csv(cells_a, spec_a, tmp_path / "grid_a.csv")
    write_grid_csv(cells_b, spec_b, tmp_path / "grid_b.csv")
    emitted_a = sum(c["value"] is not None for c in cells_a)
    emitted_b = sum(c["value"] is not None for c in cells_b)
    rows_a = len((tmp_path / "grid_a.csv").read_text().strip().splitlines())
    rows_b = len((tmp_path / "grid_b.csv").read_text().strip().splitlines())
    ok = (
        shapes == ((7, 8), (6, 11))
        and len(cells_a) == emitted_a == 56
        and len(cells_b) == emitted_b == 66
        and rows_a == 57
        and rows_b == 67
    )
    _check(
        8, "grid-shapes", ok,
        "7x8 and 6x11 sweeps, %d+%d objective values emitted" % (emitted_a, emitted_b),
    )


def test_criterion_9_separation_determinism(tmp_path):
    clip = make_clip(duration_seconds=2.0, sample_rate=16000, seed=3)
    mix = tmp_path / "mix.wav"
    write_wav(mix, clip.mixture)
    digests = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        out.mkdir()
        code = main([
            "separate", str(mix),
            "--vocal", str(out / "vocal.wav"),
            "--accomp", str(out / "accomp.wav"),
            "--f0-csv", str(out / "f0.csv"),
        ])
        assert code == 0
        digests.append(
            tuple(
                hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("vocal.wav", "accomp.wav", "f0.csv")
            )
        )
    ok = digests[0] == digests[1]
    _check(
        9, "separation-determinism", ok,
        "two runs, wav+csv digests %s" % ("identical" if ok else "differ"),
    )


def _shs_contour(mag, n_partials):
    """The contour stage at alpha = 0 (criterion 6), on any magnitude."""
    return viterbi(shs(to_log_frequency(apply_a_weighting(mag)), n_partials))


def test_criterion_10_each_task_improves_the_other():
    # Separation half: the full mask against the Wiener mask of the same
    # solve alone. F0 half, at alpha = 0 on both sides: the contour of
    # the RPCA binary-masked spectrum against that of the mixture. At
    # +5 dB both contours are right, so the F0 half would show nothing.
    # Smallest gains measured on these clips: 5.29 dB vocal and 2.06 dB
    # accompaniment NSDR; masked RPA 0.990 against unmasked 0.000.
    gains, rpas = [], []
    for rate, seed, snr_db in ((16000, 3, 0.0), (16000, 7, -5.0), (44100, 11, 0.0)):
        clip = make_clip(duration_seconds=2.0, sample_rate=rate, seed=seed, snr_db=snr_db)
        cfg = PipelineConfig.for_sample_rate(rate)
        full, _ = run(clip.mixture, cfg)
        mag = _stft_stage(clip.mixture, cfg, {})
        solve = decompose(mag.values, cfg.lambda_sep)  # lambda_f0 is the same
        wiener = separate(clip.mixture, mag, wiener_mask(solve))
        gains.append(tuple(
            nsdr(getattr(full, part), getattr(clip, part), clip.mixture)
            - nsdr(getattr(wiener, part), getattr(clip, part), clip.mixture)
            for part in ("vocal", "accompaniment")
        ))
        masked = dataclasses.replace(mag, values=binary_mask(solve, cfg.gamma).values * mag.values)
        rpas.append(tuple(
            raw_pitch_accuracy(_shs_contour(m, cfg.n_partials), clip.truth)
            for m in (masked, mag)
        ))
    vocal_gain = min(g[0] for g in gains)
    accomp_gain = min(g[1] for g in gains)
    masked_rpa = min(r[0] for r in rpas)
    unmasked_rpa = max(r[1] for r in rpas)
    ok = vocal_gain >= 2.0 and accomp_gain >= 1.0 and masked_rpa >= 0.95 and unmasked_rpa <= 0.5
    _check(
        10, "each-task-improves-the-other", ok,
        "over the Wiener mask: vocal nsdr +%.2f dB (>= 2), accomp +%.2f dB (>= 1); "
        "rpa masked %.3f (>= 0.95), unmasked %.3f (<= 0.5); worst of 3 clips"
        % (vocal_gain, accomp_gain, masked_rpa, unmasked_rpa),
    )
