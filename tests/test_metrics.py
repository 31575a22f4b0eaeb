"""Separation score decomposition and pitch accuracy."""

import numpy as np
import pytest

from vocsep.audio import AudioSignal
from vocsep.metrics import (
    DB_CAP,
    decompose_estimate,
    gnsdr,
    nsdr,
    raw_pitch_accuracy,
    sdr_sir_sar,
    voiced_region_mask,
)
from vocsep.tracking import ALIGNMENT_TICK_SECONDS, voiced_contour


def _orthogonal_pair(n=64):
    t = np.zeros(n)
    i = np.zeros(n)
    t[0] = 2.0
    i[1] = 3.0
    return t, i


class TestDecomposeEstimate:
    def test_pure_interference(self):
        t, i = _orthogonal_pair()
        s_target, e_interf, e_artif = decompose_estimate(i, t, i)
        np.testing.assert_allclose(s_target, 0.0, atol=1e-12)
        np.testing.assert_allclose(e_interf, i, atol=1e-12)
        np.testing.assert_allclose(e_artif, 0.0, atol=1e-12)

    def test_even_blend_splits_exactly(self):
        t, i = _orthogonal_pair()
        est = 0.5 * t + 0.5 * i
        s_target, e_interf, e_artif = decompose_estimate(est, t, i)
        np.testing.assert_allclose(s_target, 0.5 * t, atol=1e-12)
        np.testing.assert_allclose(e_interf, 0.5 * i, atol=1e-12)
        np.testing.assert_allclose(e_artif, 0.0, atol=1e-12)

    def test_perfect_estimate_has_no_errors(self):
        t, i = _orthogonal_pair()
        s_target, e_interf, e_artif = decompose_estimate(t, t, i)
        np.testing.assert_allclose(s_target, t, atol=1e-12)
        np.testing.assert_allclose(e_interf, 0.0, atol=1e-12)
        np.testing.assert_allclose(e_artif, 0.0, atol=1e-12)

    def test_parts_sum_to_estimate(self, rng):
        est = rng.standard_normal(200)
        tgt = rng.standard_normal(200)
        itf = rng.standard_normal(200)
        parts = decompose_estimate(est, tgt, itf)
        total = parts[0] + parts[1] + parts[2]
        assert np.linalg.norm(total - est) <= 1e-9 * np.linalg.norm(est)

    def test_artifact_orthogonal_to_span(self, rng):
        est = rng.standard_normal(100)
        tgt = rng.standard_normal(100)
        itf = rng.standard_normal(100)
        _, _, e_artif = decompose_estimate(est, tgt, itf)
        scale = np.linalg.norm(est)
        assert abs(e_artif @ tgt) < 1e-8 * scale * np.linalg.norm(tgt)
        assert abs(e_artif @ itf) < 1e-8 * scale * np.linalg.norm(itf)

    def test_matches_least_squares_for_correlated_sources(self, rng):
        tgt = rng.standard_normal(80)
        itf = 0.7 * tgt + 0.3 * rng.standard_normal(80)
        est = rng.standard_normal(80)
        s_target, e_interf, e_artif = decompose_estimate(est, tgt, itf)
        expected_target = ((est @ tgt) / (tgt @ tgt)) * tgt
        basis = np.stack([tgt, itf], axis=1)
        coeffs, *_ = np.linalg.lstsq(basis, est, rcond=None)
        span = basis @ coeffs
        np.testing.assert_allclose(s_target, expected_target, atol=1e-10)
        np.testing.assert_allclose(e_interf, span - expected_target, atol=1e-10)
        np.testing.assert_allclose(e_artif, est - span, atol=1e-10)

    def test_accepts_audio_signals(self, rng):
        samples = rng.standard_normal(50)
        sig = AudioSignal(samples, 16000)
        t, i = _orthogonal_pair(50)
        a = decompose_estimate(sig, t, i)
        b = decompose_estimate(samples, t, i)
        np.testing.assert_array_equal(a[0], b[0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            decompose_estimate(np.ones(4), np.ones(5), np.ones(4))

    @pytest.mark.parametrize(
        "signal, message",
        [(np.ones((2, 2)), "1-d"), (np.array([1.0, np.nan]), "NaN or Inf")],
        ids=["2-d", "nan"],
    )
    def test_malformed_signal_rejected(self, signal, message):
        with pytest.raises(ValueError, match=message):
            decompose_estimate(signal, np.ones(signal.shape[-1]), np.zeros(signal.shape[-1]))

    def test_both_references_zero_rejected(self):
        with pytest.raises(ValueError):
            decompose_estimate(np.ones(4), np.zeros(4), np.zeros(4))

    def test_zero_target_projects_onto_nothing(self):
        # a silent target with a sounding interferer: the target part is
        # zero and the interferer's span takes the rest
        est, itf = np.array([1.0, 2.0, 0.0]), np.array([1.0, 0.0, 0.0])
        s_target, e_interf, e_artif = decompose_estimate(est, np.zeros(3), itf)
        np.testing.assert_array_equal(s_target, np.zeros(3))
        np.testing.assert_allclose(e_interf, [1.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(e_artif, [0.0, 2.0, 0.0], atol=1e-12)


class TestSdrSirSar:
    def test_perfect_estimate_caps_all_three(self):
        t, i = _orthogonal_pair()
        scores = sdr_sir_sar(decompose_estimate(t, t, i))
        assert scores == (DB_CAP, DB_CAP, DB_CAP)

    def test_no_artifacts_means_sdr_equals_sir(self):
        t = np.zeros(8)
        ei = np.zeros(8)
        t[0] = 1.0
        ei[1] = 0.5
        sdr, sir, sar = sdr_sir_sar((t, ei, np.zeros(8)))
        assert sar == DB_CAP
        assert sdr == pytest.approx(sir)

    def test_sir_ten_db(self):
        s = np.zeros(4)
        ei = np.zeros(4)
        s[0] = np.sqrt(10.0)
        ei[1] = 1.0
        _, sir, _ = sdr_sir_sar((s, ei, np.zeros(4)))
        assert sir == pytest.approx(10.0, abs=1e-9)

    def test_zero_target_floors(self):
        ei = np.ones(4)
        sdr, sir, sar = sdr_sir_sar((np.zeros(4), ei, np.zeros(4)))
        assert sdr == -DB_CAP
        assert sir == -DB_CAP
        assert sar == DB_CAP


class TestNsdr:
    def test_mixture_as_estimate_scores_zero(self, rng):
        tgt = rng.standard_normal(300)
        mix = tgt + rng.standard_normal(300)
        assert nsdr(mix, tgt, mix) == 0.0

    def test_perfect_estimate_reaches_cap_minus_mixture_sdr(self, rng):
        tgt = rng.standard_normal(300)
        mix = tgt + 0.5 * rng.standard_normal(300)
        # independent gain-only SDR of the mixture against the target
        proj = ((mix @ tgt) / (tgt @ tgt)) * tgt
        resid = mix - proj
        mix_sdr = 10.0 * np.log10((proj @ proj) / (resid @ resid))
        assert nsdr(tgt, tgt, mix) == pytest.approx(DB_CAP - mix_sdr, abs=1e-9)

    def test_degraded_estimate_scores_negative(self, rng):
        tgt = rng.standard_normal(300)
        clean_mix = tgt + 0.1 * rng.standard_normal(300)
        worse = clean_mix + 5.0 * rng.standard_normal(300)
        assert nsdr(worse, tgt, clean_mix) < 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            nsdr(np.ones(4), np.ones(4), np.ones(5))

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError, match="target is all-zero"):
            nsdr(np.ones(4), np.zeros(4), np.ones(4))


class TestGnsdr:
    def test_weighted_mean(self):
        assert gnsdr([(2.0, 1.0), (4.0, 1.0)]) == pytest.approx(3.0)

    def test_lengths_weight_the_mean(self):
        assert gnsdr([(0.0, 1.0), (4.0, 3.0)]) == pytest.approx(3.0)

    def test_single_clip_is_identity(self):
        assert gnsdr([(7.25, 12.0)]) == pytest.approx(7.25)

    def test_equal_scores_ignore_lengths(self):
        assert gnsdr([(1.5, 2.0), (1.5, 90.0), (1.5, 0.1)]) == pytest.approx(1.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gnsdr([])

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError):
            gnsdr([(1.0, 0.0)])


class TestRawPitchAccuracy:
    def test_perfect(self):
        truth = voiced_contour([200.0, 210.0, 0.0, 220.0], 0.01)
        assert raw_pitch_accuracy(truth, truth) == 1.0

    def test_octave_error_scores_zero(self):
        truth = voiced_contour([200.0, 210.0], 0.01)
        est = voiced_contour([400.0, 420.0], 0.01)
        assert raw_pitch_accuracy(est, truth) == 0.0

    def test_half_right(self):
        truth = voiced_contour([200.0, 200.0], 0.01)
        est = voiced_contour([200.0, 400.0], 0.01)
        assert raw_pitch_accuracy(est, truth) == pytest.approx(0.5)

    def test_boundary_at_tolerance(self):
        truth = voiced_contour([200.0], 0.01)
        inside = voiced_contour([200.0 * 2.0 ** (49.9 / 1200.0)], 0.01)
        outside = voiced_contour([200.0 * 2.0 ** (50.1 / 1200.0)], 0.01)
        assert raw_pitch_accuracy(inside, truth) == 1.0
        assert raw_pitch_accuracy(outside, truth) == 0.0

    def test_unvoiced_estimate_counts_as_miss(self):
        truth = voiced_contour([200.0, 200.0], 0.01)
        est = voiced_contour([200.0, 0.0], 0.01)
        assert raw_pitch_accuracy(est, truth) == pytest.approx(0.5)

    def test_truth_unvoiced_frames_ignored(self):
        truth = voiced_contour([200.0, 0.0], 0.01)
        est = voiced_contour([200.0, 300.0], 0.01)
        assert raw_pitch_accuracy(est, truth) == 1.0

    def test_wider_tolerance_helps(self):
        truth = voiced_contour([200.0], 0.01)
        est = voiced_contour([200.0 * 2.0 ** (80.0 / 1200.0)], 0.01)
        assert raw_pitch_accuracy(est, truth, tolerance_cents=50.0) == 0.0
        assert raw_pitch_accuracy(est, truth, tolerance_cents=100.0) == 1.0

    def test_nonpositive_tolerance_rejected(self):
        truth = voiced_contour([200.0], 0.01)
        with pytest.raises(ValueError):
            raw_pitch_accuracy(truth, truth, tolerance_cents=0.0)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_tolerance_rejected(self, tolerance):
        truth = voiced_contour([200.0], 0.01)
        with pytest.raises(ValueError, match="positive and finite"):
            raw_pitch_accuracy(truth, truth, tolerance_cents=tolerance)

    def test_all_unvoiced_truth_rejected(self):
        truth = voiced_contour([0.0, 0.0], 0.01)
        est = voiced_contour([100.0, 100.0], 0.01)
        with pytest.raises(ValueError, match="no voiced frames"):
            raw_pitch_accuracy(est, truth)

    def test_mismatched_hops_compare_on_common_clock(self):
        # truth on a 10 ms grid, estimate on ~11.6 ms frames: one tick
        # per truth frame, each matched to the nearest estimate frame
        f0 = np.full(100, 200.0)
        est = voiced_contour(np.full(87, 200.0), 512 / 44100)
        assert raw_pitch_accuracy(est, voiced_contour(f0, 0.01)) == 1.0
        f0[40] = 300.0
        assert raw_pitch_accuracy(est, voiced_contour(f0, 0.01)) == 0.99

    @pytest.mark.parametrize("n_hits", [0, 1, 2, 3])
    def test_tick_count_rounds_duration(self, n_hits):
        truth = voiced_contour(np.full(3, 150.0), ALIGNMENT_TICK_SECONDS)
        est = voiced_contour([150.0] * n_hits + [0.0] * (3 - n_hits), ALIGNMENT_TICK_SECONDS)
        assert raw_pitch_accuracy(est, truth) == n_hits / 3


class TestVoicedRegionMask:
    def test_blocks_follow_frames(self):
        sr = 1000
        truth = voiced_contour([100.0, 0.0, 100.0], 0.01)  # 10 samples/frame
        sig = AudioSignal(np.ones(30), sr)
        gated = voiced_region_mask(sig, truth)
        expected = np.ones(30)
        expected[10:20] = 0.0
        np.testing.assert_array_equal(gated.samples, expected)

    def test_last_frame_extends_to_signal_end(self):
        sr = 1000
        truth = voiced_contour([100.0, 0.0, 100.0], 0.01)
        sig = AudioSignal(np.ones(35), sr)
        gated = voiced_region_mask(sig, truth)
        assert np.all(gated.samples[30:] == 1.0)

    def test_all_voiced_is_identity(self, rng):
        sr = 1000
        x = rng.standard_normal(40)
        truth = voiced_contour([100.0, 110.0, 120.0, 130.0], 0.01)
        gated = voiced_region_mask(AudioSignal(x, sr), truth)
        np.testing.assert_array_equal(gated.samples, x)

    def test_all_unvoiced_silences(self, rng):
        sr = 1000
        truth = voiced_contour([0.0, 0.0], 0.01)
        gated = voiced_region_mask(AudioSignal(rng.standard_normal(20), sr), truth)
        assert np.all(gated.samples == 0.0)

    def test_contour_too_short_rejected(self):
        sr = 1000
        truth = voiced_contour([100.0, 100.0], 0.01)
        with pytest.raises(ValueError):
            voiced_region_mask(AudioSignal(np.ones(31), sr), truth)

    def test_sub_sample_hop_rejected(self):
        truth = voiced_contour([100.0], 0.0001)
        with pytest.raises(ValueError):
            voiced_region_mask(AudioSignal(np.ones(10), 1000), truth)
