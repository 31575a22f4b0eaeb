"""Mask construction, integration, and masked resynthesis."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import vocsep.masks as masks_mod
import vocsep.spectrogram as spectrogram_mod
from vocsep.audio import AudioSignal
from vocsep.masks import (
    TimeFrequencyMask,
    _tukey_taper,
    binary_mask,
    harmonic_mask,
    integrate_binary,
    integrate_soft,
    separate,
    wiener_mask,
)
from vocsep.pipeline import PipelineConfig, _stft_stage
from vocsep.report import mask_to_csv, mask_to_pgm
from vocsep.rpca import RpcaResult
from vocsep.spectrogram import MagnitudeSpectrogram, magnitude, stft
from vocsep.tracking import voiced_contour

from test_spectrogram import _unit_phase, _whole_array_istft, _whole_array_stft


def _rpca_result(low, sparse):
    return RpcaResult(
        low_rank=np.asarray(low, dtype=np.float64),
        sparse=np.asarray(sparse, dtype=np.float64),
        converged=True,
    )


def _whole_array_wiener_mask(result):
    """Reference wiener_mask: every frame at once, with the clamp to 1
    that the block-wise mask leaves out."""
    s = np.abs(result.sparse)
    total = np.abs(result.low_rank)
    total += s
    values = np.divide(s, total, out=np.zeros_like(s), where=total > 0)
    return np.minimum(values, 1.0, out=values)


def _whole_array_binary_mask(result, gamma):
    """Reference binary_mask: every frame at once."""
    return (np.abs(result.sparse) > gamma * np.abs(result.low_rank)).astype(np.float64)


def _random_split(rng, n_frames, n_bins=129):
    """An RpcaResult of signed parts over a wide range of magnitudes,
    with zeros in each part (0/0 in some cells) and cells where the
    parts tie in magnitude. The low-rank part is column-major, as
    decompose lays it out for a tall input."""
    shape = (n_frames, n_bins)
    low = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300.0, 300.0, size=shape)
    sparse = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300.0, 300.0, size=shape)
    low[rng.random(shape) < 0.2] = 0.0
    sparse[rng.random(shape) < 0.2] = 0.0
    tie = rng.random(shape) < 0.1
    sparse[tie] = -low[tie]
    return _rpca_result(np.asfortranarray(low), sparse)


def _mag(values, sample_rate=44100, hop_size=441):
    return MagnitudeSpectrogram(
        values=np.asarray(values, dtype=np.float64), hop_size=hop_size, sample_rate=sample_rate
    )


def _loop_harmonic_mask(contour, mag, n_partials, width_hz, tukey_shape):
    """The harmonic mask as a loop over voiced frames and partials, as
    it was before the partial loop was vectorized over frames."""
    bin_hz = mag.bin_hz
    values = np.zeros((contour.n_frames, bin_hz.size))
    half = width_hz / 2.0
    for t in np.flatnonzero(contour.voiced):
        f0 = contour.f0_hz[t]
        row = values[t]
        for n in range(1, n_partials + 1):
            center = n * f0
            if center > mag.nyquist_hz:
                break
            lo = np.searchsorted(bin_hz, center - half, side="left")
            hi = np.searchsorted(bin_hz, center + half, side="right")
            if hi <= lo:
                continue
            positions = (bin_hz[lo:hi] - (center - half)) / width_hz
            row[lo:hi] = np.maximum(row[lo:hi], _tukey_taper(positions, tukey_shape))
    return values


def _angle_phase(values):
    return np.exp(1j * np.angle(values))


def _reference_separate(x, window_size, hop_size, mask, unit_phase=_unit_phase):
    """Reference resynthesis of the samples x: the whole complex STFT,
    then a fresh complex product per source, each inverted in one irfft
    call; the phase as separate builds it, or as exp(1j * angle) with
    unit_phase=_angle_phase."""
    values = _whole_array_stft(x, window_size, hop_size)
    mixture = np.abs(values)
    vocal_mag = mask.values * mixture
    accomp_mag = mixture - vocal_mag
    vocal_mag = mixture - accomp_mag
    phase = unit_phase(values)
    return [
        _whole_array_istft(part * phase, window_size, hop_size, x.size)
        for part in (vocal_mag, accomp_mag)
    ]


def _random_f0(rng, n_frames, nyquist):
    """Mostly vocal-range f0, some high enough that upper partials
    cross Nyquist, and a fifth of the frames unvoiced."""
    f0 = rng.uniform(80.0, 720.0, n_frames)
    high = rng.random(n_frames) < 0.2
    f0[high] = rng.uniform(720.0, 0.9 * nyquist, int(high.sum()))
    f0[rng.random(n_frames) < 0.2] = 0.0
    return f0


class TestTimeFrequencyMask:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            TimeFrequencyMask(np.array([[1.5]]))
        with pytest.raises(ValueError):
            TimeFrequencyMask(np.array([[-0.1]]))
        with pytest.raises(ValueError, match="finite"):
            TimeFrequencyMask(np.array([[0.5, np.nan]]))

    def test_rejects_1d_and_empty(self):
        with pytest.raises(ValueError):
            TimeFrequencyMask(np.zeros(4))
        with pytest.raises(ValueError):
            TimeFrequencyMask(np.zeros((0, 4)))

    def test_dtype_is_the_kind(self):
        # bool values are a binary mask and are kept as they are; any
        # other values, 0/1 floats and ints too, become a soft float64 mask
        binary = np.array([[False, True]])
        assert TimeFrequencyMask(binary).values is binary
        for values in (np.array([[0.0, 1.0]]), np.array([[0, 1]])):
            soft = TimeFrequencyMask(values).values
            assert soft.dtype == np.float64
            np.testing.assert_array_equal(soft, [[0.0, 1.0]])


class TestWienerMask:
    def test_ratio(self):
        result = _rpca_result(low=[[1.0]], sparse=[[3.0]])
        assert wiener_mask(result).values[0, 0] == pytest.approx(0.75)

    def test_zero_over_zero_is_zero(self):
        result = _rpca_result(low=[[0.0]], sparse=[[0.0]])
        assert wiener_mask(result).values[0, 0] == 0.0

    def test_equal_parts_give_half(self):
        result = _rpca_result(low=[[2.0]], sparse=[[-2.0]])
        assert wiener_mask(result).values[0, 0] == pytest.approx(0.5)

    def test_sign_insensitive(self, rng):
        low = rng.standard_normal((4, 6))
        sparse = rng.standard_normal((4, 6))
        a = wiener_mask(_rpca_result(low, sparse))
        b = wiener_mask(_rpca_result(-low, -sparse))
        np.testing.assert_array_equal(a.values, b.values)

    def test_blocks_bitwise_equal_to_whole_array(self, block_test_frames, block_frames, rng):
        result = _random_split(rng, block_test_frames)
        expected = _whole_array_wiener_mask(result)
        assert np.array_equal(wiener_mask(result).values, expected)

    @settings(max_examples=200, deadline=None)
    @given(
        parts=hnp.arrays(
            np.float64,
            (2, 64),
            elements=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
        ),
    )
    def test_property_unclamped_ratio_at_most_one(self, parts):
        # fl(|S| + |L|) >= |S| because rounding is monotone, so the
        # rounded quotient cannot pass 1, subnormals and overflow to
        # infinity included; wiener_mask relies on this instead of a clamp
        s, low = parts
        with np.errstate(over="ignore"):
            total = s + low
        ratio = np.divide(s, total, out=np.zeros_like(s), where=total > 0)
        assert ratio.max() <= 1.0

    @settings(max_examples=50, deadline=None)
    @given(
        low=hnp.arrays(
            np.float64,
            (3, 4),
            elements=st.floats(-50, 50),
        ),
        sparse=hnp.arrays(
            np.float64,
            (3, 4),
            elements=st.floats(-50, 50),
        ),
    )
    def test_property_in_unit_interval(self, low, sparse):
        values = wiener_mask(_rpca_result(low, sparse)).values
        assert values.min() >= 0.0
        assert values.max() <= 1.0


class TestBinaryMask:
    @pytest.mark.parametrize("gamma", [1.0, 0.5])
    def test_blocks_bitwise_equal_to_whole_array(self, gamma, block_test_frames, block_frames, rng):
        result = _random_split(rng, block_test_frames)
        expected = _whole_array_binary_mask(result, gamma)
        assert np.array_equal(binary_mask(result, gamma).values, expected)

    def test_strictly_greater(self):
        result = _rpca_result(low=[[1.0, 1.0]], sparse=[[1.0, 1.001]])
        np.testing.assert_array_equal(binary_mask(result, 1.0).values, [[0.0, 1.0]])

    def test_gamma_scales_the_bar(self):
        result = _rpca_result(low=[[1.0]], sparse=[[1.5]])
        assert binary_mask(result, gamma=1.0).values[0, 0] == 1.0
        assert binary_mask(result, gamma=2.0).values[0, 0] == 0.0

    def test_gamma_zero_keeps_any_nonzero_sparse(self):
        result = _rpca_result(low=[[5.0, 5.0]], sparse=[[0.0, 1e-9]])
        np.testing.assert_array_equal(binary_mask(result, gamma=0.0).values, [[0.0, 1.0]])

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            binary_mask(_rpca_result([[1.0]], [[1.0]]), gamma=-0.5)

    def test_values_are_bool(self):
        mask = binary_mask(_rpca_result([[1.0]], [[2.0]]), 1.0)
        assert mask.values.dtype == bool


class TestTukeyTaper:
    def test_flat_middle_and_zero_ends(self):
        p = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        out = _tukey_taper(p, 0.5)
        np.testing.assert_allclose(out, [0.0, 1.0, 1.0, 1.0, 0.0], atol=1e-12)

    def test_continuous(self):
        p = np.linspace(0.0, 1.0, 5001)
        out = _tukey_taper(p, 0.5)
        assert np.max(np.abs(np.diff(out))) < 5e-3

    def test_shape_zero_is_rectangular(self):
        p = np.linspace(0.0, 1.0, 11)
        np.testing.assert_array_equal(_tukey_taper(p, 0.0), np.ones(11))

    def test_symmetric(self):
        p = np.linspace(0.0, 1.0, 101)
        out = _tukey_taper(p, 0.5)
        np.testing.assert_allclose(out, out[::-1], atol=1e-12)


class TestHarmonicMask:
    def test_single_partial_bins_and_taper_values(self):
        # one voiced frame, f0 200 Hz, lobe 50 Hz wide: at the
        # 44100/2048 geometry the interval [175, 225] contains exactly
        # bins 9 and 10 (193.80 and 215.33 Hz)
        sr, window = 44100, 2048
        mag = _mag(np.ones((1, window // 2 + 1)), sr)
        contour = voiced_contour([200.0], 0.01)
        mask = harmonic_mask(contour, mag, 1, 50.0)
        row = mask.values[0]
        assert set(np.flatnonzero(row)) == {9, 10}
        bin_hz = np.arange(window // 2 + 1) * sr / window
        p9 = (bin_hz[9] - 175.0) / 50.0
        p10 = (bin_hz[10] - 175.0) / 50.0
        assert 0.25 <= p9 <= 0.75  # flat region
        assert row[9] == pytest.approx(1.0)
        expected10 = 0.5 * (1.0 + np.cos(np.pi * (2.0 * (1.0 - p10) / 0.5 - 1.0)))
        assert row[10] == pytest.approx(expected10, abs=1e-12)

    def test_partials_at_multiples_of_f0(self):
        sr, window = 16000, 2048
        mag = _mag(np.ones((1, window // 2 + 1)), sr, 160)
        contour = voiced_contour([400.0], 0.01)
        row = harmonic_mask(contour, mag, 3, 50.0).values[0]
        bin_hz = np.arange(window // 2 + 1) * sr / window
        nonzero_hz = bin_hz[row > 0]
        for center in (400.0, 800.0, 1200.0):
            assert np.any(np.abs(nonzero_hz - center) <= 25.0)
        # nothing outside the three lobes
        for hz in nonzero_hz:
            assert any(abs(hz - c) <= 25.0 for c in (400.0, 800.0, 1200.0))

    def test_partials_above_nyquist_skipped(self):
        sr, window = 16000, 2048
        mag = _mag(np.ones((1, window // 2 + 1)), sr, 160)
        contour = voiced_contour([3000.0], 0.01)
        row = harmonic_mask(contour, mag, 10, 50.0).values[0]
        bin_hz = np.arange(window // 2 + 1) * sr / window
        nonzero_hz = bin_hz[row > 0]
        assert nonzero_hz.max() <= 6000.0 + 25.0
        assert np.any(np.abs(nonzero_hz - 6000.0) <= 25.0)

    def test_unvoiced_frames_stay_zero(self):
        sr, window = 16000, 2048
        mag = _mag(np.ones((2, window // 2 + 1)), sr, 160)
        contour = voiced_contour([200.0, 0.0], 0.01)
        mask = harmonic_mask(contour, mag, 10, 50.0)
        assert mask.values[1].max() == 0.0
        assert mask.values[0].max() > 0.0

    def test_overlapping_lobes_stay_below_one(self):
        sr, window = 16000, 2048
        mag = _mag(np.ones((1, window // 2 + 1)), sr, 160)
        contour = voiced_contour([40.0], 0.01)
        row = harmonic_mask(contour, mag, 10, 100.0).values[0]
        assert row.max() <= 1.0

    def test_more_partials_only_add(self):
        sr, window = 16000, 2048
        mag = _mag(np.ones((1, window // 2 + 1)), sr, 160)
        contour = voiced_contour([300.0], 0.01)
        one = harmonic_mask(contour, mag, 1, 50.0).values[0]
        many = harmonic_mask(contour, mag, 8, 50.0).values[0]
        assert np.all(many >= one - 1e-15)

    def test_twenty_partials_fit_at_44k(self):
        sr, window = 44100, 4096
        mag = _mag(np.ones((1, window // 2 + 1)), sr, 441)
        contour = voiced_contour([700.0], 0.01)
        row = harmonic_mask(contour, mag, 20, 70.0).values[0]
        bin_hz = np.arange(window // 2 + 1) * sr / window
        assert np.any(row[np.abs(bin_hz - 14000.0) <= 35.0] > 0)

    @pytest.mark.parametrize(
        "sr, window, hop, n_partials, width_hz",
        [(16000, 2048, 160, 10, 50.0), (44100, 4096, 441, 20, 70.0)],
    )
    @pytest.mark.parametrize("tukey_shape", [0.0, 0.5, 1.0])
    def test_matches_frame_loop_on_random_contours(
        self, rng, sr, window, hop, n_partials, width_hz, tukey_shape, monkeypatch
    ):
        # shapes other than TUKEY_SHAPE change which of two overlapping
        # lobes wins the max: all-flat at 0, no flat top at 1
        monkeypatch.setattr(masks_mod, "TUKEY_SHAPE", tukey_shape)
        mag = _mag(np.ones((101, window // 2 + 1)), sr, hop)
        contour = voiced_contour(_random_f0(rng, 101, sr / 2.0), hop / sr)
        expected = _loop_harmonic_mask(contour, mag, n_partials, width_hz, tukey_shape)
        assert np.array_equal(harmonic_mask(contour, mag, n_partials, width_hz).values, expected)

    @pytest.mark.parametrize(
        "f0, width_hz",
        [
            # f0 below the lobe width: lobes of neighbouring partials overlap
            ([30.0, 45.0, 0.0, 60.0], 70.0),
            # narrower than the 7.8125 Hz bin spacing: some lobes hold no bin
            ([200.0, 201.0, 203.9, 0.0], 3.0),
            # 4 bins wide, centred on bins 32*n: both edges land on bin centres
            ([250.0, 0.0, 250.0, 500.0], 31.25),
        ],
    )
    @pytest.mark.parametrize("tukey_shape", [0.0, 0.5, 1.0])
    def test_matches_frame_loop_on_edge_cases(self, f0, width_hz, tukey_shape, monkeypatch):
        monkeypatch.setattr(masks_mod, "TUKEY_SHAPE", tukey_shape)
        mag = _mag(np.ones((len(f0), 1025)), 16000, 160)
        contour = voiced_contour(f0, 0.01)
        expected = _loop_harmonic_mask(contour, mag, 10, width_hz, tukey_shape)
        assert np.array_equal(harmonic_mask(contour, mag, 10, width_hz).values, expected)

    def test_frame_count_mismatch_rejected(self):
        mag = _mag(np.ones((3, 1025)))
        contour = voiced_contour([200.0, 210.0], 0.01)
        with pytest.raises(ValueError):
            harmonic_mask(contour, mag, 10, 50.0)

    def test_voiced_f0_at_nyquist_rejected(self):
        sr, window = 16000, 2048
        mag = _mag(np.ones((1, window // 2 + 1)), sr, 160)
        contour = voiced_contour([8000.0], 0.01)
        with pytest.raises(ValueError):
            harmonic_mask(contour, mag, 10, 50.0)

    def test_config_validation(self):
        mag = _mag(np.ones((1, 1025)))
        contour = voiced_contour([200.0], 0.01)
        with pytest.raises(ValueError, match="n_partials must be >= 1"):
            harmonic_mask(contour, mag, 0, 50.0)
        with pytest.raises(ValueError, match="width_hz must be positive"):
            harmonic_mask(contour, mag, 10, 0.0)

    def test_tukey_shape_constant(self):
        assert masks_mod.TUKEY_SHAPE == 0.5


class TestIntegration:
    def test_product(self):
        a = TimeFrequencyMask(np.array([[0.8]]))
        b = TimeFrequencyMask(np.array([[0.5]]))
        assert integrate_soft(a, b).values[0, 0] == pytest.approx(0.4)

    def test_product_of_binary_masks_is_soft(self):
        a = TimeFrequencyMask(np.array([[True, True, False]]))
        b = TimeFrequencyMask(np.array([[True, False, False]]))
        out = integrate_soft(a, b).values
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, [[1.0, 0.0, 0.0]])

    def test_shape_mismatch_rejected(self):
        a = TimeFrequencyMask(np.zeros((2, 3)))
        b = TimeFrequencyMask(np.zeros((2, 4)))
        with pytest.raises(ValueError):
            integrate_soft(a, b)

    def test_binarize_at_half_is_strict(self):
        mask = TimeFrequencyMask(np.array([[0.5, 0.51, 0.49, 1.0, 0.0]]))
        out = integrate_binary(mask)
        np.testing.assert_array_equal(out.values, [[0.0, 1.0, 0.0, 1.0, 0.0]])
        assert out.values.dtype == bool

    def test_binarize_idempotent(self, rng):
        mask = TimeFrequencyMask(rng.uniform(0, 1, size=(6, 8)))
        once = integrate_binary(mask)
        twice = integrate_binary(once)
        np.testing.assert_array_equal(once.values, twice.values)

    def test_combined_support_within_both_factors(self, rng):
        a = TimeFrequencyMask(rng.uniform(0, 1, size=(10, 12)))
        b = TimeFrequencyMask(rng.uniform(0, 1, size=(10, 12)))
        combined = integrate_binary(integrate_soft(a, b)).values > 0
        both = (integrate_binary(a).values > 0) & (integrate_binary(b).values > 0)
        assert np.all(both[combined])

    @settings(max_examples=50, deadline=None)
    @given(
        a=hnp.arrays(np.float64, (3, 4), elements=st.floats(0, 1)),
        b=hnp.arrays(np.float64, (3, 4), elements=st.floats(0, 1)),
    )
    def test_property_product_never_exceeds_factors(self, a, b):
        out = integrate_soft(TimeFrequencyMask(a), TimeFrequencyMask(b)).values
        assert np.all(out <= a + 1e-15)
        assert np.all(out <= b + 1e-15)


def _analysis(signal, window_size=2048, hop_size=160):
    """|X| of a signal, built as run() builds it."""
    cfg = PipelineConfig(window_size=window_size, hop_size=hop_size)
    return _stft_stage(signal, cfg, {})


class TestSeparate:
    def _inputs(self, rng, n=4000, sr=16000):
        signal = AudioSignal(rng.uniform(-0.5, 0.5, size=n), sr)
        return signal, _analysis(signal)

    def test_magnitudes_complementary_exactly(self, rng):
        signal, mag = self._inputs(rng)
        mask = TimeFrequencyMask(rng.uniform(0, 1, size=mag.values.shape))
        result = separate(signal, mag, mask)
        mix = magnitude(stft(signal, 2048, 160)).values
        np.testing.assert_array_equal(
            result.vocal_spec.values + result.accomp_spec.values, mix
        )
        np.testing.assert_array_equal(result.accomp_spec.values, mix - result.vocal_spec.values)

    def test_complementarity_survives_many_seeds(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            signal, mag = self._inputs(rng, n=2500)
            mask = TimeFrequencyMask(rng.uniform(0, 1, size=mag.values.shape))
            result = separate(signal, mag, mask)
            mix = magnitude(stft(signal, 2048, 160)).values
            assert np.array_equal(
                result.vocal_spec.values + result.accomp_spec.values, mix
            )

    def test_all_pass_mask_returns_round_trip(self, rng):
        signal, mag = self._inputs(rng)
        mask = TimeFrequencyMask(np.ones(mag.values.shape))
        result = separate(signal, mag, mask)
        assert np.all(result.accomp_spec.values == 0)
        assert np.max(np.abs(result.accompaniment.samples)) < 1e-10
        np.testing.assert_allclose(
            result.vocal.samples + result.accompaniment.samples,
            result.vocal.samples,
        )

    def test_all_reject_mask_silences_vocal(self, rng):
        signal, mag = self._inputs(rng)
        mask = TimeFrequencyMask(np.zeros(mag.values.shape))
        result = separate(signal, mag, mask)
        assert np.max(np.abs(result.vocal.samples)) == 0.0
        assert np.array_equal(result.accompaniment.samples, signal.samples)

    def test_parts_sum_back_to_mixture(self, rng):
        signal, mag = self._inputs(rng)
        x = signal.samples
        mask = TimeFrequencyMask(rng.uniform(0, 1, size=mag.values.shape))
        result = separate(signal, mag, mask)
        total = result.vocal.samples + result.accompaniment.samples
        assert np.linalg.norm(total - x) / np.linalg.norm(x) < np.finfo(np.float64).eps

    @pytest.mark.parametrize("sr,window,hop", [(16000, 2048, 160), (44100, 4096, 441)])
    def test_parts_sum_to_mixture_within_one_rounding(self, sr, window, hop, rng):
        # accompaniment = mixture - vocal, so the sum is the mixture up to
        # the rounding of that subtraction and of the sum; resynthesizing
        # both parts leaves the ISTFT round-trip error (about 3 eps here)
        signal = AudioSignal(rng.uniform(-0.5, 0.5, size=sr), sr)
        mag = _analysis(signal, window, hop)
        mask = TimeFrequencyMask(rng.uniform(0, 1, size=mag.values.shape))
        result = separate(signal, mag, mask)
        x = signal.samples
        error = np.max(np.abs(result.vocal.samples + result.accompaniment.samples - x))
        assert error <= 2 * np.finfo(np.float64).eps * np.max(np.abs(x))

    @pytest.mark.parametrize("sr,window,hop", [(16000, 2048, 160), (44100, 4096, 441)])
    @pytest.mark.parametrize("block", [1, 7, spectrogram_mod.BLOCK_FRAMES, "all"])
    def test_bitwise_equal_to_whole_array_resynthesis(self, sr, window, hop, block, rng, monkeypatch):
        # leading silence and a gap longer than a window give frames whose
        # bins are all zero: phase 0 through the tiny clamp
        samples = rng.uniform(-0.5, 0.5, size=sr)
        samples[: sr // 4] = 0.0
        samples[sr // 2 : sr // 2 + 2 * window] = 0.0
        signal = AudioSignal(samples, sr)
        mag = _analysis(signal, window, hop)
        assert mag.n_frames % 7 != 0
        assert np.sum(mag.values.max(axis=1) == 0) >= 3
        mask = TimeFrequencyMask(rng.uniform(0, 1, size=mag.values.shape))
        expected = _reference_separate(samples, window, hop, mask)
        monkeypatch.setattr(spectrogram_mod, "BLOCK_FRAMES", mag.n_frames if block == "all" else block)
        result = separate(signal, mag, mask)
        assert np.array_equal(result.vocal.samples, expected[0])
        # the accompaniment is mixture - vocal, not a second resynthesis
        got = result.accompaniment.samples
        assert np.linalg.norm(got - expected[1]) <= 1e-13 * np.linalg.norm(expected[1])

    @pytest.mark.parametrize("sr,window,hop", [(16000, 2048, 160), (44100, 4096, 441)])
    def test_close_to_exp_angle_resynthesis(self, sr, window, hop, rng):
        # leading silence gives zero bins, whose phase the two
        # constructions define differently
        samples = rng.uniform(-0.5, 0.5, size=sr)
        samples[: sr // 4] = 0.0
        signal = AudioSignal(samples, sr)
        mag = magnitude(stft(signal, window, hop))
        assert np.any(mag.values.max(axis=1) == 0)
        mask = TimeFrequencyMask(rng.uniform(0, 1, size=mag.values.shape))
        result = separate(signal, mag, mask)
        expected = _reference_separate(samples, window, hop, mask, unit_phase=_angle_phase)
        for got, ref in zip((result.vocal.samples, result.accompaniment.samples), expected):
            assert np.all(np.isfinite(got))
            assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)

    def test_leaves_its_inputs_unchanged(self, rng):
        samples = rng.uniform(-0.5, 0.5, size=4000)
        # all-zero frames: zero bins of |X|, which a clamp would touch
        samples[:2500] = 0.0
        signal = AudioSignal(samples, 16000)
        mag = _analysis(signal)
        assert np.any(mag.values.max(axis=1) == 0)
        mask = TimeFrequencyMask(rng.uniform(0, 1, size=mag.values.shape))
        arrays = (signal.samples, mag.values, mask.values)
        before = [hashlib.sha256(a.tobytes()).hexdigest() for a in arrays]
        separate(signal, mag, mask)
        assert [hashlib.sha256(a.tobytes()).hexdigest() for a in arrays] == before

    def test_magnitude_of_another_signal_gives_finite_sources(self, rng):
        # zeroed bins where the mixture's |X| is nonzero: the phase comes
        # from the mixture's own transform, so no X / tiny overflows
        signal, mag = self._inputs(rng)
        zeroed = mag.values.copy()
        zeroed[:, 100:110] = 0.0
        assert np.all(mag.values[:, 100:110] > 0)
        mask = TimeFrequencyMask(rng.uniform(0, 1, size=mag.values.shape))
        result = separate(signal, dataclasses.replace(mag, values=zeroed), mask)
        assert np.all(np.isfinite(result.vocal.samples))
        assert np.all(np.isfinite(result.accompaniment.samples))
        assert np.array_equal(result.vocal_spec.values[:, 100:110], zeroed[:, 100:110])

    def test_shape_mismatch_rejected(self, rng):
        signal, mag = self._inputs(rng)
        with pytest.raises(ValueError, match="shapes differ"):
            separate(signal, mag, TimeFrequencyMask(np.zeros((2, 2))))
        mask = TimeFrequencyMask(np.zeros(mag.values.shape))
        with pytest.raises(ValueError, match="shapes differ"):
            separate(signal, dataclasses.replace(mag, values=mag.values[:-1]), mask)
        # the magnitude must be the STFT of the mixture's length and rate
        shorter = _analysis(AudioSignal(signal.samples[:-160], 16000))
        with pytest.raises(ValueError, match="is not the STFT of"):
            separate(signal, shorter, TimeFrequencyMask(np.zeros(shorter.values.shape)))
        with pytest.raises(ValueError, match="is not the STFT of"):
            separate(signal, dataclasses.replace(mag, sample_rate=8000), mask)
        with pytest.raises(ValueError, match="is not the STFT of"):
            separate(AudioSignal(signal.samples[:-1], 16000), mag, mask)
        with pytest.raises(ValueError, match="is not the STFT of"):
            separate(AudioSignal(signal.samples, 8000), mag, mask)


class TestMaskWriters:
    def test_pgm_header_and_size(self, tmp_path):
        mask = TimeFrequencyMask(np.array([[0.0, 0.5], [1.0, 0.25]]))
        path = tmp_path / "m.pgm"
        mask_to_pgm(mask, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "2 2"
        assert lines[2] == "255"
        first_row = [int(v) for v in lines[3].split()]
        assert first_row == [0, 128]

    def test_csv_round_trip(self, tmp_path, rng):
        values = rng.uniform(0, 1, size=(3, 5))
        path = tmp_path / "m.csv"
        mask_to_csv(TimeFrequencyMask(values), path)
        back = np.loadtxt(path, delimiter=",")
        np.testing.assert_allclose(back, values, atol=1e-7)
