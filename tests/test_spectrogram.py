"""STFT analysis/synthesis, A-weighting, and the log-frequency grid."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.signal import get_window

import vocsep.spectrogram as spectrogram_mod
from vocsep.audio import AudioSignal
from vocsep.spectrogram import (
    DB_FLOOR,
    ComplexSpectrogram,
    LogFrequencyGrid,
    LogSpectrogram,
    MagnitudeSpectrogram,
    a_weight_at,
    apply_a_weighting,
    istft,
    magnitude,
    stft,
    to_log_frequency,
)

GEOMETRIES = [(16000, 2048, 160), (44100, 4096, 441)]


def _rel_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _whole_array_istft(spec):
    """Reference istft: one irfft call over every frame, then the same
    per-frame weighted overlap-add."""
    window = get_window("hann", spec.window_size, fftbins=True)
    pad = spec.window_size // 2
    frames = np.fft.irfft(spec.values, n=spec.window_size, axis=1)
    total = max(2 * pad + spec.n_samples, (spec.n_frames - 1) * spec.hop_size + spec.window_size)
    acc = np.zeros(total)
    wsum = np.zeros(total)
    for t in range(spec.n_frames):
        start = t * spec.hop_size
        acc[start : start + spec.window_size] += frames[t] * window
        wsum[start : start + spec.window_size] += window * window
    return acc[pad : pad + spec.n_samples] / wsum[pad : pad + spec.n_samples]


def _scipy_log_frequency(mag, grid):
    """Reference resampling through scipy's natural CubicSpline."""
    db = 20.0 * np.log10(np.maximum(mag.values, 1e-10))
    spline = CubicSpline(mag.bin_hz, db, axis=1, bc_type="natural")
    return np.maximum(spline(grid.centers_hz), DB_FLOOR)


class TestStft:
    @pytest.mark.parametrize("n", [2**k for k in range(6, 16)])
    def test_window_bitwise_equal_to_scipy_hann(self, n):
        assert np.array_equal(spectrogram_mod._hann(n), get_window("hann", n, fftbins=True))

    @pytest.mark.parametrize("sr,window,hop", GEOMETRIES)
    def test_frame_count(self, sr, window, hop, rng):
        n = sr  # one second
        spec = stft(AudioSignal(rng.standard_normal(n), sr), window, hop)
        assert spec.n_frames == 1 + n // hop
        assert spec.n_bins == window // 2 + 1

    @pytest.mark.parametrize("sr,window,hop", GEOMETRIES)
    def test_round_trip(self, sr, window, hop, rng):
        x = rng.standard_normal(sr // 2)
        sig = AudioSignal(x, sr)
        back = istft(stft(sig, window, hop))
        assert back.samples.size == x.size
        assert _rel_l2(back.samples, x) < 1e-6

    def test_round_trip_is_tight(self, rng):
        x = rng.standard_normal(8000)
        back = istft(stft(AudioSignal(x, 16000), 2048, 160))
        assert _rel_l2(back.samples, x) < 1e-10

    def test_bin_centers(self):
        sig = AudioSignal(np.zeros(4096), 16000)
        spec = stft(sig, 2048, 160)
        np.testing.assert_allclose(spec.bin_hz, np.arange(1025) * 16000.0 / 2048.0)

    def test_on_bin_sine_concentrates_energy(self):
        sr, window, hop = 16000, 2048, 160
        k = 64  # exactly on a bin: 64 * sr / window = 500 Hz
        freq = k * sr / window
        t = np.arange(sr) / sr
        spec = stft(AudioSignal(np.sin(2 * np.pi * freq * t), sr), window, hop)
        mag = magnitude(spec)
        # interior frame, away from the reflect-padded edges
        row = mag.values[mag.n_frames // 2] ** 2
        assert row[k - 1 : k + 2].sum() / row.sum() > 0.90
        assert np.argmax(row) == k

    @pytest.mark.parametrize("sr,window,hop", GEOMETRIES + [(16000, 256, 100)])
    def test_matches_frame_copy_loop(self, sr, window, hop, rng):
        x = rng.standard_normal(sr // 4 + 37)
        padded = np.pad(x, window // 2, mode="reflect")
        frames = np.array(
            [padded[t * hop : t * hop + window] for t in range(1 + x.size // hop)]
        )
        expected = np.fft.rfft(frames * get_window("hann", window, fftbins=True), axis=1)
        got = stft(AudioSignal(x, sr), window, hop).values
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)

    def test_zero_signal(self):
        spec = stft(AudioSignal(np.zeros(4000), 16000), 2048, 160)
        assert np.all(magnitude(spec).values == 0)

    def test_short_signal_rejected(self):
        with pytest.raises(ValueError):
            stft(AudioSignal(np.zeros(1000), 16000), 2048, 160)

    def test_geometry_validation(self):
        sig = AudioSignal(np.zeros(4096), 16000)
        with pytest.raises(ValueError):
            stft(sig, 2000, 160)  # not a power of two
        with pytest.raises(ValueError):
            stft(sig, 32, 16)  # too small
        with pytest.raises(ValueError):
            stft(sig, 2048, 4096)  # hop > window

    @pytest.mark.parametrize("sr,window,hop", GEOMETRIES + [(16000, 256, 96)])
    @pytest.mark.parametrize("block", [1, 7, spectrogram_mod.ISTFT_BLOCK_FRAMES, 1000])
    def test_istft_blocks_bitwise_equal_to_whole_array(self, sr, window, hop, block, rng, monkeypatch):
        spec = stft(AudioSignal(rng.uniform(-1, 1, size=sr), sr), window, hop)
        assert spec.n_frames % 7 != 0
        expected = _whole_array_istft(spec)
        monkeypatch.setattr(spectrogram_mod, "ISTFT_BLOCK_FRAMES", block)
        assert np.array_equal(istft(spec).samples, expected)

    def test_istft_rejects_degenerate_overlap(self):
        # hop == window leaves zeros in the squared-window sum
        spec = stft(AudioSignal(np.ones(4096), 16000), 2048, 2048)
        with pytest.raises(ValueError):
            istft(spec)

    def test_magnitude_nonnegative(self, rng):
        spec = stft(AudioSignal(rng.standard_normal(4000), 16000), 2048, 160)
        assert np.all(magnitude(spec).values >= 0)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_property_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2048, 12000))
        x = rng.uniform(-1, 1, size=n)
        back = istft(stft(AudioSignal(x, 16000), 2048, 160))
        assert _rel_l2(back.samples, x) < 1e-6


def _stft_frames(cls, values, window_size=256, hop_size=64, sample_rate=16000):
    extra = {"n_samples": 1024} if cls is ComplexSpectrogram else {}
    return cls(
        values=values,
        window_size=window_size,
        hop_size=hop_size,
        sample_rate=sample_rate,
        **extra,
    )


class TestStftContainers:
    @pytest.mark.parametrize("cls", [ComplexSpectrogram, MagnitudeSpectrogram])
    def test_properties(self, cls):
        spec = _stft_frames(cls, np.ones((5, 129)))
        assert (spec.n_frames, spec.n_bins) == (5, 129)
        assert spec.hop_seconds == 64 / 16000
        np.testing.assert_array_equal(spec.bin_hz, np.arange(129) * 16000 / 256)

    def test_magnitude_nyquist(self):
        assert _stft_frames(MagnitudeSpectrogram, np.ones((5, 129))).nyquist_hz == 8000.0

    @pytest.mark.parametrize("cls", [ComplexSpectrogram, MagnitudeSpectrogram])
    @pytest.mark.parametrize(
        "values,geometry",
        [
            pytest.param(np.ones((3, 101)), dict(window_size=200), id="window-not-power-of-two"),
            pytest.param(np.ones((3, 17)), dict(window_size=32, hop_size=16), id="window-below-64"),
            pytest.param(np.ones((3, 129)), dict(hop_size=0), id="hop-zero"),
            pytest.param(np.ones((3, 129)), dict(hop_size=257), id="hop-above-window"),
            pytest.param(np.ones(129), {}, id="one-dimensional"),
            pytest.param(np.ones((3, 128)), {}, id="wrong-width"),
        ],
    )
    def test_rejects(self, cls, values, geometry):
        with pytest.raises(ValueError):
            _stft_frames(cls, values, **geometry)

    def test_magnitude_rejects_negative_value(self):
        values = np.ones((3, 129))
        values[1, 7] = -1e-12
        with pytest.raises(ValueError, match="nonnegative"):
            _stft_frames(MagnitudeSpectrogram, values)

    @pytest.mark.parametrize("cls", [ComplexSpectrogram, MagnitudeSpectrogram])
    def test_replace_checks_again(self, cls):
        spec = _stft_frames(cls, np.ones((3, 129)))
        with pytest.raises(ValueError):
            dataclasses.replace(spec, values=np.ones((3, 128)))

    def test_magnitude_casts_to_float64(self):
        spec = _stft_frames(MagnitudeSpectrogram, np.ones((3, 129), dtype=np.float32))
        assert spec.values.dtype == np.float64


class TestAWeighting:
    def test_zero_at_dc(self):
        assert a_weight_at(0.0) == 0.0

    def test_value_at_1khz(self):
        # independent evaluation of the closed form at h = 1000
        h2 = 1000.0**2
        expected = (12200.0**2 * h2 * h2) / (
            (h2 + 20.6**2)
            * (h2 + 12200.0**2)
            * math.sqrt((h2 + 107.7**2) * (h2 + 737.9**2))
        )
        assert a_weight_at(1000.0) == pytest.approx(expected, rel=1e-12)
        assert a_weight_at(1000.0) == pytest.approx(0.794346, abs=1e-6)

    def test_low_frequencies_attenuated(self):
        assert a_weight_at(100.0) < a_weight_at(1000.0)

    def test_unimodal_below_20khz(self):
        freqs = np.linspace(1.0, 20000.0, 20000)
        r = a_weight_at(freqs)
        d = np.diff(r)
        # rises to a single peak, then falls: sign changes at most once
        sign_flips = np.sum(np.diff(np.sign(d[d != 0])) != 0)
        assert sign_flips <= 1
        peak_hz = freqs[np.argmax(r)]
        assert 2000 < peak_hz < 3000

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            a_weight_at(-1.0)

    def test_apply_scales_each_bin(self, rng):
        spec = stft(AudioSignal(rng.standard_normal(4000), 16000), 2048, 160)
        mag = magnitude(spec)
        weighted = apply_a_weighting(mag)
        np.testing.assert_allclose(
            weighted.values, mag.values * a_weight_at(mag.bin_hz)[None, :]
        )

    def test_double_application_squares_the_curve(self, rng):
        spec = stft(AudioSignal(rng.standard_normal(4000), 16000), 2048, 160)
        mag = magnitude(spec)
        twice = apply_a_weighting(apply_a_weighting(mag))
        np.testing.assert_allclose(
            twice.values, mag.values * a_weight_at(mag.bin_hz)[None, :] ** 2
        )


class TestLogFrequencyGrid:
    def test_first_center_is_origin(self):
        grid = LogFrequencyGrid(h_low_hz=30.0, cents_per_bin=10.0, n_bins=5)
        assert grid.centers_hz[0] == pytest.approx(30.0)

    def test_consecutive_centers_differ_by_bin_width_cents(self):
        grid = LogFrequencyGrid(h_low_hz=30.0, cents_per_bin=10.0, n_bins=100)
        cents = 1200.0 * np.log2(grid.centers_hz / 30.0)
        np.testing.assert_allclose(np.diff(cents), 10.0, atol=1e-9)

    def test_for_nyquist_count(self):
        grid = LogFrequencyGrid.for_nyquist(8000.0, h_low_hz=30.0, cents_per_bin=10.0)
        expected = int(math.floor(1200.0 * math.log2(8000.0 / 30.0) / 10.0)) + 1
        assert grid.n_bins == expected
        assert grid.centers_hz[-1] <= 8000.0
        # one more bin would cross Nyquist
        one_up = 30.0 * 2.0 ** (grid.n_bins * 10.0 / 1200.0)
        assert one_up > 8000.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LogFrequencyGrid(h_low_hz=0.0, cents_per_bin=10.0, n_bins=5)
        with pytest.raises(ValueError):
            LogFrequencyGrid(h_low_hz=30.0, cents_per_bin=0.0, n_bins=5)
        with pytest.raises(ValueError):
            LogFrequencyGrid(h_low_hz=30.0, cents_per_bin=10.0, n_bins=0)
        with pytest.raises(ValueError):
            LogFrequencyGrid.for_nyquist(20.0, h_low_hz=30.0)


def _dense_spline_matrix(n):
    """tridiag(1, 4, 1) of size n as a dense array."""
    a = np.zeros((n, n))
    a.flat[:: n + 1] = 4.0
    a.flat[1 :: n + 1] = 1.0
    a.flat[n :: n + 1] = 1.0
    return a


class TestSplineSystem:
    @pytest.mark.parametrize("k", range(1, 13))
    def test_matches_dense_solve(self, k, rng):
        n = 2**k - 1
        rhs = rng.uniform(-600.0, 600.0, size=(3, n))
        expected = np.linalg.solve(_dense_spline_matrix(n), rhs.T).T
        solved = spectrogram_mod._solve_spline_system(rhs.copy())
        np.testing.assert_allclose(solved, expected, rtol=1e-13, atol=1e-12)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_zero_right_hand_side(self, k):
        rhs = np.zeros((2, 2**k - 1))
        solved = spectrogram_mod._solve_spline_system(rhs)
        assert solved is rhs
        assert not np.any(solved)

    def test_solves_in_place(self, rng):
        rhs = rng.standard_normal((4, 63))
        before = rhs.copy()
        solved = spectrogram_mod._solve_spline_system(rhs)
        assert solved is rhs
        np.testing.assert_allclose(solved @ _dense_spline_matrix(63), before, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [0, 2, 6, 1022])
    def test_rejects_sizes_not_one_below_a_power_of_two(self, n):
        with pytest.raises(ValueError, match="2\\*\\*k - 1"):
            spectrogram_mod._solve_spline_system(np.zeros((1, n)))


class TestToLogFrequency:
    def _mag(self, values, sr=16000, window=2048):
        spec = stft(AudioSignal(np.zeros(window * 2), sr), window, 160)
        mag = magnitude(spec)
        assert values.shape[1] == mag.n_bins
        return type(mag)(
            values=values,
            window_size=window,
            hop_size=160,
            sample_rate=sr,
        )

    def test_db_linear_ramp_interpolated_exactly(self):
        # a natural cubic spline reproduces affine data exactly, so dB
        # values linear in Hz come back linear at the grid centers
        sr, window = 16000, 2048
        bin_hz = np.arange(window // 2 + 1) * sr / window
        db = -40.0 + 0.002 * bin_hz
        values = (10.0 ** (db / 20.0))[None, :]
        grid = LogFrequencyGrid.for_nyquist(sr / 2.0)
        log_spec = to_log_frequency(self._mag(values), grid)
        expected = -40.0 + 0.002 * grid.centers_hz
        np.testing.assert_allclose(log_spec.values[0], expected, atol=1e-9)

    @pytest.mark.parametrize("sr,window", [(16000, 256), (16000, 2048), (44100, 4096)])
    def test_matches_scipy_natural_spline(self, sr, window, rng):
        # random levels from below the -200 dB floor up to +40 dB
        values = 10.0 ** (rng.uniform(-220.0, 40.0, size=(6, window // 2 + 1)) / 20.0)
        mag = self._mag(values, sr=sr, window=window)
        grid = LogFrequencyGrid.for_nyquist(sr / 2.0)
        log_spec = to_log_frequency(mag, grid)
        np.testing.assert_allclose(
            log_spec.values, _scipy_log_frequency(mag, grid), rtol=0, atol=1e-9
        )

    def test_silence_floors_at_minus_200(self):
        sr, window = 16000, 2048
        values = np.zeros((3, window // 2 + 1))
        grid = LogFrequencyGrid.for_nyquist(sr / 2.0)
        log_spec = to_log_frequency(self._mag(values), grid)
        assert np.all(log_spec.values == DB_FLOOR)

    def test_grid_beyond_nyquist_rejected(self):
        sr, window = 16000, 2048
        values = np.ones((2, window // 2 + 1))
        grid = LogFrequencyGrid(h_low_hz=30.0, cents_per_bin=10.0, n_bins=2000)
        assert grid.centers_hz[-1] > sr / 2.0
        with pytest.raises(ValueError):
            to_log_frequency(self._mag(values), grid)

    def test_log_spectrogram_rejects_wrong_width(self):
        grid = LogFrequencyGrid(h_low_hz=30.0, cents_per_bin=10.0, n_bins=4)
        with pytest.raises(ValueError):
            LogSpectrogram(values=np.zeros((2, 5)), grid=grid, hop_seconds=0.01)
        with pytest.raises(ValueError):
            LogSpectrogram(values=np.zeros(4), grid=grid, hop_seconds=0.01)

    def test_hop_carried_through(self):
        sr, window = 16000, 2048
        values = np.ones((2, window // 2 + 1))
        grid = LogFrequencyGrid.for_nyquist(sr / 2.0)
        log_spec = to_log_frequency(self._mag(values), grid)
        assert log_spec.hop_seconds == pytest.approx(160 / sr)
        assert log_spec.n_frames == 2
