"""Subharmonic summation, comb enhancement, and their blend."""

import hashlib
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import vocsep.spectrogram as spectrogram_mod
from vocsep.audio import AudioSignal
from vocsep.masks import TimeFrequencyMask
from vocsep.pipeline import PipelineConfig, estimate_f0
from vocsep.saliency import (
    SHS_DECAY,
    SaliencySpectrogram,
    combine,
    f0_enhancement,
    shs,
)
from vocsep.report import saliency_to_csv
from vocsep.spectrogram import (
    LogFrequencyGrid,
    LogSpectrogram,
    magnitude,
    stft,
    to_log_frequency,
)


def _grid(n_bins=200, cents_per_bin=10.0):
    return LogFrequencyGrid(h_low_hz=30.0, cents_per_bin=cents_per_bin, n_bins=n_bins)


def _logspec(values, grid):
    return LogSpectrogram(values=np.asarray(values, dtype=np.float64), grid=grid, hop_seconds=0.01)


def _saliency(values, grid):
    return SaliencySpectrogram(values=np.asarray(values, dtype=np.float64), grid=grid, hop_seconds=0.01)


def _whole_array_shs(logspec, n_partials):
    """Reference shs: the clamped copy and each shifted term over every
    frame at once."""
    clamped = np.maximum(logspec.values, 0.0)
    n_bins = clamped.shape[1]
    out = np.zeros_like(clamped)
    for n in range(1, n_partials + 1):
        shift = int(np.floor(1200.0 * np.log2(n) / logspec.grid.cents_per_bin))
        if shift >= n_bins:
            break
        out[:, : n_bins - shift] += SHS_DECAY ** (n - 1) * clamped[:, shift:]
    return out


class TestShs:
    def test_blocks_bitwise_equal_to_whole_array(self, block_test_frames, block_frames, rng):
        # 400 bins of 10 cents: partials 11 to 20 shift past the top
        grid = _grid(400)
        logspec = _logspec(rng.uniform(-200.0, 100.0, size=(block_test_frames, 400)), grid)
        expected = _whole_array_shs(logspec, 20)
        assert np.array_equal(shs(logspec, 20).values, expected)

    def test_single_spike_folds_one_octave_down(self):
        # one nonzero bin at j: the n=2 term lands 1200 cents lower,
        # which is 120 bins on a 10-cent grid, weighted by the decay
        grid = _grid(200)
        values = np.zeros((1, 200))
        values[0, 150] = 5.0
        out = shs(_logspec(values, grid), 2).values[0]
        assert out[150] == pytest.approx(5.0)
        assert out[30] == pytest.approx(0.86 * 5.0)
        remaining = np.delete(out, [30, 150])
        assert np.all(remaining == 0.0)

    def test_third_harmonic_shift_floors(self):
        # n=3: floor(1200*log2(3)/10) = floor(190.195) = 190 bins
        grid = _grid(400)
        values = np.zeros((1, 400))
        values[0, 300] = 1.0
        out = shs(_logspec(values, grid), 3).values[0]
        assert out[300 - 190] == pytest.approx(0.86**2)

    def test_single_partial_is_identity_on_nonneg(self, rng):
        grid = _grid(50)
        values = rng.uniform(0, 40, size=(3, 50))
        out = shs(_logspec(values, grid), 1).values
        np.testing.assert_array_equal(out, values)

    def test_negative_db_clamped_to_zero(self):
        grid = _grid(50)
        values = np.full((2, 50), -200.0)
        out = shs(_logspec(values, grid), 10).values
        assert np.all(out == 0.0)

    def test_shifts_past_grid_top_dropped(self):
        # on a 10-bin grid with 10-cent bins the octave shift is 120,
        # so every n >= 2 term falls off the top
        grid = _grid(10)
        values = np.arange(10, dtype=np.float64)[None, :]
        out = shs(_logspec(values, grid), 10).values
        np.testing.assert_array_equal(out, values)

    def test_linear_over_nonneg_inputs(self, rng):
        grid = _grid(150)
        a = rng.uniform(0, 30, size=(2, 150))
        b = rng.uniform(0, 30, size=(2, 150))
        out_sum = shs(_logspec(a + b, grid), 5).values
        np.testing.assert_allclose(
            out_sum,
            shs(_logspec(a, grid), 5).values + shs(_logspec(b, grid), 5).values,
            atol=1e-12,
        )

    @settings(max_examples=30, deadline=None)
    @given(
        values=hnp.arrays(np.float64, (2, 140), elements=st.floats(0, 60)),
        bump=st.integers(min_value=0, max_value=139),
    )
    def test_property_monotone_in_input(self, values, bump):
        grid = _grid(140)
        base = shs(_logspec(values, grid), 4).values
        raised = values.copy()
        raised[0, bump] += 10.0
        out = shs(_logspec(raised, grid), 4).values
        assert np.all(out >= base - 1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="n_partials must be >= 1"):
            shs(_logspec(np.zeros((1, 10)), _grid(10)), 0)

    def test_decay_constant(self):
        assert SHS_DECAY == 0.86


def _full_fft_enhancement(mask_values, grid, h_top_hz):
    """Reference comb enhancement on the full DFT of each row: the lags
    clamped to F-1, and the magnitudes read at them."""
    n_bins = mask_values.shape[1]
    lags = np.minimum(np.floor(h_top_hz / grid.centers_hz).astype(np.intp), n_bins - 1)
    return lags, np.abs(np.fft.fft(mask_values, axis=1))[:, lags]


def _whole_array_enhancement(mask_values, grid, h_top_hz):
    """Reference f0_enhancement: the half spectrum of every row in one
    rfft call, read at the lags clamped to F-1 and mirrored past F // 2."""
    n_bins = mask_values.shape[1]
    lags = np.minimum(np.floor(h_top_hz / grid.centers_hz).astype(np.intp), n_bins - 1)
    return np.abs(np.fft.rfft(mask_values, axis=1))[:, np.minimum(lags, n_bins - lags)]


class TestF0Enhancement:
    # h_top / 30 Hz puts the largest lags past F // 2, read from the mirror
    @pytest.mark.parametrize("n_bins,h_top", [(1025, 22050.0), (2049, 44100.0)])
    @pytest.mark.parametrize("block", [1, 7, spectrogram_mod.BLOCK_FRAMES, "all"])
    def test_blocks_bitwise_equal_to_whole_array(self, n_bins, h_top, block, rng, monkeypatch):
        # 53 frames: a partial last block at each block size
        n_frames = 3 * spectrogram_mod.BLOCK_FRAMES + 5
        grid = LogFrequencyGrid.for_nyquist(h_top)
        mask_values = (rng.uniform(size=(n_frames, n_bins)) > 0.6).astype(float)
        expected = _whole_array_enhancement(mask_values, grid, h_top)
        monkeypatch.setattr(spectrogram_mod, "BLOCK_FRAMES", n_frames if block == "all" else block)
        mask = TimeFrequencyMask(mask_values.astype(bool))
        out = f0_enhancement(mask, h_top_hz=h_top, hop_seconds=0.01).values
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("window", [256, 1024])
    def test_matches_full_fft_past_half_the_row(self, window, rng):
        n_bins, h_top = window // 2 + 1, 8000.0
        grid = LogFrequencyGrid.for_nyquist(h_top)
        mask_values = (rng.uniform(size=(12, n_bins)) > 0.6).astype(float)
        lags, expected = _full_fft_enhancement(mask_values, grid, h_top)
        assert lags.max() > n_bins // 2
        mask = TimeFrequencyMask(mask_values.astype(bool))
        out = f0_enhancement(mask, h_top_hz=h_top, hop_seconds=0.01).values
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-9)
        # the row [1, 1, 0, ...] has |X[k]| = 2|cos(pi k / F)|, one value
        # per min(k, F - k), so each output names the lag it was read at
        probe = np.zeros((1, n_bins))
        probe[0, :2] = 1.0
        read = f0_enhancement(
            TimeFrequencyMask(probe.astype(bool)), h_top_hz=h_top, hop_seconds=0.01
        ).values[0]
        table = np.abs(np.fft.fft(probe[0]))[: n_bins // 2 + 1]
        read_lags = np.abs(table[None, :] - read[:, None]).argmin(axis=1)
        assert np.array_equal(read_lags, np.minimum(lags, n_bins - lags))

    def test_matches_brute_force_dft(self, rng):
        n_bins = 64
        grid = LogFrequencyGrid.for_nyquist(8000.0)
        mask_values = (rng.uniform(size=(3, n_bins)) > 0.6).astype(float)
        mask = TimeFrequencyMask(mask_values.astype(bool))
        out = f0_enhancement(mask, h_top_hz=8000.0, hop_seconds=0.01).values
        for t in range(3):
            row = mask_values[t]
            spectrum = [
                abs(sum(row[f] * np.exp(-2j * np.pi * k * f / n_bins) for f in range(n_bins)))
                for k in range(n_bins)
            ]
            for c, center in enumerate(grid.centers_hz):
                lag = min(int(np.floor(8000.0 / center)), n_bins - 1)
                assert out[t, c] == pytest.approx(spectrum[lag], abs=1e-9)

    def test_comb_mask_peaks_at_its_period(self):
        # 1s every P bins make |DFT| peak at lag n_bins/P; the grid bin
        # whose lag equals that spacing scores highest
        n_bins = 240
        period = 12
        row = np.zeros(n_bins)
        row[::period] = 1.0
        mask = TimeFrequencyMask(row[None, :].astype(bool))
        grid = LogFrequencyGrid.for_nyquist(8000.0)
        out = f0_enhancement(mask, h_top_hz=8000.0, hop_seconds=0.01).values[0]
        lags = np.floor(8000.0 / grid.centers_hz).astype(int)
        peak_lag_set = {n_bins // period * m for m in range(1, period)}
        best = np.argmax(out)
        assert lags[best] in peak_lag_set

    def test_all_zero_row_scores_zero(self):
        mask = TimeFrequencyMask(np.zeros((1, 32), dtype=bool))
        out = f0_enhancement(mask, h_top_hz=8000.0, hop_seconds=0.01).values
        assert np.all(out == 0.0)

    def test_all_ones_row_concentrates_at_dc(self):
        n_bins = 32
        mask = TimeFrequencyMask(np.ones((1, n_bins), dtype=bool))
        grid = LogFrequencyGrid.for_nyquist(8000.0)
        out = f0_enhancement(mask, h_top_hz=8000.0, hop_seconds=0.01).values[0]
        lags = np.minimum(np.floor(8000.0 / grid.centers_hz).astype(int), n_bins - 1)
        np.testing.assert_allclose(out, np.where(lags == 0, n_bins, 0.0), atol=1e-9)

    def test_lag_clamp_warns(self, caplog):
        # grid origin 30 Hz with h_top 8000 wants lag 266 but the mask
        # row only has 16 samples
        mask = TimeFrequencyMask(np.ones((1, 16), dtype=bool))
        with caplog.at_level(logging.WARNING, logger="vocsep.saliency"):
            out = f0_enhancement(mask, h_top_hz=8000.0, hop_seconds=0.01)
        assert out.values.shape == (1, LogFrequencyGrid.for_nyquist(8000.0).n_bins)
        assert any("clamp" in r.message.lower() for r in caplog.records)

    def test_soft_mask_rejected(self):
        # 0/1 floats make a soft mask too: only bool values are binary
        for values in (np.full((1, 16), 0.5), np.ones((1, 16))):
            with pytest.raises(ValueError, match="bool"):
                f0_enhancement(
                    TimeFrequencyMask(values), h_top_hz=8000.0, hop_seconds=0.01
                )

    def test_bad_scalars_rejected(self):
        mask = TimeFrequencyMask(np.ones((1, 16), dtype=bool))
        with pytest.raises(ValueError):
            f0_enhancement(mask, h_top_hz=0.0, hop_seconds=0.01)
        with pytest.raises(ValueError):
            f0_enhancement(mask, h_top_hz=8000.0, hop_seconds=0.0)


class TestCombine:
    def test_alpha_zero_is_bit_identical_to_summation(self, rng):
        grid = _grid(60)
        summation = _saliency(rng.uniform(0, 50, size=(4, 60)), grid)
        enhancement = _saliency(rng.uniform(0, 9, size=(4, 60)), grid)
        out = combine(summation, enhancement, alpha=0.0)
        assert np.array_equal(out.values, summation.values)

    def test_alpha_zero_treats_zero_enhancement_as_one(self):
        grid = _grid(4)
        summation = _saliency([[1.0, 2.0, 3.0, 4.0]], grid)
        enhancement = _saliency([[0.0, 0.0, 0.0, 0.0]], grid)
        out = combine(summation, enhancement, alpha=0.0)
        np.testing.assert_array_equal(out.values, summation.values)

    def test_alpha_one_is_product(self, rng):
        grid = _grid(60)
        a = rng.uniform(0, 50, size=(2, 60))
        b = rng.uniform(0, 9, size=(2, 60))
        out = combine(_saliency(a, grid), _saliency(b, grid), alpha=1.0)
        np.testing.assert_allclose(out.values, a * b)

    def test_fractional_alpha(self):
        grid = _grid(1)
        out = combine(_saliency([[3.0]], grid), _saliency([[4.0]], grid), alpha=0.5)
        assert out.values[0, 0] == pytest.approx(3.0 * 2.0)

    def test_negative_alpha_rejected(self):
        grid = _grid(2)
        s = _saliency([[1.0, 1.0]], grid)
        with pytest.raises(ValueError):
            combine(s, s, alpha=-0.1)

    def test_shape_mismatch_rejected(self):
        grid = _grid(2)
        a = _saliency([[1.0, 1.0]], grid)
        b = _saliency([[1.0, 1.0], [1.0, 1.0]], grid)
        with pytest.raises(ValueError):
            combine(a, b, alpha=1.0)

    def test_grid_mismatch_rejected(self):
        a = _saliency([[1.0, 1.0]], _grid(2, cents_per_bin=10.0))
        b = _saliency([[1.0, 1.0]], _grid(2, cents_per_bin=20.0))
        with pytest.raises(ValueError):
            combine(a, b, alpha=1.0)


class TestSaliencyValidation:
    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            _saliency([[-1.0, 0.0]], _grid(2))

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            _saliency([[1.0, 2.0, 3.0]], _grid(2))

    @pytest.mark.parametrize("build", [_logspec, _saliency], ids=["log", "saliency"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite(self, build, bad):
        with pytest.raises(ValueError, match="finite"):
            build([[1.0, bad]], _grid(2))


class TestSaliencyCsv:
    def test_header_is_grid_centers(self, tmp_path, rng):
        grid = _grid(5)
        s = _saliency(rng.uniform(0, 1, size=(2, 5)), grid)
        path = tmp_path / "s.csv"
        saliency_to_csv(s, path)
        lines = path.read_text().strip().splitlines()
        header = [float(x) for x in lines[0].split(",")]
        np.testing.assert_allclose(header, grid.centers_hz, atol=1e-6)
        assert len(lines) == 3


# SHA-256 of the header row (the grid centres in Hz) of the saliency.csv
# that estimate_f0 dumps for a 4096-sample clip at each rate. The stages
# build their grids from the Nyquist rate, and the dump keeps these bytes.
SALIENCY_HEADER_SHA256 = {
    8000: "d82fd7272a523237e4876764d2c55c9e7f17f7b58bedfbdb12fbefaaa5ce3843",
    16000: "311b5df43258c16c8916c3fc12613ae6f8932049446d9d00a92c9b4d4ba5266c",
    22050: "f08913124f5be706f303bde929ab58a426d1426dc171a04f03c558e5da76ea0a",
    44100: "cb1b1de5bdf3023d55961fc42d425e0416bdf3f3e9b08fa415aff7461d044361",
    48000: "b9ac98902b37a81253fd99cde7e664a3c88e24c0f114a0e1ad40f71d5a895c57",
}


@pytest.mark.parametrize("sample_rate", sorted(SALIENCY_HEADER_SHA256))
def test_stages_build_the_nyquist_grid(sample_rate, rng, tmp_path):
    signal = AudioSignal(rng.standard_normal(4096), sample_rate)
    cfg = PipelineConfig.for_sample_rate(sample_rate)
    mag = magnitude(stft(signal, cfg.window_size, cfg.hop_size))
    grid = LogFrequencyGrid.for_nyquist(sample_rate / 2.0)
    assert to_log_frequency(mag).grid == grid
    mask = TimeFrequencyMask(mag.values > np.median(mag.values))
    assert f0_enhancement(mask, mag.nyquist_hz, mag.hop_seconds).grid == grid
    estimate_f0(signal, cfg, dump_dir=tmp_path)
    header = (tmp_path / "saliency.csv").read_bytes().split(b"\n", 1)[0]
    assert header.count(b",") + 1 == grid.n_bins
    assert hashlib.sha256(header).hexdigest() == SALIENCY_HEADER_SHA256[sample_rate]
