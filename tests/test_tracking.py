"""Contour container, path search, and contour IO."""

import itertools
import math

import numpy as np
import pytest

import vocsep.spectrogram as spectrogram_mod
from vocsep.saliency import SaliencySpectrogram
from vocsep.spectrogram import LogFrequencyGrid
from vocsep.tracking import (
    ALIGNMENT_TICK_SECONDS,
    CENTS_REFERENCE_HZ,
    F0_MAX_HZ,
    F0_MIN_HZ,
    SALIENCY_FLOOR,
    TRANSITION_SCALE_CENTS,
    F0Contour,
    _best_transition,
    read_f0_csv,
    viterbi,
    voiced_contour,
    write_f0_csv,
)


def _in_range_grid(n_bins=6, cents_per_bin=100.0):
    """Grid whose bins all sit inside the default 80-720 Hz search range."""
    return LogFrequencyGrid(h_low_hz=100.0, cents_per_bin=cents_per_bin, n_bins=n_bins)


def _saliency(values, grid, hop=0.01):
    return SaliencySpectrogram(
        values=np.asarray(values, dtype=np.float64), grid=grid, hop_seconds=hop
    )


def _brute_force_bins(values, cents_per_bin):
    """Exhaustive best path, lexicographically smallest among ties."""
    shifted = values + SALIENCY_FLOOR
    em = np.log(shifted) - np.log(shifted.sum(axis=1, keepdims=True))
    n_frames, n_bins = em.shape
    b = TRANSITION_SCALE_CENTS
    log_norm = -math.log(2.0 * b)
    best_score, best_path = -np.inf, None
    for path in itertools.product(range(n_bins), repeat=n_frames):
        score = em[0, path[0]]
        for t in range(1, n_frames):
            d = abs(path[t] - path[t - 1]) * cents_per_bin
            score += log_norm - d / b + em[t, path[t]]
        if score > best_score:
            best_score, best_path = score, path
    return np.asarray(best_path)


def _quadratic_viterbi_f0(s, scale_cents=TRANSITION_SCALE_CENTS):
    """The tracker with its backward pass written as the O(bins^2) max
    over every transition, as it was before the distance transform, at
    transition scale scale_cents. Returns the f0 path, the backward
    scores and the log transitions."""
    centers = s.grid.centers_hz
    candidates = np.flatnonzero((centers >= F0_MIN_HZ) & (centers <= F0_MAX_HZ))
    lo = int(candidates[0])
    n_bins = int(candidates[-1]) - lo + 1
    shifted = s.values[:, lo : lo + n_bins] + SALIENCY_FLOOR
    em = np.log(shifted) - np.log(shifted.sum(axis=1, keepdims=True))
    n_frames = em.shape[0]
    offsets = np.arange(n_bins, dtype=np.float64)
    dist_cents = np.abs(offsets[:, None] - offsets[None, :]) * s.grid.cents_per_bin
    b = scale_cents
    log_g = -math.log(2.0 * b) - dist_cents / b
    best = np.empty_like(em)
    best[-1] = em[-1]
    for t in range(n_frames - 2, -1, -1):
        best[t] = em[t] + np.max(log_g + best[t + 1][None, :], axis=1)
    path = np.empty(n_frames, dtype=np.intp)
    path[0] = np.argmax(best[0])
    for t in range(1, n_frames):
        path[t] = np.argmax(log_g[path[t - 1]] + best[t])
    return centers[path + lo], best, log_g


def _saliency_case(kind, n_frames, n_bins, rng):
    """Test saliencies: random, quantised to a few levels (so
    scores tie exactly), or random/one-hot with some all-zero frames
    (flat frames make many paths tie up to rounding)."""
    if kind == "random":
        return rng.random((n_frames, n_bins))
    if kind == "quantised":
        return np.round(rng.random((n_frames, n_bins)) * 3.0) / 3.0
    if kind == "zero_frames":
        values = rng.random((n_frames, n_bins))
    else:  # one_hot
        values = np.zeros((n_frames, n_bins))
        values[np.arange(n_frames), rng.integers(0, n_bins, n_frames)] = 1.0
    values[rng.random(n_frames) < 0.3] = 0.0
    return values


SALIENCY_KINDS = ["random", "quantised", "zero_frames", "one_hot"]
# (cents_per_bin, transition scale in cents): the defaults, then other
# grids and scales
TRACKER_GEOMETRIES = [
    (10.0, TRANSITION_SCALE_CENTS),
    (7.5, 106.0),
    (100.0, 40.0),
    (10.0, 300.0),
]


class TestF0Contour:
    def test_voiced_requires_positive_f0(self):
        with pytest.raises(ValueError):
            F0Contour(
                f0_hz=np.array([0.0]),
                f0_cents=np.array([0.0]),
                voiced=np.array([True]),
                hop_seconds=0.01,
            )

    def test_unvoiced_requires_zero_f0(self):
        with pytest.raises(ValueError):
            F0Contour(
                f0_hz=np.array([100.0]),
                f0_cents=np.array([0.0]),
                voiced=np.array([False]),
                hop_seconds=0.01,
            )

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            F0Contour(
                f0_hz=np.array([100.0, 200.0]),
                f0_cents=np.array([0.0]),
                voiced=np.array([True, True]),
                hop_seconds=0.01,
            )
        with pytest.raises(ValueError, match="1-d"):
            F0Contour(
                f0_hz=np.array([[100.0]]),
                f0_cents=np.array([[0.0]]),
                voiced=np.array([[True]]),
                hop_seconds=0.01,
            )

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            voiced_contour([], 0.01)

    def test_rejects_nonpositive_hop(self):
        with pytest.raises(ValueError):
            voiced_contour([100.0], 0.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            voiced_contour([np.nan], 0.01)
        # a voiced inf passes the sign checks and fails the finite one
        with pytest.raises(ValueError, match="f0_hz must be finite"):
            F0Contour(
                f0_hz=np.array([np.inf]),
                f0_cents=np.array([0.0]),
                voiced=np.array([True]),
                hop_seconds=0.01,
            )

    def test_times_and_duration(self):
        contour = voiced_contour([100.0, 110.0, 0.0], 0.01)
        np.testing.assert_allclose(contour.times_seconds, [0.0, 0.01, 0.02])
        assert contour.duration_seconds == pytest.approx(0.03)
        np.testing.assert_array_equal(contour.voiced, [True, True, False])

    def test_cents_reference(self):
        contour = voiced_contour([CENTS_REFERENCE_HZ, 2 * CENTS_REFERENCE_HZ, 0.0], 0.01)
        np.testing.assert_allclose(contour.f0_cents, [0.0, 1200.0, 0.0], atol=1e-9)


class TestViterbi:
    def test_matches_exhaustive_enumeration(self):
        grid = _in_range_grid(n_bins=6)
        rng = np.random.default_rng(42)
        for _ in range(50):
            n_frames = int(rng.integers(1, 6))
            values = rng.uniform(0.0, 50.0, size=(n_frames, 6))
            contour = viterbi(_saliency(values, grid))
            expected = _brute_force_bins(values, grid.cents_per_bin)
            np.testing.assert_allclose(
                contour.f0_hz, grid.centers_hz[expected], rtol=1e-12
            )

    def test_single_frame_picks_argmax(self):
        grid = _in_range_grid()
        values = np.array([[1.0, 9.0, 2.0, 0.5, 0.1, 0.0]])
        contour = viterbi(_saliency(values, grid))
        assert contour.f0_hz[0] == pytest.approx(grid.centers_hz[1])

    def test_all_frames_voiced(self, rng):
        grid = _in_range_grid()
        contour = viterbi(_saliency(rng.uniform(0, 1, size=(8, 6)), grid))
        assert np.all(contour.voiced)
        assert contour.hop_seconds == 0.01

    def test_uniform_saliency_returns_lowest_bin(self):
        grid = _in_range_grid()
        contour = viterbi(_saliency(np.ones((4, 6)), grid))
        np.testing.assert_allclose(contour.f0_hz, np.full(4, grid.centers_hz[0]))

    def test_scaling_invariance(self, rng):
        grid = _in_range_grid()
        values = rng.uniform(0.5, 20.0, size=(7, 6))
        a = viterbi(_saliency(values, grid))
        b = viterbi(_saliency(values * 1000.0, grid))
        np.testing.assert_array_equal(a.f0_hz, b.f0_hz)

    def test_transitions_smooth_the_path(self):
        # frame 2's emission prefers a far bin, but the jump there and
        # back costs more than staying put
        grid = _in_range_grid(n_bins=6, cents_per_bin=400.0)
        values = np.full((3, 6), 1.0)
        values[:, 0] = 10.0
        values[1, 5] = 11.0
        contour = viterbi(_saliency(values, grid))
        np.testing.assert_allclose(contour.f0_hz, np.full(3, grid.centers_hz[0]))

    def test_candidates_restricted_to_search_range(self):
        # centers span 100..951 Hz; bins above F0_MAX_HZ never win even
        # with dominant saliency
        grid = LogFrequencyGrid(h_low_hz=100.0, cents_per_bin=300.0, n_bins=14)
        values = np.ones((5, 14))
        values[:, -1] = 1e6
        contour = viterbi(_saliency(values, grid))
        assert np.all(contour.f0_hz <= F0_MAX_HZ)

    def test_no_candidate_bins_is_an_error(self):
        grid = LogFrequencyGrid(h_low_hz=1000.0, cents_per_bin=100.0, n_bins=5)
        with pytest.raises(ValueError):
            viterbi(_saliency(np.ones((2, 5)), grid))

    @pytest.mark.parametrize("kind", SALIENCY_KINDS)
    @pytest.mark.parametrize("cents_per_bin, scale_cents", TRACKER_GEOMETRIES)
    def test_matches_quadratic_backward_pass(self, kind, cents_per_bin, scale_cents):
        # the full 80-720 Hz search range of a 16 kHz grid; the tracker
        # runs at TRANSITION_SCALE_CENTS, and _best_transition is
        # checked at every scale
        n_bins = int(math.floor(1200.0 * math.log2(8000.0 / 30.0) / cents_per_bin)) + 1
        grid = LogFrequencyGrid(n_bins=n_bins, h_low_hz=30.0, cents_per_bin=cents_per_bin)
        rng = np.random.default_rng(int(cents_per_bin * 10 + scale_cents))
        for _ in range(3):
            s = _saliency(_saliency_case(kind, 100, grid.n_bins, rng), grid)
            expected, best, log_g = _quadratic_viterbi_f0(s)
            np.testing.assert_array_equal(viterbi(s).f0_hz, expected)
            if scale_cents != TRANSITION_SCALE_CENTS:
                _, best, log_g = _quadratic_viterbi_f0(s, scale_cents)
            # the scores behind the path match too, bit for bit
            c0 = -math.log(2.0 * scale_cents)
            kj = (cents_per_bin / scale_cents) * np.arange(best.shape[1], dtype=np.float64)
            for following in best[1:]:
                np.testing.assert_array_equal(
                    _best_transition(following, log_g, kj, c0),
                    np.max(log_g + following[None, :], axis=1),
                )

    @pytest.mark.parametrize("block", [1, 7, spectrogram_mod.BLOCK_FRAMES, "all"])
    def test_flat_rows_match_whole_table(self, block, monkeypatch):
        # leading silence: all-zero frames leave exact plateaus in the
        # backward scores, so nearly every bin takes the fallback max,
        # a block of rows at a time
        grid = LogFrequencyGrid.for_nyquist(8000.0)
        values = np.random.default_rng(3).random((60, grid.n_bins))
        values[:25] = 0.0
        values[40:44] = 1.0
        s = _saliency(values, grid)
        expected, best, log_g = _quadratic_viterbi_f0(s)
        monkeypatch.setattr(
            spectrogram_mod, "BLOCK_FRAMES", best.shape[1] if block == "all" else block
        )
        np.testing.assert_array_equal(viterbi(s).f0_hz, expected)
        c0 = -math.log(2.0 * TRANSITION_SCALE_CENTS)
        kj = (grid.cents_per_bin / TRANSITION_SCALE_CENTS) * np.arange(
            best.shape[1], dtype=np.float64
        )
        for following in best[1:]:
            np.testing.assert_array_equal(
                _best_transition(following, log_g, kj, c0),
                np.max(log_g + following[None, :], axis=1),
            )

    def test_tracker_config_validation(self):
        # the tracker's settings are module constants
        assert (F0_MIN_HZ, F0_MAX_HZ) == (80.0, 720.0)
        assert TRANSITION_SCALE_CENTS == math.sqrt(150.0**2 / 2.0)
        assert SALIENCY_FLOOR == 1e-12


class TestF0Csv:
    def test_round_trip(self, tmp_path):
        contour = voiced_contour([200.0, 0.0, 220.5], 0.01)
        path = tmp_path / "f0.csv"
        write_f0_csv(contour, path)
        back = read_f0_csv(path)
        np.testing.assert_allclose(back.f0_hz, contour.f0_hz, atol=1e-6)
        np.testing.assert_array_equal(back.voiced, contour.voiced)
        assert back.hop_seconds == pytest.approx(0.01, abs=1e-9)

    def test_header_written_and_skipped(self, tmp_path):
        contour = voiced_contour([100.0], 0.01)
        path = tmp_path / "f0.csv"
        write_f0_csv(contour, path)
        first = path.read_text().splitlines()[0]
        assert first.split(",") == ["time_seconds", "f0_hz"]

    def test_negative_f0_clamps_to_unvoiced(self, tmp_path):
        path = tmp_path / "f0.csv"
        path.write_text("time_seconds,f0_hz\n0.00,-5.0\n0.01,200.0\n")
        back = read_f0_csv(path)
        np.testing.assert_array_equal(back.f0_hz, [0.0, 200.0])
        np.testing.assert_array_equal(back.voiced, [False, True])

    def test_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "f0.csv"
        path.write_text("time_seconds,f0_hz\n0.00,100.0\n\n ,\n0.01,200.0\n")
        back = read_f0_csv(path)
        np.testing.assert_array_equal(back.f0_hz, [100.0, 200.0])
        assert back.hop_seconds == pytest.approx(0.01)

    def test_single_row_uses_default_tick(self, tmp_path):
        path = tmp_path / "f0.csv"
        path.write_text("0.00,200.0\n")
        back = read_f0_csv(path)
        assert back.hop_seconds == ALIGNMENT_TICK_SECONDS
        assert back.n_frames == 1

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "f0.csv"
        path.write_text("time_seconds,f0_hz\n")
        with pytest.raises(ValueError):
            read_f0_csv(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "f0.csv"
        path.write_text("0.00\n")
        with pytest.raises(ValueError):
            read_f0_csv(path)

    def test_nonincreasing_times_rejected(self, tmp_path):
        path = tmp_path / "f0.csv"
        path.write_text("0.02,100.0\n0.01,100.0\n0.00,100.0\n")
        with pytest.raises(ValueError):
            read_f0_csv(path)

    def test_unparsable_row_after_the_header_names_its_line(self, tmp_path):
        # skipping the row as a header would put 203 Hz at 0.02 s, a frame early
        path = tmp_path / "f0.csv"
        path.write_text("0.00,200\n0.01,201\n0.02x,202\n0.03,203\nabc,300\n0.04,204\n")
        with pytest.raises(ValueError, match="line 3"):
            read_f0_csv(path)

    def test_header_allowed_on_the_first_line_only(self, tmp_path):
        path = tmp_path / "f0.csv"
        path.write_text("0.00,200\ntime_seconds,f0_hz\n0.01,201\n")
        with pytest.raises(ValueError, match="line 2"):
            read_f0_csv(path)

    def test_unparsable_f0_names_its_line(self, tmp_path):
        path = tmp_path / "f0.csv"
        path.write_text("time_seconds,f0_hz\n0.00,200\n0.01,n/a\n")
        with pytest.raises(ValueError, match="line 3"):
            read_f0_csv(path)

    @pytest.mark.parametrize("bad_time", ["0.015", "0.02"])
    def test_any_nonincreasing_step_rejected(self, tmp_path, bad_time):
        # the median step stays 10 ms, so only a per-step check catches these
        rows = ["0.00", "0.01", "0.02", bad_time, "0.03", "0.04", "0.05"]
        path = tmp_path / "f0.csv"
        path.write_text("".join("%s,200\n" % t for t in rows))
        with pytest.raises(ValueError, match="line 4"):
            read_f0_csv(path)
