"""Low-rank + sparse matrix decomposition by inexact augmented Lagrangian."""

import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import vocsep.rpca as rpca_mod
import vocsep.spectrogram as spectrogram_mod
from vocsep.report import trace_to_csv
from vocsep.rpca import _svt_with_rank, decompose
from vocsep.spectrogram import magnitude, stft
from vocsep.synth import make_clip


def _planted(rng, shape=(40, 40), rank=2, sparse_frac=0.05, magnitude=10.0):
    """Low-rank plus sparse matrix with known parts."""
    u = rng.standard_normal((shape[0], rank))
    v = rng.standard_normal((rank, shape[1]))
    low = u @ v
    sparse = np.zeros(shape)
    n_spikes = int(sparse_frac * low.size)
    idx = rng.choice(low.size, size=n_spikes, replace=False)
    sparse.flat[idx] = magnitude * rng.choice([-1.0, 1.0], size=n_spikes)
    return low, sparse


def _reference_svt(values, threshold):
    """SVT by its definition: full SVD, shrink every singular value."""
    u, s, vt = np.linalg.svd(values, full_matrices=False)
    shrunk = np.maximum(s - threshold, 0.0)
    return (u * shrunk) @ vt


def _soft_threshold(values, threshold):
    """Entrywise shrinkage by its definition: sign(v) * max(|v| - t, 0)."""
    return np.sign(values) * np.maximum(np.abs(values) - threshold, 0.0)


def _reference_decompose(x, lam=1.0):
    """The inexact ALM iteration with a full SVD at every step and the
    spectral norm from np.linalg.norm; returns (low_rank, iterations).
    The mu schedule (1.25 / ||X||_2, growth 1.5, cap 1e7), tolerance
    (1e-7) and iteration cap (1000) are written out here rather than
    read from the solver module."""
    lam_hat = lam / np.sqrt(max(x.shape))
    x_fro = np.linalg.norm(x)
    norm_two = np.linalg.norm(x, 2)
    y = x / max(norm_two, np.abs(x).max() / lam_hat)
    s = np.zeros_like(x)
    mu = 1.25 / norm_two
    mu_limit = mu * 1e7
    for iterations in range(1, 1001):
        low_rank = _reference_svt(x - s + y / mu, 1.0 / mu)
        s = _soft_threshold(x - low_rank + y / mu, lam_hat / mu)
        gap = x - low_rank - s
        y = y + mu * gap
        mu = min(mu * 1.5, mu_limit)
        if np.linalg.norm(gap) / x_fro < 1e-7:
            break
    return low_rank, iterations


def _allocating_decompose(x, lam, max_iterations):
    """The solver loop as it was before it worked in preallocated
    buffers: fresh arrays every iteration, y/mu computed twice and
    _soft_threshold for the shrinkage. Same SVT, mu schedule and
    tolerance as the solver; returns (low_rank, sparse, trace)."""
    lam_hat = lam / np.sqrt(max(x.shape))
    x_fro = np.linalg.norm(x)
    a = x.T if x.shape[0] > x.shape[1] else x
    norm_two = np.sqrt(np.linalg.eigvalsh(a @ a.T)[-1])
    y = x / max(norm_two, np.abs(x).max() / lam_hat)
    s = np.zeros_like(x)
    mu = 1.25 / norm_two
    mu_limit = mu * 1e7
    trace = []
    for iterations in range(1, max_iterations + 1):
        low_rank, rank = _svt_with_rank(x - s + y / mu, 1.0 / mu)
        s = _soft_threshold(x - low_rank + y / mu, lam_hat / mu)
        gap = x - low_rank - s
        y = y + mu * gap
        residual = np.linalg.norm(gap) / x_fro
        trace.append((iterations, residual, rank, int(np.count_nonzero(s))))
        mu = min(mu * 1.5, mu_limit)
        if residual < 1e-7:
            break
    return low_rank, s, tuple(trace)


def _four_buffer_decompose(x, lam):
    """The solver loop as it was before it clipped a block of rows at a
    time: four full work buffers (the argument, the sparse part, the
    scaled dual g and the low-rank product) and one whole-array clip
    per iteration. Same SVT, mu schedule and tolerance as the solver;
    returns (low_rank, sparse, iterations, trace)."""
    lam_hat = lam / np.sqrt(max(x.shape))
    x_fro = np.linalg.norm(x)
    a, tall = rpca_mod._short_side(x)
    norm_two = np.sqrt(np.linalg.eigvalsh(a @ a.T)[-1])
    mu = rpca_mod.MU_INITIAL_SCALE / norm_two
    mu_limit = mu * rpca_mod.MU_CAP
    g = x / max(norm_two, np.abs(x).max() / lam_hat)
    g /= mu
    s = np.zeros_like(x)
    arg = np.empty_like(x)
    low_rank = np.empty(a.shape)
    if tall:
        low_rank = low_rank.T
    trace = []
    for iterations in range(1, rpca_mod.MAX_ITERATIONS + 1):
        np.subtract(x, s, out=arg)
        arg += g
        _, rank = _svt_with_rank(arg, 1.0 / mu, out=low_rank)
        np.subtract(x, low_rank, out=arg)
        arg += g
        t = lam_hat / mu
        np.clip(arg, -t, t, out=s)
        arg -= s
        np.subtract(s, g, out=g)
        residual = np.linalg.norm(g) / x_fro
        mu_next = min(mu * rpca_mod.MU_GROWTH, mu_limit)
        np.multiply(s, mu / mu_next, out=g)
        s, arg = arg, s
        trace.append((iterations, residual, rank, int(np.count_nonzero(s.view(np.int64)))))
        mu = mu_next
        if residual < rpca_mod.TOLERANCE:
            break
    return low_rank, s, iterations, tuple(trace)


def _clip_magnitude(sample_rate):
    window, hop = (2048, 160) if sample_rate == 16000 else (4096, 441)
    clip = make_clip(duration_seconds=1.0, sample_rate=sample_rate, hop_size=hop, seed=7)
    return magnitude(stft(clip.mixture, window, hop)).values


@pytest.fixture(scope="module", params=[16000, 44100])
def clip_solve(request):
    """The 1 s seed-7 clip's magnitude and its default solve."""
    x = _clip_magnitude(request.param)
    return x, decompose(x, 1.0)


@pytest.fixture(scope="module")
def planted_solve():
    """A planted low-rank plus sparse matrix and its uncapped solve."""
    low, sparse = _planted(np.random.default_rng(5))
    return low + sparse, decompose(low + sparse, 1.0)


class TestSoftThreshold:
    """The reference shrinkage that the solver is checked against."""

    def test_shrinks_above_threshold(self):
        assert _soft_threshold(np.array([5.0]), 2.0)[0] == 3.0

    def test_zeroes_below_threshold(self):
        assert _soft_threshold(np.array([-1.0]), 2.0)[0] == 0.0

    def test_matrix_case(self):
        x = np.array([[5.0, -1.0], [0.5, -4.0]])
        expected = np.array([[3.0, 0.0], [0.0, -2.0]])
        np.testing.assert_array_equal(_soft_threshold(x, 2.0), expected)

    def test_zero_threshold_is_identity(self, rng):
        x = rng.standard_normal((5, 5))
        np.testing.assert_array_equal(_soft_threshold(x, 0.0), x)

    @settings(max_examples=50, deadline=None)
    @given(
        x=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
            elements=st.floats(-100, 100),
        ),
        thr=st.floats(0, 50),
    )
    def test_property_shrinkage(self, x, thr):
        out = _soft_threshold(x, thr)
        # never increases magnitude, never flips sign, exact shrink law
        assert np.all(np.abs(out) <= np.abs(x) + 1e-12)
        assert np.all(out * x >= 0)
        np.testing.assert_allclose(out, np.sign(x) * np.maximum(np.abs(x) - thr, 0))


class TestSvt:
    """The solver's SVT, _svt_with_rank, against the full-SVD reference."""

    def test_diagonal_example(self):
        out, rank = _svt_with_rank(np.diag([3.0, 1.0]), 2.0)
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)
        assert rank == 1

    def test_known_singular_values(self, rng):
        # build a matrix with chosen singular values via orthonormal factors
        q1, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        q2, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        s = np.array([9.0, 5.0, 2.0, 1.0, 0.5, 0.1])
        x = q1 @ np.diag(s) @ q2.T
        out, rank = _svt_with_rank(x, 1.5)
        expected = q1 @ np.diag(np.maximum(s - 1.5, 0.0)) @ q2.T
        np.testing.assert_allclose(out, expected, atol=1e-10)
        assert rank == 3

    def test_threshold_above_spectrum_gives_zero(self, rng):
        x = rng.standard_normal((4, 4))
        smax = np.linalg.norm(x, 2)
        out, rank = _svt_with_rank(x, smax + 1.0)
        np.testing.assert_allclose(out, np.zeros((4, 4)), atol=1e-12)
        assert rank == 0

    def test_rank_reduction(self, rng):
        low, _ = _planted(rng, rank=3)
        out, _ = _svt_with_rank(low, 1e-6)
        assert np.linalg.matrix_rank(out, tol=1e-8) <= 3

    @pytest.mark.parametrize(
        "shape, rank",
        [
            ((12, 40), None),  # wide
            ((40, 12), None),  # tall
            ((25, 25), None),  # square
            ((1, 30), None),
            ((30, 1), None),
            ((20, 50), 3),  # rank-deficient
            ((50, 20), 3),
            ((25, 25), 4),
            ((10, 30), 0),
        ],
    )
    @pytest.mark.parametrize("fraction", [1.5, 1.0, 0.5, 1e-2, 1e-4, 1e-6, 1e-8])
    def test_matches_full_svd(self, rng, shape, rank, fraction):
        if rank is None:
            x = rng.standard_normal(shape)
        else:
            x = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
        threshold = fraction * (np.linalg.norm(x, 2) if rank != 0 else 1.0)
        out, _ = _svt_with_rank(x, threshold)
        assert out.shape == x.shape
        err = np.linalg.norm(out - _reference_svt(x, threshold))
        assert err <= 1e-10 * max(np.linalg.norm(x), 1.0)

    @pytest.mark.parametrize("tall", [False, True])
    def test_preallocated_product_bitwise_equal(self, tall):
        x = _clip_magnitude(16000)
        if tall:
            x = np.ascontiguousarray(x.T)
        threshold = 1e-3 * np.linalg.norm(x, 2)
        expected, rank = _svt_with_rank(x, threshold)
        # laid out as decompose allocates it: C-contiguous on the short side
        out = np.empty(x.shape[::-1]).T if tall else np.empty(x.shape)
        got, got_rank = _svt_with_rank(x, threshold, out=out)
        assert got_rank == rank > 0
        assert np.shares_memory(got, out)
        assert np.array_equal(out, expected)


class TestDecompose:
    def test_planted_recovery(self, rng):
        low, sparse = _planted(rng)
        result = decompose(low + sparse, 1.0)
        assert result.converged
        rel = np.linalg.norm(result.low_rank - low) / np.linalg.norm(low)
        assert rel < 1e-5

    def test_additivity_within_tolerance(self, rng):
        low, sparse = _planted(rng, shape=(30, 50))
        x = low + sparse
        result = decompose(x, 1.0)
        assert result.converged
        gap = np.linalg.norm(x - result.low_rank - result.sparse)
        assert gap <= 1e-7 * np.linalg.norm(x)

    def test_zero_matrix_short_circuits(self):
        result = decompose(np.zeros((8, 8)), 1.0)
        assert result.iterations == 0
        assert result.converged
        assert np.all(result.low_rank == 0)
        assert np.all(result.sparse == 0)
        assert result.final_residual == 0.0

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            decompose(np.zeros(8), 1.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            decompose(np.zeros((0, 4)), 1.0)

    def test_rejects_nan(self):
        x = np.zeros((4, 4))
        x[0, 0] = np.nan
        with pytest.raises(ValueError):
            decompose(x, 1.0)

    def test_nonconvergence_warns(self, rng, caplog, monkeypatch):
        monkeypatch.setattr(rpca_mod, "MAX_ITERATIONS", 1)
        low, sparse = _planted(rng)
        with caplog.at_level(logging.WARNING, logger="vocsep.rpca"):
            result = decompose(low + sparse, 1.0)
        assert not result.converged
        assert result.iterations == 1
        assert any(r.levelno >= logging.WARNING for r in caplog.records)

    # the planted solve converges at iteration 20, so every cap drawn
    # here stops it early
    @settings(max_examples=8, deadline=None)
    @given(cap=st.integers(min_value=1, max_value=19))
    @example(cap=1)
    @example(cap=19)
    def test_iteration_cap_is_read_at_call_time(self, planted_solve, cap):
        x, full = planted_solve
        assert full.converged and full.iterations > cap
        with mock.patch.object(rpca_mod, "MAX_ITERATIONS", cap):
            capped = decompose(x, 1.0)
        assert capped.iterations == cap
        assert not capped.converged
        assert capped.trace == full.trace[:cap]

    def test_trace_rows(self, rng, monkeypatch):
        monkeypatch.setattr(rpca_mod, "MAX_ITERATIONS", 20)
        low, sparse = _planted(rng)
        result = decompose(low + sparse, 1.0)
        assert len(result.trace) == result.iterations
        iters, residuals, ranks, nnzs = zip(*result.trace)
        assert list(iters) == list(range(1, result.iterations + 1))
        assert all(r >= 0 for r in residuals)
        assert all(isinstance(k, int) and k >= 0 for k in ranks)

    def test_residual_monotone_at_the_end(self, rng):
        low, sparse = _planted(rng)
        result = decompose(low + sparse, 1.0)
        assert result.converged
        residuals = [row[1] for row in result.trace]
        tail = residuals[-10:]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(tail, tail[1:]))

    def test_larger_lambda_means_sparser(self, rng):
        low, sparse = _planted(rng)
        x = low + sparse
        loose = decompose(x, 0.6)
        tight = decompose(x, 1.2)
        nnz = lambda r: int(np.sum(np.abs(r.sparse) > 1e-8))
        assert nnz(tight) <= nnz(loose)

    def test_matches_full_svd_path_on_a_44k_spectrogram(self):
        clip = make_clip(duration_seconds=1.0, sample_rate=44100, hop_size=441, seed=7)
        x = magnitude(stft(clip.mixture, 4096, 441)).values
        result = decompose(x, 1.0)
        low_rank, iterations = _reference_decompose(x)
        assert result.converged
        assert result.iterations == iterations
        rel = np.linalg.norm(result.low_rank - low_rank) / np.linalg.norm(low_rank)
        assert rel < 1e-6

    @pytest.mark.parametrize(
        "sample_rate, lam, tall, max_iterations",
        [
            (16000, 0.8, False, 1000),
            (16000, 1.0, False, 1000),
            (44100, 0.8, False, 1000),
            (44100, 1.0, False, 1000),
            (16000, 1.0, True, 1000),  # the transposed (bins, frames) matrix
            (16000, 1.0, False, 3),  # cut off before it converges
        ],
    )
    def test_bitwise_equal_to_allocating_loop(
        self, sample_rate, lam, tall, max_iterations, monkeypatch
    ):
        """Against the loop that allocates fresh arrays and carries the
        dual Y. The solver carries Y / mu and takes the new dual and the
        gap from the shrinkage's clip: identities that are exact in real
        arithmetic but round differently, so the two agree to a
        tolerance, with the same iterations and ranks."""
        x = _clip_magnitude(sample_rate)
        if tall:
            x = np.ascontiguousarray(x.T)
        monkeypatch.setattr(rpca_mod, "MAX_ITERATIONS", max_iterations)
        result = decompose(x, lam)
        low_rank, sparse, trace = _allocating_decompose(x, lam, max_iterations)
        assert result.converged == (max_iterations > 3)
        # columns: iteration, residual, rank estimate, nnz
        got, ref = np.array(result.trace), np.array(trace)
        assert got.shape == ref.shape
        assert np.array_equal(got[:, [0, 2]], ref[:, [0, 2]])
        np.testing.assert_allclose(got[:, 1], ref[:, 1], rtol=1e-3, atol=0)
        assert np.abs(got[:, 3] - ref[:, 3]).max() <= 10
        for got, expected in ((result.low_rank, low_rank), (result.sparse, sparse)):
            assert np.linalg.norm(got - expected) <= 1e-8 * np.linalg.norm(expected)

    @pytest.mark.parametrize("tall", [False, True], ids=["wide", "tall"])
    def test_blocks_bitwise_equal_to_four_buffer_loop(self, tall, monkeypatch):
        x = _clip_magnitude(16000)
        if tall:
            x = np.ascontiguousarray(x.T)
        low_rank, sparse, iterations, trace = _four_buffer_decompose(x, 1.0)
        for block in (1, 7, 16, x.shape[0]):
            monkeypatch.setattr(spectrogram_mod, "BLOCK_FRAMES", block)
            result = decompose(x, 1.0)
            assert np.array_equal(result.low_rank, low_rank)
            assert np.array_equal(result.sparse.view(np.int64), sparse.view(np.int64))
            assert result.iterations == iterations
            assert result.trace == trace
        assert not np.signbit(result.sparse[result.sparse == 0]).any()

    def test_sparse_holds_no_negative_zero(self, clip_solve):
        _, result = clip_solve
        zeros = result.sparse == 0
        assert zeros.any()
        assert not np.signbit(result.sparse[zeros]).any()

    def test_last_trace_nnz_counts_the_sparse_part(self, clip_solve):
        _, result = clip_solve
        assert result.trace[-1][3] == np.count_nonzero(result.sparse)

    @settings(max_examples=6, deadline=None)
    @given(k=st.integers(min_value=-40, max_value=40))
    @example(k=-40)
    @example(k=40)
    def test_power_of_two_scaling_is_exact(self, clip_solve, k):
        x, result = clip_solve
        scaled = decompose(2.0**k * x, 1.0)
        assert scaled.trace == result.trace
        assert np.array_equal(scaled.low_rank, 2.0**k * result.low_rank)
        assert np.array_equal(scaled.sparse, 2.0**k * result.sparse)

    def test_solves_share_no_memory(self):
        x = _clip_magnitude(16000)
        a, b = decompose(x, 1.0), decompose(x, 1.0)
        for first in (a.low_rank, a.sparse):
            for second in (b.low_rank, b.sparse, x):
                assert not np.shares_memory(first, second)

    def test_deterministic(self, rng):
        x = rng.standard_normal((20, 20))
        a = decompose(x, 1.0)
        b = decompose(x, 1.0)
        np.testing.assert_array_equal(a.low_rank, b.low_rank)
        np.testing.assert_array_equal(a.sparse, b.sparse)


class TestTraceCsv:
    def test_header_and_rows(self, rng, tmp_path, monkeypatch):
        monkeypatch.setattr(rpca_mod, "MAX_ITERATIONS", 15)
        low, sparse = _planted(rng)
        result = decompose(low + sparse, 1.0)
        path = tmp_path / "trace.csv"
        trace_to_csv(result, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",") == ["iteration", "residual", "rank_estimate", "nnz"]
        assert len(lines) == 1 + len(result.trace)


class TestRpcaConfig:
    """The solver's settings: the lam argument and the module constants."""

    @pytest.mark.parametrize("kwargs", [{"lam": 0.0}, {"lam": -1.0}])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError, match="lam must be positive"):
            decompose(np.ones((4, 4)), **kwargs)

    def test_defaults(self):
        assert rpca_mod.TOLERANCE == 1e-7
        assert rpca_mod.MAX_ITERATIONS == 1000
        assert (rpca_mod.MU_INITIAL_SCALE, rpca_mod.MU_GROWTH, rpca_mod.MU_CAP) == (1.25, 1.5, 1e7)
