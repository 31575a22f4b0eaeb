"""Low-rank + sparse matrix decomposition via inexact augmented Lagrangian.

Splits a nonnegative spectrogram X into X_L (low rank, repeating
structure) and X_S (sparse residual) by minimizing
``||X_L||_* + (lam/sqrt(max(T, F))) * ||X_S||_1`` subject to
``X_L + X_S = X``. The solver is the standard inexact ALM iteration:
alternate singular-value thresholding on X_L and entrywise soft
thresholding on X_S while ramping the penalty mu.

Singular-value thresholding (SVT) never forms a full SVD. It takes the
eigendecomposition of the Gram matrix of the short side (``A A^T`` with
A the matrix or its transpose, whichever has fewer rows), keeps the
eigen-directions whose singular value ``sqrt(eigenvalue)`` exceeds the
threshold, and applies the shrinkage as a scaled projector
``U_k diag(1 - t/s_k) U_k^T A``. For a (frames, bins) spectrogram the
short side is the frame count, so each iteration costs one small
symmetric eigensolve and two thin matrix products. The spectral norm
that seeds mu comes from the same Gram matrix.

The loop carries the scaled dual ``G = Y / mu`` instead of Y. With
``arg = X - L' + G`` and the shrinkage ``S' = arg - clip(arg, -t, t)``
(t = lam_hat / mu), the dual update ``Y' = Y + mu (X - L' - S')`` is
exactly ``mu * clip(arg, -t, t)``, and the constraint gap
``X - L' - S'`` is ``clip(arg, -t, t) - G``. So the clip gives the
sparse part, the gap and the next dual. The loop keeps three work
buffers beside X: the sparse part, which also holds the SVT argument
and then the shrinkage argument; G; and the low-rank product that SVT
writes in place. After the SVT it forms the shrinkage argument (two
full-array passes, as for the SVT argument) and then clips it one
block of BLOCK_FRAMES rows at a time, twice: the first pass writes the
gap into G, whose norm is then the residual, and the second writes the
next G and the new sparse part. So an iteration makes ten full-array
passes besides the SVT (two to form each argument, the clip twice, the
gap, its norm, the shrinkage and the rescaled dual), and no clip is
held whole.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .spectrogram import row_blocks

logger = logging.getLogger(__name__)

__all__ = ["RpcaResult", "decompose"]

# Penalty schedule: mu0 = MU_INITIAL_SCALE / ||X||_2, multiplied by
# MU_GROWTH each iteration and capped at mu0 * MU_CAP.
MU_INITIAL_SCALE = 1.25
MU_GROWTH = 1.5
MU_CAP = 1e7
# The solve stops once the relative constraint gap falls below TOLERANCE,
# or after MAX_ITERATIONS iterations without converging.
TOLERANCE = 1e-7
MAX_ITERATIONS = 1000


@dataclass(frozen=True)
class RpcaResult:
    """Decomposition output. low_rank + sparse approximates the input to
    within final_residual (relative Frobenius norm of the constraint gap).

    trace holds one (iteration, residual, rank_estimate, nnz) row per
    iteration, so iterations and final_residual are read from it: its
    length and its last residual, or 0 and 0.0 for the empty trace of
    an all-zero input. rank_estimate counts the short-side Gram
    eigen-directions whose singular value exceeds the SVT threshold; a
    singular value within rounding of the threshold can make it differ
    by one from a count taken on a full SVD.
    """

    low_rank: np.ndarray
    sparse: np.ndarray
    converged: bool
    trace: tuple = ()

    @property
    def iterations(self) -> int:
        return len(self.trace)

    @property
    def final_residual(self) -> float:
        return float(self.trace[-1][1]) if self.trace else 0.0


def _short_side(values):
    """values oriented so its rows are the shorter side, and whether it
    had to be transposed for that."""
    tall = values.shape[0] > values.shape[1]
    return (values.T if tall else values), tall


def _svt_with_rank(values, threshold, out=None):
    """SVT of values and the number of singular values kept.

    The product is written into out when given: an array of values'
    shape whose short-side orientation (see _short_side) is
    C-contiguous, as decompose allocates it. Either way the result is
    bitwise that of the allocating product.
    """
    # With A = U S V^T, A A^T = U S^2 U^T, and the shrunk matrix
    # U (S - t) V^T equals U diag(1 - t/s) U^T A on the directions with
    # s > t, so V is never needed.
    a, tall = _short_side(values)
    w, u = np.linalg.eigh(a @ a.T)
    s = np.sqrt(np.maximum(w, 0.0))
    keep = s > threshold
    rank = int(np.count_nonzero(keep))
    u_k = u[:, keep]
    product = np.empty(a.shape) if out is None else _short_side(out)[0]
    np.matmul(u_k * (1.0 - threshold / s[keep]), u_k.T @ a, out=product)
    return (product.T if tall else product), rank


def decompose(x, lam: float) -> RpcaResult:
    """Split a matrix into low-rank and sparse parts.

    Parameters
    ----------
    x : np.ndarray
        Real (frames, bins) matrix; NaN or Inf entries are rejected.
    lam : float
        Positive sparsity weight before the 1/sqrt(max(T, F)) size
        scaling.

    Returns
    -------
    RpcaResult
        Hitting MAX_ITERATIONS sets converged=False (with a logged
        warning) rather than raising.
    """
    if lam <= 0:
        raise ValueError("lam must be positive, got %r" % (lam,))
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.size == 0:
        raise ValueError("input must be a non-empty 2-d matrix, got shape %s" % (x.shape,))
    if not np.all(np.isfinite(x)):
        raise ValueError("input contains NaN or Inf")

    lam_hat = lam / np.sqrt(max(x.shape))
    x_fro = np.linalg.norm(x)
    if x_fro == 0.0:
        return RpcaResult(low_rank=np.zeros_like(x), sparse=np.zeros_like(x), converged=True)

    a, tall = _short_side(x)
    norm_two = np.sqrt(np.linalg.eigvalsh(a @ a.T)[-1])
    norm_inf = np.abs(x).max()
    mu = MU_INITIAL_SCALE / norm_two
    mu_limit = mu * MU_CAP
    # g holds the dual divided by mu
    g = x / max(norm_two, norm_inf / lam_hat)
    g /= mu
    s = np.zeros_like(x)
    # laid out so SVT can write its short-side product straight into it
    low_rank = np.empty(a.shape)
    if tall:
        low_rank = low_rank.T

    trace = []
    residual = np.inf
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        # s holds the SVT argument, then the shrinkage argument, then
        # the new sparse part
        np.subtract(x, s, out=s)
        s += g
        _, rank = _svt_with_rank(s, 1.0 / mu, out=low_rank)
        np.subtract(x, low_rank, out=s)
        s += g
        # the shrinkage sign(v) max(|v| - t, 0) as arg - clip(arg, -t, t);
        # a zero comes out as +0.0, since v - v is +0.0 for every finite v.
        # The gap is clip(arg) - g, and the new dual is mu * clip(arg), so
        # the new g is (mu / mu_next) * clip(arg): the gap goes into g
        # first, for its norm, and the clip is taken again for the rest
        t = lam_hat / mu
        for rows in row_blocks(x.shape[0]):
            np.subtract(np.clip(s[rows], -t, t), g[rows], out=g[rows])
        residual = np.linalg.norm(g) / x_fro
        mu_next = min(mu * MU_GROWTH, mu_limit)
        for rows in row_blocks(x.shape[0]):
            clipped = np.clip(s[rows], -t, t)
            s[rows] -= clipped
            np.multiply(clipped, mu / mu_next, out=g[rows])
        # with no -0.0 in s, a zero bit pattern is exactly a zero value
        trace.append((iterations, residual, rank, int(np.count_nonzero(s.view(np.int64)))))
        mu = mu_next
        if residual < TOLERANCE:
            converged = True
            break

    if not converged:
        logger.warning(
            "low-rank/sparse solver stopped at %d iterations with residual %.3e "
            "(tolerance %.1e)", iterations, residual, TOLERANCE
        )
    return RpcaResult(low_rank=low_rank, sparse=s, converged=converged, trace=tuple(trace))
