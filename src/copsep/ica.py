"""Rotation estimation on whitened signals (fixed-point iteration with
symmetric decorrelation) and a rank-based mutual-information estimate.
"""
from __future__ import annotations

import numpy as np

from .copulas import normal_scores_correlation
from .exceptions import DegenerateDependenceError, NonConvergenceError
from .margins import PseudoObservations, pseudo_observations
from .signals import SignalMatrix

__all__ = ["fastica", "normalize_components", "mutual_information"]

# fastica's convergence threshold on max | |diag(W_new W^T)| - 1 |.
_TOL = 1e-6


def _sym_decorrelate(w: np.ndarray) -> np.ndarray:
    # W <- (W W^T)^{-1/2} W
    evals, evecs = np.linalg.eigh(w @ w.T)
    if evals[0] <= 1e-15 * evals[-1]:
        raise ValueError("iterate became numerically singular during decorrelation")
    return (evecs / np.sqrt(evals)) @ evecs.T @ w


def _check_whitened(z: SignalMatrix):
    centered = z.values - z.values.mean(axis=1, keepdims=True)
    cov = centered @ centered.T / (z.n_samples - 1)
    err = np.abs(cov - np.eye(z.n_channels)).max()
    if err > 1e-6:
        raise ValueError(f"input is not whitened: max |cov - I| = {err:.3e}")


def fastica(z: SignalMatrix, max_iter: int = 200, seed: int = 0):
    """Estimate an orthogonal rotation making the rows of ``z`` maximally
    non-Gaussian, via the fixed-point iteration with symmetric decorrelation
    and the tanh contrast derivative. Every iteration runs in two n x T
    work arrays allocated once, so the peak memory beyond ``z`` is two
    n x T float arrays.

    Parameters
    ----------
    z : SignalMatrix
        Whitened input (sample covariance within 1e-6 of the identity).
    max_iter : int
        Iteration budget.
    seed : int
        Seeds the deterministic random initial rotation.

    Returns
    -------
    (rotation, iterations) : (ndarray, int)
        Orthogonal rotation matrix and the number of iterations used.

    Raises
    ------
    NonConvergenceError
        If max | |diag(W_new W^T)| - 1 | does not fall below 1e-6 within
        ``max_iter`` iterations; carries ``iterations`` and ``last_delta``.
    """
    if max_iter < 1:
        raise ValueError(f"need at least one iteration, got {max_iter}")
    _check_whitened(z)

    n, t = z.n_channels, z.n_samples
    rng = np.random.default_rng(seed)
    w = _sym_decorrelate(rng.standard_normal((n, n)))

    # fresh n x T temporaries per iteration would be handed back to the
    # OS and faulted in again on the next pass
    g = np.empty((n, t))
    g_prime = np.empty((n, t))
    delta = np.inf
    for iteration in range(1, max_iter + 1):
        np.matmul(w, z.values, out=g)
        np.tanh(g, out=g)
        np.multiply(g, g, out=g_prime)
        np.subtract(1.0, g_prime, out=g_prime)
        g_prime_mean = g_prime.mean(axis=1)
        w_new = _sym_decorrelate(g @ z.values.T / t - g_prime_mean[:, None] * w)
        delta = float(np.abs(np.abs(np.einsum("ij,ij->i", w_new, w)) - 1.0).max())
        w = w_new
        if delta < _TOL:
            return w, iteration
    raise NonConvergenceError(
        f"no convergence after {max_iter} iterations (last delta {delta:.3e} > tol {_TOL:.1e})",
        iterations=max_iter,
        last_delta=delta,
    )


def normalize_components(rotation: np.ndarray, z: SignalMatrix) -> np.ndarray:
    """Canonicalize a rotation: each row is scaled so the recovered
    component has unit sample variance, and flipped so its
    largest-magnitude loading is positive."""
    rotation = np.asarray(rotation, dtype=float)
    n = z.n_channels
    if rotation.shape != (n, n):
        raise ValueError(f"rotation must be {n}x{n}, got {rotation.shape}")
    ortho_err = np.abs(rotation @ rotation.T - np.eye(n)).max()
    if ortho_err > 1e-6:
        raise ValueError(f"rotation is not orthogonal: max |R R^T - I| = {ortho_err:.3e}")
    sources = rotation @ z.values
    scale = sources.std(axis=1, ddof=1)
    if np.any(scale == 0.0):
        raise ValueError("a recovered component is constant")
    out = rotation / scale[:, None]
    for i in range(n):
        j = int(np.argmax(np.abs(out[i])))
        if out[i, j] < 0.0:
            out[i] = -out[i]
    return out


def mutual_information(signals: SignalMatrix | PseudoObservations) -> float:
    """Mutual information between channels, in nats.

    Plug-in estimate through a Gaussian copula: correlate the normal
    scores of the rank-based pseudo-observations and return
    -log(det)/2, clamped below at zero. Invariant under strictly
    increasing per-channel transforms. This is a dependence proxy, not
    a universal estimator. Pseudo-observations are used as given, which
    saves ranking them again (that would return the same values).
    """
    if signals.n_samples < 100:
        raise ValueError(f"need at least 100 samples, got {signals.n_samples}")
    if signals.n_channels == 1:
        return 0.0
    u = signals if isinstance(signals, PseudoObservations) else pseudo_observations(signals)
    rho = normal_scores_correlation(u.values)
    sign, logdet = np.linalg.slogdet(rho)
    if sign <= 0.0 or logdet < np.log(1e-12):
        raise DegenerateDependenceError(
            "normal-scores correlation matrix is numerically singular; "
            "channels are too close to deterministically dependent"
        )
    return max(0.0, -0.5 * float(logdet))
