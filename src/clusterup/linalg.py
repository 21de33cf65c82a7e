"""Deterministic dense linear algebra kernels.

SVD with a fixed sign convention, Cholesky factorization of Gram matrices,
PCA, Moore-Penrose pseudoinverse, and the spectral-energy rule that picks an
effective rank. All computations run in float64 on plain ndarrays and are
deterministic for a fixed input, so factors can be checkpointed and compared
bit-for-bit across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZeroSpectrum,
    DegenerateData,
    NoConvergence,
    NotPositiveDefinite,
)

Array = np.ndarray


def as_matrix(a, name: str = "matrix", check_finite: bool = True) -> Array:
    """Validate and return ``a`` as a 2-D float64 array.

    ``check_finite=False`` skips the NaN/Inf scan; the training forward pass
    uses it so a diverged model reaches the loss check (which reports a
    non-finite loss) instead of failing input validation mid-stack.
    """
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if check_finite and m.size and not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD ``u @ diag(sigma) @ v_t`` with r = min(m, n) factors.

    ``u`` is (m, r) with orthonormal columns, ``sigma`` is non-negative and
    non-increasing, ``v_t`` is (r, n) with orthonormal rows. The first nonzero
    entry of every column of ``u`` is positive.
    """

    u: Array
    sigma: Array
    v_t: Array


@dataclass(frozen=True)
class SpectralProfile:
    """Effective-rank decision for one spectrum.

    ``chosen_rank`` is the smallest rank retaining at least a ``tau`` fraction
    of total squared singular-value energy, raised to the rank floor
    ``full_rank // 2 + 1`` when the energy rule alone would go below it.
    """

    sigma: Array
    tau: float
    full_rank: int
    chosen_rank: int
    retained_energy: float


def _fix_signs(u: Array, v_t: Array) -> tuple[Array, Array]:
    # Deterministic orientation: first nonzero entry of each u column positive.
    u = u.copy()
    v_t = v_t.copy()
    for j in range(u.shape[1]):
        col = u[:, j]
        nz = np.nonzero(col)[0]
        if nz.size and col[nz[0]] < 0:
            u[:, j] = -col
            v_t[j, :] = -v_t[j, :]
    return u, v_t


def svd_full(w) -> SvdFactors:
    """Thin singular value decomposition of a real matrix.

    Raises NoConvergence if the underlying iterative solver fails, which for
    LAPACK means the QR iteration did not converge within its budget.
    """
    m = as_matrix(w, "w")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"w must be at least 1x1, got {m.shape}")
    try:
        u, sigma, v_t = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"SVD did not converge: {exc}") from exc
    u, v_t = _fix_signs(u, v_t)
    return SvdFactors(u=u, sigma=sigma, v_t=v_t)


def cholesky_lower(gram, jitter: float = 0.0) -> Array:
    """Lower Cholesky factor L with ``L @ L.T = gram + jitter * I``.

    ``gram`` must be square and symmetric (within 1e-8, scaled by its largest
    entry). Raises NotPositiveDefinite when the factorization fails; callers
    that can tolerate regularization escalate ``jitter`` and retry.
    """
    g = as_matrix(gram, "gram")
    d = g.shape[0]
    if g.shape[1] != d:
        raise ValueError(f"gram must be square, got {g.shape}")
    if jitter < 0:
        raise ValueError(f"jitter must be non-negative, got {jitter}")
    scale = max(1.0, float(np.abs(g).max())) if g.size else 1.0
    if float(np.abs(g - g.T).max()) > 1e-8 * scale:
        raise ValueError("gram matrix is not symmetric within tolerance")
    sym = 0.5 * (g + g.T)
    if jitter:
        sym = sym + jitter * np.eye(d)
    try:
        low = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(
            f"Cholesky failed at jitter={jitter:g} (rank-deficient Gram?)"
        ) from exc
    return low


def effective_rank(sigma, tau: float) -> SpectralProfile:
    """Pick the rank retaining a ``tau`` fraction of squared spectral energy.

    The energy rank is the smallest r with ``sum(sigma[:r]**2) >= tau * total``;
    it is then raised to the floor ``len(sigma) // 2 + 1`` if smaller. ``tau = 1``
    always keeps the full rank. Raises AllZeroSpectrum, which reaches the
    caller, when the spectrum has no energy at all.
    """
    s = np.asarray(sigma, dtype=np.float64)
    if s.ndim != 1 or s.size < 1:
        raise ValueError("sigma must be a non-empty 1-D sequence")
    if np.any(s < 0):
        raise ValueError("sigma must be non-negative")
    if np.any(np.diff(s) > 1e-12 * max(1.0, float(s[0]))):
        raise ValueError("sigma must be non-increasing")
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    full_rank = s.size

    energy = s * s
    cumulative = np.cumsum(energy)
    total = float(cumulative[-1])
    if total == 0.0:
        raise AllZeroSpectrum("all singular values are zero")

    if tau >= 1.0:
        chosen = full_rank
    else:
        energy_rank = int(np.searchsorted(cumulative, tau * total, side="left")) + 1
        energy_rank = min(energy_rank, full_rank)
        floor = full_rank // 2 + 1
        chosen = max(energy_rank, floor)
    retained = float(cumulative[chosen - 1] / total)
    return SpectralProfile(
        sigma=s, tau=float(tau), full_rank=full_rank,
        chosen_rank=chosen, retained_energy=retained,
    )


def pca_fit_transform(x, target_dim: int) -> tuple[Array, Array]:
    """Project d x M column-sample data onto its top principal directions.

    Returns ``(projection, projected)`` where ``projection`` is a
    (target_dim, d) matrix whose rows are orthonormal principal directions of
    the mean-centered columns and ``projected = projection @ (x - mean)``.
    Raises DegenerateData when every column is identical.
    """
    m = as_matrix(x, "x")
    d, n_samples = m.shape
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    if not 1 <= target_dim <= d:
        raise ValueError(f"target_dim must lie in [1, {d}], got {target_dim}")

    centered = m - m.mean(axis=1, keepdims=True)
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(centered).max()) <= 1e-13 * scale:
        raise DegenerateData("all columns identical; covariance is zero")

    cov = centered @ centered.T / (n_samples - 1)
    cov = 0.5 * (cov + cov.T)
    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending
    directions = eigvecs[:, ::-1][:, :target_dim]  # (d, target_dim), descending
    directions, _ = _fix_signs(directions, np.zeros((target_dim, 0)))
    projection = directions.T.copy()
    projected = projection @ centered
    return projection, projected


def pseudoinverse(a) -> Array:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below ``1e-10 * sigma_max`` are treated as zero; the zero
    matrix maps to the zero matrix.
    """
    m = as_matrix(a, "a")
    factors = svd_full(m)
    smax = float(factors.sigma[0]) if factors.sigma.size else 0.0
    if smax == 0.0:
        return np.zeros((m.shape[1], m.shape[0]))
    inv = np.where(factors.sigma > 1e-10 * smax, 1.0 / np.where(factors.sigma > 0, factors.sigma, 1.0), 0.0)
    return (factors.v_t.T * inv) @ factors.u.T


def frobenius_sq(a) -> float:
    """Squared Frobenius norm."""
    m = np.asarray(a, dtype=np.float64)
    return float(np.sum(m * m))
