"""Monte Carlo moment estimators for the chaos left-hand sides.

All estimators are batch-means: each batch draws from its own
counter-based stream and the batches are reduced in ascending index
order, so an estimate is a pure function of (inputs, master seed).
Moments are estimated through p-th powers with a delta-method standard
error; heavy-tailed inputs make large-p estimation unreliable, so p
beyond ln(total_samples)/2 only flags the estimate instead of failing.
"""

import math

import numpy as np

from .estimates import McEstimate, batched_mean, power_mean_transform
from .functionals import lq_norm


def _reliability_warning(p, cfg):
    guidance = math.log(cfg.total_samples) / 2.0
    if p > guidance:
        return (
            f"p = {p} exceeds the heavy-tail guidance ln(N)/2 = {guidance:.2f}; "
            "treat the estimate as indicative"
        )
    return None


def _with_warning(est, warning):
    if warning is None:
        return est
    return McEstimate(est.value, est.stderr, est.samples, est.seed, warning)


def _variance_scale(dist, unit_variance):
    return dist.unit_variance_scale if unit_variance else 1.0


def _bilinear(X, A_unfolded, Y):
    """Rows S_a = sum_ij X_ai a_ij Y_aj, with A unfolded to shape (n1, n2*m).

    The bulk of the work is one BLAS matmul against the unfolding; only a
    two-operand contraction with Y is left to einsum.
    """
    size, n2 = Y.shape
    return np.einsum("aj,ajk->ak", Y, (X @ A_unfolded).reshape(size, n2, -1))


def estimate_moment_decoupled(A, distX, distY, p, cfg):
    """(E |sum_ij a_ij X_i Y_j|_q^p)^(1/p) for independent families."""
    if p < 1.0:
        raise ValueError("p must be >= 1")
    sx = _variance_scale(distX, cfg.unit_variance)
    sy = _variance_scale(distY, cfg.unit_variance)
    if not A.entries.any():
        return McEstimate(0.0, 0.0, cfg.total_samples, cfg.master_seed)
    A_unfolded = A.entries.reshape(A.n1, -1)

    def batch(gen, size):
        X = distX.sample(gen, size * A.n1).reshape(size, A.n1) / sx
        Y = distY.sample(gen, size * A.n2).reshape(size, A.n2) / sy
        return lq_norm(_bilinear(X, A_unfolded, Y), A.q, axis=1) ** p

    est = batched_mean(cfg, batch, power_mean_transform(p))
    return _with_warning(est, _reliability_warning(p, cfg))


def estimate_moment_undecoupled(A2, distX, p, cfg, q=2.0):
    """Same estimator with one variable family on both indices.

    Requires a symmetric, zero-diagonal coefficient matrix (the shape the
    decoupling comparisons are stated for).
    """
    A2 = np.asarray(A2, dtype=float)
    if A2.ndim != 2 or A2.shape[0] != A2.shape[1]:
        raise ValueError("A2 must be a square matrix")
    if not np.allclose(A2, A2.T, atol=1e-12):
        raise ValueError("A2 must be symmetric")
    if np.abs(np.diag(A2)).max(initial=0.0) > 1e-12:
        raise ValueError("A2 must have a zero diagonal")
    if p < 1.0:
        raise ValueError("p must be >= 1")
    s = _variance_scale(distX, cfg.unit_variance)
    n = A2.shape[0]
    if not A2.any():
        return McEstimate(0.0, 0.0, cfg.total_samples, cfg.master_seed)

    def batch(gen, size):
        X = distX.sample(gen, size * n).reshape(size, n) / s
        return np.abs(((X @ A2) * X).sum(axis=1)) ** p

    est = batched_mean(cfg, batch, power_mean_transform(p))
    return _with_warning(est, _reliability_warning(p, cfg))


def estimate_E_norm_fixed_x(A, x, distY, cfg):
    """E |sum_j (A x)_j Y_j|_q at a fixed first-family vector x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (A.n1,):
        raise ValueError(f"x must have shape ({A.n1},), got {x.shape}")
    s = _variance_scale(distY, cfg.unit_variance)
    B = np.einsum("ijk,i->jk", A.entries, x)  # (n2, m)
    if not B.any():
        return McEstimate(0.0, 0.0, cfg.total_samples, cfg.master_seed)

    def batch(gen, size):
        Y = distY.sample(gen, size * A.n2).reshape(size, A.n2) / s
        return lq_norm(Y @ B, A.q, axis=1)

    return batched_mean(cfg, batch)


def gk_moment(a, dist, p, cfg):
    """(E |sum_i a_i X_i|^p)^(1/p) for a linear form."""
    a = np.asarray(a, dtype=float).ravel()
    if p < 1.0:
        raise ValueError("p must be >= 1")
    s = _variance_scale(dist, cfg.unit_variance)
    if not a.any():
        return McEstimate(0.0, 0.0, cfg.total_samples, cfg.master_seed)

    def batch(gen, size):
        X = dist.sample(gen, size * a.size).reshape(size, a.size) / s
        return np.abs(X @ a) ** p

    est = batched_mean(cfg, batch, power_mean_transform(p))
    return _with_warning(est, _reliability_warning(p, cfg))
