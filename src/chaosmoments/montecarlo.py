"""Monte Carlo estimates of the chaos moments and of expected suprema.

Every estimate is a batch-means estimate from ``_batched_mean``: each
batch draws from its own counter-based stream and the batches are reduced
in ascending index order, so an estimate is a pure function of (inputs,
master seed).  Moments are estimated through p-th powers with a
delta-method standard error; heavy-tailed inputs make large-p estimation
unreliable, so p beyond ln(total_samples)/2 only flags the estimate.
Levels (q, p) can share one call: each batch is drawn once and reduced to
one value column per level, each mean formed as a one-level call forms it.
"""

import math
import sys
from dataclasses import dataclass, fields
from numbers import Integral, Real

import numpy as np

from . import rng as rngmod
from .dual_norms import ConfigurationError
from .functionals import lq_norm


def _is_number(value):
    # JSON NaN, Infinity and huge integers parse too; a number must fit a finite float
    real = isinstance(value, Real) and not isinstance(value, bool)
    return real and abs(value) <= sys.float_info.max


#: annotation -> (check of a value, what the value must be)
_FIELD_TYPES = {
    int: (lambda v: isinstance(v, Integral) and not isinstance(v, bool), "an integer"),
    bool: (lambda v: isinstance(v, bool), "a boolean"),
    str: (lambda v: isinstance(v, str), "a string"),
    float: (_is_number, "a finite number"),
    tuple: (lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v)),
            "a list of finite numbers"),
}


def _checked(name, value, kind):
    """``value``, if it passes the check of type ``kind``; else ConfigurationError."""
    if not _FIELD_TYPES[kind][0](value):
        raise ConfigurationError(f"{name} must be {_FIELD_TYPES[kind][1]}")
    return value


def _check_field_types(config):
    """Check every field of the dataclass ``config`` against its annotation."""
    for f in fields(config):
        _checked(f.name, getattr(config, f.name), f.type)


@dataclass(frozen=True)
class McConfig:
    total_samples: int = 200_000
    batches: int = 32
    master_seed: int = 0
    unit_variance: bool = False

    def __post_init__(self):
        _check_field_types(self)
        if self.batches < 8:
            raise ConfigurationError("batches must be >= 8 for stable batch-means stderr")
        if self.total_samples < self.batches or self.total_samples % self.batches != 0:
            raise ConfigurationError("total_samples must be a positive multiple of batches")
        if not 0 <= self.master_seed < 1 << 64:
            raise ConfigurationError(f"seed {self.master_seed} is outside [0, 2^64)")

    @property
    def batch_size(self):
        return self.total_samples // self.batches


@dataclass(frozen=True)
class McEstimate:
    value: float
    stderr: float
    samples: int
    seed: int
    warning: str | None = None


def _batched_mean(cfg, batch_fn, p=None):
    """Batch-means estimate of E f, or of (E f)^(1/p) when ``p`` is given.

    ``batch_fn(generator, size)`` returns the per-sample values of one
    batch.  With ``p`` the values are p-th powers: the mean is mapped to its
    p-th root, the stderr follows by the delta method, and p past the
    heavy-tail guidance ln(N)/2 sets the warning.  A zero estimate, as an
    all-zero input gives, is exact and carries no warning.  With a list
    ``p``, one level (power or None) per value column, ``batch_fn`` returns
    one array per level and one estimate per level comes back.
    """
    if not isinstance(p, list):  # one level: the one-column case
        return _batched_mean(cfg, lambda gen, size: [batch_fn(gen, size)], [p])[0]
    if any(pk is not None and pk < 1.0 for pk in p):
        raise ValueError("p must be >= 1")
    means = np.empty((len(p), cfg.batches))
    for b in range(cfg.batches):
        gen = rngmod.stream(cfg.master_seed, rngmod.MC_STREAM + b)
        for k, values in enumerate(batch_fn(gen, cfg.batch_size)):
            means[k, b] = np.asarray(values, dtype=float).mean()
    guidance = math.log(cfg.total_samples) / 2.0
    estimates = []
    for pk, level_means in zip(p, means):
        m = float(level_means.mean())
        se = float(level_means.std(ddof=1) / math.sqrt(cfg.batches))
        warning = None
        if pk is not None:
            m, se = (m ** (1.0 / pk), se * m ** (1.0 / pk - 1.0) / pk) if m > 0.0 else (0.0, 0.0)
            if pk > guidance and m > 0.0:
                warning = (
                    f"p = {pk} exceeds the heavy-tail guidance ln(N)/2 = {guidance:.2f}; "
                    "treat the estimate as indicative"
                )
        estimates.append(McEstimate(m, se, cfg.total_samples, cfg.master_seed, warning))
    return estimates


def _draws(dist, gen, size, n, cfg):
    """``size`` rows of ``n`` draws of ``dist``, scaled to unit variance if ``cfg`` asks."""
    draws = dist.sample(gen, size * n).reshape(size, n)
    # always a fresh array, even at scale 1.0: returning the sampler's own
    # buffer read 0.3 MB more peak RSS on the 320k-sample verify workload
    return draws / (dist.unit_variance_scale if cfg.unit_variance else 1.0)


def _bilinear(X, A_unfolded, Y):
    """Rows S_a = sum_ij X_ai a_ij Y_aj, with A unfolded to shape (n1, n2*m).

    The bulk of the work is one BLAS matmul against the unfolding; only a
    two-operand contraction with Y is left to einsum.
    """
    size, n2 = Y.shape
    return np.einsum("aj,ajk->ak", Y, (X @ A_unfolded).reshape(size, n2, -1))


def estimate_moment_decoupled(A, distX, distY, p, cfg):
    """(E |sum_ij a_ij X_i Y_j|_q^p)^(1/p) for independent families.

    A sequence of (q, p) levels in place of ``p`` (each q replacing ``A.q``)
    shares every batch's draws and contraction, one estimate per level.
    """
    levels = [(A.q, p)] if np.isscalar(p) else list(p)
    if not all(1.0 <= q < math.inf for q, _ in levels):
        raise ValueError("every level needs 1 <= q < inf")
    A_unfolded = A.entries.reshape(A.n1, -1)
    distinct_q = dict.fromkeys(q for q, _ in levels)

    def batch(gen, size):
        X = _draws(distX, gen, size, A.n1, cfg)
        Y = _draws(distY, gen, size, A.n2, cfg)
        S = _bilinear(X, A_unfolded, Y)
        norms = {q: lq_norm(S, q, axis=1) for q in distinct_q}
        return [norms[q] ** pk for q, pk in levels]

    est = _batched_mean(cfg, batch, [pk for _, pk in levels])
    return est[0] if np.isscalar(p) else est


def estimate_moment_undecoupled(A2, distX, p, cfg):
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
    n = A2.shape[0]

    def batch(gen, size):
        X = _draws(distX, gen, size, n, cfg)
        return np.abs(((X @ A2) * X).sum(axis=1)) ** p

    return _batched_mean(cfg, batch, p)


def estimate_E_norm_fixed_x(A, x, distY, cfg):
    """E |sum_j (A x)_j Y_j|_q at a fixed first-family vector x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (A.n1,):
        raise ValueError(f"x must have shape ({A.n1},), got {x.shape}")
    B = np.einsum("ijk,i->jk", A.entries, x)  # (n2, m)

    def batch(gen, size):
        Y = _draws(distY, gen, size, A.n2, cfg)
        return lq_norm(Y @ B, A.q, axis=1)

    return _batched_mean(cfg, batch)


def gk_moment(a, dist, p, cfg):
    """(E |sum_i a_i X_i|^p)^(1/p) for a linear form; a sequence of p shares its draws."""
    a = np.asarray(a, dtype=float).ravel()
    powers = [p] if np.isscalar(p) else list(p)

    def batch(gen, size):
        X = _draws(dist, gen, size, a.size, cfg)
        form = np.abs(X @ a)
        return [form ** pk for pk in powers]

    est = _batched_mean(cfg, batch, powers)
    return est[0] if np.isscalar(p) else est


# ---------------------------------------------------------------------------
# Expected suprema of the comparison processes (no p-th powers)
# ---------------------------------------------------------------------------

_LAWS = ("exponential", "gaussian", "gaussian-squared-minus-one", "gaussian-product")


def _draw_law(gen, law, size):
    """Variance-one draws of the comparison laws (or an LCT distribution)."""
    if isinstance(law, tuple) and law[0] == "lct":
        return law[1].sample(gen, size[0] * size[1]).reshape(size)
    if law == "exponential":
        return gen.laplace(0.0, 1.0 / math.sqrt(2.0), size=size)
    if law == "gaussian":
        return gen.standard_normal(size)
    if law == "gaussian-squared-minus-one":
        g = gen.standard_normal(size)
        eps = gen.integers(0, 2, size=size) * 2 - 1
        return eps * (g * g - 1.0) / math.sqrt(2.0)
    if law == "gaussian-product":
        return gen.standard_normal(size) * gen.standard_normal(size)
    raise ValueError(f"unknown law {law!r}; expected one of {_LAWS} or ('lct', d)")


def mc_expected_sup(T, law, cfg):
    """Estimate E sup_{t in T} <t, Z> for a finite set T of vectors."""
    T = np.atleast_2d(np.asarray(T, dtype=float))
    if T.size == 0:
        raise ValueError("T must be nonempty")
    n = T.shape[1]

    def batch(gen, size):
        Z = _draw_law(gen, law, (size, n))
        return (Z @ T.T).max(axis=1)

    return _batched_mean(cfg, batch)


def mc_beta(A, x, cfg):
    """Estimate E sup_{t in B_{q'}} |sum_ijk a_ijk g_i x_j t_k|.

    The inner supremum is the ell_q norm of the contracted Gaussian
    image, by ell_q / ell_{q'} duality.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (A.n2,):
        raise ValueError(f"x must have shape ({A.n2},), got {x.shape}")
    M = np.einsum("ijk,j->ik", A.entries, x)  # (n1, m)

    def batch(gen, size):
        g = gen.standard_normal((size, A.n1))
        return lq_norm(g @ M, A.q, axis=1)

    return _batched_mean(cfg, batch)
