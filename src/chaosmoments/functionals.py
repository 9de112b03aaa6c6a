"""Coefficient tensors and the deterministic process functionals.

A chaos coefficient tensor has shape (n1, n2, m): the first two indices
pair with the two independent variable families, the third lives in the
value space ell_q^m.  The functionals here are the building blocks of the
bound terms:

* ``alpha_A``     -- Euclidean aggregate of slice contractions,
* ``alpha_inf_A`` -- its max-coordinate companion,
* ``phi_A``       -- the 2q-th-root fourth-moment functional,
* ``s_A_surrogate`` -- closed-form stand-in for the expected chaos norm.

Nothing here samples: the Monte Carlo expected suprema that cross-check
the comparison lemmas behind these functionals live in ``montecarlo``.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CoefficientTensor:
    """Triple-indexed coefficients with the value-space exponent q."""

    entries: np.ndarray
    q: float = 2.0

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 3:
            raise ValueError("entries must have shape (n1, n2, m)")
        if 0 in arr.shape:
            raise ValueError("all tensor dimensions must be positive")
        if not np.all(np.isfinite(arr)):
            raise ValueError("entries must be finite")
        if not 1.0 <= self.q < math.inf:
            raise ValueError(f"q = {self.q} violates 1 <= q < inf")
        object.__setattr__(self, "entries", arr)

    @property
    def shape(self):
        return self.entries.shape

    @property
    def n1(self):
        return self.entries.shape[0]

    @property
    def n2(self):
        return self.entries.shape[1]

    @property
    def m(self):
        return self.entries.shape[2]

    @property
    def q_dual(self):
        """Hoelder conjugate; infinity when q = 1."""
        return math.inf if self.q == 1.0 else self.q / (self.q - 1.0)

    def transposed(self):
        """Swap the two chaos indices."""
        return CoefficientTensor(np.swapaxes(self.entries, 0, 1), self.q)


def lq_norm(c, q, axis=-1):
    """ell_q norm along an axis (q >= 1, finite)."""
    c = np.asarray(c, dtype=float)
    if q == 1.0:
        return np.abs(c).sum(axis=axis)
    if q == 2.0:
        return np.sqrt((c * c).sum(axis=axis))
    return (np.abs(c) ** q).sum(axis=axis) ** (1.0 / q)


def lq_align(c, q):
    """Unit-dual-ball vector t maximizing <c, t>; sup equals lq_norm(c, q).

    For q = 1 the dual ball is the cube and the formula gives the sign
    pattern of c, since x ** 0.0 is 1.0 even at x = 0.  With one nonzero
    entry the answer is its sign: the formula's (|c_k| / norm) ** (q - 1)
    can round above 1 and leave the ball.
    """
    c = np.asarray(c, dtype=float)
    nonzero = np.count_nonzero(c)
    if nonzero == 0:
        t = np.zeros_like(c)
        t.flat[0] = 1.0
        return t
    if nonzero == 1:
        return np.sign(c)
    nrm = lq_norm(c, q)
    return np.sign(c) * (np.abs(c) / nrm) ** (q - 1.0)


def alpha_A(A, w):
    """sqrt of sum_i (sum_{jk} a_ijk w_jk)^2."""
    w = np.asarray(w, dtype=float)
    if w.shape != (A.n2, A.m):
        raise ValueError(f"w must have shape {(A.n2, A.m)}, got {w.shape}")
    contractions = np.einsum("ijk,jk->i", A.entries, w)
    return float(np.linalg.norm(contractions))


def alpha_inf_A(A, w):
    """max_i |sum_{jk} a_ijk w_jk|."""
    w = np.asarray(w, dtype=float)
    if w.shape != (A.n2, A.m):
        raise ValueError(f"w must have shape {(A.n2, A.m)}, got {w.shape}")
    contractions = np.einsum("ijk,jk->i", A.entries, w)
    return float(np.abs(contractions).max())


def phi_A(A, x):
    """(sum_k (sum_i (sum_j a_ijk x_j)^4 / sum_j a_ijk^2)^{q/2})^{1/2q}.

    Fibers (i, k) with vanishing squared mass contribute 0 (their
    numerator vanishes identically).
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (A.n2,):
        raise ValueError(f"x must have shape ({A.n2},), got {x.shape}")
    b = np.einsum("ijk,j->ik", A.entries, x)
    mass = np.einsum("ijk,ijk->ik", A.entries, A.entries)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(mass > 0.0, b ** 4 / np.where(mass > 0.0, mass, 1.0), 0.0)
    inner = ratio.sum(axis=0)  # over i, one value per k
    q = A.q
    return float((inner ** (q / 2.0)).sum() ** (1.0 / (2.0 * q)))


def s_A_surrogate(A):
    """(sum_k (sum_ij a_ijk^2)^{q/2})^{1/q}."""
    mass = (A.entries ** 2).sum(axis=(0, 1))
    q = A.q
    return float((mass ** (q / 2.0)).sum() ** (1.0 / q))
