"""Deterministic bound terms and their assembly.

Each two-sided moment estimate is a sum of named nonnegative terms:

* T1 -- closed-form surrogate of the expected chaos norm,
* T2 / T3 -- suprema over one dual ball of the expected partial chaos,
  via their closed-form surrogates,
* T4 -- dual-functional supremum of a row (or column) norm vector,
* T5 -- dual-functional supremum of the bilinear ball norm,
* T6 -- the level-p multiple of the worst slice operator norm.

The suprema T2-T6 are deterministic multi-start climbs of alternating
exact partial maximizations, so every reported value is a certified lower
bound of its supremum.  A private builder per term returns its starts and
a climb that yields each vector it needs ``norm_Xp`` of.  ``assemble_bound``
runs the problems of all its terms through one ``_best_starts``: every
start of every term climbs in lockstep, one stacked ``norm_Xp`` call per
ball a round.  A ``term_*`` function is ``_best_start`` of its one problem.
Convergence, winning start, spread over starts and ``norm_Xp`` rows go
into the report diagnostics.  T4 takes projected subgradient steps of its
own; the other climbs run ``_ascend`` to a stall.  No multiplicative
constants are baked in: totals are plain sums and constant calibration
happens in the experiment harness.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .dual_norms import (
    ConfigurationError,
    _ascend,
    _best_start,
    _best_starts,
    _dual_ball_starts,
    _project_dual_ball,
    _seeded_normals,
    ball,
    norm_Xp,
)
from .functionals import lq_align, lq_norm, s_A_surrogate

LOWER = "lower"
UPPER_SUBGAUSSIAN = "upper-subgaussian"
UPPER_GENERAL = "upper-general"
TWO_SIDED = "two-sided"
HILBERT = "hilbert"

#: the terms of each bound kind, in summation order
KIND_TERMS = {
    LOWER: ("T1", "T2", "T3", "T4r", "T4c", "T5"),
    UPPER_SUBGAUSSIAN: ("T1", "T2", "T3", "T4r", "T5"),
    UPPER_GENERAL: ("T1", "T2", "T3", "T4r", "T4c", "T5", "T6"),
    TWO_SIDED: ("T1", "T2", "T3", "T4r", "T5"),
    HILBERT: ("T1", "T2", "T3", "T4r", "T5"),
}
KINDS = tuple(KIND_TERMS)


@dataclass
class BoundReport:
    kind: str
    terms: dict
    total: float
    p: float
    q: float
    gamma: float | None = None
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Individual terms
# ---------------------------------------------------------------------------

def term_T1_chaos_mean(A):
    """Closed-form surrogate of the expected chaos norm."""
    return s_A_surrogate(A)


def _mixed_norm_value_and_alignment(b, q):
    """Value and maximizing w of sup over the dual ell_{q'}(ell_2) ball.

    ``b`` has shape (n2, m); value is the ell_q norm of the column
    Euclidean norms, w the aligned dual point.
    """
    u = np.linalg.norm(b, axis=0)
    value = float(lq_norm(u, q))
    w = np.zeros_like(b)
    coeff = lq_align(u, q)  # >= 0 since u >= 0
    nz = u > 0.0
    w[:, nz] = b[:, nz] * (coeff[nz] / u[nz])
    return value, w


def term_T2_supx(A, ballX, restarts=16, seed=0):
    """sup over the X-ball of the fixed-x expected-norm surrogate.

    Alternates a closed-form dual alignment in the mixed-norm ball with an
    exact support-function step in the X-ball; monotone ascent from each
    start, best value kept.
    """
    return _best_start(*_T2_problem(A, ballX, restarts, seed))


def _T2_problem(A, ballX, restarts, seed):
    """(starts, climb) of ``term_T2_supx``; T3 is the problem of the transpose."""
    if ballX.dim != A.n1:
        raise ValueError("X ball must have one coordinate per first index")

    def step(x):
        b = np.einsum("ijk,i->jk", A.entries, x)
        _, w = _mixed_norm_value_and_alignment(b, A.q)
        d = np.einsum("ijk,jk->i", A.entries, w)
        x = (yield d, ballX).maximizer
        b = np.einsum("ijk,i->jk", A.entries, x)
        return x, _mixed_norm_value_and_alignment(b, A.q)[0]

    u, _, _ = np.linalg.svd(A.entries.reshape(A.n1, -1), full_matrices=False)
    return [u[:, 0], *_seeded_normals(A.n1, restarts - 1, seed)], lambda x: _ascend(x, step)


def term_T3_supy(A, ballY, restarts=16, seed=0):
    """Mirror of term_T2 with the two chaos indices exchanged."""
    return term_T2_supx(A.transposed(), ballY, restarts=restarts, seed=seed)


def term_T4_sup_f_column(A, ball, side="rows", restarts=16, seed=0):
    """sup over the value-space dual ball of a row/column norm vector.

    The objective f -> |(sqrt(sum_j (A_i f)^2))_i|_{X,p} is convex in f
    (a nonnegative combination of Euclidean norms of linear images), so
    the maximum sits on the dual-ball boundary; projected subgradient
    ascent with coordinate-vector and random starts returns a certified
    lower bound.  A climb that stops on its 100-step cap, rather than on a
    stall or a zero subgradient, is reported as not converged.
    """
    return _best_start(*_T4_problem(A, ball, side, restarts, seed))


def _T4_problem(A, ball, side, restarts, seed):
    """(starts, climb) of ``term_T4_sup_f_column``."""
    if side not in ("rows", "columns"):
        raise ValueError("side must be 'rows' or 'columns'")
    T = A if side == "rows" else A.transposed()
    if ball.dim != T.n1:
        raise ValueError("ball dimension must match the outer index")

    q_dual = T.q_dual
    slices = T.entries  # (n, n2, m)

    def evaluate(f):
        img = slices @ f  # (n, n2)
        v = np.linalg.norm(img, axis=1)  # per outer index
        res = yield v, ball
        return res.value, img, v, np.abs(res.maximizer)

    def climb(f):
        value, img, v, xw = yield from evaluate(f)
        best_value, best_f = value, f
        stalled = 0
        for it in range(100):
            nz = v > 0.0
            grad = np.einsum("i,ij,ijk->k", xw[nz] / v[nz], img[nz], slices[nz])
            gnorm = np.linalg.norm(grad)
            if gnorm == 0.0:
                break
            step = 0.5 / math.sqrt(it + 1.0)
            f = _project_dual_ball(f + step * grad / gnorm, q_dual)
            value, img, v, xw = yield from evaluate(f)
            if value > best_value * (1.0 + 1e-9):
                best_value, best_f = value, f
                stalled = 0
            else:
                stalled += 1
                if stalled >= 8:  # step size has shrunk past usefulness
                    break
        else:
            return best_value, best_f, False  # left on the step cap
        return best_value, best_f, True

    # No -e_k starts: the objective is even, and every step (matmul, norm,
    # subgradient, projection) is exactly sign-symmetric in floating point,
    # so the climb from -e_k is the negation of the one from e_k and ties it.
    return _dual_ball_starts(T.m, q_dual, restarts, seed), climb


def term_T5_sup_f_xyp(A, ballX, ballY, restarts=16, seed=0):
    """sup over (x, y, f) of the contracted trilinear form.

    Three-way alternation: the f-step is the closed-form ell_q duality
    alignment, the x- and y-steps are exact support-function solves.
    """
    return _best_start(*_T5_problem(A, ballX, ballY, restarts, seed))


def _T5_problem(A, ballX, ballY, restarts, seed):
    """(starts, climb) of ``term_T5_sup_f_xyp``; the maximizer is (x, y, f) joined."""
    if ballX.dim != A.n1 or ballY.dim != A.n2:
        raise ValueError("ball dimensions must match the tensor")

    def step(state):
        x, y, _ = state
        f = lq_align(np.einsum("ijk,i,j->k", A.entries, x, y), A.q)
        M = A.entries @ f  # (n1, n2)
        x = (yield M @ y, ballX).maximizer
        y = (yield M.T @ x, ballY).maximizer
        return (x, y, f), float(x @ M @ y)

    # deterministic warm start: align f with the slice masses
    c0 = np.sqrt((A.entries ** 2).sum(axis=(0, 1)))
    M0 = A.entries @ lq_align(c0, A.q)
    _, _, vt = np.linalg.svd(M0)
    # positive seed for x keeps the first f-step away from degenerate zeros
    x0 = norm_Xp(np.abs(A.entries).sum(axis=(1, 2)), ballX).maximizer

    def climb(y):
        value, state, converged = yield from _ascend((x0, y, None), step)
        return value, np.concatenate(state), converged

    return [vt[0], *_seeded_normals(A.n2, restarts - 1, seed)], climb


def term_T6_operator(A, p, restarts=8, seed=0):
    """p times the worst ell_{q'} -> ell_2 operator norm over slices.

    One multi-start climbs from every (slice, direction) pair by
    alternating alignment; the maximizer is the winning direction t, and
    the start values are scaled by p like the value.
    """
    return _best_start(*_T6_problem(A, p, restarts, seed))


def _T6_problem(A, p, restarts, seed):
    """(starts, climb) of ``term_T6_operator``; each climb reports p times its value."""
    def climb(start):
        S, t = start

        def step(t):
            img = S @ t
            nrm = float(np.linalg.norm(img))
            if nrm == 0.0:  # a zero slice, or a start in the kernel of S
                return t, 0.0
            t = lq_align(S.T @ (img / nrm), A.q)
            return t, float(np.linalg.norm(S @ t))

        value, t, converged = yield from _ascend(t, step, tol=1e-12)
        return p * value, t, converged

    directions = _dual_ball_starts(A.m, A.q_dual, restarts, seed)
    return [(S, t) for S in A.entries for t in directions], climb


# ---------------------------------------------------------------------------
# Subgaussian constant
# ---------------------------------------------------------------------------

def _log_mgf(d, t):
    """log E exp(t X) by log-domain quadrature (X symmetric)."""
    # integrand peak near N'(x) = t; bracket by doubling
    x_hi = 1.0
    def log_integrand(x):
        tx = np.abs(t * x)
        log_cosh = tx + np.log1p(np.exp(-2.0 * tx)) - math.log(2.0)
        return log_cosh + d.log_abs_density(x)
    while True:
        xs = np.linspace(1e-12, x_hi, 4096)
        vals = log_integrand(xs)
        peak = vals.max()
        if vals[-1] < peak - 60.0:
            break
        if x_hi > 1e6:
            return math.inf  # integrand does not decay: the MGF diverges
        x_hi *= 2.0
    dx = xs[1] - xs[0]
    from scipy.special import logsumexp

    return float(logsumexp(vals) + math.log(dx))


def subgaussian_gamma(d, grid=None):
    """Smallest gamma with E exp(tX) <= exp(gamma t^2), or inf.

    Evaluated as the supremum of log-MGF / t^2 over a log-spaced grid
    plus the t -> 0 limit E X^2 / 2.  A profile still increasing at the
    top of the grid signals a tail heavier than Gaussian (r < 2).
    """
    grid = np.geomspace(0.1, 50.0, 40) if grid is None else np.asarray(grid, dtype=float)
    ok = grid.ndim == 1 and grid.size >= 3 and np.all(np.isfinite(grid) & (grid > 0.0))
    if not (ok and np.all(np.diff(grid) > 0.0)):  # the heavy-tail test reads the grid's top
        raise ValueError("the grid needs at least 3 finite, positive, increasing points in one axis")
    h = np.array([_log_mgf(d, t) / (t * t) for t in grid])
    limit0 = d.variance / 2.0
    if not np.all(np.isfinite(h)) or h[-1] > h[-3] + 1e-6:
        return math.inf
    return float(max(h.max(), limit0))


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def assemble_bound(A, kind, p, distX, distY, restarts=16, seed=0):
    """Build the named terms and the plain-sum total for one bound kind."""
    if kind not in KINDS:
        raise ConfigurationError(f"unknown bound kind {kind!r}")
    if kind == HILBERT and A.q != 2.0:
        raise ConfigurationError("the Hilbert-space bound requires q = 2")
    ballX = ball(distX, p, A.n1)
    ballY = ball(distY, p, A.n2)

    gamma = None
    if kind == UPPER_SUBGAUSSIAN:
        gamma = subgaussian_gamma(distY)
        if math.isinf(gamma):
            raise ConfigurationError(
                "the subgaussian bound needs a subgaussian second family (r >= 2)"
            )

    problems = {
        "T2": lambda: _T2_problem(A, ballX, restarts, seed),
        "T3": lambda: _T2_problem(A.transposed(), ballY, restarts, seed),
        "T4r": lambda: _T4_problem(A, ballX, "rows", restarts, seed),
        "T4c": lambda: _T4_problem(A, ballY, "columns", restarts, seed),
        "T5": lambda: _T5_problem(A, ballX, ballY, restarts, seed),
        "T6": lambda: _T6_problem(A, p, restarts, seed),
    }
    T1 = term_T1_chaos_mean(A)  # the closed form, first term of every kind
    terms = {"T1": T1 if gamma is None else gamma * T1}
    diagnostics = {}
    names = KIND_TERMS[kind][1:]
    for name, res in zip(names, _best_starts([problems[name]() for name in names])):
        terms[name] = res.value
        diagnostics[name] = {k: getattr(res, k) for k in ("converged", "restarts_used", "winner", "rows")}
        diagnostics[name]["spread"] = res.value - float(np.median(res.start_values or res.value))

    total = float(sum(terms.values()))
    return BoundReport(
        kind=kind,
        terms=terms,
        total=total,
        p=float(p),
        q=float(A.q),
        gamma=gamma,
        diagnostics=diagnostics,
    )
