"""Dual-ball support-function norms.

The level-p ball of a coordinate-wise tail family is
``{x : sum_i hat_N_i(x_i) <= p}``; its support function is the norm
``|a|_{X,p} = sup { <a, x> : x in ball }`` and the bilinear variant takes
the supremum of ``x' A y`` over a pair of balls.

The ball is convex only for shape exponents r >= 2: the truncated tail
hat_N drops its slope at the knee |t| = 1 whenever N'(1) < 2, so for
heavier tails the feasible set is star-shaped but not convex and plain
Lagrangian duality overshoots.  ``norm_Xp`` therefore solves the primal
exactly: the linear objective splits per coordinate into a budget
allocation ``max sum_i a_i hat_N^{-1}(b_i), sum b_i = p`` which is concave
once the set of coordinates allowed past the knee is fixed, and a simple
exchange argument shows the optimal "past-the-knee" set consists of the
largest coefficients of each law (one coordinate at most for a linear
law, r = 1).  We enumerate those per-law prefixes and solve each concave
piece by bisection on the common marginal value.

``norm_Xp_dual`` keeps the Lagrangian route; it returns the support
function of the convex hull, an upper bound that is tight for r >= 2.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from . import rng as rngmod
from .distributions import EXP_POWER, EXP_POWER_MAX_N
from .functionals import lq_norm


_ALT_TOL = 1e-9
_ALT_MAX_ITERS = 200


class ConfigurationError(ValueError):
    """Ball or solver configured outside its contract."""


@dataclass(frozen=True)
class DualBall:
    """Level-p dual ball with one tail distribution per coordinate."""

    p: float
    tails: tuple

    def __post_init__(self):
        if self.p < 1.0:
            raise ConfigurationError(f"moment level p = {self.p} < 1")
        if not self.tails:
            raise ConfigurationError("ball needs at least one coordinate")
        if not all(t.normalized for t in self.tails):
            raise ConfigurationError("ball tails must be normalized")
        if self.p > EXP_POWER_MAX_N and any(d.family == EXP_POWER for d, _ in self.laws):
            raise ConfigurationError(f"exp-power balls need p <= {EXP_POWER_MAX_N:g}")

    @property
    def dim(self):
        return len(self.tails)

    @functools.cached_property
    def laws(self):
        """(distribution, coordinate indices), one entry per distinct law."""
        return tuple(
            (d, np.flatnonzero([t == d for t in self.tails])) for d in dict.fromkeys(self.tails)
        )

    def hat_N(self, x):
        """Per-coordinate budgets hat_N_i(x_i), computed one law at a time."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise ValueError(f"dimension mismatch: {x.shape[-1]} != {self.dim}")
        b = np.empty(x.shape)
        for d, idx in self.laws:
            b[..., idx] = d.hat_N(x[..., idx])
        return b

    def hat_N_sum(self, x):
        # added in coordinate order, so the sum does not depend on the grouping
        return sum(np.moveaxis(self.hat_N(x), -1, 0))


def ball(d, p, n):
    """Homogeneous ball with n copies of distribution d at level p."""
    return DualBall(float(p), (d,) * n)


@dataclass
class NormResult:
    value: float
    maximizer: np.ndarray
    converged: bool = True
    restarts_used: int = 0


# ---------------------------------------------------------------------------
# 1-D convex conjugate (building block of the Lagrangian dual)
# ---------------------------------------------------------------------------

def conjugate_1d(d, a, lam):
    """sup_x (a x - lam * hat_N(x)) and its maximizer.

    Unbounded for linear-tail families when lam < |a|; signalled with an
    infinite value so the dual search can stay in the finite region.
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    if a == 0.0:
        return 0.0, 0.0
    sign = 1.0 if a > 0.0 else -1.0
    a = abs(a)
    # quadratic branch on [0, 1]
    xq = min(a / (2.0 * lam), 1.0)
    best_v = a * xq - lam * xq * xq
    best_x = xq
    # tail branch on [1, inf): stationarity a = lam N'(x)
    if d.linear_tail:
        if lam < a:
            return math.inf, math.inf
        # slope a - lam <= 0 beyond the knee; knee already covered above
    else:
        v = a / lam
        if v > float(d.tail_N_prime(1.0)):
            xt = float(d.tail_N_prime_inv(v))
            vt = a * xt - lam * float(d.tail_N(xt))
            if vt > best_v:
                best_v, best_x = vt, xt
    return best_v, sign * best_x


# ---------------------------------------------------------------------------
# Exact support function via budget allocation
# ---------------------------------------------------------------------------

def _allocate(mags, ball, tail_set):
    """Maximize sum a_i hat_N_i^{-1}(b_i) over budgets summing to p.

    ``tail_set`` holds the indices of the coordinates allowed past the knee
    (b_i >= 1); the rest stay on the quadratic branch (b_i <= 1).  Returns
    (value, x) or None when the tail set cannot fit in the budget; the
    returned point lies in the ball.  Budgets are computed one law at a time.

    Linear-tail coordinates (r = 1) have a constant marginal value past
    the knee, so at most one of them takes more than the unit budget and
    its multiplier is pinned at its own coefficient; that case is solved
    exactly rather than by bisection.
    """
    p = ball.p
    n = len(mags)
    in_tail = np.zeros(n, dtype=bool)
    in_tail[np.asarray(tail_set, dtype=int)] = True
    if in_tail.sum() > p:
        return None

    quad = ~in_tail
    a_quad = mags[quad]
    tail_laws = [(d, idx[in_tail[idx]]) for d, idx in ball.laws if in_tail[idx].any()]
    strict = [(d, idx, float(d.tail_N_prime(1.0))) for d, idx in tail_laws if not d.linear_tail]
    lin_idx = np.array([i for d, idx in tail_laws if d.linear_tail for i in idx], dtype=int)

    def strict_budgets(lam):
        # per strict law: its tail coordinates, which of them pass the knee
        # at the multiplier lam, and their budgets (the others spend 1)
        for d, idx, prime1 in strict:
            v = mags[idx] / lam
            over = v > prime1
            b_over = v[over]
            if over.any():
                b_over = np.minimum(d.tail_N_at_prime(b_over), p)
            yield idx, over, b_over

    def continuous_sum(lam):
        # everything except the single free linear coordinate
        total = float(np.minimum(1.0, (a_quad / (2.0 * lam)) ** 2).sum())
        for _, over, b_over in strict_budgets(lam):
            total += float((~over).sum())
            total += float(b_over.sum())
        return total

    def point(b):
        # the coordinates that spend the budgets b, and the objective there
        x = np.sqrt(b)
        for d, idx in tail_laws:
            past = idx[b[idx] >= 1.0]
            x[past] = d.tail_N_inv(b[past])
        return float(mags @ x), x

    def finish(lam, b_lin_free):
        b = in_tail.astype(float)  # tail coordinates start at the knee
        b[quad] = np.minimum(1.0, (a_quad / (2.0 * lam)) ** 2)
        for idx, over, b_over in strict_budgets(lam):
            b[idx[over]] = b_over
        if b_lin_free is not None:
            b[b_lin_free[0]] = b_lin_free[1]
        return point(b)

    def bisect(target, lam_floor):
        # continuous_sum is nonincreasing in lam
        lam_hi = max(mags.max() if mags.any() else 1.0, lam_floor, 1e-12)
        while continuous_sum(lam_hi) > target and lam_hi < 1e18:
            lam_hi *= 2.0
        lam_lo = lam_hi
        while continuous_sum(lam_lo) < target and lam_lo > max(lam_floor, 1e-18):
            lam_lo = max(lam_lo / 2.0, lam_floor)
        if continuous_sum(lam_lo) < target:
            return lam_lo, False  # slack even at the floor
        if lam_lo == lam_hi or continuous_sum(lam_hi) > target:
            return lam_hi, True  # budget floor still above the target
        # monotone nonincreasing in lam: root-find in log space
        f = lambda u: continuous_sum(math.exp(u)) - target
        loga, logb = math.log(lam_lo), math.log(lam_hi)
        if f(loga) <= 0.0:  # exp/log round-off: the endpoint is the root
            root = loga
        elif f(logb) >= 0.0:
            root = logb
        else:
            root = optimize.brentq(f, loga, logb, xtol=1e-13, rtol=8.9e-16)
        lam = math.exp(root)
        if continuous_sum(lam) < target:
            lam = lam * (1.0 - 1e-12)  # stay on the feasible side
        return lam, True

    if len(lin_idx):
        free = int(lin_idx[np.argmax(mags[lin_idx])])
        # the other linear coordinates sit at b = 1 (continuous_sum has the strict ones)
        lam_star = mags[free]
        remainder = p - (len(lin_idx) - 1) - continuous_sum(lam_star)
        if remainder >= 1.0:
            return finish(lam_star, (free, remainder))
        # the free coordinate is pinned at the knee; rebalance the rest
        lam, tight = bisect(p - len(lin_idx), lam_star)
        if not tight:
            return finish(lam, None)
        value, x = finish(lam, None)
        total = float(sum(ball.hat_N(x)))
        if total > p:
            x *= p / total  # conservative trim; deviation is O(bisection tol)
            value = float(mags @ x)
        return value, x

    lam, tight = bisect(p, 0.0)
    value, x = finish(lam, None)
    if tight:
        b = ball.hat_N(x)
        total = float(sum(b))
        if total > p and total > 0.0:
            # renormalize budgets exactly onto the boundary
            value, x = point(b * (p / total))
    return value, x


def norm_Xp(a, ball):
    """Support function sup { <a, x> : sum hat_N_i(x_i) <= p }, exact.

    The ball may mix tail laws: one ``_allocate`` per combination of per-law
    past-the-knee prefixes, ConfigurationError past 2**15 combinations.
    """
    a = np.asarray(a, dtype=float).ravel()
    if a.size == 0:
        return NormResult(0.0, np.zeros(0))
    if a.size != ball.dim:
        raise ValueError(f"dimension mismatch: {a.size} != {ball.dim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("coefficients must be finite")
    mags = np.abs(a)
    if not mags.any():
        return NormResult(0.0, np.zeros(a.size))

    prefixes = []
    for d, idx in ball.laws:
        order = idx[np.argsort(-mags[idx])]
        k_max = min(len(idx), 1 if d.linear_tail else int(math.floor(ball.p + 1e-12)))
        prefixes.append([order[:k] for k in range(k_max + 1)])
    if math.prod(len(c) for c in prefixes) > 2 ** 15:
        raise ConfigurationError("more than 2**15 past-the-knee sets to enumerate")

    best = (-math.inf, None)
    for combo in itertools.product(*prefixes):
        out = _allocate(mags, ball, np.concatenate(combo))
        if out is not None and out[0] > best[0]:
            best = out

    value, x = best
    return NormResult(value, np.sign(a) * x)


def norm_Xp_dual(a, ball):
    """Lagrangian dual value inf_{lam>0} lam p + sum conjugates.

    Equals norm_Xp for r >= 2 families (convex ball); otherwise it is the
    support function of the convex hull, an upper bound on the norm.
    """
    a = np.asarray(a, dtype=float).ravel()
    mags = np.abs(a)
    if not mags.any():
        return 0.0
    p = ball.p
    lam_min = max([mags[idx].max() for d, idx in ball.laws if d.linear_tail], default=0.0)

    def objective(lam):
        total = lam * p
        for d, idx in ball.laws:
            for ai in mags[idx]:
                v, _ = conjugate_1d(d, ai, lam)
                if math.isinf(v):
                    return math.inf
                total += v
        return total

    lo = max(lam_min, 1e-12)
    hi = max(lo * 2.0, mags.max())
    while objective(hi * 2.0) < objective(hi):
        hi *= 2.0
        if hi > 1e18:
            break
    # golden-section on the convex 1-D dual
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - phi * (hi - lo)
    x2 = lo + phi * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    for _ in range(200):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - phi * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + phi * (hi - lo)
            f2 = objective(x2)
        if hi - lo < 1e-13 * max(1.0, hi):
            break
    return min(objective(lo), objective(hi), objective(lam_min) if lam_min > 0 else math.inf)


# ---------------------------------------------------------------------------
# Membership and boundary parameterization
# ---------------------------------------------------------------------------

def ball_membership(x, ball):
    """(inside, slack) with slack = p - sum hat_N_i(x_i)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (ball.dim,):
        raise ValueError(f"dimension mismatch: {x.shape} != ({ball.dim},)")
    slack = ball.p - float(ball.hat_N_sum(x))
    return slack >= 0.0, slack


def boundary_scale(directions, ball):
    """Radial factors c with sum hat_N_i(c u_i) = p, vectorized."""
    u = np.atleast_2d(np.asarray(directions, dtype=float))
    norms = np.abs(u).max(axis=1)
    if np.any(norms == 0.0):
        raise ValueError("zero direction has no boundary point")
    p = ball.p
    hi = np.full(u.shape[0], (p + 1.0) / norms.min() + 1.0)
    while True:
        vals = ball.hat_N_sum(u * hi[:, None])
        if np.all(vals >= p):
            break
        hi = np.where(vals < p, hi * 2.0, hi)
    lo = np.zeros_like(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        vals = ball.hat_N_sum(u * mid[:, None])
        lo = np.where(vals <= p, mid, lo)
        hi = np.where(vals > p, mid, hi)
    return lo


def _angles_to_dirs(dim, grids):
    if dim == 2:
        (theta,) = grids
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    theta, phi = grids
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    pts = np.stack(
        [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)],
        axis=-1,
    ).reshape(-1, dim)
    return pts[np.linalg.norm(pts, axis=1) > 1e-12]


def _angle_grids(dim, resolution):
    if dim == 2:
        return (np.arange(0.0, 2.0 * math.pi, resolution),)
    return (
        np.arange(0.0, math.pi + resolution, resolution),
        np.arange(0.0, 2.0 * math.pi, resolution),
    )


@functools.lru_cache(maxsize=256)
def _boundary_cloud(ball, resolution):
    """Boundary points at the given angular resolution."""
    if ball.dim == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        dirs = _angles_to_dirs(ball.dim, _angle_grids(ball.dim, resolution))
    c = boundary_scale(dirs, ball)
    return dirs * c[:, None]


def _local_cloud(ball, center_dir, width, resolution):
    """Boundary patch around a direction, for grid refinement."""
    if ball.dim == 1:
        return None
    if ball.dim == 2:
        t0 = math.atan2(center_dir[1], center_dir[0])
        theta = np.arange(t0 - width, t0 + width, resolution)
        dirs = _angles_to_dirs(2, (theta,))
    else:
        u = center_dir / np.linalg.norm(center_dir)
        t0 = math.acos(np.clip(u[2], -1.0, 1.0))
        p0 = math.atan2(u[1], u[0])
        theta = np.arange(t0 - width, t0 + width, resolution)
        phi = np.arange(p0 - width, p0 + width, resolution)
        dirs = _angles_to_dirs(3, (theta, phi))
        if dirs.size == 0:
            return None
    c = boundary_scale(dirs, ball)
    return dirs * c[:, None]


def brute_norm_Xp(a, ball, resolution=1e-2):
    """Grid oracle for norm_Xp on dimensions <= 3.

    Scans a boundary-dense angular grid, then refines around the best
    direction with a 100x finer local grid; the result stays a feasible
    lower bound of the true support function.
    """
    a = np.asarray(a, dtype=float).ravel()
    if ball.dim > 3:
        raise ValueError("brute oracle refuses dimensions > 3")
    pts = _boundary_cloud(ball, float(resolution))
    vals = pts @ a
    best_i = int(np.argmax(vals))
    best = float(vals[best_i])
    local = _local_cloud(ball, pts[best_i], 2.0 * resolution, resolution / 100.0)
    if local is not None:
        best = max(best, float(np.max(local @ a)))
    return best


def brute_norm_XYp(A2, ballX, ballY, grid_resolution=1e-2):
    """Grid oracle for the bilinear norm on dimensions <= 3."""
    A2 = np.asarray(A2, dtype=float)
    if A2.ndim != 2:
        raise ValueError("A2 must be a matrix")
    if A2.shape[0] > 3 or A2.shape[1] > 3:
        raise ValueError("brute oracle refuses dimensions > 3")
    if not A2.any():
        return 0.0
    X = _boundary_cloud(ballX, float(grid_resolution))
    Y = _boundary_cloud(ballY, float(grid_resolution))

    def scan(Xpts, Ypts):
        M = Xpts @ A2
        best = -math.inf
        best_ij = (0, 0)
        chunk = max(1, int(4e7) // max(1, M.shape[0]))
        for start in range(0, Ypts.shape[0], chunk):
            block = M @ Ypts[start : start + chunk].T
            i, j = np.unravel_index(np.argmax(block), block.shape)
            if block[i, j] > best:
                best = float(block[i, j])
                best_ij = (int(i), start + int(j))
        return best, best_ij

    best, (bi, bj) = scan(X, Y)
    lx = _local_cloud(ballX, X[bi], 2.0 * grid_resolution, grid_resolution / 50.0)
    ly = _local_cloud(ballY, Y[bj], 2.0 * grid_resolution, grid_resolution / 50.0)
    refined, _ = scan(lx if lx is not None else X[bi : bi + 1],
                      ly if ly is not None else Y[bj : bj + 1])
    return max(best, refined)


# ---------------------------------------------------------------------------
# Multi-start ascent: the one loop behind every nonconvex supremum
# ---------------------------------------------------------------------------

def _ascend(state, step, tol=_ALT_TOL):
    """Run ``state, value = step(state)`` until the gain stalls.

    Stops once a step gains at most ``tol * max(1, |value|)``; returns
    (value, state, converged).  ``converged`` is False when the iteration
    cap is hit first; every step before the cap gained, so the value kept
    is still the best one seen.
    """
    value = -math.inf
    for _ in range(_ALT_MAX_ITERS):
        state, new_value = step(state)
        if new_value - value <= tol * max(1.0, abs(new_value)):
            return max(value, new_value), state, True
        value = new_value
    return value, state, False


def _best_start(starts, climb):
    """Best (value, point, converged) that ``climb`` reaches from a start.

    A tie keeps the earlier start.  The value is attained by a feasible
    point, so it is a certified lower bound of the supremum.
    """
    best = NormResult(-math.inf, None, False)
    for start in starts:
        value, point, converged = climb(start)
        if value > best.value:
            best = NormResult(value, point, converged)
    best.restarts_used = len(starts)
    return best


def _boundary_starts(first, ball, restarts, seed):
    """``first``, then ``restarts - 1`` seeded points on the ball boundary."""
    starts = [first]
    for i in range(restarts - 1):
        u = rngmod.stream(seed, rngmod.RESTART_STREAM + i).standard_normal(ball.dim)
        nrm = np.linalg.norm(u)
        if nrm == 0.0:
            u[0] = 1.0
            nrm = 1.0
        u /= nrm
        starts.append(u * boundary_scale(u[None, :], ball)[0])
    return starts


def _project_dual_ball(f, q_dual):
    nrm = np.abs(f).max() if math.isinf(q_dual) else lq_norm(f, q_dual)
    if nrm > 1.0:
        return f / nrm
    return f


def _dual_ball_starts(m, q_dual, restarts, seed):
    """e_0 ... e_{m-1}, then ``restarts`` seeded normals in the ell_{q_dual} ball."""
    starts = [np.eye(1, m, k)[0] for k in range(m)]
    for i in range(restarts):
        f = rngmod.stream(seed, rngmod.RESTART_STREAM + i).standard_normal(m)
        starts.append(_project_dual_ball(f, q_dual))
    return starts


# ---------------------------------------------------------------------------
# Bilinear norm by alternating maximization
# ---------------------------------------------------------------------------

def norm_XYp(A2, ballX, ballY, restarts=16, seed=0):
    """sup of x' A2 y over the ball pair, by alternating exact sups.

    Each alternating step is a norm_Xp solve, so the objective is
    nondecreasing and the returned value is a certified lower bound of
    the true bilinear norm.
    """
    A2 = np.asarray(A2, dtype=float)
    if A2.ndim != 2:
        raise ValueError("A2 must be a matrix")
    n1, n2 = A2.shape
    if n1 != ballX.dim or n2 != ballY.dim:
        raise ValueError("ball dimensions do not match the matrix")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if not A2.any():
        return NormResult(0.0, np.zeros(n1 + n2), True, 0)

    def step(state):
        x = norm_Xp(A2 @ state[1], ballX).maximizer
        y = norm_Xp(A2.T @ x, ballY).maximizer
        return (x, y), float(x @ A2 @ y)

    # warm start from the top singular pair, plus seeded ball points
    _, _, vt = np.linalg.svd(A2)
    starts = _boundary_starts(vt[0], ballY, restarts, seed)
    best = _best_start(starts, lambda y: _ascend((None, y), step))
    best.maximizer = np.concatenate(best.maximizer)
    return best
