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
law, r = 1).  We enumerate those per-law prefixes as the rows of one
array and solve every concave piece at once for the common marginal
value: the kinks of the budget sum bracket its root, and a closed form or
safeguarded Newton steps inside the bracket find it.

``norm_Xp_dual`` keeps the Lagrangian route, an upper bound on the norm.
"""

import functools
import inspect
import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .distributions import EXP_POWER, EXP_POWER_MAX_N
from .functionals import lq_norm


_ALT_TOL = 1e-9
_ALT_MAX_ITERS = 200
#: last Newton step in log mu of the allocation root, and the step cap
_ROOT_TOL = 1e-10
_ROOT_MAX_ITERS = 100


class ConfigurationError(ValueError):
    """Ball or solver configured outside its contract."""


@dataclass(frozen=True)
class DualBall:
    """Level-p dual ball with one tail distribution per coordinate."""

    p: float
    tails: tuple

    def __post_init__(self):
        if not 1.0 <= self.p < math.inf:
            raise ConfigurationError(f"moment level p = {self.p} violates 1 <= p < inf")
        if not self.tails:
            raise ConfigurationError("ball needs at least one coordinate")
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

    @functools.cached_property
    def _strict(self):
        """(law, indices, N'(1), N' where N = p) per law with r > 1."""
        return tuple((d, i, float(d.tail_N_prime(1.0)), float(d.tail_N_prime_at(self.p)))
                     for d, i in self.laws if not d.linear_tail)

    @functools.cached_property
    def _linear(self):
        """Indices of the linear-tail (r = 1) coordinates, law by law."""
        return np.concatenate([np.zeros(0, int)] + [i for d, i in self.laws if d.linear_tail])

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
    winner: int | None = None  # index of the start ``_best_start`` kept
    start_values: tuple = ()  # the value each start of ``_best_start`` reached
    rows: int = 0  # vectors the climbs of ``_best_start`` sent to norm_Xp


# ---------------------------------------------------------------------------
# Exact support function via budget allocation
# ---------------------------------------------------------------------------

def _branches(mags, ball, mu):
    """Budgets b and elasticities e = mu db/dmu of every coordinate at
    mu = 1/lambda, as (b_quad, e_quad, b_tail, e_tail).  With v = a mu the
    quadratic branch spends min((v/2)^2, 1); past the knee a strict law
    spends 1 until v passes N'(1), then min(N(N'^{-1}(v)), p), and a linear
    law spends 1.  ``mu`` broadcasts against the coordinates."""
    p = ball.p
    v = mags * mu
    bq = (0.5 * v) ** 2
    eq = np.where(bq < 1.0, 2.0 * bq, 0.0)
    bq = np.minimum(bq, 1.0)
    bt = np.ones(v.shape)
    et = np.zeros(v.shape)
    for d, cols, knee, _ in ball._strict:
        w = v[..., cols]
        b, slope = d.tail_N_at_prime_with_slope(w)
        b = np.minimum(b, p)
        past = w > knee
        bt[..., cols] = np.where(past, b, 1.0)
        et[..., cols] = np.where(past & (b < p), w * slope, 0.0)
    return bq, eq, bt, et


def _by_law(ball, sel, method, values, out):
    """out[sel] = method of each coordinate's law at values[sel]."""
    for d, idx in ball.laws:
        here = np.zeros_like(sel)
        here[..., idx] = sel[..., idx]
        if here.any():
            out[here] = getattr(d, method)(values[here])
    return out


def _point(ball, tail, b):
    """The coordinates x >= 0 that spend the budgets b, row by row."""
    return _by_law(ball, tail & (b >= 1.0), "tail_N_inv", b, np.sqrt(b))


@np.errstate(all="ignore")  # huge v saturates; Newton masks its own nans
def _allocations(mags, ball, tail):
    """Maximize sum a_i hat_N_i^{-1}(b_i) over budgets summing to p, per row.

    ``mags`` (B, n) holds B vectors' magnitudes.  Row k of vector v's mask
    ``tail[v]`` (B, K, n) lets at most p coordinates past the knee
    (b_i >= 1); returns the values (B, K) and the points (B, K, n), all in
    the ball.  The KKT budgets rise with mu = 1/lambda; their sum S changes
    formula only at kinks, mu = 2/a_i (saturation), N'(1)/a_i (the knee) and
    N'(N^{-1}(p))/a_i (the clamp), so S at the sorted kinks and their
    middles finds each row's segment.  There Newton on (log mu, log P), P
    the varying part of S, solves S = p from the middle, in one step when P
    is a power law.  Only the largest linear tail (r = 1) takes more than
    the unit budget, with mu pinned at one over its coefficient.  Each
    vector's rows are computed as a call on that vector alone computes them.
    """
    p = ball.p
    vec, rows = np.arange(len(tail))[:, None], np.arange(tail.shape[1])
    inv = 1.0 / mags
    lin = ball._linear
    cap = np.full(tail.shape[:2], np.inf)
    if lin.size:
        free = lin[np.argmax(np.where(tail[..., lin], mags[:, None, lin], -1.0), axis=2)]
        cap = np.where(tail[vec, rows, free], inv[vec, free], np.inf)
    linear = cap < np.inf

    kinks = [np.zeros((len(mags), 1)), 2.0 * inv, inv[:, lin]]
    kinks += [(np.array(k)[:, None] * inv[:, None, c]).reshape(len(mags), -1) for _, c, *k in ball._strict]
    kinks = np.sort(np.concatenate(kinks, axis=1), axis=1)  # inf (a zero a_i) sorts last
    last = (kinks < np.inf).sum(axis=1)[:, None] - 1
    # pad with each vector's last finite kink: a repeated kink moves no segment
    kinks = np.minimum(kinks, kinks[vec, last])[:, :last.max() + 1]
    pts = np.empty((len(mags), 2 * kinks.shape[1] - 1))
    pts[:, 0::2] = kinks
    pts[:, 1::2] = 0.5 * kinks[:, :-1] + 0.5 * kinks[:, 1:]
    # S, its elasticity and its varying part at every point, per row: one matmul
    bq, eq, bt, et = _branches(mags[:, None], ball, pts[..., None])
    quad = np.concatenate((bq, eq, bq * (eq > 0.0)), axis=1)
    sums = quad.sum(axis=2)[..., None] + (
        np.concatenate((bt, et, bt * (et > 0.0)), axis=1) - quad) @ tail.transpose(0, 2, 1)
    sums = sums.reshape(len(mags), 3, pts.shape[1], -1).swapaxes(0, 1)
    spent = sums[0, :, 0::2]
    top = np.where(linear, (kinks[..., None] < cap[:, None]).sum(axis=1), kinks.shape[1] - 1)
    # loose rows need no root: a linear row whose free coordinate takes what
    # is left at its cap, or a row with budget to spare at every mu
    loose = np.where(linear, spent[vec, top, rows] <= p, spent[vec, top, rows] < p)
    j = np.argmax((spent >= p) & (np.arange(kinks.shape[1])[:, None] <= top[:, None]), axis=1)
    seek = ~loose & (spent[vec, j, rows] != p)  # the root is inside segment j
    mid = np.maximum(2 * j - 1, 0)
    s, e, varying = sums[:, vec, mid, rows]
    lo = np.where(s < p, pts[vec, mid], kinks[vec, j - 1])
    hi = np.where(s < p, kinks[vec, j], pts[vec, mid])

    def newton(mu, s, e, varying):
        rest = p - (s - varying)  # what P must reach; nothing (a rounding gap): the root is lo
        guess = np.where(rest > 0.0, mu * np.exp(-np.log(varying / rest) * varying / e), lo)
        return np.where((guess >= lo) & (guess <= hi), guess, 0.5 * lo + 0.5 * hi)

    far = np.minimum(2.0 * kinks[:, -1:], np.finfo(float).max)  # past every kink
    mu = np.where(loose, np.where(linear, cap, far), kinks[vec, j])
    mu = np.where(seek, newton(pts[vec, mid], s, e, varying), mu)
    b, going = np.empty(tail.shape), np.ones(len(tail), dtype=bool)
    for it in range(_ROOT_MAX_ITERS + 1):
        bq, eq, bt, et = _branches(mags[:, None], ball, mu[..., None])
        now, e = np.where(tail, bt, bq), np.where(tail, et, eq)
        s, elastic = now.sum(axis=2), e.sum(axis=2)
        converged = np.abs(p - s) <= _ROOT_TOL * elastic
        # a vector stops once all its rows do, taking the last Newton step in
        # log mu, (p - S) / elasticity <= tol, to first order along the budget path
        stop = going & (np.all(converged | ~seek, axis=1) | (it == _ROOT_MAX_ITERS))
        step = np.where(seek & converged & (elastic > 0.0), (p - s) / elastic, 0.0)[..., None]
        b[stop] = np.where(seek.any(axis=1)[:, None, None], now + e * step, now)[stop]
        going &= ~stop
        if not going.any():
            break
        lo, hi = np.where(s < p, mu, lo), np.where(s < p, hi, mu)
        mu = np.where(seek, newton(mu, s, elastic, (now * (e > 0.0)).sum(axis=2)), mu)

    if lin.size:
        pv, pk = np.nonzero(loose & linear)
        b[pv, pk, free[pv, pk]] = p - (b[pv, pk].sum(axis=1) - 1.0)
    x = _point(ball, tail, b)
    # feasibility fix-ups where the budget binds, from hat_N(x)
    hat = _by_law(ball, ~loose[..., None] & (x > 1.0), "tail_N", x, x * x)
    total = hat.sum(axis=2)
    over = ~loose & (total > p)
    renorm = over & ~linear  # budgets exactly onto the boundary
    if renorm.any():
        x[renorm] = _point(ball, tail[renorm], hat[renorm] * (p / total[renorm])[:, None])
    trim = over & linear  # conservative trim; deviation is O(root tol)
    x[trim] *= (p / total[trim])[:, None]
    return np.array([xv @ m for xv, m in zip(x, mags)]), x


def _tail_sets(mags, ball):
    """The (B, K, n) past-the-knee masks of B vectors, K the same for all."""
    prefixes = []
    for d, idx in ball.laws:
        order = idx[np.argsort(-mags[:, idx], axis=1)]
        k_max = min(len(idx), 1 if d.linear_tail else int(math.floor(ball.p + 1e-12)))
        masks = np.zeros((len(mags), k_max + 1, ball.dim), dtype=bool)
        np.put_along_axis(masks, order[:, None, :k_max], np.arange(k_max + 1)[:, None] > np.arange(k_max), 2)
        prefixes.append(masks)
    if math.prod(m.shape[1] for m in prefixes) > 2 ** 15:
        raise ConfigurationError("more than 2**15 past-the-knee sets to enumerate")
    tail = prefixes[0]
    for masks in prefixes[1:]:  # in itertools.product order
        tail = (tail[:, :, None] | masks[:, None]).reshape(len(mags), -1, ball.dim)
        tail = tail[:, tail[0].sum(axis=1) <= ball.p]
    return tail


def norm_Xp(a, ball):
    """Support function sup { <a, x> : sum hat_N_i(x_i) <= p }, exact.

    ``a`` is one vector (n,), or a stack (B, n) that gives B values and B
    points, each row equal bit for bit to the call on that row alone; n is
    ``ball.dim``, and an empty (0, n) stack is allowed.
    Every combination of per-law past-the-knee prefixes is one candidate row
    of ``_allocations``, all solved together; a tie keeps the earlier
    combination, and more than 2**15 combinations raise ConfigurationError.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim not in (1, 2) or a.shape[-1] != ball.dim:
        raise ValueError(f"dimension mismatch: {a.shape} is not ({ball.dim},) or (B, {ball.dim})")
    stack = a.ndim == 2
    a = a if stack else a[None]
    if not np.isfinite(a).all():
        raise ValueError("coefficients must be finite")
    mags = np.abs(a)
    values, points = np.zeros(len(a)), np.zeros(a.shape)
    live = mags.any(axis=1)
    if live.any():
        found, at = _allocations(mags[live], ball, _tail_sets(mags[live], ball))
        rows, best = np.arange(len(found)), np.argmax(found, axis=1)
        values[live] = found[rows, best]
        points[live] = np.sign(a[live]) * at[rows, best]
    return NormResult(values, points) if stack else NormResult(float(values[0]), points[0])


@np.errstate(over="ignore", invalid="ignore")  # as r -> 1 a tail peak may overflow
def _conjugates(mags, ball, lam):
    """Each coordinate's conjugate sup_x (a_i x - lam hat_N_i(x)) and the
    budget hat_N_i at its maximizer, in one pass over the laws.  The
    quadratic branch peaks at min(a_i / (2 lam), 1); a strict law's tail
    peaks where N'(x) = a_i / lam, kept if higher.  A linear law (r = 1)
    needs lam >= a_i, where its tail falls and its peak is quadratic."""
    v = mags / lam
    x = np.minimum(0.5 * v, 1.0)
    value, budget = mags * x - lam * x * x, x * x
    for d, cols, knee, _ in ball._strict:
        past = cols[v[cols] > knee]
        xt = d.tail_N_prime_inv(v[past])
        bt = d.tail_N(xt)
        vt = mags[past] * xt - lam * bt
        wins = ~(vt <= value[past])  # a nan peak lies past every float: it wins
        value[past[wins]], budget[past[wins]] = vt[wins], bt[wins]
    return value, budget


def norm_Xp_dual(a, ball):
    """Lagrangian dual value inf_{lam>0} lam p + sum conjugates.

    The support function of {x : sum_i conv(hat_N_i)(x_i) <= p}, conv the
    convex envelope: equal to norm_Xp when every hat_N_i is convex
    (N_i'(1) >= 2), else an upper bound that can exceed the support
    function of the ball's convex hull (the 1-D Weibull r = 1 ball at
    p = 2 is [-2, 2], yet the dual gives 2.25).  The dual is convex in lam
    with slope p - sum_i hat_N_i(x_i(lam)), so lam is bisected on the sign
    of that slope until the bracket's ends are adjacent floats; the value
    is positively homogeneous in a.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (ball.dim,):
        raise ValueError(f"dimension mismatch: {a.shape} != ({ball.dim},)")
    if not np.isfinite(a).all():
        raise ValueError("coefficients must be finite")
    mags = np.abs(a)
    if not mags.any():
        return 0.0
    p = ball.p
    # the dual is infinite below the largest linear-tail |a_i|; from max|a_i| on
    # every conjugate is quadratic (a strict tail needs a_i / lam > N'(1) >= 1), so
    # the dual is lam p + |a|^2 / (4 lam), not decreasing past |a| / (2 sqrt p)
    lo = mags[ball._linear].max(initial=0.0)
    hi = max(mags.max(), math.hypot(*mags) / (2.0 * math.sqrt(p)))
    while lo < (mid := 0.5 * lo + 0.5 * hi) < hi:
        if _conjugates(mags, ball, mid)[1].sum() > p:
            lo = mid
        else:
            hi = mid
    return min(float(lam * p + _conjugates(mags, ball, lam)[0].sum()) for lam in (lo, hi) if lam > 0.0)


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------

def ball_membership(x, ball):
    """(inside, slack) with slack = p - sum hat_N_i(x_i)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (ball.dim,):
        raise ValueError(f"dimension mismatch: {x.shape} != ({ball.dim},)")
    slack = ball.p - float(ball.hat_N_sum(x))
    return slack >= 0.0, slack


# ---------------------------------------------------------------------------
# Multi-start ascent: the one loop behind every nonconvex supremum
# ---------------------------------------------------------------------------

def _ascend(state, step, tol=_ALT_TOL):
    """Run ``state, value = step(state)`` until the gain stalls.

    A generator climb for ``_best_starts``: a step that is a generator passes
    its norm_Xp requests through.  Stops once a step gains at most
    ``tol * max(1, |value|)``; returns (value, state, converged).
    ``converged`` is False when the iteration cap is hit first; every step
    before the cap gained, so the value kept is still the best one seen.
    """
    value = -math.inf
    for _ in range(_ALT_MAX_ITERS):
        state, new_value = (yield from out) if inspect.isgenerator(out := step(state)) else out
        if new_value - value <= tol * max(1.0, abs(new_value)):
            return max(value, new_value), state, True
        value = new_value
    return value, state, False


def _best_start(starts, climb):
    """The best result ``climb`` reaches from a start: ``_best_starts`` of one problem."""
    return _best_starts([(starts, climb)])[0]


def _best_starts(problems):
    """Best (value, point, converged) of each ``(starts, climb)`` problem.

    ``climb(start)`` returns that triple, or is a generator that yields each
    ``(vector, ball)`` it needs norm_Xp of and is sent the NormResult.  All
    climbs of all problems run in lockstep, one stacked norm_Xp call per
    ball a round; a row does not depend on its stack, so neither does a
    problem's result.  Per problem, a tie keeps the earlier start (``winner``),
    ``start_values`` lists every start's value and ``rows`` counts the
    vectors sent to norm_Xp.  The value is attained by a feasible point, so
    it is a certified lower bound of the supremum.
    """
    results = [[climb(start) for start in starts] for starts, climb in problems]
    rows = [0] * len(problems)
    replies = {(k, i): None for k, runs in enumerate(results)
               for i, run in enumerate(runs) if inspect.isgenerator(run)}
    while replies:
        asks = {}
        for (k, i), reply in replies.items():
            try:
                vector, ball = results[k][i].send(reply)
            except StopIteration as done:
                results[k][i] = done.value
            else:
                asks.setdefault(ball, {})[k, i] = vector
                rows[k] += 1
        replies = {}
        for ball, group in asks.items():
            res = norm_Xp(np.array(list(group.values())), ball)
            replies.update(zip(group, map(NormResult, res.value.tolist(), res.maximizer)))
    bests = []
    for runs, count in zip(results, rows):
        best = NormResult(-math.inf, None, False)
        for index, (value, point, converged) in enumerate(runs):
            if value > best.value:
                best = NormResult(value, point, converged, winner=index)
        best.restarts_used, best.rows = len(runs), count
        best.start_values = tuple(value for value, _, _ in runs)
        bests.append(best)
    return bests


def _seeded_normals(dim, count, seed):
    """Restart i's standard normal vector, from stream ``RESTART_STREAM + i``, for i < count.
    Unscaled: T2, T3, T5 and norm_XYp open with a support-function step, which ignores scale."""
    return [rngmod.stream(seed, rngmod.RESTART_STREAM + i).standard_normal(dim) for i in range(count)]


def _project_dual_ball(f, q_dual):
    nrm = np.abs(f).max() if math.isinf(q_dual) else lq_norm(f, q_dual)
    if nrm > 1.0:
        return f / nrm
    return f


def _dual_ball_starts(m, q_dual, restarts, seed):
    """e_0 ... e_{m-1}, then ``restarts`` seeded normals in the ell_{q_dual} ball."""
    starts = [np.eye(1, m, k)[0] for k in range(m)]
    return starts + [_project_dual_ball(f, q_dual) for f in _seeded_normals(m, restarts, seed)]


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

    def step(state):
        x = (yield A2 @ state[1], ballX).maximizer
        y = (yield A2.T @ x, ballY).maximizer
        return (x, y), float(x @ A2 @ y)

    # warm start from the top singular pair, plus seeded directions
    _, _, vt = np.linalg.svd(A2)
    starts = [vt[0], *_seeded_normals(n2, restarts - 1, seed)]
    best = _best_start(starts, lambda y: _ascend((None, y), step))
    best.maximizer = np.concatenate(best.maximizer)
    return best
