"""Grid oracles for the dual-ball norms, used by the tests as references.

``brute_norm_Xp`` and ``brute_norm_XYp`` maximize over a dense angular grid
of boundary points (dimensions <= 3), so each returns a feasible lower bound
of the exact supremum; ``boundary_scale`` puts directions on the ball
boundary, and ``_allocate`` solves the allocation of one fixed past-the-knee
set.
"""

import functools
import math

import numpy as np

from chaosmoments.dual_norms import _allocations


def boundary_scale(directions, ball):
    """Radial factors c with sum hat_N_i(c u_i) <= p < the sum at the next float.

    That c is the largest float inside wherever the sum is monotone in c, as
    for Weibull laws.  N is convex with N(1) = 1, so N(t) >= t past the knee:
    at 2p / max|u_i| the largest coordinate alone spends more than p.
    Bisection from there stops once every row's midpoint rounds to an end of
    its bracket.
    """
    u = np.atleast_2d(np.asarray(directions, dtype=float))
    p = ball.p
    with np.errstate(divide="ignore", over="ignore"):
        # 0 or nan for a non-finite direction, inf for a zero or tiny one
        hi = 2.0 * p / np.abs(u).max(axis=1)
    if not np.all((hi > 0.0) & (hi < math.inf)):
        raise ValueError("directions need finite coordinates and a finite 2p / max|u_i| to have a boundary point")
    lo, mid = np.zeros(len(u)), 0.5 * hi
    while np.any((lo < mid) & (mid < hi)):
        inside = ball.hat_N_sum(u * mid[:, None]) <= p
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
        mid = 0.5 * (lo + hi)
    return lo


def _allocate(mags, ball, tail_set):
    """``_allocations`` for one past-the-knee set: (value, x), or None if it does not fit."""
    tail = np.isin(np.arange(len(mags)), tail_set)[None, None]
    if tail.sum() > ball.p:
        return None
    values, points = _allocations(mags[None], ball, tail)
    return float(values[0, 0]), points[0, 0]


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
