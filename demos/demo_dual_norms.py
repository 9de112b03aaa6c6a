"""The level-p dual-ball norms, exactly and by brute force.

The norm |a|_{X,p} is the support function of the ball
{x : sum_i hat_N(x_i) <= p}.  For tail exponents r < 2 that ball is not
convex -- its boundary dents inward at the knee |x_i| = 1 -- and the
usual Lagrangian relaxation overshoots.  The exact solver allocates the
tail budget p across coordinates instead; this script shows the gap on
a heavy-tailed example and verifies the exact values against a grid
search.
"""

import numpy as np

from chaosmoments import WEIBULL, ball, make_distribution, norm_Xp, norm_Xp_dual


def grid_search(a, b, steps=100_000):
    """Best <a, x> over boundary points of a planar ball at evenly spaced angles."""
    theta = np.linspace(0.0, 2.0 * np.pi, steps, endpoint=False)
    u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    # bisect each radius: N(t) >= t past the knee, so at 2p / max|u_i| the
    # largest coordinate alone spends more than the budget p
    lo, hi = np.zeros(steps), 2.0 * b.p / np.abs(u).max(axis=1)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        inside = b.hat_N_sum(u * mid[:, None]) <= b.p
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    return float(np.max(u * lo[:, None] @ a))


def main():
    w1 = make_distribution(WEIBULL, 1.0)
    a = np.array([1.0, 1.0])
    b = ball(w1, 2.0, 2)

    exact = norm_Xp(a, b)
    relaxed = float(norm_Xp_dual(a, b))
    grid = grid_search(a, b)
    print("linear tails (r = 1), a = (1, 1), p = 2:")
    print(f"  exact primal      = {exact.value:.6f}   maximizer {exact.maximizer}")
    print(f"  grid search       = {grid:.6f}")
    print(f"  convex relaxation = {relaxed:.6f}   <- overshoots on the nonconvex ball")

    print("\ngaussian tails (r = 2): the ball is sqrt(p) B_2 and the norm is euclidean:")
    w2 = make_distribution(WEIBULL, 2.0)
    a = np.array([3.0, 4.0])
    for p in (1.0, 4.0, 9.0):
        res = norm_Xp(a, ball(w2, p, 2))
        print(f"  p = {p:3.0f}   |a|_X,p = {res.value:.6f}   (sqrt(p)|a|_2 = {np.sqrt(p) * 5.0:.6f})")

    print("\nthe relaxation is tight once the ball is convex (r >= 2):")
    gen = np.random.default_rng(7)
    for r in (2.0, 3.0):
        d = make_distribution(WEIBULL, r)
        c = gen.standard_normal(3)
        bb = ball(d, 3.0, 3)
        primal = norm_Xp(c, bb).value
        dual = float(norm_Xp_dual(c, bb))
        print(f"  r = {r:.0f}   primal = {primal:.8f}   relaxation = {dual:.8f}"
              f"   gap = {dual - primal:.1e}")


if __name__ == "__main__":
    main()
