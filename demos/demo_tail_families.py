"""Tour of the normalized tail families.

Every distribution here is calibrated so that P(|X| >= 1) = 1/e, which
makes their level sets directly comparable: the tail exponent r is the
only remaining knob.  The script prints survival values, the tail
function N = -ln P(|X| >= t) with its quadratic truncation, and a quick
sampling check against the analytic tail mass.
"""

import math

import numpy as np

from chaosmoments import EXP_POWER, GAUSSIAN, WEIBULL, make_distribution
from chaosmoments.rng import stream


def main():
    print("survival at t = 1 (all families share P(|X| >= 1) = 1/e):")
    for family, r in [(WEIBULL, 1.0), (WEIBULL, 2.0), (GAUSSIAN, 2.0),
                      (EXP_POWER, 1.0), (EXP_POWER, 2.0), (EXP_POWER, 4.0)]:
        d = make_distribution(family, r)
        print(f"  {family:10s} r={r:.1f}  survival(1) = {float(d.survival(1.0)):.6f}"
              f"   (1/e = {math.exp(-1.0):.6f})")

    print("\ntail function N(t) and its quadratic truncation hat_N(t):")
    d = make_distribution(EXP_POWER, 2.0)
    for t in (0.5, 1.0, 2.0, 4.0):
        print(f"  t = {t:3.1f}   N = {float(d.tail_N(t)):8.4f}"
              f"   hat_N = {float(d.hat_N(t)):8.4f}")

    print("\nheavier tails keep more mass far out (t = 4):")
    for r in (1.0, 1.5, 2.0, 3.0):
        d = make_distribution(WEIBULL, r)
        print(f"  r = {r:.1f}   P(|X| >= 4) = {float(d.survival(4.0)):.2e}")

    print("\nsampling check, 200k draws of the exp-power r = 2 family:")
    d = make_distribution(EXP_POWER, 2.0)
    xs = d.sample(stream(0, 0), 200_000)
    print(f"  empirical P(|X| >= 1) = {(np.abs(xs) >= 1.0).mean():.4f}")
    print(f"  empirical E X^2       = {np.mean(xs ** 2):.4f}"
          f"   (closed form: {d.raw_moment(2):.4f})")


if __name__ == "__main__":
    main()
