"""Symmetric log-concave-tail distribution families.

A family is described through the tail function N(t) = -ln P(|X| >= t),
which is convex for shape exponents r >= 1.  Distributions are rescaled so
that the survival function equals e^-1 at t = 1; every downstream norm and
bound assumes that normalization.

Families:

* ``weibull``   -- survival exp(-t^r); already normalized, N(t) = t^r.
* ``gaussian``  -- alias for ``weibull`` with r = 2 (N(t) = t^2).
* ``exp-power`` -- density proportional to exp(-|x|^r); the tail is the
  regularized upper incomplete gamma Q(1/r, t^r), rescaled.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

WEIBULL = "weibull"
GAUSSIAN = "gaussian"
EXP_POWER = "exp-power"

FAMILIES = (WEIBULL, GAUSSIAN, EXP_POWER)

#: survival level defining the normalization scale
_TARGET = math.exp(-1.0)

#: largest N the exp-power interpolation table reaches; past it
#: ``tail_N_prime_inv`` and ``tail_N_at_prime`` would clamp
EXP_POWER_MAX_N = 512.0


def _special():
    """``scipy.special``, imported on first use.

    Only exp-power tails and the Gamma-function moments need it, so a run
    on Weibull-type laws never loads scipy.  Callers look each function up
    on the module at the call, so a patched ``scipy.special`` takes effect.
    """
    from scipy import special

    return special


class InvalidShapeError(ValueError):
    """Shape exponent outside the log-concave-tail range r >= 1."""


@dataclass(frozen=True)
class TailDistribution:
    """A normalized symmetric distribution with log-concave tails."""

    family: str
    r: float
    scale: float

    # -- tail function -------------------------------------------------

    def survival(self, t):
        """P(|X| >= t) for t >= 0."""
        return np.exp(-self.tail_N(t))

    def tail_N(self, t):
        """N(t) = -ln P(|X| >= t), finite past the underflow of P."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise ValueError("tail_N is defined for t >= 0")
        if self.family == EXP_POWER:
            a, u = 1.0 / self.r, (t * self.scale) ** self.r
            with np.errstate(divide="ignore"):
                log_q = np.log(_special().gammaincc(a, u))
            # Q(a, u) ~ u^{a-1} e^{-u} / Gamma(a) once gammaincc underflows
            asym = (a - 1.0) * np.log(np.maximum(u, 1e-300)) - u - math.lgamma(a)
            return -np.where(np.isfinite(log_q), log_q, asym)
        return t ** self.r

    def tail_N_inv(self, b):
        """Inverse of the tail function: t with N(t) = b."""
        b = np.asarray(b, dtype=float)
        if self.family == EXP_POWER:
            u = _special().gammainccinv(1.0 / self.r, np.exp(-b))
            return u ** (1.0 / self.r) / self.scale
        return b ** (1.0 / self.r)

    def tail_N_prime(self, t):
        """Derivative N'(t); nondecreasing by log-concavity."""
        t = np.asarray(t, dtype=float)
        if self.family == EXP_POWER:
            return np.exp(self.log_abs_density(t) + self.tail_N(t))
        return self.r * t ** (self.r - 1.0)

    def tail_N_prime_inv(self, v):
        """Inverse of N' on [1, inf); v must be >= N'(1)."""
        v = np.asarray(v, dtype=float)
        if self.linear_tail:
            raise ValueError("N' is constant for r = 1")
        if self.family == EXP_POWER:
            xs, dns, _, _ = _exp_power_prime_table(self)
            return np.interp(v, dns, xs)
        return (v / self.r) ** (1.0 / (self.r - 1.0))  # weibull: N'(t) = r t^(r-1)

    def tail_N_at_prime(self, v):
        """N evaluated where N' equals v, i.e. N(N'^{-1}(v)).

        Single table interpolation for exp-power tails, which keeps the
        allocator's root search off the slow incomplete-gamma path.
        """
        return self.tail_N_at_prime_with_slope(v)[0]

    def tail_N_at_prime_with_slope(self, v):
        """``tail_N_at_prime(v)`` and its derivative in v: for exp-power
        tails the slope of the interpolated piece, 0 past the table top."""
        v = np.asarray(v, dtype=float)
        if self.linear_tail:
            raise ValueError("N' is constant for r = 1")
        if self.family == EXP_POWER:
            _, dns, ns, slopes = _exp_power_prime_table(self)
            slope = np.where(v < dns[-1], slopes[np.searchsorted(dns[1:-1], v)], 0.0)
            return np.interp(v, dns, ns), slope
        s = self.r / (self.r - 1.0)
        return (v / self.r) ** s, (s / self.r) * (v / self.r) ** (s - 1.0)

    def tail_N_prime_at(self, b):
        """N' where N equals b, the inverse of ``tail_N_at_prime``."""
        b = np.asarray(b, dtype=float)
        if self.family == EXP_POWER:
            _, dns, ns, _ = _exp_power_prime_table(self)
            return np.interp(b, ns, dns)
        return self.r * b ** ((self.r - 1.0) / self.r)

    @property
    def linear_tail(self):
        """True when N is asymptotically linear (r = 1 families)."""
        return self.r == 1.0

    def hat_N(self, t):
        """Quadratic truncation: t^2 on [-1, 1], N(|t|) outside."""
        t = np.abs(np.asarray(t, dtype=float))
        return np.where(t <= 1.0, t * t, self.tail_N(np.maximum(t, 1.0)))

    # -- density of |X| ------------------------------------------------

    def abs_density(self, t):
        """Density of |X| at t >= 0."""
        return np.exp(self.log_abs_density(t))

    def log_abs_density(self, t):
        t = np.asarray(t, dtype=float)
        if self.family == EXP_POWER:
            u = (t * self.scale) ** self.r
            return (
                math.log(self.r * self.scale) - u - math.lgamma(1.0 / self.r)
            )
        with np.errstate(divide="ignore"):
            # no t^(r-1) factor at r = 1, where 0 log 0 would be nan at the origin
            log_factor = 0.0 if self.linear_tail else (self.r - 1.0) * np.log(t)
            return math.log(self.r) + log_factor - t ** self.r

    # -- sampling and moments ------------------------------------------

    def sample(self, rng, count):
        """Sign-symmetrized draws.

        Exp-power magnitudes use that |X|^r follows a Gamma(1/r) law before
        rescaling (the generalized-Gaussian sampler); Weibull-type
        magnitudes invert the survival exp(-t^r) at a uniform.
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        if count == 0:
            return np.empty(0)
        if self.family == EXP_POWER:
            mag = rng.standard_gamma(1.0 / self.r, count) ** (1.0 / self.r)
            mag /= self.scale
        else:
            mag = (-np.log(rng.uniform(size=count))) ** (1.0 / self.r)
        signs = rng.integers(0, 2, size=count) * 2 - 1
        return signs * mag

    def raw_moment(self, k):
        """E X^k in closed form; odd moments are 0 by symmetry.

        Weibull: E|X|^k = Gamma(1 + k/r).  Exp-power: |X| scale has density
        r exp(-y^r) / Gamma(1/r), so E|X|^k = Gamma((k+1)/r) / (Gamma(1/r) scale^k).
        """
        if k % 2 == 1:
            return 0.0
        gamma = _special().gamma
        if self.family == EXP_POWER:
            r = self.r
            return float(gamma((k + 1.0) / r) / (gamma(1.0 / r) * self.scale ** k))
        return float(gamma(1.0 + k / self.r))

    @functools.cached_property
    def variance(self):
        return self.raw_moment(2)

    @property
    def unit_variance_scale(self):
        """Divide draws by this to get a unit-variance view."""
        return math.sqrt(self.variance)


@functools.lru_cache(maxsize=64)
def _exp_power_prime_table(d):
    """Monotone table of (x, N'(x), N(x)) on [1, x_hi] for interpolation,
    with the slope dN/dN' of each interpolated piece."""
    x_hi = float(d.tail_N_inv(EXP_POWER_MAX_N))
    xs = np.geomspace(1.0, x_hi, 1 << 16)
    ns = d.tail_N(xs)
    dns = np.exp(d.log_abs_density(xs) + ns)  # tail_N_prime(xs), one gammaincc pass
    return xs, dns, ns, np.diff(ns) / np.diff(dns)


def make_distribution(family, r=None):
    """Build a normalized distribution of the given family and shape."""
    if family == GAUSSIAN:
        r = 2.0 if r is None else float(r)
        if r != 2.0:
            raise InvalidShapeError("gaussian family is the r = 2 member")
        return TailDistribution(GAUSSIAN, 2.0, 1.0)
    if r is None:
        raise InvalidShapeError("shape exponent r is required")
    r = float(r)
    if not 1.0 <= r < math.inf:
        raise InvalidShapeError(f"shape exponent r = {r} violates 1 <= r < inf (tail convexity)")
    if family == WEIBULL:
        return TailDistribution(WEIBULL, r, 1.0)
    if family == EXP_POWER:
        # Q(1/r, scale^r) = e^-1 at t = 1
        scale = float(_special().gammainccinv(1.0 / r, _TARGET) ** (1.0 / r))
        d = TailDistribution(EXP_POWER, r, scale)
        at_one = float(d.survival(1.0))
        if not abs(at_one - _TARGET) < 1e-10:
            raise RuntimeError(f"exp-power r = {r}: survival at 1 is {at_one!r}, not e^-1")
        return d
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")

