import hashlib
import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from chaosmoments.distributions import (
    EXP_POWER,
    GAUSSIAN,
    WEIBULL,
    InvalidShapeError,
    TailDistribution,
    _exp_power_prime_table,
    make_distribution,
)
from chaosmoments.rng import stream

R_GRID = [1.0, 1.25, 1.5, 2.0, 3.0, 5.0]


@pytest.mark.parametrize("family", [WEIBULL, EXP_POWER])
@pytest.mark.parametrize("r", R_GRID)
def test_normalization_survival_at_one(family, r):
    d = make_distribution(family, r)
    assert d.survival(1.0) == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_gaussian_family_matches_weibull_two():
    g = make_distribution(GAUSSIAN)
    w = make_distribution(WEIBULL, 2.0)
    t = np.linspace(0.0, 5.0, 50)
    np.testing.assert_allclose(g.survival(t), w.survival(t), rtol=1e-12)


@pytest.mark.parametrize("family", [WEIBULL, EXP_POWER])
@pytest.mark.parametrize("r", R_GRID)
def test_tail_function_convex(family, r):
    # chord test for N on [0.05, 8]
    d = make_distribution(family, r)
    t = np.linspace(0.05, 8.0, 200)
    n = d.tail_N(t)
    chords = 0.5 * (n[:-2] + n[2:])
    assert np.all(n[1:-1] <= chords + 1e-10)


@pytest.mark.parametrize("family", [WEIBULL, EXP_POWER])
@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0])
def test_hat_N_quadratic_inside_matches_outside(family, r):
    d = make_distribution(family, r)
    inside = np.array([0.0, 0.3, 0.7, 1.0])
    np.testing.assert_allclose(d.hat_N(inside), inside ** 2, atol=1e-12)
    outside = np.array([1.0, 1.5, 3.0, 7.0])
    np.testing.assert_allclose(d.hat_N(outside), d.tail_N(outside), rtol=1e-12)


@pytest.mark.parametrize("family", [WEIBULL, EXP_POWER])
@pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
def test_tail_inverse_round_trip(family, r):
    d = make_distribution(family, r)
    v = np.geomspace(0.05, 40.0, 60)
    np.testing.assert_allclose(d.tail_N(d.tail_N_inv(v)), v, rtol=1e-8)


@pytest.mark.parametrize("family,r", [(WEIBULL, 1.0), (WEIBULL, 2.5), (EXP_POWER, 1.5)])
def test_sampling_matches_survival_ks(family, r):
    d = make_distribution(family, r)
    gen = stream(424242, 0)
    xs = np.abs(d.sample(gen, 100_000))
    cdf = lambda t: 1.0 - d.survival(t)
    ks = stats.kstest(xs, cdf).statistic
    assert ks < 0.01


@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0])
def test_exp_power_sample_moments_match_quadrature(r):
    # the Gamma-law sampler against moments integrated from the survival
    d = make_distribution(EXP_POWER, r)
    x2 = d.sample(stream(2024, 0), 200_000) ** 2
    for k, vals in ((2, x2), (4, x2 * x2)):
        stderr = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - d.raw_moment(k)) <= 5.0 * stderr, k


def test_sampling_sign_symmetry_and_tail_mass():
    d = make_distribution(WEIBULL, 2.0)
    gen = stream(7, 1)
    xs = d.sample(gen, 200_000)
    assert abs((xs > 0).mean() - 0.5) < 0.01
    assert (np.abs(xs) >= 1.0).mean() == pytest.approx(math.exp(-1.0), abs=0.01)


def test_raw_moments_weibull_linear():
    # survival e^{-t}: E X^2 = Gamma(3) = 2, E X^4 = Gamma(5) = 24
    d = make_distribution(WEIBULL, 1.0)
    assert d.raw_moment(2) == pytest.approx(2.0, rel=1e-8)
    assert d.raw_moment(4) == pytest.approx(24.0, rel=1e-8)
    assert d.raw_moment(3) == 0.0  # symmetric law


@pytest.mark.parametrize("family", [WEIBULL, EXP_POWER])
@pytest.mark.parametrize("r", R_GRID)
def test_second_moment_bracket(family, r):
    # 1/e <= E X^2 and E X^4 <= 1 + 64/e from the normalized tail shape
    d = make_distribution(family, r)
    m2 = d.raw_moment(2)
    m4 = d.raw_moment(4)
    assert m2 >= 1.0 / math.e - 1e-9
    assert m4 <= 1.0 + 64.0 / math.e + 1e-9


@pytest.mark.parametrize("family", [WEIBULL, EXP_POWER])
@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 4.0])
def test_density_integrates_to_survival(family, r):
    d = make_distribution(family, r)
    for t in (0.5, 1.0, 2.0):
        mass, _ = integrate.quad(d.abs_density, t, np.inf)
        assert mass == pytest.approx(d.survival(t), rel=1e-7)


def test_weibull_r1_log_density_at_origin():
    # the density of |X| is e^-t, which is 1 at the origin
    assert make_distribution(WEIBULL, 1.0).log_abs_density(0.0) == 0.0


@pytest.mark.parametrize("family", [WEIBULL, EXP_POWER])
@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 4.0])
def test_density_is_exp_of_log_density(family, r):
    d = make_distribution(family, r)
    t = np.linspace(0.0, 6.0, 61)
    np.testing.assert_array_equal(d.abs_density(t), np.exp(d.log_abs_density(t)))


def test_exp_power_scale_value_r2():
    d = make_distribution(EXP_POWER, 2.0)
    assert d.scale == pytest.approx(0.6367, abs=5e-4)


def test_exp_power_r1_equals_weibull_r1():
    e = make_distribution(EXP_POWER, 1.0)
    w = make_distribution(WEIBULL, 1.0)
    t = np.linspace(0.0, 6.0, 40)
    np.testing.assert_allclose(e.survival(t), w.survival(t), rtol=1e-9)


@pytest.mark.parametrize("r", [0.0, 0.5, 0.999, -1.0, math.nan, math.inf])
def test_invalid_shape_rejected(r):
    with pytest.raises(InvalidShapeError):
        make_distribution(WEIBULL, r)


def test_exp_power_normalization_failure_raises(monkeypatch):
    monkeypatch.setattr(TailDistribution, "survival", lambda self, t: np.float64(0.5))
    with pytest.raises(RuntimeError, match="not e\\^-1"):
        make_distribution(EXP_POWER, 2.0)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        make_distribution("cauchy", 2.0)


def test_sample_count_zero():
    d = make_distribution(WEIBULL, 1.0)
    xs = d.sample(stream(0, 0), 0)
    assert xs.shape == (0,)


@pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
def test_tail_prime_inverse_round_trip(r):
    for family in (WEIBULL, EXP_POWER):
        d = make_distribution(family, r)
        if d.linear_tail:
            with pytest.raises(ValueError):
                d.tail_N_prime_inv(2.0)
            continue
        t = np.geomspace(1.1, float(d.tail_N_inv(200.0)), 30)
        v = d.tail_N_prime(t)
        np.testing.assert_allclose(d.tail_N_prime_inv(v), t, rtol=1e-4)


@pytest.mark.parametrize("r", [3.0, 5.0])
def test_exp_power_tail_finite_past_underflow(r):
    # Q(1/r, (t scale)^r) underflows to 0 before t = 30; N follows the
    # asymptote u - (1/r - 1) log u + lgamma(1/r) of u = (t scale)^r
    d = make_distribution(EXP_POWER, r)
    t = np.array([30.0, 40.0])
    n = d.tail_N(t)
    assert np.all(np.isfinite(n)) and n[0] < n[1]
    np.testing.assert_allclose(n, (t * d.scale) ** r, rtol=1e-2)


@pytest.mark.parametrize("family", [WEIBULL, EXP_POWER])
@pytest.mark.parametrize("r", R_GRID)
def test_survival_and_slope_derive_from_tail_N(family, r):
    d = make_distribution(family, r)
    t = np.geomspace(1e-3, 40.0, 2001)
    n = d.tail_N(t)
    assert np.array_equal(d.survival(t), np.exp(-n))
    if family == EXP_POWER:
        assert np.array_equal(d.tail_N_prime(t), np.exp(d.log_abs_density(t) + n))


#: sha256 of the four arrays of ``_exp_power_prime_table``, taken before the
#: table came from one tail_N pass (numpy 2.4.6, scipy 1.17.1); a change to
#: the exp-power tail path that moves any entry moves a digest
TABLE_SHA256 = {
    1.25: "6c00996c6b62e1a1f187230ae48053c34b37e86a7d54fc8481f4aa1298919ee1",
    1.5: "c7cdda9aecb01992e1d4d0a03e14dce166dca4ee64b38d38b307023beb27d1cf",
    2.0: "84c3ea34e3da4fb50f619d9e85d0db91deee914820a455c2652b5f09bd277cc7",
    3.0: "bd72086311d6259579fdf3927f60881a6ea37fe73ec8084103874cb512c4f26f",
    5.0: "9fc545e0380ff0b81fb5e2a3c530312bd14bcb69238de31feacd4c320f6d9315",
}


@pytest.mark.parametrize("r", sorted(TABLE_SHA256))
def test_exp_power_table_pinned(r):
    digest = hashlib.sha256()
    for a in _exp_power_prime_table(make_distribution(EXP_POWER, r)):
        digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    assert digest.hexdigest() == TABLE_SHA256[r]


def test_exp_power_table_fill_is_one_gammaincc_pass(monkeypatch):
    d = make_distribution(EXP_POWER, 2.0)
    calls = []
    gammaincc = special.gammaincc
    monkeypatch.setattr(special, "gammaincc", lambda a, x: calls.append(np.size(x)) or gammaincc(a, x))
    xs = _exp_power_prime_table.__wrapped__(d)[0]
    assert calls == [xs.size]
