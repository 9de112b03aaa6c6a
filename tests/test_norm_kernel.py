"""The exact norm_Xp kernel: closed forms, pinned values and edge cases."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosmoments import bounds, dual_norms
from chaosmoments.distributions import EXP_POWER, WEIBULL, make_distribution
from chaosmoments.dual_norms import DualBall, ball, norm_Xp
from chaosmoments.functionals import CoefficientTensor
from chaosmoments.rng import stream

SRC = Path(__file__).resolve().parents[1] / "src"


def _ball(laws, p):
    return DualBall(float(p), tuple(make_distribution(f, r) for f, r in laws))


@pytest.mark.parametrize("p", [1.0, 2.5, 8.0, 64.0])
def test_gaussian_ball_is_the_euclidean_ball(p):
    # hat_N(t) = t^2 on both branches for Weibull r = 2: norm = sqrt(p) |a|_2
    gen = stream(61, 0)
    d = make_distribution(WEIBULL, 2.0)
    for _ in range(20):
        n = int(gen.integers(1, 7))
        a = gen.standard_normal(n)
        a[gen.random(n) < 0.3] = 0.0
        if not a.any():
            continue
        res = norm_Xp(a, ball(d, p, n))
        assert res.value == pytest.approx(math.sqrt(p) * np.linalg.norm(a), rel=1e-12)


MIXED_LAWS = [(WEIBULL, r) for r in (1.0, 1.5, 2.0, 3.0)] + [(EXP_POWER, r) for r in (1.0, 1.5, 2.0)]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_norm_is_nondecreasing_in_p_on_mixed_balls(seed):
    gen = stream(seed, 0)
    n = int(gen.integers(1, 6))
    laws = [MIXED_LAWS[k] for k in gen.integers(0, len(MIXED_LAWS), n)]
    a = gen.standard_normal(n)
    ps = np.sort(gen.uniform(1.0, 12.0, 4))
    values = [norm_Xp(a, _ball(laws, p)).value for p in ps]
    for lo, hi in zip(values, values[1:]):
        assert lo <= hi * (1.0 + 1e-12)


A3 = [0.3, -1.2, 0.7]
A4 = [1.1, 0.0, -0.45, 2.3]
A5 = [0.9, -0.9, 0.2, 1.7, -0.05]
E = [(EXP_POWER, r) for r in (1.0, 1.5, 2.0, 3.0)]
W = [(WEIBULL, r) for r in (1.0, 1.5, 2.0, 3.0)]

# (laws, p, a, value); the values were computed with the bisection solver
# that this kernel replaced
PINNED = [
    ([E[0]] * 3, 3.0, A3, 3.7208333333333297),
    ([E[0]] * 4, 8.0, A4, 18.553532608695633),
    ([E[0]] * 5, 1.5, A5, 2.794485294117645),
    ([E[1]] * 3, 2.0, A3, 2.2959714021218764),
    ([E[1]] * 4, 6.5, A4, 10.41323368204717),
    ([E[2]] * 3, 2.0, A3, 2.1937105529693683),
    ([E[2]] * 3, 8.0, A3, 5.249109969680854),
    ([E[2]] * 5, 4.0, A5, 5.0190058905497725),
    ([E[3]] * 3, 5.0, A3, 3.460119123961579),
    ([E[3]] * 4, 2.5, A4, 4.395026715345261),
    ([W[0]] * 3, 2.0, A3, 2.520833333333333),
    ([W[0]] * 5, 7.0, A5, 12.144485294117645),
    ([W[1]] * 3, 4.0, A3, 3.304894800622157),
    ([W[1]] * 5, 2.2, A5, 3.3338484941288384),
    ([W[3]] * 4, 3.0, A4, 4.09913494037053),
    ([W[3]] * 3, 9.5, A3, 3.430919720902915),
    # mixed balls
    ([W[0], W[3], E[2]], 4.0, A3, 2.7971524688252294),
    ([E[0], W[1], E[0], W[1]], 3.0, A4, 5.1107074452934045),
    ([W[0], E[0], W[3], E[1], W[2]], 5.5, A5, 7.056241469844808),
    # as many strict coordinates past the knee as p: they sit at the knee
    ([W[3]] * 3, 2.0, [1.0, 1.0, 1e-3], 2.0000004999999375),
    ([E[1]] * 3, 2.0, [2.0, -2.0, 1e-4], 4.226369590177475),
    # a subnormal coefficient beside 1.0 (2 / a overflows)
    ([W[2]] * 2, 3.0, [5e-324, 1.0], 1.7320508075688772),
    ([E[2]] * 2, 3.0, [5e-324, 1.0], 2.178669806205975),
    ([W[0]] * 2, 3.0, [1.0, 5e-324], 3.0),
    ([E[1]] * 3, 1.0, [5e-324, -1.0, 0.5], 1.118033988749895),
    # the top of the exp-power table
    ([E[2]] * 3, 512.0, A3, 50.08086372731121),
    ([E[1]] * 2, 512.0, [1.0, 0.25], 89.5409039029925),
    # huge magnitudes
    ([E[2]] * 3, 8.0, [1e150 * t for t in A3], 5.249109969680853e150),
    ([W[1]] * 3, 4.0, [1e150 * t for t in A3], 3.3048948006221576e150),
    ([E[0]] * 3, 3.0, [1e150 * t for t in A3], 3.72083333333333e150),
]


@pytest.mark.parametrize("laws,p,a,value", PINNED)
def test_norm_pinned(laws, p, a, value):
    b = _ball(laws, p)
    res = norm_Xp(np.array(a), b)
    assert res.value == pytest.approx(value, rel=1e-12)
    assert float(res.maximizer @ np.array(a)) == pytest.approx(res.value, rel=1e-12)
    assert float(b.hat_N_sum(res.maximizer)) <= p * (1.0 + 1e-12)


@pytest.mark.parametrize("laws,p", [(W[1:2] * 3, 4.0), (E[2:3] * 3, 8.0), (E[:1] * 3, 3.0)])
@pytest.mark.parametrize("scale", [1e150, 1e-150])
def test_norm_homogeneous_at_extreme_magnitudes(laws, p, scale):
    b = _ball(laws, p)
    base = norm_Xp(np.array(A3), b).value
    assert norm_Xp(scale * np.array(A3), b).value == pytest.approx(scale * base, rel=1e-12, abs=0.0)


def test_import_loads_no_root_finder_or_quadrature():
    code = (
        "import sys, chaosmoments; "
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.optimize', 'scipy.integrate'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


T4_TENSOR = CoefficientTensor(np.array([
    [[0.8, -1.3], [0.2, 0.5], [-0.7, 1.1]],
    [[-0.4, 0.9], [1.6, -0.3], [0.1, -0.6]],
    [[0.3, 0.0], [-1.2, 0.7], [0.9, 0.4]],
]), q=2.0)


@pytest.mark.parametrize("q,capped", [(2.0, True), (1.0, False)])
def test_t4_reports_its_step_cap(monkeypatch, q, capped):
    # every climb solves one vector at its start and one per step, so 101
    # solved vectors per start mean every climb ran into the 100-step cap
    calls = []
    norm = dual_norms.norm_Xp
    monkeypatch.setattr(dual_norms, "norm_Xp", lambda a, b: calls.extend(np.atleast_2d(a)) or norm(a, b))
    A = CoefficientTensor(T4_TENSOR.entries, q=q)
    res = bounds.term_T4_sup_f_column(A, ball(make_distribution(WEIBULL, 2.0), 3.0, 3), restarts=1, seed=7)
    starts = A.m + 1
    assert (len(calls) == 101 * starts) == capped
    assert res.converged == (not capped)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 6),
    p=st.sampled_from([1.0, 2.0, 2.5, 3.0, 4.0, 7.3, 8.0]),
    scale=st.sampled_from([1.0, 1e150, 1e-150]),
    homogeneous=st.booleans(),
)
def test_stacked_rows_equal_their_single_calls(seed, rows, p, scale, homogeneous):
    # mixed and homogeneous balls with r = 1 laws among them, zero
    # coordinates and, half the time, one all-zero row
    gen = stream(seed, 0)
    n = int(gen.integers(1, 6))
    picks = gen.integers(0, len(MIXED_LAWS), 1 if homogeneous else n)
    b = _ball([MIXED_LAWS[k] for k in np.resize(picks, n)], p)
    a = gen.standard_normal((rows, n)) * scale
    a[gen.random((rows, n)) < 0.3] = 0.0
    a[int(gen.integers(rows))] *= float(gen.integers(0, 2))
    res = norm_Xp(a, b)
    assert res.value.shape == (rows,) and res.maximizer.shape == (rows, n)
    for k in range(rows):
        one = norm_Xp(a[k], b)
        assert res.value[k] == one.value
        assert np.array_equal(res.maximizer[k], one.maximizer)


def test_stacked_input_checked():
    b = _ball([W[1]] * 3, 2.0)
    for shape in ((2, 4), (0,), (2, 0), (4,), (1, 1, 3), ()):
        with pytest.raises(ValueError, match="dimension"):
            norm_Xp(np.ones(shape), b)
    empty = norm_Xp(np.zeros((0, 3)), b)
    assert empty.value.shape == (0,) and empty.maximizer.shape == (0, 3)
    for bad in (np.nan, np.inf, -np.inf):
        a = np.ones((2, 3))
        a[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            norm_Xp(a, b)
