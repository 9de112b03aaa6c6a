import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosmoments import dual_norms
from chaosmoments.distributions import EXP_POWER, WEIBULL, make_distribution
from chaosmoments.dual_norms import (
    ConfigurationError,
    DualBall,
    _ALT_MAX_ITERS,
    _ascend,
    _best_start,
    _best_starts,
    _conjugates,
    ball,
    ball_membership,
    norm_Xp,
    norm_Xp_dual,
    norm_XYp,
)
from chaosmoments.rng import stream
from grid_oracles import _allocate, boundary_scale, brute_norm_Xp, brute_norm_XYp

W1 = make_distribution(WEIBULL, 1.0)
W2 = make_distribution(WEIBULL, 2.0)
W3 = make_distribution(WEIBULL, 3.0)
E2 = make_distribution(EXP_POWER, 2.0)


def _conjugate(d, a, lam):
    """(value, budget at the maximizer) of the one-coordinate conjugate."""
    value, budget = _conjugates(np.array([a]), ball(d, 2.0, 1), lam)
    return float(value[0]), float(budget[0])


def test_conjugate_small_coefficient_is_quadratic():
    # sup_x (a x - lam x^2) = a^2 / (4 lam) while the maximizer stays inside [-1, 1]
    val, budget = _conjugate(W2, 1.0, 1.0)
    assert val == pytest.approx(0.25, abs=1e-9)
    assert budget == pytest.approx(0.25, abs=1e-9)  # x = 1/2


def test_conjugate_knee_case():
    val, budget = _conjugate(W2, 2.0, 1.0)
    assert val == pytest.approx(1.0, abs=1e-9)
    assert budget == pytest.approx(1.0, abs=1e-9)  # x = 1


@pytest.mark.parametrize("a,lam", [(1.5, 0.7), (3.0, 1.2), (0.2, 2.0), (2.5, 0.4)])
@pytest.mark.parametrize("dist", [W2, W3, E2])
def test_conjugate_matches_grid_scan(a, lam, dist):
    xs = np.linspace(0.0, 60.0, 400_001)
    scan = a * xs - lam * dist.hat_N(xs)
    val, budget = _conjugate(dist, a, lam)
    assert val == pytest.approx(scan.max(), rel=1e-4, abs=5e-4)
    assert budget == pytest.approx(float(dist.hat_N(xs[scan.argmax()])), rel=1e-3, abs=1e-4)


def test_norm_linear_tail_exact_value():
    # a = (1, 1), p = 2, linear tails: optimum splits the budget 1.75 / 0.25
    b = ball(W1, 2.0, 2)
    res = norm_Xp(np.array([1.0, 1.0]), b)
    assert res.value == pytest.approx(2.25, abs=1e-10)
    np.testing.assert_allclose(np.sort(res.maximizer), [0.5, 1.75], atol=1e-8)


def test_norm_gaussian_tail_closed_forms():
    b4 = ball(W2, 4.0, 2)
    assert norm_Xp(np.array([3.0, 4.0]), b4).value == pytest.approx(10.0, rel=1e-9)
    b9 = ball(W2, 9.0, 2)
    # gaussian tails make the ball sqrt(p) B_2, so the unit vector scores sqrt(9)
    assert norm_Xp(np.array([1.0, 0.0]), b9).value == pytest.approx(3.0, rel=1e-9)


def test_membership_at_linear_maximizer():
    b = ball(W1, 2.0, 2)
    inside, _ = ball_membership(np.array([1.75, 0.5]), b)
    assert inside
    outside, slack = ball_membership(np.array([1.8, 0.5]), b)
    assert not outside and slack < 0


def test_boundary_scale_lands_on_boundary():
    b = ball(W2, 3.0, 3)
    dirs = stream(3, 0).standard_normal((20, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = dirs * boundary_scale(dirs, b)[:, None]
    sums = np.array([b.hat_N_sum(x) for x in pts])
    np.testing.assert_allclose(sums, b.p, rtol=1e-10)
    # c is the largest float on or inside the boundary.  A one-hot direction
    # on r = 1 (or r = 2 at p = 1) spends exactly p at c = p / max|u_i|, so
    # that c must come back, not the float below it, also in a call of
    # one-hot rows alone
    dirs = np.vstack([np.eye(3), stream(5, 0).standard_normal((30, 3))])
    for r, p, u in itertools.product([1.0, 1.5, 2.0, 3.0], [1.0, 2.0, 3.5], [dirs[:3], dirs]):
        b = ball(make_distribution(WEIBULL, r), p, 3)
        c = boundary_scale(u, b)
        assert np.all(b.hat_N_sum(u * c[:, None]) <= p)
        assert np.all(b.hat_N_sum(u * np.nextafter(c, math.inf)[:, None]) > p)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_boundary_scale_rejects_nonfinite_directions(bad):
    # a NaN never reaches the level p that the bracket search waits for,
    # and an infinite coordinate has no finite boundary point
    with pytest.raises(ValueError, match="finite"):
        boundary_scale(np.array([[bad, 1.0]]), ball(W2, 2.0, 2))


@pytest.mark.parametrize("tiny", [0.0, 1e-310])
def test_boundary_scale_rejects_directions_without_a_finite_bracket(tiny):
    # 2p / max|u_i| overflows, so no float c can reach the boundary
    with pytest.raises(ValueError, match="finite 2p"):
        boundary_scale(np.array([[1.0, 1.0], [tiny, 0.0]]), ball(W2, 2.0, 2))


@settings(max_examples=40, deadline=None)
@given(
    a=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4),
    scale=st.floats(0.1, 10.0),
)
def test_norm_positive_homogeneous(a, scale):
    a = np.asarray(a)
    b = ball(W2, 3.0, a.size)
    base = norm_Xp(a, b).value
    scaled = norm_Xp(scale * a, b).value
    assert scaled == pytest.approx(scale * base, rel=1e-8, abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(
    a=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=4),
    c=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=4),
)
def test_norm_triangle_inequality(a, c):
    n = min(len(a), len(c))
    a, c = np.asarray(a[:n]), np.asarray(c[:n])
    b = ball(W3, 2.0, n)
    lhs = norm_Xp(a + c, b).value
    rhs = norm_Xp(a, b).value + norm_Xp(c, b).value
    assert lhs <= rhs + 1e-8


@pytest.mark.parametrize("dist", [W1, W2, W3, E2])
def test_inclusion_support_bound(dist):
    # ball inside sqrt(p) B_2 + p B_infty, so the norm is below the sum of supports
    gen = stream(11, 0)
    for _ in range(25):
        n = int(gen.integers(1, 5))
        p = float(gen.uniform(1.0, 9.0))
        a = gen.standard_normal(n)
        b = ball(dist, p, n)
        val = norm_Xp(a, b).value
        cap = math.sqrt(p) * np.linalg.norm(a) + p * np.abs(a).max()
        assert val <= cap + 1e-9


@pytest.mark.parametrize("u", [2.0, 4.0, 8.0])
@pytest.mark.parametrize("dist", [W1, W2, E2])
def test_scaling_in_p(u, dist):
    gen = stream(13, 0)
    for _ in range(10):
        n = int(gen.integers(1, 4))
        p = float(gen.uniform(1.0, 6.0))
        a = gen.standard_normal(n)
        lo = norm_Xp(a, ball(dist, p, n)).value
        hi = norm_Xp(a, ball(dist, u * p, n)).value
        assert lo <= hi + 1e-10  # monotone in p
        assert hi <= u * lo + 1e-8  # doubling-type scaling


@pytest.mark.parametrize("dist", [W2, W3])
def test_duality_gap_convex_case(dist):
    # the relaxation is tight when the ball is convex, i.e. N'(1) >= 2
    # (ones(6) at p = 1 puts the dual's minimizer past twice max|a_i|)
    gen = stream(17, 0)
    cases = [(np.ones(6), 1.0)] + [
        (gen.standard_normal(int(gen.integers(1, 13))), float(gen.uniform(1.0, 8.0)))
        for _ in range(20)
    ]
    for a, p in cases:
        n = a.size
        primal = norm_Xp(a, ball(dist, p, n)).value
        dual = float(norm_Xp_dual(a, ball(dist, p, n)))
        assert dual >= primal - 1e-9
        assert dual - primal <= 1e-7 * max(1.0, primal)


def test_dual_is_support_of_convexified_budget():
    # hat_N of W1 has convex envelope t^2 up to 1/2 and |t| - 1/4 beyond, so
    # the dual's set at p = 2 is [-2.25, 2.25]; the ball itself is [-2, 2]
    b = ball(W1, 2.0, 1)
    assert norm_Xp(np.ones(1), b).value == pytest.approx(2.0, rel=1e-12)
    assert float(norm_Xp_dual(np.ones(1), b)) == pytest.approx(2.25, rel=1e-9)


@pytest.mark.parametrize("dist", [W1, W2, W3, E2])
def test_dual_is_positively_homogeneous(dist):
    b = ball(dist, 2.0, 2)
    a = np.array([1.0, 0.5])
    dual = float(norm_Xp_dual(a, b))
    for s in (1e-100, 1e-12, 1e100):
        scaled = float(norm_Xp_dual(s * a, b))
        assert scaled == pytest.approx(s * dual, rel=1e-12)
        if dist.r >= 2.0 and dist.family == WEIBULL:  # a convex ball: the dual is the norm
            assert scaled == pytest.approx(norm_Xp(s * a, b).value, rel=1e-12)


@pytest.mark.parametrize("r", [1.0001, 1.0000001])
def test_dual_bounds_the_norm_when_a_tail_peak_overflows(r):
    # N'^{-1}(v) = (v / r)^(1 / (r - 1)) overflows for v a little past the knee
    b = ball(make_distribution(WEIBULL, r), 3.0, 3)
    a = np.array([1.0, 0.3, -2.0])
    assert float(norm_Xp_dual(a, b)) >= norm_Xp(a, b).value


@pytest.mark.parametrize("a", [np.ones(3), np.ones(1), np.ones((1, 2))], ids=["long", "short", "2-D"])
def test_dual_rejects_a_wrong_shape(a):
    with pytest.raises(ValueError, match="dimension mismatch"):
        norm_Xp_dual(a, ball(W2, 2.0, 2))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_dual_rejects_non_finite_coefficients(bad):
    with pytest.raises(ValueError, match="finite"):
        norm_Xp_dual(np.array([1.0, bad]), ball(W2, 2.0, 2))


def test_dual_upper_bounds_nonconvex_case():
    b = ball(W1, 2.0, 2)
    a = np.array([1.0, 1.0])
    assert float(norm_Xp_dual(a, b)) >= norm_Xp(a, b).value - 1e-10


def test_dual_gap_small_near_knee():
    # exp-power r = 2 has N'(1) < 2: the ball dents slightly at the knee,
    # leaving a small but genuine relaxation gap
    assert float(E2.tail_N_prime(1.0)) < 2.0
    gen = stream(29, 0)
    for _ in range(8):
        n = int(gen.integers(1, 4))
        p = float(gen.uniform(1.0, 8.0))
        a = gen.standard_normal(n)
        primal = norm_Xp(a, ball(E2, p, n)).value
        dual = float(norm_Xp_dual(a, ball(E2, p, n)))
        assert dual >= primal - 1e-9
        assert dual - primal <= 5e-2 * max(1.0, primal)


@pytest.mark.parametrize("dist,p", [(W1, 2.0), (W1, 4.0), (W2, 3.0), (W3, 2.0)])
def test_norm_matches_brute(dist, p):
    gen = stream(19, 0)
    for _ in range(5):
        n = int(gen.integers(2, 4))
        a = gen.standard_normal(n)
        b = ball(dist, p, n)
        exact = norm_Xp(a, b).value
        brute = brute_norm_Xp(a, b)
        assert exact >= brute - 1e-9  # brute is a feasible-point lower bound
        assert abs(exact - brute) <= 1e-3 * max(1.0, abs(exact))


def test_heterogeneous_ball_mixed_tails():
    b = DualBall(2.0, (W1, W2))
    a = np.array([1.0, 1.0])
    val = norm_Xp(a, b).value
    brute = brute_norm_Xp(a, b, resolution=5e-3)
    assert val >= brute - 1e-9
    assert abs(val - brute) <= 2e-3 * max(1.0, val)
    # a linear and a strict coordinate both past the knee: the optimum is
    # x = (6 - 2 sqrt(2), sqrt(2)), where the marginal values 0.5 and 3 / N'
    # agree; counting the strict coordinate's budget twice misses it
    b = DualBall(6.0, (W1, W3))
    a = np.array([0.5, 3.0])
    val = norm_Xp(a, b).value
    brute = brute_norm_Xp(a, b, resolution=5e-3)
    assert val >= brute - 1e-9
    assert abs(val - brute) <= 2e-3 * max(1.0, val)
    assert val == pytest.approx(3.0 + 2.0 * math.sqrt(2.0), rel=1e-12)


MIXED_LAWS = [make_distribution(WEIBULL, r) for r in (1.0, 1.5, 3.0)] + [
    make_distribution(EXP_POWER, r) for r in (1.0, 1.5, 2.0)
]


def _random_mixed_ball(gen):
    n = int(gen.integers(1, 6))
    tails = tuple(MIXED_LAWS[i] for i in gen.integers(0, len(MIXED_LAWS), n))
    return DualBall(float(gen.uniform(1.0, 7.0)), tails)


def test_ball_groups_coordinates_by_law():
    b = DualBall(3.0, (W2, E2, W2, W1, E2))
    assert [(d, idx.tolist()) for d, idx in b.laws] == [
        (W2, [0, 2]), (E2, [1, 4]), (W1, [3]),
    ]
    x = stream(41, 0).standard_normal((7, 5)) * 2.0
    per_coordinate = sum(b.tails[i].hat_N(x[..., i]) for i in range(b.dim))
    np.testing.assert_array_equal(b.hat_N_sum(x), per_coordinate)
    np.testing.assert_array_equal(
        b.hat_N(x[0]), [float(b.tails[i].hat_N(x[0, i])) for i in range(b.dim)]
    )


def test_mixed_ball_norm_is_the_best_allocation_over_all_tail_sets():
    # per-law prefixes must find what every subset of coordinates finds
    gen = stream(43, 0)
    for _ in range(40):
        b = _random_mixed_ball(gen)
        mags = np.abs(gen.standard_normal(b.dim))
        best = max(
            out[0]
            for k in range(b.dim + 1)
            for tail_set in itertools.combinations(range(b.dim), k)
            if (out := _allocate(mags, b, tail_set)) is not None
        )
        res = norm_Xp(mags, b)
        assert res.value == pytest.approx(best, rel=1e-12, abs=1e-12)
        assert float(b.hat_N_sum(res.maximizer)) <= b.p * (1.0 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_mixed_ball_norm_below_its_convex_relaxation(seed):
    gen = stream(seed, 0)
    b = _random_mixed_ball(gen)
    a = gen.standard_normal(b.dim)
    value = norm_Xp(a, b).value
    assert value <= float(norm_Xp_dual(a, b)) + 1e-9 * max(1.0, value)


def test_too_many_tail_sets_rejected():
    # 16 laws of one coordinate each: 2**16 past-the-knee sets
    laws = tuple(make_distribution(WEIBULL, 1.0 + k / 16.0) for k in range(16))
    with pytest.raises(ConfigurationError):
        norm_Xp(np.ones(16), DualBall(2.0, laws))


@pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
def test_exp_power_ball_at_the_table_top(r):
    # one coordinate spends the whole budget, so the norm is N^{-1}(p)
    d = make_distribution(EXP_POWER, r)
    value = norm_Xp(np.ones(1), ball(d, 512, 1)).value
    assert value == pytest.approx(float(d.tail_N_inv(512.0)), rel=1e-12)
    with pytest.raises(ConfigurationError):
        ball(d, 513, 1)


def test_bilinear_identity_matrix():
    # sup x^T I y over the p = 2 and p = 4 gaussian-tail balls
    b2 = ball(W2, 2.0, 2)
    res = norm_XYp(np.eye(2), b2, b2)
    assert res.value == pytest.approx(2.0, rel=1e-8)
    b4 = ball(W2, 4.0, 2)
    assert norm_XYp(np.eye(2), b4, b4).value == pytest.approx(4.0, rel=1e-8)


def test_bilinear_rank_one_factorizes():
    u = np.array([1.0, -2.0, 0.5])
    v = np.array([0.3, 1.2])
    A2 = np.outer(u, v)
    bx = ball(W2, 3.0, 3)
    by = ball(W2, 3.0, 2)
    res = norm_XYp(A2, bx, by)
    expect = norm_Xp(u, bx).value * norm_Xp(v, by).value
    assert res.value == pytest.approx(expect, rel=1e-7)


@pytest.mark.parametrize("dist,p", [(W1, 2.0), (W2, 4.0), (W3, 2.0)])
def test_bilinear_matches_brute(dist, p):
    gen = stream(23, 0)
    for _ in range(3):
        A2 = gen.standard_normal((2, 2))
        bx = ball(dist, p, 2)
        by = ball(dist, p, 2)
        val = norm_XYp(A2, bx, by).value
        brute = brute_norm_XYp(A2, bx, by)
        assert val >= brute - 1e-9
        assert abs(val - brute) <= 1e-3 * max(1.0, val)


def test_zero_vector_norm_zero():
    b = ball(W2, 2.0, 3)
    assert norm_Xp(np.zeros(3), b).value == 0.0


def test_invalid_ball_rejected():
    for p in (0.5, math.nan, math.inf):
        with pytest.raises(ConfigurationError):
            ball(W2, p, 2)
    with pytest.raises(ConfigurationError):
        DualBall(2.0, ())


def _run_ascend(state, step):
    """(value, state, converged) of the generator ``_ascend`` from one start."""
    res = _best_start([state], lambda s: _ascend(s, step))
    return res.value, res.maximizer, res.converged


def test_ascend_reports_the_iteration_cap():
    # every step gains 1, so the ascent never stalls
    value, state, converged = _run_ascend(0, lambda s: (s + 1, float(s + 1)))
    assert not converged
    assert value == state == _ALT_MAX_ITERS


def test_ascend_stops_on_a_stall_and_keeps_the_best_value():
    values = iter([1.0, 3.0, 2.0])
    value, state, converged = _run_ascend(0, lambda s: (s + 1, next(values)))
    assert converged
    assert value == 3.0
    assert state == 3  # the state of the last step, not of the best one


def test_best_start_keeps_the_earlier_start_on_a_tie():
    starts = [(1.0, "a"), (3.0, "b"), (3.0, "c"), (2.0, "d")]
    res = _best_start(starts, lambda s: (s[0], s[1], s[1] != "b"))
    assert (res.value, res.maximizer, res.converged) == (3.0, "b", False)
    assert res.restarts_used == 4


def test_best_start_records_the_winning_start():
    climb = lambda s: (s, s, True)
    assert _best_start([1.0, 0.5, 4.0, 2.0], climb).winner == 2
    assert _best_start([1.0, 3.0, 3.0, 2.0], climb).winner == 1  # a tie keeps the earlier start


def test_best_start_records_every_start_value():
    climb = lambda s: (s, s, True)
    assert _best_start([1.0, 0.5, 4.0, 2.0], climb).start_values == (1.0, 0.5, 4.0, 2.0)


LOCKSTEP_MATRIX = np.array([[0.8, -1.3], [0.2, 0.5], [-0.7, 1.1]])


def _two_ball_climb(start):
    """``steps`` alternating solves in two balls per step, as T5 makes them."""
    steps, y = start
    bx, by = ball(W1, 2.5, 3), ball(E2, 3.0, 2)
    value = 0.0
    for _ in range(steps):
        x = (yield LOCKSTEP_MATRIX @ y, bx).maximizer
        y = (yield LOCKSTEP_MATRIX.T @ x, by).maximizer
        value = float(x @ LOCKSTEP_MATRIX @ y)
    return value, y, steps != 2


def test_best_start_runs_climbs_in_lockstep(monkeypatch):
    starts = [(3, np.array([1.0, 0.0])), (1, np.array([0.3, -0.9])),
              (0, np.array([1.0, 1.0])), (2, np.array([-0.2, 0.4]))]
    alone = [_best_start([start], _two_ball_climb) for start in starts]
    calls = []
    norm = dual_norms.norm_Xp
    monkeypatch.setattr(dual_norms, "norm_Xp", lambda a, b: calls.append(len(a)) or norm(a, b))
    together = _best_start(starts, _two_ball_climb)
    # one stacked call per ball and round, over the climbs still running
    assert calls == [3, 3, 2, 2, 1, 1]
    assert together.start_values == tuple(res.value for res in alone)
    winner = max(range(len(starts)), key=lambda i: (alone[i].value, -i))
    assert together.winner == winner
    assert together.value == alone[winner].value
    assert together.converged == alone[winner].converged
    assert np.array_equal(together.maximizer, alone[winner].maximizer)


def test_best_starts_gives_each_problem_its_solo_result(monkeypatch):
    first = ([(3, np.array([1.0, 0.0])), (1, np.array([0.3, -0.9]))], _two_ball_climb)
    second = ([(2, np.array([-0.2, 0.4])), (0, np.array([1.0, 1.0])), (3, np.array([0.5, 0.5]))],
              _two_ball_climb)
    plain = ([1.0, 3.0, 3.0], lambda s: (s, s, True))  # a climb that needs no norm_Xp
    calls = []
    norm = dual_norms.norm_Xp
    monkeypatch.setattr(dual_norms, "norm_Xp", lambda a, b: calls.append(len(a)) or norm(a, b))
    alone = [_best_start(*problem) for problem in (first, second, plain)]
    assert calls == [2, 2, 1, 1, 1, 1] + [2, 2, 2, 2, 1, 1]
    assert [res.rows for res in alone] == [8, 10, 0]
    calls.clear()
    together = _best_starts([first, second, plain])
    # one stacked call per ball and round, over the climbs of both problems
    assert calls == [4, 4, 3, 3, 2, 2]
    for res, solo in zip(together, alone, strict=True):
        for key in ("value", "converged", "restarts_used", "winner", "start_values", "rows"):
            assert getattr(res, key) == getattr(solo, key), key
        assert np.array_equal(res.maximizer, solo.maximizer)
