import math

import numpy as np
import pytest

from chaosmoments.distributions import WEIBULL, make_distribution
from chaosmoments.functionals import (
    CoefficientTensor,
    alpha_A,
    alpha_inf_A,
    lq_align,
    lq_norm,
    phi_A,
    s_A_surrogate,
)
from chaosmoments.montecarlo import McConfig, mc_beta, mc_expected_sup
from chaosmoments.rng import stream

CFG = McConfig(total_samples=100_000, batches=20, master_seed=5)


def _tensor(entries, q=2.0):
    return CoefficientTensor(np.asarray(entries, dtype=float), q=q)


def test_tensor_validation():
    with pytest.raises(ValueError):
        CoefficientTensor(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        CoefficientTensor(np.full((1, 1, 1), np.nan))
    for q in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            CoefficientTensor(np.ones((1, 1, 1)), q=q)


def test_transpose_swaps_chaos_indices():
    A = _tensor(np.arange(12).reshape(2, 3, 2))
    np.testing.assert_array_equal(A.transposed().entries, np.swapaxes(A.entries, 0, 1))
    assert A.q_dual == 2.0
    assert _tensor(np.ones((1, 1, 1)), q=1.0).q_dual == math.inf


def test_lq_norm_and_alignment_duality():
    gen = stream(41, 0)
    for q in (1.0, 1.5, 2.0, 3.0):
        c = gen.standard_normal(6)
        t = lq_align(c, q)
        # t lies in the dual unit ball and attains the norm
        q_dual = math.inf if q == 1.0 else q / (q - 1.0)
        dual_len = np.abs(t).max() if q_dual == math.inf else lq_norm(t, q_dual)
        assert dual_len <= 1.0 + 1e-12
        assert float(c @ t) == pytest.approx(lq_norm(c, q), rel=1e-12)


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, 4.0])
def test_lq_align_one_nonzero_stays_in_ball(q):
    gen = stream(43, 0)
    for _ in range(500):
        c = np.zeros(int(gen.integers(1, 6)))
        c[gen.integers(c.size)] = gen.standard_normal() * 10.0 ** gen.uniform(-5.0, 5.0)
        t = lq_align(c, q)
        assert np.abs(t).max() <= 1.0
        assert float(c @ t) == pytest.approx(lq_norm(c, q), rel=1e-12)


def test_lq_align_q1_is_sign_pattern():
    t = lq_align(np.array([2.0, -2.0, 0.0]), 1.0)
    np.testing.assert_array_equal(t, [1.0, -1.0, 0.0])


def test_alpha_identity_tensor():
    # a_ijk = delta_ij delta_k0 on 2x2x1: alpha is the euclidean length of w[:, 0]
    A = _tensor(np.eye(2).reshape(2, 2, 1))
    w = np.array([[3.0], [4.0]])
    assert alpha_A(A, w) == pytest.approx(5.0)
    assert alpha_inf_A(A, w) == pytest.approx(4.0)
    assert alpha_inf_A(A, w) <= alpha_A(A, w)


def test_phi_scalar_oracle():
    # a = (1, 1) along j, q = 2, x = (1, 1): single fiber, value (2^4 / 2)^{1/4}
    A = _tensor(np.ones((1, 2, 1)))
    assert phi_A(A, np.ones(2)) == pytest.approx(8.0 ** 0.25, rel=1e-12)


def test_phi_zero_mass_fiber_ignored():
    entries = np.zeros((1, 1, 2))
    entries[0, 0, 0] = 1.0
    A = _tensor(entries)
    assert phi_A(A, np.ones(1)) == pytest.approx(1.0)


def test_s_surrogate_values():
    A = _tensor(np.ones((2, 2, 2)))
    # per-k mass is 4, so the value is (2 * 4^{q/2})^{1/q} at q = 2
    assert s_A_surrogate(A) == pytest.approx(math.sqrt(8.0), rel=1e-12)
    assert s_A_surrogate(_tensor(np.ones((1, 1, 1)))) == 1.0


def test_mc_expected_sup_gaussian_identity():
    # sup over {e1, -e1} of <t, g> is |g_1|, mean sqrt(2/pi)
    T = np.array([[1.0, 0.0], [-1.0, 0.0]])
    est = mc_expected_sup(T, "gaussian", CFG)
    assert est.value == pytest.approx(math.sqrt(2.0 / math.pi), abs=4.0 * est.stderr + 1e-3)


def test_mc_expected_sup_singleton_zero_mean():
    est = mc_expected_sup(np.array([[0.3, -0.7]]), "exponential", CFG)
    assert abs(est.value) <= 4.0 * est.stderr + 1e-3


def test_mc_expected_sup_zero_set():
    est = mc_expected_sup(np.zeros((3, 2)), "gaussian-product", CFG)
    assert est.value == 0.0 and est.stderr == 0.0


def test_mc_expected_sup_lct_law():
    d = make_distribution(WEIBULL, 2.0)
    T = np.array([[1.0], [-1.0]])
    est = mc_expected_sup(T, ("lct", d), CFG)
    # E |X| = integral of e^{-t^2} = sqrt(pi)/2
    assert est.value == pytest.approx(math.sqrt(math.pi) / 2.0, abs=4.0 * est.stderr + 1e-3)


def test_mc_expected_sup_unknown_law():
    with pytest.raises(ValueError):
        mc_expected_sup(np.ones((1, 1)), "uniform", CFG)


def test_mc_beta_homogeneous_in_x():
    gen = stream(43, 0)
    A = _tensor(gen.standard_normal((3, 2, 2)))
    x = gen.standard_normal(2)
    base = mc_beta(A, x, CFG)
    doubled = mc_beta(A, 2.0 * x, CFG)
    # same seed, same draws: scaling is exact
    assert doubled.value == pytest.approx(2.0 * base.value, rel=1e-12)


def test_mc_beta_gaussian_oracle():
    # 1x1x1 unit tensor: beta = E |g| = sqrt(2/pi)
    A = _tensor(np.ones((1, 1, 1)))
    est = mc_beta(A, np.ones(1), CFG)
    assert est.value == pytest.approx(math.sqrt(2.0 / math.pi), abs=4.0 * est.stderr + 1e-3)


def test_reproducibility_bit_identical():
    A = _tensor(stream(47, 0).standard_normal((2, 2, 3)), q=3.0)
    x = np.array([1.0, -0.5])
    a = mc_beta(A, x, CFG)
    b = mc_beta(A, x, CFG)
    assert a.value == b.value and a.stderr == b.stderr
