import math

import numpy as np
import pytest

from chaosmoments.distributions import GAUSSIAN, WEIBULL, make_distribution
from chaosmoments.dual_norms import ConfigurationError
from chaosmoments.functionals import CoefficientTensor
from chaosmoments.montecarlo import (
    McConfig,
    McEstimate,
    _batched_mean,
    _bilinear,
    estimate_E_norm_fixed_x,
    estimate_moment_decoupled,
    estimate_moment_undecoupled,
    gk_moment,
    mc_beta,
    mc_expected_sup,
)

W1 = make_distribution(WEIBULL, 1.0)
G = make_distribution(GAUSSIAN)

CFG = McConfig(total_samples=200_000, batches=32, master_seed=3, unit_variance=True)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        McConfig(total_samples=100, batches=7)
    with pytest.raises(ConfigurationError):
        McConfig(total_samples=100, batches=32)  # not divisible
    with pytest.raises(ConfigurationError):
        McConfig(total_samples=0, batches=8)  # empty batches
    assert McConfig(total_samples=320, batches=32).batch_size == 10


def test_batched_mean_power_root():
    cfg = McConfig(total_samples=8_000, batches=8, master_seed=9)
    fn = lambda gen, size: gen.standard_normal(size) ** 2
    mean = _batched_mean(cfg, fn)
    root = _batched_mean(cfg, fn, p=2.0)
    assert root.value == mean.value ** 0.5
    assert root.stderr == pytest.approx(mean.stderr * mean.value ** -0.5 / 2.0, rel=1e-15)
    assert root.warning is None and mean.warning is None
    zero = _batched_mean(cfg, lambda gen, size: np.zeros(size), p=3.0)
    assert (zero.value, zero.stderr) == (0.0, 0.0)
    assert _batched_mean(cfg, fn, p=5.0).warning is not None  # ln(8000)/2 ~ 4.5
    assert _batched_mean(cfg, lambda gen, size: np.zeros(size), p=5.0) == McEstimate(0.0, 0.0, 8_000, 9)


def test_batched_mean_deterministic():
    cfg = McConfig(total_samples=8_000, batches=8, master_seed=9)
    fn = lambda gen, size: gen.standard_normal(size) ** 2
    a = _batched_mean(cfg, fn)
    b = _batched_mean(cfg, fn)
    assert a.value == b.value and a.stderr == b.stderr
    assert a.value == pytest.approx(1.0, abs=5.0 * a.stderr + 1e-2)


def test_decoupled_unit_tensor_second_moment():
    # unit variance on both sides: E (X Y)^2 = 1
    A = CoefficientTensor(np.ones((1, 1, 1)))
    est = estimate_moment_decoupled(A, G, G, 2.0, CFG)
    assert est.value == pytest.approx(1.0, abs=0.02)


def test_decoupled_antidiagonal_oracle():
    # |x1 y2 + x2 y1| with unit-variance factors: second moment is 2
    entries = np.zeros((2, 2, 1))
    entries[0, 1, 0] = 1.0
    entries[1, 0, 0] = 1.0
    A = CoefficientTensor(entries)
    est = estimate_moment_decoupled(A, G, G, 2.0, CFG)
    assert est.value == pytest.approx(math.sqrt(2.0), abs=0.02)


def test_gk_heavy_tail_fourth_moment():
    # normalized two-sided exponential: E X^4 / (E X^2)^2 = 24 / 4
    est = gk_moment(np.ones(1), W1, 4.0, CFG)
    assert est.value == pytest.approx(6.0 ** 0.25, abs=0.02)


def test_gk_gaussian_tail_fourth_moment():
    # survival e^{-t^2} means X^2 ~ Exp(1): E X^4 = 2 with E X^2 = 1
    cfg = McConfig(total_samples=200_000, batches=32, master_seed=3)
    est = gk_moment(np.ones(1), G, 4.0, cfg)
    assert est.value == pytest.approx(2.0 ** 0.25, abs=0.02)


def test_undecoupled_antidiagonal():
    A2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    est = estimate_moment_undecoupled(A2, G, 2.0, CFG)
    assert est.value == pytest.approx(2.0, abs=0.05)


def test_undecoupled_shape_rejections():
    with pytest.raises(ValueError):
        estimate_moment_undecoupled(np.ones((2, 3)), G, 2.0, CFG)
    with pytest.raises(ValueError):
        estimate_moment_undecoupled(np.array([[0.0, 1.0], [2.0, 0.0]]), G, 2.0, CFG)
    with pytest.raises(ValueError):
        estimate_moment_undecoupled(np.eye(2), G, 2.0, CFG)


def test_fixed_x_expected_norm():
    # E |X| for survival e^{-t^2} is the integral of the survival: sqrt(pi)/2
    A = CoefficientTensor(np.ones((1, 1, 1)))
    est = estimate_E_norm_fixed_x(A, np.ones(1), G, CFG)
    assert est.value == pytest.approx(math.sqrt(math.pi) / 2.0, abs=0.01)


def test_moment_monotone_in_p_shared_seed():
    A = CoefficientTensor(np.ones((2, 2, 1)))
    values = [
        estimate_moment_decoupled(A, W1, W1, p, CFG).value for p in (1.0, 2.0, 4.0)
    ]
    assert values == sorted(values)


def test_reliability_flag_for_large_p():
    cfg = McConfig(total_samples=1_000, batches=10, master_seed=1)
    est = gk_moment(np.ones(2), W1, 6.0, cfg)  # ln(1000)/2 ~ 3.45
    assert est.warning is not None
    est2 = gk_moment(np.ones(2), W1, 2.0, cfg)
    assert est2.warning is None


def test_zero_tensor_estimates_zero():
    A = CoefficientTensor(np.zeros((2, 2, 2)) + 0.0)
    A = CoefficientTensor(np.concatenate([np.zeros((2, 2, 1)), np.zeros((2, 2, 1))], axis=2))
    est = estimate_moment_decoupled(A, G, G, 2.0, CFG)
    assert est.value == 0.0 and est.stderr == 0.0


def test_p_below_one_rejected():
    A = CoefficientTensor(np.ones((1, 1, 1)))
    with pytest.raises(ValueError):
        estimate_moment_decoupled(A, G, G, 0.5, CFG)
    with pytest.raises(ValueError):
        gk_moment(np.ones(1), G, 0.5, CFG)
    with pytest.raises(ValueError):  # checked before the zero short-circuit
        gk_moment(np.zeros(1), G, 0.5, CFG)


def test_moment_ratio_hypercontractive():
    # fourth-to-second moment ratio stays within the comparison window
    A = CoefficientTensor(np.ones((2, 2, 1)))
    m2 = estimate_moment_decoupled(A, G, G, 2.0, CFG).value
    m4 = estimate_moment_decoupled(A, G, G, 4.0, CFG).value
    assert m2 <= m4 <= 4.0 * m2


@pytest.mark.parametrize("size", [1, 625])
@pytest.mark.parametrize(
    "shape,density",
    [((4, 4, 3), 1.0), ((3, 5, 1), 1.0), ((5, 4, 2), 0.2), ((3, 3, 2), 0.0)],
)
def test_bilinear_matches_three_operand_einsum(size, shape, density):
    gen = np.random.default_rng(11)
    n1, n2, _ = shape
    A = gen.standard_normal(shape) * (gen.uniform(size=shape) < density)
    X = gen.standard_normal((size, n1))
    Y = gen.laplace(size=(size, n2))
    ref = np.einsum("ai,ijk,aj->ak", X, A, Y)
    got = _bilinear(X, A.reshape(n1, -1), Y)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


_LEVEL_CFG = McConfig(total_samples=4000, batches=8, master_seed=5)
_LEVELS = [(q, p) for q in (1.0, 1.5, 2.0, 3.0) for p in (1.0, 2.0, 4.0, 7.0)]


@pytest.mark.parametrize("unit_variance", [False, True])
@pytest.mark.parametrize("zero", [False, True])
def test_level_list_equals_per_level_calls(unit_variance, zero):
    cfg = McConfig(total_samples=4000, batches=8, master_seed=5, unit_variance=unit_variance)
    entries = np.zeros((3, 2, 2)) if zero else np.random.default_rng(4).standard_normal((3, 2, 2))
    dX, dY = make_distribution(WEIBULL, 1.5), G
    shared = estimate_moment_decoupled(CoefficientTensor(entries), dX, dY, _LEVELS, cfg)
    alone = [
        estimate_moment_decoupled(CoefficientTensor(entries, q), dX, dY, p, cfg)
        for q, p in _LEVELS
    ]
    assert shared == alone  # bit for bit, warnings included
    # p = 7 passes ln(4000)/2 ~ 4.1 and warns unless the tensor is zero
    assert [e.warning is not None for e in shared] == [p == 7.0 and not zero for _, p in _LEVELS]


def test_level_list_needs_valid_q():
    A = CoefficientTensor(np.ones((1, 1, 1)))
    for q in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            estimate_moment_decoupled(A, G, G, [(2.0, 2.0), (q, 2.0)], _LEVEL_CFG)
    with pytest.raises(ValueError):  # every p is checked, the zero input included
        estimate_moment_decoupled(CoefficientTensor(np.zeros((1, 1, 1))), G, G,
                                  [(2.0, 2.0), (2.0, 0.5)], _LEVEL_CFG)


@pytest.mark.parametrize("a", [np.array([0.3, -1.2, 2.0]), np.zeros(3)])
def test_gk_p_list_equals_per_p_calls(a):
    ps = (1.0, 2.0, 4.0, 7.0)
    shared = gk_moment(a, W1, ps, _LEVEL_CFG)
    assert shared == [gk_moment(a, W1, p, _LEVEL_CFG) for p in ps]


def test_batched_mean_columns_equal_one_column_calls():
    cfg = McConfig(total_samples=8_000, batches=8, master_seed=9)
    fns = [lambda gen, size: gen.standard_normal(size) ** 2, lambda gen, size: np.zeros(size)]
    columns = _batched_mean(cfg, lambda gen, size: [fn(gen, size) for fn in fns], [None, 3.0])
    assert columns == [_batched_mean(cfg, fns[0]), _batched_mean(cfg, fns[1], 3.0)]


@pytest.mark.parametrize("seed", [-1, 1 << 64, 1.5, True, "3", None])
def test_master_seed_must_be_an_integer_in_range(seed):
    with pytest.raises(ConfigurationError):
        McConfig(master_seed=seed)


@pytest.mark.parametrize("field,value", [
    ("total_samples", 4000.0),
    ("batches", 8.0),
    ("unit_variance", "no"),
    ("unit_variance", 1),
])
def test_field_types_checked_from_annotations(field, value):
    with pytest.raises(ConfigurationError, match=f"{field} must be"):
        McConfig(**{"total_samples": 4000, "batches": 8, field: value})


def test_master_seed_extremes_accepted():
    for seed in (0, (1 << 64) - 1, np.uint64((1 << 64) - 1)):
        cfg = McConfig(total_samples=80, batches=8, master_seed=seed)
        assert gk_moment(np.ones(2), G, 2.0, cfg).seed == seed


_ZERO = CoefficientTensor(np.zeros((3, 2, 2)))
_ZERO_CFG = McConfig(total_samples=4000, batches=8, master_seed=11, unit_variance=True)


@pytest.mark.parametrize("estimates", [
    lambda: estimate_moment_decoupled(_ZERO, W1, G, [(2.0, 2.0), (2.0, 7.0)], _ZERO_CFG),
    lambda: [estimate_moment_undecoupled(np.zeros((3, 3)), W1, p, _ZERO_CFG) for p in (2.0, 7.0)],
    lambda: [estimate_E_norm_fixed_x(_ZERO, np.ones(3), G, _ZERO_CFG)],
    lambda: gk_moment(np.zeros(3), W1, [2.0, 7.0], _ZERO_CFG),
    lambda: [mc_expected_sup(np.zeros((2, 3)), "gaussian-product", _ZERO_CFG)],
    lambda: [mc_beta(_ZERO, np.ones(2), _ZERO_CFG)],
], ids=["decoupled", "undecoupled", "fixed-x", "gk", "expected-sup", "beta"])
def test_zero_input_takes_the_general_path(estimates):
    # a zero estimate is exact, so it carries no heavy-tail warning, even at
    # p = 7, past ln(4000)/2 ~ 4.1
    for est in estimates():
        assert est == McEstimate(0.0, 0.0, 4000, 11, warning=None)


def test_zero_input_still_checks_the_law():
    with pytest.raises(ValueError, match="unknown law"):
        mc_expected_sup(np.zeros((2, 3)), "bogus", _ZERO_CFG)
