import math

import numpy as np
import pytest

from chaosmoments import bounds, dual_norms
from chaosmoments.bounds import (
    HILBERT,
    KIND_TERMS,
    KINDS,
    LOWER,
    TWO_SIDED,
    UPPER_GENERAL,
    UPPER_SUBGAUSSIAN,
    assemble_bound,
    subgaussian_gamma,
    term_T1_chaos_mean,
    term_T2_supx,
    term_T3_supy,
    term_T4_sup_f_column,
    term_T5_sup_f_xyp,
    term_T6_operator,
)
from chaosmoments.distributions import EXP_POWER, GAUSSIAN, WEIBULL, make_distribution
from chaosmoments.dual_norms import ConfigurationError, NormResult, ball, norm_Xp, norm_XYp
from chaosmoments.functionals import CoefficientTensor
from chaosmoments.rng import stream

W1 = make_distribution(WEIBULL, 1.0)
W2 = make_distribution(WEIBULL, 2.0)
G = make_distribution(GAUSSIAN)

SCALAR = CoefficientTensor(np.ones((1, 1, 1)))


def test_scalar_terms_closed_form():
    # linear tails, p = 4: the whole budget buys a coordinate value of 4
    bx = ball(W1, 4.0, 1)
    by = ball(W1, 4.0, 1)
    assert term_T1_chaos_mean(SCALAR) == 1.0
    assert term_T2_supx(SCALAR, bx).value == pytest.approx(4.0, rel=1e-9)
    assert term_T3_supy(SCALAR, by).value == pytest.approx(4.0, rel=1e-9)
    assert term_T4_sup_f_column(SCALAR, bx, "rows").value == pytest.approx(4.0, rel=1e-9)
    assert term_T5_sup_f_xyp(SCALAR, bx, by).value == pytest.approx(16.0, rel=1e-9)
    assert term_T6_operator(SCALAR, 4.0).value == pytest.approx(4.0, rel=1e-12)


def test_scalar_two_sided_assembly():
    rep = assemble_bound(SCALAR, TWO_SIDED, 4.0, W1, W1)
    assert set(rep.terms) == {"T1", "T2", "T3", "T4r", "T5"}
    assert rep.terms["T1"] == pytest.approx(1.0)
    assert rep.terms["T5"] == pytest.approx(16.0, rel=1e-9)
    assert rep.total == pytest.approx(29.0, rel=1e-9)


def test_lower_below_upper_general():
    gen = stream(53, 0)
    for q in (1.0, 2.0, 3.0):
        A = CoefficientTensor(gen.standard_normal((3, 2, 2)), q=q)
        lo = assemble_bound(A, LOWER, 3.0, W2, W2, restarts=6)
        hi = assemble_bound(A, UPPER_GENERAL, 3.0, W2, W2, restarts=6)
        assert lo.total <= hi.total + 1e-9


def test_upper_general_term_superset():
    rep = assemble_bound(SCALAR, UPPER_GENERAL, 2.0, W1, W1)
    assert set(rep.terms) == {"T1", "T2", "T3", "T4r", "T4c", "T5", "T6"}


def test_subgaussian_assembly_scales_T1_by_gamma():
    rep = assemble_bound(SCALAR, UPPER_SUBGAUSSIAN, 2.0, G, G)
    assert rep.gamma == pytest.approx(0.5, abs=1e-3)
    assert rep.terms["T1"] == pytest.approx(rep.gamma * 1.0)


def test_subgaussian_rejects_heavy_tail():
    with pytest.raises(ConfigurationError):
        assemble_bound(SCALAR, UPPER_SUBGAUSSIAN, 2.0, G, W1)


def test_hilbert_requires_q_two_but_not_subgaussian():
    A = CoefficientTensor(np.ones((1, 1, 1)), q=3.0)
    with pytest.raises(ConfigurationError):
        assemble_bound(A, HILBERT, 2.0, W1, W1)
    rep = assemble_bound(SCALAR, HILBERT, 2.0, W1, W1)  # r = 1 is allowed
    assert rep.total > 0.0


def test_unknown_kind_rejected():
    with pytest.raises(ConfigurationError):
        assemble_bound(SCALAR, "sharpest", 2.0, W1, W1)
    assert len(KINDS) == 5


@pytest.mark.parametrize("kind", KINDS)
def test_terms_follow_the_kind_table(kind):
    rep = assemble_bound(SCALAR, kind, 2.0, G, G, restarts=2)
    assert tuple(rep.terms) == KIND_TERMS[kind]
    assert rep.total == sum(rep.terms[name] for name in KIND_TERMS[kind])


def test_terms_permutation_invariant():
    gen = stream(59, 0)
    A = CoefficientTensor(gen.standard_normal((3, 3, 2)), q=2.0)
    perm = [2, 0, 1]
    B = CoefficientTensor(A.entries[perm][:, perm, :], q=2.0)
    ra = assemble_bound(A, UPPER_GENERAL, 3.0, W2, W2, restarts=8)
    rb = assemble_bound(B, UPPER_GENERAL, 3.0, W2, W2, restarts=8)
    for name in ra.terms:
        assert ra.terms[name] == pytest.approx(rb.terms[name], rel=1e-6)


def test_restarts_monotone_ascent():
    gen = stream(61, 0)
    A = CoefficientTensor(gen.standard_normal((4, 3, 2)), q=2.0)
    bx = ball(W2, 3.0, 4)
    few = term_T2_supx(A, bx, restarts=1).value
    many = term_T2_supx(A, bx, restarts=16).value
    assert many >= few - 1e-12


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
def test_T6_matches_singular_values_at_q2(q):
    gen = stream(67, 0)
    A = CoefficientTensor(gen.standard_normal((3, 4, 3)), q=q)
    val = term_T6_operator(A, 2.0).value
    if q == 2.0:
        svd = 2.0 * max(np.linalg.svd(S, compute_uv=False)[0] for S in A.entries)
        assert val == pytest.approx(svd, rel=1e-8)
    else:
        assert val > 0.0


def test_T6_reports_its_starts():
    A = CoefficientTensor(PINNED_TENSOR, q=2.0)
    rep = assemble_bound(A, UPPER_GENERAL, 3.0, W2, W2, restarts=3, seed=7)
    diag = rep.diagnostics["T6"]
    assert diag["restarts_used"] == A.n1 * (A.m + 3)  # every (slice, direction) pair
    assert 0 <= diag["winner"] < diag["restarts_used"]
    assert 0.0 <= diag["spread"] <= rep.terms["T6"]
    res = term_T6_operator(A, 3.0, restarts=3, seed=7)
    assert res.value == rep.terms["T6"] == res.start_values[res.winner]  # in the value's units


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
def test_T6_zero_slices_change_nothing(q):
    entries = stream(71, 0).standard_normal((2, 3, 2))
    zero = np.zeros((1, 3, 2))
    plain = term_T6_operator(CoefficientTensor(entries, q=q), 3.0)
    padded = term_T6_operator(CoefficientTensor(np.concatenate([zero, entries, zero]), q=q), 3.0)
    assert padded.value == plain.value and padded.converged
    assert np.array_equal(padded.maximizer, plain.maximizer)
    empty = term_T6_operator(CoefficientTensor(np.zeros((2, 3, 2)), q=q), 3.0)
    assert empty.value == 0.0 and empty.converged


@pytest.mark.parametrize("side", ["rows", "columns"])
@pytest.mark.parametrize("d", [W1, W2], ids=["r1", "r2"])
@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
def test_T4_one_column_is_the_norm_of_the_slice_norms(q, d, side):
    # with m = 1 the dual ball is [-1, 1], and f = 1 attains the supremum
    A = CoefficientTensor(stream(73, 0).standard_normal((3, 2, 1)), q=q)
    T = A if side == "rows" else A.transposed()
    b = ball(d, 3.0, T.n1)
    res = term_T4_sup_f_column(A, b, side, restarts=4, seed=1)
    assert res.value == norm_Xp(np.linalg.norm(T.entries[..., 0], axis=1), b).value


def test_gamma_gaussian_tail_is_half():
    assert subgaussian_gamma(G) == pytest.approx(0.5, abs=1e-3)


def test_gamma_heavy_tail_infinite():
    assert subgaussian_gamma(W1) == math.inf
    assert subgaussian_gamma(make_distribution(EXP_POWER, 1.5)) == math.inf


def test_gamma_stable_under_grid_refinement():
    grid = np.geomspace(0.1, 50.0, 40)
    fine = np.geomspace(0.1, 50.0, 80)
    for d in (G, make_distribution(WEIBULL, 3.0)):
        a = subgaussian_gamma(d, grid)
        b = subgaussian_gamma(d, fine)
        assert a == pytest.approx(b, rel=1e-4)


def test_diagnostics_report_convergence():
    rep = assemble_bound(SCALAR, TWO_SIDED, 2.0, W2, W2)
    for name in ("T2", "T3", "T4r", "T5"):
        assert rep.diagnostics[name]["converged"]


def test_diagnostics_name_the_winning_start():
    A = CoefficientTensor(PINNED_TENSOR, q=2.0)
    rep = assemble_bound(A, UPPER_GENERAL, 3.0, W2, W2, restarts=3, seed=7)
    assert rep.diagnostics["T2"]["winner"] == term_T2_supx(A, ball(W2, 3.0, A.n1), 3, 7).winner
    for diag in rep.diagnostics.values():
        assert 0 <= diag["winner"] < diag["restarts_used"]


def test_diagnostics_report_the_spread_over_starts(monkeypatch):
    # known start values: the best is 5 and the median 3
    found = NormResult(5.0, np.zeros(1), True, 4, 2, (1.0, 2.0, 5.0, 4.0))
    monkeypatch.setattr(bounds, "term_T5_sup_f_xyp", lambda *args: found)
    rep = assemble_bound(SCALAR, TWO_SIDED, 2.0, W2, W2)
    assert rep.terms["T5"] == 5.0
    assert rep.diagnostics["T5"]["spread"] == 2.0
    for name in ("T2", "T3", "T4r"):
        assert rep.diagnostics[name]["spread"] >= 0.0


PINNED_TENSOR = np.array([
    [[0.8, -1.3], [0.2, 0.5], [-0.7, 1.1]],
    [[-0.4, 0.9], [1.6, -0.3], [0.1, -0.6]],
    [[0.3, 0.0], [-1.2, 0.7], [0.9, 0.4]],
])

# upper-general terms at p = 3, seed 7, as .17g, keyed (q, r) at restarts 2
# and (q, r, restarts) otherwise; a refactor of the solvers must leave them
# alone, since they are reported numbers
PINNED_TERMS = {
    (2.0, 1.0): {
        "T1": 3.3615472627943221, "T2": 6.371652304547144,
        "T3": 5.8799351549524816, "T4r": 6.6025471989274642,
        "T4c": 6.7710569114509367, "T5": 15.617147638872442,
        "T6": 6.1010772576718875,
    },
    (2.0, 2.0): {
        "T1": 3.3615472627943221, "T2": 5.057316939440029,
        "T3": 5.0232084701906068, "T4r": 5.4722668828610512,
        "T4c": 5.5325337302951123, "T5": 9.4061080603361873,
        "T6": 6.1010772576718875,
    },
    (1.0, 1.0): {
        "T1": 4.7474435751997586, "T2": 8.8590886905611121,
        "T3": 8.9999714025126742, "T4r": 9.2152955386295066,
        "T4c": 7.6133339133123084, "T5": 20.752746727443633,
        "T6": 8.3462566459461343,
    },
    (2.0, 1.0, 16): {
        "T1": 3.3615472627943221, "T2": 6.3716523045471485,
        "T3": 6.7001573744987439, "T4r": 6.6025476534080854,
        "T4c": 6.7710570433407327, "T5": 15.617147638944575,
        "T6": 6.1010772576718875,
    },
}


@pytest.mark.parametrize("case", sorted(PINNED_TERMS), ids=lambda case: "-".join(map(str, case)))
def test_upper_general_terms_pinned(case):
    q, r, restarts = (*case, 2)[:3]
    d = make_distribution(EXP_POWER, r)
    A = CoefficientTensor(PINNED_TENSOR, q=q)
    rep = assemble_bound(A, UPPER_GENERAL, 3.0, d, d, restarts=restarts, seed=7)
    assert rep.terms.keys() == PINNED_TERMS[case].keys()
    for name, value in PINNED_TERMS[case].items():
        assert rep.terms[name] == pytest.approx(value, rel=1e-12), name


def test_seeded_restarts_need_no_boundary_points(monkeypatch):
    # every climb starts with a support-function step, which ignores the
    # scale of its start, so no bound term solves for a boundary point
    def boundary_scale(*args):
        raise AssertionError("boundary_scale called")

    monkeypatch.setattr(dual_norms, "boundary_scale", boundary_scale)
    d = make_distribution(EXP_POWER, 1.0)
    A = CoefficientTensor(PINNED_TENSOR, q=3.0)
    rep = assemble_bound(A, UPPER_GENERAL, 3.0, d, d, restarts=4, seed=7)
    assert all(math.isfinite(v) and v > 0.0 for v in rep.terms.values())
    b = ball(d, 3.0, 3)
    res = norm_XYp(PINNED_TENSOR[..., 0], b, b, restarts=4)
    assert res.value > 0.0 and len(res.start_values) == 4
