"""End-to-end acceptance checks.

Each test prints a single PASS line with the observed margin so a log
scan shows the whole gate at a glance.  Thresholds on the statistical
comparisons are empirical calibrations: the underlying comparability
results hold up to universal constants, so the suite records the
constants it sees and fails when they drift past the agreed caps.
"""

import json
import math

import numpy as np
import pytest

from chaosmoments.bounds import (
    HILBERT,
    LOWER,
    TWO_SIDED,
    assemble_bound,
    term_T6_operator,
)
from chaosmoments.distributions import EXP_POWER, WEIBULL, make_distribution
from chaosmoments.dual_norms import ball, norm_Xp
from chaosmoments.functionals import CoefficientTensor, s_A_surrogate
from chaosmoments.harness import parse_config, render_report, run_experiment
from chaosmoments.montecarlo import (
    McConfig,
    estimate_moment_decoupled,
    estimate_moment_undecoupled,
    gk_moment,
    mc_expected_sup,
)
from chaosmoments.rng import stream
from grid_oracles import brute_norm_Xp

SEED = 20260826


def _report(name, detail):
    print(f"[acceptance] {name}: PASS ({detail})")


# -- 1: exact dual norm vs brute-force grid maximization -------------------

def test_acceptance_01_dual_norm_vs_brute():
    gen = stream(SEED, 1)
    r_grid = [1.0, 1.5, 2.0, 3.0]
    p_grid = [1.0, 2.0, 4.0, 8.0]
    worst = 0.0
    for i in range(50):
        r = r_grid[i % 4]
        p = p_grid[(i // 4) % 4]
        n = 1 + i % 3
        d = make_distribution(WEIBULL, r)
        b = ball(d, p, n)
        a = gen.standard_normal(n)
        exact = norm_Xp(a, b).value
        brute = brute_norm_Xp(a, b)
        err = abs(exact - brute) / max(1.0, abs(exact))
        worst = max(worst, err)
        assert err <= 1e-3, (r, p, n, exact, brute)
    _report("dual norm vs brute oracle", f"50 cases, worst rel err {worst:.2e}")


# -- 2: ball inclusion and p-scaling as support-function inequalities ------

def test_acceptance_02_inclusion_and_scaling():
    gen = stream(SEED, 2)
    for case in range(200):
        n = int(gen.integers(1, 5))
        r = float(gen.uniform(1.0, 4.0))
        p = float(gen.uniform(1.0, 8.0))
        a = gen.standard_normal(n)
        d = make_distribution(WEIBULL, r)
        val = norm_Xp(a, ball(d, p, n)).value
        cap = math.sqrt(p) * float(np.linalg.norm(a)) + p * float(np.abs(a).max())
        assert val <= cap + 1e-9, (case, val, cap)
        for u in (2.0, 4.0, 8.0):
            up = norm_Xp(a, ball(d, u * p, n)).value
            assert up <= u * val + 1e-8, (case, u, up, val)
    _report("inclusion and p-scaling", "200 cases x u in {2,4,8}")


# -- 3: linear-form moments vs the dual norm -------------------------------

def test_acceptance_03_linear_form_moments():
    gen = stream(SEED, 3)
    cfg = McConfig(total_samples=1_000_000, batches=32, master_seed=SEED)
    lo, hi, spread_max = math.inf, 0.0, 0.0
    for _ in range(20):
        a = gen.standard_normal(10)
        for r in (1.0, 2.0, 3.0):
            d = make_distribution(WEIBULL, r)
            ratios = []
            ps = (1.0, 2.0, 4.0, 6.0)
            for p, est in zip(ps, gk_moment(a, d, ps, cfg)):  # one draw serves every p
                mc = est.value
                det = norm_Xp(a, ball(d, p, 10)).value
                ratio = mc / det
                ratios.append(ratio)
                lo, hi = min(lo, ratio), max(hi, ratio)
                assert 1.0 / 12.0 <= ratio <= 12.0, (r, p, ratio)
            spread = max(ratios) / min(ratios)
            spread_max = max(spread_max, spread)
            assert spread <= 6.0, (r, ratios)
    _report(
        "linear-form moment comparison",
        f"ratio in [{lo:.3f}, {hi:.3f}], worst p-spread {spread_max:.2f}",
    )


# -- 4: first-moment surrogate against sampling ----------------------------

def test_acceptance_04_mean_surrogate():
    gen = stream(SEED, 4)
    cfg = McConfig(total_samples=100_000, batches=20, master_seed=SEED, unit_variance=True)
    lo, hi = math.inf, 0.0
    for i in range(30):
        q = [1.0, 2.0, 3.0][i % 3]
        r = [1.0, 2.0][i % 2]
        n = int(gen.integers(2, 7))
        m = int(gen.integers(1, 7))
        A = CoefficientTensor(gen.standard_normal((n, n, m)), q=q)
        d = make_distribution(EXP_POWER, r)
        mc = estimate_moment_decoupled(A, d, d, 1.0, cfg).value
        surrogate = s_A_surrogate(A)
        ratio = mc / surrogate
        lo, hi = min(lo, ratio), max(hi, ratio)
        assert 1.0 / 8.0 <= ratio <= 8.0, (q, r, n, m, ratio)
    _report("first-moment surrogate", f"30 ensembles, ratio in [{lo:.3f}, {hi:.3f}]")


# -- shared grid for the sandwich criteria ---------------------------------

GRID_Q = (1.0, 2.0)
GRID_R = (1.0, 2.0)
GRID_P = (2.0, 4.0, 8.0)


@pytest.fixture(scope="module")
def sandwich_grid():
    """Deterministic terms + MC left-hand sides over the flagship grid."""
    cfg = McConfig(total_samples=200_000, batches=32, master_seed=SEED)
    points = {}
    for qi, q in enumerate(GRID_Q):
        for ri, r in enumerate(GRID_R):
            gen = stream(SEED, 5_000 + 2 * qi + ri)
            A = CoefficientTensor(gen.standard_normal((5, 5, 3)), q=q)
            d = make_distribution(EXP_POWER, r)
            for p in GRID_P:
                rep = assemble_bound(A, LOWER, p, d, d, restarts=8, seed=SEED)
                five = rep.total - rep.terms["T4c"]
                upper = rep.total + term_T6_operator(A, p)
                mc = estimate_moment_decoupled(A, d, d, p, cfg).value
                points[(q, r, p)] = {"five": five, "upper": upper, "mc": mc}
    return points


def _sandwich_stats(points, keys):
    K = 0.0
    for key in keys:
        pt = points[key]
        K = max(K, pt["five"] / pt["mc"], pt["mc"] / pt["five"])
    drift = 0.0
    for (q, r, p) in keys:
        nxt = (q, r, 2.0 * p)
        if nxt in points:
            a = points[(q, r, p)]["five"] / points[(q, r, p)]["mc"]
            b = points[nxt]["five"] / points[nxt]["mc"]
            drift = max(drift, b / a, a / b)
    return K, drift


# -- 5: two-sided sandwich over the flagship grid --------------------------

def test_acceptance_05_two_sided_sandwich(sandwich_grid):
    keys = [(q, r, p) for q in GRID_Q for r in GRID_R for p in GRID_P]
    K, drift = _sandwich_stats(sandwich_grid, keys)
    assert K <= 32.0, K
    assert drift <= 4.0, drift
    _report("two-sided sandwich", f"K = {K:.2f} <= 32, p-doubling drift {drift:.2f} <= 4")


# -- 6: Euclidean value space, heavy tails allowed -------------------------

def test_acceptance_06_hilbert_sandwich(sandwich_grid):
    keys = [(2.0, r, p) for r in GRID_R for p in GRID_P]
    K, drift = _sandwich_stats(sandwich_grid, keys)
    assert K <= 32.0, K
    assert drift <= 4.0, drift
    # the q = 2 five-term assembly is exactly the Hilbert-case assembly
    gen = stream(SEED, 6_000)
    A = CoefficientTensor(gen.standard_normal((3, 3, 2)), q=2.0)
    d = make_distribution(EXP_POWER, 1.0)
    a = assemble_bound(A, HILBERT, 3.0, d, d, restarts=4, seed=SEED)
    b = assemble_bound(A, TWO_SIDED, 3.0, d, d, restarts=4, seed=SEED)
    assert a.total == pytest.approx(b.total, rel=1e-12)
    _report("euclidean-value sandwich", f"K = {K:.2f} <= 32, drift {drift:.2f} <= 4")


# -- 7: one-sided general upper bound --------------------------------------

def test_acceptance_07_general_upper(sandwich_grid):
    K = 0.0
    for pt in sandwich_grid.values():
        assert pt["mc"] <= 32.0 * pt["upper"]
        K = max(K, pt["mc"] / pt["upper"])
    gen = stream(SEED, 7_000)
    worst = 0.0
    for _ in range(5):
        A = CoefficientTensor(gen.standard_normal((4, 3, 3)), q=2.0)
        val = term_T6_operator(A, 2.0)
        svd = 2.0 * max(np.linalg.svd(S, compute_uv=False)[0] for S in A.entries)
        worst = max(worst, abs(val - svd) / svd)
        assert val == pytest.approx(svd, rel=1e-8)
    _report(
        "general upper bound",
        f"max mc/upper = {K:.3f} <= 32, operator-term SVD err {worst:.1e}",
    )


# -- 8: decoupled vs undecoupled quadratic forms ---------------------------

def test_acceptance_08_decoupling():
    gen = stream(SEED, 8)
    cfg = McConfig(total_samples=100_000, batches=20, master_seed=SEED, unit_variance=True)
    d = make_distribution(EXP_POWER, 2.0)
    lo, hi = math.inf, 0.0
    for _ in range(20):
        n = 6
        M = gen.standard_normal((n, n))
        A2 = M + M.T
        np.fill_diagonal(A2, 0.0)
        A = CoefficientTensor(A2[:, :, None], q=2.0)
        for p in (2.0, 4.0):
            dec = estimate_moment_decoupled(A, d, d, p, cfg).value
            und = estimate_moment_undecoupled(A2, d, p, cfg).value
            ratio = dec / und
            lo, hi = min(lo, ratio), max(hi, ratio)
            assert 1.0 / 8.0 <= ratio <= 8.0, (p, ratio)
    _report("decoupling comparison", f"20 instances, ratio in [{lo:.3f}, {hi:.3f}]")


# -- 9: process-comparison suite -------------------------------------------

def test_acceptance_09_process_comparisons():
    gen = stream(SEED, 9)
    cfg = McConfig(total_samples=50_000, batches=10, master_seed=SEED)

    # pairwise law comparison on finite sets
    worst_pair = 0.0
    laws = ("exponential", "gaussian-squared-minus-one", "gaussian-product")
    for _ in range(20):
        size = int(gen.integers(2, 33))
        n = int(gen.integers(1, 9))
        T = gen.standard_normal((size, n))
        vals = [mc_expected_sup(T, law, cfg) for law in laws]
        hi = max(v.value + 3.0 * v.stderr for v in vals)
        lo = min(max(v.value - 3.0 * v.stderr, 1e-12) for v in vals)
        worst_pair = max(worst_pair, hi / lo)
        assert hi <= 6.0 * lo, (size, n, [v.value for v in vals])

    # expected fourth-moment functional vs the closed-form surrogate
    worst_phi = 0.0
    for q in (1.0, 2.0, 3.0):
        for _ in range(3):
            n = int(gen.integers(2, 6))
            m = int(gen.integers(1, 4))
            A = CoefficientTensor(gen.standard_normal((n, n, m)), q=q)
            X = gen.laplace(0.0, 1.0 / math.sqrt(2.0), size=(20_000, n))
            b = np.einsum("ijk,aj->aik", A.entries, X)
            mass = np.einsum("ijk,ijk->ik", A.entries, A.entries)
            ratio = np.where(mass > 0.0, b ** 4 / np.where(mass > 0.0, mass, 1.0), 0.0)
            inner = ratio.sum(axis=1)  # over i
            phis = (inner ** (q / 2.0)).sum(axis=1) ** (1.0 / (2.0 * q))
            bound = 10.0 * math.sqrt(s_A_surrogate(A))
            worst_phi = max(worst_phi, phis.mean() / bound)
            assert phis.mean() <= bound, (q, phis.mean(), bound)

    # aggregate contraction vs its Frobenius surrogate
    worst_alpha = 0.0
    for _ in range(10):
        n1, n2, m = 4, 5, 3
        A = CoefficientTensor(gen.standard_normal((n1, n2, m)), q=2.0)
        t = gen.standard_normal(m)
        B = np.einsum("ijk,k->ij", A.entries, t)
        E = gen.laplace(0.0, 1.0 / math.sqrt(2.0), size=(50_000, n2))
        mc = float(np.linalg.norm(E @ B.T, axis=1).mean())
        frob = float(np.linalg.norm(B))
        ratio = max(mc / frob, frob / mc)
        worst_alpha = max(worst_alpha, ratio)
        assert ratio <= 6.0, (mc, frob)

    _report(
        "process comparisons",
        f"law pairs <= {worst_pair:.2f}/6, phi margin {worst_phi:.2f}/1, "
        f"contraction {worst_alpha:.2f}/6",
    )


# -- 10: determinism and serialization -------------------------------------

def test_acceptance_10_determinism(tmp_path):
    doc = json.dumps({
        "ensemble": "dense-gaussian-coefficients",
        "dimensions": {"n1": 3, "n2": 3, "m": 2},
        "grids": {"q": [2], "r": [1, 2], "p": [2, 4]},
        "mc": {"total_samples": 20_000, "batches": 20},
        "instances": 1,
        "restarts": 4,
        "seed": SEED,
    })
    cfg = parse_config(doc)
    first = render_report(run_experiment(cfg, threads=2), "csv")
    second = render_report(run_experiment(cfg, threads=1), "csv")
    assert first == second

    rows = run_experiment(cfg)
    path = tmp_path / "rows.json"
    path.write_text(render_report(rows, "json"))
    from chaosmoments.harness import read_rows

    rows2 = read_rows(str(path))
    assert render_report(rows2, "json") == render_report(rows, "json")
    assert render_report(rows2, "csv") == first
    _report("determinism and serialization", "byte-identical CSV, exact JSON round-trip")
