import chaosmoments

#: the package's top-level exports; moving code between modules keeps them
PUBLIC_NAMES = [
    "HILBERT", "KINDS", "LOWER", "TWO_SIDED", "UPPER_GENERAL", "UPPER_SUBGAUSSIAN",
    "BoundReport", "ComparisonRow", "ConfigurationError", "CoefficientTensor",
    "DualBall", "EXP_POWER", "ExperimentConfig", "GAUSSIAN", "InvalidShapeError",
    "McConfig", "McEstimate", "NormResult", "TailDistribution", "WEIBULL",
    "alpha_A", "alpha_inf_A", "assemble_bound", "ball", "ball_membership",
    "estimate_E_norm_fixed_x", "estimate_moment_decoupled",
    "estimate_moment_undecoupled", "generate_ensemble", "gk_moment",
    "make_distribution", "mc_beta", "mc_expected_sup", "norm_XYp", "norm_Xp",
    "norm_Xp_dual", "parse_config", "phi_A", "render_report", "run_experiment",
    "s_A_surrogate", "subgaussian_gamma", "write_report",
]


def test_public_names_unchanged_and_resolvable():
    assert chaosmoments.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(chaosmoments, name) is not None, name
