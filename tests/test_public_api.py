"""The package's public names are pinned: a change to them is deliberate."""

import rlcm

PUBLIC = {
    "C1Result", "C2Result", "CompletenessResult", "ConstructionInfeasibleError",
    "DimensionError", "DinaParams", "DinoParams", "EmConfig", "EmError",
    "ExperimentTable", "FitResult", "GdinaParams", "IdentifiabilityReport",
    "InternalConsistencyError", "InvalidParameterError", "ItemParams",
    "LlmParams", "MonotonicityReport", "MonotonicityViolation",
    "NonIdentifiablePair", "NotApplicableError", "ProportionVector", "QMatrix",
    "ReplicationRecord", "ResponseData", "RrumParams", "SizeLimitError",
    "TMatrix", "ThetaMatrix", "TransformMatrix", "Verdict", "apply_shift",
    "bit_matrix", "build_tmatrix", "build_transform", "c1_only_counterexample",
    "c1_only_design", "check_c1", "check_c2", "check_monotonicity",
    "consistency_experiment", "dina_params_from_theta", "distributions_equal",
    "dominates", "em_fit", "empirical_gamma", "enumerate_profiles",
    "incomplete_counterexample", "is_complete", "loglik", "marginal_vector",
    "mobius_from_marginals", "parameter_distance", "response_distribution",
    "simulate", "superset_sums", "theta_from_params", "verdict",
    "weight_graded_order",
}


def test_public_names_are_pinned():
    assert len(rlcm.__all__) == len(set(rlcm.__all__))
    assert set(rlcm.__all__) == PUBLIC


def test_every_public_name_imports():
    namespace = {}
    exec("from rlcm import *", namespace)
    assert PUBLIC <= namespace.keys()
