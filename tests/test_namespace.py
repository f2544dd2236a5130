"""The package namespace is the union of its modules' ``__all__`` lists."""

import wcrte

PUBLIC = {
    "__version__", "WCRE_LIMIT", "DEFAULT_SEED", "WCRE_STATISTIC_BOUND", "ORDER_CENTERED",
    "Model", "Uniform", "Exponential", "Rayleigh", "ParetoOne", "Weibull",
    "StephensAlternative", "check_order", "order_from_label", "order_label", "parse_model",
    "closed_wcrte", "closed_wcre", "wcrte_by_quadrature", "wcrte_lower_bound",
    "entropy_bound_offset", "ParseError", "DomainError", "DivergenceError", "NumericError",
    "Sample", "read_sample", "EstimatorKind", "EstimatorSpec", "parse_estimator", "parse_kind",
    "estimate", "clamp_order_stat", "ebrahimi_weights", "max_window", "wcrte_empirical",
    "wcrte_vasicek", "wcrte_ebrahimi", "wcrte_modified_n", "wcrte_lstat",
    "wcrte_lstat_variance", "wcre_empirical", "wcre_vasicek", "wcre_ebrahimi",
    "wcre_modified_n", "wcre_lstat", "wcre_lstat_variance", "McStudyConfig", "McCell",
    "McStudyResult", "run_study", "best_window", "heuristic_window", "derive_stream",
    "study_config_from_json", "GofTest", "parse_test", "CriticalPair", "CriticalValue",
    "critical_values", "competitor_critical_value", "competitor_statistic",
    "default_spacing_window", "statistic_bound", "null_statistic_value",
    "test_statistic_wcrte", "test_statistic_wcre", "GofResult", "uniformity_test",
    "PowerCell", "power_study", "load_reference_tables", "available_tables", "verify_table",
}


def test_public_names_are_unchanged_and_resolve():
    assert len(wcrte.__all__) == len(set(wcrte.__all__))
    assert set(wcrte.__all__) == PUBLIC
    namespace = {}
    exec("from wcrte import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(wcrte, name), name
    assert wcrte.read_sample is wcrte.sample.read_sample
    assert wcrte.DomainError is wcrte.errors.DomainError
