"""Two-sample tests based on maximal precedence and exceedance statistics.

The primary statistic adds the largest per-cell precedence count to the
largest per-cell exceedance count, which makes the test two-sided and
distribution-free. The package provides exact null and Lehmann-alternative
distributions, randomized-test critical values and decisions, seeded
Monte-Carlo power studies, and a CLI.

A public name loads its defining module when first read (PEP 562), so the
exact null law never loads the Lehmann law.
"""

import importlib

__version__ = "0.1.0"

# each defining module and the public names it exports
_PUBLIC = {
    "combinatorics": "binomial bounded_composition_count log_beta",
    "errors": "BudgetExceededError NumericalError ParameterError",
    "inference": "AlternativeSpec CriticalValue PowerEstimate RandomizedDecision SeededRng"
    " critical_value mc_power randomized_decision sample_pair table_experiment",
    "lehmann": "AlternativeDistribution alternative_distribution exact_power"
    " joint_frequency_pmf_lehmann",
    "null_dist": "NullDistribution asymptotic_null_cdf brute_force_null_distribution"
    " joint_PE_pmf joint_frequency_pmf_null null_distribution",
    "statistics": "FrequencyVector Sample StatisticBundle frequency_vector orders_from_rates"
    " statistic_bundle",
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value
