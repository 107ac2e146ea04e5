"""Two-sample tests based on maximal precedence and exceedance statistics.

The primary statistic adds the largest per-cell precedence count to the
largest per-cell exceedance count, which makes the test two-sided and
distribution-free. The package provides exact null and Lehmann-alternative
distributions, randomized-test critical values and decisions, seeded
Monte-Carlo power studies, and a CLI.
"""

from .combinatorics import binomial, bounded_composition_count, log_beta
from .errors import BudgetExceededError, NumericalError, ParameterError
from .inference import (
    AlternativeSpec,
    CriticalValue,
    PowerEstimate,
    RandomizedDecision,
    SeededRng,
    critical_value,
    mc_power,
    randomized_decision,
    sample_pair,
    table_experiment,
)
from .lehmann import (
    AlternativeDistribution,
    alternative_distribution,
    exact_power,
    joint_frequency_pmf_lehmann,
)
from .null_dist import (
    NullDistribution,
    asymptotic_null_cdf,
    brute_force_null_distribution,
    joint_PE_pmf,
    joint_frequency_pmf_null,
    null_distribution,
)
from .statistics import (
    FrequencyVector,
    Sample,
    StatisticBundle,
    frequency_vector,
    orders_from_rates,
    statistic_bundle,
)

__version__ = "0.1.0"

__all__ = [
    "AlternativeDistribution",
    "AlternativeSpec",
    "BudgetExceededError",
    "CriticalValue",
    "FrequencyVector",
    "NullDistribution",
    "NumericalError",
    "ParameterError",
    "PowerEstimate",
    "RandomizedDecision",
    "Sample",
    "SeededRng",
    "StatisticBundle",
    "alternative_distribution",
    "asymptotic_null_cdf",
    "binomial",
    "bounded_composition_count",
    "brute_force_null_distribution",
    "critical_value",
    "exact_power",
    "frequency_vector",
    "joint_PE_pmf",
    "joint_frequency_pmf_lehmann",
    "joint_frequency_pmf_null",
    "log_beta",
    "mc_power",
    "null_distribution",
    "orders_from_rates",
    "randomized_decision",
    "sample_pair",
    "statistic_bundle",
    "table_experiment",
]
