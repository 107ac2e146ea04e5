"""Distribution of the statistic under the Lehmann alternative G = F^gamma.

Each frequency vector's probability is a product of Beta-function chains
times an alternating binomial sum. The chains are evaluated in log space;
the alternating sum is accumulated with sign-tracked compensated summation
and falls back to 40-digit arithmetic (mpmath) when cancellation eats more
than twelve orders of magnitude. gamma = 1 recovers the exact null.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

from .combinatorics import LogReal, binomial, log_beta, signed_log_sum
from .errors import BudgetExceededError, ParameterError
from .statistics import FrequencyVector

__all__ = [
    "AlternativeDistribution",
    "joint_frequency_pmf_lehmann",
    "alternative_distribution",
    "exact_power",
    "CONDITION_LIMIT",
    "DEFAULT_TERM_BUDGET",
]

CONDITION_LIMIT = 1e12
DEFAULT_TERM_BUDGET = 10**8
_FALLBACK_DPS = 40
# Double precision loses ~condition * 1e-16 of relative accuracy to the
# alternating sum, so switch to extended precision well before the 1e-12
# diagnostic bound; the sums are shared across frequency vectors, making
# the fallback cheap.
_FALLBACK_CONDITION = 1e6

_PMF_SLACK = 1e-9
_NORMALIZATION_SLACK = 1e-6


@dataclass(frozen=True)
class AlternativeDistribution:
    """pmf of the statistic under G = F^gamma, with cancellation diagnostics.

    condition_estimate is the largest intermediate term magnitude relative
    to the alternating sum it contributed to, maximized over the table;
    values near 1 mean no cancellation occurred in double precision.
    """

    m: int
    n: int
    r: int
    s: int
    gamma: float
    pmf_values: tuple[float, ...]
    condition_estimate: float
    cdf_values: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        if any(p < -_PMF_SLACK or p > 1 + _PMF_SLACK for p in self.pmf_values):
            raise ParameterError(
                "pmf entries escaped [0, 1] beyond numerical slack; "
                f"condition estimate was {self.condition_estimate:.3g}"
            )
        total = math.fsum(self.pmf_values)
        if abs(total - 1.0) > _NORMALIZATION_SLACK:
            raise ParameterError(
                f"pmf sums to {total!r}, outside 1 +/- {_NORMALIZATION_SLACK}; "
                f"condition estimate was {self.condition_estimate:.3g}"
            )
        clamped = tuple(min(1.0, max(0.0, p)) for p in self.pmf_values)
        object.__setattr__(self, "pmf_values", clamped)
        running = 0.0
        cdf = []
        for p in clamped:
            running = min(1.0, running + p)
            cdf.append(running)
        object.__setattr__(self, "cdf_values", tuple(cdf))

    @property
    def support(self) -> range:
        return range(len(self.pmf_values))

    def pmf(self, t: int) -> float:
        if 0 <= t < len(self.pmf_values):
            return self.pmf_values[t]
        return 0.0

    def cdf(self, t: int) -> float:
        if t < 0:
            return 0.0
        if t >= len(self.cdf_values):
            return 1.0
        return self.cdf_values[t]

    def tail(self, t: int) -> float:
        """P[T >= t]."""
        if t <= 0:
            return 1.0
        return math.fsum(self.pmf_values[t:])


def _validate(m: int, n: int, r: int, s: int, gamma: float) -> None:
    if m < 1:
        raise ParameterError("m must be at least 1")
    if r < 1 or s < 1:
        raise ParameterError("r and s must be positive")
    if r + s > n:
        raise ParameterError(f"r + s = {r + s} exceeds n = {n}")
    if not (gamma > 0 and math.isfinite(gamma)):
        raise ParameterError(f"gamma must be a positive real, got {gamma}")


def _log_precedence_chain(f_p: tuple[int, ...], gamma: float) -> float:
    """ln of the precedence Beta chain (excluding the l-dependent factor)."""
    acc = 0.0
    partial = f_p[0]
    for k in range(1, len(f_p)):
        acc += log_beta(partial + k * gamma, f_p[k] + 1)
        partial += f_p[k]
    return acc


def _log_exceedance_chain(
    f_e: tuple[int, ...], m: int, n: int, s: int, gamma: float
) -> float:
    """ln of the exceedance Beta chain (independent of the alternating index)."""
    acc = 0.0
    tail = sum(f_e)
    base = m + gamma * (n - s)
    for k in range(1, s + 1):
        acc += log_beta(base - tail + k * gamma, f_e[k - 1] + 1)
        tail -= f_e[k - 1]
    return acc


def _alternating_sum_fallback(
    n1: int, remaining: int, q: int, r: int, gamma: float
) -> LogReal:
    """Re-evaluate the alternating Beta sum at 40 significant digits.

    mpmath is imported here, on first use, so that runs which never need the
    fallback never pay for loading it.
    """
    import mpmath

    with mpmath.workdps(_FALLBACK_DPS):
        g = mpmath.mpf(gamma)
        total = mpmath.mpf(0)
        for l in range(q + 1):
            term = mpmath.binomial(q, l) * mpmath.beta(n1 + r * g + g * l, remaining + 1)
            total += term if l % 2 == 0 else -term
        if total == 0:
            return LogReal.zero()
        return LogReal(
            1 if total > 0 else -1, float(mpmath.log(abs(total)))
        )


@lru_cache(maxsize=200_000)
def _alternating_sum(
    n1: int, total: int, m: int, q: int, r: int, gamma: float
) -> tuple[int, float, float]:
    """Signed log value of sum_l (-1)^l C(q, l) B(n1 + r*gamma + gamma*l, m - total + 1).

    Returns (sign, log_magnitude, condition). Falls back to extended
    precision when double-precision cancellation would erode the result;
    the reported condition is always the double-precision diagnostic.
    """
    remaining = m - total
    terms = []
    for l in range(q + 1):
        sign = 1 if l % 2 == 0 else -1
        logmag = math.log(binomial(q, l)) + log_beta(
            n1 + r * gamma + gamma * l, remaining + 1
        )
        terms.append((sign, logmag))
    value, condition = signed_log_sum(terms)
    if condition > _FALLBACK_CONDITION:
        value = _alternating_sum_fallback(n1, remaining, q, r, gamma)
    return value.sign, value.log_magnitude, condition


def joint_frequency_pmf_lehmann(fv: FrequencyVector, gamma: float) -> float:
    """Probability of one whole frequency vector under G = F^gamma."""
    value, _ = _joint_pmf_lehmann_diag(fv, gamma)
    return value


def _joint_pmf_lehmann_diag(
    fv: FrequencyVector, gamma: float
) -> tuple[float, float]:
    _validate(fv.m, fv.n, fv.r, fv.s, gamma)
    m, n, r, s = fv.m, fv.n, fv.r, fv.s
    q = n - r - s
    n1, n2 = fv.total_precedence, fv.total_exceedance
    remaining = m - n1 - n2

    log_k = (
        math.lgamma(m + 1)
        + math.lgamma(n + 1)
        - sum(math.lgamma(v + 1) for v in fv.f_p)
        - math.lgamma(remaining + 1)
        - sum(math.lgamma(v + 1) for v in fv.f_e)
        - math.lgamma(q + 1)
    )
    log_pref = (
        log_k
        + (r + s) * math.log(gamma)
        + _log_precedence_chain(fv.f_p, gamma)
        + _log_exceedance_chain(fv.f_e, m, n, s, gamma)
    )
    sign, logmag, condition = _alternating_sum(n1, n1 + n2, m, q, r, gamma)
    value = LogReal(sign, logmag).scaled_float(log_pref)
    return min(1.0, max(0.0, value)), condition


def _compositions_up_to(length: int, total: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `length` non-negative integers with sum <= total."""
    if length == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in _compositions_up_to(length - 1, total - first):
            yield (first, *rest)


def _logsumexp(values: list[float]) -> float:
    top = max(values)
    if top == -math.inf:
        return -math.inf
    return top + math.log(math.fsum(math.exp(v - top) for v in values))


def _grouped_side(
    length: int, m: int, chain
) -> dict[tuple[int, int], float]:
    """Group one side's vectors by (cell max, cell total).

    Returns log of sum over vectors in the group of
    exp(chain(vector)) / prod(cell count factorials).
    """
    buckets: dict[tuple[int, int], list[float]] = {}
    for vec in _compositions_up_to(length, m):
        key = (max(vec), sum(vec))
        logw = chain(vec) - sum(math.lgamma(v + 1) for v in vec)
        buckets.setdefault(key, []).append(logw)
    return {key: _logsumexp(vals) for key, vals in buckets.items()}


def alternative_distribution(
    m: int,
    n: int,
    r: int,
    s: int,
    gamma: float,
    term_budget: int = DEFAULT_TERM_BUDGET,
) -> AlternativeDistribution:
    """Exact pmf of the statistic under G = F^gamma.

    The pmf depends on whole frequency vectors, so both cell-count sides
    are enumerated; vectors are grouped by (cell max, cell total) before
    the cross product, which keeps the combination step polynomial in m.
    The guard rejects grids whose raw vector-pair count exceeds the term
    budget.
    """
    _validate(m, n, r, s, gamma)
    pairs = binomial(m + r, r) * binomial(m + s, s)
    if pairs > term_budget:
        raise BudgetExceededError(
            f"{pairs} frequency-vector pairs exceed the term budget {term_budget}"
        )
    q = n - r - s
    log_c0 = (
        math.lgamma(m + 1)
        + math.lgamma(n + 1)
        - math.lgamma(q + 1)
        + (r + s) * math.log(gamma)
    )

    grouped_p = _grouped_side(
        r, m, lambda vec: _log_precedence_chain(vec, gamma)
    )
    grouped_e = _grouped_side(
        s, m, lambda vec: _log_exceedance_chain(vec, m, n, s, gamma)
    )

    buckets: list[list[float]] = [[] for _ in range(m + 1)]
    worst_condition = 1.0
    for (i, n1), log_gp in grouped_p.items():
        for (j, n2), log_ge in grouped_e.items():
            total = n1 + n2
            if total > m:
                continue
            sign, logmag, condition = _alternating_sum(n1, total, m, q, r, gamma)
            worst_condition = max(worst_condition, condition)
            if sign == 0:
                continue
            log_term = (
                log_c0 + log_gp + log_ge + logmag - math.lgamma(m - total + 1)
            )
            buckets[i + j].append(sign * math.exp(log_term))
    pmf = tuple(math.fsum(bucket) for bucket in buckets)
    return AlternativeDistribution(
        m=m,
        n=n,
        r=r,
        s=s,
        gamma=gamma,
        pmf_values=pmf,
        condition_estimate=worst_condition,
    )


def exact_power(
    m: int, n: int, r: int, s: int, gamma: float, alpha: float
) -> float:
    """Rejection probability of the size-alpha randomized test under G = F^gamma."""
    if not 0 < alpha < 1:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    from .inference import critical_value

    crit = critical_value(m, n, r, s, alpha)
    dist = alternative_distribution(m, n, r, s, gamma)
    reject = dist.tail(crit.c)
    alpha1 = float(crit.alpha1)
    alpha2 = float(crit.alpha2)
    if alpha2 > alpha1 and crit.c >= 1:
        reject += (alpha - alpha1) / (alpha2 - alpha1) * dist.pmf(crit.c - 1)
    return min(1.0, max(0.0, reject))
