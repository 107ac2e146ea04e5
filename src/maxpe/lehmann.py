"""Distribution of the statistic under the Lehmann alternative G = F^gamma.

A frequency vector's probability is a constant times a precedence and an
exceedance Beta chain and the alternating Beta sum
S(n1, t) = sum_l (-1)^l C(q, l) B(n1 + r*gamma + gamma*l, m - t + 1), over
the cell-count factorials; n1 is the precedence total, t the total of all
cells, q = n - r - s. The pmf comes from three polynomial passes over
positive quantities, so nothing cancels in floating point: side tables by a
recurrence over (partial sum, running max) states, returned by largest cell;
the link weights, each row from a row of S summed from the row below, so
that only the diagonal of S is an alternating sum (evaluated in decimal);
and the null kernel's O(m^3) cross step. gamma = 1 recovers the exact null.
"""

from __future__ import annotations

import math
from collections import namedtuple
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from itertools import accumulate
from typing import Callable, Iterable, Optional, Sequence

from .combinatorics import log_beta
from .errors import NumericalError, ParameterError
from .null_dist import (
    _check_budget, _cross, _cross_steps, _float_sum, _Law, _validate_params,
)
from .statistics import FrequencyVector

__all__ = [
    "AlternativeDistribution",
    "joint_frequency_pmf_lehmann",
    "alternative_distribution",
    "exact_power",
]

_GUARD_DIGITS = 20  # working digits kept beyond the worst cancellation
# Weights, in WORK_BUDGET steps of one float multiply-add (about 0.1 us with
# CPython 3.11 on a Xeon vCPU), of a table entry built by a call or by exp,
# log1p or lgamma, and of one decimal product of a Beta sum: _MP_STEPS, and
# one step more per _MP_DIGITS_PER_STEP working digits. A product took
# 0.5-0.7 us up to 450 digits, 0.7 us at 800, 1.4 us at 1280 and 2.3 us at
# 3170: 74-104 ns a step at nine shapes with r = s = 1, 2, 3 and 10
_ENTRY_STEPS = 5
_MP_STEPS = 6
_MP_DIGITS_PER_STEP = 170

_PMF_SLACK = 1e-9
_NORMALIZATION_SLACK = 1e-6

_LogFactor = Callable[[int, int, int], float]


class AlternativeDistribution(
    _Law,
    namedtuple(
        "AlternativeDistribution",
        "m n r s gamma pmf_values condition_estimate cdf_values",
    ),
):
    """pmf of the statistic under G = F^gamma, with a cancellation diagnostic.

    condition_estimate is the largest ratio of the summed term magnitudes of
    a diagonal Beta sum to its value: the factor by which evaluating that sum
    in working precision magnifies rounding (1 means nothing cancels).
    """

    __slots__ = ()

    def __new__(
        cls, m: int, n: int, r: int, s: int, gamma: float, pmf_values: Sequence[float],
        condition_estimate: float,
    ) -> "AlternativeDistribution":
        if any(p < -_PMF_SLACK or p > 1 + _PMF_SLACK for p in pmf_values):
            raise NumericalError(
                "pmf entries escaped [0, 1] beyond numerical slack; "
                f"condition estimate was {condition_estimate:.3g}"
            )
        total = math.fsum(pmf_values)
        if abs(total - 1.0) > _NORMALIZATION_SLACK:
            raise NumericalError(
                f"pmf sums to {total!r}, outside 1 +/- {_NORMALIZATION_SLACK}; "
                f"condition estimate was {condition_estimate:.3g}"
            )
        clamped = tuple(min(1.0, max(0.0, p)) for p in pmf_values)
        cdf_values, _ = cls._cdf(clamped, 1.0)
        return super().__new__(
            cls, m, n, r, s, gamma, clamped, condition_estimate, cdf_values
        )

    def _off_support(self, t: int, value: int) -> float:
        return float(value)

    def tail(self, t: int) -> float:
        """P[T >= t]."""
        if t <= 0:
            return 1.0
        return math.fsum(self.pmf_values[t:])


def _validate(m: int, n: int, r: int, s: int, gamma: float) -> None:
    _validate_params(m, n, r, s)
    if not (gamma > 0 and math.isfinite(gamma)):
        raise ParameterError(f"gamma must be a positive real, got {gamma}")


def _precedence_factor(gamma: float) -> _LogFactor:
    """ln of the Beta factor of precedence cell k holding v after cells summing to t."""
    return lambda k, t, v: log_beta(t + k * gamma, v + 1) if k else 0.0


def _exceedance_factor(m: int, n: int, s: int, gamma: float) -> _LogFactor:
    """The same for exceedance cell s - k, placed k-th from the last one back,
    so that t + v is the suffix sum from that cell on."""
    base = m + gamma * (n - s)
    return lambda k, t, v: log_beta(base - t - v + (s - k) * gamma, v + 1)


def _log_chain(cells: Iterable[int], log_factor: _LogFactor) -> float:
    """ln of one vector's Beta chain, its cells given in placement order."""
    acc, t = 0.0, 0
    for k, v in enumerate(cells):
        acc += log_factor(k, t, v)
        t += v
    return acc


def _side(length: int, m: int, log_factor: _LogFactor) -> tuple[list[float], list[list[float]]]:
    """(scale, rows): exp(scale[t]) * rows[i][t - i] sums, over the vectors of
    `length` cells with total t and largest cell i, their chain factors over
    their cell factorials; row i covers the band i..min(length * i, m) outside
    of which every such sum is 0. Each total's entries peak at 1, so floats
    neither overflow nor underflow. A cell v added to total t costs one
    multiply-add for the states below v, whose running max it sets (their sum
    is a running sum of the row, formed left to right), and one for each state
    i >= v: 1 + max(0, t + 1 - v), as _side_steps counts them. The first
    cell starts from the empty vector, total 0, and reaches every total. The
    last cell keeps total t's entries only from its least largest cell
    lo[t] = ceil(t / length) on, so one cell keeps m + 1 floats."""
    lo = [-(-t // length) for t in range(m + 1)]
    log_fact = [math.lgamma(v + 1) for v in range(m + 1)]
    scale = [0.0] + [-math.inf] * m
    w = [[1.0]] * (m + 1)  # w[total][largest - first[total]]; unreached totals unread
    for k in range(length):
        first = lo if k == length - 1 else [0] * (m + 1)
        prefix = [list(accumulate(row, initial=0.0)) for row in w]  # sum(row[:v])
        # totals high to low: total u reads only the states t <= u, not yet
        # replaced, and adds their moves with t ascending
        for u in range(m, -1, -1):
            log_moves = [
                scale[t] + log_factor(k, t, u - t) - log_fact[u - t]
                for t in range(u + 1 if k else 1)
            ]
            top = max(log_moves)
            out = [0.0] * (u + 1)
            for t, log_move in enumerate(log_moves):
                v, c, row = u - t, math.exp(log_move - top), w[t]
                # a cell above the running max sets it
                out[v] += c * prefix[t][min(v, len(row))]
                if v <= t:
                    out[v : t + 1] = [o + c * x for o, x in zip(out[v : t + 1], row[v:])]
            peak = max(out)
            scale[u] = top + math.log(peak)
            w[u] = [x / peak for x in out[first[u] :]]
    return scale, [
        [w[t][i - lo[t]] for t in range(i, min(length * i, m) + 1)] for i in range(m + 1)
    ]


def _log_lower_bound(a: float, b: int, q: int, gamma: float) -> float:
    """ln of a lower bound on S = int_0^1 x^(a-1) (1-x)^(b-1) (1-x^gamma)^q dx.

    For every 0 < x0 < 1, S >= x0^a (1-x0)^(b-1) (1-x0^gamma)^q / a, the
    integral over [0, x0] with the decreasing factors taken at x0. Two
    choices of y = x0^gamma are tried: 1/(q+1), where (1-y)^q >= 1/e, and
    the maximizer a / (a + gamma q) of y^(a/gamma) (1-y)^q.
    """
    bounds = (
        a / gamma * math.log(y) + (b - 1) * math.log(-math.expm1(math.log(y) / gamma))
        + q * math.log1p(-y)
        for y in (1.0 / (q + 1), a / (a + gamma * q))
    )
    return max(bounds) - math.log(a)


def _beta_sum_digits(a: Sequence[float], b: int, q: int, gamma: float) -> int:
    """Working digits of _beta_sums with a_k = a[k]: _GUARD_DIGITS beyond
    those the worst cancellation can cost, bounded before any term is
    formed. The terms of S_k add up to at most 2^q B(a_k, b - k), as B falls
    in its first argument, and S_k is at least e^_log_lower_bound."""
    loss = max(
        q * math.log(2) + log_beta(a_k, b - k) - _log_lower_bound(a_k, b - k, q, gamma)
        for k, a_k in enumerate(a)
    )
    return max(0, math.ceil(loss / math.log(10))) + _GUARD_DIGITS


def _beta_sums(
    n1: int, b: int, q: int, r: int, gamma: float, count: int, digits: Optional[int] = None
) -> list[tuple[float, float]]:
    """(ln S_k, condition_k), k < count, for S_k = sum_l (-1)^l C(q, l)
    B(x_l + k, b - k), x_l = n1 + r*gamma + gamma*l, and condition_k =
    sum |terms| / S_k.

    B(x, b) = (b-1)! / (x (x+1) ... (x+b-1)) for whole b, and stepping k
    multiplies a term by (x_l + k) / (b-k-1). The sums run in the standard
    library's decimal, in C, at the `digits` of _beta_sum_digits, formed
    here unless the caller has them. Each term
    is formed once, as C(q, l) (b-1)! over the product of its b factors,
    and then only multiplied by x_l + k: S_k is the sum of the terms once
    divided by the exact integer (b-1)! / (b-1-k)!, and condition_k their
    sum of magnitudes over their sum.

    Each rounding errs by at most half a unit in the last working digit. A
    term carries the roundings of its b + k factors and products and of
    its division, and each of the q additions of the sums errs by at most
    as much of the sum of magnitudes, which _beta_sum_digits keeps below
    10^(digits - 20) S_k. So S_k is off by at most (2 (b + k) + q + 3)
    5e-20 of itself, below 1e-14 while b, k and q stay below 3e4, and
    far less in practice: roundings partly cancel, and the bounds behind
    the digits are not tight. decimal sums left to right, one rounded addition at a time;
    Python 3.12's compensated sum() changes only float sums. ln is taken,
    correctly rounded, at 25 digits: the float nearest to that is the float
    nearest to ln S_k except within 5e-9 of a unit in the last place of a
    tie, and a full-precision ln costs milliseconds at hundreds of digits.
    """
    a = [n1 + k + r * gamma for k in range(count)]
    if q == 0:
        return [(log_beta(a[k], b - k), 1.0) for k in range(count)]
    ln_context = Context(prec=25, Emax=MAX_EMAX, Emin=MIN_EMIN)
    if digits is None:
        digits = _beta_sum_digits(a, b, q, gamma)
    with localcontext(Context(prec=digits, Emax=MAX_EMAX, Emin=MIN_EMIN)):
        g = Decimal(gamma)
        x = [n1 + r * g + g * l for l in range(q + 1)]
        binomials = accumulate(range(q), lambda c, l: c * (q - l) // (l + 1), initial=1)
        numerator = math.factorial(b - 1)
        terms = [  # |term l| of S_k times falling
            c * numerator / math.prod(map(x_l.__add__, range(b)))
            for c, x_l in zip(binomials, x)
        ]
        sums, falling = [], 1  # (b-1)! / (b-1-k)!
        for k in range(count):
            plus, minus = sum(terms[::2]), sum(terms[1::2])
            total = (plus - minus) / falling
            if not total > 0:
                raise NumericalError(f"Beta sum {n1 + k, b - k, q} is {total:.5g}")
            condition = (plus + minus) / (plus - minus)
            sums.append((float(total.ln(ln_context)), min(float(condition), math.exp(709.0))))
            if k + 1 < count:
                terms = [term * (x_l + k) for term, x_l in zip(terms, x)]
                falling *= b - 1 - k
    return sums


def _log_add(a: float, b: float) -> float:
    """ln(e^a + e^b)."""
    lo, hi = sorted((a, b))
    return hi + math.log1p(math.exp(lo - hi))


def _log_counts(m: int, n: int, r: int, s: int, gamma: float) -> tuple[float, list[float]]:
    """ln(n! / q! * gamma^(r+s)) and ln(m! / (m-t)!) for t = 0..m, from exact integers."""
    log_c = math.log(math.perm(n, r + s)) + (r + s) * math.log(gamma)
    return log_c, [math.log(math.perm(m, t)) for t in range(m + 1)]


def joint_frequency_pmf_lehmann(fv: FrequencyVector, gamma: float) -> float:
    """Probability of one whole frequency vector under G = F^gamma."""
    m, n, r, s = fv.m, fv.n, fv.r, fv.s
    _validate(m, n, r, s, gamma)
    n1, total = fv.total_precedence, fv.total
    [(log_s, _)] = _beta_sums(n1, m - total + 1, n - r - s, r, gamma, 1)
    log_c, log_perm = _log_counts(m, n, r, s, gamma)
    log_p = (
        log_c
        + log_perm[total]
        + _log_chain(fv.f_p, _precedence_factor(gamma))
        + _log_chain(reversed(fv.f_e), _exceedance_factor(m, n, s, gamma))
        - _float_sum(math.lgamma(v + 1) for v in (*fv.f_p, *fv.f_e))
        + log_s
    )
    return min(1.0, math.exp(log_p))


def _side_steps(length: int, m: int) -> int:
    """Multiply-adds of _side(length, m, ...), counted before any: a cell v
    added to total t makes 1 + max(0, t + 1 - v). The first cell adds v = u
    to t = 0 for each total u; a later one adds u - t to each t <= u, and
    for fixed u the terms max(0, 2t + 1 - u) sum to
    (u // 2 + 1) * ((u + 1) // 2 + 1): over u = 0..m, the squares up to
    e = m // 2 + 1 and the products j (j + 1) up to o = (m + 1) // 2."""
    e, o = m // 2 + 1, (m + 1) // 2
    later = (m + 1) * (m + 2) // 2 + e * (e + 1) * (2 * e + 1) // 6 + o * (o + 1) * (o + 2) // 3
    return m + 2 + (length - 1) * later


def _steps(
    m: int, n: int, r: int, s: int, digits: int, cells: list[tuple[int, int, int]]
) -> int:
    """Work of alternative_distribution over the full `cells`, its diagonal
    Beta sums at `digits` working digits, in steps, counted before any is
    done."""
    tri = (m + 1) * (m + 2) // 2  # entries of an (n1, t) table, or moves of one cell
    q = n - r - s
    # a side's first cell makes m + 1 moves from t = 0 and each later one tri,
    # and each cell normalizes a tri-entry table; the rows of S and the link table;
    # one sum per H_j entry and per cell of the cross step
    entries = 2 * (m + 1) + (2 * (r + s) + 2) * tri
    # multiply-adds of the side tables, _side's copy of at most tri entries
    # per side into rows by largest cell, and the cross step
    adds = _side_steps(r, m) + _side_steps(s, m) + 2 * tri + _cross_steps(r, s, m, cells)
    steps = adds + _ENTRY_STEPS * entries
    if q:
        # the m + 1 entries of the digit bound; per Beta-sum term, m + 1
        # factors of its first value, m steps and m + 1 additions into the
        # sums. The m + 1 logarithms of the sums, about 40 us each, stay below
        # a twentieth of the count wherever it nears WORK_BUDGET
        weight = _MP_STEPS + digits // _MP_DIGITS_PER_STEP
        steps += _ENTRY_STEPS * (m + 1) + weight * (q + 1) * (3 * m + 2)
    return steps


def alternative_distribution(
    m: int, n: int, r: int, s: int, gamma: float
) -> AlternativeDistribution:
    """Exact pmf of the statistic under G = F^gamma, in three passes:

    1. side tables P[n1][i] and E[n2][j], summed over the vectors with cell
       total n1 (n2) and largest cell i (j): m^2 / 2 moves per cell after
       the first, and about (r + s - 2) m^3 / 12 multiply-adds in all;
    2. the Beta sums S(n1, t) from S(n1, t) = S(n1, t-1) + S(n1+1, t), with
       only the m + 1 diagonal sums evaluated, in decimal: (q + 1)(3m + 2)
       products at the working digits, and m + 1 logarithms;
       rows n1 = m..0 each come from the row below and feed link row n1 at
       once, so no table of S is kept;
    3. the null kernel's cross step: H_j[n1] = sum_n2 E[n2][j] S(n1, n1 + n2)
       / (m - n1 - n2)!, once per j, and pmf[i + j] += P[n1][i] H_j[n1], each
       sum over the band n2 <= s*j (n1 <= r*i) where the side entry can be
       nonzero: at most m^3 / 3 multiply-adds, (m + 1)(m + 2) when r = s = 1.

    Passes 1 and 2 also build O(m^2) tables, a side's by-total triangle and
    the link table, which _steps counts with the passes. Raises
    BudgetExceededError, before any work, above WORK_BUDGET steps, and a
    failed diagonal Beta sum is a NumericalError before any table is built.
    """
    _validate(m, n, r, s, gamma)
    cells = [(j, 0, m - j) for j in range(m + 1)]
    q = n - r - s
    digits = _beta_sum_digits([t + r * gamma for t in range(m + 1)], m + 1, q, gamma) if q else 0
    _check_budget(_steps(m, n, r, s, digits, cells), "Lehmann-law")
    diagonal = _beta_sums(0, m + 1, q, r, gamma, m + 1, digits)  # (ln S(t, t), condition)
    scale_p, rows_p = _side(r, m, _precedence_factor(gamma))
    scale_e, rows_e = _side(s, m, _exceedance_factor(m, n, s, gamma))
    log_c, log_perm = _log_counts(m, n, r, s, gamma)
    # link[n1][t - n1] from ln S(n1, t), t = n1..m, whose row is the running
    # log-sum of the row below: S(n1, t) = S(n1, t-1) + S(n1+1, t). One
    # (n1, i) group times one (n2, j) group is a probability, so with the
    # side entries peaking at 1 every factor here is at most 1
    link: list[list[float]] = [[]] * (m + 1)
    log_s: list[float] = []
    for n1 in range(m, -1, -1):
        log_s = list(accumulate(log_s, _log_add, initial=diagonal[n1][0]))
        link[n1] = [
            math.exp(log_c + log_perm[t] + scale_p[n1] + scale_e[t - n1] + log_st)
            for t, log_st in enumerate(log_s, n1)
        ]
    pmf = _cross(rows_p, rows_e, lambda n1, lo, hi: link[n1][lo:hi], cells, m, _float_sum)
    return AlternativeDistribution(
        m=m, n=n, r=r, s=s, gamma=gamma, pmf_values=tuple(pmf),
        condition_estimate=max(condition for _, condition in diagonal),
    )


def exact_power(m: int, n: int, r: int, s: int, gamma: float, alpha: float) -> float:
    """Rejection probability of the size-alpha randomized test under G = F^gamma."""
    if not 0 < alpha < 1:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    from .inference import critical_value

    dist = alternative_distribution(m, n, r, s, gamma)  # refuses before the null table
    crit = critical_value(m, n, r, s, alpha)
    reject = dist.tail(crit.c)
    alpha1 = float(crit.alpha1)
    alpha2 = float(crit.alpha2)
    if alpha2 > alpha1 and crit.c >= 1:
        reject += (alpha - alpha1) / (alpha2 - alpha1) * dist.pmf(crit.c - 1)
    return min(1.0, max(0.0, reject))
