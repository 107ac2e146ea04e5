"""Distribution of the statistic under the Lehmann alternative G = F^gamma.

A frequency vector's probability is a constant times a precedence and an
exceedance Beta chain and the alternating Beta sum
S(n1, t) = sum_l (-1)^l C(q, l) B(n1 + r*gamma + gamma*l, m - t + 1), over
the cell-count factorials; n1 is the precedence total, t the total of all
cells, q = n - r - s. The pmf comes from three polynomial passes over
positive quantities, so nothing cancels in floating point: side tables by a
recurrence over (partial sum, running max) states, returned by largest cell;
the link weights, each row from a row of S summed from the row below, so
that only the diagonal of S is an alternating sum (evaluated in mpmath);
and the null kernel's O(m^3) cross step. gamma = 1 recovers the exact null.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import accumulate
from typing import Callable, Iterable, Sequence

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
# log1p or lgamma, and of one high-precision product of a Beta sum
_ENTRY_STEPS = 5
_MP_STEPS = 50

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
    i >= v: at most t + 1. The last cell keeps total t's entries only from its
    least largest cell lo[t] = ceil(t / length) on, so one cell keeps m + 1
    floats."""
    lo = [-(-t // length) for t in range(m + 1)]
    scale = [0.0] + [-math.inf] * m
    w = [[1.0]] * (m + 1)  # w[total][largest - first[total]]; unreached totals unread
    for k in range(length):
        first = lo if k == length - 1 else [0] * (m + 1)
        prefix = [list(accumulate(row, initial=0.0)) for row in w]  # sum(row[:v])
        # totals high to low: total u reads only the states t <= u, not yet
        # replaced, and adds their moves with t ascending
        for u in range(m, -1, -1):
            moves = [
                (t, scale[t] + log_factor(k, t, u - t) - math.lgamma(u - t + 1))
                for t in range(u + 1)
                if scale[t] > -math.inf
            ]
            top = max(log_move for _, log_move in moves)
            out = [0.0] * (u + 1)
            for t, log_move in moves:
                v, c, row = u - t, math.exp(log_move - top), w[t]
                # a cell above the running max sets it
                out[v] += c * prefix[t][min(v, len(row))]
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


def _beta_sums(
    n1: int, b: int, q: int, r: int, gamma: float, count: int
) -> list[tuple[float, float]]:
    """(ln S_k, condition_k), k < count, for S_k = sum_l (-1)^l C(q, l)
    B(n1 + k + r*gamma + gamma*l, b - k) and condition_k = sum |terms| / S_k.

    The digits the worst cancellation can cost are bounded in advance from
    the term magnitudes and _log_lower_bound; mpmath, imported on first use,
    works with _GUARD_DIGITS more. B(x, b) = (b-1)! / (x (x+1) ... (x+b-1))
    for whole b, and stepping k multiplies a term by (x+k) / (b-k-1).
    """
    a = [n1 + k + r * gamma for k in range(count)]
    if q == 0:
        return [(log_beta(a[k], b - k), 1.0) for k in range(count)]
    log_binom = [math.log(math.comb(q, l)) for l in range(q + 1)]
    log_abs = []
    for k in range(count):
        logs = [lc + log_beta(a[k] + gamma * l, b - k) for l, lc in enumerate(log_binom)]
        top = max(logs)
        log_abs.append(top + math.log(math.fsum(math.exp(x - top) for x in logs)))
    loss = max(
        la - _log_lower_bound(a[k], b - k, q, gamma) for k, la in enumerate(log_abs)
    )
    import mpmath

    with mpmath.workdps(max(0, math.ceil(loss / math.log(10))) + _GUARD_DIGITS):
        g = mpmath.mpf(gamma)
        x = [n1 + r * g + g * l for l in range(q + 1)]
        terms = []
        for l, x_l in enumerate(x):
            term = math.comb(q, l) * math.factorial(b - 1) / mpmath.fprod(x_l + i for i in range(b))
            terms.append(-term if l % 2 else term)
        sums = []
        for k in range(count):
            total = mpmath.fsum(terms)
            if not total > 0:
                raise NumericalError(f"Beta sum {n1 + k, b - k, q} is {mpmath.nstr(total, 5)}")
            log_total = float(mpmath.log(total))
            sums.append((log_total, math.exp(min(log_abs[k] - log_total, 709.0))))
            if k + 1 < count:
                terms = [term * (x_l + k) / (b - k - 1) for term, x_l in zip(terms, x)]
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


def _steps(m: int, n: int, r: int, s: int, cells: list[tuple[int, int, int]]) -> int:
    """Work of alternative_distribution over the full `cells`, in steps,
    counted before any is done."""
    tri = (m + 1) * (m + 2) // 2  # entries of an (n1, t) table, or moves of one cell
    cube = math.comb(m + 3, 3)  # sum of t + 1 over the (t, v) moves of one cell
    terms = n - r - s + 1 if n > r + s else 0  # Beta-sum terms, none when q = 0
    # a side's first cell makes m + 1 moves from t = 0 and each later one tri,
    # and each cell normalizes a tri-entry table; the rows of S and the link table;
    # one sum per H_j entry and per cell of the cross step; per Beta-sum term,
    # m + 1 magnitudes, then 3m + 2 high-precision products
    entries = 2 * (m + 1) + (2 * (r + s) + 2) * tri + terms * (m + 1)
    products = terms * (3 * m + 2)
    # multiply-adds: t + 1 per side-table move, _side's copy of at most tri
    # entries per side into rows by largest cell, and the cross step
    adds = 2 * (m + 1) + (r + s - 2) * cube + 2 * tri + _cross_steps(r, s, m, cells)
    return adds + _ENTRY_STEPS * entries + _MP_STEPS * products


def alternative_distribution(
    m: int, n: int, r: int, s: int, gamma: float
) -> AlternativeDistribution:
    """Exact pmf of the statistic under G = F^gamma, in three passes:

    1. side tables P[n1][i] and E[n2][j], summed over the vectors with cell
       total n1 (n2) and largest cell i (j): (r + s) m^3 / 6 steps;
    2. the Beta sums S(n1, t) from S(n1, t) = S(n1, t-1) + S(n1+1, t), with
       only the m + 1 diagonal sums evaluated, in mpmath: 3 (q + 1) m products;
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
    _check_budget(_steps(m, n, r, s, cells), "Lehmann-law")
    diagonal = _beta_sums(0, m + 1, n - r - s, r, gamma, m + 1)  # (ln S(t, t), condition)
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
