"""Distribution of the statistic under the Lehmann alternative G = F^gamma.

A frequency vector's probability is a constant times a precedence and an
exceedance Beta chain and the Beta sum
S(n1, t) = sum_l (-1)^l C(q, l) B(n1 + r*gamma + gamma*l, m - t + 1), over
the cell-count factorials; n1 is the precedence total, t the total of all
cells, q = n - r - s. S is the integral of x^(n1 + r gamma - 1) (1-x)^(m-t)
(1-x^gamma)^q over [0, 1], and it is never formed as the alternating sum.
The pmf comes from three polynomial passes over positive quantities, so
nothing cancels: side tables by a recurrence over (partial sum, running
max) states, returned by largest cell, each cell's Beta factors over
factorials read from one O(m) table of log-gamma differences, and no state
holding a cell above the largest the law reads; the link weights, each row
from a row of S summed from the row below, the diagonal of S from a
recurrence in decimal that integration by parts gives (its logarithm from
the float logarithm of its mantissa); and the null kernel's cross step. A
law truncated to T <= t_max needs every table only up to the total
min(m, max(r, s) t_max), whatever m, and its side states only up to the
largest cell t_max. gamma = 1 recovers the exact null.
"""

from __future__ import annotations

import math
from collections import namedtuple
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from functools import lru_cache
from itertools import accumulate
from operator import add, mul, truediv
from typing import Callable, Iterable, Optional, Sequence

from .combinatorics import log_beta
from .errors import NumericalError, ParameterError
from .null_dist import (
    _check_budget, _cross, _cross_steps, _float_sum, _Law, _series, _triangle,
    _truncation_top, _validate_params,
)
from .statistics import FrequencyVector

__all__ = [
    "AlternativeDistribution",
    "joint_frequency_pmf_lehmann",
    "alternative_distribution",
    "exact_power",
]

# Weights, in WORK_BUDGET steps of one float multiply-add, of a table entry
# built by a call or by exp, log1p or lgamma; of a move of _side, an exp and
# the loop step that adds it; and of one entry of the Beta-sum recurrence,
# three decimal operations at 21-27 digits, whose anti-diagonals cost about
# six entries each more. With CPython 3.11 on a shared 2-vCPU Xeon VM a move
# took 0.7-0.9 us, a pair of _side's row slices about 50 ns, and a
# recurrence entry 0.37-0.4 us where the other passes ran at 35-47 ns a
# step. With these weights whole laws at n = m, gamma = 2 ran at 47-81 ns a
# step at r = s = 1, 2, 3, 5 and 10, m = 100-1200, and the largest the
# budget admits at 65-83 ns a step, 6.5-8.3 s, on a busy host
_ENTRY_STEPS = 5
_MOVE_STEPS = 16
_SUM_STEPS = 8

_PMF_SLACK = 1e-9
_NORMALIZATION_SLACK = 1e-6

# f(k, t) of one side's cell k at total t; see _precedence_logs
_CellLogs = Callable[[int, int], float]


class AlternativeDistribution(
    _Law,
    namedtuple(
        "AlternativeDistribution",
        "m n r s gamma pmf_values condition_estimate complete cdf_values",
    ),
):
    """pmf of the statistic under G = F^gamma.

    condition_estimate, the factor by which cancellation magnifies rounding,
    is 1.0: every pass of the law, its Beta sums included, adds positive
    terms only, so no sum cancels. A truncated law (complete=False) covers
    {0..t_max} and is only checked not to exceed total mass 1.
    """

    __slots__ = ()
    _one = 1.0

    def __new__(
        cls, m: int, n: int, r: int, s: int, gamma: float, pmf_values: Sequence[float],
        condition_estimate: float, complete: bool = True,
    ) -> "AlternativeDistribution":
        if any(p < -_PMF_SLACK or p > 1 + _PMF_SLACK for p in pmf_values):
            raise NumericalError(
                "pmf entries escaped [0, 1] beyond numerical slack; "
                f"condition estimate was {condition_estimate:.3g}"
            )
        total = math.fsum(pmf_values)
        if abs(total - 1.0) > _NORMALIZATION_SLACK and (complete or total > 1.0):
            raise NumericalError(
                f"pmf sums to {total!r}, outside 1 +/- {_NORMALIZATION_SLACK}; "
                f"condition estimate was {condition_estimate:.3g}"
            )
        clamped = tuple(min(1.0, max(0.0, p)) for p in pmf_values)
        cdf_values, _ = cls._cdf(clamped, cls._one)
        return super().__new__(
            cls, m, n, r, s, gamma, clamped, condition_estimate, complete, cdf_values
        )

    def _tail(self, t: int) -> float:
        return 1.0 if t <= 0 else math.fsum(self.pmf_values[t:])


def _validate(m: int, n: int, r: int, s: int, gamma: float) -> None:
    _validate_params(m, n, r, s)
    if not (gamma > 0 and math.isfinite(gamma)):
        raise ParameterError(f"gamma must be a positive real, got {gamma}")


def _precedence_logs(gamma: float) -> _CellLogs:
    """f(k, t), f(k, 0) = 0, such that precedence cell k holding v after
    cells summing to t weighs its Beta factor over v! as
    exp(f(k, t) - f(k, t + v + 1)): since ln B(a, v + 1) - ln v! =
    ln G(a) - ln G(a + v + 1), f(k, t) = ln G(t + k gamma) / G(k gamma),
    formed as lgamma(t) - log_beta(k gamma, t). Cell 0 has no Beta factor
    and always starts from t = 0: f(0, t) = ln (t - 1)!."""
    def logs(k: int, t: int) -> float:
        if not t:
            return 0.0
        return math.lgamma(t) - log_beta(k * gamma, t) if k else math.lgamma(t)

    return logs


def _exceedance_logs(m: int, n: int, gamma: float) -> _CellLogs:
    """The same for exceedance cells, placed from the last one back: the
    k-th placed has Beta factor B(c - t - v, v + 1), c = m + gamma (n - k),
    so f(k, t) = ln G(c + 1) / G(c + 1 - t) = lgamma(t) - log_beta(c + 1 - t, t)."""
    def logs(k: int, t: int) -> float:
        return math.lgamma(t) - log_beta(m + gamma * (n - k) + 1 - t, t) if t else 0.0

    return logs


def _log_chain(cells: Iterable[int], logs: _CellLogs) -> float:
    """ln of one vector's Beta chain over its cell factorials, its cells
    given in placement order."""
    acc, t = 0.0, 0
    for k, v in enumerate(cells):
        acc += logs(k, t) - logs(k, t + v + 1)
        t += v
    return acc


def _side(
    length: int, top: int, logs: _CellLogs, peak: int
) -> tuple[list[float], list[list[float]]]:
    """(scale, rows): exp(scale[t]) * rows[i][t - i] sums, over the vectors of
    `length` cells with total t <= top and largest cell i <= peak, their
    chain factors over their cell factorials; row i covers the band
    i..min(length * i, top) outside of which every such sum is 0, and
    scale[t] is -inf at the totals no such vector reaches. Each total's
    entries peak at 1, so floats neither overflow nor underflow.

    No state ever holds a cell above peak: after k cells, total t keeps its
    states from its least largest cell first[t] = ceil(t / k) to min(t,
    peak), and only the totals up to k * peak; the first cell holds the
    whole total. Cell k >= 1 reads its factors from one table f[t] =
    logs(k, t): the move from total t to u = t + v, v <= peak, weighs
    exp(h(t) - f[u + 1]), h(t) = scale[t] + f[t], and is made as
    exp(h(t) - H(u)), H(u) the largest h(t') over the totals t' that reach
    u, so that H(u) - f[u + 1] goes into scale[u]. A move adds the states
    below v, whose running max v becomes, as one product with a running sum
    of the row (formed left to right), and each of its states from max(v,
    first[t]) on to one entry, as _side_steps counts them. With peak = top
    no move is skipped: every total's row then depends only on the totals
    below it, so a smaller top gives the same bits for the totals it keeps.
    A smaller peak normalizes each total over fewer states, so its rows
    agree with the uncapped ones to rounding, not bit for bit."""
    reach = min(top, peak)  # the largest total the cells so far hold
    first = list(range(reach + 1))
    # the first cell holds the whole total u, of weight 1 / u! = exp(-f[u + 1])
    scale = [-x for x in map(logs, [0] * (reach + 1), range(1, reach + 2))]
    scale += [-math.inf] * (top - reach)
    w = [[1.0]] * (reach + 1)  # w[total][largest - first[total]]
    for k in range(1, length):
        grown = min(top, (k + 1) * peak)
        f = [logs(k, t) for t in range(grown + 2)]
        h = list(map(add, scale, f))
        prefix = [list(accumulate(row, initial=0.0)) for row in w]  # sum(row[:j])
        band = [-(-u // (k + 1)) for u in range(grown + 1)]
        w += [[]] * (grown - reach)
        # totals high to low: total u reads only the states t <= u, not yet
        # replaced, and adds their moves with t ascending
        for u in range(grown, -1, -1):
            lo = u - peak if u > peak else 0
            reached = h[lo : (u if u < reach else reach) + 1]
            h_max = max(reached)
            moves = [math.exp(h_t - h_max) for h_t in reached]  # moves[t - lo]
            half, b = (u + 1) // 2, band[u]
            # a cell v = u - t above every state of t < half sets their
            # running max: out[v - b] is one product with the row's sum
            out = [0.0] * ((u - half if u - half < peak else peak) + 1 - b) + [
                moves[t - lo] * prefix[t][-1] for t in range(half - 1, lo - 1, -1)
            ]
            for t in range(half if half > lo else lo, lo + len(moves)):
                v, c, row, a = u - t, moves[t - lo], w[t], first[t]
                # the states from i to min(t, peak) keep their largest cell
                i, end = a, (t if t < peak else peak) + 1 - b
                if v > a:
                    out[v - b] += c * prefix[t][v - a]
                    i = v
                out[i - b : end] = [o + c * x for o, x in zip(out[i - b : end], row[i - a :])]
            most = max(out)
            scale[u] = h_max - f[u + 1] + math.log(most)
            w[u] = [x / most for x in out]
        first, reach = band, grown
    return scale, [
        [w[t][i - first[t]] for t in range(i, min(length * i, top) + 1)]
        for i in range(min(top, peak) + 1)
    ]


# ln 10 in two parts: e * _LN10_HI is exact for |e| < 2^27, and _LN10_LO
# carries the next 53 bits
_LN10_HI = 77261934 / 2**25
_LN10_LO = 2.7629208037533617e-08
_MANTISSA = Context(prec=20)


def _ln(x: Decimal) -> float:
    """ln x for x > 0, as the float sum of ln mu, e ln10_hi and e ln10_lo,
    x = mu 10^e with mu rounded to 20 digits and then to a float: the
    mantissa, 1 <= mu < 10, for |e| > 10, and x itself (e = 0) below, where
    ln mu would cancel against e ln 10. Rounding mu to a float costs at most
    1.2e-16, math.log about half a unit in the last place, and math.fsum
    rounds the exact sum once, so the result is within about a unit in the
    last place of max(1, |ln x|). Decimal.ln takes tens of microseconds at
    any digits."""
    e = x.adjusted()
    e = e if abs(e) > 10 else 0
    return math.fsum((math.log(float(x.scaleb(-e, _MANTISSA))), e * _LN10_HI, e * _LN10_LO))


def _beta_sums(n1: int, b: int, q: int, r: int, gamma: float, count: int) -> list[float]:
    """ln S_k, k < count, for S_k = sum_l (-1)^l C(q, l) B(a + gamma l + k,
    b - k), a = n1 + r gamma: the integral of x^(a+k-1) (1-x)^(b-k-1)
    (1-x^gamma)^q over [0, 1], formed from positive terms only.

    With I(a, beta, p) the integral of x^(a-1) (1-x)^(beta-1) (1-x^gamma)^p,
    integration by parts gives, for beta >= 2 and p >= 1,
    a I(a, beta, p) = (beta - 1) I(a + 1, beta - 1, p)
                      + p gamma I(a + gamma, beta, p - 1).
    So E(j, p) = I(a + gamma (q - p) + b - 1 - j, j + 1, p), j < b, p <= q,
    of which S_k = E(b - 1 - k, q), is E(j, p) = j! p! gamma^p G(j, p) with
    G(j, p) = (G(j - 1, p) + G(j, p - 1)) / (a + gamma (q - p) + b - 1 - j)
    from G(0, 0) = B(a + gamma q + b - 1, 1), terms off the grid taken as 0.
    On the edges p = 0 and j = 0 that is the exact ratio of neighbouring
    Beta functions, B(x, y + 1) = B(x, y) y / (x + y). Each entry reads two
    of the anti-diagonal j + p - 1, so the b (q + 1) entries are swept one
    anti-diagonal at a time, each by maps of decimal operations (C, in the
    standard library's decimal) over the whole anti-diagonal.

    Nothing cancels: an entry adds two positive numbers and divides by a
    positive sum, so its relative error is at most the larger of its two
    inputs' plus six roundings of half a unit in the last working digit
    (the addition, four in the denominator and the division). The fewer
    than b + q steps down to G(j, q) and the b + q roundings of its scale
    leave S_k within 7 (b + q) 5 10^(-digits) of itself, below 3.5e-19 at
    digits = 20 + the digits of b + q. ln S_k comes from _ln, within about
    a unit in its last place.
    """
    with localcontext(Context(prec=20 + len(str(b + q)), Emax=MAX_EMAX, Emin=MIN_EMIN)):
        g = Decimal(gamma)
        base = [n1 + r * g + g * (q - p) for p in range(q + 1)]  # a + gamma (q - p)
        # column[p + 1] = G(d - p, p) on the latest anti-diagonal d that holds
        # p, 0 off the grid, and G(-1, 0) = 1 so that G(0, 0) comes out as 1
        # over its denominator
        column = [0, 1] + [0] * q
        last = []  # G(j, q), j = 0, 1, ...
        for d in range(b + q):
            lo, hi = max(0, d - b + 1), min(d, q)
            column[lo + 1 : hi + 2] = map(
                truediv,
                map(add, column[lo + 1 : hi + 2], column[lo : hi + 1]),  # G(j-1, p) + G(j, p-1)
                map(add, base[lo : hi + 1], range(b - 1 - d + lo, b - d + hi)),
            )
            if hi == q:
                last.append(column[q + 1])
        # E(j, q) = j! q! gamma^q G(j, q), the factorials as running products
        scales = accumulate(range(1, b), mul, initial=math.prod(range(1, q + 1), start=g**q))
        return [_ln(x) for x in reversed(list(map(mul, last, scales))[b - count :])]


def _log_add(a: float, b: float) -> float:
    """ln(e^a + e^b)."""
    if a > b:
        a, b = b, a
    return b + math.log1p(math.exp(a - b))


def _log_counts(
    m: int, n: int, r: int, s: int, gamma: float, top: int
) -> tuple[float, list[float]]:
    """ln(n! / q! * gamma^(r+s)) and ln(m! / (m-t)!) for t = 0..top, from exact integers."""
    log_c = math.log(math.perm(n, r + s)) + (r + s) * math.log(gamma)
    perms = accumulate(range(m, m - top, -1), mul, initial=1)  # m! / (m-t)!, t = 0..top
    return log_c, list(map(math.log, perms))


def joint_frequency_pmf_lehmann(fv: FrequencyVector, gamma: float) -> float:
    """Probability of one whole frequency vector under G = F^gamma."""
    m, n, r, s = fv.m, fv.n, fv.r, fv.s
    _validate(m, n, r, s, gamma)
    n1, total = fv.total_precedence, fv.total
    [log_s] = _beta_sums(n1, m - total + 1, n - r - s, r, gamma, 1)
    log_c, log_perm = _log_counts(m, n, r, s, gamma, total)
    log_p = (
        log_c
        + log_perm[total]
        + _log_chain(fv.f_p, _precedence_logs(gamma))
        + _log_chain(reversed(fv.f_e), _exceedance_logs(m, n, gamma))
        + log_s
    )
    return min(1.0, math.exp(log_p))


def _piecewise_sum(g: Callable[[int], int], ends: Iterable[int], hi: int) -> int:
    """g(0) + g(1) + ... + g(hi), g a polynomial of degree at most 2 on each
    piece lo..end that `ends` cut 0..hi into: n g(lo) + C(n, 2) dg + C(n, 3)
    d2g from g's first three values on the piece, n = end - lo + 1 (Newton's
    forward differences; the values past a shorter piece weigh 0)."""
    total, lo = 0, 0
    for end in sorted({e for e in ends if e < hi} | {hi}):
        n = end - lo + 1
        if n > 0:
            g0, g1, g2 = g(lo), g(lo + 1), g(lo + 2)
            total += n * g0 + n * (n - 1) // 2 * (g1 - g0)
            total += n * (n - 1) * (n - 2) // 6 * (g2 - 2 * g1 + g0)
            lo = end + 1
    return total


def _side_steps(length: int, top: int, peak: int) -> int:
    """Steps of _side(length, top, ..., peak), counted before any:
    _ENTRY_STEPS per entry of its log tables, min(top, peak) + 1 for the
    first cell and min(top, (k + 1) peak) + 2 for cell k; and per later
    cell, _MOVE_STEPS per move, one from each total t <= min(top, k peak) by
    each v <= min(peak, top - t), and one step per pair of its row slices:
    the (t, v, i) with v <= i <= min(t, peak), t <= k i (i at least first[t])
    and t + v <= top. Over t for fixed (v, i) that is min(k i, top - v) - i +
    1 pairs, a polynomial in i between the breaks top // (k + 1), top // 2
    and top // k. From k = top on every cell counts the same."""
    def cell(k: int) -> int:
        moves = _piecewise_sum(lambda t: min(peak, top - t) + 1, [top - peak], min(top, k * peak))

        def pairs(i: int) -> int:  # the pairs of largest cell i, over v
            last = min(i, top - i)
            kept = max(0, min(last, top - k * i) + 1)  # the v whose t run up to k i
            return kept * (k * i - i + 1) + (last + 1 - kept) * (top - i + 1) - _series(kept, last)

        slices = _piecewise_sum(pairs, [top // (k + 1), top // 2, top // k], min(top, peak))
        return _ENTRY_STEPS * (min(top, (k + 1) * peak) + 2) + _MOVE_STEPS * moves + slices

    same = max(top, 1)
    return (
        _ENTRY_STEPS * (min(top, peak) + 1) + sum(map(cell, range(1, min(length, same))))
        + max(0, length - same) * cell(same)
    )


@lru_cache(maxsize=128)
def _steps(m: int, n: int, r: int, s: int, top: int) -> int:
    """Work of alternative_distribution(m, n, r, s, ., top) in steps,
    counted before any is done, over the cells i + j <= top and the totals
    up to T = min(m, max(r, s) top); cached, as every gamma of a shape
    counts the same."""
    cap = min(m, max(r, s) * top)
    tri = (cap + 1) * (cap + 2) // 2  # entries of an (n1, t) table
    # each cell's normalized table of at most tri entries; the rows of S and
    # the link table; one sum per H_j entry and per cell of the cross step;
    # T + 1 logarithms of the diagonal Beta sums
    entries = (r + s + 4) * tri + cap + 1
    # the side tables, _side's copy of at most tri entries per side into rows
    # by largest cell, and the cross step's multiply-adds
    steps = _side_steps(r, cap, top) + _side_steps(s, cap, top) + 2 * tri
    steps += _cross_steps(r, s, cap, _triangle(top)) + _ENTRY_STEPS * entries
    # the (m + 1)(q + 1) entries of the Beta-sum recurrence, whatever T, and
    # its m + q + 1 anti-diagonals, each costing about six entries
    q = n - r - s
    return steps + _SUM_STEPS * ((m + 1) * (q + 1) + 6 * (m + q + 1))


def alternative_distribution(
    m: int, n: int, r: int, s: int, gamma: float, t_max: Optional[int] = None
) -> AlternativeDistribution:
    """Exact pmf of the statistic under G = F^gamma, in three passes over
    the totals up to T = min(m, max(r, s) t_max), which hold every cell
    (i, j) with i + j <= t_max (T = m without t_max):

    1. side tables P[n1][i] and E[n2][j], summed over the vectors with cell
       total n1 (n2) and largest cell i (j) <= t_max: about T t_max moves
       per cell after the first (T^2 / 2 for the full law), and about
       (r + s - 2) T^3 / 12 multiply-adds in all for the full law;
    2. the Beta sums S(n1, t) from S(n1, t) = S(n1, t-1) + S(n1+1, t) and
       the T + 1 diagonal sums, which _beta_sums reads off (m + 1)(q + 1)
       entries of a positive recurrence in decimal, whatever T, and T + 1
       logarithms; rows n1 = T..0 each come from the row below and feed
       link row n1 at once, so no table of S is kept;
    3. the null kernel's cross step: H_j[n1] = sum_n2 E[n2][j] S(n1, n1 + n2)
       / (m - n1 - n2)!, once per j, and pmf[i + j] += P[n1][i] H_j[n1], each
       sum over the band n2 <= s*j (n1 <= r*i) where the side entry can be
       nonzero: at most T^3 / 3 multiply-adds, (T + 1)(T + 2) when r = s = 1.

    Passes 1 and 2 also build O(T^2) tables, a side's by-total triangle and
    the link table, which _steps counts with the passes. A truncated law
    (complete=False) agrees with the full law's first t_max + 1 entries to
    rounding: its side tables never form the states above t_max, so they
    cannot share the full law's per-total normalization; its diagonal Beta
    sums are the full law's, bit for bit. Raises BudgetExceededError, before
    any work, above WORK_BUDGET steps.
    """
    _validate(m, n, r, s, gamma)
    top = _truncation_top(m, t_max)
    cap = min(m, max(r, s) * top)  # T: the largest total a cell i + j <= top reads
    _check_budget(_steps(m, n, r, s, top), "Lehmann-law")
    diagonal = _beta_sums(0, m + 1, n - r - s, r, gamma, cap + 1)  # ln S(t, t)
    scale_p, rows_p = _side(r, cap, _precedence_logs(gamma), top)
    scale_e, rows_e = _side(s, cap, _exceedance_logs(m, n, gamma), top)
    log_c, log_perm = _log_counts(m, n, r, s, gamma, cap)
    # link[n1][t - n1] from ln S(n1, t), t = n1..T, whose row is the running
    # log-sum of the row below: S(n1, t) = S(n1, t-1) + S(n1+1, t). One
    # (n1, i) group times one (n2, j) group is a probability, so with the
    # side entries peaking at 1 every factor here is at most 1
    link: list[list[float]] = [[]] * (cap + 1)
    log_s: list[float] = []
    for n1 in range(cap, -1, -1):
        log_s = list(accumulate(log_s, _log_add, initial=diagonal[n1]))
        link[n1] = [
            math.exp(log_c + log_perm[t] + scale_p[n1] + scale_e[t - n1] + log_st)
            for t, log_st in enumerate(log_s, n1)
        ]
    cells = _triangle(top)
    pmf = _cross(rows_p, rows_e, lambda n1, lo, hi: link[n1][lo:hi], cells, cap, _float_sum)
    return AlternativeDistribution(
        m=m, n=n, r=r, s=s, gamma=gamma, pmf_values=tuple(pmf),
        condition_estimate=1.0, complete=top == m,
    )


def exact_power(m: int, n: int, r: int, s: int, gamma: float, alpha: float) -> float:
    """Rejection probability of the size-alpha randomized test under G = F^gamma,
    (1 - cdf(c - 1)) + phi pmf(c - 1), from the law truncated to t_max = c - 1.
    The full law's work is counted, and refused above WORK_BUDGET, before the
    null table behind c is built."""
    if not 0 < alpha < 1:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    _validate(m, n, r, s, gamma)
    from .inference import critical_value

    _check_budget(_steps(m, n, r, s, m), "Lehmann-law")
    crit = critical_value(m, n, r, s, alpha)
    top = crit.c - 1  # c >= 1: P[T >= 0] = 1 exceeds every alpha
    dist = alternative_distribution(m, n, r, s, gamma, top)
    reject = 1.0 - dist.cdf(top)
    alpha1 = float(crit.alpha1)
    alpha2 = float(crit.alpha2)
    if alpha2 > alpha1:
        reject += (alpha - alpha1) / (alpha2 - alpha1) * dist.pmf(top)
    return min(1.0, max(0.0, reject))
