"""Distribution of the statistic under the Lehmann alternative G = F^gamma.

A frequency vector's probability is a constant times a precedence and an
exceedance Beta chain and the Beta sum
S(n1, t) = sum_l (-1)^l C(q, l) B(n1 + r*gamma + gamma*l, m - t + 1), over
the cell-count factorials; n1 is the precedence total, t the total of all
cells, q = n - r - s. S is the integral of x^(n1 + r gamma - 1) (1-x)^(m-t)
(1-x^gamma)^q over [0, 1], and it is never formed as the alternating sum.
The pmf comes from three polynomial passes over positive quantities, so
nothing cancels: side tables by largest cell, each cell's Beta factors over
factorials read from one O(m) table of log-gamma differences; the link
weights, each row from a row of S summed from the row below, the diagonal
of S from a recurrence in decimal that integration by parts gives; and the
null kernel's cross step. A law truncated to T <= t_max needs every table
only up to the total min(m, max(r, s) t_max), whatever m, and its side
states only up to the largest cell t_max. gamma = 1 recovers the exact null.
"""

from __future__ import annotations

import math
from collections import namedtuple
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from functools import lru_cache
from itertools import accumulate
from operator import add, mul, sub, truediv
from typing import Callable, Iterable, Optional, Sequence

from .combinatorics import log_beta
from .errors import NumericalError, ParameterError
from .null_dist import (
    WORK_BUDGET, _check_budget, _cross, _cross_steps, _float_sum, _Law, _series,
    _triangle, _truncation_top, _validate_params,
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
# its share of the per-total passes; of a slice pass of _side; and of one
# entry of the Beta-sum recurrence, three decimal operations at 21-27
# digits, whose anti-diagonals cost about six entries each more. On CPython
# 3.11, a shared 2-vCPU Xeon VM, a fit of _side over 20 shapes gave 45 ns a
# multiply-add, 0.33 us a move and 1.8 us a pass with its row's other work
# (40 steps; 32 keeps r = s = 10 laws at the ns a step of r = s = 1, 2), and
# a recurrence entry took 0.37-0.4 us. The largest laws the budget admits at
# n = m, gamma = 2 and r = s = 1, 2, 10 ran at 59-104 ns a step, 5.9-10.4 s
_ENTRY_STEPS = 5
_MOVE_STEPS = 7
_PASS_STEPS = 32
_SUM_STEPS = 8

_PMF_SLACK = 1e-9
_NORMALIZATION_SLACK = 1e-6

# f(k, t) of one side's cell k at total t; see _precedence_logs
_CellLogs = Callable[[int, int], float]


class AlternativeDistribution(
    _Law, namedtuple("AlternativeDistribution", "m n r s gamma pmf_values complete cdf_values")
):
    """pmf of the statistic under G = F^gamma. A truncated law
    (complete=False) covers {0..t_max} and is only checked not to exceed
    total mass 1.
    """

    __slots__ = ()
    _one = 1.0
    # no pass of the law cancels, so rounding is never magnified; the
    # benchmark's tracer still reads this
    condition_estimate = 1.0

    def __new__(
        cls, m: int, n: int, r: int, s: int, gamma: float, pmf_values: Sequence[float],
        complete: bool = True,
    ) -> "AlternativeDistribution":
        if any(p < -_PMF_SLACK or p > 1 + _PMF_SLACK for p in pmf_values):
            raise NumericalError("pmf entries escaped [0, 1] beyond numerical slack")
        total = math.fsum(pmf_values)
        if abs(total - 1.0) > _NORMALIZATION_SLACK and (complete or total > 1.0):
            raise NumericalError(
                f"pmf sums to {total!r}, outside 1 +/- {_NORMALIZATION_SLACK}"
            )
        clamped = tuple(min(1.0, max(0.0, p)) for p in pmf_values)
        cdf_values, _ = cls._cdf(clamped, cls._one)
        return super().__new__(cls, m, n, r, s, gamma, clamped, complete, cdf_values)

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

    After k cells rows[i] holds the totals i..min(k i, top). Cell k >= 1
    reads f[t] = logs(k, t): the move of v from total t weighs exp(h[t] -
    f[t + v + 1]), h = scale + f, made as cv[v][t] = exp(h[t] - H[t + v]),
    H[u] the largest h over the totals reaching u; H[u] - f[u + 1] goes into
    scale[u]. Row i of cell k >= 2 starts as cv[i] times the sum of rows
    0..i - 1, the states whose largest cell v = i becomes, then adds cv[v]
    times itself shifted by v, v = i..0, two v to a slice pass: each entry
    adds its terms in the order of the former recurrence over totals, so the
    bits are the same. Cell 1 is closed: total u of row i comes from (u - i,
    i) and (i, u - i). With peak = top a smaller top keeps the same bits; a
    smaller peak normalizes each total over fewer states, to rounding."""
    reach = min(top, peak)  # the largest total the cells so far hold
    # the first cell holds the whole total i, of weight 1 / i! = exp(-f[i + 1])
    scale = [-x for x in map(logs, [0] * (reach + 1), range(1, reach + 2))]
    scale += [-math.inf] * (top - reach)
    rows = [[1.0]] * (reach + 1)
    for k in range(1, length):
        grown = min(top, (k + 1) * peak)
        f = [logs(k, t) for t in range(grown + 2)]
        h = list(map(add, scale, f))
        H = [max(h[u - peak if u > peak else 0 : (u if u < reach else reach) + 1])
             for u in range(grown + 1)]
        cols = []
        if k > 1:  # cv[v][t] for t <= min(reach, top - v), then a 0
            cv = [list(map(math.exp, map(sub, h[: min(reach, top - v) + 1], H[v:]))) + [0.0]
                  for v in range(len(rows))]
            below = [0.0] * (reach + 1)  # below[t]: the rows before row i at total t
        for i, row in enumerate(rows):
            n, cap = len(row), top - i + 1
            if k == 1:  # total u: (u - i, i) for u < 2 i, then (i, u - i)
                kept = list(map(math.exp, map(sub, [h[i]] * min(i + 1, cap), H[i:])))
                col = list(map(add, map(math.exp, map(sub, h[: min(i, cap)], H[i:])), kept))
                cols.append(col + kept[i:])
                continue
            b = min(k * i - k + 1, cap) if i else 0
            col = list(map(mul, cv[i][:b], below)) + [0.0] * (min(k * i + 1, cap) - b)
            # v = hi..1 in pairs (v, v - 1), each with a 0 at one end
            hi, row0, rowp = min(i, cap - 1), [0.0] + row, row + [0.0]
            for v in range(hi, 0, -2):
                e = v + n if v + n < cap else cap
                terms = zip(col[v - 1 : e], cv[v][i - 1 : i + e - v], row0,
                            cv[v - 1][i : i + e - v + 1], rowp)
                col[v - 1 : e] = [o + a * x + c * y for o, a, x, c, y in terms]
            if not hi % 2:
                col[:n] = [o + c * x for o, c, x in zip(col, cv[0][i : i + n], row)]
            below[i : i + n] = map(add, below[i : i + n], row)
            cols.append(col)
        # total u of row i at flat[i * (top + 1) + u], so that flat[u :: top + 1]
        # holds total u's entries, and 0 where a row lacks u
        flat = []
        for i, col in enumerate(cols):
            flat += [0.0] * (i * (top + 2) - len(flat)) + col
        most = [max(flat[u :: top + 1]) for u in range(grown + 1)]
        scale = list(map(add, map(sub, H, f[1:]), map(math.log, most)))
        scale += [-math.inf] * (top - grown)
        rows = [list(map(truediv, col, most[i:])) for i, col in enumerate(cols)]
        reach = grown
    return scale, rows


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
        offsets = list(map(Decimal, range(b)))
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
                map(add, base[lo : hi + 1], offsets[b - 1 - d + lo : b - d + hi]),
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


def _side_steps(length: int, top: int, peak: int) -> int:
    """Steps of _side(length, top, ..., peak), counted before any:
    _ENTRY_STEPS per entry of its log tables, min(top, peak) + 1 and then
    min(top, (k + 1) peak) + 2 for cell k; _MOVE_STEPS per move, an exp from
    each total t <= min(top, k peak) by each v <= min(peak, top - t); from
    cell 2 on, per row, _PASS_STEPS per slice pass and one per multiply-add,
    two per entry of a pass of v and v - 1. From cell max(top, 2) on every
    cell counts the same; the count stops once past WORK_BUDGET."""
    def cell(k: int) -> int:
        reach = min(top, k * peak)
        full = max(0, min(reach, top - peak) + 1)  # the totals t < full move every v
        moves = full * (peak + 1) + _series(top - reach + 1, top - full + 1)
        steps = _ENTRY_STEPS * (min(top, (k + 1) * peak) + 2) + _MOVE_STEPS * moves
        for i in range(min(top, peak) + 1) if k > 1 else ():
            n, cap = min(k * i, top) - i + 1, top - i + 1
            hi = min(i, cap - 1)
            pairs, single = (hi + 1) // 2, 1 - hi % 2
            # the passes v = hi, hi - 2, .. >= 1 hold min(n, cap - v) + 1 entries
            cut = min(pairs, max(0, (hi - cap + n + 1) // 2))  # those with cap - v < n
            entries = cut * (cap - hi + cut - 1) + (pairs - cut) * n + pairs
            steps += _PASS_STEPS * (pairs + single) + 2 * entries + single * n
        return steps

    steps, same = _ENTRY_STEPS * (min(top, peak) + 1), max(top, 2)
    for k in range(1, min(length, same)):
        steps += cell(k)
        if steps > WORK_BUDGET:
            return steps
    return steps + max(0, length - same) * cell(same)


def _band(cap: int, rows: int, width: int) -> int:
    """Entries of rows n1 = 0..rows of an (n1, t) table cut at t <= cap and
    t - n1 <= width."""
    return sum(min(width, cap - n1) + 1 for n1 in range(min(rows, cap) + 1))


@lru_cache(maxsize=128)
def _steps(m: int, n: int, r: int, s: int, top: int) -> int:
    """Work of alternative_distribution(m, n, r, s, ., top) in steps,
    counted before any is done, over the cells i + j <= top and the totals
    up to T = min(m, max(r, s) top); cached, as every gamma of a shape
    counts the same."""
    cap = min(m, max(r, s) * top)
    tri = (cap + 1) * (cap + 2) // 2  # entries of an (n1, t) table
    # the rows of S, and of the link table for n1 <= r top, cut at t - n1 <= s top
    sums, links = _band(cap, cap, s * top), _band(cap, r * top, s * top)
    # each cell's normalized table of at most tri entries; one sum per H_j
    # entry and per cell of the cross step; T + 1 logarithms of the diagonal
    # Beta sums
    entries = (r + s + 2) * tri + sums + links + cap + 1
    # the side tables, the cross step's multiply-adds, and two more per S
    # entry: its _log_add call took 287 ns, a link entry 184
    steps = _side_steps(r, cap, top) + _side_steps(s, cap, top) + 2 * sums
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
       per cell after the first, an exp each, and from the third cell on
       about t_max^2 / 4 slice passes and, for the full law, T^3 / 12
       multiply-adds;
    2. the Beta sums S(n1, t) from S(n1, t) = S(n1, t-1) + S(n1+1, t) and
       the T + 1 diagonal sums, which _beta_sums reads off (m + 1)(q + 1)
       entries of a positive recurrence in decimal, whatever T, and T + 1
       logarithms; rows n1 = T..0, cut at t - n1 <= s t_max, each come
       from the row below and feed link row n1 <= r t_max at once;
    3. the null kernel's cross step: H_j[n1] = sum_n2 E[n2][j] S(n1, n1 + n2)
       / (m - n1 - n2)!, once per j, and pmf[i + j] += P[n1][i] H_j[n1], each
       sum over the band n2 <= s*j (n1 <= r*i) where the side entry can be
       nonzero: at most T^3 / 3 multiply-adds, (T + 1)(T + 2) when r = s = 1.

    Passes 1 and 2 also build O(T^2) tables, a side's rows and the link
    table, which _steps counts with the passes. A truncated law
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
    for n1 in range(cap, -1, -1):  # the cells read n1 <= r top, t - n1 <= s top
        log_s = list(accumulate(log_s[: s * top], _log_add, initial=diagonal[n1]))
        link[n1] = [
            math.exp(log_c + log_perm[t] + scale_p[n1] + scale_e[t - n1] + log_st)
            for t, log_st in enumerate(log_s, n1)
        ] if n1 <= r * top else []
    cells = _triangle(top)
    pmf = _cross(rows_p, rows_e, lambda n1, lo, hi: link[n1][lo:hi], cells, cap, _float_sum)
    return AlternativeDistribution(
        m=m, n=n, r=r, s=s, gamma=gamma, pmf_values=tuple(pmf), complete=top == m
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
