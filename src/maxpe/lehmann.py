"""Distribution of the statistic under the Lehmann alternative G = F^gamma.

A frequency vector's probability is a constant times a precedence and an
exceedance Beta chain and the alternating Beta sum
S(n1, t) = sum_l (-1)^l C(q, l) B(n1 + r*gamma + gamma*l, m - t + 1), over
the cell-count factorials; n1 is the precedence total, t the total of all
cells, q = n - r - s. The pmf comes from three polynomial passes over
positive quantities, so nothing cancels in floating point: side tables by a
recurrence over (partial sum, running max) states, returned by largest cell,
each cell's Beta factors over factorials read from one O(m) table of
log-gamma differences; the link weights, each row from a row of S summed
from the row below, so that only the diagonal of S is an alternating sum
(evaluated in decimal, its logarithm from a cached anchor and a short atanh
series); and the null kernel's cross step. A law truncated to T <= t_max
needs every table only up to the total min(m, max(r, s) t_max), whatever m.
gamma = 1 recovers the exact null.
"""

from __future__ import annotations

import math
from collections import namedtuple
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from functools import lru_cache
from itertools import accumulate
from operator import add
from typing import Callable, Iterable, Optional, Sequence

from .combinatorics import log_beta
from .errors import NumericalError, ParameterError
from .null_dist import (
    _check_budget, _cross, _cross_steps, _float_sum, _Law, _series, _validate_params,
)
from .statistics import FrequencyVector

__all__ = [
    "AlternativeDistribution",
    "joint_frequency_pmf_lehmann",
    "alternative_distribution",
    "exact_power",
]

_GUARD_DIGITS = 20  # working digits kept beyond the worst cancellation
# Weights, in WORK_BUDGET steps of one float multiply-add, of a table entry
# built by a call or by exp, log1p or lgamma; of a move of _side, an exp and
# the loop step that adds it; and of one decimal product of a Beta sum:
# _MP_STEPS, and one step more per _MP_DIGITS_PER_STEP working digits. With
# CPython 3.11 on a shared 2-vCPU Xeon VM a move took 0.7-0.9 us, a pair of
# _side's row slices about 50 ns, and a product 0.3-0.47 us at 33-750
# digits. With these weights whole laws at n = m, gamma = 2 ran at 45-58 ns
# a step (one run of 70 ns) at r = s = 1, 2, 3, 5 and 10, m = 25-1200, and
# the largest the budget admits at 52-61 ns a step, 5.2-5.9 s
_ENTRY_STEPS = 5
_MOVE_STEPS = 16
_MP_STEPS = 6
_MP_DIGITS_PER_STEP = 170

_PMF_SLACK = 1e-9
_NORMALIZATION_SLACK = 1e-6

# ln of a Beta sum: digits, anchor spacing and the atanh series' 1/(2j + 1)
_LN_CONTEXT = Context(prec=45, Emax=MAX_EMAX, Emin=MIN_EMIN)
_ANCHOR = Decimal("0.01")
_TEN = Decimal("10.00")
_ATANH = [_LN_CONTEXT.divide(1, k) for k in range(19, 0, -2)]

# f(k, t) of one side's cell k at total t; see _precedence_logs
_CellLogs = Callable[[int, int], float]


class AlternativeDistribution(
    _Law,
    namedtuple(
        "AlternativeDistribution",
        "m n r s gamma pmf_values condition_estimate complete cdf_values",
    ),
):
    """pmf of the statistic under G = F^gamma, with a cancellation diagnostic.

    condition_estimate is the largest ratio of the summed term magnitudes of
    a diagonal Beta sum to its value: the factor by which evaluating that sum
    in working precision magnifies rounding (1 means nothing cancels). A
    truncated law (complete=False) covers {0..t_max} and is only checked not
    to exceed total mass 1.
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


def _side(length: int, top: int, logs: _CellLogs) -> tuple[list[float], list[list[float]]]:
    """(scale, rows): exp(scale[t]) * rows[i][t - i] sums, over the vectors of
    `length` cells with total t <= top and largest cell i, their chain
    factors over their cell factorials; row i covers the band
    i..min(length * i, top) outside of which every such sum is 0. Each
    total's entries peak at 1, so floats neither overflow nor underflow.

    After k cells, total t keeps its states only from its least largest
    cell first[t] = ceil(t / k) on; the first cell holds the whole total.
    Cell k >= 1 reads its factors from one table f[t] = logs(k, t),
    t <= top + 1: the move from total t to u = t + v weighs
    exp(h(t) - f[u + 1]), h(t) = scale[t] + f[t], and is made as
    exp(h(t) - H(u)), H(u) the largest h(t') with t' <= u, so that
    H(u) - f[u + 1] goes into scale[u]. A move adds the states below v, whose
    running max v becomes, as one product with a running sum of the row
    (formed left to right), and each of its t + 1 - max(v, first[t]) states
    from there on to one entry, as _side_steps counts them. Every total's
    row depends only on the totals below it, so a smaller top gives the
    same bits for the totals it keeps."""
    first = list(range(top + 1))
    # the first cell holds the whole total u, of weight 1 / u! = exp(-f[u + 1])
    scale = [-x for x in map(logs, [0] * (top + 1), range(1, top + 2))]
    w = [[1.0]] * (top + 1)  # w[total][largest - first[total]]
    for k in range(1, length):
        f = [logs(k, t) for t in range(top + 2)]
        h = list(map(add, scale, f))
        peaks = list(accumulate(h, max))
        prefix = [list(accumulate(row, initial=0.0)) for row in w]  # sum(row[:j])
        band = [-(-u // (k + 1)) for u in range(top + 1)]
        # totals high to low: total u reads only the states t <= u, not yet
        # replaced, and adds their moves with t ascending
        for u in range(top, -1, -1):
            h_max, b = peaks[u], band[u]
            moves = [math.exp(h_t - h_max) for h_t in h[: u + 1]]
            half = (u + 1) // 2
            # a cell v = u - t above every state of t < half sets their
            # running max: out[v - b] is one product with the row's sum
            out = [0.0] * (u + 1 - half - b) + [
                moves[t] * prefix[t][-1] for t in range(half - 1, -1, -1)
            ]
            for t in range(half, u + 1):
                v, c, row, a = u - t, moves[t], w[t], first[t]
                i = a  # the states from i on keep their largest cell
                if v > a:
                    out[v - b] += c * prefix[t][v - a]
                    i = v
                out[i - b : t + 1 - b] = [o + c * x for o, x in zip(out[i - b : t + 1 - b], row[i - a :])]
            peak = max(out)
            scale[u] = h_max - f[u + 1] + math.log(peak)
            w[u] = [x / peak for x in out]
        first = band
    return scale, [
        [w[t][i - first[t]] for t in range(i, min(length * i, top) + 1)] for i in range(top + 1)
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


@lru_cache(maxsize=32)
def _diagonal_digits(m: int, n: int, r: int, s: int, gamma: float) -> int:
    """Working digits of the m + 1 diagonal Beta sums S(t, t) of the full
    law, 0 when q = 0 leaves nothing to cancel. A truncated law uses the
    same digits, so its sums keep the full law's bits. Cached: exact_power
    counts the full law's work with them, then builds a truncated law."""
    q = n - r - s
    return _beta_sum_digits([t + r * gamma for t in range(m + 1)], m + 1, q, gamma) if q else 0


@lru_cache(maxsize=None)  # keys are the 901 anchors 1.00, 1.01, ..., 10.00
def _ln_anchor(a: Decimal) -> Decimal:
    return a.ln(_LN_CONTEXT)


def _ln(x: Decimal) -> float:
    """ln x for x > 0, as ln a + 2 atanh((mu - a) / (mu + a)) + e ln 10 at 45
    digits: x = mu 10^e with 1 <= mu < 10, and a is mu rounded to 0.01, so
    |z| = |mu - a| / (mu + a) <= 0.0025 and ten terms of the series
    atanh z = z + z^3 / 3 + ... leave out less than 1e-55. That is within
    1e-28 of a unit in the last place of the float nearest ln x, which
    float() then rounds to. It takes a few microseconds; Decimal.ln takes
    tens at any digits."""
    with localcontext(_LN_CONTEXT):
        e = x.adjusted()
        mu = x.scaleb(-e)
        a = mu.quantize(_ANCHOR)
        z = (mu - a) / (mu + a)
        z2, series = z * z, 0
        for inverse in _ATANH:
            series = series * z2 + inverse
        return float(_ln_anchor(a) + 2 * z * series + e * _ln_anchor(_TEN))


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
    Python 3.12's compensated sum() changes only float sums. ln S_k comes
    from _ln, at 45 digits from a cached anchor.
    """
    a = [n1 + k + r * gamma for k in range(count)]
    if q == 0:
        return [(log_beta(a[k], b - k), 1.0) for k in range(count)]
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
            sums.append((_ln(total), min(float(condition), math.exp(709.0))))
            if k + 1 < count:
                terms = [term * (x_l + k) for term, x_l in zip(terms, x)]
                falling *= b - 1 - k
    return sums


def _log_add(a: float, b: float) -> float:
    """ln(e^a + e^b)."""
    lo, hi = sorted((a, b))
    return hi + math.log1p(math.exp(lo - hi))


def _log_counts(
    m: int, n: int, r: int, s: int, gamma: float, top: int
) -> tuple[float, list[float]]:
    """ln(n! / q! * gamma^(r+s)) and ln(m! / (m-t)!) for t = 0..top, from exact integers."""
    log_c = math.log(math.perm(n, r + s)) + (r + s) * math.log(gamma)
    return log_c, [math.log(math.perm(m, t)) for t in range(top + 1)]


def joint_frequency_pmf_lehmann(fv: FrequencyVector, gamma: float) -> float:
    """Probability of one whole frequency vector under G = F^gamma."""
    m, n, r, s = fv.m, fv.n, fv.r, fv.s
    _validate(m, n, r, s, gamma)
    n1, total = fv.total_precedence, fv.total
    [(log_s, _)] = _beta_sums(n1, m - total + 1, n - r - s, r, gamma, 1)
    log_c, log_perm = _log_counts(m, n, r, s, gamma, total)
    log_p = (
        log_c
        + log_perm[total]
        + _log_chain(fv.f_p, _precedence_logs(gamma))
        + _log_chain(reversed(fv.f_e), _exceedance_logs(m, n, gamma))
        + log_s
    )
    return min(1.0, math.exp(log_p))


def _quadratic_sum(c0: int, c1: int, c2: int, lo: int, hi: int) -> int:
    """c0 + c1 i + c2 i^2 summed over i = lo..hi, 0 <= lo; 0 when hi < lo."""
    if hi < lo:
        return 0
    squares = (hi * (hi + 1) * (2 * hi + 1) - (lo - 1) * lo * (2 * lo - 1)) // 6
    return c0 * (hi - lo + 1) + c1 * _series(lo, hi) + c2 * squares


def _band_gap(k: int, top: int) -> int:
    """Slice pairs a later cell of _side skips because the states of the k
    cells before it start at ceil(t / k): the (t, v, i) with v <= i, k i < t
    and t + v <= top. For fixed i, v runs to i while top - k i > i, that is
    up to i1, giving (i + 1)(top - k i) - i (i + 1) / 2 pairs, and below
    that x (x + 1) / 2, x = top - k i, while x > 0, up to i2."""
    i1, i2 = (top - 1) // (k + 1), (top - 1) // k
    return (
        _quadratic_sum(2 * top, 2 * top - 2 * k - 1, -(2 * k + 1), 0, i1)
        + _quadratic_sum(top * top + top, -k * (2 * top + 1), k * k, i1 + 1, i2)
    ) // 2


def _side_steps(length: int, top: int) -> int:
    """Steps of _side(length, top, ...), counted before any: _ENTRY_STEPS
    per entry of its log tables, top + 1 for the first cell and top + 2 for
    each later one; and per later cell, _MOVE_STEPS per move, one from each
    t <= u to each u <= top, and one step per pair of its row slices. A cell
    v added to total t pairs t + 1 - max(v, ceil(t / k)) states when v <= t.
    Without the bands, for fixed u the terms max(0, 2t + 1 - u) sum to
    (u // 2 + 1) * ((u + 1) // 2 + 1): over u = 0..top, the squares up to
    e = top // 2 + 1 and the products j (j + 1) up to o = (top + 1) // 2;
    _band_gap takes off what the bands skip, top for every k >= top."""
    e, o = top // 2 + 1, (top + 1) // 2
    tri = (top + 1) * (top + 2) // 2
    pairs = e * (e + 1) * (2 * e + 1) // 6 + o * (o + 1) * (o + 2) // 3
    gaps = sum(_band_gap(k, top) for k in range(1, min(length, top)))
    gaps += max(0, length - max(top, 1)) * top
    return (
        _ENTRY_STEPS * (length * (top + 2) - 1) + (length - 1) * (_MOVE_STEPS * tri + pairs) - gaps
    )


def _steps(
    m: int, n: int, r: int, s: int, digits: int, top: int, cells: list[tuple[int, int, int]]
) -> int:
    """Work of alternative_distribution over `cells`, its tables stopping at
    the total `top` and its diagonal Beta sums at `digits` working digits,
    in steps, counted before any is done."""
    tri = (top + 1) * (top + 2) // 2  # entries of an (n1, t) table
    q = n - r - s
    # each cell's normalized table of at most tri entries; the rows of S and
    # the link table; one sum per H_j entry and per cell of the cross step
    entries = (r + s + 4) * tri
    # the side tables, _side's copy of at most tri entries per side into rows
    # by largest cell, and the cross step's multiply-adds
    steps = _side_steps(r, top) + _side_steps(s, top) + 2 * tri + _cross_steps(r, s, top, cells)
    steps += _ENTRY_STEPS * entries
    if q:
        # the m + 1 entries of the digit bound; per Beta-sum term, m + 1
        # factors of its first value, top steps and top + 1 additions into
        # the sums; and top + 1 logarithms
        weight = _MP_STEPS + digits // _MP_DIGITS_PER_STEP
        steps += _ENTRY_STEPS * (m + top + 2) + weight * (q + 1) * (m + 2 * top + 2)
    return steps


def _full_cells(top: int) -> list[tuple[int, int, int]]:
    """The cells (i, j) with i + j <= top, as _cross takes them."""
    return [(j, 0, top - j) for j in range(top + 1)]


def alternative_distribution(
    m: int, n: int, r: int, s: int, gamma: float, t_max: Optional[int] = None
) -> AlternativeDistribution:
    """Exact pmf of the statistic under G = F^gamma, in three passes over
    the totals up to T = min(m, max(r, s) t_max), which hold every cell
    (i, j) with i + j <= t_max (T = m without t_max):

    1. side tables P[n1][i] and E[n2][j], summed over the vectors with cell
       total n1 (n2) and largest cell i (j): T^2 / 2 moves per cell after
       the first, and about (r + s - 2) T^3 / 12 multiply-adds in all;
    2. the Beta sums S(n1, t) from S(n1, t) = S(n1, t-1) + S(n1+1, t), with
       only the T + 1 diagonal sums evaluated, in decimal: (q + 1)(m + 2T + 2)
       products at the working digits, and T + 1 logarithms;
       rows n1 = T..0 each come from the row below and feed link row n1 at
       once, so no table of S is kept;
    3. the null kernel's cross step: H_j[n1] = sum_n2 E[n2][j] S(n1, n1 + n2)
       / (m - n1 - n2)!, once per j, and pmf[i + j] += P[n1][i] H_j[n1], each
       sum over the band n2 <= s*j (n1 <= r*i) where the side entry can be
       nonzero: at most T^3 / 3 multiply-adds, (T + 1)(T + 2) when r = s = 1.

    Passes 1 and 2 also build O(T^2) tables, a side's by-total triangle and
    the link table, which _steps counts with the passes. A truncated law
    (complete=False) equals the full law's first t_max + 1 entries bit for
    bit. Raises BudgetExceededError, before any work, above WORK_BUDGET
    steps, and a failed diagonal Beta sum is a NumericalError before any
    table is built.
    """
    _validate(m, n, r, s, gamma)
    top = m if t_max is None else min(t_max, m)
    if top < 0:
        raise ParameterError("t_max must be non-negative")
    cap = min(m, max(r, s) * top)  # T: the largest total a cell i + j <= top reads
    cells = _full_cells(top)
    q = n - r - s
    digits = _diagonal_digits(m, n, r, s, gamma)
    _check_budget(_steps(m, n, r, s, digits, cap, cells), "Lehmann-law")
    diagonal = _beta_sums(0, m + 1, q, r, gamma, cap + 1, digits)  # (ln S(t, t), condition)
    scale_p, rows_p = _side(r, cap, _precedence_logs(gamma))
    scale_e, rows_e = _side(s, cap, _exceedance_logs(m, n, gamma))
    log_c, log_perm = _log_counts(m, n, r, s, gamma, cap)
    # link[n1][t - n1] from ln S(n1, t), t = n1..T, whose row is the running
    # log-sum of the row below: S(n1, t) = S(n1, t-1) + S(n1+1, t). One
    # (n1, i) group times one (n2, j) group is a probability, so with the
    # side entries peaking at 1 every factor here is at most 1
    link: list[list[float]] = [[]] * (cap + 1)
    log_s: list[float] = []
    for n1 in range(cap, -1, -1):
        log_s = list(accumulate(log_s, _log_add, initial=diagonal[n1][0]))
        link[n1] = [
            math.exp(log_c + log_perm[t] + scale_p[n1] + scale_e[t - n1] + log_st)
            for t, log_st in enumerate(log_s, n1)
        ]
    pmf = _cross(rows_p, rows_e, lambda n1, lo, hi: link[n1][lo:hi], cells, cap, _float_sum)
    return AlternativeDistribution(
        m=m, n=n, r=r, s=s, gamma=gamma, pmf_values=tuple(pmf),
        condition_estimate=max(condition for _, condition in diagonal), complete=top == m,
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

    digits = _diagonal_digits(m, n, r, s, gamma)
    _check_budget(_steps(m, n, r, s, digits, m, _full_cells(m)), "Lehmann-law")
    crit = critical_value(m, n, r, s, alpha)
    top = crit.c - 1  # c >= 1: P[T >= 0] = 1 exceeds every alpha
    dist = alternative_distribution(m, n, r, s, gamma, top)
    reject = 1.0 - dist.cdf(top)
    alpha1 = float(crit.alpha1)
    alpha2 = float(crit.alpha2)
    if alpha2 > alpha1:
        reject += (alpha - alpha1) / (alpha2 - alpha1) * dist.pmf(top)
    return min(1.0, max(0.0, reject))
