"""Exact null distribution of the maximal precedence/exceedance sum.

All null probabilities are ratios of integer counts, so everything here is
computed in exact rational arithmetic: a distribution's pmf entries share
the denominator C(m+n, n) and are returned as Fractions. One convolution
kernel serves the full, truncated and large-sample laws; its cross step,
which joins the precedence and exceedance sides cell by cell, also serves
the Lehmann law in floats, under the same WORK_BUDGET. Its side rows, the
counts of tuples of cell counts by total and largest cell, come from one
binomial column per side by inclusion-exclusion. A brute-force enumeration
over sample interleavings doubles as the validation oracle for the kernel.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations
from operator import mul, sub
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, Union

from .combinatorics import binomial
from .errors import BudgetExceededError, ParameterError
from .statistics import FrequencyVector, statistic_bundle

__all__ = [
    "NullDistribution",
    "joint_frequency_pmf_null",
    "joint_PE_pmf",
    "null_distribution",
    "brute_force_null_distribution",
    "asymptotic_null_cdf",
    "BRUTE_FORCE_LIMIT",
    "WORK_BUDGET",
]

BRUTE_FORCE_LIMIT = 10**7
# steps of one exact law: side-table entries and cross multiply-adds; the
# Lehmann law also counts its tables and Beta-sum terms, weighed by their cost
WORK_BUDGET = 10**8


def _check_budget(steps: int, law: str) -> None:
    """Raise BudgetExceededError, before any work, above WORK_BUDGET steps."""
    if steps > WORK_BUDGET:
        raise BudgetExceededError(f"{steps} {law} steps exceed {WORK_BUDGET}")


class _Law:
    """support, pmf/cdf lookups and the cdf build shared by the null and
    Lehmann laws: tuple records with pmf_values on the support
    0..len(pmf_values) - 1 and, last, the cdf_values that _cdf forms before
    the record is built. Each law answers off its support in its own number
    type, in _off_support(t, value), value being 0 below the support and,
    for a cdf, 1 above it.
    """

    __slots__ = ()

    @staticmethod
    def _cdf(pmf_values: Sequence[Any], one: Any) -> tuple[tuple[Any, ...], Any]:
        """The running sums of pmf_values, capped at one, and their uncapped total."""
        sums = list(accumulate(pmf_values, initial=0 * one))
        return tuple(min(c, one) for c in sums[1:]), sums[-1]

    def __getnewargs__(self) -> tuple:
        return tuple(self)[:-1]  # copies and pickles rebuild cdf_values

    @property
    def support(self) -> range:
        return range(len(self.pmf_values))

    def pmf(self, t: int) -> Any:
        if 0 <= t < len(self.pmf_values):
            return self.pmf_values[t]
        return self._off_support(t, 0)

    def cdf(self, t: int) -> Any:
        if 0 <= t < len(self.cdf_values):
            return self.cdf_values[t]
        return self._off_support(t, 0 if t < 0 else 1)


class NullDistribution(
    _Law, namedtuple("NullDistribution", "m n r s pmf_values complete cdf_values")
):
    """Exact pmf/cdf of the statistic on its support {0..m}.

    When built with a truncated support (complete=False) the tables cover
    {0..t_max} only and the normalization invariants are not enforced.
    """

    __slots__ = ()

    def __new__(
        cls, m: int, n: int, r: int, s: int, pmf_values: Sequence[Fraction],
        complete: bool = True,
    ) -> "NullDistribution":
        if any(p < 0 for p in pmf_values):
            raise ParameterError("pmf entries must be non-negative")
        cdf_values, total = cls._cdf(pmf_values, Fraction(1))
        if complete:
            if len(pmf_values) != m + 1:
                raise ParameterError("complete support must cover 0..m")
            if total != 1:
                raise ParameterError(f"pmf sums to {total}, expected exactly 1")
        return super().__new__(cls, m, n, r, s, pmf_values, complete, cdf_values)

    def _off_support(self, t: int, value: int) -> Fraction:
        """value, unless the table is truncated and t lies above it."""
        if t >= 0 and not self.complete:
            raise ParameterError(f"t = {t} beyond the truncated support")
        return Fraction(value)

    def tail(self, t: int) -> Fraction:
        """P[T >= t]."""
        if not self.complete:
            raise ParameterError("tail probabilities need the complete support")
        return Fraction(1) - self.cdf(t - 1)


def _validate_params(m: int, n: int, r: int, s: int) -> None:
    if m < 1:
        raise ParameterError("m must be at least 1")
    if r < 1 or s < 1:
        raise ParameterError("r and s must be positive")
    if r + s > n:
        raise ParameterError(f"r + s = {r + s} exceeds n = {n}")


def joint_frequency_pmf_null(fv: FrequencyVector) -> Fraction:
    """Probability of one whole frequency vector when both samples share F.

    Depends on the vector only through its total: the count of orderings
    that realize the vector divided by C(m+n, n).
    """
    free = fv.n - fv.r - fv.s
    return Fraction(
        binomial(fv.m - fv.total + free, free), binomial(fv.m + fv.n, fv.n)
    )


def _side_rows(boxes: int, peaks: range, length: int) -> dict[int, list[int]]:
    """{p: W_boxes[p][k] of _kernel for k = p..min(boxes * p, length)}, p in peaks.

    W[p][k] = C_p(k) - C_(p-1)(k), C_c(k) counting the tuples summing to k
    with no part above c; W[0] = [1]. Each C_c comes, by inclusion-exclusion
    over the j parts forced past c, from one column free[x] = C(x + boxes - 1,
    boxes - 1), the tuples summing to x: C_c(k) = sum_j (-1)^j C(boxes, j)
    free[k - j (c + 1)], at most `boxes` shifted slices of it. C_c covers
    k = c..min(boxes * (c + 1), length), what rows c and c + 1 read.
    """
    free = list(accumulate(range(1, length + 1), lambda f, x: f * (x + boxes - 1) // x, initial=1))

    def capped(c: int) -> list[int]:
        hi = min(boxes * (c + 1), length)
        out = free[c : hi + 1]
        for j in range(1, min(boxes, hi // (c + 1)) + 1):
            shift, coef = j * (c + 1), (-1) ** j * binomial(boxes, j)
            out[shift - c :] = [x + coef * y for x, y in zip(out[shift - c :], free[: hi + 1 - shift])]
        return out

    rows = {}
    below = capped(peaks.start - 1) if peaks.start > 0 else []
    for p in peaks:
        at = capped(p)
        rows[p] = list(map(sub, at, below[1:])) if p else [1]
        below = at
    return rows


def _series(lo: int, hi: int) -> int:
    """lo + (lo + 1) + ... + hi, 0 for an empty range."""
    return (lo + hi) * (hi - lo + 1) // 2 if hi >= lo else 0


_Cells = list[tuple[int, int, int]]
_Rows = Union[Mapping[int, Sequence[Any]], Sequence[Sequence[Any]]]  # row per largest cell


def _cross_steps(r: int, s: int, length: int, cells: _Cells) -> int:
    """Multiply-adds _cross does with r- and s-cell side rows, counted before any."""
    steps = 0
    for j, i_lo, i_hi in cells:
        top = min(s * j, length)
        # H_j: each k2 in [j, top] meets length - k2 + 1 values of k1
        steps += _series(length - top + 1, length - j + 1)
        # cell (i, j) runs k1 over [i, min(r * i, length - j)]
        split = min(i_hi, (length - j) // r)
        steps += (r - 1) * _series(i_lo, split) + max(0, split - i_lo + 1)
        steps += _series(length - j - i_hi + 1, length - j - max(i_lo, split + 1) + 1)
    return steps


def _float_sum(values: Iterable[float]) -> float:
    """The floats summed left to right, as sum() did before Python 3.12 made
    its float sums compensated: the same bits on every version. A loop of
    float adds costs less than functools.reduce over operator.add."""
    total = 0.0
    for value in values:
        total += value
    return total


def _cross(
    rows_r: _Rows, rows_s: _Rows, link: Callable[[int, int, int], Sequence[Any]],
    cells: _Cells, length: int, total: Callable[[Iterable[Any]], Any],
) -> list[Any]:
    """num[t], the sum of the cells (i, j) with i + j = t, from two side tables.

    (j, i_lo, i_hi) in `cells` stands for the cells (i, j), i_lo <= i <= i_hi,
    with i + j <= K = length. rows_r[i] holds the precedence side's weights
    of totals k1 = i..min(r * i, K) with largest cell i, rows_s[j] the same
    for the exceedance side, and link(k1, lo, hi) the link weights L(k1, k2)
    for k2 = lo..hi - 1, cut short at k1 + k2 = K. Cell (i, j) sums
    rows_r[i][k1] * H_j[k1], H_j[k1] = sum rows_s[j][k2] * L(k1, k2); H_j is
    formed once per j and shared by every i. Slicing only the band a row
    covers keeps the copies within the _cross_steps count. `total` adds up
    the products: sum for integers, _float_sum for floats.
    """
    num = [0] * (max(j + i_hi for j, _, i_hi in cells) + 1)
    for j, i_lo, i_hi in cells:
        row_s = rows_s[j]
        h_j = [
            total(map(mul, row_s, link(k1, j, j + len(row_s))))
            for k1 in range(length - j + 1)
        ]
        for i in range(i_lo, i_hi + 1):
            row_r = rows_r[i]
            num[i + j] += total(map(mul, row_r, h_j[i : i + len(row_r)]))
    return num


def _kernel(r: int, s: int, weights: list[int], cells: _Cells) -> list[int]:
    """num[t], the sum of the null cells (i, j) with i + j = t: _cross with
    the side rows W_b[p][k], the ordered b-tuples summing to k with largest
    part p, and the link weights[k1 + k2]; `cells` run over consecutive j
    upwards. Costs O(t * K^2) steps for i + j <= t, K = len(weights) - 1,
    counting each side-row entry and cross multiply-add as one; raises
    BudgetExceededError, before any work, above WORK_BUDGET steps.
    """
    length = len(weights) - 1
    i_rows = range(min(c[1] for c in cells), max(c[2] for c in cells) + 1)
    j_rows = range(cells[0][0], cells[-1][0] + 1)
    steps = sum(min(r * i, length) - i + 1 for i in i_rows)
    steps += sum(min(s * j, length) - j + 1 for j in j_rows)
    _check_budget(steps + _cross_steps(r, s, length, cells), "null-kernel")

    rows_r = _side_rows(r, i_rows, length)
    rows_s = _side_rows(s, j_rows, length)
    return _cross(
        rows_r, rows_s, lambda k1, lo, hi: weights[k1 + lo : k1 + hi], cells, length, sum
    )


def _exact_pmf(m: int, n: int, r: int, s: int, cells: _Cells) -> list[Fraction]:
    """Null probability of each diagonal i + j = t, summed over `cells`."""
    free = n - r - s
    weights = [1] * (m + 1)  # C(m - k + free, free), each from its right neighbour
    for k in range(m, 0, -1):
        weights[k - 1] = weights[k] * (m - k + 1 + free) // (m - k + 1)
    den = binomial(m + n, n)
    return [Fraction(v, den) for v in _kernel(r, s, weights, cells)]


def joint_PE_pmf(m: int, n: int, r: int, s: int, i: int, j: int) -> Fraction:
    """Exact P[max precedence = i, max exceedance = j] under the null."""
    _validate_params(m, n, r, s)
    if not (0 <= i <= m and 0 <= j <= m):
        raise ParameterError(f"cell maxima must lie in 0..m, got ({i}, {j})")
    if i + j > m:
        return Fraction(0)
    return _exact_pmf(m, n, r, s, [(j, i, i)])[i + j]


@lru_cache(maxsize=32)
def null_distribution(
    m: int, n: int, r: int, s: int, t_max: Optional[int] = None
) -> NullDistribution:
    """Exact null pmf/cdf of the statistic, cached per (m, n, r, s, t_max).

    P[T = t] adds the joint (max precedence, max exceedance) cells with
    i + j = t from the shared kernel: O(m^3) big-integer multiply-adds for
    the full table, O(t_max * m^2) truncated to {0..t_max}. Raises
    BudgetExceededError above WORK_BUDGET kernel steps.
    """
    _validate_params(m, n, r, s)
    top = m if t_max is None else min(t_max, m)
    if top < 0:
        raise ParameterError("t_max must be non-negative")
    pmf = _exact_pmf(m, n, r, s, [(j, 0, top - j) for j in range(top + 1)])
    return NullDistribution(m=m, n=n, r=r, s=s, pmf_values=tuple(pmf), complete=top == m)


def brute_force_null_distribution(m: int, n: int, r: int, s: int) -> NullDistribution:
    """Enumerate every interleaving of m X-ranks among m+n positions.

    Desk-scale oracle, independent of the kernel and its side rows.
    """
    _validate_params(m, n, r, s)
    total = binomial(m + n, n)
    if total > BRUTE_FORCE_LIMIT:
        raise BudgetExceededError(
            f"C({m + n}, {n}) = {total} interleavings exceed the brute-force limit"
        )
    positions = range(m + n)
    counts = [0] * (m + 1)
    for x_positions in combinations(positions, m):
        chosen = set(x_positions)
        x = [float(p) for p in x_positions]
        y = [float(p) for p in positions if p not in chosen]
        t_val = statistic_bundle(x, y, r, s).max_sum
        counts[t_val] += 1
    pmf = tuple(Fraction(c, total) for c in counts)
    return NullDistribution(m=m, n=n, r=r, s=s, pmf_values=pmf)


def asymptotic_null_cdf(r: int, s: int, t: int, n_max: int = 40) -> float:
    """Large-sample (equal group sizes) approximation to the null cdf.

    Replaces the exact ordering-count ratio with its limit (1/2)^(total+r+s)
    and caps the cell total at n_max (the default leaves tail mass below
    1e-12). The exact kernel with integer weights 2^(n_max - total) makes it
    O(min(t, n_max) * n_max^2) steps, correctly rounded, non-decreasing in t.
    """
    if r < 1 or s < 1:
        raise ParameterError("r and s must be positive")
    if n_max < 0:
        raise ParameterError("n_max must be non-negative")
    if t < 0:
        return 0.0
    top = min(t, n_max)
    weights = [2 ** (n_max - k) for k in range(n_max + 1)]
    num = _kernel(r, s, weights, [(j, 0, top - j) for j in range(top + 1)])
    return sum(num) / 2 ** (n_max + r + s)
