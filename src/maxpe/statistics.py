"""Precedence/exceedance frequency vectors and two-sample test statistics.

Conventions for a training sample X (size m) against the order statistics
of a test sample Y (size n), given cell counts r and s with r + s <= n:

* precedence cell i (i = 1..r) is the half-open interval
  (Y_(i-1), Y_(i)] with Y_(0) = -inf;
* exceedance cell i (i = 1..s) is [Y_(n-s+i), Y_(n-s+1+i)) with
  Y_(n+1) = +inf.

X values equal to a Y boundary are assigned by these conventions. Ties
across samples therefore get a deterministic treatment, but the exact
distribution theory assumes continuous data; callers should warn when
cross-sample ties occur.

Ties can make the two cell blocks overlap (Y_(n-s+1) <= Y_(r)), which
would count an X value on both sides. Such values are assigned to the
precedence side, keeping the cell counts a sub-partition of the X sample;
with distinct boundary order statistics this never triggers and the
literal conventions apply unchanged.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import ParameterError

__all__ = [
    "Sample",
    "FrequencyVector",
    "StatisticBundle",
    "frequency_vector",
    "statistic_bundle",
    "orders_from_rates",
]

SampleLike = Union["Sample", Sequence[float], Iterable[float]]


class Sample(namedtuple("Sample", "values label")):
    """One group's observations, unordered, with an optional label.

    len() counts the values, not the record's two fields.
    """

    __slots__ = ()

    def __new__(cls, values: Iterable[float], label: str = "") -> "Sample":
        vals = tuple(float(v) for v in values)
        if not vals:
            raise ParameterError("a sample must contain at least one observation")
        if not all(math.isfinite(v) for v in vals):
            raise ParameterError(f"sample {label!r} contains non-finite values")
        return super().__new__(cls, vals, label)

    def __len__(self) -> int:
        return len(self.values)


def as_sample(data: SampleLike, label: str = "") -> Sample:
    if isinstance(data, Sample):
        return data
    return Sample(tuple(data), label)


def _validate_params(m: int, n: int, r: int, s: int) -> None:
    """The one shape check: m >= 1, r, s >= 1 and r + s <= n."""
    if m < 1:
        raise ParameterError("m must be at least 1")
    if r < 1 or s < 1:
        raise ParameterError("r and s must be positive")
    if r + s > n:
        raise ParameterError(f"r + s = {r + s} exceeds the test-sample size n = {n}")


class FrequencyVector(namedtuple("FrequencyVector", "f_p f_e m n r s")):
    """Per-cell counts of X values in the precedence and exceedance cells."""

    __slots__ = ()

    def __new__(
        cls, f_p: Iterable[int], f_e: Iterable[int], m: int, n: int, r: int, s: int
    ) -> "FrequencyVector":
        self = super().__new__(
            cls, tuple(int(v) for v in f_p), tuple(int(v) for v in f_e), m, n, r, s
        )
        _validate_params(m, n, r, s)
        if len(self.f_p) != r or len(self.f_e) != s:
            raise ParameterError("frequency vector lengths must equal r and s")
        if any(v < 0 for v in self.f_p + self.f_e):
            raise ParameterError("cell counts must be non-negative")
        if self.total > m:
            raise ParameterError(f"cell counts sum to {self.total}, more than m = {m}")
        return self

    @property
    def total_precedence(self) -> int:
        return sum(self.f_p)

    @property
    def total_exceedance(self) -> int:
        return sum(self.f_e)

    @property
    def total(self) -> int:
        return self.total_precedence + self.total_exceedance

    @property
    def max_precedence(self) -> int:
        return max(self.f_p)

    @property
    def max_exceedance(self) -> int:
        return max(self.f_e)


class StatisticBundle(NamedTuple):
    """All statistics computed from one ordered pair of samples.

    max_sum = max_precedence + max_exceedance is the primary two-sided
    statistic. precedence_count (X values at or below Y_(r)) and
    exceedance_count (Y values strictly above X_(m-s+1)) form the
    count-sum competitor; max_precedence alone is the one-sided maximal
    precedence competitor. exceedance_count is None when s > m, and
    count_sum is exposed only for r == s with m == n.
    """

    max_precedence: int
    max_exceedance: int
    max_sum: int
    precedence_count: int
    exceedance_count: Optional[int]
    count_sum: Optional[int]
    frequencies: FrequencyVector


def frequency_vector(
    x: SampleLike, y: SampleLike, r: int, s: int
) -> FrequencyVector:
    """Count X values per precedence/exceedance cell of Y's order statistics."""
    xs = sorted(as_sample(x).values)
    ys = sorted(as_sample(y).values)
    m, n = len(xs), len(ys)
    _validate_params(m, n, r, s)

    # f_p[i-1] = #X in (Y_(i-1), Y_(i)]: successive differences of #{x <= Y_(i)}
    at_or_below = [bisect_right(xs, ys[i]) for i in range(r)]
    f_p = tuple(
        at_or_below[i] - (at_or_below[i - 1] if i else 0) for i in range(r)
    )
    # f_e[i-1] = #X in [Y_(n-s+i), Y_(n-s+1+i)): differences of #{x >= Y_(j)},
    # excluding anything already claimed by the precedence block (x <= Y_(r))
    claimed = at_or_below[r - 1]
    at_or_above = [
        m - max(bisect_left(xs, ys[n - s + i]), claimed) for i in range(s)
    ] + [0]
    f_e = tuple(at_or_above[i] - at_or_above[i + 1] for i in range(s))
    return FrequencyVector(f_p=f_p, f_e=f_e, m=m, n=n, r=r, s=s)


def statistic_bundle(
    x: SampleLike, y: SampleLike, r: int, s: int
) -> StatisticBundle:
    """Compute every supported statistic for the pair (training=x, test=y)."""
    xs = sorted(as_sample(x).values)
    ys = sorted(as_sample(y).values)
    m, n = len(xs), len(ys)
    fv = frequency_vector(xs, ys, r, s)

    max_p = fv.max_precedence
    max_e = fv.max_exceedance
    precedence_count = fv.total_precedence  # = #{x <= Y_(r)}

    exceedance_count: Optional[int] = None
    if s <= m:
        # Y values strictly exceeding the (m-s+1)-th smallest X
        boundary = xs[m - s]
        exceedance_count = n - bisect_right(ys, boundary)

    count_sum: Optional[int] = None
    if exceedance_count is not None and r == s and m == n:
        count_sum = exceedance_count + precedence_count

    return StatisticBundle(
        max_precedence=max_p,
        max_exceedance=max_e,
        max_sum=max_p + max_e,
        precedence_count=precedence_count,
        exceedance_count=exceedance_count,
        count_sum=count_sum,
        frequencies=fv,
    )


def orders_from_rates(n: int, rho1: float, rho2: float) -> tuple[int, int]:
    """Map cell rates to cell counts: r = floor(rho1 * n) + 1, same for s.

    The small epsilon absorbs binary-representation noise in rho * n so
    that decimal rates like 0.1 * 30 land on the mathematically intended
    integer.
    """
    for rho in (rho1, rho2):
        if not 0.0 <= rho < 1.0:
            raise ParameterError(f"rates must lie in [0, 1), got {rho}")
    r = int(math.floor(rho1 * n + 1e-9)) + 1
    s = int(math.floor(rho2 * n + 1e-9)) + 1
    return r, s
